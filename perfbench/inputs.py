"""Seeded input generators for the benchmark workloads.

Every input the program receives is drawn here from the benchmark seed, so
the same ``--seed`` gives the same inputs.  Nothing in this module imports
the program: the generators and the checks that use their outputs stay
independent of the code under test.

Delphi's work depends on where the honest inputs fall on its checkpoint
grids (the multiples of ``2^l rho0``): an input range that touches one more
checkpoint starts one more BinAA instance.  Inputs drawn around a uniform
centre make that count, and with it the cost of an op, vary from seed to
seed (n=40 Delphi cells fell into two groups of about 92k and 127k events).
So every centre is a seed-drawn multiple of a period of all the grids plus a
fixed offset, and the inputs around it keep a fixed checkpoint structure:
the seed varies the absolute level and every input within its place, not
the checkpoints an op has to agree on.

Real feeds land on both structures, so each generator has two *alignments*,
a cheap one and a costly one that touches one more level-0 checkpoint
interval, and input slot ``k`` takes alignment ``k % 2``: every round of a
workload measures both, in equal shares.
"""

from __future__ import annotations

import random
from typing import List

#: Quote streams: a period that is a multiple of every checkpoint spacing
#: of the bitcoin calibration (rho0 = 10, Delta = 2000, so up to 2560) and
#: the mid-price's offset within it, which puts the mid-price on a
#: checkpoint of the first three levels.  Node ``i``'s quote lies in
#: ``mid + cells[i] + [0, QUOTE_CELL_WIDTH]``: each cell sits inside one
#: level-0 checkpoint interval, so every node votes for the same checkpoints
#: whatever the seed, while the quotes spread over about 30 dollars (the
#: paper's per-minute cross-exchange range has a Frechet fit of scale
#: 29.3 USD).  The cheap alignment's cells span 4 level-0 intervals, the
#: costly one moves node 0 down one interval to span 5 (quotes over about
#: 48 dollars; n=7 epochs of 1.9-2.4k and 2.4-3.2k events).
QUOTE_PERIOD = 2560.0
QUOTE_OFFSET = 1320.0
QUOTE_CELLS = (
    (-19.0, -19.0, 11.0, 11.0, -9.0, 1.0, 1.0),
    (-29.0, -19.0, 11.0, 11.0, -9.0, 1.0, 1.0),
)
QUOTE_CELL_WIDTH = 8.0
#: Older ticks of a gateway batch spread over the whole quote band.
QUOTE_HALF_WIDTH = 19.0


#: Names of the two alignments, by index.
ALIGNMENTS = ("cheap", "costly")


def alignment(slot: int) -> int:
    """The alignment input slot ``slot`` takes."""
    return slot % len(ALIGNMENTS)


def _centre(rng: random.Random, period: float, offset: float, low: int) -> float:
    return period * rng.randint(low, 2 * low - 1) + offset


def _epoch_quotes(rng: random.Random, mid: float, n: int, slot: int) -> List[float]:
    """One quote per node, node ``i`` in its cell of the slot's alignment."""
    layout = QUOTE_CELLS[alignment(slot)]
    cells = [layout[node % len(layout)] for node in range(n)]
    return [mid + low + rng.uniform(0.0, QUOTE_CELL_WIDTH) for low in cells]


def quote_epochs(seed: int, epochs: int, n: int) -> List[List[float]]:
    """``epochs`` rounds of ``n`` exchange quotes, one round per epoch."""
    rng = random.Random(f"quotes|{seed}")
    return [
        _epoch_quotes(rng, _centre(rng, QUOTE_PERIOD, QUOTE_OFFSET, 16), n, slot)
        for slot in range(epochs)
    ]


def tick_batches(seed: int, batches: int, size: int, n: int) -> List[List[float]]:
    """``batches`` client tick batches of ``size`` quotes, one per epoch.  An
    epoch is fed the newest ``n`` ticks of its batch, so those follow the
    epoch quote pattern; the older ones spread over the whole quote band."""
    rng = random.Random(f"ticks|{seed}")
    out = []
    for slot in range(batches):
        mid = _centre(rng, QUOTE_PERIOD, QUOTE_OFFSET, 16)
        older = [
            mid + rng.uniform(-QUOTE_HALF_WIDTH, QUOTE_HALF_WIDTH) for _ in range(size - n)
        ]
        out.append(older + _epoch_quotes(rng, mid, n, slot))
    return out
