"""Output checks computed from the inputs the benchmark generated.

Each check returns a list of problems (empty when the property holds).  The
properties are the paper's, evaluated here without the program's own
monitors:

* epsilon-agreement — every honest node decides and honest outputs lie
  within epsilon of each other;
* validity — every output lies inside Theorem IV.3's relaxed hull, the
  honest inputs widened by ``max(rho0, delta) + epsilon`` on each side, where
  ``delta`` is the spread of the honest inputs;
* attestation — a certificate carries at least ``t + 1`` distinct signers,
  none of them offline in its epoch;
* delivery — a subscriber sees each epoch exactly once, in order.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Slack for float comparisons against the hull and epsilon.
TOLERANCE = 1e-9


def relaxed_hull(honest_inputs: Sequence[float], rho0: float, epsilon: float) -> Tuple[float, float]:
    low, high = min(honest_inputs), max(honest_inputs)
    widen = max(rho0, high - low) + epsilon
    return low - widen, high + widen


def check_agreement(
    outputs: Mapping[int, Optional[float]], honest: Iterable[int], epsilon: float
) -> List[str]:
    problems = []
    decided = []
    for node in honest:
        value = outputs.get(node)
        if value is None:
            problems.append(f"honest node {node} did not decide")
        else:
            decided.append(float(value))
    if decided and max(decided) - min(decided) > epsilon + TOLERANCE:
        problems.append(
            f"honest outputs spread {max(decided) - min(decided):.6g} > epsilon {epsilon:g}"
        )
    return problems


def check_in_hull(values: Iterable[float], hull: Tuple[float, float]) -> List[str]:
    low, high = hull
    return [
        f"output {value!r} outside relaxed hull [{low:.6f}, {high:.6f}]"
        for value in values
        if not low - TOLERANCE <= value <= high + TOLERANCE
    ]


def check_signers(signers: Sequence[int], t: int, offline: Iterable[int]) -> List[str]:
    problems = []
    if len(set(signers)) != len(signers):
        problems.append(f"duplicate signers {list(signers)}")
    if len(set(signers)) < t + 1:
        problems.append(f"{len(set(signers))} distinct signers, need t+1 = {t + 1}")
    down = sorted(set(signers) & set(offline))
    if down:
        problems.append(f"offline nodes {down} signed")
    return problems


def check_stream(received: Sequence[int], expected: Sequence[int]) -> List[str]:
    """Compare the epochs a subscriber received with the epochs served."""
    if list(received) == list(expected):
        return []
    problems = []
    seen: Dict[int, int] = {}
    for epoch in received:
        seen[epoch] = seen.get(epoch, 0) + 1
    missing = [epoch for epoch in expected if epoch not in seen]
    duplicated = sorted(epoch for epoch, count in seen.items() if count > 1)
    extra = sorted(set(seen) - set(expected))
    if missing:
        problems.append(f"certificates dropped for epochs {missing}")
    if duplicated:
        problems.append(f"certificates duplicated for epochs {duplicated}")
    if extra:
        problems.append(f"certificates for unserved epochs {extra}")
    if not problems:
        problems.append(f"certificates out of order: {list(received)}")
    return problems

