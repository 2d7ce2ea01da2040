"""Per-layer attribution of a profiled run.

The traced run profiles the timed window with :mod:`cProfile`: the calling
thread directly, and every thread started while the profiler is armed (the
gateway's epoch worker) through :func:`threading.setprofile`, each thread
with its own profile object.  The profiles are merged afterwards.

A Python function belongs to the layer named by its module
(``src/repro/sim/fastpath.py`` -> ``sim.fastpath``); the benchmark's own
files are ``bench`` and everything else is ``ext.<top-level module>``.  C
builtins have no module of their own, so their self time is folded into the
layer of whichever function called them, split by caller as the profile
records it.
"""

from __future__ import annotations

import cProfile
import os
import pstats
import threading
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

FuncKey = Tuple[str, int, str]

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Profiler:
    """cProfile over the calling thread and every thread started while armed."""

    def __init__(self) -> None:
        self._profiles: List[cProfile.Profile] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _enable_here(self) -> None:
        profile = cProfile.Profile()
        with self._lock:
            self._profiles.append(profile)
        self._local.profile = profile
        profile.enable()

    def _thread_hook(self, frame, event, arg) -> None:
        # First profiling event of a new thread: give it its own profile,
        # which replaces this hook for the rest of the thread's life.
        self._enable_here()

    def start(self) -> None:
        threading.setprofile(self._thread_hook)
        self._enable_here()

    def stop_this_thread(self) -> None:
        """Stop profiling the calling thread (run it on each worker thread
        before :meth:`stats`)."""
        profile = getattr(self._local, "profile", None)
        if profile is not None:
            profile.disable()

    def stop(self) -> None:
        threading.setprofile(None)
        self.stop_this_thread()

    def stats(self) -> pstats.Stats:
        with self._lock:
            profiles = list(self._profiles)
        merged = pstats.Stats(profiles[0])
        for profile in profiles[1:]:
            merged.add(profile)
        return merged


def is_builtin(key: FuncKey) -> bool:
    return key[0] == "~"


def layer_of(key: FuncKey) -> str:
    """The layer a (non-builtin) function's module names."""
    path = key[0].replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker >= 0 and path.endswith(".py"):
        module = path[marker + len("/repro/"):-3].replace("/", ".")
        if module.endswith("__init__"):
            module = module[: -len("__init__")].rstrip(".") or "repro"
        return module
    if os.path.dirname(os.path.abspath(key[0])) == _BENCH_DIR:
        return "bench"
    for anchor in ("/site-packages/", "/lib/python"):
        index = path.find(anchor)
        if index >= 0:
            rest = path[index + len(anchor):]
            if anchor == "/lib/python":
                rest = rest.split("/", 1)[-1]
            return "ext." + rest.split("/", 1)[0].removesuffix(".py")
    return "ext"


class LayerProfile:
    """Self time per layer and call counts per function of one profile."""

    def __init__(self, stats: pstats.Stats) -> None:
        self._stats: Dict[FuncKey, tuple] = stats.stats  # type: ignore[attr-defined]
        self._resolved: Dict[FuncKey, str] = {}
        self.self_seconds: Dict[str, float] = defaultdict(float)
        for key, (_cc, _nc, tt, _ct, callers) in self._stats.items():
            if not is_builtin(key):
                self.self_seconds[layer_of(key)] += tt
            elif not callers:
                self.self_seconds["builtin"] += tt
            else:
                for caller, edge in callers.items():
                    self.self_seconds[self._owner(caller)] += edge[2]

    def _owner(self, key: FuncKey, depth: int = 0) -> str:
        """Layer charged for time spent in ``key``: its own, or for a builtin
        the layer of its heaviest caller."""
        if not is_builtin(key):
            return layer_of(key)
        if key in self._resolved:
            return self._resolved[key]
        owner = "builtin"
        callers = self._stats.get(key, (0, 0, 0.0, 0.0, {}))[4]
        if callers and depth < 8:
            heaviest = max(callers.items(), key=lambda item: item[1][2])[0]
            owner = self._owner(heaviest, depth + 1)
        self._resolved[key] = owner
        return owner

    def layer_ms(self, prefixes: Iterable[str]) -> float:
        """Self time (ms) of every layer equal to or under one of ``prefixes``."""
        total = 0.0
        for layer, seconds in self.self_seconds.items():
            if any(layer == p or layer.startswith(p + ".") for p in prefixes):
                total += seconds
        return total * 1000.0

    def _entry(self, function: Callable) -> tuple:
        code = function.__code__
        return self._stats.get((code.co_filename, code.co_firstlineno, code.co_name), (0, 0, 0.0, 0.0, {}))

    def calls(self, *functions: Callable) -> int:
        return sum(self._entry(function)[1] for function in functions)

    def cumulative_ms(self, function: Callable, caller: Optional[Callable] = None) -> float:
        """Cumulative time (ms) in ``function``, optionally only the calls
        made from ``caller``."""
        entry = self._entry(function)
        if caller is None:
            return entry[3] * 1000.0
        code = caller.__code__
        edge = entry[4].get((code.co_filename, code.co_firstlineno, code.co_name))
        return edge[3] * 1000.0 if edge else 0.0
