"""Host self time and call counts by layer, from one ``cProfile`` pass.

A layer is a package under ``src/repro/``.  A function's self time goes to
the layer whose file defines it.  Time spent in code that belongs to no
layer (C builtins, the standard library, numpy) is charged to the layer
that called it, through the profile's caller edges, so ``heappop`` counts
for ``sim`` and ``bytes.join`` for ``hetero``.  What cannot be traced back
to a layer (the benchmark's own loop) is ``other``.
"""

from __future__ import annotations

import os
import pstats
from collections import defaultdict
from typing import Dict, Tuple

#: Reported layers; every other package under ``src/repro`` lands in
#: ``other`` (they hold < 2 % of the host time on every workload).
LAYERS = ("sim", "net", "vni", "mpi", "gcs", "lwg", "ckpt", "store",
          "hetero", "daemon", "core", "cluster", "fleet", "obs", "apps")
OTHER = "other"

_PERF_DIR = os.path.dirname(os.path.abspath(__file__))
_REPRO_DIR = os.path.join(
    os.path.dirname(os.path.dirname(_PERF_DIR)), "src", "repro") + os.sep
#: The benchmark's own application counts as an application.
_LOCAL_APPS = os.path.join(_PERF_DIR, "programs.py")


def _own_layer(filename: str):
    """The layer a file belongs to, ``OTHER`` for the benchmark's files,
    ``None`` for code that is charged to its caller."""
    if filename.startswith(_REPRO_DIR):
        head = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return head if head in LAYERS else OTHER
    if filename == _LOCAL_APPS:
        return "apps"
    if filename.startswith(_PERF_DIR):
        return OTHER
    return None


def bucket(profile) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """``(self seconds by layer, calls by layer, total seconds)``."""
    stats = pstats.Stats(profile).stats
    shares: Dict[tuple, Dict[str, float]] = {}

    def layer_shares(func, path=()) -> Dict[str, float]:
        """Fractions of ``func``'s time owed to each layer; empty when no
        caller chain outside ``path`` reaches a layer."""
        known = shares.get(func)
        if known is not None:
            return known
        own = _own_layer(func[0])
        if own is not None:
            result = {own: 1.0}
        else:
            # Split over the callers by the cumulative time of each edge;
            # an edge back into the current path (recursion) is skipped.
            weights: Dict[str, float] = defaultdict(float)
            for caller, (_nc, _cc, _tt, ct) in stats[func][4].items():
                if caller in path or caller not in stats or ct <= 0:
                    continue
                for layer, share in layer_shares(
                        caller, path + (func,)).items():
                    weights[layer] += share * ct
            total = sum(weights.values())
            result = {k: v / total for k, v in weights.items()} \
                if total > 0 else {}
        if not path:
            shares[func] = result = result or {OTHER: 1.0}
        return result

    self_s: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        own = _own_layer(func[0])
        if own is not None:
            calls[own] += ncalls
        for layer, share in layer_shares(func).items():
            self_s[layer] += share * tottime
    return self_s, calls, sum(self_s.values())
