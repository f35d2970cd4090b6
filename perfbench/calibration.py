"""A fixed pure-Python reference load that gauges the machine's speed.

On a shared machine, the CPU's speed for this process changes by 20-40% over
seconds to minutes, and every request run in a slow stretch is slower by
about as much.  `loop_s` times a fixed depth-first search over a fixed
graph, the same kind of work as the code under test (dict, list and set
operations in the interpreter), and it does not depend on `bchrom`.  The
benchmark times it next to every request, and `run.py` states each
request's time in seconds at the reference speed, at which the loop takes
REFERENCE_S.
"""

from __future__ import annotations

import time

REFERENCE_S = 0.0005

_N = 500
_ADJ = {v: [(v * 7 + j) % _N for j in range(4)] for v in range(_N)}


def _search() -> int:
    reached = 0
    for root in range(0, _N, 200):
        seen, stack = {root}, [root]
        while stack:
            v = stack.pop()
            reached += 1
            for w in _ADJ[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return reached


def loop_s(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of the search, so that one
    interruption does not count as a slow machine."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        _search()
        best = min(best, time.perf_counter() - start)
    return best
