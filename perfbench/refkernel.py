"""Frozen reference kernel that every benchmark timing is scaled against.

The kernel counts the order-preserving maps from the 2 x 4 grid poset to
the 4-element chain by backtracking over dict assignments, the same kind of
interpreter work as the functor enumeration it stands beside.  It imports
nothing from sitecolim and must never change: a job's scaled time is
`raw_s * REF_NOMINAL_S / reference_s`, so editing this file changes every
figure of the benchmark.
"""

import gc
import time

# Nominal seconds of one kernel call: the unit scaled timings are quoted in.
REF_NOMINAL_S = 0.005

_GRID = [(i, j) for i in range(2) for j in range(4)]
_N_P = len(_GRID)
_LE_P = {(x, y): _GRID[x][0] <= _GRID[y][0] and _GRID[x][1] <= _GRID[y][1]
         for x in range(_N_P) for y in range(_N_P)}
_N_Q = 4
_LE_Q = {(x, y): x <= y for x in range(_N_Q) for y in range(_N_Q)}
_EARLIER = {i: tuple(j for j in range(i) if _LE_P[(j, i)] or _LE_P[(i, j)])
            for i in range(_N_P)}
_EXPECTED = 490


def _count_maps():
    count = 0
    assign = {}

    def rec(i):
        nonlocal count
        if i == _N_P:
            count += 1
            return
        for y in range(_N_Q):
            ok = True
            for j in _EARLIER[i]:
                x = assign[j]
                if (_LE_P[(j, i)] and not _LE_Q[(x, y)]) or \
                        (_LE_P[(i, j)] and not _LE_Q[(y, x)]):
                    ok = False
                    break
            if ok:
                assign[i] = y
                rec(i + 1)
                del assign[i]

    rec(0)
    return count


def reference_seconds():
    """Run the kernel once with the cyclic GC paused; return its wall time."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        count = _count_maps()
        elapsed = time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()
    if count != _EXPECTED:
        raise RuntimeError("reference kernel counted %d maps, expected %d"
                           % (count, _EXPECTED))
    return elapsed
