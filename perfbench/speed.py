"""Machine-speed tracking for the end-to-end times.

On a shared host the speed of identical pure-Python work drifts by tens of
percent within seconds, and CPU time drifts as much as wall time. So a fixed
reference job, which is the benchmark's own code and calls nothing in
gbbench, runs after every timed unit. A unit's time is scaled by
REFERENCE_S over the mean of the reference times just before and just after
it: the result reads as seconds on a machine where the reference job takes
REFERENCE_S. A change to gbbench cannot move the reference job, so it moves
the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import random
from operator import add
from time import perf_counter

REFERENCE_S = 0.005
_P = 32003
_rng = random.Random(12345)
_A = [(tuple(_rng.randint(0, 4) for _ in range(4)), _rng.randrange(1, _P)) for _ in range(45)]
_B = [(tuple(_rng.randint(0, 4) for _ in range(4)), _rng.randrange(1, _P)) for _ in range(45)]


def _product() -> None:
    out: dict = {}
    for ea, ca in _A:
        for eb, cb in _B:
            e = tuple(map(add, ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % _P
    sorted(out, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))


def reference_job() -> float:
    """Seconds for a sparse polynomial product over Z_p with tuple exponents,
    plus a keyed sort of its terms: tuple arithmetic, dict updates, modular
    ints and calls, like the engine's inner loops. The best of three runs,
    with the cyclic collector paused, so that neither a preemption nor a
    collection of the benchmark's heap lands in the reference time."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            _product()
            best = min(best, perf_counter() - t0)
    finally:
        gc.enable()
    return best


class Speed:
    def __init__(self):
        self.last = reference_job()
        self.factors: list = []

    def factor(self) -> float:
        """Scale factor for the unit that ended just now; runs the reference job."""
        now = reference_job()
        f = REFERENCE_S / ((self.last + now) / 2)
        self.last = now
        self.factors.append(f)
        return f
