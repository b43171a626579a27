"""In-memory span tracing around gbbench's layer entry points.

Nothing under src/ is changed: the tracer wraps public entry points from
here, and only while `installed()` is active.

* groebner.reduce and groebner.s_polynomial, the names buchberger calls,
  are replaced by timing wrappers for the duration of a traced round.
* PrimeField.inv is replaced by a counting wrapper.
* each order instance's `cmp` is replaced by a counting wrapper (counted,
  not timed per call) through `count_cmp`.
* realize, buchberger, reduce_basis and verify_groebner are called by the
  benchmark itself inside `span()`.

A span records name, order label, parent, start, end and the comparison and
inversion counters at both ends. Inside reduce_basis and verify_groebner the
inner wrappers pass through, so those two spans hold their whole subtree.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

NAME, LABEL, PARENT, START, END, CMP0, CMP1, INV0, INV1, NONZERO = range(10)
OPAQUE = ("reduce_basis", "verify")


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.label = ""
        self.cmp = 0
        self.inv = 0
        self.opaque = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.label, self.stack[-1] if self.stack else -1,
                           perf_counter(), 0.0, self.cmp, 0, self.inv, 0, None])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        s = self.spans[idx]
        s[END] = perf_counter()
        s[CMP1] = self.cmp
        s[INV1] = self.inv
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        opaque = name in OPAQUE
        idx = self.open(name)
        self.opaque += opaque
        try:
            yield idx
        finally:
            self.opaque -= opaque
            self.close(idx)

    def count_cmp(self, order) -> None:
        cmp = order.cmp
        tracer = self

        def counted(a, b):
            tracer.cmp += 1
            return cmp(a, b)

        order.cmp = counted

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            if self.opaque:
                return fn(*args, **kwargs)
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            self.spans[idx][NONZERO] = not out.is_zero
            return out
        return wrapper

    @contextmanager
    def installed(self, pkg):
        g = pkg.groebner
        field_cls = pkg.modfield.PrimeField
        saved = (g.reduce, g.s_polynomial, field_cls.inv)
        inv = field_cls.inv
        tracer = self

        def counted_inv(field, a):
            tracer.inv += 1
            return inv(field, a)

        g.reduce = self._timed("reduce", g.reduce)
        g.s_polynomial = self._timed("spoly", g.s_polynomial)
        field_cls.inv = counted_inv
        try:
            yield self
        finally:
            g.reduce, g.s_polynomial, field_cls.inv = saved

    def write(self, path) -> None:
        """One JSON line per span, times relative to the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "order": s[LABEL], "parent": s[PARENT],
                    "start": s[START] - t0, "end": s[END] - t0,
                    "cmp": s[CMP1] - s[CMP0], "inv": s[INV1] - s[INV0],
                    "nonzero": s[NONZERO]}) + "\n")


def self_totals(spans, first: int = 0) -> dict:
    """Per (name, label): self seconds, self comparisons, span count and
    nonzero results, over spans[first:]. Self = the span minus its children."""
    child_t: dict = defaultdict(float)
    child_c: dict = defaultdict(int)
    for s in spans[first:]:
        if s[PARENT] >= first:
            child_t[s[PARENT]] += s[END] - s[START]
            child_c[s[PARENT]] += s[CMP1] - s[CMP0]
    out: dict = defaultdict(lambda: {"s": 0.0, "cmp": 0, "calls": 0, "nonzero": 0})
    for i in range(first, len(spans)):
        s = spans[i]
        agg = out[(s[NAME], s[LABEL])]
        agg["s"] += s[END] - s[START] - child_t[i]
        agg["cmp"] += s[CMP1] - s[CMP0] - child_c[i]
        agg["calls"] += 1
        agg["nonzero"] += bool(s[NONZERO])
    return out
