"""Benchmark driver: timed Groebner runs across order strategies, reports,
and a comparator microbenchmark.

The timing protocol per cell: build the engine polynomials under the order
(weight-vector initialization included) and run Buchberger with a hard time
limit; repeat until the cumulative time exceeds min_measure_seconds and
report total/m, so sub-resolution runs are still measured meaningfully. A
cell that hits the limit is ABORTED and excluded from ratio statistics.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
from dataclasses import asdict, dataclass, field, fields
from importlib import resources
from itertools import groupby
from time import perf_counter

from .corpus import SystemSpec, permute_variables, realize
from .groebner import (
    INDUCED_ORDER,
    STRATEGIES,
    EngineStats,
    audit_cached_weights,
    buchberger,
    reduce_basis,
    reorder_variables,
    verify_failure,
)
from .modfield import DEFAULT_MODULUS, PrimeField
from .ordering import (
    DegRevLexOrder,
    MatrixCachedOrder,
    MatrixDirectOrder,
    MatrixOrder,
    SubtotalOrder,
    degrevlex_weight_matrix,
    subtotal_weight_matrix,
)

# The order roster: label -> (strategy class, family weight matrix n -> W).
# Matrix strategies are built from the family matrix, native ones from n.
ORDERS = {
    "degrevlex": (DegRevLexOrder, degrevlex_weight_matrix),
    "subtotal": (SubtotalOrder, subtotal_weight_matrix),
    "grevlex-matrix": (MatrixCachedOrder, degrevlex_weight_matrix),
    "subtotal-matrix": (MatrixCachedOrder, subtotal_weight_matrix),
    "grevlex-matrix-direct": (MatrixDirectOrder, degrevlex_weight_matrix),
    "subtotal-matrix-direct": (MatrixDirectOrder, subtotal_weight_matrix),
}
ORDER_LABELS = tuple(ORDERS)

DEFAULT_ORDERS = ("degrevlex", "grevlex-matrix", "subtotal-matrix", "subtotal")
DEFAULT_REFERENCE = "grevlex-matrix"
DEFAULT_TIME_LIMIT = 120.0


def order_factory(label: str):
    """Factory n -> MonomialOrder for a roster label."""
    if label not in ORDERS:
        raise ValueError(f"unknown order label {label!r}; known: {', '.join(ORDER_LABELS)}")
    cls, family = ORDERS[label]
    if issubclass(cls, MatrixOrder):
        return lambda n: cls(family(n), label=label)
    return lambda n: cls(n, label=label)


def strategy_for(label: str, n: int, kind: str) -> str:
    """buchberger's strategy argument for a named selection strategy: the
    name itself. The package never calls it; the benchmark in perfbench/
    does."""
    if kind not in STRATEGIES:
        raise ValueError(f"unknown strategy kind {kind!r}")
    return kind


@dataclass(frozen=True)
class BenchmarkConfig:
    orders: tuple = DEFAULT_ORDERS
    reference: str = DEFAULT_REFERENCE
    strategy: str = INDUCED_ORDER
    modulus: int = DEFAULT_MODULUS
    max_seconds: float = DEFAULT_TIME_LIMIT
    min_measure_seconds: float = 1.0
    reorder: bool = False

    def __post_init__(self):
        if not self.orders:
            raise ValueError("no orders selected")
        for label in self.orders:
            if label not in ORDER_LABELS:
                raise ValueError(f"unknown order label {label!r}")
        if len(set(self.orders)) != len(self.orders):
            raise ValueError("duplicate order labels")
        if self.reference not in self.orders:
            raise ValueError(f"reference {self.reference!r} not among the selected orders")
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if not (0 < self.max_seconds < math.inf and 0 < self.min_measure_seconds < math.inf):
            raise ValueError("time limits must be positive and finite")

    def ratio_labels(self) -> tuple:
        return tuple(f"{lab}/{self.reference}" for lab in self.orders if lab != self.reference)


@dataclass
class RunCell:
    seconds: float | None
    m: int
    aborted: bool
    stats: EngineStats


@dataclass
class BenchmarkRow:
    name: str
    n_vars: int
    degrees: str
    cells: dict
    ratios: dict


@dataclass(frozen=True)
class RatioSummary:
    n: int
    median: float
    mean: float
    stddev: float
    count_below_one: int
    count_above_one: int


@dataclass
class BenchmarkReport:
    config: BenchmarkConfig
    rows: list
    summaries: dict = field(default_factory=dict)


def summarize_ratios(values) -> RatioSummary:
    """Median, mean, sample standard deviation, and counts strictly below and
    above 1 for a nonempty list of ratios."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("no ratios to summarize")
    return RatioSummary(
        n=len(values),
        median=statistics.median(values),
        mean=statistics.fmean(values),
        stddev=statistics.stdev(values) if len(values) > 1 else 0.0,
        count_below_one=sum(1 for v in values if v < 1.0),
        count_above_one=sum(1 for v in values if v > 1.0),
    )


def format_degree_multiset(degs) -> str:
    """Compress a descending degree multiset: (5,5,5,2,2,2) -> '5^3*2^3'."""
    parts = []
    for d, run in groupby(sorted(degs, reverse=True)):
        k = len(list(run))
        parts.append(f"{d}^{k}" if k > 1 else f"{d}")
    return "*".join(parts)


def timed_run(spec: SystemSpec, order_label: str, config: BenchmarkConfig) -> RunCell:
    """One benchmark cell: repeat realize+buchberger until the cumulative
    wall time exceeds min_measure_seconds, then average."""
    field_ = PrimeField(config.modulus)
    factory = order_factory(order_label)
    total = 0.0
    m = 0
    while True:
        order = factory(spec.nvars)
        t0 = perf_counter()
        polys = realize(spec, order, field_)
        res = buchberger(polys, strategy=config.strategy, max_seconds=config.max_seconds)
        elapsed = perf_counter() - t0
        m += 1
        if res.aborted:
            return RunCell(seconds=None, m=m, aborted=True, stats=res.stats)
        total += elapsed
        if total >= config.min_measure_seconds:
            return RunCell(seconds=total / m, m=m, aborted=False, stats=res.stats)


def _reordered(spec: SystemSpec, config: BenchmarkConfig) -> SystemSpec:
    if not config.reorder:
        return spec
    order = DegRevLexOrder(spec.nvars)
    polys = realize(spec, order, PrimeField(config.modulus))
    return permute_variables(spec, reorder_variables(polys))


def run_benchmark(specs, config: BenchmarkConfig | None = None) -> BenchmarkReport:
    """Benchmark each system across the configured orders.

    Rows are sorted ascending by the last ratio column (aborted rows at the
    end), and each ratio column gets summary statistics over its non-aborted
    values.
    """
    config = config or BenchmarkConfig()
    rows = []
    for spec in specs:
        spec = _reordered(spec, config)
        cells = {}
        for label in config.orders:
            cells[label] = timed_run(spec, label, config)
        ratios = {}
        ref = cells[config.reference]
        for label in config.orders:
            if label == config.reference:
                continue
            cell = cells[label]
            key = f"{label}/{config.reference}"
            if cell.seconds is not None and ref.seconds is not None:
                ratios[key] = cell.seconds / ref.seconds
            else:
                ratios[key] = None
        rows.append(BenchmarkRow(
            name=spec.name,
            n_vars=spec.nvars,
            degrees=format_degree_multiset(spec.degree_multiset()),
            cells=cells,
            ratios=ratios,
        ))
    ratio_labels = config.ratio_labels()
    if ratio_labels:
        last = ratio_labels[-1]
        rows.sort(key=lambda r: (1, 0.0, r.name) if r.ratios.get(last) is None
                  else (0, r.ratios[last], r.name))
    summaries = {}
    for key in ratio_labels:
        vals = [r.ratios[key] for r in rows if r.ratios.get(key) is not None]
        if vals:
            summaries[key] = summarize_ratios(vals)
    return BenchmarkReport(config=config, rows=rows, summaries=summaries)


_STAT_FIELDS = tuple(f.name for f in fields(EngineStats))


def _render_text(report: BenchmarkReport) -> str:
    cfg = report.config
    head = (f"gbbench  modulus={cfg.modulus}  strategy={cfg.strategy}  "
            f"limit={cfg.max_seconds:g}s  min-measure={cfg.min_measure_seconds:g}s  "
            f"reference={cfg.reference}")
    cols = ["system", "vars", "degrees"]
    cols += [f"{lab} [s]" for lab in cfg.orders]
    ratio_labels = cfg.ratio_labels()
    cols += list(ratio_labels)
    table = [cols]
    for r in report.rows:
        line = [r.name, str(r.n_vars), r.degrees]
        for lab in cfg.orders:
            cell = r.cells[lab]
            line.append("ABORTED" if cell.aborted else f"{cell.seconds:.4g}")
        for key in ratio_labels:
            v = r.ratios.get(key)
            line.append("-" if v is None else f"{v:.2f}")
        table.append(line)
    widths = [max(len(row[i]) for row in table) for i in range(len(cols))]
    lines = [head, ""]
    for idx, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * w for w in widths))
    if ratio_labels:
        lines.append("")
        lines.append("statistics (completed rows)")
        for key in ratio_labels:
            s = report.summaries.get(key)
            if s is None:
                lines.append(f"  {key}: no completed rows")
                continue
            lines.append(
                f"  {key}: n={s.n} median={s.median:.2f} mean={s.mean:.2f} "
                f"stddev={s.stddev:.2f} below-1={s.count_below_one} above-1={s.count_above_one}")
    return "\n".join(lines) + "\n"


def _csv_columns(config: BenchmarkConfig) -> list:
    cols = ["name", "n_vars", "degrees"]
    for lab in config.orders:
        cols.append(f"{lab} seconds")
        cols.append(f"{lab} m")
        cols.append(f"{lab} aborted")
        for f_ in _STAT_FIELDS:
            cols.append(f"{lab} {f_}")
    cols += [f"ratio {key}" for key in config.ratio_labels()]
    return cols


def _render_csv(report: BenchmarkReport) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    cols = _csv_columns(report.config)
    w.writerow(cols)
    for r in report.rows:
        line = [r.name, r.n_vars, r.degrees]
        for lab in report.config.orders:
            cell = r.cells[lab]
            line.append("" if cell.seconds is None else repr(cell.seconds))
            line.append(cell.m)
            line.append(int(cell.aborted))
            for f_ in _STAT_FIELDS:
                v = getattr(cell.stats, f_)
                line.append(repr(v) if isinstance(v, float) else v)
        for key in report.config.ratio_labels():
            v = r.ratios.get(key)
            line.append("" if v is None else repr(v))
        w.writerow(line)
    return buf.getvalue()


def _render_jsonl(report: BenchmarkReport) -> str:
    # each record's keys come in the order written here, its type first
    lines = [json.dumps({"type": "config", **asdict(report.config)})]
    for r in report.rows:
        cells = {}
        for lab, cell in r.cells.items():
            cells[lab] = {
                "seconds": cell.seconds,
                "m": cell.m,
                "aborted": cell.aborted,
                "stats": asdict(cell.stats),
            }
        lines.append(json.dumps({
            "type": "row",
            "name": r.name,
            "n_vars": r.n_vars,
            "degrees": r.degrees,
            "cells": cells,
            "ratios": r.ratios,
        }))
    lines.append(json.dumps({
        "type": "summary",
        "ratios": {k: asdict(s) for k, s in report.summaries.items()},
    }))
    return "\n".join(lines) + "\n"


RENDERERS = {"text": _render_text, "csv": _render_csv, "jsonl": _render_jsonl}


def render_report(report: BenchmarkReport, fmt: str = "text") -> str:
    if fmt not in RENDERERS:
        raise ValueError(f"unknown report format {fmt!r}")
    return RENDERERS[fmt](report)


_MICROBENCH_BLOCK = 1000


def _draw_exponents(rng, count: int, max_exponent: int) -> bytes:
    """count exponents uniform on 0..max_exponent <= 255, one per byte: random
    bytes below the largest multiple of r = max_exponent + 1 up to 256 taken
    mod r, the rest deleted and the shortfall redrawn (rejection sampling)."""
    r = max_exponent + 1
    table = (bytes(range(r)) * (256 // r + 1))[:256]
    drop = bytes(range(256 - 256 % r, 256))
    out = b""
    while len(out) < count:
        out += rng.randbytes(count - len(out)).translate(table, drop)
    return out


def _time_calls(cmp, pairs) -> float:
    t0 = perf_counter()
    for a, b in pairs:
        cmp(a, b)
    return perf_counter() - t0


def comparator_microbench(n: int, samples: int = 1_000_000, seed: int = 0,
                          max_exponent: int = 30) -> dict:
    """Time SubtotalOrder(n).cmp against DegRevLexOrder(n).cmp, the bodies
    the engine runs, on identical random pairs.

    Both comparators see exactly the same data, so the ratio isolates the
    comparator bodies plus identical loop overhead. The two are timed in
    alternating sub-blocks of _MICROBENCH_BLOCK pairs whose lead alternates
    too (degrevlex first, then subtotal first: ABBA), so a drift in host
    speed weighs on both alike. Each sub-block's pairs are drawn just before
    it is timed, one byte per exponent by _draw_exponents (so max_exponent is
    at most 255), and memory stays one block deep.
    """
    if n < 1 or samples < 1 or not 0 <= max_exponent <= 255:
        raise ValueError("need n >= 1, samples >= 1 and 0 <= max_exponent <= 255")
    deg = DegRevLexOrder(n).cmp
    sub = SubtotalOrder(n).cmp
    rng = random.Random(seed)
    t_deg = 0.0
    t_sub = 0.0
    deg_first = True
    for lo in range(0, samples, _MICROBENCH_BLOCK):
        k = min(_MICROBENCH_BLOCK, samples - lo)
        monomials = list(zip(*[iter(_draw_exponents(rng, 2 * n * k, max_exponent))] * n))
        block = list(zip(monomials[::2], monomials[1::2]))
        if deg_first:
            t_deg += _time_calls(deg, block)
            t_sub += _time_calls(sub, block)
        else:
            t_sub += _time_calls(sub, block)
            t_deg += _time_calls(deg, block)
        deg_first = not deg_first
    return {
        "n": n,
        "samples": samples,
        "seed": seed,
        "max_exponent": max_exponent,
        "degrevlex_seconds": t_deg,
        "subtotal_seconds": t_sub,
        "ratio_subtotal_over_degrevlex": t_sub / t_deg,
    }


@dataclass(frozen=True)
class ReferenceRow:
    name: str
    n_vars: int
    degrees: str
    grevlex_builtin_seconds: float
    grevlex_over_matrix: float
    subtotal_over_matrix: float


def published_reference_ratios() -> list:
    """The bundled reference measurement table (documentation data)."""
    text = resources.files("gbbench").joinpath("data", "reference_ratios.csv").read_text()
    body = "\n".join(line for line in text.splitlines() if not line.startswith("#"))
    out = []
    for rec in csv.DictReader(io.StringIO(body)):
        out.append(ReferenceRow(
            name=rec["name"],
            n_vars=int(rec["n_vars"]),
            degrees=rec["degrees"],
            grevlex_builtin_seconds=float(rec["grevlex_builtin_seconds"]),
            grevlex_over_matrix=float(rec["grevlex_over_matrix"]),
            subtotal_over_matrix=float(rec["subtotal_over_matrix"]),
        ))
    return out


@dataclass
class RobustnessResult:
    system: str
    completed: list
    aborted: list
    bases_match: bool | None
    verified: bool | None
    audits_clean: bool | None
    basis_size: int | None
    failure: tuple | None = None  # verify_failure's answer when verified is False

    @property
    def ok(self) -> bool:
        return (not self.aborted and self.bases_match is not False
                and self.verified is not False and self.audits_clean is not False)


def verify_order_robustness(spec: SystemSpec, *, modulus: int = DEFAULT_MODULUS,
                            max_seconds: float = DEFAULT_TIME_LIMIT,
                            strategies=tuple(STRATEGIES)) -> RobustnessResult:
    """Run every (order, strategy) configuration and cross-check the results;
    the first configuration that aborts ends the run, with what it has so far.

    Checks that all completed runs yield the identical reduced basis (term for
    term, as exponent/coefficient tuples), that cached weight vectors audit
    clean, and that the first completed run's reduced basis passes the
    criterion-free verify_groebner against the inputs; when it does not,
    failure names the first failing S-pair or input (see verify_failure).
    """
    field_ = PrimeField(modulus)
    res = RobustnessResult(spec.name, [], [], None, None, None, None)
    first = None  # the first completed run's (inputs, reduced basis, basis tuples)
    for label in ORDER_LABELS:
        for kind in strategies:
            order = order_factory(label)(spec.nvars)
            polys = realize(spec, order, field_)
            gb = buchberger(polys, strategy=kind, max_seconds=max_seconds)
            if gb.aborted:
                res.aborted.append((label, kind))
                return res
            res.completed.append((label, kind))
            red = reduce_basis(gb.basis)
            tuples = [g.as_tuples() for g in red]
            if isinstance(order, MatrixCachedOrder):
                clean = not audit_cached_weights(gb.basis) and not audit_cached_weights(red)
                res.audits_clean = clean and res.audits_clean is not False
            if first is None:
                first = (polys, red, tuples)
                res.bases_match = True
                res.basis_size = len(tuples)
            elif tuples != first[2]:
                res.bases_match = False
    if first is not None:
        res.failure = verify_failure(first[1], first[0])
        res.verified = res.failure is None
    return res
