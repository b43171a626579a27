import csv
import io
import json
import math
import random
from collections import Counter
from dataclasses import asdict, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbbench.bench import (
    DEFAULT_ORDERS,
    DEFAULT_REFERENCE,
    ORDER_LABELS,
    ORDERS,
    BenchmarkConfig,
    _draw_exponents,
    comparator_microbench,
    format_degree_multiset,
    order_factory,
    published_reference_ratios,
    render_report,
    run_benchmark,
    strategy_for,
    summarize_ratios,
    timed_run,
    verify_order_robustness,
)
from gbbench.corpus import SystemSpec, cyclic_system, katsura_system, realize
from gbbench.groebner import (
    INDUCED_ORDER,
    STRATEGIES,
    WEIGHT_VECTOR,
    buchberger,
    reduce_basis,
    verify_groebner,
)
from gbbench.modfield import PrimeField
from gbbench.ordering import (
    DegRevLexOrder,
    MatrixCachedOrder,
    MatrixDirectOrder,
    SubtotalOrder,
)


def _read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _matrix_cmp(w, a, b):
    """The order of w by definition: weight vectors compared as tuples."""
    wa = w.weight_vector(a)
    wb = w.weight_vector(b)
    return (wa > wb) - (wa < wb)


def _fast_config(**kw):
    # a vanishingly small measurement floor -> each cell runs one repetition
    kw.setdefault("orders", ("degrevlex", "subtotal"))
    kw.setdefault("reference", "degrevlex")
    kw.setdefault("min_measure_seconds", 1e-9)
    return BenchmarkConfig(**kw)


def test_summarize_ratios_hand_values():
    s = summarize_ratios([0.5, 1.0, 2.0])
    assert s.n == 3
    assert s.median == 1.0
    assert abs(s.mean - 7.0 / 6.0) < 1e-12
    assert s.count_below_one == 1
    assert s.count_above_one == 1
    one = summarize_ratios([0.75])
    assert one.stddev == 0.0
    assert one.median == one.mean == 0.75
    with pytest.raises(ValueError):
        summarize_ratios([])


def test_summarize_ratios_counts_are_strict():
    s = summarize_ratios([1.0, 1.0, 1.0])
    assert s.count_below_one == 0
    assert s.count_above_one == 0
    s = summarize_ratios([1, 2, 3])
    assert s.median == 2 and s.mean == 2
    assert s.count_below_one == 0 and s.count_above_one == 2
    s = summarize_ratios([0.5, 1.5])
    # even length: median is the mean of the middle two
    assert s.median == 1.0 and s.mean == 1.0
    assert s.count_below_one == 1 and s.count_above_one == 1


def test_format_degree_multiset():
    assert format_degree_multiset((5, 5, 5, 2, 2, 2)) == "5^3*2^3"
    assert format_degree_multiset((3,)) == "3"
    assert format_degree_multiset([2, 5, 5]) == "5^2*2"
    assert format_degree_multiset((7, 6, 5, 4)) == "7*6*5*4"
    assert format_degree_multiset(()) == ""


def test_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(orders=())
    with pytest.raises(ValueError):
        BenchmarkConfig(orders=("degrevlex", "nosuch"), reference="degrevlex")
    with pytest.raises(ValueError):
        BenchmarkConfig(orders=("degrevlex", "degrevlex"), reference="degrevlex")
    with pytest.raises(ValueError):
        BenchmarkConfig(orders=("degrevlex",), reference="subtotal")
    with pytest.raises(ValueError):
        BenchmarkConfig(strategy="fancy")
    with pytest.raises(ValueError):
        BenchmarkConfig(max_seconds=0.0)
    with pytest.raises(ValueError):
        BenchmarkConfig(min_measure_seconds=-1.0)
    with pytest.raises(ValueError):
        BenchmarkConfig(min_measure_seconds=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            BenchmarkConfig(max_seconds=bad)
        with pytest.raises(ValueError):
            BenchmarkConfig(min_measure_seconds=bad)


def test_config_defaults_and_ratio_labels():
    cfg = BenchmarkConfig()
    assert cfg.orders == DEFAULT_ORDERS
    assert cfg.reference == DEFAULT_REFERENCE
    assert cfg.ratio_labels() == (
        "degrevlex/grevlex-matrix",
        "subtotal-matrix/grevlex-matrix",
        "subtotal/grevlex-matrix",
    )
    d = asdict(cfg)
    assert d["reference"] == "grevlex-matrix"
    assert d["orders"] == DEFAULT_ORDERS


def test_order_factory_covers_roster():
    expected = {
        "degrevlex": DegRevLexOrder,
        "subtotal": SubtotalOrder,
        "grevlex-matrix": MatrixCachedOrder,
        "subtotal-matrix": MatrixCachedOrder,
        "grevlex-matrix-direct": MatrixDirectOrder,
        "subtotal-matrix-direct": MatrixDirectOrder,
    }
    assert set(expected) == set(ORDER_LABELS)
    for label, cls in expected.items():
        order = order_factory(label)(3)
        assert isinstance(order, cls)
        assert order.label == label
        assert order.n == 3
    with pytest.raises(ValueError):
        order_factory("plex")
    # every order carries its family matrix, and its cmp is that matrix's order
    rng = random.Random(3)
    for label in ORDER_LABELS:
        for n in (1, 3, 6):
            order = order_factory(label)(n)
            assert order.matrix == ORDERS[label][1](n)
            for _ in range(200):
                a = tuple(rng.randrange(0, 6) for _ in range(n))
                b = tuple(rng.randrange(0, 6) for _ in range(n))
                assert (order.cmp(order.attach(a), order.attach(b))
                        == _matrix_cmp(order.matrix, a, b)), (label, a, b)


def test_order_factory_matrix_families_disagree():
    # the two families must pick different matrices, else labels are aliases
    ga = order_factory("grevlex-matrix")(3)
    sa = order_factory("subtotal-matrix")(3)
    assert ga.matrix.rows != sa.matrix.rows


def test_strategy_for_kinds():
    assert strategy_for("degrevlex", 3, INDUCED_ORDER) == INDUCED_ORDER
    assert strategy_for("subtotal", 3, WEIGHT_VECTOR) == WEIGHT_VECTOR
    assert strategy_for("subtotal-matrix-direct", 3, WEIGHT_VECTOR) == WEIGHT_VECTOR
    with pytest.raises(ValueError):
        strategy_for("degrevlex", 3, "best-first")


def test_timed_run_single_repetition():
    cell = timed_run(cyclic_system(3), "degrevlex", _fast_config())
    assert not cell.aborted
    assert cell.m == 1
    assert cell.seconds is not None and cell.seconds > 0
    assert cell.stats.pairs_processed > 0


def test_timed_run_repeats_until_measured():
    # a real (small) floor forces several repetitions of this tiny system
    cfg = _fast_config(min_measure_seconds=0.02)
    cell = timed_run(cyclic_system(3), "degrevlex", cfg)
    assert not cell.aborted
    assert cell.m >= 2
    assert cell.seconds is not None
    assert cell.seconds * cell.m >= cfg.min_measure_seconds


def test_timed_run_abort():
    cell = timed_run(cyclic_system(6), "degrevlex", _fast_config(max_seconds=1e-6))
    assert cell.aborted
    assert cell.seconds is None
    assert cell.m == 1


def test_timed_run_counters_deterministic():
    # the engine is deterministic, so only the wall time may differ
    cfg = _fast_config()
    first = asdict(timed_run(cyclic_system(4), "subtotal", cfg).stats)
    second = asdict(timed_run(cyclic_system(4), "subtotal", cfg).stats)
    first.pop("wall_time")
    second.pop("wall_time")
    assert first == second


def test_run_benchmark_small():
    specs = [cyclic_system(3), katsura_system(3)]
    report = run_benchmark(specs, _fast_config())
    assert len(report.rows) == 2
    assert {r.name for r in report.rows} == {"cyclic-3", "katsura-3"}
    for row in report.rows:
        assert set(row.cells) == {"degrevlex", "subtotal"}
        ratio = row.ratios["subtotal/degrevlex"]
        assert ratio is not None and ratio > 0
    summary = report.summaries["subtotal/degrevlex"]
    assert summary.n == 2
    assert summary.count_below_one + summary.count_above_one <= 2
    # rows come back sorted by the last ratio column
    vals = [r.ratios["subtotal/degrevlex"] for r in report.rows]
    assert vals == sorted(vals)


def test_run_benchmark_aborted_rows_sort_last_and_skip_ratios():
    cfg = _fast_config(max_seconds=1e-6)
    report = run_benchmark([cyclic_system(6)], cfg)
    row = report.rows[0]
    assert row.cells["degrevlex"].aborted
    assert row.ratios["subtotal/degrevlex"] is None
    assert report.summaries == {}
    text = render_report(report, "text")
    assert "ABORTED" in text
    assert "subtotal/degrevlex: no completed rows" in text


def test_render_empty_report():
    report = run_benchmark([], _fast_config())
    assert report.rows == [] and report.summaries == {}
    text = render_report(report, "text")
    assert "system" in text
    assert "statistics (completed rows)" in text
    assert "no completed rows" in text
    assert _read_csv(render_report(report, "csv")) == []


def test_run_benchmark_with_reordering():
    report = run_benchmark([katsura_system(3)], _fast_config(reorder=True))
    assert report.rows[0].name == "katsura-3"
    assert report.rows[0].ratios["subtotal/degrevlex"] is not None


def test_render_text_report():
    report = run_benchmark([cyclic_system(3)], _fast_config())
    text = render_report(report, "text")
    assert "cyclic-3" in text
    assert "reference=degrevlex" in text
    assert "subtotal/degrevlex" in text
    assert "statistics (completed rows)" in text
    assert "median=" in text


def test_render_csv_round_trip():
    report = run_benchmark([cyclic_system(3), katsura_system(3)], _fast_config())
    rows = _read_csv(render_report(report, "csv"))
    assert len(rows) == 2
    byname = {r["name"]: r for r in rows}
    cyc = byname["cyclic-3"]
    src = next(r for r in report.rows if r.name == "cyclic-3")
    assert cyc["n_vars"] == "3"
    assert cyc["degrees"] == "3*2*1"
    assert int(cyc["degrevlex m"]) == src.cells["degrevlex"].m
    assert cyc["degrevlex aborted"] == "0"
    # repr/float round trip is exact for the timing fields
    assert float(cyc["degrevlex seconds"]) == src.cells["degrevlex"].seconds
    assert float(cyc["ratio subtotal/degrevlex"]) == src.ratios["subtotal/degrevlex"]
    assert int(cyc["degrevlex comparisons"]) == src.cells["degrevlex"].stats.comparisons


def test_render_csv_aborted_cell_is_blank():
    report = run_benchmark([cyclic_system(6)], _fast_config(max_seconds=1e-6))
    rows = _read_csv(render_report(report, "csv"))
    assert rows[0]["degrevlex seconds"] == ""
    assert rows[0]["degrevlex aborted"] == "1"
    assert rows[0]["ratio subtotal/degrevlex"] == ""


def test_render_jsonl_report():
    report = run_benchmark([cyclic_system(3)], _fast_config())
    lines = render_report(report, "jsonl").splitlines()
    recs = [json.loads(line) for line in lines]
    assert [r["type"] for r in recs] == ["config", "row", "summary"]
    assert recs[0]["reference"] == "degrevlex"
    assert recs[1]["name"] == "cyclic-3"
    assert recs[1]["cells"]["subtotal"]["m"] >= 1
    assert "subtotal/degrevlex" in recs[2]["ratios"]
    assert recs[2]["ratios"]["subtotal/degrevlex"]["n"] == 1


def test_render_report_unknown_format():
    report = run_benchmark([cyclic_system(3)], _fast_config())
    with pytest.raises(ValueError):
        render_report(report, "xml")


def test_comparator_microbench_shape():
    out = comparator_microbench(4, samples=10_000, seed=7)
    assert out["n"] == 4
    assert out["samples"] == 10_000
    assert out["degrevlex_seconds"] > 0
    assert out["subtotal_seconds"] > 0
    assert math.isclose(
        out["ratio_subtotal_over_degrevlex"],
        out["subtotal_seconds"] / out["degrevlex_seconds"],
    )
    one = comparator_microbench(1, samples=10_000, seed=7)
    assert one["ratio_subtotal_over_degrevlex"] > 0
    with pytest.raises(ValueError):
        comparator_microbench(0, samples=10)
    with pytest.raises(ValueError):
        comparator_microbench(3, samples=0)
    with pytest.raises(ValueError):
        comparator_microbench(3, samples=10, max_exponent=-1)
    with pytest.raises(ValueError):
        comparator_microbench(3, samples=10, max_exponent=256)


def test_draw_exponents_exact_and_uniform():
    for top in (0, 1, 6, 30, 100, 254, 255):
        out = _draw_exponents(random.Random(5), 4001, top)
        assert len(out) == 4001 and max(out) <= top, top
        assert out == _draw_exponents(random.Random(5), 4001, top), top
    assert _draw_exponents(random.Random(5), 100, 0) == bytes(100)
    # r = 256 divides 256, so no byte is dropped
    assert _draw_exponents(random.Random(9), 777, 255) == random.Random(9).randbytes(777)
    counts = Counter(_draw_exponents(random.Random(11), 310_000, 30))
    assert sorted(counts) == list(range(31))
    assert all(abs(c - 10_000) <= 500 for c in counts.values()), counts


def test_comparator_microbench_self_comparison(monkeypatch):
    # identical workloads through the same harness must time out near parity
    import gbbench.bench as bench_mod
    monkeypatch.setattr(bench_mod, "SubtotalOrder", bench_mod.DegRevLexOrder)
    out = bench_mod.comparator_microbench(4, samples=500_000, seed=3)
    assert 0.9 <= out["ratio_subtotal_over_degrevlex"] <= 1.1


def test_reference_table_loads():
    rows = published_reference_ratios()
    assert len(rows) == 33
    assert rows[0].name == "Cohn3"
    assert rows[0].n_vars == 4
    assert rows[0].degrees == "6^3*5"
    assert rows[0].grevlex_builtin_seconds == 7.24
    assert rows[0].subtotal_over_matrix == 0.08
    last = rows[-1]
    assert last.name == "variation on Giovini 3.7"
    assert last.degrees == "83*46*45^3*4"
    assert last.subtotal_over_matrix == 1.39
    for r in rows:
        assert r.grevlex_over_matrix > 0
        assert r.subtotal_over_matrix > 0
    # printed ascending by the last column
    subs = [r.subtotal_over_matrix for r in rows]
    assert subs == sorted(subs)


def test_reference_table_summary_stats():
    rows = published_reference_ratios()
    s = summarize_ratios([r.subtotal_over_matrix for r in rows])
    assert s.n == 33
    assert s.median == 0.98
    assert s.count_below_one == 20
    assert s.count_above_one == 11


def test_verify_order_robustness_small():
    res = verify_order_robustness(cyclic_system(3), max_seconds=30.0)
    assert res.ok
    assert not res.aborted
    assert len(res.completed) == len(ORDER_LABELS) * 2
    assert res.bases_match is True
    assert res.verified is True
    assert res.failure is None
    assert res.audits_clean is True
    assert res.basis_size == 3


def test_verify_order_robustness_stop_on_abort():
    res = verify_order_robustness(cyclic_system(6), max_seconds=1e-6)
    assert not res.ok
    assert res.completed == []
    assert len(res.aborted) == 1
    assert res.bases_match is None
    assert res.verified is None


@pytest.mark.parametrize("k", [5, 6])
def test_verify_order_robustness_abort_after_some_completed(monkeypatch, k):
    # the k-th configuration aborts and the first k - 1 are kept; calls 5 and 6
    # run grevlex-matrix, the first cached-weight order, so only k = 6 audits
    import gbbench.bench as bench_mod
    calls = []

    def abort_kth(polys, **kwargs):
        calls.append(kwargs)
        res = buchberger(polys, **kwargs)
        return replace(res, basis=None) if len(calls) == k else res

    monkeypatch.setattr(bench_mod, "buchberger", abort_kth)
    res = verify_order_robustness(cyclic_system(3), max_seconds=30.0)
    configs = [(label, kind) for label in ORDER_LABELS for kind in STRATEGIES]
    assert len(calls) == k
    assert res.completed == configs[:k - 1]
    assert res.aborted == [configs[k - 1]]
    assert res.bases_match is True
    assert res.basis_size == 3
    assert res.verified is None and res.failure is None
    assert res.audits_clean is (None if k == 5 else True)
    assert not res.ok


def test_verify_order_robustness_sees_a_basis_that_differs(monkeypatch):
    # the third configuration's reduced basis loses its last element; the
    # first run's basis still verifies, so only the cross-check fails
    import gbbench.bench as bench_mod
    calls = []

    def short_third(G):
        calls.append(G)
        red = reduce_basis(G)
        return red[:-1] if len(calls) == 3 else red

    monkeypatch.setattr(bench_mod, "reduce_basis", short_third)
    res = verify_order_robustness(cyclic_system(3), max_seconds=30.0)
    assert len(res.completed) == len(calls) == len(ORDER_LABELS) * len(STRATEGIES)
    assert res.bases_match is False
    assert res.basis_size == 3
    assert res.verified is True and res.audits_clean is True
    assert not res.ok


@st.composite
def small_systems(draw):
    """1-3 polynomials of up to 4 distinct terms, degree <= 3, in 2-3 variables."""
    n = draw(st.integers(2, 3))
    exps = st.tuples(*[st.integers(0, 3)] * n).filter(lambda e: sum(e) <= 3)
    term = st.tuples(st.integers(1, 32002).map(Fraction), exps)
    poly = st.lists(term, min_size=1, max_size=4, unique_by=lambda t: t[1]).map(tuple)
    polys = draw(st.lists(poly, min_size=1, max_size=3))
    return SystemSpec("random", tuple(f"x{i}" for i in range(n)), tuple(polys))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(small_systems())
def test_random_systems_same_basis_under_every_order(spec):
    field = PrimeField(32003)
    bases = set()
    for label in ORDER_LABELS:
        polys = realize(spec, order_factory(label)(spec.nvars), field)
        red = reduce_basis(buchberger(polys).basis)
        assert verify_groebner(red, polys), label
        bases.add(tuple(g.as_tuples() for g in red))
    assert len(bases) == 1
