"""Acceptance gate: one test per criterion, each printing a [criterion N]
PASS/FAIL line (visible with -s; pytest -v shows the same verdict per test).

The expensive part is the shared order-robustness fixture: Buchberger on six
systems under six order configurations and two selection strategies each,
120 s limit per run.
"""

import math
import random
from itertools import product
from pathlib import Path
from time import perf_counter

import pytest

from gbbench.bench import (
    ORDER_LABELS,
    comparator_microbench,
    order_factory,
    published_reference_ratios,
    summarize_ratios,
    verify_order_robustness,
)
from gbbench.corpus import cyclic_system, katsura_system, load_bundled, parse_system, realize
from gbbench.groebner import buchberger, reduce_basis
from gbbench.modfield import PrimeField
from gbbench.ordering import (
    WeightMatrix,
    cmp_by_matrix,
    cmp_degrevlex,
    cmp_subtotal,
    degrevlex_weight_matrix,
    is_admissible,
    orders_equivalent_certificate,
    subtotal_weight_matrix,
)

pytestmark = pytest.mark.slow

ROBUSTNESS_SYSTEMS = ("cyclic-4", "cyclic-5", "katsura-4", "katsura-5",
                      "Lichtblau 3", "Mathematica help")


def _ok(num, detail):
    print(f"[criterion {num}] PASS — {detail}")


@pytest.fixture(scope="module")
def robustness():
    """Cross-order runs shared by criteria 4, 5, and 6."""
    specs = [cyclic_system(4), cyclic_system(5), katsura_system(4), katsura_system(5),
             load_bundled("lichtblau3"), load_bundled("mathematica_help")]
    results = {}
    for spec in specs:
        results[spec.name] = verify_order_robustness(
            spec, max_seconds=120.0, stop_on_abort=False)
    return results


def test_criterion_1_comparator_agreement():
    # exhaustive: all exponent pairs with n <= 4 and entries <= 3,
    # then one million seeded random pairs with n <= 10 and entries <= 100;
    # the four comparators must agree everywhere, within a 30 s budget
    t0 = perf_counter()
    checked = 0
    for n in range(1, 5):
        wsub = subtotal_weight_matrix(n)
        wdeg = degrevlex_weight_matrix(n)
        vectors = list(product(range(4), repeat=n))
        for a in vectors:
            for b in vectors:
                r = cmp_degrevlex(a, b)
                assert cmp_subtotal(a, b) == r, (a, b)
                assert cmp_by_matrix(wsub, a, b) == r, (a, b)
                assert cmp_by_matrix(wdeg, a, b) == r, (a, b)
                checked += 1
    exhaustive = checked
    rng = random.Random(414243)
    for n in range(1, 11):
        wsub = subtotal_weight_matrix(n)
        wdeg = degrevlex_weight_matrix(n)
        m = 100_000
        vals = rng.choices(range(101), k=2 * n * m)
        pos = 0
        for _ in range(m):
            a = tuple(vals[pos:pos + n]); pos += n
            b = tuple(vals[pos:pos + n]); pos += n
            r = cmp_degrevlex(a, b)
            assert cmp_subtotal(a, b) == r, (a, b)
            assert cmp_by_matrix(wsub, a, b) == r, (a, b)
            assert cmp_by_matrix(wdeg, a, b) == r, (a, b)
            checked += 1
    elapsed = perf_counter() - t0
    assert checked == exhaustive + 1_000_000
    assert elapsed < 30.0, f"agreement sweep took {elapsed:.1f} s"
    _ok(1, f"zero disagreements on {exhaustive} exhaustive + 1000000 random "
           f"pairs in {elapsed:.1f} s")


def test_criterion_2_admissibility():
    for n in range(1, 21):
        assert is_admissible(subtotal_weight_matrix(n)), n
        assert is_admissible(degrevlex_weight_matrix(n)), n
    singular = WeightMatrix([(1, 1), (1, 1)])
    assert not is_admissible(singular)
    for rows in ([(1, -1), (0, 1)], [(0, 1), (-1, 0)]):
        assert not is_admissible(WeightMatrix(rows)), rows
    _ok(2, "admissible for both families n=1..20; singular and "
           "negative-leading-entry matrices rejected")


def test_criterion_3_equivalence_certificate():
    for n in range(2, 9):
        wdeg = degrevlex_weight_matrix(n)
        wsub = subtotal_weight_matrix(n)
        cert = orders_equivalent_certificate(wdeg, wsub)
        assert cert is not None, n
        expected = tuple(tuple(1 if j <= i else 0 for j in range(n)) for i in range(n))
        assert cert.rows == WeightMatrix(expected).rows, n
        assert (cert @ wdeg) == wsub, n
    _ok(3, "all-ones lower-triangular certificate with L @ W_grevlex == "
           "W_subtotal exactly, n=2..8")


def test_criterion_4_cross_order_basis_identity(robustness):
    runs_per_system = len(ORDER_LABELS) * 2
    completed = []
    notes = []
    for name in ROBUSTNESS_SYSTEMS:
        res = robustness[name]
        if res.aborted:
            notes.append(f"{name}: ABORTED {len(res.aborted)}/{runs_per_system}")
            if res.completed:
                assert res.bases_match is True, name
            continue
        assert len(res.completed) == runs_per_system, name
        assert res.bases_match is True, name
        completed.append(name)
        notes.append(f"{name}: {runs_per_system}/{runs_per_system} identical "
                     f"(basis size {res.basis_size})")
    assert len(completed) >= 4, notes
    _ok(4, "; ".join(notes))


def test_criterion_5_basis_verification(robustness):
    verified = []
    for name in ROBUSTNESS_SYSTEMS:
        res = robustness[name]
        if not res.completed:
            continue
        # every completed run produced the identical basis (criterion 4),
        # so the one verification covers all of them
        assert res.verified is True, name
        verified.append(name)
    assert verified

    # independently computed golden basis for cyclic-3
    golden_text = (Path(__file__).parent / "data" / "cyclic3_grevlex_gb.txt").read_text()
    field = PrimeField(32003)
    order = order_factory("grevlex-matrix")(3)
    golden = sorted(g.as_tuples() for g in realize(parse_system(golden_text), order, field))
    res = buchberger(realize(cyclic_system(3), order, field))
    mine = sorted(g.as_tuples() for g in reduce_basis(res.basis))
    assert mine == golden
    _ok(5, f"verify_groebner true for {', '.join(verified)}; cyclic-3 reduced "
           f"basis matches the independently computed golden basis")


def test_criterion_6_cached_weight_audit(robustness):
    audited = []
    for name in ROBUSTNESS_SYSTEMS:
        res = robustness[name]
        assert res.audits_clean is not False, name
        if res.audits_clean:
            audited.append(name)
    assert audited
    _ok(6, f"zero cached-weight discrepancies after every completed cached-order "
           f"run ({', '.join(audited)})")


def test_criterion_7_reference_table_statistics():
    # the summary published with the reference measurements (see the header
    # of the bundled data file): median 0.98 and the 20-below/11-above split
    # hold over all 33 printed rows, while the published mean 0.92 and
    # standard deviation 0.24 correspond to the table without its 0.08
    # outlier row
    vals = [r.subtotal_over_matrix for r in published_reference_ratios()]
    full = summarize_ratios(vals)
    assert full.n == 33
    assert abs(full.median - 0.98) <= 0.01, full.median
    assert full.count_below_one == 20
    assert full.count_above_one == 11
    trimmed = summarize_ratios(sorted(vals)[1:])
    assert abs(trimmed.mean - 0.92) <= 0.01, trimmed.mean
    assert abs(trimmed.stddev - 0.24) <= 0.01, trimmed.stddev
    _ok(7, f"median {full.median:.2f}, counts {full.count_below_one}/"
           f"{full.count_above_one} over 33 rows; mean {trimmed.mean:.2f}, "
           f"sd {trimmed.stddev:.2f} excluding the 0.08 outlier")


def test_criterion_8_comparator_cost_parity():
    # soft check: both comparators do 2n additions then at most n
    # comparisons, so their times should be within 2x of each other;
    # out-of-range ratios warn rather than fail, but the numbers must exist
    ratios = {}
    for n in (4, 8, 16):
        out = comparator_microbench(n, samples=1_000_000, seed=0)
        r = out["ratio_subtotal_over_degrevlex"]
        assert math.isfinite(r) and r > 0
        ratios[n] = r
    detail = ", ".join(f"n={n}: {r:.3f}" for n, r in ratios.items())
    if all(0.5 <= r <= 2.0 for r in ratios.values()):
        _ok(8, f"subtotal/degrevlex time ratios {detail}")
    else:
        print(f"[criterion 8] WARN (soft) — ratio outside [0.5, 2.0]: {detail}")


def test_criterion_9_non_reproducibility_documented():
    text = (Path(__file__).parents[1] / "README.md").read_text().lower()
    readme = " ".join(text.split())
    assert "mathematica" in readme
    assert "does not and cannot reproduce" in readme
    assert "absolute seconds" in readme
    assert "per-row ratios" in readme
    assert "built-in-vs-matrix" in readme
    _ok(9, "README states the reference table's absolute seconds, per-row "
           "ratios, and built-in-vs-matrix column are not reproduced")
