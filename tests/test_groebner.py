import random
from bisect import bisect_right
from collections import namedtuple
from dataclasses import asdict
from fractions import Fraction
from itertools import product
from math import ceil, log2
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gbbench import groebner
from gbbench.bench import ORDER_LABELS, order_factory
from gbbench.corpus import cyclic_system, katsura_system, load_bundled, parse_system, realize
from gbbench.groebner import (
    INDUCED_ORDER,
    STRATEGIES,
    WEIGHT_VECTOR,
    EngineStats,
    LeadTable,
    _packed_basis,
    _update,
    audit_cached_weights,
    buchberger,
    reduce_basis,
    reorder_variables,
    verify_failure,
    verify_groebner,
)
from gbbench.modfield import PrimeField
from gbbench.ordering import (
    DegRevLexOrder,
    MatrixCachedOrder,
    MatrixDirectOrder,
    SubtotalOrder,
    WeightMatrix,
    degrevlex_weight_matrix,
    identity_weight_matrix,
    subtotal_weight_matrix,
)
from gbbench.poly import PolyContext, TimeLimitExceeded, reduce, s_polynomial

DATA = Path(__file__).parent / "data"


def _ctx(n, order=None):
    return PolyContext(PrimeField(32003), order or DegRevLexOrder(n))


def _canon(polys):
    return sorted(p.as_tuples() for p in polys)


def test_buchberger_validates_input():
    ctx = _ctx(2)
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([ctx.polynomial([])])
    f = ctx.polynomial([((1, 0), 1)])
    g = _ctx(2).polynomial([((0, 1), 1)])
    with pytest.raises(ValueError):
        buchberger([f, g])
    with pytest.raises(ValueError, match="unknown selection strategy"):
        buchberger([f], strategy="best-first")
    # a weight matrix is no strategy name
    with pytest.raises(ValueError, match="unknown selection strategy"):
        buchberger([f], strategy=subtotal_weight_matrix(2))


def test_buchberger_univariate_gcd():
    # ideal ((x-1)(x-2)^2, (x-1)(x-2)(x-3)) collapses to its gcd
    # (x-1)(x-2) = x^2 - 3x + 2; frozen from an independent CAS run
    ctx = _ctx(1)
    f = ctx.polynomial([((3,), 1), ((2,), 32003 - 5), ((1,), 8), ((0,), 32003 - 4)])
    g = ctx.polynomial([((3,), 1), ((2,), 32003 - 6), ((1,), 11), ((0,), 32003 - 6)])
    res = buchberger([f, g])
    assert not res.aborted
    red = reduce_basis(res.basis)
    assert [p.as_tuples() for p in red] == [
        (((2,), 1), ((1,), 32000), ((0,), 2))]


def test_buchberger_cyclic2_hand_case():
    # {x + y, xy - 1}: substituting x = -y turns the second generator into
    # -y^2 - 1, so the reduced basis is {x + y, y^2 + 1}
    ctx = _ctx(2)
    f = ctx.polynomial([((1, 0), 1), ((0, 1), 1)])
    g = ctx.polynomial([((1, 1), 1), ((0, 0), 32002)])
    red = reduce_basis(buchberger([f, g]).basis)
    assert _canon(red) == sorted([
        (((1, 0), 1), ((0, 1), 1)),
        (((0, 2), 1), ((0, 0), 1)),
    ])


def test_buchberger_katsura2_frozen():
    # frozen from an independent CAS run over GF(32003)
    spec = katsura_system(2)
    polys = realize(spec, DegRevLexOrder(2), PrimeField(32003))
    red = reduce_basis(buchberger(polys).basis)
    assert _canon(red) == sorted([
        (((1, 0), 1), ((0, 1), 2), ((0, 0), 32002)),
        (((0, 2), 1), ((0, 1), 21335)),
    ])


def test_coprime_leading_monomials_skip_pair():
    # x + 1 and y + 1: the only candidate pair dies by the coprimality test
    ctx = _ctx(2)
    f = ctx.polynomial([((1, 0), 1), ((0, 0), 1)])
    g = ctx.polynomial([((0, 1), 1), ((0, 0), 1)])
    res = buchberger([f, g])
    assert res.stats.pairs_processed == 0
    assert res.stats.pairs_skipped_by_criteria == 1
    assert len(res.basis) == 2


def test_stats_shape():
    spec = cyclic_system(4)
    polys = realize(spec, DegRevLexOrder(4), PrimeField(32003))
    res = buchberger(polys)
    st = asdict(res.stats)
    assert set(st) == {"comparisons", "pairs_processed", "pairs_skipped_by_criteria",
                       "reduction_steps", "matvec_products", "wall_time"}
    assert st["pairs_processed"] > 0
    assert st["reduction_steps"] > 0
    assert st["comparisons"] > 0
    assert st["matvec_products"] == 0  # native order materializes no weights
    assert st["wall_time"] > 0
    assert isinstance(res.stats, EngineStats)


def test_matvec_counter_on_cached_order():
    order = MatrixCachedOrder(degrevlex_weight_matrix(4))
    polys = realize(cyclic_system(4), order, PrimeField(32003))
    res = buchberger(polys)
    # one matrix product per distinct monomial entering the cache: the input
    # monomials at attach time plus each critical-pair lcm
    assert res.stats.matvec_products == order.cache_size()
    assert res.stats.matvec_products > 0


def test_strategies_reach_the_same_reduced_basis(monkeypatch):
    # a matrix order is the lexicographic order of its weight vectors, so
    # sorting by weight vectors is sorting by the order itself, and the two
    # family matrices differ by a lower-triangular L, so they order alike:
    # both strategies pick the same pairs, in the same sequence, under every
    # roster label
    field = PrimeField(32003)
    handed = []
    spoly = groebner.s_polynomial
    monkeypatch.setattr(groebner, "s_polynomial",
                        lambda f, g: handed.append((f, g)) or spoly(f, g))
    for spec in (cyclic_system(4), katsura_system(4), load_bundled("lichtblau3")):
        seen = set()
        for label in ORDER_LABELS:
            for kind in STRATEGIES:
                handed.clear()
                res = buchberger(realize(spec, order_factory(label)(spec.nvars), field),
                                 strategy=kind)
                at = {id(g): k for k, g in enumerate(res.basis)}
                picks = tuple((at[id(f)], at[id(g)]) for f, g in handed)
                seen.add((picks, tuple(_canon(reduce_basis(res.basis)))))
        assert len(seen) == 1, spec.name


def test_equivalent_orders_agree_on_traces():
    # the four order strategies realize one order, so the runs are stepwise
    # identical: same pair, comparison, and reduction counts
    field = PrimeField(32003)
    spec = cyclic_system(4)
    seen = set()
    for order in (DegRevLexOrder(4), SubtotalOrder(4),
                  MatrixDirectOrder(degrevlex_weight_matrix(4)),
                  MatrixCachedOrder(subtotal_weight_matrix(4))):
        res = buchberger(realize(spec, order, field))
        seen.add((res.stats.pairs_processed, res.stats.pairs_skipped_by_criteria,
                  res.stats.reduction_steps, res.stats.comparisons))
    assert len(seen) == 1


# (comparisons, order.comparisons after reduce_basis, reduction_steps,
# pairs_processed, pairs_skipped, |basis|, |reduced basis|), the same under
# every roster label
PINNED_COUNTS = {
    ("lichtblau3", INDUCED_ORDER): (1929, 2079, 262, 44, 362, 29, 8),
    ("lichtblau3", WEIGHT_VECTOR): (1713, 1863, 262, 44, 362, 29, 8),
    ("katsura-4", INDUCED_ORDER): (491, 531, 117, 11, 25, 9, 7),
    ("katsura-4", WEIGHT_VECTOR): (452, 492, 117, 11, 25, 9, 7),
    ("cyclic-4", INDUCED_ORDER): (165, 187, 27, 11, 34, 10, 7),
    ("cyclic-4", WEIGHT_VECTOR): (130, 152, 27, 11, 34, 10, 7),
    ("lichtblau1", INDUCED_ORDER): (11220, 12464, 1174, 1212, 31173, 255, 239),
    ("lichtblau1", WEIGHT_VECTOR): (1678, 2922, 1174, 1212, 31173, 255, 239),
}

# order.matvec_products after buchberger and again after reduce_basis, the
# same under both cached-matrix labels (the other labels make none); an lcm
# that stopped handing back an operand that already is the lcm raises them
PINNED_MATVEC_PRODUCTS = {
    ("lichtblau3", INDUCED_ORDER): 50,
    ("lichtblau3", WEIGHT_VECTOR): 35,
    ("katsura-4", INDUCED_ORDER): 23,
    ("katsura-4", WEIGHT_VECTOR): 22,
    ("cyclic-4", INDUCED_ORDER): 22,
    ("cyclic-4", WEIGHT_VECTOR): 22,
    ("lichtblau1", INDUCED_ORDER): 1300,
    ("lichtblau1", WEIGHT_VECTOR): 1200,
}


@pytest.mark.parametrize("system,kind", sorted(PINNED_COUNTS))
def test_work_counts_pinned_under_every_label(system, kind):
    # any change to pair selection, reducer probe order or the number of
    # comparisons a call site makes moves these counts
    spec = {"lichtblau1": lambda: load_bundled("lichtblau1"),
            "lichtblau3": lambda: load_bundled("lichtblau3"),
            "katsura-4": lambda: katsura_system(4),
            "cyclic-4": lambda: cyclic_system(4)}[system]()
    field = PrimeField(32003)
    for label in ORDER_LABELS:
        order = order_factory(label)(spec.nvars)
        res = buchberger(realize(spec, order, field), strategy=kind)
        products = order.matvec_products
        red = reduce_basis(res.basis)
        st = res.stats
        got = (st.comparisons, order.comparisons, st.reduction_steps, st.pairs_processed,
               st.pairs_skipped_by_criteria, len(res.basis), len(red))
        assert got == PINNED_COUNTS[system, kind], label
        want = PINNED_MATVEC_PRODUCTS[system, kind] if isinstance(order, MatrixCachedOrder) else 0
        assert (products, order.matvec_products) == (want, want), label


_OraclePair = namedtuple("_OraclePair", "i j lcm_exps key")


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _update_oracle(lm_exps, P, eh, stats, pair_key):
    # the straightforward Gebauer-Moeller update: exponent tuples only, one
    # max-lcm per candidate, classes taken by (degree, exponents)
    t = len(lm_exps)
    kept = []
    for pr in P:
        eL = pr.lcm_exps
        if not _divides(eh, eL):
            kept.append(pr)
            continue
        li = tuple(map(max, lm_exps[pr.i], eh))
        lj = tuple(map(max, lm_exps[pr.j], eh))
        if li == eL or lj == eL:
            kept.append(pr)
        else:
            stats.pairs_skipped_by_criteria += 1
    P[:] = kept
    cand = {}
    for i in range(t):
        cand.setdefault(tuple(map(max, lm_exps[i], eh)), []).append(i)
    minimal = []
    for e in sorted(cand, key=lambda e: (sum(e), e)):
        idxs = cand[e]
        if any(_divides(m, e) for m in minimal):
            stats.pairs_skipped_by_criteria += len(idxs)
            continue
        minimal.append(e)
        if any(all(x == 0 or y == 0 for x, y in zip(lm_exps[i], eh)) for i in idxs):
            stats.pairs_skipped_by_criteria += len(idxs)
        else:
            P.append(_OraclePair(min(idxs), t, e, pair_key(e) if pair_key else None))
            stats.pairs_skipped_by_criteria += len(idxs) - 1
    lm_exps.append(eh)


def _select_oracle(P, order, pair_key):
    if pair_key is not None:
        return min(range(len(P)), key=lambda k: (P[k].key, P[k].i, P[k].j))
    best = 0
    hb = order.attach(P[0].lcm_exps)
    for k in range(1, len(P)):
        h = order.attach(P[k].lcm_exps)
        c = order.cmp(h, hb)
        if c < 0 or (c == 0 and (P[k].i, P[k].j) < (P[best].i, P[best].j)):
            best = k
            hb = h
    return best


# leading-monomial runs in 1 to 9 variables, mostly zero exponents so that
# coprime members, chain-dominated classes and pruned pairs all occur; the
# flag says whether a pair is picked (and removed) after the update. A
# step's twist puts the run's next exponent from _JUMPS on one variable, so
# the lead table widens mid-run (its fields start at 4 bits: 7 fits, 8 does
# not, 255 fills 9 bits), repeats an earlier leading monomial, or makes it 1
_JUMPS = (7, 8, 255, 2**20)
_LEAD_RUNS = st.integers(1, 9).flatmap(lambda n: st.lists(
    st.tuples(st.tuples(*[st.sampled_from((0, 0, 0, 1, 1, 2, 3))] * n), st.booleans(),
              st.sampled_from((None,) * 5 + ("jump", "jump", "repeat", "one"))),
    min_size=1, max_size=14))


def _pair_exps(lead, pr):
    return pr.i, pr.j, tuple(map(max, lead.exps[pr.i], lead.exps[pr.j]))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_LEAD_RUNS, st.booleans(), st.booleans())
def test_update_matches_straightforward_oracle(run, cached, weighted):
    n = len(run[0][0])
    order = MatrixCachedOrder(subtotal_weight_matrix(n)) if cached else DegRevLexOrder(n)
    pair_key = order.matrix.weight_vector if weighted else None
    keys = STRATEGIES[WEIGHT_VECTOR if weighted else INDUCED_ORDER](order)[0]
    lead, P, got = LeadTable(n), [], EngineStats()
    lm_exps, Q, want = [], [], EngineStats()
    jumps = iter(_JUMPS * len(run))
    for eh, pick, twist in run:
        t = len(lm_exps)
        if twist == "one":
            eh = (0,) * n
        elif twist == "repeat" and t:
            eh = lm_exps[t // 2]
        elif twist == "jump":
            eh = eh[:t % n] + (next(jumps),) + eh[t % n + 1:]
        before = order.comparisons
        _update(lead, P, eh, got, keys)
        made = order.comparisons - before
        _update_oracle(lm_exps, Q, eh, want, pair_key)
        # a queued pair's lcm exponents are the max of its two leads'
        assert sorted(_pair_exps(lead, pr) for pr in P) == sorted(pr[:3] for pr in Q)
        # the packed lcms follow the table's layout, also after it widened
        assert [pr.lcm for pr in P] == [lead.pack(_pair_exps(lead, pr)[2]) for pr in P]
        assert got.pairs_skipped_by_criteria == want.pairs_skipped_by_criteria
        if weighted:
            assert made == 0
        else:
            # each new pair goes into a sorted queue of at most |P| pairs
            assert made <= sum(pr.j == t for pr in P) * ceil(log2(len(P) + 1))
        assert all(a.key < b.key for a, b in zip(P, P[1:]))
        if pick and P:
            a = P.pop(0)
            b = Q.pop(_select_oracle(Q, order, pair_key))
            assert _pair_exps(lead, a) == b[:3]


def test_leads_past_the_initial_field_width(monkeypatch):
    # x^300 arrives with a pair queued, so the lead table widens mid-run and
    # repacks that pair; later leads keep exponents near 300
    spec = parse_system("vars: x y z\npoly: x*y - z^2\npoly: y^3 - x*z\npoly: x^300 - y*z\n")
    widened = []
    widen = LeadTable.widen
    monkeypatch.setattr(LeadTable, "widen",
                        lambda self, top, P: widened.append((top, len(P))) or widen(self, top, P))
    field = PrimeField(32003)
    seen = set()
    for label in ORDER_LABELS:
        for kind in STRATEGIES:
            widened.clear()
            F = realize(spec, order_factory(label)(3), field)
            red = reduce_basis(buchberger(F, strategy=kind).basis)
            assert widened == [(7, 0), (300, 1)], (label, kind)
            assert verify_groebner(red, F), (label, kind)
            seen.add(tuple(_canon(red)))
    (red,) = seen
    assert sorted(p[0][0] for p in red) == [(0, 0, 6), (0, 1, 4), (0, 2, 2), (0, 3, 0), (1, 1, 0),
                                            (298, 0, 4), (299, 0, 2), (300, 0, 0)]


# leading monomials in 1 to 4 variables with small exponents, so that equal
# leading monomials are common
_LEAD_LISTS = st.integers(1, 4).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(0, 2)] * n), min_size=1, max_size=20))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_LEAD_LISTS, st.booleans())
def test_reducer_slot_equals_linear_scan(lms, cached):
    # buchberger's binary search for a new reducer's slot against a linear
    # scan for the first entry whose leading monomial is greater
    n = len(lms[0])
    order = MatrixCachedOrder(subtotal_weight_matrix(n)) if cached else DegRevLexOrder(n)
    reducer_key = STRATEGIES[INDUCED_ORDER](order)[1]
    keys, scanned = [], []
    for idx, e in enumerate(lms):
        h = order.attach(e)
        k = reducer_key(h, e, idx)
        before = order.comparisons
        at = bisect_right(keys, k)
        assert order.comparisons - before <= ceil(log2(len(keys) + 1))
        keys.insert(at, k)
        scan = next((s for s, g in enumerate(scanned) if order.cmp(h, g) < 0), len(scanned))
        scanned.insert(scan, h)
        assert at == scan


def _cyclic3_with_repeated_leads(order):
    # cyclic-3 plus three members of its ideal whose leading monomials repeat
    # the generators' x1*x2, x1*x2*x3 and x1, so three reducer insertions
    # meet an equal leading monomial
    ctx = PolyContext(PrimeField(32003), order)
    x, y, z, one = (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)
    return [ctx.polynomial(t) for t in (
        [(x, 1), (y, 1), (z, 1)],
        [((1, 1, 0), 1), ((0, 1, 1), 1), ((1, 0, 1), 1)],
        [((1, 1, 1), 1), (one, -1)],
        [((1, 1, 0), 1), ((0, 1, 1), 2), ((1, 0, 1), 2), ((0, 0, 2), 1)],  # f2 + x3 * f1
        [((1, 1, 1), 1), (x, 1), (y, 1), (z, 1), (one, -1)],  # f3 + f1
        [(x, 3), (y, 3), (z, 3)],  # 3 * f1
    )]


# PINNED_COUNTS' fields for _cyclic3_with_repeated_leads, the same under
# every roster label
REPEATED_LEAD_COUNTS = {
    INDUCED_ORDER: (59, 75, 7, 5, 23, 8, 3),
    WEIGHT_VECTOR: (36, 52, 7, 5, 23, 8, 3),
}


@pytest.mark.parametrize("kind", sorted(REPEATED_LEAD_COUNTS))
def test_repeated_leading_monomials_match_the_scan(kind, monkeypatch):
    golden = parse_system((DATA / "cyclic3_grevlex_gb.txt").read_text())
    want_red = _canon(realize(golden, DegRevLexOrder(3), PrimeField(32003)))

    def run(label):
        order = order_factory(label)(3)
        res = buchberger(_cyclic3_with_repeated_leads(order), strategy=kind)
        red = reduce_basis(res.basis)
        st = res.stats
        counts = (st.comparisons, order.comparisons, st.reduction_steps, st.pairs_processed,
                  st.pairs_skipped_by_criteria, len(res.basis), len(red))
        return counts, [p.as_tuples() for p in res.basis], _canon(red)

    for label in ORDER_LABELS:
        counts, basis, red = run(label)
        assert counts == REPEATED_LEAD_COUNTS[kind], label
        assert red == want_red, label
        with monkeypatch.context() as m:
            m.setattr(groebner, "bisect_right", lambda keys, k: next(
                (s for s, key in enumerate(keys) if k < key), len(keys)))
            scan_counts, scan_basis, scan_red = run(label)
        # same reducer probe order, so the same basis and work, by a linear scan
        assert scan_basis == basis and scan_red == red, label
        assert scan_counts[2:] == counts[2:], label


def test_abort_on_deadline():
    polys = realize(cyclic_system(6), DegRevLexOrder(6), PrimeField(32003))
    res = buchberger(polys, max_seconds=0.0)
    assert res.aborted
    assert res.basis is None
    assert res.stats.wall_time < 5.0


def test_reduce_basis_properties():
    field = PrimeField(32003)
    order = DegRevLexOrder(5)
    polys = realize(cyclic_system(5), order, field)
    red = reduce_basis(buchberger(polys).basis)
    assert len(red) == 20
    # monic, pairwise minimal leading monomials, ascending order
    lms = [order.exps(p.leading_monomial()) for p in red]
    for i, p in enumerate(red):
        assert p.terms[0][1] == 1
        for j, q in enumerate(red):
            if i != j:
                assert not all(x <= y for x, y in zip(lms[j], lms[i])) or i == j
    for a, b in zip(red, red[1:]):
        assert order.cmp(a.leading_monomial(), b.leading_monomial()) < 0
    # idempotent
    again = reduce_basis(red)
    assert _canon(again) == _canon(red)
    assert reduce_basis([]) == []


def test_verify_groebner_accepts_and_rejects():
    field = PrimeField(32003)
    polys = realize(cyclic_system(4), DegRevLexOrder(4), field)
    red = reduce_basis(buchberger(polys).basis)
    assert verify_groebner(red)
    assert verify_groebner(red, polys)
    # the raw input system is not a basis
    assert not verify_groebner(polys)
    # dropping an element breaks membership of the original inputs
    assert not verify_groebner(red[1:], polys)
    assert verify_groebner([], [])
    with pytest.raises(TimeLimitExceeded):
        verify_groebner(red, polys, max_seconds=-1.0)
    # lex (the identity matrix) is not degree-first
    lex = realize(cyclic_system(3), MatrixDirectOrder(identity_weight_matrix(3)), field)
    with pytest.raises(ValueError, match="degree-first"):
        verify_groebner(reduce_basis(buchberger(lex).basis), lex)
    # degree-first and admissible, but with a rational weight
    half = WeightMatrix([(1, 1, 1), (Fraction(1, 2), 0, 0), (0, 1, 0)])
    rat = realize(cyclic_system(3), MatrixDirectOrder(half), field)
    with pytest.raises(ValueError, match="integer weights"):
        verify_groebner(reduce_basis(buchberger(rat).basis), rat)


def test_verify_groebner_across_strategies():
    field = PrimeField(32003)
    for order in (SubtotalOrder(4), MatrixDirectOrder(subtotal_weight_matrix(4)),
                  MatrixCachedOrder(degrevlex_weight_matrix(4))):
        polys = realize(cyclic_system(4), order, field)
        red = reduce_basis(buchberger(polys).basis)
        assert verify_groebner(red, polys)


def _sinks_oracle(terms, G, order, p, inv):
    # top-reduce by the first element of G whose leading monomial divides the
    # greatest pending monomial; True iff nothing is left
    wv = order.matrix.weight_vector
    acc = {}
    for e, c in terms:
        acc[e] = (acc.get(e, 0) + c) % p
    while True:
        live = [e for e, c in acc.items() if c]
        if not live:
            return True
        e = max(live, key=wv)
        c = acc.pop(e)
        for g in G:
            (lm, lc), *tail = g.as_tuples()
            if _divides(lm, e):
                break
        else:
            return False
        factor = -c * inv(lc)
        for et, ct in tail:
            m = tuple(a - b + x for a, b, x in zip(e, lm, et))
            acc[m] = (acc.get(m, 0) + factor * ct) % p


def _verify_oracle(G, F=()):
    # verify_failure written out plainly: exponent tuples keyed by their
    # weight vectors, every element probed in basis order, absolute keys and
    # lcms by tuple(map(max, ...)); G holds no zero polynomial
    if not G:
        return next((("input", k) for k, f in enumerate(F) if not f.is_zero), None)
    ctx = G[0].context
    p, inv = ctx.field.p, ctx.field.inv
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            (lm_i, lc_i), *tail_i = G[i].as_tuples()
            (lm_j, lc_j), *tail_j = G[j].as_tuples()
            big = tuple(map(max, lm_i, lm_j))
            seed = [(tuple(a - b + x for a, b, x in zip(big, lm_i, e)), inv(lc_i) * c)
                    for e, c in tail_i]
            seed += [(tuple(a - b + x for a, b, x in zip(big, lm_j, e)), -inv(lc_j) * c)
                     for e, c in tail_j]
            if not _sinks_oracle(seed, G, ctx.order, p, inv):
                return i, j
    for k, f in enumerate(F):
        if not _sinks_oracle(f.as_tuples(), G, ctx.order, p, inv):
            return "input", k
    return None


# 2 to 5 variables, 2 or 3 polynomials of 2 or 3 terms, exponents mostly
# zero so that supports are sparse and differ between terms
_SPARSE_SYSTEMS = st.integers(2, 5).flatmap(lambda n: st.lists(
    st.lists(st.tuples(st.tuples(*[st.sampled_from((0, 0, 0, 1, 1, 2))] * n),
                       st.integers(1, 32002)), min_size=2, max_size=3),
    min_size=2, max_size=3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_SPARSE_SYSTEMS, st.integers(0, 100))
def test_verifier_agrees_with_straightforward_oracle(system, drop):
    n = len(system[0][0][0])
    field = PrimeField(32003)
    for label in ORDER_LABELS:
        ctx = PolyContext(field, order_factory(label)(n))
        F = [ctx.polynomial(terms) for terms in system]
        if any(f.is_zero for f in F):
            return
        res = buchberger(F, max_seconds=20.0)
        assert not res.aborted, label
        red = reduce_basis(res.basis)
        short = red[:drop % len(red)] + red[drop % len(red) + 1:]
        assert verify_failure(red, F) is None and _verify_oracle(red, F) is None, label
        assert verify_failure(short, F) == _verify_oracle(short, F) is not None, label
        assert verify_failure(F) == _verify_oracle(F), label


def test_verifier_checks_every_pair_and_input(monkeypatch):
    # no S-pair is skipped, coprime ones included: every pair of an accepted
    # basis and every input enters a window, in (i, j) order, then the inputs
    seen = []
    windows = groebner._reduce_windows
    monkeypatch.setattr(groebner, "_reduce_windows", lambda seeds, *args: windows(
        (seen.append(name) or (name, terms) for name, terms in seeds), *args))
    field = PrimeField(32003)
    for spec in (cyclic_system(4), load_bundled("lichtblau3")):
        polys = realize(spec, DegRevLexOrder(spec.nvars), field)
        res = buchberger(polys)
        for G in (res.basis, reduce_basis(res.basis)):
            seen.clear()
            assert verify_groebner(G, polys), spec.name
            pairs = [(i, j) for i in range(len(G)) for j in range(i + 1, len(G))]
            assert seen == pairs + [("input", k) for k in range(len(polys))], spec.name


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 30), st.data())
def test_packed_lcm_and_support_mask(n, deg, data):
    # exponents up to the field bound: one below the guard bit
    ctx = _ctx(n)
    f = ctx.polynomial([((deg,) + (0,) * (n - 1), 1)])
    _, pack_key, pack_exps, pack_lcm, mtop, ones, _ = _packed_basis([f], [])
    bias = mtop & -mtop
    exps = st.tuples(*[st.one_of(st.just(0), st.integers(0, bias - 1),
                                 st.just(bias - 1))] * n)
    a, b = data.draw(exps), data.draw(exps)
    pa, pb = pack_exps(a), pack_exps(b)
    assert pack_lcm(pa, pb) == pack_lcm(pb, pa) == pack_exps(tuple(map(max, a, b)))
    for e, pe in ((a, pa), (b, pb)):
        assert (pe + ones) & mtop == pack_exps(tuple(int(v > 0) for v in e)) * bias


def test_verify_failure_names_the_failing_check():
    field = PrimeField(32003)
    polys = realize(cyclic_system(4), DegRevLexOrder(4), field)
    red = reduce_basis(buchberger(polys).basis)
    assert verify_failure(red, polys) is None
    # without the linear element the rest still pairs off cleanly, but an
    # input is no longer in the ideal
    kind, k = verify_failure(red[1:], polys)
    assert kind == "input"
    assert not reduce(polys[k], red[1:]).is_zero
    # the raw system is no basis: the named S-polynomial has a nonzero
    # normal form under the engine's own reducer too
    i, j = verify_failure(polys)
    assert 0 <= i < j < len(polys)
    assert not reduce(s_polynomial(polys[i], polys[j]), polys).is_zero
    # indices count the caller's zero polynomials, which form no pairs
    assert verify_failure([polys[0].context.polynomial([])] + polys) == (i + 1, j + 1)
    assert verify_failure([], polys) == ("input", 0)


def _stopped_clock(monkeypatch):
    # the verifier's clock reads 0 for its first two calls (the deadline and
    # the poll before the first window), then far past any deadline; returns
    # the list of readings taken
    readings = []
    monkeypatch.setattr(groebner, "perf_counter",
                        lambda: readings.append(1) or (0.0 if len(readings) <= 2 else 1e9))
    return readings


def test_verify_deadline_polls_inside_one_reduction(monkeypatch):
    # one element forms no pairs, so the input's 20000-step top-reduction is
    # the only window, and only the poll inside it sees the deadline pass
    ctx = _ctx(1, DegRevLexOrder(1))
    g = ctx.polynomial([((1,), 1), ((0,), -1)])
    f = ctx.polynomial([((20000,), 1), ((0,), -1)])
    assert verify_failure([g], [f]) is None
    readings = _stopped_clock(monkeypatch)
    with pytest.raises(TimeLimitExceeded):
        verify_failure([g], [f], max_seconds=1.0)
    assert len(readings) == 3


def test_verify_deadline_polls_inside_a_window_of_many_seeds(monkeypatch):
    # a basis with a trinomial shares windows: its 3 pairs and 8 inputs are
    # one window, whose inputs pop about 5000 monomials x^m between them
    ctx = _ctx(3)
    G = [ctx.polynomial([((1, 0, 0), 1), ((0, 0, 0), -1)]),
         ctx.polynomial([((0, 1, 0), 1), ((0, 0, 0), -1)]),
         ctx.polynomial([((0, 0, 2), 1), ((0, 0, 1), 1), ((0, 0, 0), -2)])]
    F = [ctx.polynomial([((5000 + k, 0, 0), 1), ((0, 0, 0), -1)]) for k in range(8)]
    assert verify_failure(G, F) is None
    readings = _stopped_clock(monkeypatch)
    with pytest.raises(TimeLimitExceeded):
        verify_failure(G, F, max_seconds=1.0)
    assert len(readings) == 3


def _dense(field):
    # every monomial of degrees 3, 3, 3 and 2 in four variables with seeded
    # coefficients: 21 reduced elements, so 210 pairs and 4 inputs, which
    # fill three windows of 64 seeds and part of a fourth
    rng = random.Random(1)
    ctx = PolyContext(field, DegRevLexOrder(4))
    F = [ctx.polynomial([(e, rng.randrange(1, field.p)) for e in product(range(d + 1), repeat=4)
                         if sum(e) <= d]) for d in (3, 3, 3, 2)]
    return ctx, F, reduce_basis(buchberger(F).basis)


def _plus(ctx, *polys, extra=()):
    return ctx.polynomial([t for f in polys for t in f.as_tuples()] + list(extra))


def test_verify_failure_across_windows():
    ctx, F, red = _dense(PrimeField(32003))
    assert groebner._WINDOW == 64 and len(red) == 21
    # g_0 + 1 and g_0 + m, m a tail monomial of g_0, so that no lead divides
    # it: S(g_0, g_0 + 1) = -1 fails at 1, S(g_0, g_0 + m) at m > 1
    m = red[0].as_tuples()[1][0]
    assert sum(m) > 0
    low = _plus(ctx, red[0], extra=[((0, 0, 0, 0), 1)])
    high = _plus(ctx, red[0], extra=[(m, 1)])
    # 49 sums of basis elements keep a basis, so every pair among the first
    # 70 elements sinks; with g_0 + 1 at index 70, pair 69 in (i, j) order
    # fails first: lane 5 of the second window
    sums = [_plus(ctx, red[i], red[j]) for i in range(21) for j in range(i + 1, 21)][:49]
    assert verify_failure(red + sums + [low]) == (0, 70)
    # in red + [low, high] the later seed meets its failure first, yet the
    # earlier is named; in either order the witness is pair (0, 21)
    for G in (red + [low, high], red + [high, low]):
        assert verify_failure(G) == _verify_oracle(G) == (0, 21)
    # every pair passes, and the fifth input, seed 214 in the fourth window,
    # does not
    assert verify_failure(red, F + [low]) == ("input", 4)


def test_verify_failure_with_wide_lanes():
    # p = 2**61 - 1 widens every lane past 120 bits; katsura-5's 83 seeds
    # fill one window and part of a second
    field = PrimeField(2**61 - 1)
    spec = katsura_system(5)
    polys = realize(spec, DegRevLexOrder(spec.nvars), field)
    red = reduce_basis(buchberger(polys).basis)
    assert len(red) * (len(red) - 1) // 2 + len(polys) > groebner._WINDOW
    assert verify_failure(red, polys) is None and _verify_oracle(red, polys) is None
    for k in (0, len(red) // 2, len(red) - 1):
        short = red[:k] + red[k + 1:]
        assert verify_failure(short, polys) == _verify_oracle(short, polys) is not None, k


def test_reorder_variables_by_occurrence():
    ctx = _ctx(3)
    # occurrences: x once, y five times, z twice
    f = ctx.polynomial([((1, 3, 0), 1), ((0, 2, 2), 1)])
    assert reorder_variables([f]) == (1, 2, 0)
    # z outranks x and y; those two tie and keep input position
    g = ctx.polynomial([((2, 0, 3), 1), ((0, 2, 0), 5)])
    assert reorder_variables([g]) == (2, 0, 1)
    # a full tie keeps the identity permutation
    h = ctx.polynomial([((1, 1, 1), 4)])
    assert reorder_variables([h]) == (0, 1, 2)
    with pytest.raises(ValueError):
        reorder_variables([])


def test_audit_cached_weights_clean_run():
    for spec in (cyclic_system(4), katsura_system(4), load_bundled("lichtblau3")):
        for label in ("grevlex-matrix", "subtotal-matrix"):
            for kind in (INDUCED_ORDER, WEIGHT_VECTOR):
                order = order_factory(label)(spec.nvars)
                res = buchberger(realize(spec, order, PrimeField(32003)), strategy=kind)
                red = reduce_basis(res.basis)
                assert audit_cached_weights(res.basis) == [], (spec.name, label, kind)
                assert audit_cached_weights(red) == [], (spec.name, label, kind)


def test_audit_cached_weights_flags_corruption():
    order = MatrixCachedOrder(subtotal_weight_matrix(2))
    ctx = PolyContext(PrimeField(32003), order)
    from gbbench.poly import Polynomial

    good = order.attach((1, 1))
    bad = (99, 99, 1, 1)  # wrong cached weights for the same monomial
    f = Polynomial(ctx, (((bad), 5),))
    report = audit_cached_weights([f])
    assert report == [((1, 1), (99, 99), subtotal_weight_matrix(2).weight_vector((1, 1)))]
    assert audit_cached_weights([Polynomial(ctx, ((good, 5),))]) == []


def test_audit_rejects_native_contexts():
    polys = realize(cyclic_system(3), DegRevLexOrder(3), PrimeField(32003))
    with pytest.raises(TypeError):
        audit_cached_weights(polys)
