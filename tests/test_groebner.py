from dataclasses import asdict
from fractions import Fraction

import pytest

from gbbench.bench import INDUCED_ORDER, ORDER_LABELS, WEIGHT_VECTOR, order_factory, strategy_for
from gbbench.corpus import cyclic_system, katsura_system, load_bundled, realize
from gbbench.groebner import (
    EngineStats,
    audit_cached_weights,
    buchberger,
    reduce_basis,
    reorder_variables,
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
from gbbench.poly import PolyContext, TimeLimitExceeded


def _ctx(n, order=None):
    return PolyContext(n, PrimeField(32003), order or DegRevLexOrder(n))


def _canon(polys):
    return sorted(p.as_tuples() for p in polys)


def test_buchberger_validates_input():
    ctx = _ctx(2)
    with pytest.raises(ValueError):
        buchberger([])
    with pytest.raises(ValueError):
        buchberger([ctx.zero()])
    f = ctx.polynomial([((1, 0), 1)])
    g = _ctx(2).polynomial([((0, 1), 1)])
    with pytest.raises(ValueError):
        buchberger([f, g])
    with pytest.raises(ValueError):
        buchberger([f], strategy=subtotal_weight_matrix(3))


def test_buchberger_univariate_gcd():
    # ideal ((x-1)(x-2)^2, (x-1)(x-2)(x-3)) collapses to its gcd
    # (x-1)(x-2) = x^2 - 3x + 2; frozen from an independent CAS run
    ctx = _ctx(1)
    f = ctx.polynomial([((3,), 1), ((2,), 32003 - 5), ((1,), 8), ((0,), 32003 - 4)])
    g = ctx.polynomial([((3,), 1), ((2,), 32003 - 6), ((1,), 11), ((0,), 32003 - 6)])
    res = buchberger([f, g])
    assert res.completed and not res.aborted
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


def test_strategies_reach_the_same_reduced_basis():
    field = PrimeField(32003)
    spec = cyclic_system(4)
    base = None
    for strategy in (None, degrevlex_weight_matrix(4)):
        polys = realize(spec, DegRevLexOrder(4), field)
        red = reduce_basis(buchberger(polys, strategy=strategy).basis)
        canon = _canon(red)
        if base is None:
            base = canon
        assert canon == base
    assert len(base) == 7


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
    ("lichtblau3", INDUCED_ORDER): (3629, 3765, 262, 44, 362, 29, 8),
    ("lichtblau3", WEIGHT_VECTOR): (3242, 3378, 262, 44, 362, 29, 8),
    ("katsura-4", INDUCED_ORDER): (1117, 1168, 117, 11, 25, 9, 7),
    ("katsura-4", WEIGHT_VECTOR): (1063, 1114, 117, 11, 25, 9, 7),
    ("cyclic-4", INDUCED_ORDER): (236, 264, 27, 11, 34, 10, 7),
    ("cyclic-4", WEIGHT_VECTOR): (178, 206, 27, 11, 34, 10, 7),
}


@pytest.mark.parametrize("system,kind", sorted(PINNED_COUNTS))
def test_work_counts_pinned_under_every_label(system, kind):
    # any change to pair selection, reducer probe order or the number of
    # comparisons a call site makes moves these counts
    spec = {"lichtblau3": lambda: load_bundled("lichtblau3"),
            "katsura-4": lambda: katsura_system(4),
            "cyclic-4": lambda: cyclic_system(4)}[system]()
    field = PrimeField(32003)
    for label in ORDER_LABELS:
        order = order_factory(label)(spec.nvars)
        res = buchberger(realize(spec, order, field),
                         strategy=strategy_for(label, spec.nvars, kind))
        red = reduce_basis(res.basis)
        st = res.stats
        got = (st.comparisons, order.comparisons, st.reduction_steps, st.pairs_processed,
               st.pairs_skipped_by_criteria, len(res.basis), len(red))
        assert got == PINNED_COUNTS[system, kind], label


def test_abort_on_pair_budget():
    polys = realize(cyclic_system(5), DegRevLexOrder(5), PrimeField(32003))
    res = buchberger(polys, max_pairs=1)
    assert res.aborted and not res.completed
    assert res.basis is None
    assert res.stats.pairs_processed >= 1


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
        assert p.leading_coeff() == 1
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
    order = MatrixCachedOrder(subtotal_weight_matrix(4))
    polys = realize(cyclic_system(4), order, PrimeField(32003))
    res = buchberger(polys)
    red = reduce_basis(res.basis)
    assert audit_cached_weights(res.basis) == []
    assert audit_cached_weights(red) == []


def test_audit_cached_weights_flags_corruption():
    order = MatrixCachedOrder(subtotal_weight_matrix(2))
    ctx = PolyContext(2, PrimeField(32003), order)
    from gbbench.poly import Polynomial

    good = order.attach((1, 1))
    bad = ((99, 99), (1, 1))  # wrong cached weights for the same monomial
    f = Polynomial(ctx, (((bad), 5),))
    report = audit_cached_weights([f])
    assert report == [((1, 1), (99, 99), subtotal_weight_matrix(2).weight_vector((1, 1)))]
    assert audit_cached_weights([Polynomial(ctx, ((good, 5),))]) == []


def test_audit_rejects_native_contexts():
    polys = realize(cyclic_system(3), DegRevLexOrder(3), PrimeField(32003))
    with pytest.raises(TypeError):
        audit_cached_weights(polys)
