import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gbbench.modfield import PrimeField
from gbbench.ordering import DegRevLexOrder, MatrixCachedOrder, SubtotalOrder, subtotal_weight_matrix
from gbbench.poly import (
    PolyContext,
    Reducers,
    TimeLimitExceeded,
    reduce,
    s_polynomial,
)


def _ctx(n=3, order=None):
    return PolyContext(n, PrimeField(32003), order or DegRevLexOrder(n))


def test_polynomial_builder_sorts_and_merges():
    ctx = _ctx()
    f = ctx.polynomial([((0, 0, 1), 4), ((2, 0, 0), 1), ((0, 0, 1), 5)])
    # descending order, duplicates merged
    assert f.as_tuples() == (((2, 0, 0), 1), ((0, 0, 1), 9))
    assert f.leading_coeff() == 1
    assert len(f) == 2


def test_polynomial_builder_drops_zeros():
    ctx = _ctx()
    f = ctx.polynomial([((1, 0, 0), 1), ((0, 1, 0), 32002), ((0, 1, 0), 1)])
    assert f.as_tuples() == (((1, 0, 0), 1),)
    assert ctx.polynomial([]).is_zero
    assert ctx.polynomial([((1, 1, 1), 32003)]).is_zero
    assert ctx.zero().is_zero


def test_zero_polynomial_has_no_leading_data():
    ctx = _ctx()
    z = ctx.zero()
    with pytest.raises(ValueError):
        z.leading_monomial()
    with pytest.raises(ValueError):
        z.leading_coeff()
    assert z.as_tuples() == ()


def test_add_sub_neg():
    ctx = _ctx(2, DegRevLexOrder(2))
    f = ctx.polynomial([((2, 0), 1), ((0, 1), 3)])
    g = ctx.polynomial([((2, 0), 32002), ((1, 0), 7)])
    assert (f + g).as_tuples() == (((1, 0), 7), ((0, 1), 3))
    assert (f - f).is_zero
    assert (-f + f).is_zero
    # addition against zero
    assert (f + ctx.zero()) == f


def test_add_random_against_dict_oracle():
    rng = random.Random(31)
    ctx = _ctx(3)
    for _ in range(100):
        fa = [(tuple(rng.randrange(0, 5) for _ in range(3)), rng.randrange(1, 32003))
              for _ in range(rng.randrange(0, 8))]
        fb = [(tuple(rng.randrange(0, 5) for _ in range(3)), rng.randrange(1, 32003))
              for _ in range(rng.randrange(0, 8))]
        f = ctx.polynomial(fa)
        g = ctx.polynomial(fb)
        acc: dict = {}
        for e, c in fa + fb:
            acc[e] = (acc.get(e, 0) + c) % 32003
        want = {e: c for e, c in acc.items() if c}
        got = dict(((e, c) for e, c in (f + g).as_tuples()))
        assert got == want


def test_mul_scalar_and_monic():
    ctx = _ctx(2, DegRevLexOrder(2))
    f = ctx.polynomial([((1, 0), 2), ((0, 0), 5)])
    assert f.mul_scalar(0).is_zero
    assert f.mul_scalar(16002).as_tuples() == (((1, 0), 1), ((0, 0), (5 * 16002) % 32003))
    assert f.monic().leading_coeff() == 1
    assert f.monic().as_tuples()[1][1] == (5 * 16002) % 32003


def test_same_context_enforced():
    a = _ctx()
    b = _ctx()
    f = a.polynomial([((1, 0, 0), 1)])
    g = b.polynomial([((1, 0, 0), 1)])
    with pytest.raises(ValueError):
        f + g


def test_s_polynomial_hand_case():
    # f = x^2 + y, g = xy + 1 (grevlex, x > y):
    # S = y*f - x*g = y^2 - x  -> stored with -x = 32002*x
    ctx = _ctx(2, DegRevLexOrder(2))
    f = ctx.polynomial([((2, 0), 1), ((0, 1), 1)])
    g = ctx.polynomial([((1, 1), 1), ((0, 0), 1)])
    s = s_polynomial(f, g)
    assert s.as_tuples() == (((0, 2), 1), ((1, 0), 32002))


def test_s_polynomial_scales_leading_coeffs():
    ctx = _ctx(2, DegRevLexOrder(2))
    f = ctx.polynomial([((2, 0), 7), ((0, 1), 7)])
    g = ctx.polynomial([((1, 1), 5), ((0, 0), 5)])
    s = s_polynomial(f, g)
    assert s.as_tuples() == (((0, 2), 1), ((1, 0), 32002))
    with pytest.raises(ValueError):
        s_polynomial(f, ctx.zero())


def test_reduce_hand_case():
    # classic example: x^2*y modulo {x^2 - y, x*y - 1}
    # x^2*y -> y*y (via first) = y^2; y^2 is irreducible
    ctx = _ctx(2, DegRevLexOrder(2))
    f = ctx.polynomial([((2, 1), 1)])
    g1 = ctx.polynomial([((2, 0), 1), ((0, 1), 32002)])
    g2 = ctx.polynomial([((1, 1), 1), ((0, 0), 32002)])
    r = reduce(f, [g1, g2])
    assert r.as_tuples() == (((0, 2), 1),)


def test_reduce_is_full_normal_form():
    # tail terms get reduced too, not only the head
    ctx = _ctx(2, DegRevLexOrder(2))
    f = ctx.polynomial([((3, 0), 1), ((1, 1), 1)])
    g = ctx.polynomial([((1, 1), 1), ((0, 0), 1)])
    r = reduce(f, [g])
    # x^3 is irreducible by xy + 1; the tail xy reduces to -1
    assert r.as_tuples() == (((3, 0), 1), ((0, 0), 32002))


def test_reduce_respects_reducer_sequence():
    # both reducers match the head; the first in the list wins
    ctx = _ctx(2, DegRevLexOrder(2))
    f = ctx.polynomial([((2, 0), 1)])
    g1 = ctx.polynomial([((2, 0), 1), ((0, 1), 1)])   # x^2 + y
    g2 = ctx.polynomial([((1, 0), 1), ((0, 1), 1)])   # x + y
    r12 = reduce(f, [g1, g2])
    r21 = reduce(f, [g2, g1])
    assert r12.as_tuples() == (((0, 1), 32002),)
    # via x + y: x^2 -> -x*y -> y^2
    assert r21.as_tuples() == (((0, 2), 1),)


def test_reduce_to_zero_and_stats():
    class Counter:
        reduction_steps = 0

    ctx = _ctx(2, DegRevLexOrder(2))
    g = ctx.polynomial([((1, 0), 1), ((0, 1), 1)])
    f = ctx.polynomial([((2, 2), 5), ((1, 3), 5)])  # 5*x*y^2 * g
    stats = Counter()
    assert reduce(f, [g], stats=stats).is_zero
    assert stats.reduction_steps > 0
    with pytest.raises(ValueError):
        reduce(f, [ctx.zero()])


def _random_poly(rng, ctx, terms, top):
    n = ctx.nvars
    return ctx.polynomial([(tuple(rng.randrange(0, top) for _ in range(n)), rng.randrange(1, 32003))
                           for _ in range(terms)])


def test_reduce_against_table_equals_reduce_against_list():
    rng = random.Random(7)
    for order in (DegRevLexOrder(3), MatrixCachedOrder(subtotal_weight_matrix(3))):
        ctx = _ctx(3, order)
        for _ in range(40):
            G = [g for g in (_random_poly(rng, ctx, rng.randrange(1, 4), 3)
                             for _ in range(rng.randrange(1, 5))) if not g.is_zero]
            f = _random_poly(rng, ctx, rng.randrange(1, 8), 5)
            table = Reducers(ctx, G)
            s_list = type("Stats", (), {"reduction_steps": 0})()
            s_table = type("Stats", (), {"reduction_steps": 0})()
            want = reduce(f, G, stats=s_list)
            assert reduce(f, table, stats=s_table) == want
            # the table is reusable and unchanged by a reduction
            assert reduce(f, table) == want
            assert s_table.reduction_steps == s_list.reduction_steps
            assert [e[3] for e in table.entries] == [g.terms for g in G]


def test_reducers_reject_zero_and_foreign_polynomials():
    ctx = _ctx(2, DegRevLexOrder(2))
    other = _ctx(2, DegRevLexOrder(2))
    g = ctx.polynomial([((1, 0), 3), ((0, 0), 1)])
    foreign = other.polynomial([((1, 0), 1)])
    with pytest.raises(ValueError, match="zero polynomial"):
        Reducers(ctx, [g, ctx.zero()])
    with pytest.raises(ValueError, match="different contexts"):
        Reducers(ctx, [foreign])
    table = Reducers(ctx, [g])
    with pytest.raises(ValueError, match="different contexts"):
        table.insert(0, foreign)
    with pytest.raises(ValueError, match="zero polynomial"):
        table.insert(1, ctx.zero())
    assert len(table.entries) == 1
    # an entry holds the leading handle, its mask, 1/lc and the terms
    assert table.entries[0] == (g.terms[0][0], 0b01, ctx.field.inv(3), g.terms)
    with pytest.raises(ValueError, match="different contexts"):
        reduce(foreign, table)
    with pytest.raises(ValueError, match="different contexts"):
        reduce(foreign, [g])


_EXPS = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.tuples(*[st.integers(0, 3)] * n), st.tuples(*[st.integers(0, 2)] * n)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_EXPS)
def test_mask_passes_every_divisor(pair):
    # reduce skips a reducer whose mask has a bit the term's mask lacks; that
    # must never skip a reducer that divides the term
    a, b = pair
    n = len(a)
    for order in (SubtotalOrder(n), MatrixCachedOrder(subtotal_weight_matrix(n))):
        table = Reducers(_ctx(n, order))
        ha, hb = order.attach(a), order.attach(b)
        assert table.mask(ha) == sum(1 << i for i, e in enumerate(a) if e)
        if order.div(ha, hb) is not None:
            assert table.mask(hb) & ~table.mask(ha) == 0


def test_reduce_deadline_trips():
    # a deliberately slow chain: reduce x^k down by x - 1 one degree at a time
    ctx = _ctx(1, DegRevLexOrder(1))
    g = ctx.polynomial([((1,), 1), ((0,), 32002)])
    f = ctx.polynomial([((50000,), 1)])
    with pytest.raises(TimeLimitExceeded):
        reduce(f, [g], deadline=time.perf_counter() - 1.0)
    # same reduction without the deadline terminates with x^k -> 1
    assert reduce(f, [g]).as_tuples() == (((0,), 1),)


def test_polynomial_with_cached_matrix_order():
    order = MatrixCachedOrder(subtotal_weight_matrix(3))
    ctx = PolyContext(3, PrimeField(32003), order)
    f = ctx.polynomial([((1, 1, 0), 2), ((0, 0, 2), 3)])
    assert f.as_tuples() == (((1, 1, 0), 2), ((0, 0, 2), 3))
    # each handle carries its weight vector
    assert [order.weights(h) for h, _ in f.terms] == [
        subtotal_weight_matrix(3).weight_vector(e) for e, _ in f.as_tuples()]


def test_format_and_equality():
    ctx = _ctx(3)
    f = ctx.polynomial([((1, 2, 0), 3), ((0, 0, 0), 1)])
    text = f.format(["x", "y", "z"])
    assert "x" in text and "y^2" in text
    assert f == ctx.polynomial([((0, 0, 0), 1), ((1, 2, 0), 3)])
    assert f != ctx.polynomial([((1, 2, 0), 3)])
    assert ctx.zero().format() == "0"
