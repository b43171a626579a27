import random
import signal
import time

import pytest
from hypothesis import Phase, given, settings, strategies as st

from gbbench.corpus import katsura_system, realize
from gbbench.modfield import PrimeField
from gbbench.ordering import (
    DegRevLexOrder,
    MatrixCachedOrder,
    MatrixDirectOrder,
    SubtotalOrder,
    degrevlex_weight_matrix,
    subtotal_weight_matrix,
)
from gbbench.groebner import EngineStats
from gbbench.poly import (
    _DEADLINE_STRIDE,
    _USED_ONCE,
    PolyContext,
    Polynomial,
    Reducers,
    _merge,
    TimeLimitExceeded,
    reduce,
    s_polynomial,
)


def _ctx(n=3, order=None):
    return PolyContext(PrimeField(32003), order or DegRevLexOrder(n))


def _soon():
    # a deadline for reducing small random inputs, which takes microseconds:
    # a wrong reducer multiple can make reduce cycle, and the deadline turns
    # that into a failure
    return time.perf_counter() + 2


def test_polynomial_builder_sorts_and_merges():
    ctx = _ctx()
    f = ctx.polynomial([((0, 0, 1), 4), ((2, 0, 0), 1), ((0, 0, 1), 5)])
    # descending order, duplicates merged
    assert f.as_tuples() == (((2, 0, 0), 1), ((0, 0, 1), 9))
    assert f.terms[0][1] == 1
    assert len(f) == 2


def test_polynomial_builder_drops_zeros():
    ctx = _ctx()
    f = ctx.polynomial([((1, 0, 0), 1), ((0, 1, 0), 32002), ((0, 1, 0), 1)])
    assert f.as_tuples() == (((1, 0, 0), 1),)
    assert ctx.polynomial([]).is_zero
    assert ctx.polynomial([((1, 1, 1), 32003)]).is_zero


def test_zero_polynomial_has_no_leading_data():
    ctx = _ctx()
    z = ctx.polynomial([])
    with pytest.raises(ValueError):
        z.leading_monomial()
    assert z.as_tuples() == ()


def test_merge_random_against_dict_oracle():
    rng = random.Random(31)
    for order in (DegRevLexOrder(3), MatrixCachedOrder(subtotal_weight_matrix(3))):
        ctx = _ctx(3, order)
        for _ in range(100):
            A = _random_poly(rng, ctx, rng.randrange(0, 8), 5).terms
            B = _random_poly(rng, ctx, rng.randrange(0, 8), 5).terms
            ia = rng.randrange(0, len(A) + 1)
            ib = rng.randrange(0, len(B) + 1)
            acc = dict(Polynomial(ctx, A[ia:]).as_tuples())
            for e, c in Polynomial(ctx, B[ib:]).as_tuples():
                acc[e] = (acc.get(e, 0) - c) % 32003
            want = ctx.polynomial([(e, c) for e, c in acc.items() if c])
            got = _merge(ctx, A[ia:], B[ib:])
            # strictly descending, nonzero coefficients, and A[ia:] - B[ib:]
            assert got == list(want.terms)


def test_mul_scalar_and_monic():
    ctx = _ctx(2, DegRevLexOrder(2))
    f = ctx.polynomial([((1, 0), 2), ((0, 0), 5)])
    assert f.monic().terms[0][1] == 1
    assert f.monic().as_tuples()[1][1] == (5 * 16002) % 32003
    g = f.monic()
    assert g.monic() is g
    assert ctx.polynomial([]).monic().is_zero


def test_same_context_enforced():
    a = _ctx()
    b = _ctx()
    f = a.polynomial([((1, 0, 0), 1)])
    g = b.polynomial([((1, 0, 0), 1)])
    with pytest.raises(ValueError, match="different contexts"):
        s_polynomial(f, g)


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
        s_polynomial(f, ctx.polynomial([]))


def test_engine_path_inverts_only_to_make_monic(monkeypatch):
    # s_polynomial and Reducers divide out a leading coefficient through
    # monic() only, one inversion per non-monic polynomial; reduce inverts
    # nothing, and a monic input costs no inversion at all
    calls = []
    inv = PrimeField.inv
    monkeypatch.setattr(PrimeField, "inv", lambda field, a: calls.append(a) or inv(field, a))
    rng = random.Random(17)
    for order in (SubtotalOrder(3), MatrixCachedOrder(degrevlex_weight_matrix(3))):
        ctx = _ctx(3, order)
        for _ in range(30):
            # degree 10 leads every random tail (degree at most 9)
            f = ctx.polynomial([((4, 3, 3), 2)] + list(_random_poly(rng, ctx, 5, 4).as_tuples()))
            g = ctx.polynomial([((3, 4, 3), 3)] + list(_random_poly(rng, ctx, 5, 4).as_tuples()))
            fm, gm = f.monic(), g.monic()
            del calls[:]
            want = s_polynomial(fm, gm)
            Reducers(ctx, [fm, gm])
            assert calls == []
            assert s_polynomial(f, g) == want
            assert calls == [2, 3]
            del calls[:]
            assert s_polynomial(fm, g) == want
            assert calls == [3]
            del calls[:]
            table = Reducers(ctx, [f, gm, g])
            assert calls == [2, 3]
            assert [e[2] for e in table.entries] == [fm.terms, gm.terms, gm.terms]
            del calls[:]
            reduce(f, table, deadline=_soon())
            assert calls == []


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
        reduce(f, [ctx.polynomial([])])


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
            want = reduce(f, G, deadline=_soon(), stats=s_list)
            assert reduce(f, table, deadline=_soon(), stats=s_table) == want
            # the table is reusable: the second call keeps every multiple the
            # first one used, the third reads them back
            for _ in range(2):
                assert reduce(f, table, deadline=_soon()) == want
            assert s_table.reduction_steps == s_list.reduction_steps
            # an entry holds the leading handle, its mask, the monic terms and
            # the kept multiples: quotient -> products over the monic tail
            assert [e[:3] for e in table.entries] == [
                (g.terms[0][0], table.mask(g.terms[0][0]), g.monic().terms) for g in G]
            for _, _, terms, kept in table.entries:
                for q, products in kept.items():
                    assert products == [order.mul(q, h) for h, _ in terms[1:]]


def _reduce_oracle(f, G, stats):
    # the merge-based reducer: each multiple is merged into the whole
    # remainder, and the head is always the remainder's first term; it probes
    # every reducer in G's order and divides by the leading coefficient itself
    ctx = f.context
    order = ctx.order
    p = ctx.field.p
    work = list(f.terms)
    out = []
    i0 = 0
    while i0 < len(work):
        h, c = work[i0]
        for g in G:
            q = order.div(h, g.terms[0][0])
            if q is not None:
                break
        else:
            out.append((h, c))
            i0 += 1
            continue
        stats.reduction_steps += 1
        factor = c * ctx.field.inv(g.terms[0][1]) % p
        mult = [(order.mul(q, hg), ct * factor % p) for hg, ct in g.terms]
        work = _merge(ctx, work[i0 + 1:], mult[1:])
        i0 = 0
    return tuple(out)


@pytest.mark.parametrize("order", [SubtotalOrder(3),
                                   MatrixDirectOrder(degrevlex_weight_matrix(3)),
                                   MatrixCachedOrder(subtotal_weight_matrix(3))],
                         ids=lambda o: type(o).__name__)
def test_reduce_random_against_merge_oracle(order):
    rng = random.Random(13)
    ctx = _ctx(3, order)
    mine = theirs = 0
    for _ in range(60):
        G = [g for g in (_random_poly(rng, ctx, rng.randrange(1, 5), 3)
                         for _ in range(rng.randrange(1, 5))) if not g.is_zero]
        # a second reducer with the same leading monomial and another tail
        g = rng.choice(G)
        G.insert(rng.randrange(len(G) + 1), ctx.polynomial(
            [(g.as_tuples()[0][0], rng.randrange(1, 32003))]
            + list(_random_poly(rng, ctx, 3, 3).as_tuples())))
        # multiples of the reducers, so their tails cancel partway through
        pairs = list(_random_poly(rng, ctx, rng.randrange(0, 6), 5).as_tuples())
        for _ in range(rng.randrange(0, 3)):
            g = rng.choice(G)
            m = tuple(rng.randrange(0, 3) for _ in range(3))
            c = rng.randrange(1, 32003)
            pairs += [(tuple(a + b for a, b in zip(e, m)), c * cg) for e, cg in g.as_tuples()]
        f = ctx.polynomial(pairs)
        s_new, s_old = EngineStats(), EngineStats()
        c0 = order.comparisons
        got = reduce(f, G, deadline=_soon(), stats=s_new).terms
        c1 = order.comparisons
        want = _reduce_oracle(f, G, s_old)
        mine += c1 - c0
        theirs += order.comparisons - c1
        assert got == want
        assert s_new.reduction_steps == s_old.reduction_steps
    # a short remainder can cost a few more probes than a merge; the whole
    # run may not (1196 against 1460 comparisons)
    assert mine <= theirs, (mine, theirs)


_TERMS3 = st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * 3), st.integers(1, 32002)),
                   min_size=1, max_size=4)
# (insert?, position, terms): insert a reducer, or reduce a polynomial
_TABLE_OPS = st.lists(st.tuples(st.booleans(), st.integers(0, 8), _TERMS3), min_size=1, max_size=12)


# no shrinking: a wrong kept product can make reduce cycle until its
# deadline, and shrinking would pay that once per candidate example
@settings(max_examples=150, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.lists(_TERMS3, min_size=1, max_size=3), _TABLE_OPS)
def test_reused_table_equals_fresh_table_and_oracle(initial, ops):
    # one table serves many reductions, with reducers inserted in between;
    # the multiples it keeps must never change a result or a step count
    for order in (DegRevLexOrder(3), MatrixCachedOrder(subtotal_weight_matrix(3))):
        ctx = _ctx(3, order)
        G = [g for g in map(ctx.polynomial, initial) if not g.is_zero]
        table = Reducers(ctx, G)
        for is_insert, at, pairs in ops:
            g = ctx.polynomial(pairs)
            if is_insert:
                if not g.is_zero:
                    at %= len(G) + 1
                    G.insert(at, g)
                    table.insert(at, g)
                continue
            s_kept, s_fresh, s_old = EngineStats(), EngineStats(), EngineStats()
            got = reduce(g, table, deadline=_soon(), stats=s_kept)
            assert got == reduce(g, G, deadline=_soon(), stats=s_fresh)
            assert got.terms == _reduce_oracle(g, G, s_old)
            assert s_kept.reduction_steps == s_fresh.reduction_steps == s_old.reduction_steps


@pytest.mark.parametrize("order", [DegRevLexOrder(2), MatrixCachedOrder(degrevlex_weight_matrix(2))],
                         ids=lambda o: type(o).__name__)
def test_multiple_is_kept_from_its_second_use(order, monkeypatch):
    # x^2 modulo x^2 + y + 1: one step with quotient 1 over a two-term tail
    ctx = _ctx(2, order)
    g = ctx.polynomial([((2, 0), 1), ((0, 1), 1), ((0, 0), 1)])
    f = ctx.polynomial([((2, 0), 1)])
    table = Reducers(ctx, [g])
    kept = table.entries[0][3]
    q = order.attach((0, 0))
    tail = [h for h, _ in g.terms[1:]]
    products = [order.mul(q, h) for h in tail]
    calls = []
    mul = order.mul
    monkeypatch.setattr(order, "mul", lambda a, b: calls.append((a, b)) or mul(a, b))
    want = (((0, 1), 32002), ((0, 0), 32002))
    # first use: one mul per tail term, nothing kept
    assert reduce(f, table, deadline=_soon()).as_tuples() == want
    assert calls == [(q, h) for h in tail]
    assert kept == {q: _USED_ONCE}
    # second use: the same calls, and the products are kept
    del calls[:]
    assert reduce(f, table, deadline=_soon()).as_tuples() == want
    assert calls == [(q, h) for h in tail]
    assert kept == {q: products}
    # later uses: no mul at all
    del calls[:]
    for _ in range(3):
        assert reduce(f, table, deadline=_soon()).as_tuples() == want
    assert calls == []
    assert kept == {q: products}


# (kind, a, b, terms): kind 0 inserts the polynomial of terms at position a,
# kind 1 inserts one with the lead of the b-th reducer and a tail from terms
# at position a, kind 2 reduces the b-th polynomial of the pool
_MEMO_OPS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 8), st.integers(0, 8), _TERMS3),
                     min_size=1, max_size=16)
_POOL = st.lists(st.lists(st.tuples(st.tuples(*[st.integers(0, 5)] * 3), st.integers(1, 32002)),
                          min_size=1, max_size=6), min_size=1, max_size=3)


@settings(max_examples=150, deadline=None, derandomize=True,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(_POOL, _MEMO_OPS)
def test_remembered_divisors_equal_a_fresh_table(pool, ops):
    # one table remembers each head's divisor across reduce calls while
    # reducers are inserted anywhere, repeated leads included; every call
    # must give the terms, steps and comparisons of a table built afresh
    # from the same reducers in the same order
    for order in (DegRevLexOrder(3), MatrixCachedOrder(subtotal_weight_matrix(3))):
        ctx = _ctx(3, order)
        pool_f = [ctx.polynomial(pairs) for pairs in pool]
        G: list = []
        table = Reducers(ctx)
        for kind, at, b, pairs in ops:
            if kind == 2:
                f = pool_f[b % len(pool_f)]
                s_memo, s_fresh = EngineStats(), EngineStats()
                c0 = order.comparisons
                got = reduce(f, table, deadline=_soon(), stats=s_memo)
                c1 = order.comparisons
                want = reduce(f, Reducers(ctx, G), deadline=_soon(), stats=s_fresh)
                assert got.terms == want.terms
                assert s_memo.reduction_steps == s_fresh.reduction_steps
                assert c1 - c0 == order.comparisons - c1
                continue
            g = ctx.polynomial(pairs)
            if kind == 1 and G:
                lead = G[b % len(G)].as_tuples()[0][0]
                lead_h = order.attach(lead)
                g = ctx.polynomial([(lead, 1 + b)] + [(e, c) for e, c in pairs
                                                      if order.cmp(order.attach(e), lead_h) < 0])
            if not g.is_zero:
                at %= len(G) + 1
                G.insert(at, g)
                table.insert(at, g)


@pytest.mark.parametrize("order", [DegRevLexOrder(2), MatrixCachedOrder(degrevlex_weight_matrix(2))],
                         ids=lambda o: type(o).__name__)
def test_repeated_reduce_makes_no_failing_probe(order, monkeypatch):
    # x^3 + 1 is probed first and divides none of the heads below, but its
    # mask lets every head that uses x through; x*y + 1 divides them
    ctx = _ctx(2, order)
    g1 = ctx.polynomial([((3, 0), 1), ((0, 0), 1)])
    g2 = ctx.polynomial([((1, 1), 1), ((0, 0), 1)])
    f = ctx.polynomial([((2, 3), 1), ((2, 2), 5), ((1, 2), 7), ((2, 0), 3)])
    table = Reducers(ctx, [g1, g2])
    failing = []
    div = order.div

    def counting_div(a, b):
        q = div(a, b)
        if q is None:
            failing.append((a, b))
        return q

    monkeypatch.setattr(order, "div", counting_div)
    want = reduce(f, [g1, g2], deadline=_soon())
    del failing[:]
    assert reduce(f, table, deadline=_soon()) == want
    assert failing
    for _ in range(3):
        del failing[:]
        assert reduce(f, table, deadline=_soon()) == want
        assert failing == []
    # an insert that divides no remembered head costs a mask test and at
    # most one failing div per head, and leaves the answers in place
    table.insert(0, ctx.polynomial([((0, 4), 1)]))
    reduce(f, table, deadline=_soon())
    del failing[:]
    assert reduce(f, table, deadline=_soon()) == want
    assert failing == []


def test_reducers_reject_zero_and_foreign_polynomials():
    ctx = _ctx(2, DegRevLexOrder(2))
    other = _ctx(2, DegRevLexOrder(2))
    g = ctx.polynomial([((1, 0), 3), ((0, 0), 1)])
    foreign = other.polynomial([((1, 0), 1)])
    with pytest.raises(ValueError, match="zero polynomial"):
        Reducers(ctx, [g, ctx.polynomial([])])
    with pytest.raises(ValueError, match="different contexts"):
        Reducers(ctx, [foreign])
    table = Reducers(ctx, [g])
    with pytest.raises(ValueError, match="different contexts"):
        table.insert(0, foreign)
    with pytest.raises(ValueError, match="zero polynomial"):
        table.insert(1, ctx.polynomial([]))
    assert len(table.entries) == 1
    # an entry holds the leading handle, its mask, the monic terms and no
    # kept multiples yet
    assert table.entries[0] == (g.terms[0][0], 0b01, g.monic().terms, {})
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
    stats = EngineStats()
    with pytest.raises(TimeLimitExceeded):
        reduce(f, [g], deadline=time.perf_counter() - 1.0, stats=stats)
    # the steps done up to the first poll are counted before the raise
    assert stats.reduction_steps == _DEADLINE_STRIDE
    # same reduction without the deadline terminates with x^k -> 1; an alarm
    # turns a reduce that cycles into a failure instead of a hung suite
    def on_alarm(signum, frame):
        raise AssertionError("reduce without a deadline still running after 10 s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        assert reduce(f, [g]).as_tuples() == (((0,), 1),)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_polynomial_with_cached_matrix_order():
    order = MatrixCachedOrder(subtotal_weight_matrix(3))
    ctx = PolyContext(PrimeField(32003), order)
    f = ctx.polynomial([((1, 1, 0), 2), ((0, 0, 2), 3)])
    assert f.as_tuples() == (((1, 1, 0), 2), ((0, 0, 2), 3))
    # each handle carries its weight vector
    assert [order.weights(h) for h, _ in f.terms] == [
        subtotal_weight_matrix(3).weight_vector(e) for e, _ in f.as_tuples()]


def test_format_and_equality():
    ctx = _ctx(3)
    f = ctx.polynomial([((1, 2, 0), 3), ((0, 0, 0), 1)])
    text = f.format(["x", "y", "z"])
    assert text == "3*x*y^2 + 1"
    assert f == ctx.polynomial([((0, 0, 0), 1), ((1, 2, 0), 3)])
    assert f != ctx.polynomial([((1, 2, 0), 3)])
    assert ctx.polynomial([]).format() == "0"
    k3 = realize(katsura_system(3), DegRevLexOrder(3), PrimeField(32003))
    assert [g.format() for g in k3] == [
        "x1^2 + 2*x2^2 + 2*x3^2 + 32002*x1",
        "2*x1*x2 + 2*x2*x3 + 32002*x2",
        "x1 + 2*x2 + 2*x3 + 32002",
    ]
    assert k3[0].format(["u0", "u1", "u2"]) == "u0^2 + 2*u1^2 + 2*u2^2 + 32002*u0"
