import itertools
import random
from fractions import Fraction

import pytest

from gbbench.ordering import (
    EQUAL,
    GREATER,
    LESS,
    ORACLE_MAX_PAIRS,
    DegRevLexOrder,
    MatrixCachedOrder,
    MatrixDirectOrder,
    SubtotalOrder,
    WeightMatrix,
    cmp_by_matrix,
    cmp_degrevlex,
    cmp_lex,
    cmp_subtotal,
    degrevlex_weight_matrix,
    identity_weight_matrix,
    is_admissible,
    orders_equivalent_certificate,
    orders_equivalent_oracle,
    subtotal_weight_matrix,
)


# ---------------------------------------------------------------- comparators

def test_degrevlex_hand_cases():
    # x > y > z in three variables
    x, y, z = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert cmp_degrevlex(x, y) == GREATER
    assert cmp_degrevlex(y, z) == GREATER
    assert cmp_degrevlex(z, x) == LESS
    assert cmp_degrevlex(x, x) == EQUAL
    # degree dominates
    assert cmp_degrevlex((0, 0, 2), (1, 0, 0)) == GREATER
    # degree tie: the monomial with the larger exponent in the least main
    # variable is the smaller one
    assert cmp_degrevlex((1, 1, 0), (0, 2, 0)) == GREATER
    assert cmp_degrevlex((2, 0, 1), (1, 2, 0)) == LESS
    # classic grevlex-vs-lex separator: x*z vs y^2
    assert cmp_degrevlex((1, 0, 1), (0, 2, 0)) == LESS


def test_subtotal_hand_cases():
    assert cmp_subtotal((1, 0, 0), (0, 0, 1)) == GREATER
    assert cmp_subtotal((0, 0, 2), (1, 0, 0)) == GREATER
    assert cmp_subtotal((1, 1, 0), (0, 2, 0)) == GREATER
    assert cmp_subtotal((1, 0, 1), (0, 2, 0)) == LESS
    assert cmp_subtotal((3, 1, 4), (3, 1, 4)) == EQUAL


def test_lex_hand_cases():
    assert cmp_lex((1, 0, 0), (0, 5, 5)) == GREATER
    assert cmp_lex((1, 2, 0), (1, 1, 9)) == GREATER
    assert cmp_lex((0, 1), (0, 1)) == EQUAL


def test_comparators_reject_length_mismatch():
    with pytest.raises(ValueError):
        cmp_degrevlex((1, 0), (1, 0, 0))
    with pytest.raises(ValueError):
        cmp_subtotal((1,), (1, 0))


def test_subtotal_equals_degrevlex_exhaustive_small():
    # both comparators realize the same order; spot it exhaustively on a
    # small grid (the acceptance suite runs the full-size version)
    for n in (1, 2, 3):
        grid = list(itertools.product(range(3), repeat=n))
        for a in grid:
            for b in grid:
                assert cmp_subtotal(a, b) == cmp_degrevlex(a, b)


def test_comparator_antisymmetry_and_total_degree():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randrange(1, 7)
        a = tuple(rng.randrange(0, 9) for _ in range(n))
        b = tuple(rng.randrange(0, 9) for _ in range(n))
        c = cmp_degrevlex(a, b)
        assert c == -cmp_degrevlex(b, a)
        if sum(a) > sum(b):
            assert c == GREATER


# ------------------------------------------------------------- weight matrices

def test_subtotal_matrix_frozen():
    assert subtotal_weight_matrix(3).rows == (
        (1, 1, 1),
        (1, 1, 0),
        (1, 0, 0),
    )
    assert subtotal_weight_matrix(4).rows == (
        (1, 1, 1, 1),
        (1, 1, 1, 0),
        (1, 1, 0, 0),
        (1, 0, 0, 0),
    )


def test_degrevlex_matrix_frozen():
    assert degrevlex_weight_matrix(3).rows == (
        (1, 1, 1),
        (0, 0, -1),
        (0, -1, 0),
    )
    assert degrevlex_weight_matrix(4).rows == (
        (1, 1, 1, 1),
        (0, 0, 0, -1),
        (0, 0, -1, 0),
        (0, -1, 0, 0),
    )


def test_weight_vector_prefix_sums():
    w = subtotal_weight_matrix(3)
    a = (2, 5, 1)
    # rows give the partial sums of the exponents, most significant first
    assert w.weight_vector(a) == (8, 7, 2)


def test_matrix_matmul_and_inverse():
    w = subtotal_weight_matrix(4)
    ident = identity_weight_matrix(4)
    assert w @ ident == w
    inv = w.inverse()
    assert inv @ w == ident
    assert w @ inv == ident


def test_singular_matrix_detected():
    m = WeightMatrix([(1, 1), (1, 1)])
    assert m.is_singular()
    with pytest.raises(ValueError):
        m.inverse()
    assert not subtotal_weight_matrix(5).is_singular()


def test_singular_verdict_matches_inverse():
    # is_singular eliminates fraction-free; inverse() is the Fraction reference
    rng = random.Random(11)
    verdicts = set()
    for _ in range(500):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 7))) for _ in range(n)]
                for _ in range(n)]
        if n > 2 and rng.random() < 0.4:
            # make row i a rational combination of rows j and k
            i, j, k = rng.sample(range(n), 3)
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])]
        w = WeightMatrix(rows)
        try:
            w.inverse()
            want = False
        except ValueError:
            want = True
        assert w.is_singular() == want, rows
        verdicts.add(want)
    assert verdicts == {True, False}


def test_matrix_text_round_trip():
    w = degrevlex_weight_matrix(5)
    again = WeightMatrix.from_text(w.to_text())
    assert again == w


def test_matrix_from_text_comments_and_fractions():
    text = """
    # leading comment
    2
    1 1/2

    0 1
    """
    m = WeightMatrix.from_text(text)
    assert m.rows == ((1, Fraction(1, 2)), (0, 1))


def test_matrix_from_text_errors():
    with pytest.raises(ValueError):
        WeightMatrix.from_text("2\n1 2\n3\n")
    with pytest.raises(ValueError):
        WeightMatrix.from_text("")
    with pytest.raises(ValueError):
        WeightMatrix.from_text("x\n1\n")


def test_cmp_by_matrix_matches_native():
    wg = degrevlex_weight_matrix(4)
    ws = subtotal_weight_matrix(4)
    rng = random.Random(23)
    for _ in range(400):
        a = tuple(rng.randrange(0, 12) for _ in range(4))
        b = tuple(rng.randrange(0, 12) for _ in range(4))
        want = cmp_degrevlex(a, b)
        assert cmp_by_matrix(wg, a, b) == want
        assert cmp_by_matrix(ws, a, b) == want


# ---------------------------------------------------------------- admissibility

def test_admissible_families():
    for n in range(1, 12):
        assert is_admissible(subtotal_weight_matrix(n))
        assert is_admissible(degrevlex_weight_matrix(n))
        assert is_admissible(identity_weight_matrix(n))


def test_inadmissible_counterexamples():
    # singular
    assert not is_admissible(WeightMatrix([(1, 1), (1, 1)]))
    # first nonzero entry of a column is negative
    assert not is_admissible(WeightMatrix([(1, -1), (0, 1)]))
    assert not is_admissible(WeightMatrix([(0, 1), (-1, 0)]))


# ---------------------------------------------------- equivalence certificates

def test_certificate_grevlex_to_subtotal():
    wg = degrevlex_weight_matrix(3)
    ws = subtotal_weight_matrix(3)
    L = orders_equivalent_certificate(wg, ws)
    assert L is not None
    assert L.rows == ((1, 0, 0), (1, 1, 0), (1, 1, 1))
    assert L @ wg == ws


def test_certificate_is_directional():
    wg = degrevlex_weight_matrix(3)
    ws = subtotal_weight_matrix(3)
    L = orders_equivalent_certificate(ws, wg)
    assert L is not None
    assert L @ ws == wg


def test_certificate_rejects_inequivalent():
    n = 3
    assert orders_equivalent_certificate(identity_weight_matrix(n),
                                         degrevlex_weight_matrix(n)) is None


def test_oracle_agrees_with_certificate():
    wg = degrevlex_weight_matrix(3)
    ws = subtotal_weight_matrix(3)
    assert orders_equivalent_oracle(wg, ws, 4) is None
    witness = orders_equivalent_oracle(identity_weight_matrix(2),
                                       degrevlex_weight_matrix(2), 4)
    assert witness is not None
    a, b = witness
    # the witness pair really is ordered differently by the two matrices
    assert cmp_by_matrix(identity_weight_matrix(2), a, b) != cmp_by_matrix(
        degrevlex_weight_matrix(2), a, b)


def test_oracle_refuses_more_than_its_bound():
    # (D + 1)^(2n) pairs: 5^16 ~ 1.5e11 for the 8x8 matrices at degree 4
    assert 5 ** 16 > ORACLE_MAX_PAIRS >= 6 ** 8
    with pytest.raises(ValueError, match="pairs"):
        orders_equivalent_oracle(subtotal_weight_matrix(8), degrevlex_weight_matrix(8), 4)
    with pytest.raises(ValueError):
        orders_equivalent_oracle(subtotal_weight_matrix(2), degrevlex_weight_matrix(2), -1)


# ------------------------------------------------------------ order strategies

def _random_pairs(rng, n, count, hi):
    for _ in range(count):
        yield (tuple(rng.randrange(0, hi) for _ in range(n)),
               tuple(rng.randrange(0, hi) for _ in range(n)))


def test_native_orders_cmp_and_counters():
    order = DegRevLexOrder(3)
    a = order.attach((2, 0, 1))
    b = order.attach((1, 1, 1))
    assert order.cmp(a, b) == cmp_degrevlex((2, 0, 1), (1, 1, 1))
    assert order.comparisons == 1
    sub = SubtotalOrder(3)
    assert sub.cmp(sub.attach((0, 2, 0)), sub.attach((1, 0, 1))) == GREATER


def test_handle_protocol_native():
    order = SubtotalOrder(3)
    a = order.attach((2, 1, 0))
    b = order.attach((1, 1, 2))
    assert order.exps(a) == (2, 1, 0)
    assert order.exps(order.mul(a, b)) == (3, 2, 2)
    assert order.div(a, b) is None
    assert order.exps(order.div(order.mul(a, b), b)) == (2, 1, 0)
    assert order.exps(order.lcm(a, b)) == (2, 1, 2)


def test_matrix_direct_order():
    order = MatrixDirectOrder(subtotal_weight_matrix(3))
    a = order.attach((1, 2, 0))
    b = order.attach((0, 2, 1))
    assert order.cmp(a, b) == cmp_subtotal((1, 2, 0), (0, 2, 1))
    assert order.matvec_products == 0


def test_matrix_order_requires_admissible():
    bad = WeightMatrix([(1, 1), (1, 1)])
    with pytest.raises(ValueError):
        MatrixDirectOrder(bad)
    with pytest.raises(ValueError):
        MatrixCachedOrder(bad)


def test_matrix_cached_handles():
    order = MatrixCachedOrder(subtotal_weight_matrix(3))
    a = order.attach((2, 0, 1))
    assert order.matvec_products == 1
    # re-attaching the same exponent tuple hits the memo
    a2 = order.attach((2, 0, 1))
    assert a2 is a
    assert order.matvec_products == 1
    b = order.attach((1, 1, 1))
    assert order.matvec_products == 2
    assert order.weights(a) == subtotal_weight_matrix(3).weight_vector((2, 0, 1))
    # multiply and divide update weights without new matrix products
    ab = order.mul(a, b)
    assert order.exps(ab) == (3, 1, 2)
    assert order.weights(ab) == subtotal_weight_matrix(3).weight_vector((3, 1, 2))
    q = order.div(ab, b)
    assert order.exps(q) == (2, 0, 1)
    assert order.weights(q) == order.weights(a)
    assert order.div(a, b) is None
    assert order.matvec_products == 2


def test_matrix_cached_lcm_reuses_divisible_operand():
    order = MatrixCachedOrder(degrevlex_weight_matrix(2))
    a = order.attach((2, 1))
    b = order.attach((1, 1))
    assert order.lcm(a, b) is a
    assert order.lcm(b, a) is a
    c = order.attach((0, 3))
    m = order.lcm(a, c)
    assert order.exps(m) == (2, 3)
    assert order.weights(m) == degrevlex_weight_matrix(2).weight_vector((2, 3))


def test_matrix_orders_agree_with_natives_random():
    rng = random.Random(5)
    for n in (2, 4, 6):
        direct = MatrixDirectOrder(degrevlex_weight_matrix(n))
        cached = MatrixCachedOrder(subtotal_weight_matrix(n))
        for a, b in _random_pairs(rng, n, 200, 30):
            want = cmp_degrevlex(a, b)
            assert direct.cmp(direct.attach(a), direct.attach(b)) == want
            assert cached.cmp(cached.attach(a), cached.attach(b)) == want
