import itertools
import random
import re
from fractions import Fraction

import pytest

from gbbench.bench import ORDER_LABELS, order_factory
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
    cmp_degrevlex,
    cmp_lex,
    degrevlex_weight_matrix,
    identity_weight_matrix,
    is_admissible,
    orders_equivalent_certificate,
    orders_equivalent_oracle,
    subtotal_weight_matrix,
)


# ---------------------------------------------------------------- comparators

def _matrix_cmp(w, a, b):
    """The order of w by definition: weight vectors compared as tuples."""
    wa = w.weight_vector(a)
    wb = w.weight_vector(b)
    return (wa > wb) - (wa < wb)


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
    cmp = SubtotalOrder(3).cmp
    assert cmp((1, 0, 0), (0, 0, 1)) == GREATER
    assert cmp((0, 0, 2), (1, 0, 0)) == GREATER
    assert cmp((1, 1, 0), (0, 2, 0)) == GREATER
    assert cmp((1, 0, 1), (0, 2, 0)) == LESS
    assert cmp((3, 1, 4), (3, 1, 4)) == EQUAL


def test_lex_hand_cases():
    assert cmp_lex((1, 0, 0), (0, 5, 5)) == GREATER
    assert cmp_lex((1, 2, 0), (1, 1, 9)) == GREATER
    assert cmp_lex((0, 1), (0, 1)) == EQUAL


def test_comparators_reject_length_mismatch():
    with pytest.raises(ValueError):
        cmp_degrevlex((1, 0), (1, 0, 0))


def test_subtotal_equals_degrevlex_exhaustive_small():
    # both comparators realize the same order; spot it exhaustively on a
    # small grid (the acceptance suite runs the full-size version)
    for n in (1, 2, 3):
        cmp = SubtotalOrder(n).cmp
        grid = list(itertools.product(range(3), repeat=n))
        for a in grid:
            for b in grid:
                assert cmp(a, b) == cmp_degrevlex(a, b)


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


def _weight_vector_generator_form(w, a):
    # the earlier body: a generator per row that skips zero weights
    return tuple(sum(x * y for x, y in zip(row, a) if x) for row in w.rows)


def test_weight_vector_equals_generator_form():
    rng = random.Random(5)
    half = WeightMatrix([(1, 1, 1, 1), (Fraction(1, 2), 0, Fraction(-3, 4), 0),
                         (0, 1, 0, 0), (0, 0, Fraction(2, 3), 1)])
    # an integral entry is stored as an int, any other as a Fraction
    assert [type(x) for x in half.rows[1]] == [Fraction, int, Fraction, int]
    zeros = WeightMatrix([(1, 0, 2, 0), (0, 0, 0, 3), (0, 1, 0, 0), (0, 0, -1, 0)])
    assert {type(x) for row in zeros.rows for x in row} == {int}
    matrices = [half, zeros]
    for n in (1, 2, 5, 9):
        matrices += [subtotal_weight_matrix(n), degrevlex_weight_matrix(n)]
    for w in matrices:
        for _ in range(200):
            a = tuple(rng.choice((0, 0, 1, 2, 7, 40)) for _ in range(w.n))
            got = w.weight_vector(a)
            assert got == _weight_vector_generator_form(w, a), (w, a)
            assert type(got) is tuple and len(got) == w.n
        with pytest.raises(ValueError):
            w.weight_vector((0,) * (w.n + 1))


def test_matrix_matmul_and_inverse():
    w = subtotal_weight_matrix(4)
    ident = identity_weight_matrix(4)
    assert w @ ident == w
    inv = w.inverse()
    assert inv @ w == ident
    assert w @ inv == ident
    # an int pivot still divides exactly
    half = WeightMatrix([(2, 0), (1, 1)]).inverse()
    assert half.rows == ((Fraction(1, 2), 0), (Fraction(-1, 2), 1))
    assert [type(x) for row in half.rows for x in row] == [Fraction, int, Fraction, int]


def test_singular_matrix_detected():
    m = WeightMatrix([(1, 1), (1, 1)])
    with pytest.raises(ValueError, match="singular weight matrix"):
        m.inverse()
    assert not is_admissible(m)
    assert is_admissible(subtotal_weight_matrix(5))


def _leibniz_det(rows):
    """Determinant as the signed sum over all permutations, in Fractions."""
    n = len(rows)
    total = Fraction(0)
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        term = Fraction(-1) if inversions % 2 else Fraction(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def test_inverse_agrees_with_leibniz_determinant():
    # inverse() raises exactly when the Leibniz determinant is 0 and
    # otherwise inverts on both sides
    f = Fraction
    cases = [
        [(0, 1), (1, 0)],                                # zero leading pivot, det -1
        [(0, 2, 1), (1, 0, 0), (0, 0, 3)],               # zero leading pivot, det -6
        [(0, 0, 1), (0, 1, 0), (1, 0, 0)],               # anti-identity, det -1
        [(1, 2, 3), (2, 4, 6), (0, 1, 1)],               # swap at column 2, then singular
        [(0, 5), (0, 1)],                                # no pivot in column 1
        [(f(1, 2), f(1, 3)), (f(-2, 5), 1)],             # fractional rows, det 19/30
        [(f(1, 3), f(2, 3)), (f(1, 2), 1)],              # fractional rows, singular
        [(0, f(1, 7), 0), (f(3, 2), 1, 0), (1, 1, f(-1, 4))],  # fractional, swap
    ]
    rng = random.Random(11)
    for _ in range(500):
        n = rng.randint(1, 5)
        den = rng.choice(((1,), (1, 1, 2, 3, 7)))
        rows = [[f(rng.randint(-3, 3), rng.choice(den)) for _ in range(n)] for _ in range(n)]
        if n > 2 and rng.random() < 0.4:
            # make row i a rational combination of rows j and k
            i, j, k = rng.sample(range(n), 3)
            c = f(rng.randint(-4, 4), rng.randint(1, 5))
            rows[i] = [x + c * y for x, y in zip(rows[j], rows[k])]
        cases.append(rows)
    signs = set()
    for rows in cases:
        w = WeightMatrix(rows)
        det = _leibniz_det(w.rows)
        if det == 0:
            with pytest.raises(ValueError, match="singular weight matrix"):
                w.inverse()
        else:
            ident = identity_weight_matrix(w.n)
            inv = w.inverse()
            assert w @ inv == ident and inv @ w == ident, rows
        signs.add((det > 0) - (det < 0))
    assert signs == {-1, 0, 1}


def test_matrix_text_round_trip():
    w = degrevlex_weight_matrix(5)
    again = WeightMatrix.from_text(w.to_text())
    assert again == w
    # equality, hash and text forms do not depend on how an entry was given
    given = [((2, Fraction(1, 2)), (0, 1)), ((Fraction(4, 2), 0.5), (Fraction(0), Fraction(1)))]
    a, b = (WeightMatrix(rows) for rows in given)
    assert a == b and hash(a) == hash(b)
    assert a.to_text() == b.to_text() == "2\n2 1/2\n0 1\n"
    assert repr(a) == repr(b) == "WeightMatrix([['2', '1/2'], ['0', '1']])"


def test_matrix_from_text_comments_and_fractions():
    text = """
    # leading comment
    2
    1 1/2

    0 1
    """
    m = WeightMatrix.from_text(text)
    assert m.rows == ((1, Fraction(1, 2)), (0, 1))
    assert WeightMatrix.from_text("1\n-0.25\n").rows == ((Fraction(-1, 4),),)


def test_matrix_from_text_errors():
    with pytest.raises(ValueError):
        WeightMatrix.from_text("2\n1 2\n3\n")
    with pytest.raises(ValueError):
        WeightMatrix.from_text("")
    with pytest.raises(ValueError):
        WeightMatrix.from_text("x\n1\n")
    # exponent notation: Fraction would read each, the first by building 10**999999999
    for tok in ("1e999999999", "2E3", "1.5e-2", "-3e+0"):
        with pytest.raises(ValueError, match=re.escape(f"line 3: bad rational '{tok}'")):
            WeightMatrix.from_text(f"2\n1 0\n0 {tok}\n")


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
    # L = diag(1, -1) is lower triangular, so only its diagonal rejects it
    flipped = WeightMatrix([(1, 1), (0, 1)])
    assert flipped @ degrevlex_weight_matrix(2).inverse() == WeightMatrix([(1, 0), (0, -1)])
    assert orders_equivalent_certificate(degrevlex_weight_matrix(2), flipped) is None


def test_oracle_agrees_with_certificate():
    wg = degrevlex_weight_matrix(3)
    ws = subtotal_weight_matrix(3)
    assert orders_equivalent_oracle(wg, ws, 4) is None
    witness = orders_equivalent_oracle(identity_weight_matrix(2),
                                       degrevlex_weight_matrix(2), 4)
    assert witness == ((0, 2), (1, 0))
    a, b = witness
    # the witness pair really is ordered differently by the two matrices
    assert _matrix_cmp(identity_weight_matrix(2), a, b) != _matrix_cmp(
        degrevlex_weight_matrix(2), a, b)


def _pairs_oracle(w1, w2, max_degree):
    """Reference oracle: every pair of exponent vectors in the box, in order."""
    space = list(itertools.product(range(max_degree + 1), repeat=w1.n))
    for a in space:
        for b in space:
            if _matrix_cmp(w1, a, b) != _matrix_cmp(w2, a, b):
                return (a, b)
    return None


def _perturbed(rng, w, entries):
    """w with `entries` random positions set to random values in -1..2."""
    rows = [list(row) for row in w.rows]
    for _ in range(entries):
        rows[rng.randrange(w.n)][rng.randrange(w.n)] = rng.randint(-1, 2)
    return WeightMatrix(rows)


def test_oracle_matches_pair_enumeration():
    rng = random.Random(1109)
    families = (degrevlex_weight_matrix, subtotal_weight_matrix, identity_weight_matrix)
    verdicts = []
    for _ in range(320):
        n, degree = rng.randint(1, 4), rng.randint(0, 3)
        w1 = _perturbed(rng, rng.choice(families)(n), rng.randint(0, 1))
        w2 = _perturbed(rng, rng.choice(families)(n), rng.randint(0, 2))
        want = _pairs_oracle(w1, w2, degree)
        assert orders_equivalent_oracle(w1, w2, degree) == want, (w1, w2, degree)
        verdicts.append(want)
    disagree = sum(v is not None for v in verdicts)
    assert len(verdicts) // 3 <= disagree <= len(verdicts) - len(verdicts) // 4


def test_lower_triangular_transform_keeps_the_order():
    rng = random.Random(1111)
    for _ in range(60):
        n = rng.randint(1, 5)
        while True:
            w = WeightMatrix([[rng.randint(-1, 2) for _ in range(n)] for _ in range(n)])
            if is_admissible(w):
                break
        L = WeightMatrix([[rng.randint(1, 3) if i == j else rng.randint(-2, 2) if j < i else 0
                           for j in range(n)] for i in range(n)])
        assert orders_equivalent_certificate(w, L @ w) == L
        degree = {1: 20, 2: 6, 3: 3, 4: 2, 5: 1}[n]
        assert orders_equivalent_oracle(w, L @ w, degree) is None


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


@pytest.mark.parametrize("label", ORDER_LABELS)
def test_handle_protocol_native(label):
    # every roster order's handles act on the exponents entrywise, equal
    # monomials get equal handles however they were derived, and cmp is the
    # order of order.matrix
    order = order_factory(label)(3)
    a = order.attach((2, 1, 0))
    b = order.attach((1, 1, 2))
    assert order.exps(a) == (2, 1, 0)
    assert order.exps(order.mul(a, b)) == (3, 2, 2)
    assert order.div(a, b) is None
    assert order.exps(order.div(order.mul(a, b), b)) == (2, 1, 0)
    assert order.exps(order.lcm(a, b)) == (2, 1, 2)
    cached = isinstance(order, MatrixCachedOrder)
    rng = random.Random(23)
    for ea, eb in _random_pairs(rng, 3, 300, 4):
        ha = order.attach(ea)
        hb = order.attach(eb)
        assert order.exps(ha) == ea
        ab = order.mul(ha, hb)
        assert order.exps(ab) == tuple(x + y for x, y in zip(ea, eb))
        assert order.div(ab, hb) == ha
        derived = [ha, hb, ab]
        q = order.div(ha, hb)
        if all(x >= y for x, y in zip(ea, eb)):
            assert order.exps(q) == tuple(x - y for x, y in zip(ea, eb))
            derived.append(q)
        else:
            assert q is None
        m = order.lcm(ha, hb)
        em = tuple(map(max, ea, eb))
        assert order.exps(m) == em
        derived.append(m)
        for e, h in ((ea, ha), (eb, hb)):
            if em == e:
                assert m == h
        # an operand that is the lcm comes back itself, even one the memo
        # has never seen, so the cached order makes no matrix product for it
        products = order.matvec_products
        assert order.lcm(ab, ha) == ab
        back = order.lcm(hb, ab)
        assert back == ab
        assert back is ab or back is hb or not cached
        assert order.matvec_products == products
        assert order.cmp(ha, hb) == _matrix_cmp(order.matrix, ea, eb)
        if cached:
            for h in derived:
                assert order.weights(h) == order.matrix.weight_vector(order.exps(h))


def test_matrix_direct_order():
    order = MatrixDirectOrder(subtotal_weight_matrix(3))
    a = order.attach((1, 2, 0))
    b = order.attach((0, 2, 1))
    assert order.cmp(a, b) == cmp_degrevlex((1, 2, 0), (0, 2, 1))
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
