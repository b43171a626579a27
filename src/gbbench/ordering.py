"""Monomial-order comparators and weight-matrix machinery.

Exponent vectors are tuples of nonnegative ints, most main variable first
(position 0). Comparators return one of LESS (-1), EQUAL (0), GREATER (+1).

Two families of total-degree orders are implemented side by side:

* degRevLex: compare total degree; on a tie, scan exponents from the least
  main variable down, and the first vector to show a *larger* exponent there
  is the *smaller* monomial.

* subtotal: form the running prefix sums A_k = a_1 + ... + a_k and compare
  the sequences (A_n, ..., A_1) lexicographically. A_n is the total degree,
  so degree still dominates, and the remaining scan breaks ties exactly as
  degRevLex does: the two comparators realize the same total order while
  subtotal needs no separate tie-break pass. orders_equivalent_certificate
  applied to the two weight matrices proves the equivalence exactly.

An order's comparator is the cmp of its strategy class below, the one body
the engine runs. cmp_degrevlex is a free copy of the degRevLex rule, kept as
the independent reference every order is checked against.

Each family also has a weight-matrix presentation: w(a) = W @ a compared
lexicographically. subtotal_weight_matrix and degrevlex_weight_matrix build
the canonical matrices; orders_equivalent_certificate proves two matrices
induce the same order by exhibiting L = W2 @ W1^-1 lower triangular with a
positive diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice, product
from math import lcm
from operator import add as _add, mul as _mul, sub as _sub

LESS = -1
EQUAL = 0
GREATER = 1


def _check_pair(a, b) -> None:
    if len(a) != len(b):
        raise ValueError(f"exponent vectors differ in length: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("exponent vectors must have at least one entry")


def cmp_degrevlex(a, b) -> int:
    """Degree-reverse-lexicographic comparison of two exponent vectors."""
    _check_pair(a, b)
    da = sum(a)
    db = sum(b)
    if da != db:
        return GREATER if da > db else LESS
    for k in range(len(a) - 1, -1, -1):
        ak = a[k]
        bk = b[k]
        if ak != bk:
            # reversed sense: larger exponent in a less main variable loses
            return LESS if ak > bk else GREATER
    return EQUAL


def cmp_lex(a, b) -> int:
    """Plain lexicographic comparison, most main variable first."""
    _check_pair(a, b)
    for x, y in zip(a, b):
        if x != y:
            return GREATER if x > y else LESS
    return EQUAL


class WeightMatrix:
    """Square matrix of exact rationals defining a term order.

    Monomial a precedes b when W @ a precedes W @ b lexicographically. An
    integral entry is stored as an int and any other as a Fraction, so integer
    matrices keep weight vectors and comparisons in int arithmetic. Fraction(k)
    == k and the two hash alike, so ==, hash and the text forms do not depend
    on the type.
    """

    __slots__ = ("rows", "n")

    def __init__(self, rows):
        rows = tuple(tuple(Fraction(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0:
            raise ValueError("weight matrix must have at least one row")
        for row in rows:
            if len(row) != n:
                raise ValueError(f"weight matrix must be square: {n} rows, row of length {len(row)}")
        self.rows = tuple(tuple(int(x) if x.denominator == 1 else x for x in row) for row in rows)
        self.n = n

    def weight_vector(self, a) -> tuple:
        if len(a) != self.n:
            raise ValueError(f"exponent vector of length {len(a)} against {self.n}x{self.n} matrix")
        return tuple([sum(map(_mul, row, a)) for row in self.rows])

    def __matmul__(self, other) -> "WeightMatrix":
        if not isinstance(other, WeightMatrix):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")
        cols = list(zip(*other.rows))
        return WeightMatrix(
            tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in self.rows)
        )

    def _adjugate(self):
        """The elimination behind inverse: (D, det, adj), or None if singular."""
        n = self.n
        D = [lcm(*(x.denominator for x in row)) for row in self.rows]
        M = [[x.numerator * (d // x.denominator) for x in row] + [int(i == j) for j in range(n)]
             for i, (row, d) in enumerate(zip(self.rows, D))]
        prev = 1
        for k in range(n):
            # step k reads column k and no earlier one, so each row starts there
            piv = next((r for r in range(k, n) if M[r][0]), None)
            if piv is None:
                return None
            M[k], M[piv] = M[piv], M[k]
            pk, *tail = M[k]
            for i, mi in enumerate(M):
                f = mi[0]
                # f == 0 and pk == ±prev make each entry ±x (family matrices' pivots alternate ±1)
                M[i] = (tail if i == k else mi[1:] if not f and pk == prev else
                        [-x for x in islice(mi, 1, None)] if not f and pk == -prev else
                        [(x * pk - f * y) // prev for x, y in zip(islice(mi, 1, None), tail)])
            prev = pk
        return D, prev, M

    def inverse(self) -> "WeightMatrix":
        """Exact inverse by fraction-free Gauss-Jordan elimination (Bareiss,
        Math. Comp. 22, 1968) on [DW | I] in integers, D scaling each row of W
        by the lcm of its denominators; ValueError if singular.

        Step k sets every row but the pivot row to (pivot * x - f * y) // prev,
        prev the pivot of step k - 1. By Sylvester's identity each new entry is,
        up to sign, a minor of order k + 1 of the row-permuted [DW | I] and the
        numerator is prev times it, so every division is exact. The last step
        leaves [det * I | adj], det the last pivot and adj = det * (DW)^-1, so
        W^-1 = adj * D / det.
        """
        got = self._adjugate()
        if got is None:
            raise ValueError("singular weight matrix")
        D, det, adj = got
        return WeightMatrix(tuple(tuple(Fraction(x * d, det) for x, d in zip(row, D)) for row in adj))

    def to_text(self) -> str:
        lines = [str(self.n)]
        for row in self.rows:
            lines.append(" ".join(str(x) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "WeightMatrix":
        """Parse the text form: first line n, then n lines of n rationals.

        Blank lines and lines starting with '#' are ignored.
        """
        lines = [
            (i + 1, line.strip())
            for i, line in enumerate(text.splitlines())
            if line.strip() and not line.strip().startswith("#")
        ]
        if not lines:
            raise ValueError("empty weight-matrix text")
        lineno, head = lines[0]
        try:
            n = int(head)
        except ValueError:
            raise ValueError(f"line {lineno}: expected the matrix size, got {head!r}") from None
        if n < 1:
            raise ValueError(f"line {lineno}: matrix size must be positive, got {n}")
        if len(lines) - 1 != n:
            raise ValueError(f"expected {n} matrix rows, found {len(lines) - 1}")
        rows = []
        for lineno, line in lines[1:]:
            toks = line.split()
            if len(toks) != n:
                raise ValueError(f"line {lineno}: expected {n} entries, found {len(toks)}")
            row = []
            for tok in toks:
                try:
                    row.append(Fraction(tok))
                except (ValueError, ZeroDivisionError):
                    raise ValueError(f"line {lineno}: bad rational {tok!r}") from None
            rows.append(tuple(row))
        return cls(tuple(rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, WeightMatrix) and other.rows == self.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"WeightMatrix({[[str(x) for x in row] for row in self.rows]})"


def subtotal_weight_matrix(n: int) -> WeightMatrix:
    """Upper-left triangle of ones: row i sums the first n-i+1 exponents.

    The weight vector is exactly (A_n, A_n-1, ..., A_1), the subtotal
    sequence read from the total degree down.
    """
    if n < 1:
        raise ValueError(f"need at least one variable, got {n}")
    return WeightMatrix(tuple(tuple(1 if i + j < n else 0 for j in range(n)) for i in range(n)))


def degrevlex_weight_matrix(n: int) -> WeightMatrix:
    """Row 1 all ones (total degree); row i >= 2 has a single -1 in column n+2-i."""
    if n < 1:
        raise ValueError(f"need at least one variable, got {n}")
    rows = [tuple(1 for _ in range(n))]
    for i in range(2, n + 1):
        rows.append(tuple(-1 if j == n + 2 - i else 0 for j in range(1, n + 1)))
    return WeightMatrix(tuple(rows))


def identity_weight_matrix(n: int) -> WeightMatrix:
    """Identity matrix: induces plain lex, most main variable first."""
    if n < 1:
        raise ValueError(f"need at least one variable, got {n}")
    return WeightMatrix(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))


def is_admissible(w: WeightMatrix) -> bool:
    """Admissible = a genuine term order on monomials.

    Requires (a) the topmost nonzero entry of every column to be positive, so
    1 is the least monomial and multiplication is order-preserving, and
    (b) nonsingularity, so distinct monomials never compare equal; the
    elimination behind WeightMatrix.inverse decides it.
    """
    for j in range(w.n):
        top = next((w.rows[i][j] for i in range(w.n) if w.rows[i][j] != 0), None)
        if top is None or top < 0:
            return False
    return w._adjugate() is not None


def orders_equivalent_certificate(w1: WeightMatrix, w2: WeightMatrix):
    """Certificate that w1 and w2 induce the same order, or None.

    Returns L = w2 @ w1^-1 when L is lower triangular with strictly positive
    diagonal; left-multiplying the weight vector by such an L never changes
    which row decides a lexicographic comparison, so the orders agree on every
    pair of exponent vectors. Raises ValueError when w1 is singular or the
    sizes differ.
    """
    if w1.n != w2.n:
        raise ValueError(f"size mismatch: {w1.n} vs {w2.n}")
    L = w2 @ w1.inverse()
    n = L.n
    for i in range(n):
        if L.rows[i][i] <= 0:
            return None
        for j in range(i + 1, n):
            if L.rows[i][j] != 0:
                return None
    return L


# Largest (D + 1)^(2n) pair space the oracle accepts. The bound fixes which
# requests are refused; the oracle itself compares at most 39,062 difference
# vectors under it (n = 7, D = 2).
ORACLE_MAX_PAIRS = 10**7


def _matrix_sign(w: WeightMatrix, d) -> int:
    """Sign of the first nonzero entry of W @ d: how the matrix order of w
    ranks a against b when d = a - b. Any square matrix, singular or
    inadmissible, has one."""
    for row in w.rows:
        s = sum(map(_mul, row, d))
        if s:
            return GREATER if s > 0 else LESS
    return EQUAL


def orders_equivalent_oracle(w1: WeightMatrix, w2: WeightMatrix, max_degree: int):
    """Brute-force check of order agreement on all pairs of exponent vectors
    with entries <= max_degree. Returns None on agreement, else the first
    disagreeing pair (a, b) of a `for a: for b:` scan of the box. Raises
    ValueError, before any comparison, when the (max_degree + 1)^(2n) pairs
    exceed ORACLE_MAX_PAIRS.

    A matrix order decides a vs b from W(a - b) alone, so only the
    ((2D + 1)^n - 1) / 2 differences d in [-D, D]^n with a positive first
    nonzero entry are compared, by the sign of W1 d against that of W2 d;
    -d gets the opposite verdicts. With d+ and d- the positive and negative
    parts of d, the earliest pair with difference d or -d is (d-, d+), so
    the first disagreeing pair is the least such (d-, d+)."""
    if w1.n != w2.n:
        raise ValueError(f"size mismatch: {w1.n} vs {w2.n}")
    n = w1.n
    if max_degree < 0:
        raise ValueError(f"oracle degree must be nonnegative, got {max_degree}")
    pairs = (max_degree + 1) ** (2 * n)
    if pairs > ORACLE_MAX_PAIRS:
        raise ValueError(f"oracle would compare {pairs} pairs (n={n}, degree {max_degree}); "
                         f"the bound is {ORACLE_MAX_PAIRS}")
    zero = (0,) * n
    witness = None
    for d in product(range(-max_degree, max_degree + 1), repeat=n):
        if d <= zero:  # first nonzero entry not positive: -d covers it
            continue
        if _matrix_sign(w1, d) != _matrix_sign(w2, d):
            pos = tuple(x if x > 0 else 0 for x in d)
            neg = tuple(-x if x < 0 else 0 for x in d)
            if witness is None or (neg, pos) < witness:
                witness = (neg, pos)
    return witness


# --------------------------------------------------------------------------
# Engine-facing order strategies.
#
# The Groebner engine is generic over a MonomialOrder object that owns the
# in-memory representation of monomials. A *handle* is whatever the strategy
# stores for one power product; native strategies use the bare exponent
# tuple. The cached-matrix strategy puts the weight vector W @ e in front
# of it. W is linear, so a product's weights are the sum of its factors'
# and a product of handles is their entrywise sum, as for exponent tuples.
# W is nonsingular, so distinct monomials have distinct weights: the
# weight half decides every comparison and the whole handle compares as one
# tuple.
# Equal monomials must get equal, hashable handles: the reducer keys its
# remainder by handle, so only ordering decisions go through cmp.
# Every strategy carries its weight matrix: the natives their family's, the
# matrix strategies the one they are built from.

class MonomialOrder:
    """Base strategy: the order is `matrix`; handles are exponent tuples;
    cmp is abstract."""

    def __init__(self, matrix: WeightMatrix, label: str | None = None):
        self.n = matrix.n
        self.matrix = matrix
        self.label = label or type(self).__name__
        self.comparisons = 0
        self.matvec_products = 0
        # the handle positions that hold exponents, which div checks
        self._exp_slots = range(self.n)

    # handle protocol -----------------------------------------------------
    def attach(self, exps):
        return tuple(exps)

    def exps(self, h):
        return h

    def mul(self, a, b):
        return tuple(map(_add, a, b))

    def div(self, a, b):
        # exponents first: a failed divisor probe builds no tuple
        for k in self._exp_slots:
            if a[k] < b[k]:
                return None
        return tuple(map(_sub, a, b))

    def lcm(self, a, b):
        return tuple(map(max, a, b))

    def cmp(self, a, b) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.label} n={self.n}>"


class DegRevLexOrder(MonomialOrder):
    """Native degRevLex comparator on exponent tuples."""

    def __init__(self, n: int, label: str | None = None):
        super().__init__(degrevlex_weight_matrix(n), label)

    def cmp(self, a, b) -> int:
        self.comparisons += 1
        da = sum(a)
        db = sum(b)
        if da != db:
            return GREATER if da > db else LESS
        for k in range(len(a) - 1, -1, -1):
            ak = a[k]
            bk = b[k]
            if ak != bk:
                return LESS if ak > bk else GREATER
        return EQUAL


class SubtotalOrder(MonomialOrder):
    """Native subtotal comparator on exponent tuples."""

    def __init__(self, n: int, label: str | None = None):
        super().__init__(subtotal_weight_matrix(n), label)

    def cmp(self, a, b) -> int:
        self.comparisons += 1
        # A_n is the total degree; step down with A_(k-1) = A_k - a_k
        A = sum(a)
        B = sum(b)
        k = len(a) - 1
        while A == B:
            if k == 0:
                return EQUAL
            A -= a[k]
            B -= b[k]
            k -= 1
        return GREATER if A > B else LESS


class MatrixOrder(MonomialOrder):
    """Base of the weight-matrix strategies, built from an admissible matrix."""

    def __init__(self, matrix: WeightMatrix, label: str | None = None):
        super().__init__(matrix, label)
        if not is_admissible(matrix):
            raise ValueError("order strategies require an admissible weight matrix")


class MatrixDirectOrder(MatrixOrder):
    """Matrix order, method 1: per comparison, interleave rows of W(a-b) with
    the sign test. No per-monomial state beyond the exponent tuple."""

    def __init__(self, matrix: WeightMatrix, label: str | None = None):
        super().__init__(matrix, label)
        self._nz_rows = tuple(tuple((j, wj) for j, wj in enumerate(row) if wj) for row in matrix.rows)

    def cmp(self, a, b) -> int:
        self.comparisons += 1
        for row in self._nz_rows:
            s = 0
            for j, wj in row:
                s += wj * (a[j] - b[j])
            if s:
                return GREATER if s > 0 else LESS
        return EQUAL


class MatrixCachedOrder(MatrixOrder):
    """Matrix order, method 2: each monomial handle carries its weight vector.

    A handle is one flat tuple, W @ e followed by e. The full matrix-vector
    product runs once per distinct monomial entering the cache (inputs and
    critical-pair lcms); products and quotients add and subtract whole
    handles. matvec_products counts the materializations.
    """

    def __init__(self, matrix: WeightMatrix, label: str | None = None):
        super().__init__(matrix, label)
        self._memo: dict = {}
        self._exp_slots = range(self.n, 2 * self.n)

    def attach(self, exps):
        exps = tuple(exps)
        h = self._memo.get(exps)
        if h is None:
            self.matvec_products += 1
            h = self.matrix.weight_vector(exps) + exps
            self._memo[exps] = h
        return h

    def exps(self, h):
        return h[self.n:]

    def weights(self, h):
        return h[:self.n]

    def lcm(self, a, b):
        n = self.n
        ea = a[n:]
        eb = b[n:]
        m = tuple(map(max, ea, eb))
        if m == ea:
            return a
        if m == eb:
            return b
        return self.attach(m)

    def cmp(self, a, b) -> int:
        self.comparisons += 1
        if a > b:
            return GREATER
        if a < b:
            return LESS
        return EQUAL

    def cache_size(self) -> int:
        return len(self._memo)
