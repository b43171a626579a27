"""Sparse multivariate polynomials over Z_p with order-sorted term storage.

A polynomial lives in a PolyContext (variable count, prime field, order
strategy) and stores a tuple of (handle, coeff) pairs, strictly descending
under the context order, coefficients canonical in (0, p). The handle
representation belongs to the order strategy, so the same polynomial code
serves native comparators and matrix orders with cached weight vectors.
"""

from __future__ import annotations

from bisect import insort
from functools import cmp_to_key
from itertools import compress, islice
from time import perf_counter

from .modfield import PrimeField
from .ordering import MonomialOrder


class TimeLimitExceeded(Exception):
    """A reduction or basis computation ran past its deadline."""


class PolyContext:
    """Shared environment for a family of polynomials.

    Handles are private to the order instance, so polynomials only combine
    with polynomials from the same context object.
    """

    __slots__ = ("nvars", "field", "order")

    def __init__(self, field: PrimeField, order: MonomialOrder):
        self.nvars = order.n
        self.field = field
        self.order = order

    def polynomial(self, pairs) -> "Polynomial":
        """Build from (exps, coeff) pairs in any order; the coefficients of a
        repeated monomial add up by handle, so only distinct ones are sorted."""
        order = self.order
        p = self.field.p
        acc: dict = {}
        for exps, coeff in pairs:
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError(f"exponent vector {exps} has {len(exps)} entries, context has {self.nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            h = order.attach(exps)
            acc[h] = (acc.get(h, 0) + coeff) % p
        hs = sorted(acc, key=cmp_to_key(order.cmp), reverse=True)
        return Polynomial(self, tuple((h, acc[h]) for h in hs if acc[h]))

    def __repr__(self) -> str:
        return f"PolyContext(nvars={self.nvars}, p={self.field.p}, order={self.order.label})"


def _merge(ctx: PolyContext, A, B) -> list:
    """Merge two descending term sequences as A - B; s_polynomial's
    cancelling merge of its two cofactor tails."""
    cmp = ctx.order.cmp
    p = ctx.field.p
    out = []
    ia = ib = 0
    la = len(A)
    lb = len(B)
    while ia < la and ib < lb:
        ha, ca = A[ia]
        hb, cb = B[ib]
        c = cmp(ha, hb)
        if c > 0:
            out.append(A[ia])
            ia += 1
        elif c < 0:
            out.append((hb, p - cb))
            ib += 1
        else:
            s = (ca - cb) % p
            if s:
                out.append((ha, s))
            ia += 1
            ib += 1
    out += A[ia:]
    out += [(hb, p - cb) for hb, cb in B[ib:]]
    return out


def format_terms(terms, names) -> str:
    """Text of a sum of (coeff, exps) terms in the given order: the first
    term's sign attached, later ones as ' + ' or ' - ', a coefficient 1 left
    out before a monomial, '^' only for exponents above 1."""
    parts = []
    for idx, (coeff, exps) in enumerate(terms):
        mag = -coeff if coeff < 0 else coeff
        factors = []
        for nm, e in zip(names, exps):
            if e == 1:
                factors.append(nm)
            elif e != 0:
                factors.append(f"{nm}^{e}")
        body = "*".join(factors)
        if not body:
            piece = str(mag)
        elif mag == 1:
            piece = body
        else:
            piece = f"{mag}*{body}"
        if idx == 0:
            parts.append(f"-{piece}" if coeff < 0 else piece)
        else:
            parts.append(f"- {piece}" if coeff < 0 else f"+ {piece}")
    return " ".join(parts)


class Polynomial:
    """Immutable sparse polynomial; construct through PolyContext.polynomial."""

    __slots__ = ("context", "terms")

    def __init__(self, context: PolyContext, terms: tuple):
        self.context = context
        self.terms = terms

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __len__(self) -> int:
        return len(self.terms)

    def leading_monomial(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return self.terms[0][0]

    def as_tuples(self) -> tuple:
        """Order-independent view: ((exps, coeff), ...) in storage order."""
        exps = self.context.order.exps
        return tuple((exps(h), c) for h, c in self.terms)

    def monic(self) -> "Polynomial":
        if not self.terms or self.terms[0][1] == 1:
            return self
        field = self.context.field
        p = field.p
        c = field.inv(self.terms[0][1])
        return Polynomial(self.context, tuple((h, ct * c % p) for h, ct in self.terms))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.context is other.context and self.as_tuples() == other.as_tuples()

    def __hash__(self) -> int:
        return hash((id(self.context), self.as_tuples()))

    def format(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.context.nvars)]
        return format_terms([(c, e) for e, c in self.as_tuples()], names)

    def __repr__(self) -> str:
        return f"Polynomial({self.format()} mod {self.context.field.p})"


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = L/lt(f) * f - L/lt(g) * g with L = lcm(lm(f), lm(g)).

    f and g are made monic first (a monic input is used as it is), so the
    leading terms of the two multiples cancel exactly and only the tails are
    multiplied and merged, coefficients unchanged; multiplying a descending
    tail by one monomial keeps it descending.
    """
    if f.context is not g.context:
        raise ValueError("polynomials from different contexts")
    if f.is_zero or g.is_zero:
        raise ValueError("s_polynomial needs nonzero polynomials")
    f, g = f.monic(), g.monic()
    ctx = f.context
    order = ctx.order
    mul = order.mul
    hf = f.terms[0][0]
    hg = g.terms[0][0]
    L = order.lcm(hf, hg)
    qf = order.div(L, hf)
    qg = order.div(L, hg)
    A = [(mul(h, qf), c) for h, c in islice(f.terms, 1, None)]
    B = [(mul(h, qg), c) for h, c in islice(g.terms, 1, None)]
    return Polynomial(ctx, tuple(_merge(ctx, A, B)))


_DEADLINE_STRIDE = 4096


class Reducers:
    """Divisor table for reduce: the reducers in probe order, each set up once.

    An entry is (leading handle, mask, terms of the reducer made monic). The
    mask has bit i set when variable i occurs in the leading monomial, so a
    reducer whose mask has a bit that a term's mask lacks cannot divide that
    term and reduce skips its div (Singular's short exponent vectors,
    Bachmann and Schoenemann, ISSAC 1998, at one bit per variable). A monic
    reducer is stored as it is; callers that keep a table across reduce
    calls pay for any scaling and the context checks once per reducer, not
    once per call.

    The memo maps each head reduce has searched to (stamp, entry, q,
    products): the first entry in probe order whose lead divides the head
    and the quotient, or (stamp, None, None, None) if no lead divides it.
    It answers exactly what a probe in order would, so the reducer
    preference holds and no pick, step or comparison depends on the heads
    earlier calls met; no cmp goes through it. The stamp is the length of
    `inserted`, the entries in insertion order, when the answer was last
    checked. An insert never reorders the entries already in the table, so
    an answer stays right as long as no lead inserted after its stamp
    divides the head, and reduce tests only those (a mask test, then a div)
    before it uses the answer. If one does, the entries are probed again;
    a probe that finds the old divisor (the new lead sits behind it) keeps
    the old answer.

    products is the answer's reducer multiple, mul(q, h) over the monic
    tail in tail order: None after the head's first step, kept by its
    second, so a step that repeats a multiple costs no mul (F4 builds each
    reducer multiple once per degree step; Faugere, JPAA 1999). A multiple
    used once keeps nothing: most multiples of a sparse system are. A kept
    product enters the remainder by cmp exactly as a freshly built one. The
    table lives as long as its owner: one buchberger or reduce_basis call,
    or one reduce call on an iterable.
    """

    __slots__ = ("context", "bits", "entries", "inserted", "memo")

    def __init__(self, context: PolyContext, G=()):
        self.context = context
        self.bits = tuple(1 << i for i in range(context.nvars))
        self.entries: list = []
        self.inserted: list = []
        self.memo: dict = {}
        for g in G:
            self.insert(len(self.entries), g)

    def mask(self, h) -> int:
        """Bit i set iff variable i occurs in the monomial with handle h."""
        return sum(compress(self.bits, self.context.order.exps(h)))

    def insert(self, at: int, g: Polynomial) -> None:
        """Make g the reducer probed at position `at`."""
        if g.context is not self.context:
            raise ValueError("polynomials from different contexts")
        if g.is_zero:
            raise ValueError("zero polynomial among the reducers")
        h = g.terms[0][0]
        entry = (h, self.mask(h), g.monic().terms)
        self.entries.insert(at, entry)
        self.inserted.append(entry)


def reduce(f: Polynomial, G, *, deadline: float | None = None, stats=None) -> Polynomial:
    """Full normal form of f modulo the polynomials in G.

    Every term of the result is divisible by no leading monomial of G, not
    just the leading one. G is a Reducers table or an iterable of
    polynomials, which is made into one. Divisor probing follows the sequence
    order of G, so callers control the reducer preference by sorting G.
    Each head's divisor and reducer multiple come from the table's memo as
    the Reducers docstring describes; no result, step or comparison depends
    on what the memo holds.
    Raises TimeLimitExceeded when a deadline (perf_counter timestamp) passes.
    """
    ctx = f.context
    if not isinstance(G, Reducers):
        G = Reducers(ctx, G)
    elif G.context is not ctx:
        raise ValueError("polynomials from different contexts")
    order = ctx.order
    div = order.div
    mul = order.mul
    key = cmp_to_key(order.cmp)
    p = ctx.field.p
    exps = order.exps
    bits = G.bits
    entries = G.entries
    inserted = G.inserted
    memo = G.memo
    gen = len(inserted)
    # the answer for a head no lead divides, shared by all such heads of a call
    irreducible = (gen, None, None, None)

    # The remainder is acc, handle -> [unreduced coefficient], with its
    # distinct monomials in pending, ascending under the order. A multiple's
    # terms coalesce into acc by lookup (the one-item list lets a repeated
    # monomial cost one hash); only a monomial new to the remainder costs
    # comparisons, one cmp per bisection probe. The head is pending's last
    # entry, so taking it costs none; a head that cancelled to 0 is skipped.
    acc = {h: [c] for h, c in f.terms}
    pending = [key(h) for h, _ in reversed(f.terms)]
    out: list = []
    steps = 0
    while pending:
        h = pending.pop().obj
        c = acc.pop(h)[0] % p
        if not c:
            continue
        hit = memo.get(h)
        first = False
        if hit is None or hit[0] != gen:
            # bits of the variables absent from h: a reducer using one cannot divide
            absent = ~sum(compress(bits, exps(h)))
            # a remembered answer stands unless a lead inserted since divides h
            if hit is not None:
                for lm_g, mask_g, _ in inserted[hit[0]:]:
                    if not mask_g & absent and div(h, lm_g) is not None:
                        break
                else:
                    hit = memo[h] = (gen, *hit[1:])
            if hit is None or hit[0] != gen:
                for entry in entries:
                    if entry[1] & absent:
                        continue
                    q = div(h, entry[0])
                    if q is not None:
                        break
                else:
                    memo[h] = irreducible
                    out.append((h, c))
                    continue
                # a re-probe that finds the old divisor keeps its answer and products
                first = hit is None or hit[1] is not entry
                hit = memo[h] = (gen, entry, q, None) if first else (gen, *hit[1:])
        _, entry, q, products = hit
        if entry is None:
            out.append((h, c))
            continue
        steps += 1
        if deadline is not None and not steps % _DEADLINE_STRIDE and perf_counter() > deadline:
            if stats is not None:
                stats.reduction_steps += steps
            raise TimeLimitExceeded
        # the reducer is monic: the head cancels against c * q * lm_g exactly
        factor = p - c
        terms_g = entry[2]
        # the multiple is built on the answer's first two steps, kept by the second
        if products is None:
            products = [mul(q, hg) for hg, _ in islice(terms_g, 1, None)]
            if not first:
                memo[h] = (gen, entry, q, products)
        for m, (_, ct) in zip(products, islice(terms_g, 1, None)):
            cell = acc.get(m)
            if cell is None:
                acc[m] = [ct * factor]
                insort(pending, key(m))
            else:
                cell[0] += ct * factor
    if stats is not None:
        stats.reduction_steps += steps
    return Polynomial(ctx, tuple(out))
