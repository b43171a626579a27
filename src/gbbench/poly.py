"""Sparse multivariate polynomials over Z_p with order-sorted term storage.

A polynomial lives in a PolyContext (variable count, prime field, order
strategy) and stores a tuple of (handle, coeff) pairs, strictly descending
under the context order, coefficients canonical in (0, p). The handle
representation belongs to the order strategy, so the same polynomial code
serves native comparators and matrix orders with cached weight vectors.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import compress
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

    def __init__(self, nvars: int, field: PrimeField, order: MonomialOrder):
        if nvars < 1:
            raise ValueError(f"need at least one variable, got {nvars}")
        if order.n != nvars:
            raise ValueError(f"order is over {order.n} variables, context wants {nvars}")
        self.nvars = nvars
        self.field = field
        self.order = order

    def zero(self) -> "Polynomial":
        return Polynomial(self, ())

    def polynomial(self, pairs) -> "Polynomial":
        """Build from (exps, coeff) pairs; any order, duplicates merged."""
        order = self.order
        p = self.field.p
        attached = []
        for exps, coeff in pairs:
            exps = tuple(exps)
            if len(exps) != self.nvars:
                raise ValueError(f"exponent vector {exps} has {len(exps)} entries, context has {self.nvars}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            attached.append((order.attach(exps), coeff % p))
        attached.sort(key=cmp_to_key(lambda s, t: order.cmp(s[0], t[0])), reverse=True)
        merged: list = []
        for h, c in attached:
            if merged and merged[-1][0] == h:
                merged[-1][1] = (merged[-1][1] + c) % p
            else:
                merged.append([h, c])
        return Polynomial(self, tuple((h, c) for h, c in merged if c))

    def __repr__(self) -> str:
        return f"PolyContext(nvars={self.nvars}, p={self.field.p}, order={self.order.label})"


def _same_context(f: "Polynomial", g: "Polynomial") -> None:
    if f.context is not g.context:
        raise ValueError("polynomials from different contexts")


def _merge(ctx: PolyContext, A, B, negate_b: bool, ia: int = 0, ib: int = 0) -> list:
    """Merge two descending term sequences as A + B or A - B from the given offsets."""
    cmp = ctx.order.cmp
    p = ctx.field.p
    out = []
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
            out.append((hb, p - cb) if negate_b else (hb, cb))
            ib += 1
        else:
            s = (ca - cb) % p if negate_b else (ca + cb) % p
            if s:
                out.append((ha, s))
            ia += 1
            ib += 1
    out += A[ia:]
    if negate_b:
        out += [(hb, p - cb) for hb, cb in B[ib:]]
    else:
        out += B[ib:]
    return out


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

    def leading_coeff(self) -> int:
        if not self.terms:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.terms[0][1]

    def as_tuples(self) -> tuple:
        """Order-independent view: ((exps, coeff), ...) in storage order."""
        exps = self.context.order.exps
        return tuple((exps(h), c) for h, c in self.terms)

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_context(self, other)
        return Polynomial(self.context, tuple(_merge(self.context, self.terms, other.terms, False)))

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        _same_context(self, other)
        return Polynomial(self.context, tuple(_merge(self.context, self.terms, other.terms, True)))

    def __neg__(self):
        p = self.context.field.p
        return Polynomial(self.context, tuple((h, p - c) for h, c in self.terms))

    def _mul_handle(self, h, coeff: int) -> "Polynomial":
        """Multiply by coeff * monomial(h); term order survives translation."""
        p = self.context.field.p
        c = coeff % p
        if c == 0 or not self.terms:
            return Polynomial(self.context, ())
        mul = self.context.order.mul
        if c == 1:
            return Polynomial(self.context, tuple((mul(ht, h), ct) for ht, ct in self.terms))
        return Polynomial(self.context, tuple((mul(ht, h), ct * c % p) for ht, ct in self.terms))

    def mul_scalar(self, coeff: int) -> "Polynomial":
        p = self.context.field.p
        c = coeff % p
        if c == 0 or not self.terms:
            return Polynomial(self.context, ())
        if c == 1:
            return self
        return Polynomial(self.context, tuple((h, ct * c % p) for h, ct in self.terms))

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        return self.mul_scalar(self.context.field.inv(lc))

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
        parts = []
        for exps, c in self.as_tuples():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Polynomial({self.format()} mod {self.context.field.p})"


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) = L/lt(f) * f - L/lt(g) * g with L = lcm(lm(f), lm(g)).

    Both cofactor multiples are made monic first, so the leading terms cancel
    exactly and the merge can skip them.
    """
    _same_context(f, g)
    if f.is_zero or g.is_zero:
        raise ValueError("s_polynomial needs nonzero polynomials")
    ctx = f.context
    order = ctx.order
    inv = ctx.field.inv
    hf, cf = f.terms[0]
    hg, cg = g.terms[0]
    L = order.lcm(hf, hg)
    a = f._mul_handle(order.div(L, hf), inv(cf))
    b = g._mul_handle(order.div(L, hg), inv(cg))
    return Polynomial(ctx, tuple(_merge(ctx, a.terms, b.terms, True, 1, 1)))


_DEADLINE_STRIDE = 4096


class Reducers:
    """Divisor table for reduce: the reducers in probe order, each set up once.

    An entry is (leading handle, mask, inverse of the leading coefficient,
    terms). The mask has bit i set when variable i occurs in the leading
    monomial, so a reducer whose mask has a bit that a term's mask lacks
    cannot divide that term and reduce skips its div (Singular's short
    exponent vectors, Bachmann and Schoenemann, ISSAC 1998, at one bit per
    variable). Callers that keep a table across reduce calls pay for the
    inversions and context checks once per reducer, not once per call.
    """

    __slots__ = ("context", "bits", "entries")

    def __init__(self, context: PolyContext, G=()):
        self.context = context
        self.bits = tuple(1 << i for i in range(context.nvars))
        self.entries: list = []
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
        h, c = g.terms[0]
        self.entries.insert(at, (h, self.mask(h), self.context.field.inv(c), g.terms))


def reduce(f: Polynomial, G, *, deadline: float | None = None, stats=None) -> Polynomial:
    """Full normal form of f modulo the polynomials in G.

    Every term of the result is divisible by no leading monomial of G, not
    just the leading one. G is a Reducers table or an iterable of
    polynomials, which is made into one. Divisor probing follows the sequence
    order of G, so callers control the reducer preference by sorting G.
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
    p = ctx.field.p
    mask = G.mask
    entries = G.entries

    work = list(f.terms)
    out: list = []
    i0 = 0
    steps = 0
    tick = 0
    while i0 < len(work):
        h, c = work[i0]
        # bits of the variables absent from h: a reducer using one cannot divide
        absent = ~mask(h)
        for lm_g, mask_g, inv_lc, terms_g in entries:
            if mask_g & absent:
                continue
            q = div(h, lm_g)
            if q is not None:
                break
        else:
            out.append((h, c))
            i0 += 1
            continue
        steps += 1
        if deadline is not None:
            tick += 1
            if tick >= _DEADLINE_STRIDE:
                tick = 0
                if perf_counter() > deadline:
                    if stats is not None:
                        stats.reduction_steps += steps
                    raise TimeLimitExceeded
        factor = c * inv_lc % p
        mult = [(mul(q, hg), ct * factor % p) for hg, ct in terms_g]
        # the head work[i0] cancels against mult[0] exactly
        work = _merge(ctx, work, mult, True, i0 + 1, 1)
        i0 = 0
    if stats is not None:
        stats.reduction_steps += steps
    return Polynomial(ctx, tuple(out))
