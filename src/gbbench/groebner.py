"""Buchberger's algorithm over Z_p, generic over order and pair selection.

The engine never looks inside monomial handles; the order strategy owns the
representation. Pair bookkeeping follows the Gebauer-Moeller update, which
realizes both classic pair-skipping criteria: classes of candidate pairs are
dropped when their lcm is a proper multiple of another candidate lcm (chain
criterion) or when some member has a coprime leading monomial (product
criterion), and existing pairs made redundant by the new element are pruned.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import cmp_to_key
from heapq import heapify, heappop, heappush
from itertools import compress
from operator import attrgetter, le, mul
from time import perf_counter
from typing import NamedTuple

from .ordering import MatrixCachedOrder
from .poly import _DEADLINE_STRIDE, Polynomial, Reducers, TimeLimitExceeded, reduce, s_polynomial

@dataclass
class EngineStats:
    comparisons: int = 0
    pairs_processed: int = 0
    pairs_skipped_by_criteria: int = 0
    reduction_steps: int = 0
    matvec_products: int = 0
    wall_time: float = 0.0


class CriticalPair(NamedTuple):
    i: int
    j: int
    lcm_exps: tuple
    lcm_mask: int
    key: object  # the strategy's pair_key, given when the pair is made (see STRATEGIES)


@dataclass
class GroebnerResult:
    basis: list | None
    stats: EngineStats
    aborted: bool = False


class LeadTable:
    """Leading monomials of the partial basis, by basis index, three ways.

    exps holds each exponent tuple, masks its one-bit-per-variable mask (bit
    v set iff variable v occurs, as in poly.Reducers) and cols[v] the
    exponents of variable v, so the Gebauer-Moeller update builds every
    candidate lcm with one comprehension per variable and tests coprimality
    and divisibility on masks before touching exponents.
    """

    __slots__ = ("bits", "exps", "masks", "cols")

    def __init__(self, n: int):
        self.bits = tuple(1 << v for v in range(n))
        self.exps: list = []
        self.masks: list = []
        self.cols: list = [[] for _ in range(n)]

    def mask(self, e) -> int:
        return sum(compress(self.bits, e))

    def append(self, e, mask: int) -> None:
        self.exps.append(e)
        self.masks.append(mask)
        for col, x in zip(self.cols, e):
            col.append(x)


def _update(lead: LeadTable, P, eh, stats, pair_key) -> None:
    """Add the leading monomial eh of a new basis element and rework P.

    Candidate pairs (i, t) are grouped by lcm; only divisibility-minimal lcm
    classes survive (iterating by ascending degree guarantees divisors are
    seen first; two distinct lcms of one degree never divide each other), a
    class with a coprime member dies entirely, and each surviving class
    contributes its least-index representative. Existing pairs whose lcm is
    strictly dominated through the new leading monomial are pruned. A mask
    with a bit the other's mask lacks rules divisibility out before the
    exponents are compared. P stays sorted ascending by key: pruning keeps
    its order, and each new pair gets pair_key(lcm exps, i, t) and goes in
    by binary search, about log2 |P| key comparisons.
    """
    t = len(lead.exps)
    exps = lead.exps
    masks = lead.masks
    mh = lead.mask(eh)
    skipped = 0

    kept = []
    for pr in P:
        eL = pr.lcm_exps
        if mh & ~pr.lcm_mask or not all(map(le, eh, eL)):
            kept.append(pr)
        elif tuple(map(max, exps[pr.i], eh)) == eL or tuple(map(max, exps[pr.j], eh)) == eL:
            kept.append(pr)
        else:
            skipped += 1
    P[:] = kept

    cand: dict = {}
    cols = [[x if x > c else c for x in col] for col, c in zip(lead.cols, eh)]
    for i, e in enumerate(zip(*cols)):
        idxs = cand.get(e)
        if idxs is None:
            cand[e] = [i]
        else:
            idxs.append(i)

    minimal: list = []
    for e in sorted(cand, key=sum):
        idxs = cand[e]
        i = idxs[0]
        em = masks[i] | mh
        for m, mm in minimal:
            if not mm & ~em and all(map(le, m, e)):
                skipped += len(idxs)
                break
        else:
            minimal.append((e, em))
            if any(not masks[k] & mh for k in idxs):
                skipped += len(idxs)
            else:
                insort(P, CriticalPair(i, t, e, em, pair_key(e, i, t)), key=attrgetter("key"))
                skipped += len(idxs) - 1

    stats.pairs_skipped_by_criteria += skipped
    lead.append(eh, mh)


def _induced_order_keys(order) -> tuple:
    """Keys under the run's own order: (handle, indices) wrapped in a
    cmp_to_key object over order.cmp, so each probe of a binary search is one
    cmp call, with ties broken by the indices."""
    cmp = order.cmp
    attach = order.attach

    def by_order(a, b):
        return cmp(a[0], b[0]) or (-1 if a[1:] < b[1:] else 1)

    K = cmp_to_key(by_order)
    return (lambda e, i, j: K((attach(e), i, j)),
            lambda h, e, idx: K((h, idx)))


def _weight_vector_keys(order) -> tuple:
    """Keys as plain tuples: the weight vector under order.matrix, compared
    lexicographically, then the indices."""
    wv = order.matrix.weight_vector
    return (lambda e, i, j: (wv(e), i, j),
            lambda h, e, idx: (wv(e), idx))


# Selection strategies by name -> order -> (pair_key(lcm exps, i, j),
# reducer_key(lm handle, lm exps, basis index)). Keys are unique, so a pair
# queue or reducer table sorted by them has one order, and a reducer lands
# after any with an equal leading monomial.
INDUCED_ORDER = "induced-order"
WEIGHT_VECTOR = "weight-vector"
STRATEGIES = {INDUCED_ORDER: _induced_order_keys, WEIGHT_VECTOR: _weight_vector_keys}


def buchberger(F, *, strategy: str = INDUCED_ORDER,
               max_seconds: float | None = None) -> GroebnerResult:
    """Groebner basis of the ideal generated by F under the context order.

    The next critical pair is the one whose lcm is smallest under the named
    selection strategy (see STRATEGIES): by the run's own order, or by the
    lcm's weight vector under order.matrix, compared lexicographically (ties
    fall back to pair indices either way). The same preference orders the
    reducers. Both the pair queue and the reducer table stay sorted by that
    preference, and an entry goes in by binary search; under the run's own
    order every probe is one call of the order's cmp.

    Returns GroebnerResult(basis, stats, aborted). When the deadline passes,
    the result has aborted=True and basis=None, with the stats gathered so far;
    the deadline is also probed inside long reductions so the overshoot stays
    bounded. The basis is not auto-reduced; see reduce_basis.

    The comparison and matrix-product counts in the stats are the order
    object's running totals at return, so work done while building the input
    polynomials (term sorting, weight materialization) is included. Use a
    fresh order per run for per-run numbers.
    """
    F = list(F)
    if not F:
        raise ValueError("need at least one polynomial")
    ctx = F[0].context
    for f in F:
        if f.context is not ctx:
            raise ValueError("polynomials from different contexts")
        if f.is_zero:
            raise ValueError("zero polynomial in the input")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown selection strategy {strategy!r}; "
                         f"known: {', '.join(STRATEGIES)}")

    order = ctx.order
    stats = EngineStats()
    start = perf_counter()
    deadline = start + max_seconds if max_seconds is not None else None
    pair_key, reducer_key = STRATEGIES[strategy](order)

    G: list = []
    lead = LeadTable(ctx.nvars)
    P: list = []

    # reducers: G resorted ascending by the strategy's preference, so the
    # first divisor found is the preferred one
    reducers = Reducers(ctx)
    red_keys: list = []

    def add(g: Polynomial) -> None:
        # new pairs against the current G first, then g joins G and the reducers
        h = g.leading_monomial()
        eg = order.exps(h)
        _update(lead, P, eg, stats, pair_key)
        k = reducer_key(h, eg, len(G))
        G.append(g)
        at = bisect_right(red_keys, k)
        red_keys.insert(at, k)
        reducers.insert(at, g)

    aborted = False
    basis = None
    try:
        for f in F:
            add(f.monic())
        while P:
            if deadline is not None and perf_counter() > deadline:
                raise TimeLimitExceeded
            pr = P.pop(0)
            s = s_polynomial(G[pr.i], G[pr.j])
            stats.pairs_processed += 1
            r = reduce(s, reducers, deadline=deadline, stats=stats)
            if not r.is_zero:
                add(r.monic())
        basis = list(G)
    except TimeLimitExceeded:
        aborted = True

    stats.comparisons = order.comparisons
    stats.matvec_products = order.matvec_products
    stats.wall_time = perf_counter() - start
    return GroebnerResult(basis=basis, stats=stats, aborted=aborted)


def reduce_basis(G) -> list:
    """The unique reduced basis: minimal leading monomials, every element
    fully reduced against the others, monic, sorted ascending by leading
    monomial under the context order."""
    G = [g for g in G if not g.is_zero]
    if not G:
        return []
    ctx = G[0].context
    order = ctx.order
    G_sorted = sorted(G, key=cmp_to_key(
        lambda f, g: order.cmp(f.leading_monomial(), g.leading_monomial())))
    minimal: list = []
    minimal_exps: list = []
    for g in G_sorted:
        e = order.exps(g.leading_monomial())
        if not any(all(map(le, m, e)) for m in minimal_exps):
            minimal.append(g)
            minimal_exps.append(e)
    # one table for every element: each term below lm(g) is smaller than
    # lm(g), so none is divisible by it and g never fires on its own tail
    table = Reducers(ctx, minimal)
    out = []
    for g in minimal:
        tail = reduce(Polynomial(ctx, g.terms[1:]), table)
        # tail reduction keeps lm(g), so out keeps G_sorted's ascending order
        out.append(Polynomial(ctx, g.terms[:1] + tail.terms).monic())
    return out


def _packed_layout(order, G, F):
    """Bit layout for the integer-packed verifier.

    A monomial packs into one integer with one field per variable, and its
    key into one with one field per row of order.matrix, most significant
    first, every field width bits wide. Safe only when the matrix is integer
    and degree-first (first row all ones): then every monomial met during
    top-reduction has degree at most that of the seed, which bounds every
    field; any other order raises ValueError. Returns
    (pack_key, pack_exps, pack_lcm, mtop, ones):

    - pack_key(e) = mtop + sum(e_i * K_i), K_i the packed column i. It is
      linear in the exponents, so key(a * b) = key(a) + key(b) - mtop, and
      numeric order of keys is the lexicographic order of weight vectors.
    - pack_exps(e) packs the exponents themselves.
    - mtop holds each field's guard bit, the bias 2**(width - 1). For packed
      exponents a and b, (a - b + mtop) & mtop keeps the guard bit of every
      field where b's exponent is at most a's, so b divides a iff it equals
      mtop.
    - pack_lcm(a, b) takes each field from a or b by that guard-bit test.
    - ones holds bias - 1 in every field, so (a + ones) & mtop keeps the
      guard bit of every field where a's exponent is nonzero: the support
      mask of a, in two integer operations.
    """
    rows = order.matrix.rows
    if any(not isinstance(v, int) for row in rows for v in row) or any(v != 1 for v in rows[0]):
        raise ValueError(f"verify_groebner needs a degree-first order with integer weights; "
                         f"{order.label} is not one")
    n = order.n
    maxdeg = 1
    for poly in G + F:
        for e, _ in poly.as_tuples():
            maxdeg = max(maxdeg, sum(e))
    # pending monomials never exceed twice the largest input degree (S-pair
    # lcms), and each key component is a weight row against such a monomial
    bound = 2 * maxdeg * max(abs(v) for row in rows for v in row) + 1
    width = bound.bit_length() + 2
    bias = 1 << (width - 1)
    shifts = [width * (n - 1 - r) for r in range(n)]
    cols = [sum(row[i] << s for row, s in zip(rows, shifts)) for i in range(n)]
    # every field carries the same bias, so the key's bias is the guard mask
    mtop = sum(bias << s for s in shifts)
    ones = sum((bias - 1) << s for s in shifts)

    def pack_key(e) -> int:
        return mtop + sum(map(mul, e, cols))

    def pack_exps(e) -> int:
        acc = 0
        for v in e:
            acc = (acc << width) | v
        return acc

    def pack_lcm(a: int, b: int) -> int:
        # bias - 1 in the fields where b's exponent is at least a's
        fm = (((b - a + mtop) & mtop) >> (width - 1)) * (bias - 1)
        return (b & fm) | (a & ~fm)

    return pack_key, pack_exps, pack_lcm, mtop, ones


def _packed_basis(G, pack_key, pack_exps, mtop, ones):
    """Each element as (support mask of its leading monomial, (packed leading
    exponents, monic tail)); a tail term is (key offset, exponent offset,
    coefficient divided by the leading coefficient) from the leading
    monomial. Each tail is scaled here, once per element, by field.inv and not
    by Polynomial.monic, so the verifier shares no arithmetic with the engine."""
    field = G[0].context.field
    p = field.p
    prepped = []
    for g in G:
        terms = g.as_tuples()
        lm_e, lm_c = terms[0]
        inv = field.inv(lm_c)
        lm_k = pack_key(lm_e)
        lm_ep = pack_exps(lm_e)
        tail = [(pack_key(e) - lm_k, pack_exps(e) - lm_ep, c * inv % p)
                for e, c in terms[1:]]
        prepped.append(((lm_ep + ones) & mtop, (lm_ep, tail)))
    return prepped


def _sinks_packed(seed, prepped, cands, p, mtop, ones, deadline) -> bool:
    """Top-reduce the seed against the prepped basis; True iff it vanishes.

    Seed terms are (key, packed exps, coeff). A key need only be injective
    and ordered like the monomials, so a seed may be keyed relative to any
    fixed monomial: an S-pair's seed is keyed relative to its lcm, and every
    key the reduction derives stays shifted by the same amount.

    Pending terms live in acc (key -> [coeff, packed exps]) with a heap of
    negated keys for max-first extraction; coefficients coalesce in the
    dict, so each distinct pending monomial sits in the heap once.

    The divisor of a term is the first element of prepped that divides it.
    Only an element whose leading support lies inside the term's support can
    divide it, so the probe runs over cands[support mask of the term]: the
    elements whose mask has no guard bit the term's lacks, in prepped order,
    listed the first time a mask is met. The first divisor found is the one
    a probe over all of prepped would find. Each candidate gets the exact
    guard-bit test (see _packed_layout). The divisor's tail is monic, so
    the head c cancels by adding (p - c) times the tail's shifted terms.
    """
    acc: dict = {}
    heap = []
    for k, e, c in seed:
        got = acc.get(k)
        if got is None:
            acc[k] = [c % p, e]
            heap.append(-k)
        else:
            got[0] += c
    heapify(heap)
    tick = 0
    while heap:
        k = -heappop(heap)
        c, e = acc.pop(k)
        c %= p
        if not c:
            continue
        s = (e + ones) & mtop
        probe = cands.get(s)
        if probe is None:
            probe = cands[s] = [r for sg, r in prepped if not sg & ~s]
        for lm_ep, tail in probe:
            if (e - lm_ep + mtop) & mtop == mtop:
                break
        else:
            return False
        if deadline is not None:
            tick += 1
            if tick >= _DEADLINE_STRIDE:
                tick = 0
                if perf_counter() > deadline:
                    raise TimeLimitExceeded
        factor = p - c
        for dk, de, ct in tail:
            k2 = k + dk
            got = acc.get(k2)
            if got is None:
                acc[k2] = [factor * ct % p, e + de]
                heappush(heap, -k2)
            else:
                got[0] += factor * ct
    return True


def verify_failure(G, F=None, *, max_seconds: float | None = None) -> tuple | None:
    """The first check verify_groebner fails, or None if it passes them all.

    Returns None, the pair (i, j) of indices into G (i < j) whose
    S-polynomial does not reduce to zero, or ("input", k) for the input F[k]
    that does not. Pairs are checked first, in order of i then j, and then
    the inputs in order. Zero elements of G form no pairs.
    """
    G = list(G)
    F = list(F) if F is not None else []
    idx = [i for i, g in enumerate(G) if not g.is_zero]
    G = [G[i] for i in idx]
    if not G:
        return next((("input", k) for k, f in enumerate(F) if not f.is_zero), None)
    ctx = G[0].context
    for poly in G + F:
        if poly.context is not ctx:
            raise ValueError("polynomials from different contexts")
    p = ctx.field.p
    deadline = perf_counter() + max_seconds if max_seconds is not None else None
    pack_key, pack_exps, pack_lcm, mtop, ones = _packed_layout(ctx.order, G, F)
    prepped = _packed_basis(G, pack_key, pack_exps, mtop, ones)
    cands: dict = {}
    lms = [r[0] for _, r in prepped]
    # S(g_i, g_j) = (L / lm_i) * tail_i - (L / lm_j) * tail_j with the
    # leading terms cancelled and the tails monic; each side negated once
    ups = [tail for _, (_, tail) in prepped]
    downs = [[(dk, de, p - c) for dk, de, c in up] for up in ups]
    for i in range(len(G)):
        lm_i = lms[i]
        up_i = ups[i]
        for j in range(i + 1, len(G)):
            if deadline is not None and perf_counter() > deadline:
                raise TimeLimitExceeded
            big = pack_lcm(lm_i, lms[j])
            seed = [(dk, big + de, c) for dk, de, c in up_i]
            seed += [(dk, big + de, c) for dk, de, c in downs[j]]
            if not _sinks_packed(seed, prepped, cands, p, mtop, ones, deadline):
                return idx[i], idx[j]
    for k, f in enumerate(F):
        seed = [(pack_key(e), pack_exps(e), c) for e, c in f.as_tuples()]
        if not _sinks_packed(seed, prepped, cands, p, mtop, ones, deadline):
            return "input", k
    return None


def verify_groebner(G, F=None, *, max_seconds: float | None = None) -> bool:
    """Criterion-free certificate check, independent of the engine's shortcuts.

    Confirms every S-polynomial of G reduces to zero (no pair is skipped, not
    even coprime ones) and, when F is given, that every input polynomial
    reduces to zero, so the input ideal is contained in the one G generates.
    Normal forms are recomputed on the verifier's own heap of packed keys
    rather than the engine's cmp-sorted reducer, so the two routes share no
    arithmetic.
    Monomials and keys are packed into single integers, which needs the
    order's weight matrix to be integer and degree-first (every order this
    package ships); any other order raises ValueError. verify_failure names
    the first failing pair or input.
    """
    return verify_failure(G, F, max_seconds=max_seconds) is None


def reorder_variables(F) -> tuple:
    """Permutation of variable indices, most main first.

    Variables are ranked by descending total occurrence count (sum of
    exponents over every term of every polynomial), ties by input position,
    so rarely used variables drift to the least main end. Off by default in
    the benchmark driver; callers apply the permutation themselves.
    """
    F = list(F)
    if not F:
        raise ValueError("need at least one polynomial")
    n = F[0].context.nvars
    occ = [0] * n
    for f in F:
        for exps, _ in f.as_tuples():
            for v, e in enumerate(exps):
                occ[v] += e
    return tuple(sorted(range(n), key=lambda v: (-occ[v], v)))


def audit_cached_weights(polys) -> list:
    """Recompute every cached weight vector by a direct matrix product.

    Returns (exps, cached, recomputed) triples for each mismatching term
    instance; an empty list certifies the incremental add/subtract
    bookkeeping stayed coherent. Audits every instance, deliberately not
    deduplicating, so independently derived copies of a monomial are each
    checked.
    """
    out = []
    for f in polys:
        order = f.context.order
        if not isinstance(order, MatrixCachedOrder):
            raise TypeError(f"order {order.label} keeps no cached weights")
        for h, _ in f.terms:
            exps = order.exps(h)
            cached = order.weights(h)
            recomputed = order.matrix.weight_vector(exps)
            if cached != recomputed:
                out.append((exps, cached, recomputed))
    return out
