"""Buchberger's algorithm over Z_p, generic over order and pair selection.

The engine never looks inside monomial handles; the order strategy owns the
representation. Pair bookkeeping follows the Gebauer-Moeller update on leading
exponents packed one int per monomial (LeadTable). It realizes both classic
pair-skipping criteria: classes of candidate pairs are dropped when their lcm
is a proper multiple of another candidate lcm (chain criterion) or when some
member has a coprime leading monomial (product criterion), and existing pairs
made redundant by the new element are pruned; only kept pairs reach the order.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from dataclasses import dataclass
from functools import cmp_to_key
from heapq import heapify, heappop, heappush
from itertools import islice
from math import comb
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
    lcm: int     # lcm of leads i and j, packed in the LeadTable's current layout
    key: object  # the strategy's pair_key, given when the pair is made (see STRATEGIES)


@dataclass
class GroebnerResult:
    basis: list | None  # None when the run hit its deadline
    stats: EngineStats

    @property
    def aborted(self) -> bool:
        return self.basis is None


class LeadTable:
    """Leading monomials of the partial basis, by basis index.

    exps holds each exponent tuple; packed holds each as one int with a
    field of width bits per variable (variable 0 first), guard bits set;
    leads is the set of those. No exponent reaches a field's top bit, its
    guard bit: b divides a iff (a | guard) - b keeps every guard bit, and
    numeric order extends divisibility. Fields start 4 bits wide; a larger
    exponent widens them first (see widen).
    """

    __slots__ = ("n", "width", "guard", "exps", "packed", "leads")

    def __init__(self, n: int):
        self.n = n
        self.exps: list = []
        self.widen(7, [])  # 4-bit fields: exponents up to 7

    def pack(self, e) -> int:
        acc = 0
        for x in e:
            acc = (acc << self.width) | x
        return acc

    def widen(self, top: int, P) -> None:
        """Fit exponents up to top: repack each lead, and the lcm of each
        pair in P, from the leads' exponent tuples."""
        w = self.width = top.bit_length() + 1
        self.guard = sum(1 << (w * v + w - 1) for v in range(self.n))
        self.packed = [self.pack(e) | self.guard for e in self.exps]
        self.leads = set(self.packed)
        exps = self.exps
        P[:] = [pr._replace(lcm=self.pack(map(max, exps[pr.i], exps[pr.j]))) for pr in P]


def _update(lead: LeadTable, P, eh, stats, pair_key) -> None:
    """Add the leading monomial eh of a new basis element and rework P.

    Each candidate lcm L of a pair (i, t) is h plus the excess of lm_i over
    h, field by field on packed monomials. A pair (i, j) in P is pruned when
    h divides its lcm and neither lcm(lm_i, h) nor lcm(lm_j, h) equals it.
    Of the lcm classes only divisibility-minimal ones survive: the least
    lcm left is minimal, since divisors are numerically smaller, and cuts
    its multiples, its own copies too. A minimal class has a member coprime
    to h, and dies, iff L - h is a lead lm_k: then lcm(lm_k, h) divides L,
    so by minimality it is L = lm_k + h. Each surviving class gives its
    least-index pair, keyed by pair_key(lcm exps, i, t) and put into P (kept
    sorted by key) by binary search, about log2 |P| key comparisons, in
    order of (degree, i).
    """
    if max(eh) >> (lead.width - 1):
        lead.widen(max(eh), P)
    w1, guard = lead.width - 1, lead.guard
    h = lead.pack(eh)
    t = len(lead.exps)
    # field v of (lm_i | guard) - h is 2**w1 + a_v - h_v: its guard bit is
    # set iff a_v >= h_v, and then its low bits are the excess a_v - h_v
    lcms = [h + (((g := (d := x - h) & guard) - (g >> w1)) & d) for x in lead.packed]
    skipped = len(P) + t  # each pair or candidate that is not in P at the end
    c = guard - h
    P[:] = [pr for pr in P
            if (pr.lcm + c) & guard != guard or lcms[pr.i] == pr.lcm or lcms[pr.j] == pr.lcm]
    new = []
    rest = lcms
    while rest:
        L = min(rest)
        c = guard - L
        rest = [M for M in rest if (M + c) & guard != guard]
        if (L - h) | guard not in lead.leads:
            i = lcms.index(L)
            e = tuple(map(max, lead.exps[i], eh))
            new.append((sum(e), i, e, L))
    for _, i, e, L in sorted(new):
        insort(P, CriticalPair(i, t, L, pair_key(e, i, t)), key=attrgetter("key"))
    stats.pairs_skipped_by_criteria += skipped - len(P)
    lead.exps.append(eh)
    lead.packed.append(h | guard)
    lead.leads.add(h | guard)


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

    Returns GroebnerResult(basis, stats). When the deadline passes, the
    result has basis=None (so aborted is True), with the stats gathered so far;
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
        h = g.leading_monomial()
        eg = order.exps(h)
        k = reducer_key(h, eg, len(G))
        at = bisect_right(red_keys, k)
        red_keys.insert(at, k)
        reducers.insert(at, g)
        _update(lead, P, eg, stats, pair_key)
        G.append(g)

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
        pass  # basis stays None

    stats.comparisons = order.comparisons
    stats.matvec_products = order.matvec_products
    stats.wall_time = perf_counter() - start
    return GroebnerResult(basis=basis, stats=stats)


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
    # one table for every element: each term below lm(g) is smaller than
    # lm(g), so none is divisible by it and g never fires on its own tail
    table = Reducers(ctx)
    # (mask, exps, g) of each element with a minimal leading monomial; a mask
    # with a bit that e's mask lacks rules divisibility out before the
    # exponents are compared
    minimal: list = []
    for g in G_sorted:
        h = g.leading_monomial()
        e = order.exps(h)
        m = table.mask(h)
        if not any(not mk & ~m and all(map(le, ek, e)) for mk, ek, _ in minimal):
            table.insert(len(minimal), g)
            minimal.append((m, e, g))
    out = []
    for _, _, g in minimal:
        tail = reduce(Polynomial(ctx, g.terms[1:]), table)
        # tail reduction keeps lm(g), so out keeps G_sorted's ascending order
        out.append(Polynomial(ctx, g.terms[:1] + tail.terms).monic())
    return out


def _packed_basis(G, F):
    """G prepared for the integer-packed verifier under its context order.

    A monomial packs into one integer with one field per variable, and its
    key into one with one field per row of order.matrix, most significant
    first, every field width bits wide. Safe only when the matrix is integer
    and degree-first (first row all ones): then every monomial met during
    top-reduction has degree at most that of the seed, which bounds every
    field; any other order raises ValueError. Returns
    (prepped, pack_key, pack_exps, pack_lcm, mtop, ones, pops):

    - prepped holds each g as (support mask of lm(g), (mtop - packed exps
      of lm(g), monic tail)); a tail term is (key of lm(g) - its key,
      exponent offset from lm(g), coefficient over lc(g)), scaled by
      field.inv, not Polynomial.monic, so the verifier shares no arithmetic
      with the engine. Keys are negated so that a min-heap pops the largest.
    - pack_key(e) = mtop + sum(e_i * K_i), K_i the packed column i. It is
      linear in the exponents, so key(a * b) = key(a) + key(b) - mtop, and
      numeric order of keys is the lexicographic order of weight vectors.
    - pack_exps(e) packs the exponents themselves.
    - mtop holds each field's guard bit, the bias 2**(width - 1). For packed
      exponents a and b, (a - b + mtop) & mtop keeps the guard bit of every
      field where b's exponent is at most a's: b divides a iff it is mtop.
    - pack_lcm(a, b) takes each field from a or b by that guard-bit test.
    - ones holds bias - 1 in every field, so (a + ones) & mtop keeps the
      guard bit of every field where a's exponent is nonzero: the support
      mask of a, in two integer operations.
    - pops, the count of monomials of degree at most twice the top degree,
      bounds the monomials that a window's top-reduction pops.
    """
    order = G[0].context.order
    rows = order.matrix.rows
    if any(not isinstance(v, int) for row in rows for v in row) or any(v != 1 for v in rows[0]):
        raise ValueError(f"verify_groebner needs a degree-first order with integer weights; "
                         f"{order.label} is not one")
    n = order.n
    # the order is degree-first, so a leading term has its polynomial's top degree
    maxdeg = max(1, *(sum(order.exps(f.leading_monomial())) for f in G + F if not f.is_zero))
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

    field = G[0].context.field
    p = field.p
    prepped = []
    for g in G:
        terms = g.as_tuples()
        lm_e, lm_c = terms[0]
        inv = field.inv(lm_c)
        lm_k = pack_key(lm_e)
        lm_ep = pack_exps(lm_e)
        tail = [(lm_k - pack_key(e), pack_exps(e) - lm_ep, c * inv % p)
                for e, c in terms[1:]]
        prepped.append(((lm_ep + ones) & mtop, (mtop - lm_ep, tail)))
    return prepped, pack_key, pack_exps, pack_lcm, mtop, ones, comb(2 * maxdeg + n, n)


# seeds per window of _reduce_windows; 32 was slower on dense, 128 no faster
_WINDOW = 64


def _reduce_windows(seeds, size, prepped, p, mtop, ones, pops, deadline):
    """Top-reduce the seeds against the prepped basis, size at a time; the
    name of the first seed that does not vanish, or None.

    seeds yields (name, terms), a term being (negated key, packed exps,
    coefficient below p), the keys of a window from one origin. A window's
    pending monomials live in acc (key -> [vector, packed exps]) and a heap,
    each popped once, largest first. A vector holds the monomial's
    coefficient in each seed, one w-bit lane per seed, first seed lowest,
    so one divisor probe and one pass over the divisor's tail serve them
    all. Until popped a lane holds at most top: two seed terms, then one
    product of a factor at most p and a tail coefficient per pop. A popped
    vector is reduced mod p (by % in windows of one) by Barrett steps
    q = (x >> a) * m >> b, m = 2**(a + b) // p, whose products stay below
    2**w, then a guard-bit test subtracts p where a lane still reaches it.
    A seed fails at a monomial with no divisor where its lane is nonzero;
    later lanes drop out from there, so the lowest failing lane is the
    first failing seed.

    The divisor is the first element of prepped whose lead divides the
    monomial, probed among cands[support mask of the monomial], the elements
    whose leading support lies inside it. Its tail is monic, so vector c
    cancels by adding p - c times the tail's shifted terms. The deadline is
    polled before each window and every _DEADLINE_STRIDE reduction steps.
    """
    top = 2 * p + pops * p * (p - 1)
    # 3 spare bits let the steps reach 2p for the smallest p too
    w = max(top.bit_length(), p.bit_length() + 3) + 1
    rep = ((1 << w * size) - 1) // ((1 << w) - 1)  # 1 in every lane
    guard, lane_ones, pvec = rep << (w - 1), rep * ((1 << w - 1) - 1), rep * p
    steps = []
    while top >= 2 * p:
        # b as large as keeps (x >> a) * m below 2**w, a to balance the
        # error of the shift against that of m; top bounds what is left
        t = top.bit_length()
        a, b = max(0, (2 * t - w + 1) // 2), w - t + p.bit_length() - 1
        steps.append((a, b, (1 << a + b) // p, rep * ((1 << w - a) - 1), rep * ((1 << w - b) - 1)))
        top = (top * p >> a + b) + (1 << a) + p
    lanes = range(0, w * size, w)
    live = (1 << w * size) - 1
    cands: dict = {}
    tick = 0
    seeds = iter(seeds)
    # zip is the cheap form of windows of one seed
    for window in zip(seeds) if size == 1 else iter(lambda: list(islice(seeds, size)), []):
        if deadline is not None and perf_counter() > deadline:
            raise TimeLimitExceeded
        acc: dict = {}
        heap = []
        for sh, (_, terms) in zip(lanes, window):
            for k, e, c in terms:
                c <<= sh
                got = acc.get(k)
                if got is None:
                    acc[k] = [c, e]
                    heap.append(k)
                else:
                    got[0] += c
        heapify(heap)
        fail = None
        while heap:
            k = heappop(heap)
            c, e = acc.pop(k)
            if size == 1:
                c %= p
                factor = p - c
            else:
                c &= live
                for a, b, m, ma, mb in steps:
                    c -= ((c >> a & ma) * m >> b & mb) * p
                c -= (((c | guard) - pvec & guard) >> (w - 1)) * p
                # p - c in the nonzero lanes, so zero lanes stay zero
                factor = (((c + lane_ones) & guard) >> (w - 1)) * p - c
            if not c:
                continue
            s = (e + ones) & mtop
            probe = cands.get(s)
            if probe is None:
                probe = cands[s] = [r for sg, r in prepped if not sg & ~s]
            for lead, tail in probe:
                if (e + lead) & mtop == mtop:
                    break
            else:
                fail = ((factor & -factor).bit_length() - 1) // w
                if not fail:
                    break
                live = (1 << w * fail) - 1
                continue
            if deadline is not None:
                tick += 1
                if not tick % _DEADLINE_STRIDE and perf_counter() > deadline:
                    raise TimeLimitExceeded
            for dk, de, ct in tail:
                k2 = k + dk
                got = acc.get(k2)
                if got is None:
                    acc[k2] = [factor * ct, e + de]
                    heappush(heap, k2)
                else:
                    got[0] += factor * ct
        if fail is not None:
            return window[fail][0]
    return None


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
    prepped, pack_key, pack_exps, pack_lcm, mtop, ones, pops = _packed_basis(G, F)
    lms = [mtop - r[0] for _, r in prepped]
    # S(g_i, g_j) = (L / lm_i) * tail_i - (L / lm_j) * tail_j with the
    # leading terms cancelled and the tails monic; each side negated once
    ups = [tail for _, (_, tail) in prepped]
    downs = [[(dk, de, p - c) for dk, de, c in up] for up in ups]
    # seeds of a binomial basis share almost no monomial, so each is its own
    # window, keyed relative to its lcm L; other seeds are keyed absolutely
    size = _WINDOW if any(len(up) > 1 for up in ups) else 1
    lm_exps = [ctx.order.exps(g.leading_monomial()) for g in G]

    def seeds():
        for i, (lm_i, up_i) in enumerate(zip(lms, ups)):
            for j in range(i + 1, len(G)):
                big = pack_lcm(lm_i, lms[j])
                base = -pack_key(map(max, lm_exps[i], lm_exps[j])) if size > 1 else 0
                yield (idx[i], idx[j]), [(base + dk, big + de, c) for dk, de, c in up_i + downs[j]]
        for k, f in enumerate(F):
            yield ("input", k), [(-pack_key(e), pack_exps(e), c % p) for e, c in f.as_tuples()]

    return _reduce_windows(seeds(), size, prepped, p, mtop, ones, pops, deadline)


def verify_groebner(G, F=None, *, max_seconds: float | None = None) -> bool:
    """Criterion-free certificate check, independent of the engine's shortcuts.

    Confirms every S-polynomial of G reduces to zero (no pair is skipped, not
    even coprime ones) and, when F is given, that every input polynomial
    reduces to zero, so the input ideal is contained in the one G generates.
    Normal forms are recomputed on the verifier's own heap of packed keys
    rather than the engine's cmp-sorted reducer, so the two routes share no
    arithmetic, and for a window of _WINDOW seeds at once, one packed
    coefficient per seed (see _reduce_windows); over a binomial basis, whose
    seeds share almost no monomial, each seed is a window of its own.
    Monomials and keys are packed into single integers, which needs the
    order's weight matrix to be integer and degree-first (every order this
    package ships); any other order raises ValueError. verify_failure names
    the first failing pair or input.
    """
    return verify_failure(G, F, max_seconds=max_seconds) is None


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
