"""Buchberger's algorithm over Z_p, generic over order and selection strategy.

The engine never looks inside monomial handles; the order strategy owns the
representation. Pair bookkeeping follows the Gebauer-Moeller update, which
realizes both classic pair-skipping criteria: classes of candidate pairs are
dropped when their lcm is a proper multiple of another candidate lcm (chain
criterion) or when some member has a coprime leading monomial (product
criterion), and existing pairs made redundant by the new element are pruned.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cmp_to_key
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import NamedTuple

from .ordering import MatrixCachedOrder, WeightMatrix
from .poly import Polynomial, TimeLimitExceeded, reduce, s_polynomial

INDUCED_ORDER = "induced-order"
WEIGHT_VECTOR = "weight-vector"


@dataclass(frozen=True)
class SelectionStrategy:
    """How the engine picks the next critical pair.

    induced-order: smallest pair lcm under the run's own order.
    weight-vector: smallest weight vector of the lcm under a fixed matrix,
    compared lexicographically (ties fall back to pair indices either way).
    """

    kind: str = INDUCED_ORDER
    matrix: WeightMatrix | None = None

    def __post_init__(self):
        if self.kind not in (INDUCED_ORDER, WEIGHT_VECTOR):
            raise ValueError(f"unknown selection strategy {self.kind!r}")
        if self.kind == WEIGHT_VECTOR and self.matrix is None:
            raise ValueError("weight-vector selection needs a weight matrix")
        if self.kind == INDUCED_ORDER and self.matrix is not None:
            raise ValueError("induced-order selection takes no matrix")

    @classmethod
    def induced_order(cls) -> "SelectionStrategy":
        return cls(INDUCED_ORDER)

    @classmethod
    def weight_vector(cls, matrix: WeightMatrix) -> "SelectionStrategy":
        return cls(WEIGHT_VECTOR, matrix)


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
    key: tuple | None


@dataclass
class GroebnerResult:
    basis: list | None
    stats: EngineStats
    aborted: bool = False

    @property
    def completed(self) -> bool:
        return not self.aborted


def _divides(a, b) -> bool:
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _update(G, lm_exps, P, f, order, stats, pair_key) -> None:
    """Add monic f to the partial basis and rework the pair set.

    Candidate pairs (i, t) are grouped by lcm; only divisibility-minimal lcm
    classes survive (iterating by ascending degree guarantees divisors are
    seen first), a class with a coprime member dies entirely, and each
    surviving class contributes its least-index representative. Existing
    pairs whose lcm is strictly dominated through the new leading monomial
    are pruned.
    """
    t = len(G)
    eh = order.exps(f.leading_monomial())

    kept = []
    for pr in P:
        eL = pr.lcm_exps
        if not _divides(eh, eL):
            kept.append(pr)
            continue
        li = tuple(map(max, lm_exps[pr.i], eh))
        lj = tuple(map(max, lm_exps[pr.j], eh))
        if li == eL or lj == eL:
            kept.append(pr)
        else:
            stats.pairs_skipped_by_criteria += 1
    P[:] = kept

    cand: dict = {}
    for i in range(t):
        e = tuple(map(max, lm_exps[i], eh))
        cand.setdefault(e, []).append(i)

    minimal: list = []
    for e in sorted(cand, key=lambda e: (sum(e), e)):
        idxs = cand[e]
        if any(_divides(m, e) for m in minimal):
            stats.pairs_skipped_by_criteria += len(idxs)
            continue
        minimal.append(e)
        coprime = False
        for i in idxs:
            ei = lm_exps[i]
            if all(x == 0 or y == 0 for x, y in zip(ei, eh)):
                coprime = True
                break
        if coprime:
            stats.pairs_skipped_by_criteria += len(idxs)
        else:
            P.append(CriticalPair(min(idxs), t, e, pair_key(e) if pair_key else None))
            stats.pairs_skipped_by_criteria += len(idxs) - 1

    G.append(f)
    lm_exps.append(eh)


def _select_index(P, order, strategy) -> int:
    """Index of the preferred pair; ties broken by (i, j) for determinism."""
    best = 0
    if strategy.kind == WEIGHT_VECTOR:
        bk = (P[0].key, P[0].i, P[0].j)
        for idx in range(1, len(P)):
            pr = P[idx]
            k = (pr.key, pr.i, pr.j)
            if k < bk:
                best = idx
                bk = k
    else:
        cmp = order.cmp
        hb = order.attach(P[0].lcm_exps)
        for idx in range(1, len(P)):
            pr = P[idx]
            h = order.attach(pr.lcm_exps)
            c = cmp(h, hb)
            if c < 0 or (c == 0 and (pr.i, pr.j) < (P[best].i, P[best].j)):
                best = idx
                hb = h
    return best


def buchberger(F, *, strategy: SelectionStrategy | None = None,
               max_seconds: float | None = None,
               max_pairs: int | None = None) -> GroebnerResult:
    """Groebner basis of the ideal generated by F under the context order.

    Returns GroebnerResult(basis, stats, aborted). When a limit trips, the
    result has aborted=True and basis=None, with the stats gathered so far;
    the deadline is also probed inside long reductions so the overshoot stays
    bounded. The basis is not auto-reduced; see reduce_basis.

    The comparison and matrix-product counts in the stats are the order
    object's running totals at return, so work done while building the input
    polynomials (term sorting, weight materialization) is included. Use a
    fresh order per run, or reset_counters(), for per-run numbers.
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
    if strategy is None:
        strategy = SelectionStrategy.induced_order()
    if strategy.kind == WEIGHT_VECTOR and strategy.matrix.n != ctx.nvars:
        raise ValueError(
            f"selection matrix is {strategy.matrix.n}x{strategy.matrix.n}, "
            f"context has {ctx.nvars} variables")

    order = ctx.order
    stats = EngineStats()
    start = perf_counter()
    deadline = start + max_seconds if max_seconds is not None else None
    pair_key = strategy.matrix.weight_vector if strategy.kind == WEIGHT_VECTOR else None

    G: list = []
    lm_exps: list = []
    P: list = []

    # reducers: G resorted ascending by the strategy's preference, so the
    # first divisor found is the preferred one
    red_polys: list = []
    red_keys: list = []

    def insert_reducer(g: Polynomial, gi: int) -> None:
        if pair_key is not None:
            k = (pair_key(order.exps(g.leading_monomial())), gi)
            at = bisect.bisect_left(red_keys, k)
            red_keys.insert(at, k)
            red_polys.insert(at, g)
        else:
            lm = g.leading_monomial()
            cmp = order.cmp
            at = len(red_polys)
            for idx, other in enumerate(red_polys):
                if cmp(lm, other.leading_monomial()) < 0:
                    at = idx
                    break
            red_polys.insert(at, g)

    aborted = False
    basis = None
    try:
        for f in F:
            fm = f.monic()
            _update(G, lm_exps, P, fm, order, stats, pair_key)
            insert_reducer(fm, len(G) - 1)
        while P:
            if max_pairs is not None and stats.pairs_processed >= max_pairs:
                raise TimeLimitExceeded
            if deadline is not None and perf_counter() > deadline:
                raise TimeLimitExceeded
            pr = P.pop(_select_index(P, order, strategy))
            s = s_polynomial(G[pr.i], G[pr.j])
            stats.pairs_processed += 1
            r = reduce(s, red_polys, deadline=deadline, stats=stats)
            if not r.is_zero:
                rm = r.monic()
                _update(G, lm_exps, P, rm, order, stats, pair_key)
                insert_reducer(rm, len(G) - 1)
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
    order = G[0].context.order
    by_lm = cmp_to_key(lambda f, g: order.cmp(f.leading_monomial(), g.leading_monomial()))
    G_sorted = sorted(G, key=by_lm)
    minimal: list = []
    for g in G_sorted:
        e = order.exps(g.leading_monomial())
        if not any(_divides(order.exps(m.leading_monomial()), e) for m in minimal):
            minimal.append(g)
    out = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce(g, others)
        if not r.is_zero:
            out.append(r.monic())
    out.sort(key=by_lm)
    return out


_PROBE_STRIDE = 4096


def _packed_layout(order, G, F):
    """Bit layout for the integer-packed verifier, or None.

    Monomials and their sort keys pack into single big integers, one field
    per component (most significant first), so the inner loop is pure integer
    arithmetic and lexicographic key comparison becomes numeric comparison.
    Safe only when the key is integer-valued and degree-first (first key
    component = total degree): then every monomial met during top-reduction
    has degree at most that of the seed, which bounds every field. Returns
    (pack_key, pack_exps, mtop) where mtop masks the per-field guard bits of
    the divisibility test.
    """
    n = order.n
    try:
        unit_keys = [order.sort_key(tuple(int(j == i) for j in range(n)))
                     for i in range(n)]
    except NotImplementedError:
        return None
    vals = [v for uk in unit_keys for v in uk]
    if any(not isinstance(v, int) for v in vals):
        return None
    if any(uk[0] != 1 for uk in unit_keys):
        return None
    maxdeg = 1
    for poly in G + F:
        for _, e in poly.term_list():
            maxdeg = max(maxdeg, sum(e))
    # pending monomials never exceed twice the largest input degree (S-pair
    # lcms), and each key component is a weight row against such a monomial
    bound = 2 * maxdeg * max(1, max(abs(v) for v in vals)) + 1
    width = bound.bit_length() + 2
    bias = 1 << (width - 1)

    def pack_key(k) -> int:
        acc = 0
        for v in k:
            acc = (acc << width) | (v + bias)
        return acc

    def pack_exps(e) -> int:
        acc = 0
        for v in e:
            acc = (acc << width) | v
        return acc

    mtop = 0
    for _ in range(n):
        mtop = (mtop << width) | bias
    return pack_key, pack_exps, mtop


def _packed_basis(G, pack_key, pack_exps):
    order = G[0].context.order
    key_of = order.sort_key
    inv = G[0].context.field.inv
    prepped = []
    for g in G:
        terms = g.term_list()
        lm_c, lm_e = terms[0]
        lm_k = pack_key(key_of(lm_e))
        lm_ep = pack_exps(lm_e)
        tail = [(pack_key(key_of(e)) - lm_k, pack_exps(e) - lm_ep, c)
                for c, e in terms[1:]]
        prepped.append((lm_ep, inv(lm_c), tail))
    return prepped


def _sinks_packed(seed, prepped, p, mtop, deadline) -> bool:
    """Top-reduce the seed against the prepped basis; True iff it vanishes.

    Pending terms live in acc (packed key -> [coeff, packed exps]) with a heap
    of negated keys for max-first extraction; coefficients coalesce in the
    dict, so each distinct pending monomial sits in the heap once. The
    divisibility probe is the usual guard-bit trick: after adding the per-field
    bias, a subtraction leaves every guard bit set exactly when no field went
    negative.
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
        for lm_ep, inv_lc, tail in prepped:
            if (e - lm_ep + mtop) & mtop == mtop:
                break
        else:
            return False
        if deadline is not None:
            tick += 1
            if tick >= _PROBE_STRIDE:
                tick = 0
                if perf_counter() > deadline:
                    raise TimeLimitExceeded
        factor = (p - c) * inv_lc % p
        for dk, de, ct in tail:
            k2 = k + dk
            got = acc.get(k2)
            if got is None:
                acc[k2] = [factor * ct % p, e + de]
                heappush(heap, -k2)
            else:
                got[0] += factor * ct
    return True


def _verify_packed_route(G, F, order, p, deadline, layout) -> bool:
    pack_key, pack_exps, mtop = layout
    key_of = order.sort_key
    prepped = _packed_basis(G, pack_key, pack_exps)
    lm_raw = [g.term_list()[0].exps for g in G]
    for i in range(len(G)):
        _, inv_i, tail_i = prepped[i]
        for j in range(i + 1, len(G)):
            if deadline is not None and perf_counter() > deadline:
                raise TimeLimitExceeded
            _, inv_j, tail_j = prepped[j]
            big = tuple(map(max, lm_raw[i], lm_raw[j]))
            k_big = pack_key(key_of(big))
            e_big = pack_exps(big)
            seed = [(k_big + dk, e_big + de, inv_i * ct % p)
                    for dk, de, ct in tail_i]
            seed += [(k_big + dk, e_big + de, (p - inv_j) * ct % p)
                     for dk, de, ct in tail_j]
            if not _sinks_packed(seed, prepped, p, mtop, deadline):
                return False
    for f in F:
        seed = [(pack_key(key_of(e)), pack_exps(e), c) for c, e in f.term_list()]
        if not _sinks_packed(seed, prepped, p, mtop, deadline):
            return False
    return True


def verify_groebner(G, F=None, *, max_seconds: float | None = None) -> bool:
    """Criterion-free certificate check, independent of the engine's shortcuts.

    Confirms every S-polynomial of G reduces to zero (no pair is skipped, not
    even coprime ones) and, when F is given, that every input polynomial
    reduces to zero, so the input ideal is contained in the one G generates.
    Normal forms are recomputed on the verifier's own heap accumulator rather
    than the engine's merge reducer, so the two routes share no arithmetic.
    Monomials and keys are packed into single integers, which needs a
    degree-first order with integer weights (every order this package
    ships); any other order raises ValueError.
    """
    G = [g for g in G if not g.is_zero]
    F = list(F) if F is not None else []
    if not G:
        return all(f.is_zero for f in F)
    ctx = G[0].context
    for poly in G + F:
        if poly.context is not ctx:
            raise ValueError("polynomials from different contexts")
    order = ctx.order
    p = ctx.field.p
    deadline = perf_counter() + max_seconds if max_seconds is not None else None
    layout = _packed_layout(order, G, F)
    if layout is None:
        raise ValueError(f"verify_groebner needs a degree-first order with integer weights; "
                         f"{order.label} is not one")
    return _verify_packed_route(G, F, order, p, deadline, layout)


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
        W = order.matrix
        for ct in f.cached_term_list():
            recomputed = W.weight_vector(ct.term.exps)
            if tuple(ct.cached_weights) != recomputed:
                out.append((ct.term.exps, tuple(ct.cached_weights), recomputed))
    return out
