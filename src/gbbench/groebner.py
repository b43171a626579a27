"""Buchberger's algorithm over Z_p, generic over order and pair selection.

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
from operator import mul
from time import perf_counter
from typing import NamedTuple

from .ordering import MatrixCachedOrder, WeightMatrix
from .poly import Polynomial, Reducers, TimeLimitExceeded, reduce, s_polynomial

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


def _select_index(P, order, pair_key) -> int:
    """Index of the preferred pair; ties broken by (i, j) for determinism."""
    best = 0
    if pair_key is not None:
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


def buchberger(F, *, strategy: WeightMatrix | None = None,
               max_seconds: float | None = None,
               max_pairs: int | None = None) -> GroebnerResult:
    """Groebner basis of the ideal generated by F under the context order.

    The next critical pair is the one whose lcm is smallest: under the run's
    own order when strategy is None, else by the lcm's weight vector under
    the strategy matrix, compared lexicographically (ties fall back to pair
    indices either way). The same preference orders the reducers.

    Returns GroebnerResult(basis, stats, aborted). When a limit trips, the
    result has aborted=True and basis=None, with the stats gathered so far;
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
    if strategy is not None and strategy.n != ctx.nvars:
        raise ValueError(f"selection matrix is {strategy.n}x{strategy.n}, "
                         f"context has {ctx.nvars} variables")

    order = ctx.order
    stats = EngineStats()
    start = perf_counter()
    deadline = start + max_seconds if max_seconds is not None else None
    pair_key = strategy.weight_vector if strategy is not None else None

    G: list = []
    lm_exps: list = []
    P: list = []

    # reducers: G resorted ascending by the strategy's preference, so the
    # first divisor found is the preferred one
    reducers = Reducers(ctx)
    red_keys: list = []

    def insert_reducer(g: Polynomial, gi: int) -> None:
        if pair_key is not None:
            k = (pair_key(order.exps(g.leading_monomial())), gi)
            at = bisect.bisect_left(red_keys, k)
            red_keys.insert(at, k)
        else:
            lm = g.leading_monomial()
            cmp = order.cmp
            at = len(reducers.entries)
            for idx, entry in enumerate(reducers.entries):
                if cmp(lm, entry[0]) < 0:
                    at = idx
                    break
        reducers.insert(at, g)

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
            pr = P.pop(_select_index(P, order, pair_key))
            s = s_polynomial(G[pr.i], G[pr.j])
            stats.pairs_processed += 1
            r = reduce(s, reducers, deadline=deadline, stats=stats)
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
    ctx = G[0].context
    order = ctx.order
    by_lm = cmp_to_key(lambda f, g: order.cmp(f.leading_monomial(), g.leading_monomial()))
    G_sorted = sorted(G, key=by_lm)
    minimal: list = []
    for g in G_sorted:
        e = order.exps(g.leading_monomial())
        if not any(_divides(order.exps(m.leading_monomial()), e) for m in minimal):
            minimal.append(g)
    # one table for every element: each term below lm(g) is smaller than
    # lm(g), so none is divisible by it and g never fires on its own tail
    table = Reducers(ctx, minimal)
    out = []
    for g in minimal:
        tail = reduce(Polynomial(ctx, g.terms[1:]), table)
        out.append(Polynomial(ctx, g.terms[:1] + tail.terms).monic())
    out.sort(key=by_lm)
    return out


_PROBE_STRIDE = 4096


def _packed_layout(order, G, F):
    """Bit layout for the integer-packed verifier.

    Monomials and their weight vectors under order.matrix pack into single
    big integers, one field per component (most significant first), so the
    inner loop is pure integer arithmetic and lexicographic weight comparison
    becomes numeric comparison. Safe only when the matrix is integer and
    degree-first (first row all ones): then every monomial met during
    top-reduction has degree at most that of the seed, which bounds every
    field; any other order raises ValueError. The packed key is linear in the
    exponents, key(e) = bias + sum(e_i * K_i) with K_i the packed column i.
    Returns (pack_key, pack_exps, mtop) where mtop masks the per-field guard
    bits of the divisibility test.
    """
    rows = order.matrix.int_rows
    if rows is None or any(v != 1 for v in rows[0]):
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

    def pack_key(e) -> int:
        return mtop + sum(map(mul, e, cols))

    def pack_exps(e) -> int:
        acc = 0
        for v in e:
            acc = (acc << width) | v
        return acc

    return pack_key, pack_exps, mtop


def _packed_basis(G, pack_key, pack_exps):
    inv = G[0].context.field.inv
    prepped = []
    for g in G:
        terms = g.as_tuples()
        lm_e, lm_c = terms[0]
        lm_k = pack_key(lm_e)
        lm_ep = pack_exps(lm_e)
        tail = [(pack_key(e) - lm_k, pack_exps(e) - lm_ep, c)
                for e, c in terms[1:]]
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


def verify_groebner(G, F=None, *, max_seconds: float | None = None) -> bool:
    """Criterion-free certificate check, independent of the engine's shortcuts.

    Confirms every S-polynomial of G reduces to zero (no pair is skipped, not
    even coprime ones) and, when F is given, that every input polynomial
    reduces to zero, so the input ideal is contained in the one G generates.
    Normal forms are recomputed on the verifier's own heap accumulator rather
    than the engine's merge reducer, so the two routes share no arithmetic.
    Monomials and keys are packed into single integers, which needs the
    order's weight matrix to be integer and degree-first (every order this
    package ships); any other order raises ValueError.
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
    pack_key, pack_exps, mtop = _packed_layout(order, G, F)
    prepped = _packed_basis(G, pack_key, pack_exps)
    lm_raw = [order.exps(g.leading_monomial()) for g in G]
    for i in range(len(G)):
        _, inv_i, tail_i = prepped[i]
        for j in range(i + 1, len(G)):
            if deadline is not None and perf_counter() > deadline:
                raise TimeLimitExceeded
            _, inv_j, tail_j = prepped[j]
            big = tuple(map(max, lm_raw[i], lm_raw[j]))
            k_big = pack_key(big)
            e_big = pack_exps(big)
            seed = [(k_big + dk, e_big + de, inv_i * ct % p)
                    for dk, de, ct in tail_i]
            seed += [(k_big + dk, e_big + de, (p - inv_j) * ct % p)
                     for dk, de, ct in tail_j]
            if not _sinks_packed(seed, prepped, p, mtop, deadline):
                return False
    for f in F:
        seed = [(pack_key(e), pack_exps(e), c) for e, c in f.as_tuples()]
        if not _sinks_packed(seed, prepped, p, mtop, deadline):
            return False
    return True


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
