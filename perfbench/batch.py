"""The parts of a round: solve and verify, and the ordering part
(strategy cmp, comparator microbench, matrix checks).

Each part returns its timings and exact work counts. Every output check goes
through `Checks`, which counts the operations attempted and names each
failure.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from time import perf_counter

from workloads import MODULUS, ROSTER

CONFIG_LIMIT_S = 120.0


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def solve_part(pkg, workload, specs, checks: Checks, speed, tracer=None,
               between=None) -> dict:
    """realize + buchberger + reduce_basis per configuration, and
    verify_groebner of each (system, strategy) group's first reduced basis.

    Returns (raw seconds, speed factor) per configuration and per verify
    call, the exact work counts per configuration, and per-layer counts the
    spans cannot see. `between(k)` runs after the k-th configuration,
    outside every timing.
    """
    field = pkg.modfield.PrimeField(MODULUS)
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    solve: dict = {}
    verify: dict = {}
    counts: dict = {}
    layer = {"matvec_products": 0, "reduction_steps": 0, "pairs_processed": 0,
             "pairs_skipped": 0, "basis_size": 0, "verify_spairs": 0}
    done = 0
    for spec in specs:
        reference = None
        for kind in workload.strategies:
            first = None
            for label in ROSTER:
                key = (spec.name, label, kind)
                order = pkg.bench.order_factory(label)(spec.nvars)
                strategy = pkg.bench.strategy_for(label, spec.nvars, kind)
                if tracer is not None:
                    tracer.label = label
                    tracer.count_cmp(order)
                t0 = perf_counter()
                with span("realize"):
                    polys = pkg.corpus.realize(spec, order, field)
                with span("buchberger"):
                    res = pkg.groebner.buchberger(polys, strategy=strategy,
                                                  max_seconds=CONFIG_LIMIT_S)
                red = None
                if not res.aborted:
                    with span("reduce_basis"):
                        red = pkg.groebner.reduce_basis(res.basis)
                solve[key] = (perf_counter() - t0, speed.factor())
                done += 1
                if checks.check(not res.aborted, f"{key}: hit the {CONFIG_LIMIT_S:g} s limit"):
                    st = res.stats
                    counts[key] = (st.comparisons, order.comparisons, st.reduction_steps,
                                   st.pairs_processed, st.pairs_skipped_by_criteria,
                                   order.matvec_products, len(res.basis), len(red))
                    layer["matvec_products"] += order.matvec_products
                    layer["reduction_steps"] += st.reduction_steps
                    layer["pairs_processed"] += st.pairs_processed
                    layer["pairs_skipped"] += st.pairs_skipped_by_criteria
                    layer["basis_size"] += len(res.basis)
                    if isinstance(order, pkg.ordering.MatrixCachedOrder):
                        audit = (pkg.groebner.audit_cached_weights(res.basis)
                                 + pkg.groebner.audit_cached_weights(red))
                        checks.check(not audit, f"{key}: {len(audit)} cached weight "
                                                f"vectors differ")
                    tuples = [g.as_tuples() for g in red]
                    if reference is None:
                        reference = tuples
                    else:
                        checks.check(tuples == reference, f"{key}: reduced basis differs "
                                                          f"from the first configuration's")
                    if first is None:
                        first = (label, polys, red)
                if between is not None:
                    between(done)
            if first is None:
                continue
            label, polys, red = first
            if tracer is not None:
                tracer.label = label
            t0 = perf_counter()
            with span("verify"):
                ok = pkg.groebner.verify_groebner(red, polys)
            verify[(spec.name, kind)] = (perf_counter() - t0, speed.factor())
            checks.check(ok is True, f"{spec.name}/{kind}: verify_groebner rejected the "
                                     f"reduced basis")
            layer["verify_spairs"] += len(red) * (len(red) - 1) // 2 + len(polys)
    return {"solve": solve, "verify": verify, "counts": counts, "layer": layer}


def _pairs(rng, n: int, count: int, max_exponent: int, tied: bool) -> list:
    """Random exponent pairs; tied pairs share their total degree, so only the
    tie-break decides them."""
    out = []
    for _ in range(count):
        a = tuple(rng.randint(0, max_exponent) for _ in range(n))
        if tied:
            d = sum(a)
            cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
            b = tuple(hi - lo for lo, hi in zip([0] + cuts, cuts + [d]))
        else:
            b = tuple(rng.randint(0, max_exponent) for _ in range(n))
        out.append((a, b))
    return out


def prepare_pairs(pkg, workload, seed: int) -> list:
    """Seeded exponent pairs, once per run: (kind, pairs, expected
    cmp_degrevlex results) for the random and the tied kind."""
    rng = random.Random(seed)
    out = []
    for kind in ("random", "tied"):
        pairs = _pairs(rng, workload.n, workload.pairs, workload.max_exponent, kind == "tied")
        out.append((kind, pairs, [pkg.ordering.cmp_degrevlex(a, b) for a, b in pairs]))
    return out


def ordering_part(pkg, workload, pairs: list, checks: Checks, speed) -> dict:
    """Strategy cmp per call on the prepared pairs (raw ns), then
    comparator_microbench and the matrix checks ((raw seconds, speed factor)).

    Each order attaches the pairs to fresh handles outside the timing and
    drops them afterwards, so only one order's handles are alive at a time.
    """
    o = pkg.ordering
    cmp_ns: dict = {}
    for label in ROSTER:
        order = pkg.bench.order_factory(label)(workload.n)
        for kind, kind_pairs, expected in pairs:
            xs = [order.attach(a) for a, _ in kind_pairs]
            ys = [order.attach(b) for _, b in kind_pairs]
            t0 = perf_counter()
            got = list(map(order.cmp, xs, ys))
            cmp_ns[(label, kind)] = (perf_counter() - t0) / len(xs) * 1e9
            bad = sum(g != e for g, e in zip(got, expected))
            checks.check(not bad, f"{label} cmp disagrees with cmp_degrevlex on {bad} "
                                  f"{kind} pairs")
            del xs, ys, got

    t0 = perf_counter()
    mb = pkg.bench.comparator_microbench(workload.n, samples=workload.microbench_samples, seed=0)
    microbench = (perf_counter() - t0, speed.factor())
    checks.check(mb["samples"] == workload.microbench_samples and mb["degrevlex_seconds"] > 0
                 and mb["subtotal_seconds"] > 0, "comparator_microbench returned no timing")

    t0 = perf_counter()
    n = workload.n
    sub, deg = o.subtotal_weight_matrix(n), o.degrevlex_weight_matrix(n)
    checks.check(o.is_admissible(sub) and o.is_admissible(deg),
                 f"n={n}: a family matrix is not admissible")
    t1 = perf_counter()
    certs = (o.orders_equivalent_certificate(sub, deg), o.orders_equivalent_certificate(deg, sub))
    t2 = perf_counter()
    checks.check(all(c is not None for c in certs), f"n={n}: no equivalence certificate")
    m, d = workload.oracle_n, workload.oracle_degree
    witness = o.orders_equivalent_oracle(o.subtotal_weight_matrix(m),
                                         o.degrevlex_weight_matrix(m), d)
    t3 = perf_counter()
    check_matrix = (t3 - t0, speed.factor())
    checks.check(witness is None, f"oracle n={m} D={d}: orders differ on {witness}")
    return {"cmp_ns": cmp_ns, "microbench": microbench, "check_matrix": check_matrix,
            "certificate": t2 - t1, "oracle": t3 - t2}
