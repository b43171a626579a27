"""gbbench benchmark: one workload, one process, no threads.

    python3 perfbench/run.py --workload dense --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository: the package is imported from src/.
The run sets up the workload several times (import, systems, orders) and
reports the median, then repeats the workload's batch (see workloads.py)
until --seconds have passed and reports the median over rounds. Every round
checks its outputs, and its exact work counts must repeat round after round.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced rounds, prints the per-layer metrics from the traced ones and the
tracing overhead against the untraced ones, and writes the spans to
.perfbench/trace-<workload>-seed<seed>.jsonl. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
from statistics import median
from time import perf_counter

from batch import Checks, ordering_part, prepare_pairs, solve_part
from spans import Tracer, self_totals
from speed import Speed
from workloads import ROSTER, WORKLOADS, configurations, import_package, load_systems

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 15
LAYER_TIMES = (("corpus.realize_s", "realize"), ("groebner.pairs_s", "buchberger"),
               ("poly.spoly_s", "spoly"), ("poly.reduce_s", "reduce"),
               ("groebner.reduce_basis_s", "reduce_basis"))
CMP_SPANS = (("input", "realize"), ("spoly", "spoly"), ("reduce", "reduce"),
             ("select", "buchberger"), ("reduce_basis", "reduce_basis"))
UNITS = {"_s": "s", "_frac": "ratio", "_ns": "ns", "_mb": "MB", "_per_step": "count/step"}


def unit_of(name: str) -> str:
    for part in name.split("."):
        for suffix, unit in UNITS.items():
            if part.endswith(suffix):
                return unit
    return "count"


def raw(unit: tuple) -> float:
    """A timed unit's (raw seconds, speed factor) as measured wall seconds."""
    return unit[0]


def scaled(unit: tuple) -> float:
    """A timed unit's (raw seconds, speed factor) as seconds at reference speed."""
    return unit[0] * unit[1]


def setup(workload, seed: int, speed: Speed) -> tuple:
    """Import, load or generate the systems, build the orders and weight
    matrices; repeated, so set-up time is a median. Returns the last set-up."""
    totals, loads = [], []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        pkg = import_package()
        t1 = perf_counter()
        specs = load_systems(pkg, workload, seed)
        t2 = perf_counter()
        for spec in specs:
            for label, kind in configurations(workload):
                pkg.bench.order_factory(label)(spec.nvars)
                pkg.bench.strategy_for(label, spec.nvars, kind)
        totals.append((perf_counter() - t0, speed.factor()))
        loads.append(t2 - t1)
    return pkg, specs, totals, median(loads)


def traced_layers(tracer, first: int, solve_part_out: dict, inv0: int, cmp0: int) -> dict:
    tot = self_totals(tracer.spans, first)
    out: dict = {}
    for metric, span in LAYER_TIMES:
        per = {label: tot[(span, label)]["s"] for label in ROSTER if (span, label) in tot}
        out[metric] = sum(per.values())
        for label, v in per.items():
            out[f"{metric}.{label}"] = v
    for site, span in CMP_SPANS:
        out[f"ordering.cmp_calls.{site}"] = sum(v["cmp"] for (s, _), v in tot.items() if s == span)
    out["ordering.cmp_calls"] = tracer.cmp - cmp0
    out["modfield.inv_calls"] = tracer.inv - inv0
    reduces = [v for (s, _), v in tot.items() if s == "reduce"]
    out["poly.reduce_calls"] = sum(v["calls"] for v in reduces)
    out["poly.spoly_calls"] = sum(v["calls"] for (s, _), v in tot.items() if s == "spoly")
    out["groebner.verify_s"] = sum(v["s"] for (s, _), v in tot.items() if s == "verify")
    out["trace.solve_s"] = sum(map(raw, solve_part_out["solve"].values()))
    traced_s = out["trace.solve_s"] + sum(map(raw, solve_part_out["verify"].values()))
    out["trace.attributed_frac"] = sum(v["s"] for v in tot.values()) / traced_s
    layer = solve_part_out["layer"]
    out["poly.reduction_steps"] = layer["reduction_steps"]
    out["poly.cmp_per_step"] = out["ordering.cmp_calls.reduce"] / max(1, layer["reduction_steps"])
    out["groebner.useful_pair_frac"] = (sum(v["nonzero"] for v in reduces)
                                        / max(1, out["poly.reduce_calls"]))
    out["ordering.matvec_products"] = layer["matvec_products"]
    for k in ("pairs_processed", "pairs_skipped", "basis_size", "verify_spairs"):
        out[f"groebner.{k}"] = layer[k]
    return out


def report_counts(workload, specs, counts: dict) -> None:
    """Print the exact work counts and whether the orders' comparison counts agree."""
    print("# work counts per configuration, identical in every round: system strategy order "
          "| comparisons(buchberger) comparisons(+reduce_basis) reduction_steps "
          "pairs_processed pairs_skipped matvec_products basis reduced_basis")
    for (name, label, kind), c in counts.items():
        print(f"#   {name} {kind} {label} | {' '.join(map(str, c))}")
    for spec in specs:
        for kind in workload.strategies:
            cmps = {label: counts[(spec.name, label, kind)][0]
                    for label in ROSTER if (spec.name, label, kind) in counts}
            verdict = (f"equal across the orders ({next(iter(cmps.values()))})"
                       if len(set(cmps.values())) == 1
                       else "DIFFER across the orders " + json.dumps(cmps))
            print(f"# comparison counts for {spec.name}/{kind}: {verdict}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gbbench", "__init__.py")):
        print(f"perfbench: no gbbench package under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    speed = Speed()
    pkg, specs, setups, load_s = setup(workload, args.seed, speed)
    if not os.path.abspath(pkg.groebner.__file__).startswith(SRC + os.sep):
        print(f"perfbench: gbbench imported from {pkg.groebner.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    print(f"# perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print(f"# python={platform.python_version()} ({platform.python_implementation()}) "
          f"cores={os.cpu_count()} machine={platform.machine()} platform={platform.platform()}")
    for spec in specs:
        print(f"# system {spec.name}: {spec.nvars} vars, {len(spec.polynomials)} polys, "
              f"degrees {spec.degree_multiset()}; configurations "
              f"{len(configurations(workload))}")

    pairs = prepare_pairs(pkg, workload, args.seed)
    checks = Checks()
    tracer = Tracer() if args.trace else None
    rounds = {"untraced": [], "traced": []}
    baseline_counts = None
    deadline = perf_counter() + args.seconds
    i = 0
    while True:
        traced = bool(args.trace) and i % 2 == 1
        samples: list = []

        def between(done: int) -> None:
            if done % workload.ordering_every == 0:
                samples.append(ordering_part(pkg, workload, pairs, checks, speed))

        gc.collect()
        if traced:
            first, inv0, cmp0 = len(tracer.spans), tracer.inv, tracer.cmp
            with tracer.installed(pkg):
                sp = solve_part(pkg, workload, specs, checks, speed, tracer, between)
            sp["layers"] = traced_layers(tracer, first, sp, inv0, cmp0)
        else:
            sp = solve_part(pkg, workload, specs, checks, speed, between=between)
        sp["ordering"] = samples
        if baseline_counts is None:
            baseline_counts = sp["counts"]
        else:
            checks.check(sp["counts"] == baseline_counts,
                         f"round {i}: work counts differ from round 0")
        rounds["traced" if traced else "untraced"].append(sp)
        i += 1
        if perf_counter() >= deadline and (not args.trace or i % 2 == 0):
            break

    ordering = [o for sp in rounds["untraced"] + rounds["traced"] for o in sp["ordering"]]
    print(f"# rounds: {len(rounds['untraced'])} untraced, {len(rounds['traced'])} traced; "
          f"ordering-part samples: {len(ordering)}")
    report_counts(workload, specs, baseline_counts)
    untraced = rounds["untraced"]

    def solve_median(label=None, value=scaled, rs=untraced) -> float:
        return median([sum(value(v) for (_, lab, _), v in sp["solve"].items()
                           if label in (None, lab)) for sp in rs])

    e2e = {"solve_s": solve_median()}
    e2e.update({f"solve_s.{label}": solve_median(label) for label in ROSTER})
    e2e["verify_s"] = median([scaled(v) for sp in untraced for v in sp["verify"].values()])
    e2e["microbench_s"] = median([scaled(o["microbench"]) for o in ordering])
    e2e["check_matrix_s"] = median([scaled(o["check_matrix"]) for o in ordering])
    e2e["setup_s"] = median([scaled(u) for u in setups])
    unscaled = {"solve_s": solve_median(value=raw),
                "verify_s": median([raw(v) for sp in untraced for v in sp["verify"].values()]),
                "microbench_s": median([raw(o["microbench"]) for o in ordering]),
                "check_matrix_s": median([raw(o["check_matrix"]) for o in ordering]),
                "setup_s": median([raw(u) for u in setups])}
    print("# unscaled wall-time medians: "
          + " ".join(f"{k}={v:.6g}" for k, v in unscaled.items())
          + f"; speed factor median {median(speed.factors):.4f} "
            f"(min {min(speed.factors):.4f}, max {max(speed.factors):.4f})")
    for ref in ("degrevlex", "grevlex-matrix"):
        for label in ROSTER:
            if label != ref:
                print(f"# ratio (informational) solve_s.{label}/solve_s.{ref} = "
                      f"{e2e[f'solve_s.{label}'] / e2e[f'solve_s.{ref}']:.4f}")
    for what in checks.failures:
        print(f"# FAILED {what}")

    if not args.trace:
        metrics = e2e
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        layer_rounds = [sp["layers"] for sp in rounds["traced"]]
        metrics = {k: median([lr[k] for lr in layer_rounds]) for k in layer_rounds[0]}
        for label in ROSTER:
            for kind in ("random", "tied"):
                metrics[f"ordering.cmp_ns.{label}.{kind}"] = median(
                    [o["cmp_ns"][(label, kind)] for o in ordering])
        metrics["ordering.certificate_s"] = median([o["certificate"] for o in ordering])
        metrics["ordering.oracle_s"] = median([o["oracle"] for o in ordering])
        metrics["trace.verify_s"] = median([raw(v) for sp in rounds["traced"]
                                            for v in sp["verify"].values()])
        metrics["corpus.load_s"] = load_s
        # Compared at reference speed, as traced and untraced rounds alternate
        # while the host's speed drifts. Round 0 runs cold (first calls, empty
        # allocator pools); traced rounds never do.
        untraced_solve = solve_median(rs=untraced[1:] or untraced)
        traced_solve = solve_median(rs=rounds["traced"])
        metrics["trace.overhead_frac"] = traced_solve / untraced_solve - 1
        metrics["failed_frac"] = len(checks.failures) / checks.attempted
        os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
        path = os.path.join(ROOT, ".perfbench", f"trace-{workload.name}-seed{args.seed}.jsonl")
        tracer.write(path)
        print(f"# spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}")
        layer_s = [m for m, _ in LAYER_TIMES] + ["groebner.verify_s"]
        total = sum(metrics[m] for m in layer_s)
        for m in layer_s:
            print(f"# layer self time {m}: {metrics[m]:.4f} s ({metrics[m] / total:.1%})")
        print(f"# tracing overhead on solve_s: {metrics['trace.overhead_frac']:+.3%} (at "
              f"reference speed: traced {traced_solve:.4f} s, untraced {untraced_solve:.4f} s); "
              f"layer self times cover {metrics['trace.attributed_frac']:.3%} of the traced "
              f"solve and verify time")

    print(json.dumps({
        "correct": not checks.failures,
        "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
