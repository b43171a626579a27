"""The benchmark under perfbench/ still runs against the package.

perfbench reaches into gbbench from outside (groebner.reduce and
s_polynomial, PrimeField.inv, bench.order_factory and strategy_for,
comparator_microbench and the ordering checks), so a change to that API
would break the benchmark without failing any package test. This runs one
traced round of its solve and ordering parts on a tiny workload.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def test_perfbench_parts_run_clean(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import batch
    import spans
    import workloads

    # the modules as already imported, not workloads.import_package, which
    # reloads the package under every other test's feet
    pkg = SimpleNamespace(**{m: importlib.import_module(f"gbbench.{m}")
                             for m in workloads.MODULES})
    workload = workloads.Workload(
        "contract", "lichtblau3", (workloads.INDUCED, workloads.WEIGHT), ordering_every=12,
        n=3, pairs=50, max_exponent=6, microbench_samples=200, oracle_n=2, oracle_degree=2)
    speed = SimpleNamespace(factor=lambda: 1.0)
    checks = batch.Checks()
    tracer = spans.Tracer()

    specs = workloads.load_systems(pkg, workload, seed=1)
    with tracer.installed(pkg):
        solved = batch.solve_part(pkg, workload, specs, checks, speed, tracer)
    pairs = batch.prepare_pairs(pkg, workload, seed=1)
    ordered = batch.ordering_part(pkg, workload, pairs, checks, speed)

    assert checks.failures == []
    assert len(solved["solve"]) == len(workloads.configurations(workload))
    assert len(solved["verify"]) == len(workload.strategies)
    assert len(ordered["cmp_ns"]) == 2 * len(workloads.ROSTER)
    traced = {name for name, _ in spans.self_totals(tracer.spans)}
    assert {"reduce", "spoly", "verify"} <= traced
    assert tracer.inv > 0 and tracer.cmp > 0
