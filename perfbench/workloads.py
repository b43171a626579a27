"""Workload definitions, the order roster and the seeded dense-system generator.

Every workload is one closed batch of calls into gbbench's public functions,
run in a single process with no threads. A batch has the same four parts in
every workload, one per user-facing command, so every run reports every
end-to-end metric:

* solve:   realize + buchberger + reduce_basis per (system, order, strategy)
* verify:  verify_groebner of each system's reduced basis against its inputs
* microbench: comparator_microbench at a fixed sample count and seed
* check-matrix: is_admissible, orders_equivalent_certificate and a bounded
  orders_equivalent_oracle on the degRevLex and subtotal matrix families

The inputs decide which layer dominates: `dense` and `sparse` carry a large
solve part and a small ordering part, `orders` the reverse.
"""

from __future__ import annotations

import importlib
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

MODULUS = 32003
ROSTER = (
    "degrevlex",
    "subtotal",
    "grevlex-matrix",
    "subtotal-matrix",
    "grevlex-matrix-direct",
    "subtotal-matrix-direct",
)
INDUCED = "induced-order"
WEIGHT = "weight-vector"
MODULES = ("corpus", "ordering", "poly", "groebner", "modfield", "bench")
# Shape of the generated dense system: one polynomial per entry, each with
# every monomial of that total degree or less in len(DENSE_DEGREES) variables.
DENSE_DEGREES = (3, 3, 3, 2)


@dataclass(frozen=True)
class Workload:
    name: str
    systems: str                 # "dense" (generated from the seed) or a bundled key
    strategies: tuple
    ordering_every: int          # configurations between two runs of the ordering part
    n: int                       # variable count of the ordering part and certificates
    pairs: int                   # exponent pairs per kind (random, tied) per order
    max_exponent: int
    microbench_samples: int
    oracle_n: int
    oracle_degree: int


# Machine speed on a shared host drifts over seconds, so the small ordering
# part runs several times per `sparse` round (whose rounds are long) to spread
# its samples over the run.
WORKLOADS = {
    w.name: w for w in (
        Workload("dense", "dense", (INDUCED,), ordering_every=6, n=4, pairs=4000,
                 max_exponent=12, microbench_samples=20000,
                 oracle_n=3, oracle_degree=4),
        Workload("sparse", "lichtblau1", (INDUCED, WEIGHT), ordering_every=3, n=9, pairs=3000,
                 max_exponent=12, microbench_samples=10000,
                 oracle_n=3, oracle_degree=4),
        Workload("orders", "lichtblau3", (INDUCED, WEIGHT), ordering_every=12, n=8,
                 pairs=10000, max_exponent=30, microbench_samples=50000,
                 oracle_n=4, oracle_degree=3),
    )
}


def import_package() -> SimpleNamespace:
    """Import gbbench afresh: drop any loaded copy so the module bodies run again."""
    for name in [m for m in sys.modules if m == "gbbench" or m.startswith("gbbench.")]:
        del sys.modules[name]
    importlib.import_module("gbbench")
    return SimpleNamespace(**{m: importlib.import_module(f"gbbench.{m}") for m in MODULES})


def dense_system(pkg, seed: int):
    """Dense system with full support and random nonzero coefficients mod p.

    The seed changes only the coefficients, so the shape and the work per
    configuration stay level across seeds.
    """
    rng = random.Random(seed)
    n = len(DENSE_DEGREES)
    polys = []
    for d in DENSE_DEGREES:
        monomials = [e for e in product(range(d + 1), repeat=n) if sum(e) <= d]
        polys.append(tuple((Fraction(rng.randrange(1, MODULUS)), e) for e in monomials))
    return pkg.corpus.SystemSpec(
        name=f"dense-{'.'.join(map(str, DENSE_DEGREES))}-seed{seed}",
        variables=tuple(f"x{i + 1}" for i in range(n)),
        polynomials=tuple(polys),
        provenance=f"perfbench dense generator, seed {seed}",
    )


def load_systems(pkg, workload: Workload, seed: int) -> list:
    if workload.systems == "dense":
        return [dense_system(pkg, seed)]
    return [pkg.corpus.load_bundled(workload.systems)]


def configurations(workload: Workload):
    """(order label, strategy kind) pairs in run order."""
    return [(label, kind) for kind in workload.strategies for label in ROSTER]
