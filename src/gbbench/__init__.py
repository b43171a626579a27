"""gbbench: monomial-order comparators and a Groebner-basis order benchmark.

The package compares a subtotal (prefix-sum) total-degree order against
degree-reverse-lexicographic order, both as native comparators and as
equivalent weight-matrix orders, inside a Buchberger engine over Z_p.
"""

from .modfield import DEFAULT_MODULUS, PrimeField
from .ordering import (
    EQUAL,
    GREATER,
    LESS,
    WeightMatrix,
    cmp_degrevlex,
    cmp_lex,
    degrevlex_weight_matrix,
    identity_weight_matrix,
    is_admissible,
    orders_equivalent_certificate,
    orders_equivalent_oracle,
    subtotal_weight_matrix,
)
from .poly import PolyContext, Polynomial, reduce, s_polynomial
from .groebner import (
    EngineStats,
    GroebnerResult,
    audit_cached_weights,
    buchberger,
    reduce_basis,
    verify_failure,
    verify_groebner,
)
from .corpus import (
    SystemSpec,
    ParseError,
    bundled_systems,
    clear_denominators,
    cyclic_system,
    katsura_system,
    load_bundled,
    parse_system,
    realize,
    render_system,
    reorder_variables,
)
from .bench import (
    BenchmarkConfig,
    BenchmarkReport,
    comparator_microbench,
    published_reference_ratios,
    render_report,
    run_benchmark,
    summarize_ratios,
    timed_run,
    verify_order_robustness,
)

__version__ = "0.1.0"
