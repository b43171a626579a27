"""Command line interface: gbbench run | verify | microbench | check-matrix.

Exit codes: 0 success, 1 a verification or admissibility check failed,
2 usage or input error, 3 every requested computation hit its time limit.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import corpus
from .bench import (
    BenchmarkConfig,
    DEFAULT_ORDERS,
    DEFAULT_REFERENCE,
    DEFAULT_TIME_LIMIT,
    ORDER_LABELS,
    ORDERS,
    RENDERERS,
    comparator_microbench,
    render_report,
    run_benchmark,
    verify_order_robustness,
)
from .groebner import INDUCED_ORDER, STRATEGIES
from .modfield import DEFAULT_MODULUS, PrimeField
from .ordering import (
    DegRevLexOrder,
    WeightMatrix,
    is_admissible,
    orders_equivalent_certificate,
    orders_equivalent_oracle,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_ALL_ABORTED = 3


def _add_system_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bundled", action="append", default=[], metavar="KEY",
                   help=f"bundled system ({', '.join(corpus.BUNDLED_KEYS)}) or 'all'")
    p.add_argument("--cyclic", action="append", type=int, default=[], metavar="K",
                   help="generated cyclic-K system (repeatable)")
    p.add_argument("--katsura", action="append", type=int, default=[], metavar="K",
                   help="generated katsura-K system (repeatable)")
    p.add_argument("--system", "--systems", action="append", default=[], metavar="PATH",
                   help="system file in the corpus text format, or a directory "
                        "of *.txt system files (repeatable)")
    p.add_argument("--clear-denominators", action="store_true",
                   help="accept rational coefficients in system files and clear them")
    p.add_argument("--modulus", type=int, default=DEFAULT_MODULUS)
    p.add_argument("--time-limit", type=float, default=DEFAULT_TIME_LIMIT, metavar="SEC",
                   help="limit for each (system, order, strategy) configuration, "
                        "not for the whole command")


def _read_text(path, parser: argparse.ArgumentParser) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        parser.error(f"cannot read {path}: {e}")


def _collect_systems(args, parser: argparse.ArgumentParser) -> list:
    """The selected systems, after rejecting a time limit outside (0, inf), a
    bad modulus or a polynomial that vanishes mod p before any work starts."""
    if not 0 < args.time_limit < math.inf:
        parser.error("--time-limit must be positive and finite")
    specs = []
    try:
        for key in args.bundled:
            if key == "all":
                specs.extend(corpus.bundled_systems())
            else:
                specs.append(corpus.load_bundled(key))
        for k in args.cyclic:
            specs.append(corpus.cyclic_system(k))
        for k in args.katsura:
            specs.append(corpus.katsura_system(k))
        paths = []
        for path in args.system:
            p = Path(path)
            if p.is_dir():
                found = sorted(p.glob("*.txt"))
                if not found:
                    parser.error(f"no *.txt system files in directory {path}")
                paths.extend(found)
            else:
                paths.append(p)
        for p in paths:
            try:
                specs.append(corpus.parse_system(_read_text(p, parser), name=p.stem,
                                                 clear=args.clear_denominators))
            except corpus.ParseError as e:
                parser.error(f"{p}: {e}")
        if not specs:
            parser.error("no systems selected; use --bundled/--cyclic/--katsura/--system")
        field = PrimeField(args.modulus)
        for spec in specs:
            corpus.realize(spec, DegRevLexOrder(spec.nvars), field)
    except (KeyError, ValueError) as e:
        parser.error(e.args[0])
    return specs


def cmd_run(args, parser) -> int:
    specs = _collect_systems(args, parser)
    try:
        config = BenchmarkConfig(
            orders=tuple(s.strip() for s in args.orders.split(",") if s.strip()),
            reference=args.reference,
            strategy=args.strategy,
            modulus=args.modulus,
            max_seconds=args.time_limit,
            min_measure_seconds=args.min_measure,
            reorder=args.reorder_variables,
        )
    except ValueError as e:
        parser.error(str(e))
    if args.output not in (None, "-"):
        try:  # fail before the benchmark; the report itself is written at the end
            open(args.output, "a").close()
        except OSError as e:
            parser.error(f"cannot write {args.output}: {e}")
    report = run_benchmark(specs, config)
    text = render_report(report, args.format)
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        try:
            Path(args.output).write_text(text, encoding="utf-8")
        except OSError as e:
            parser.error(f"cannot write {args.output}: {e}")
    all_aborted = all(cell.aborted for row in report.rows for cell in row.cells.values())
    return EXIT_ALL_ABORTED if all_aborted else EXIT_OK


def cmd_verify(args, parser) -> int:
    specs = _collect_systems(args, parser)
    strategies = tuple(STRATEGIES) if args.strategies == "both" else (args.strategies,)
    any_bad = False
    any_completed = False
    for spec in specs:
        res = verify_order_robustness(
            spec, modulus=args.modulus, max_seconds=args.time_limit,
            strategies=strategies)
        if res.aborted:
            label, kind = res.aborted[0]
            print(f"{spec.name}: ABORTED at {label}/{kind} "
                  f"after {len(res.completed)} completed configs")
            continue
        any_completed = True
        parts = [f"configs={len(res.completed)}", f"basis={res.basis_size}"]
        if res.bases_match is False:
            parts.append("bases=DIFFER")
        else:
            parts.append("bases=identical")
        if res.verified is False:
            a, b = res.failure
            where = f"input {b}" if a == "input" else f"S-pair {a},{b}"
            parts.append(f"verified=NO ({where})")
        elif res.verified:
            parts.append("verified=yes")
        if res.audits_clean is False:
            parts.append("weight-audit=DIRTY")
        elif res.audits_clean:
            parts.append("weight-audit=clean")
        print(f"{spec.name}: {'OK' if res.ok else 'FAILED'}  " + "  ".join(parts))
        any_bad = any_bad or not res.ok
    if any_bad:
        return EXIT_CHECK_FAILED
    if not any_completed:
        return EXIT_ALL_ABORTED
    return EXIT_OK


def cmd_microbench(args, parser) -> int:
    try:
        res = comparator_microbench(args.vars, samples=args.samples, seed=args.seed,
                                    max_exponent=args.max_exponent)
    except ValueError as e:
        parser.error(str(e))
    print(f"comparator microbench  n={res['n']}  samples={res['samples']}  "
          f"seed={res['seed']}  max-exponent={res['max_exponent']}")
    print(f"  degrevlex: {res['degrevlex_seconds']:.4f} s")
    print(f"  subtotal:  {res['subtotal_seconds']:.4f} s")
    print(f"  ratio subtotal/degrevlex: {res['ratio_subtotal_over_degrevlex']:.3f}")
    return EXIT_OK


def _load_matrix(path: str, parser) -> WeightMatrix:
    try:
        return WeightMatrix.from_text(_read_text(path, parser))
    except ValueError as e:
        parser.error(f"{path}: {e}")


def cmd_check_matrix(args, parser) -> int:
    if args.oracle_degree is not None and args.against is None:
        parser.error("--oracle-degree needs --against")
    # every input error, the oracle's bound included, is found before any output
    w = _load_matrix(args.matrix, parser)
    w2 = witness = None
    if args.against:
        w2 = _load_matrix(args.against, parser)
        if w2.n != w.n:
            parser.error(f"size mismatch: {w.n} vs {w2.n}")
        if args.oracle_degree is not None:
            try:
                witness = orders_equivalent_oracle(w, w2, args.oracle_degree)
            except ValueError as e:
                parser.error(str(e))
    admissible = is_admissible(w)
    print(f"{args.matrix}: {w.n}x{w.n}, admissible={'yes' if admissible else 'no'}")
    bad = not admissible
    # informational: does this matrix induce the roster's order families?
    # Each family is named by the first roster label that uses it.
    families: dict = {}
    for label, (_, family) in ORDERS.items():
        families.setdefault(family, label)
    for family, fam_name in families.items():
        try:
            cert = orders_equivalent_certificate(w, family(w.n))
        except ValueError:
            cert = None
        print(f"  same order as {fam_name}(n={w.n}): {'yes' if cert is not None else 'no'}")
    if w2 is not None:
        try:
            cert = orders_equivalent_certificate(w2, w)
        except ValueError:
            cert = None
        if cert is not None:
            print(f"equivalent to {args.against}: yes (lower-triangular certificate)")
        else:
            print(f"equivalent to {args.against}: no certificate")
            bad = True
        if witness is not None:
            print(f"oracle: orders differ on {witness[0]} vs {witness[1]}")
            bad = True
        elif args.oracle_degree is not None:
            print(f"oracle (entries <= {args.oracle_degree}): orders agree")
    return EXIT_CHECK_FAILED if bad else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbbench",
        description="Groebner-basis order benchmark: subtotal vs degRevLex, "
                    "native comparators vs weight matrices.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="time Groebner runs across orders and report ratios")
    _add_system_args(p_run)
    p_run.add_argument("--orders", default=",".join(DEFAULT_ORDERS),
                       help=f"comma-separated order labels (known: {', '.join(ORDER_LABELS)})")
    p_run.add_argument("--reference", default=DEFAULT_REFERENCE,
                       help="denominator of the ratio columns")
    p_run.add_argument("--strategy", choices=tuple(STRATEGIES),
                       default=INDUCED_ORDER, help="critical-pair selection strategy")
    p_run.add_argument("--min-measure", type=float, default=1.0, metavar="SEC",
                       help="repeat runs until the cumulative time exceeds this")
    p_run.add_argument("--reorder-variables", action="store_true",
                       help="apply the occurrence-count variable reordering heuristic")
    p_run.add_argument("--format", choices=tuple(RENDERERS), default="text")
    p_run.add_argument("--output", "-o", default=None, metavar="PATH")
    p_run.set_defaults(func=cmd_run, parser=p_run)

    p_ver = sub.add_parser("verify", help="cross-check bases across every order and strategy")
    _add_system_args(p_ver)
    p_ver.add_argument("--strategies", choices=("both", *STRATEGIES),
                       default="both")
    p_ver.set_defaults(func=cmd_verify, parser=p_ver)

    p_mb = sub.add_parser("microbench", help="time the bare comparators on random data")
    p_mb.add_argument("--vars", type=int, default=8)
    p_mb.add_argument("--samples", type=int, default=1_000_000)
    p_mb.add_argument("--seed", type=int, default=0)
    p_mb.add_argument("--max-exponent", type=int, default=30)
    p_mb.set_defaults(func=cmd_microbench, parser=p_mb)

    p_cm = sub.add_parser("check-matrix", help="admissibility and order-equivalence checks")
    p_cm.add_argument("matrix", help="weight-matrix file (first line n, then n rows)")
    p_cm.add_argument("--against", default=None, metavar="PATH",
                      help="second matrix to test for order equivalence")
    p_cm.add_argument("--oracle-degree", type=int, default=None, metavar="D",
                      help="with --against, also brute-force compare on exponents up to D")
    p_cm.set_defaults(func=cmd_check_matrix, parser=p_cm)
    return parser


def main(argv=None) -> int:
    # system names and reports are UTF-8 whatever the locale; the stream keeps
    # its error handler, so an undecodable path from argv is echoed as given
    sys.stdout.reconfigure(encoding="utf-8", errors=sys.stdout.errors)
    # every input error, unknown options included, prints the subcommand's
    # usage line, not the top-level one
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    return args.func(args, args.parser)


if __name__ == "__main__":
    sys.exit(main())
