"""Polynomial-system corpus: text format, generators, bundled benchmark systems.

System file format, line oriented, '#' starts a comment line:

    name: cyclic-4                (optional)
    provenance: where it is from  (optional)
    vars: x1 x2 x3 x4             (required, before any poly line; most main first)
    poly: x1 + x2 + x3 + x4       (one line per polynomial)

Polynomial grammar: terms joined by + and -, each term an optional integer or
rational coefficient followed by variable factors; '^' raises to a
nonnegative integer power and '*' between factors is optional. Integers are
runs of decimal digits. Rational coefficients are rejected unless denominator
clearing is requested. Raw term lists are preserved exactly (order,
duplicates, explicit zeros), so parse(render(spec)) == spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .modfield import PrimeField
from .ordering import MonomialOrder
from .poly import PolyContext, format_terms

class ParseError(ValueError):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {msg}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class SystemSpec:
    """A polynomial system in exact form, independent of field and order.

    polynomials is a tuple of term tuples; each term is (coeff, exps) with a
    Fraction coefficient and an exponent tuple aligned with variables.
    """

    name: str
    variables: tuple
    polynomials: tuple
    provenance: str = ""

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def degree_multiset(self) -> tuple:
        """Total degrees of the polynomials, sorted descending."""
        degs = []
        for terms in self.polynomials:
            degs.append(max((sum(e) for _, e in terms), default=0))
        return tuple(sorted(degs, reverse=True))

    def has_rational_coeffs(self) -> bool:
        return any(c.denominator != 1 for terms in self.polynomials for c, _ in terms)


def _tokenize_poly(s: str, lineno: int, col0: int, names_longest_first) -> list:
    """(kind, value, column) tokens, closed by an end token at the end of the line."""
    toks = []
    i = 0
    while i < len(s):
        ch = s[i]
        j = i + 1
        if ch in "+-^*/":
            toks.append((ch, ch, col0 + i))
        elif ch.isdecimal():  # exactly the digits int() accepts
            while j < len(s) and s[j].isdecimal():
                j += 1
            try:
                toks.append(("int", int(s[i:j]), col0 + i))
            except ValueError:  # more digits than sys.get_int_max_str_digits() allows
                raise ParseError(f"integer of {j - i} digits is too long", lineno, col0 + i) from None
        elif ch.isalpha() or ch == "_":
            for nm in names_longest_first:
                if s.startswith(nm, i):
                    break
            else:
                while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                    j += 1
                raise ParseError(f"undeclared variable {s[i:j]!r}", lineno, col0 + i)
            toks.append(("var", nm, col0 + i))
            j = i + len(nm)
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", lineno, col0 + i)
        i = j
    toks.append(("end", None, col0 + len(s)))
    return toks


_OPERAND_ERRORS = {"/": "expected an integer denominator",
                   "^": "expected an integer exponent after '^'"}


def _operand(toks, i: int, lineno: int) -> int:
    """The integer after the operator toks[i]; an operator's operand must be one."""
    if toks[i + 1][0] != "int":
        raise ParseError(_OPERAND_ERRORS[toks[i][0]], lineno, toks[i][2])
    return toks[i + 1][1]


def _parse_poly(s: str, lineno: int, col0: int, varidx: dict, names_longest_first,
                allow_rational: bool) -> tuple:
    toks = _tokenize_poly(s, lineno, col0, names_longest_first)
    if toks[0][0] == "end":
        raise ParseError("empty polynomial", lineno, col0)
    terms = []
    i = 0
    while True:
        kind, _, col = toks[i]
        sign = -1 if kind == "-" else 1
        if kind in "+-":  # optional before the first term, required before the others
            i += 1
            if terms and toks[i][0] == "end":
                raise ParseError("dangling sign", lineno, col)
        kind, num, term_col = toks[i]
        seen = kind == "int"
        den = 1
        if seen:
            i += 1
            if toks[i][0] == "/":
                den = _operand(toks, i, lineno)
                if den == 0:
                    raise ParseError("zero denominator", lineno, toks[i][2])
                i += 2
        coeff = Fraction(sign * num if seen else sign, den)
        if coeff.denominator != 1 and not allow_rational:
            raise ParseError("rational coefficient (enable denominator clearing)", lineno, term_col)
        exps = [0] * len(varidx)
        while True:  # factors; a '*' after the coefficient or a factor needs a variable
            kind, nm, col = toks[i]
            if kind == "*" and seen:
                i += 1
                kind, nm, _ = toks[i]
                if kind != "var":
                    raise ParseError("expected a variable after '*'", lineno, col)
            if kind != "var":
                break
            i += 1
            e = 1
            if toks[i][0] == "^":
                e = _operand(toks, i, lineno)
                i += 2
            exps[varidx[nm]] += e
            seen = True
        if not seen:
            raise ParseError("empty term", lineno, term_col)
        terms.append((coeff, tuple(exps)))
        kind, _, col = toks[i]
        if kind == "end":
            return tuple(terms)
        if kind not in "+-":
            raise ParseError(f"unexpected {kind!r}", lineno, col)


_HEADER_KEYS = ("name", "provenance", "vars")  # each at most once per file


def parse_system(text: str, *, name: str | None = None, clear: bool = False) -> SystemSpec:
    """Parse the system text format; errors carry 1-based line and column.

    A missing or blank name line gives the name argument, else 'unnamed'.
    clear=True accepts rational coefficients and multiplies each polynomial
    through by the least common multiple of its denominators.
    """
    header: dict = {}
    varidx: dict = {}
    polys = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError("expected 'key: value'", lineno, 1)
        key, _, rest = raw.partition(":")
        key = key.strip()
        col0 = len(raw) - len(rest) + 1
        if key in _HEADER_KEYS:
            if key in header:
                raise ParseError(f"duplicate {key} line", lineno, 1)
            header[key] = rest.strip()
            if key == "vars":
                if not header[key]:
                    raise ParseError("vars line lists no variables", lineno, col0)
                at = 0
                for nm in rest.split():
                    # only whitespace lies between at and the token, so this finds it
                    at = rest.index(nm, at)
                    if not (nm[0].isalpha() or nm[0] == "_") or not all(
                            c.isalnum() or c == "_" for c in nm):
                        raise ParseError(f"bad variable name {nm!r}", lineno, col0 + at)
                    if nm in varidx:
                        raise ParseError(f"duplicate variable {nm!r}", lineno, col0 + at)
                    varidx[nm] = len(varidx)
                    at += len(nm)
                names_lf = sorted(varidx, key=len, reverse=True)
        elif key == "poly":
            if not varidx:
                raise ParseError("poly line before vars line", lineno, 1)
            polys.append(_parse_poly(rest, lineno, col0, varidx, names_lf, allow_rational=clear))
        else:
            raise ParseError(f"unknown key {key!r}", lineno, 1)
    last = max(1, len(text.splitlines()))
    if not varidx:
        raise ParseError("missing vars line", last, 1)
    if not polys:
        raise ParseError("system has no polynomials", last, 1)
    spec = SystemSpec(
        name=header.get("name") or name or "unnamed",
        variables=tuple(varidx),
        polynomials=tuple(polys),
        provenance=header.get("provenance", ""),
    )
    if clear:
        spec = clear_denominators(spec)
    return spec


def render_system(spec: SystemSpec) -> str:
    """Inverse of parse_system: parse(render(spec)) == spec, term for term."""
    lines = []
    if spec.name:
        lines.append(f"name: {spec.name}")
    if spec.provenance:
        lines.append(f"provenance: {spec.provenance}")
    lines.append(f"vars: {' '.join(spec.variables)}")
    for terms in spec.polynomials:
        lines.append(f"poly: {format_terms(terms, spec.variables)}")
    return "\n".join(lines) + "\n"


def clear_denominators(spec: SystemSpec) -> SystemSpec:
    """Multiply each polynomial by the lcm of its coefficient denominators."""
    out = []
    for terms in spec.polynomials:
        L = math.lcm(*(c.denominator for c, _ in terms))
        if L == 1:
            out.append(terms)
        else:
            out.append(tuple((c * L, e) for c, e in terms))
    return SystemSpec(spec.name, spec.variables, tuple(out), spec.provenance)


def permute_variables(spec: SystemSpec, perm) -> SystemSpec:
    """Reorder variables so new position k holds old variable perm[k]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(spec.nvars)):
        raise ValueError(f"not a permutation of 0..{spec.nvars - 1}: {perm}")
    vars_new = tuple(spec.variables[v] for v in perm)
    polys = tuple(
        tuple((c, tuple(e[v] for v in perm)) for c, e in terms)
        for terms in spec.polynomials)
    return SystemSpec(spec.name, vars_new, polys, spec.provenance)


def realize(spec: SystemSpec, order: MonomialOrder, field: PrimeField) -> list:
    """Build engine polynomials for the system under an order and field.

    Raises ValueError when a polynomial vanishes mod p.
    """
    if order.n != spec.nvars:
        raise ValueError(f"order is over {order.n} variables, system has {spec.nvars}")
    if spec.has_rational_coeffs():
        raise ValueError(f"system {spec.name!r} has rational coefficients; clear denominators first")
    ctx = PolyContext(field, order)
    polys = [ctx.polynomial((e, int(c)) for c, e in terms) for terms in spec.polynomials]
    for i, f in enumerate(polys, 1):
        if f.is_zero:
            raise ValueError(f"system {spec.name!r}: polynomial {i} vanishes mod {field.p}")
    return polys


def cyclic_system(k: int) -> SystemSpec:
    """Cyclic k-roots system: for d < k the sum of all cyclically consecutive
    degree-d products, and the full product minus one."""
    if k < 2:
        raise ValueError(f"cyclic needs k >= 2, got {k}")
    variables = tuple(f"x{i + 1}" for i in range(k))
    polys = []
    for d in range(1, k):
        terms = []
        for i in range(k):
            e = [0] * k
            for j in range(d):
                e[(i + j) % k] += 1
            terms.append((Fraction(1), tuple(e)))
        polys.append(tuple(terms))
    polys.append(((Fraction(1), (1,) * k), (Fraction(-1), (0,) * k)))
    return SystemSpec(f"cyclic-{k}", variables, tuple(polys), "cyclic n-roots family")


def katsura_system(k: int) -> SystemSpec:
    """Katsura system in k variables u0..u(k-1): k-1 convolution quadrics
    u_m = sum u_|l| u_|m-l| and the normalization u0 + 2(u1 + ... ) = 1."""
    if k < 2:
        raise ValueError(f"katsura needs k >= 2, got {k}")
    variables = tuple(f"u{i}" for i in range(k))
    polys = []
    for m in range(k - 1):
        acc: dict = {}
        for l in range(-(k - 1), k):
            ml = abs(m - l)
            if ml <= k - 1:
                e = [0] * k
                e[abs(l)] += 1
                e[ml] += 1
                e = tuple(e)
                acc[e] = acc.get(e, Fraction(0)) + 1
        em = [0] * k
        em[m] = 1
        em = tuple(em)
        acc[em] = acc.get(em, Fraction(0)) - 1
        polys.append(tuple((c, e) for e, c in acc.items() if c))
    lin = [(Fraction(1), tuple(1 if i == 0 else 0 for i in range(k)))]
    for i in range(1, k):
        lin.append((Fraction(2), tuple(1 if j == i else 0 for j in range(k))))
    lin.append((Fraction(-1), (0,) * k))
    polys.append(tuple(lin))
    return SystemSpec(f"katsura-{k}", variables, tuple(polys), "Katsura magnetism family")


BUNDLED_KEYS = (
    "lichtblau1",
    "lichtblau2",
    "lichtblau3",
    "trott_geometry",
    "mathematica_help",
    "giovini_variation",
)


def load_bundled(key: str) -> SystemSpec:
    if key not in BUNDLED_KEYS:
        raise KeyError(f"unknown bundled system {key!r}; available: {', '.join(BUNDLED_KEYS)}")
    text = resources.files("gbbench").joinpath("data", f"{key}.txt").read_text()
    return parse_system(text)


def bundled_systems() -> list:
    return [load_bundled(k) for k in BUNDLED_KEYS]
