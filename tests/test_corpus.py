from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from gbbench.corpus import (
    BUNDLED_KEYS,
    ParseError,
    SystemSpec,
    bundled_systems,
    clear_denominators,
    cyclic_system,
    katsura_system,
    load_bundled,
    parse_system,
    permute_variables,
    realize,
    render_system,
)
from gbbench.modfield import PrimeField
from gbbench.ordering import DegRevLexOrder


def _terms(spec, i):
    return [(int(c) if c.denominator == 1 else c, e) for c, e in spec.polynomials[i]]


def test_parse_minimal_system():
    spec = parse_system("""
    # a comment
    name: toy
    provenance: handwritten
    vars: x y
    poly: x^2 - 2*x*y + 1
    poly: 3y
    """)
    assert spec.name == "toy"
    assert spec.provenance == "handwritten"
    assert spec.variables == ("x", "y")
    assert _terms(spec, 0) == [(1, (2, 0)), (-2, (1, 1)), (1, (0, 0))]
    assert _terms(spec, 1) == [(3, (0, 1))]
    assert spec.nvars == 2
    assert spec.degree_multiset() == (2, 1)
    assert not spec.has_rational_coeffs()


def test_parse_implicit_multiplication_and_powers():
    spec = parse_system("vars: x y\npoly: 5x^2y - xy + y^10\n")
    assert _terms(spec, 0) == [(5, (2, 1)), (-1, (1, 1)), (1, (0, 10))]


def test_parse_longest_variable_match():
    # x and x1 coexist; 'x1' must not parse as x * 1
    spec = parse_system("vars: x x1\npoly: x1^2 + x\n")
    assert _terms(spec, 0) == [(1, (0, 2)), (1, (1, 0))]


def test_parse_leading_sign_and_constants():
    spec = parse_system("vars: x\npoly: -x + 2 - 3 + x\n")
    # raw term list preserved: no collapsing at parse time
    assert _terms(spec, 0) == [(-1, (1,)), (2, (0,)), (-3, (0,)), (1, (1,))]


def test_parse_name_fallback_argument():
    spec = parse_system("vars: x\npoly: x\n", name="fallback")
    assert spec.name == "fallback"
    named = parse_system("name: real\nvars: x\npoly: x\n", name="fallback")
    assert named.name == "real"


def test_parse_error_positions():
    with pytest.raises(ParseError) as err:
        parse_system("vars: x\npoly: x + + x\n")
    assert err.value.line == 2
    with pytest.raises(ParseError) as err:
        parse_system("vars: x\npoly: x ^ q\n")
    assert err.value.line == 2
    assert err.value.col > 6
    with pytest.raises(ParseError):
        parse_system("poly: x\n")           # poly before vars
    with pytest.raises(ParseError):
        parse_system("vars: x x\npoly: x\n")  # duplicate variable
    with pytest.raises(ParseError):
        parse_system("vars: x\npoly: x + y\n")  # unknown variable
    with pytest.raises(ParseError):
        parse_system("vars: x\njunk\n")
    with pytest.raises(ParseError):
        parse_system("vars: x\npoly: 2 * 3\n")  # '*' must precede a variable


@pytest.mark.parametrize("text,line,col,msg", [
    ("vars: x\npoly: x + $\n", 2, 11, "unexpected character '$'"),
    ("vars: x\npoly:   \n", 2, 6, "empty polynomial"),
    ("vars: x\npoly: 1/x\n", 2, 8, "expected an integer denominator"),
    ("vars: x\npoly: 1/0 x\n", 2, 8, "zero denominator"),
    ("vars: x y\npoly: x^y\n", 2, 8, "expected an integer exponent after '^'"),
    ("vars: x y\npoly: x*2\n", 2, 8, "expected a variable after '*'"),
    ("vars: x\npoly: x -\n", 2, 9, "dangling sign"),
    ("vars: x\npoly: x 2\n", 2, 9, "unexpected 'int'"),
    ("name: a\nname: b\nvars: x\npoly: x\n", 2, 1, "duplicate name line"),
    ("provenance: a\nprovenance: b\n", 2, 1, "duplicate provenance line"),
    ("vars: x\nvars: y\n", 2, 1, "duplicate vars line"),
    ("vars:   \n", 1, 6, "vars line lists no variables"),
    ("vars: x 1y\n", 1, 9, "bad variable name '1y'"),
    ("vars: x\nterm: x\n", 2, 1, "unknown key 'term'"),
    # the two end-of-text checks point at the last line
    ("name: a\n", 1, 1, "missing vars line"),
    ("vars: x\n", 1, 1, "system has no polynomials"),
])
def test_parse_error_message_line_and_column(text, line, col, msg):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (str(err.value), err.value.line, err.value.col) == (
        f"line {line}, column {col}: {msg}", line, col)


def test_rational_coefficients_gated():
    text = "vars: x y\npoly: 1/2x^2 + y\n"
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert "rational coefficient" in str(err.value)
    spec = parse_system(text, clear=True)
    # cleared at parse time: multiplied through by 2
    assert _terms(spec, 0) == [(1, (2, 0)), (2, (0, 1))]


def test_clear_denominators_function():
    spec = SystemSpec("t", ("x", "y"), (
        ((Fraction(1, 2), (1, 0)), (Fraction(1, 3), (0, 1))),
        ((Fraction(2), (1, 1)),),
    ), None)
    assert spec.has_rational_coeffs()
    cleared = clear_denominators(spec)
    assert _terms(cleared, 0) == [(3, (1, 0)), (2, (0, 1))]
    # already integral polynomials pass through untouched
    assert cleared.polynomials[1] == spec.polynomials[1]
    assert not cleared.has_rational_coeffs()


def test_render_parse_round_trip():
    spec = parse_system("""
    name: rt
    vars: a b c
    poly: a^2b - 4c + 1
    poly: -a + 2b^3c^2
    """)
    again = parse_system(render_system(spec))
    assert again == spec


@st.composite
def _integer_specs(draw):
    # names that are prefixes of one another, so the tokenizer must take the
    # longest; exponents up to 11 so x^10 sits beside the variable x10
    names = tuple(draw(st.lists(st.sampled_from(("x", "x1", "x10", "y", "xy", "_t")),
                                min_size=1, max_size=4, unique=True)))
    exps = st.tuples(*[st.one_of(st.just(0), st.integers(0, 11))] * len(names))
    coeff = st.one_of(st.sampled_from((0, 1, -1)), st.integers(-10**6, 10**6)).map(Fraction)
    polys = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.lists(st.tuples(coeff, exps), min_size=1, max_size=5))
        # repeated monomials are kept term for term
        terms += draw(st.lists(st.sampled_from(terms), max_size=2))
        polys.append(tuple(terms))
    return SystemSpec(name=draw(st.sampled_from(("s", "round-trip"))), variables=names,
                      polynomials=tuple(polys),
                      provenance=draw(st.sampled_from(("", "generated"))))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_integer_specs())
def test_render_parse_round_trip_property(spec):
    assert parse_system(render_system(spec)) == spec


def test_permute_variables():
    spec = parse_system("vars: x y z\npoly: x^2y + z\n")
    swapped = permute_variables(spec, (2, 0, 1))
    assert swapped.variables == ("z", "x", "y")
    assert _terms(swapped, 0) == [(1, (0, 2, 1)), (1, (1, 0, 0))]
    # permuting is reversible
    back = permute_variables(swapped, (1, 2, 0))
    assert back == spec
    with pytest.raises(ValueError):
        permute_variables(spec, (0, 0, 1))


def test_realize_reduces_coefficients():
    spec = parse_system("vars: x\npoly: 32004x - 1\n")
    polys = realize(spec, DegRevLexOrder(1), PrimeField(32003))
    assert polys[0].as_tuples() == (((1,), 1), ((0,), 32002))
    with pytest.raises(ValueError):
        realize(spec, DegRevLexOrder(2), PrimeField(32003))
    frac = SystemSpec("f", ("x",), (((Fraction(1, 2), (1,)),),), None)
    with pytest.raises(ValueError):
        realize(frac, DegRevLexOrder(1), PrimeField(32003))
    vanishing = parse_system("name: v\nvars: x y\npoly: x - 1\npoly: 32003*x^2 + 32003*y\n")
    with pytest.raises(ValueError, match="'v': polynomial 2 vanishes mod 32003"):
        realize(vanishing, DegRevLexOrder(2), PrimeField(32003))


def test_cyclic_system_shape():
    spec = cyclic_system(3)
    assert spec.name == "cyclic-3"
    assert spec.variables == ("x1", "x2", "x3")
    assert _terms(spec, 0) == [(1, (1, 0, 0)), (1, (0, 1, 0)), (1, (0, 0, 1))]
    assert _terms(spec, 1) == [(1, (1, 1, 0)), (1, (0, 1, 1)), (1, (1, 0, 1))]
    assert _terms(spec, 2) == [(1, (1, 1, 1)), (-1, (0, 0, 0))]
    assert spec.degree_multiset() == (3, 2, 1)
    with pytest.raises(ValueError):
        cyclic_system(1)


def test_cyclic_system_counts():
    for k in (4, 5, 7):
        spec = cyclic_system(k)
        assert spec.nvars == k
        assert len(spec.polynomials) == k
        assert spec.degree_multiset() == tuple(range(k, 0, -1))
        for d in range(k - 1):
            assert len(spec.polynomials[d]) == k


def test_katsura_system_frozen_small():
    spec = katsura_system(2)
    assert spec.variables == ("u0", "u1")
    assert sorted(_terms(spec, 0)) == sorted([(1, (2, 0)), (2, (0, 2)), (-1, (1, 0))])
    assert sorted(_terms(spec, 1)) == sorted([(1, (1, 0)), (2, (0, 1)), (-1, (0, 0))])
    spec3 = katsura_system(3)
    # u0^2 + 2u1^2 + 2u2^2 - u0 and 2u0u1 + 2u1u2 - u1, plus the linear one
    assert sorted(_terms(spec3, 0)) == sorted([
        (1, (2, 0, 0)), (2, (0, 2, 0)), (2, (0, 0, 2)), (-1, (1, 0, 0))])
    assert sorted(_terms(spec3, 1)) == sorted([
        (2, (1, 1, 0)), (2, (0, 1, 1)), (-1, (0, 1, 0))])
    assert sorted(_terms(spec3, 2)) == sorted([
        (1, (1, 0, 0)), (2, (0, 1, 0)), (2, (0, 0, 1)), (-1, (0, 0, 0))])
    with pytest.raises(ValueError):
        katsura_system(1)


def test_katsura_degree_multisets():
    for k in (4, 5, 6, 7):
        spec = katsura_system(k)
        assert spec.nvars == k
        assert spec.degree_multiset() == (2,) * (k - 1) + (1,)


def test_bundled_systems_load_and_round_trip():
    specs = bundled_systems()
    assert [s is not None for s in specs] == [True] * len(BUNDLED_KEYS)
    for key, spec in zip(BUNDLED_KEYS, specs):
        assert spec.polynomials, key
        again = parse_system(render_system(spec))
        assert again == spec, key
    with pytest.raises(KeyError):
        load_bundled("missing")


def test_bundled_shapes_frozen():
    # variable counts and total-degree multisets (descending)
    shapes = {
        "lichtblau1": (9, (11, 10, 6, 6)),
        "lichtblau2": (12, (2, 2, 2, 2, 2, 2)),
        "lichtblau3": (6, (5, 5, 5, 4)),
        "trott_geometry": (5, (4, 4, 4, 4, 3)),
        "mathematica_help": (4, (7, 6, 5, 4)),
        "giovini_variation": (9, (83, 46, 45, 45, 45, 4)),
    }
    for key, (nv, degs) in shapes.items():
        spec = load_bundled(key)
        assert spec.nvars == nv, key
        assert spec.degree_multiset() == degs, key


def test_bundled_realize():
    field = PrimeField(32003)
    for key in BUNDLED_KEYS:
        spec = load_bundled(key)
        polys = realize(spec, DegRevLexOrder(spec.nvars), field)
        assert all(not p.is_zero for p in polys), key
