"""Every name a package module imports is used in that module, every
private helper is used by the package, the verifier shares no code with the
engine, the layout of a reducer table is read only by poly.py, and package
modules import each other only downward through LAYERS.

The package's __init__.py is left out of the import check: its imports are
the public re-exports. A name counts as used when it appears anywhere in the
module outside its import statement, annotations included. A private helper
is an underscore-prefixed function, method or class; it counts as used when
package code names it, so a helper that only tests reach fails.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).parents[1] / "src" / "gbbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # "import a.b" binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert _unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from .ordering import MatrixCachedOrder, WeightMatrix\nMatrixCachedOrder()\n"
    assert _unused_imports(source) == [(1, "WeightMatrix")]


def _unreferenced_private(sources: dict) -> list:
    """(module, line, name) for each private helper that no module in
    sources names; sources maps module names to source text."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    named = set()
    defined = []
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined.append((mod, node.lineno, node.name))
    return sorted(d for d in defined if d[2] not in named)


def test_every_private_helper_is_used_by_the_package():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _unreferenced_private(sources) == []


def test_the_check_sees_an_unused_private_helper():
    sources = {
        "a.py": "def _used():\n    pass\n\n\ndef _unused():\n    pass\n",
        "b.py": "from .a import _used\n\n\nclass C:\n    def _m(self):\n        _used()\n\n"
                "    def __repr__(self):\n        return ''\n",
    }
    assert _unreferenced_private(sources) == [("a.py", 5, "_unused"), ("b.py", 5, "_m")]


# the verifier must reach the engine through none of its code: neither a name
# it defines nor an attribute of the orders, polynomials or reducer tables
# that the engine's arithmetic runs on
VERIFIER = ("_packed_basis", "_reduce_windows", "verify_failure", "verify_groebner")
ENGINE_NAMES = {"reduce", "Reducers", "s_polynomial", "LeadTable", "_update", "buchberger",
                "reduce_basis", "STRATEGIES", "_merge"}
ENGINE_ATTRS = {"monic", "cmp", "attach", "mul", "div", "lcm", "entries", "memo", "inserted"}


def _engine_uses(source: str) -> list:
    """(function, line, name) for each engine name or attribute that a
    verifier function in source reads, nested functions included; raises
    if one of the verifier functions is missing."""
    functions = {node.name: node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef) and node.name in VERIFIER}
    assert sorted(functions) == sorted(VERIFIER)
    out = []
    for name, fn in functions.items():
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and node.id in ENGINE_NAMES:
                out.append((name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in ENGINE_ATTRS:
                out.append((name, node.lineno, node.attr))
    return sorted(out)


def test_the_verifier_shares_no_code_with_the_engine():
    assert _engine_uses((PACKAGE / "groebner.py").read_text()) == []


def test_the_check_sees_engine_code_in_the_verifier():
    stubs = "".join(f"def {name}():\n    pass\n" for name in VERIFIER[1:])
    source = ("def _packed_basis(G, order):\n    r = reduce(G[0], G)\n"
              "    return order.cmp(r, r)\n\n\ndef elsewhere(order):\n    return order.cmp\n"
              + stubs)
    assert _engine_uses(source) == [("_packed_basis", 2, "reduce"), ("_packed_basis", 3, "cmp")]


# the attributes that hold a poly.Reducers table's layout: its entries, their
# insertion order, the per-head memo and the mask bits
REDUCERS_LAYOUT = {"entries", "inserted", "memo", "bits"}


def _layout_reads(sources: dict) -> list:
    """(module, line, name) for each Reducers layout attribute that a module
    in sources other than poly.py reads; sources maps module names to
    source text."""
    out = []
    for mod, text in sources.items():
        if mod == "poly.py":
            continue
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Attribute) and node.attr in REDUCERS_LAYOUT:
                out.append((mod, node.lineno, node.attr))
    return sorted(out)


def test_only_poly_reads_the_reducer_layout():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    assert _layout_reads(sources) == []


def test_the_check_sees_a_reducer_layout_read():
    sources = {
        "poly.py": "def reduce(f, G):\n    return G.memo\n",
        "groebner.py": "def run(table):\n    table.insert(0, g)\n    return len(table.entries)\n",
    }
    assert _layout_reads(sources) == [("groebner.py", 3, "entries")]


# the package's modules, lowest layer first: a module imports package code
# only from a lower layer, so groebner and corpus import neither each other
LAYERS = (("modfield.py",), ("ordering.py",), ("poly.py",), ("groebner.py", "corpus.py"),
          ("bench.py",), ("cli.py",))


def _upward_imports(sources: dict) -> list:
    """(module, line, imported module) for each package import in sources
    that does not reach a lower layer, relative or through gbbench; sources
    maps module file names in LAYERS to source text."""
    rank = {mod: r for r, layer in enumerate(LAYERS) for mod in layer}
    out = []
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = node.module or ""
            if node.level == 0:
                if module.partition(".")[0] != "gbbench":
                    continue
                module = module.partition(".")[2]
            # "from . import corpus" names its modules
            for target in [module] if module else [alias.name for alias in node.names]:
                if rank[f"{target}.py"] >= rank[mod]:
                    out.append((mod, node.lineno, target))
    return sorted(out)


def test_modules_import_only_from_lower_layers():
    sources = {p.name: p.read_text() for p in MODULES}
    assert sorted(sources) == sorted(mod for layer in LAYERS for mod in layer)
    assert _upward_imports(sources) == []


def test_the_check_sees_an_upward_import():
    sources = {
        "poly.py": "from .modfield import PrimeField\nfrom .groebner import buchberger\n",
        "corpus.py": "import math\nfrom .poly import reduce\n\n\ndef f():\n    from . import groebner\n",
        "bench.py": "from gbbench.corpus import realize\nfrom gbbench.cli import main\n",
        "cli.py": "from . import bench, corpus\n",
    }
    assert _upward_imports(sources) == [("bench.py", 2, "cli"), ("corpus.py", 6, "groebner"),
                                        ("poly.py", 2, "groebner")]
