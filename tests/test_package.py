import ast
import pathlib

import critgroup

SOURCES = sorted(pathlib.Path(critgroup.__file__).parent.glob("*.py"))
EXACT_MATH = {"gcd", "isqrt", "floor", "lcm", "comb", "prod"}
INEXACT_MODULES = {"cmath", "decimal", "statistics"}


def test_all_is_sorted_unique_and_resolves():
    names = critgroup.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(critgroup, name), name


def _float_uses(tree):
    """(line, what) for every construct that brings a float into the code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"literal {node.value!r}"
        elif isinstance(node, ast.Name) and node.id in ("float", "complex"):
            yield node.lineno, f"builtin {node.id}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in INEXACT_MODULES:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.module in INEXACT_MODULES:
            yield node.lineno, f"import from {node.module}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name not in EXACT_MATH:
                    yield node.lineno, f"math.{alias.name}"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in EXACT_MATH):
            yield node.lineno, f"math.{node.attr}"


def test_no_floating_point():
    # the package computes over int and Fraction only; the one float is the
    # elapsed time the CLI writes to stderr, read from the time module
    assert SOURCES
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _float_uses(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_float_scan_catches_each_construct():
    source = (
        "import cmath\n"
        "from decimal import Decimal\n"
        "from math import gcd, log2\n"
        "import math\n"
        "x = 0.5 + 1j + float(2) + math.sqrt(4) + math.isqrt(4)\n"
    )
    found = sorted(what for _, what in _float_uses(ast.parse(source)))
    assert found == sorted([
        "import cmath", "import from decimal", "math.log2", "literal 0.5",
        "literal 1j", "builtin float", "math.sqrt",
    ])
