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


def _unbounded_caches(tree):
    """(line, what) for every cache that can grow without bound: @cache,
    a bare @lru_cache, and lru_cache(maxsize=None) or lru_cache(None)."""
    def name(node):
        if isinstance(node, ast.Attribute):
            return node.attr
        return node.id if isinstance(node, ast.Name) else None

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for deco in node.decorator_list:
                if name(deco) == "cache":
                    yield deco.lineno, "cache"
                elif name(deco) == "lru_cache":
                    yield deco.lineno, "bare lru_cache"
        if isinstance(node, ast.Call) and name(node.func) in ("lru_cache", "cache"):
            if name(node.func) == "cache":
                yield node.lineno, "cache"
            elif any(isinstance(a, ast.Constant) and a.value is None for a in node.args[:1]) or any(
                k.arg == "maxsize" and isinstance(k.value, ast.Constant) and k.value.value is None
                for k in node.keywords
            ):
                yield node.lineno, "lru_cache(maxsize=None)"


def test_caches_are_bounded():
    # every cache keyed on graphs holds a fixed number of them
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in _unbounded_caches(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_cache_scan_catches_each_construct():
    source = (
        "import functools\n"
        "from functools import cache, lru_cache\n"
        "@cache\n"
        "def a(x): return x\n"
        "@functools.lru_cache\n"
        "def b(x): return x\n"
        "@lru_cache(maxsize=None)\n"
        "def c(x): return x\n"
        "@functools.lru_cache(None)\n"
        "def d(x): return x\n"
        "e = functools.cache(len)\n"
        "@lru_cache(maxsize=8)\n"
        "def f(x): return x\n"
        "@lru_cache()\n"
        "def g(x): return x\n"
    )
    found = sorted(_unbounded_caches(ast.parse(source)))
    assert found == [
        (3, "cache"), (5, "bare lru_cache"), (7, "lru_cache(maxsize=None)"),
        (9, "lru_cache(maxsize=None)"), (11, "cache"),
    ]
