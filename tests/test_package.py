import ast
import collections
import contextlib
import importlib
import io
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

import critgroup
from critgroup.errors import replace

SOURCES = sorted(pathlib.Path(critgroup.__file__).parent.glob("*.py"))
EXACT_MATH = {"gcd", "isqrt", "floor", "lcm", "comb", "prod"}
INEXACT_MODULES = {"cmath", "decimal", "statistics"}


def test_all_is_sorted_unique_and_resolves():
    names = critgroup.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(critgroup, name), name


def test_public_names_load_their_module_on_first_access():
    # importing the package loads none of its modules; a public name loads
    # its own module and what that module imports
    probe = (
        "import sys, critgroup\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('critgroup.'))\n"
        "print(loaded()); critgroup.paley; print(loaded())\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(critgroup.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["[]", "['critgroup.errors', 'critgroup.families', 'critgroup.graphs']"]
    assert set(critgroup.__all__) <= set(dir(critgroup))
    with pytest.raises(AttributeError):
        critgroup.grounded_adjugate


SLOW_START_MODULES = {"dataclasses", "inspect"}
# argparse, with the gettext it imports and the locale gettext's lookups
# import: a well-formed command line never builds the argparse parser
ARGPARSE_MODULES = {"argparse", "gettext", "locale"}
RATIONAL_MODULES = {"fractions", "decimal", "numbers"}


def _imports_of(tree, modules):
    """(line, module) for every import of one of `modules` or a submodule."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        for name in names:
            if name and name.split(".")[0] in modules:
                yield node.lineno, name


def test_no_slow_start_imports():
    # dataclasses pulls in inspect, ast, dis and tokenize, tens of
    # milliseconds of every CLI start; the records use errors._record
    found = [
        f"{path.name}:{line}: import {name}"
        for path in SOURCES
        for line, name in _imports_of(ast.parse(path.read_text(encoding="utf-8")), SLOW_START_MODULES)
    ]
    assert found == []
    source = "import inspect\nfrom dataclasses import dataclass\nimport ast\nfrom . import x\n"
    assert sorted(_imports_of(ast.parse(source), SLOW_START_MODULES)) == [
        (1, "inspect"), (2, "dataclasses")]


def test_linalg_imports_no_rational_arithmetic():
    # linalg, like every package module, computes over the integers and
    # residues modulo an integer; the rational routes are test oracles
    # (conftest). fractions also pulls decimal and numbers into each CLI start
    found = [
        f"{path.name}:{line}: import {name}"
        for path in SOURCES
        for line, name in _imports_of(ast.parse(path.read_text(encoding="utf-8")), RATIONAL_MODULES)
    ]
    assert found == []
    source = "from fractions import Fraction\nimport math, decimal\nfrom .errors import GraphError\n"
    assert sorted(_imports_of(ast.parse(source), RATIONAL_MODULES)) == [
        (1, "fractions"), (2, "decimal")]


def test_cli_start_loads_no_slow_start_module():
    # the stdlib modules `import critgroup.cli` loads beyond a bare
    # interpreter's, without a bytecode cache as on a fresh checkout
    probe = "import sys; print(' '.join(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(critgroup.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}

    def loaded(code):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        return set(out.split())

    extra = loaded("import critgroup.cli; " + probe) - loaded(probe)
    assert "critgroup.cli" in extra
    assert not extra & (SLOW_START_MODULES | RATIONAL_MODULES | ARGPARSE_MODULES), sorted(extra)


def _compiled_and_loaded(tmp_path, code):
    """The exit status and stdout of `code` in a fresh interpreter with no
    bytecode to read or write, as on a fresh checkout run with
    PYTHONDONTWRITEBYTECODE=1; the package files it compiles; and the package,
    json and ARGPARSE_MODULES modules it leaves in sys.modules."""
    package = str(pathlib.Path(critgroup.__file__).parent)
    probe = (
        "import os, sys\n"
        "compiled = []\n"
        "def audit(event, args):\n"
        f"    if event == 'compile' and os.path.dirname(str(args[1])) == {package!r}:\n"
        "        compiled.append(os.path.basename(args[1]))\n"
        "sys.addaudithook(audit)\n"
        "status = 0\n"
        "try:\n"
        f"    {code}\n"
        "except SystemExit as exc:\n"
        "    status = exc.code\n"
        f"loaded = [m for m in sys.modules if m in {sorted(ARGPARSE_MODULES | {'json'})!r}\n"
        "          or m.startswith('critgroup.')]\n"
        "print(status, '|', ' '.join(sorted(compiled)), '|', ' '.join(sorted(loaded)), file=sys.stderr)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(package).parent),
           "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPYCACHEPREFIX": str(tmp_path)}
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    status, compiled, loaded = proc.stderr.splitlines()[-1].split("|")
    return int(status), proc.stdout, set(compiled.split()), set(loaded.split())


CLI_CORE = {"__init__.py", "cli.py", "errors.py", "graphs.py"}
RUN_CLI = "import runpy; runpy.run_module('critgroup.cli', run_name='__main__', alter_sys=True)"


def _cli_compiles(tmp_path, argv):
    """The package files one CLI run compiles beyond CLI_CORE; the run must
    write a report and leave json and argparse unloaded."""
    status, out, compiled, loaded = _compiled_and_loaded(tmp_path, f"sys.argv[1:] = {argv!r}; {RUN_CLI}")
    assert status == 0 and "critgroup/1" in out, argv
    assert not loaded & (ARGPARSE_MODULES | {"json"}), (argv, loaded)
    assert compiled >= CLI_CORE, argv
    return compiled - CLI_CORE


def test_each_subcommand_compiles_only_the_modules_it_calls(tmp_path):
    # cli registers every other module at import, for bench/traced_cli.py's
    # lookups, and each compiles on first use; _json gives the string
    # escaper without the json package. The pairing table compiles neither
    # groups nor spectrum, the exponent and spectral-bound verdicts on a
    # record no spectrum, and file input families only for the symmetry of
    # the exact orthogonal search
    status, _, compiled, loaded = _compiled_and_loaded(tmp_path, "import critgroup.cli")
    assert status == 0
    assert compiled == CLI_CORE
    assert {f"critgroup.{m}" for m in ("graphs", "linalg", "groups", "pairing", "scan")} <= loaded
    assert not loaded & ARGPARSE_MODULES
    # help builds the argparse parser, and compiles no module beyond the core
    status, out, compiled, loaded = _compiled_and_loaded(
        tmp_path, f"sys.argv[1:] = ['group', '--help']; {RUN_CLI}")
    assert status == 0 and out.startswith("usage: critgroup group")
    assert compiled == CLI_CORE
    assert ARGPARSE_MODULES <= loaded
    # an import of the registered module finds it on the package too
    status, _, compiled, _ = _compiled_and_loaded(
        tmp_path, "import critgroup.cli, critgroup.pairing; critgroup.pairing.monodromy_pairing")
    assert status == 0
    assert compiled == CLI_CORE | {"pairing.py"}
    c7 = tmp_path / "c7.txt"
    c7.write_text(critgroup.format_graph(critgroup.cycle(7)))
    petersen = ["--family", "petersen"]
    record = {"families.py", "groups.py"}
    table = {"families.py", "linalg.py", "monodromy.py"}
    for argv, extra in (
        (["generate", *petersen], {"families.py"}),
        (["group", *petersen], record),
        (["group", "--family", "cycle", "--params", "7", "--format", "text"], record | {"linalg.py"}),
        (["group", "--input", str(c7)], {"groups.py", "linalg.py"}),
        (["analyze", *petersen], record | {"spectrum.py"}),
        (["verify", "--check", "exponent", *petersen], record | {"linalg.py", "monodromy.py"}),
        (["verify", "--check", "spectral-bound", *petersen], record),
        (["pairing", *petersen], table),
        (["pairing", *petersen, "--edge1", "1,8", "--edge2", "1,9"], table),
        (["orthogonal", *petersen], table | {"pairing.py"}),
        (["orthogonal", "--input", str(c7)], table | {"pairing.py"}),
        (["orthogonal", "--input", str(c7), "--mode", "greedy"], {"linalg.py", "monodromy.py", "pairing.py"}),
        (["verify", "--check", "tail-heavy", "--mode", "greedy", *petersen], table | record | {"pairing.py"}),
        (["scan", "--nmax", "20"], {"monodromy.py", "scan.py"}),
    ):
        assert _cli_compiles(tmp_path, argv) == extra, argv


def _readme_startup_table(text):
    """(argv, files) for each row of the README's start-up table: the
    subcommand's arguments and the package files it compiles beyond CLI_CORE."""
    section = text.split("\n### Start-up\n", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `critgroup ([^`]*)` \| (.*) \|$", section, re.M)
    return [(shlex.split(command), {f"{name}.py" for name in re.findall(r"`(\w+)`", files)})
            for command, files in rows]


def test_readme_startup_table_is_what_each_run_compiles(tmp_path):
    # the table cannot drift from the files each run compiles; FILE is C_7
    c7 = tmp_path / "c7.txt"
    c7.write_text(critgroup.format_graph(critgroup.cycle(7)))
    rows = _readme_startup_table(README.read_text(encoding="utf-8"))
    assert len(rows) >= 10
    assert {argv[0] for argv, _ in rows} == {
        "generate", "analyze", "group", "pairing", "orthogonal", "verify", "scan"}
    for argv, files in rows:
        argv = [str(c7) if a == "FILE" else a for a in argv]
        assert _cli_compiles(tmp_path, argv) == files, argv


def _sample_records():
    """One instance of every record class of the package."""
    from critgroup import (
        AbelianGroup, PairingValue, SpectralBoundReport, detect_two_eigenvalue,
        enumerate_feasible, is_balanced, make_signed_graph, orthogonal_subset, petersen,
        verify_exponent_theorem, verify_tail_heavy,
    )

    g = petersen()
    signed = make_signed_graph(3, [(1, 2), (2, 3)], [(1, 2)])
    return [
        g, signed, detect_two_eigenvalue(g), is_balanced(signed), AbelianGroup((2, 4)),
        verify_exponent_theorem(g),
        SpectralBoundReport(10, 10, True), PairingValue(1, 3), orthogonal_subset(g),
        verify_tail_heavy(g), enumerate_feasible(10)[0],
    ]


RECORDS = _sample_records()


def test_every_record_class_has_a_sample():
    modules = [importlib.import_module(f"critgroup.{path.stem}")
               for path in SOURCES if path.stem != "__init__"]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__ == module.__name__
               and "_fields" in vars(value)}
    assert classes == {type(r) for r in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_semantics(record):
    cls, names = type(record), type(record)._fields
    values = tuple(getattr(record, name) for name in names)
    for name in (*names, "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert tuple(getattr(record, name) for name in names) == values
    # equal and equally hashed copies, positional, by keyword and replaced
    for copy in (cls(*values), cls(**dict(zip(names, values))), replace(record)):
        assert copy == record and not copy != record
        assert hash(copy) == hash(record) == hash(values)
    assert repr(cls(*values)) == repr(record)
    assert repr(record) == f"{cls.__name__}({', '.join(f'{n}={v!r}' for n, v in zip(names, values))})"
    # never equal to a plain tuple or a record of another class
    assert record != values and values != record
    assert all(other != record and record != other
               for other in RECORDS if type(other) is not cls)
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})
    with pytest.raises(TypeError):
        replace(record, not_a_field=1)


def test_record_repr_defaults_and_validation():
    from critgroup import (
        AbelianGroup, BalanceResult, FeasibleTuple, GraphError, PairingValue, SpectralBoundReport,
    )

    group = AbelianGroup((2, 4))
    assert repr(group) == "AbelianGroup(invariant_factors=(2, 4))"
    # the same field values in another class are not equal
    value = PairingValue(1, 3)
    assert value != BalanceResult(1, 3) and BalanceResult(1, 3) != value
    assert repr(SpectralBoundReport(3, 6, True)) == "SpectralBoundReport(exponent=3, product=6, passed=True)"
    with pytest.raises(GraphError, match="violate divisibility"):
        replace(group, invariant_factors=(4, 6))
    with pytest.raises(GraphError):
        AbelianGroup(invariant_factors=(1,))
    assert replace(group, invariant_factors=(2, 8)) == AbelianGroup((2, 8))
    # a class-level default fills an omitted trailing field, by position or keyword
    ft = FeasibleTuple(None, (1, 2), False, 3, True)
    assert ft.needs_review is False
    assert ft == FeasibleTuple(None, (1, 2), False, 3, True, False)
    assert ft == FeasibleTuple(denominator=3, params=None, multiplicities=(1, 2),
                               conference=False, denominator_equals_bound=True)
    assert replace(ft, needs_review=True).needs_review is True


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


def _names(node):
    """Every name the code under `node` refers to: as a variable, an
    attribute or an imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _unreferenced(sources, wanted):
    """(module, name) for every module-level function or class whose name
    `wanted` accepts and that no code outside its own body names, across
    all the given {module: source} texts."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    counts = collections.Counter(name for tree in trees.values() for name in _names(tree))
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and wanted(node.name)):
                if counts[node.name] == collections.Counter(_names(node))[node.name]:
                    yield module, node.name


def _orphaned_helpers(sources):
    """The private functions and classes that nothing else names."""
    return _unreferenced(sources, lambda name: name.startswith("_") and not name.startswith("__"))


def test_private_helpers_are_referenced():
    # a refactor that stops calling a helper deletes it too
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    assert sorted(_orphaned_helpers(sources)) == []


def test_orphan_scan_catches_each_construct():
    sources = {
        "a.py": (
            "def _orphan(): return 1\n"
            "def _recursive(n): return _recursive(n - 1) if n else 0\n"
            "class _Unused: pass\n"
            "def _called(): return 2\n"
            "def _imported(): return 3\n"
            "def _by_attribute(): return 4\n"
            "def public(): return _called()\n"
            "def __dunder__(): return 5\n"
        ),
        "b.py": (
            "from a import _imported\n"
            "import a\n"
            "x = a._by_attribute\n"
        ),
    }
    assert sorted(_orphaned_helpers(sources)) == [
        ("a.py", "_Unused"), ("a.py", "_orphan"), ("a.py", "_recursive"),
    ]


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _library_example(text):
    """The Python block of the README's Library section."""
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def _library_only(sources):
    """The public functions and classes that nothing else names."""
    return _unreferenced(sources, lambda name: not name.startswith("_"))


# public names that only library users and the tests reach: the subgroup
# factors
LIBRARY_ONLY = {"subgroup_invariant_factors"}


def test_public_names_are_reached():
    # a new public function or class needs a caller in the package or the
    # README example, or a deliberate entry in LIBRARY_ONLY
    sources = {path.name: path.read_text(encoding="utf-8") for path in SOURCES}
    sources["README example"] = _library_example(README.read_text(encoding="utf-8"))
    assert {name for _, name in _library_only(sources)} == LIBRARY_ONLY


def test_library_only_scan_catches_each_construct():
    sources = {
        "a.py": (
            "def unused(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "class Lonely: pass\n"
            "def called(): return 2\n"
            "def imported(): return 3\n"
            "def by_attribute(): return 4\n"
            "def in_example(): return 5\n"
            "def _helper(): return called()\n"
        ),
        "b.py": (
            "from a import imported\n"
            "import a\n"
            "x = a.by_attribute\n"
        ),
        "README example": "from a import in_example\nprint(in_example())\n",
    }
    assert sorted(_library_only(sources)) == [
        ("a.py", "Lonely"), ("a.py", "recursive"), ("a.py", "unused"),
    ]


def test_readme_library_example_runs_as_documented():
    # each print line carries its expected output as a trailing comment, so
    # renaming or removing a public name cannot leave the README stale
    code = _library_example(README.read_text(encoding="utf-8"))
    expected = [
        line.split("#", 1)[1].strip() if "#" in line else None
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert expected and None not in expected
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected


def _readme_cli_examples(text):
    """(argv, output) for each one-line `critgroup` command block that an
    output block directly follows."""
    pattern = r"```sh\ncritgroup ([^\n]*)\n```\n\n```(?:json)?\n(.*?)```"
    return [(shlex.split(command), output) for command, output in re.findall(pattern, text, re.S)]


def test_readme_cli_examples_are_real_output():
    import critgroup.cli

    examples = _readme_cli_examples(README.read_text(encoding="utf-8"))
    assert len(examples) == 3
    for argv, output in examples:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert critgroup.cli.main(argv) == 0, argv
        assert out.getvalue() == output, argv


def test_readme_family_table_lists_every_generator_family():
    # one row per family, in the order of GENERATOR_FAMILIES, so a new
    # family cannot ship undocumented
    text = README.read_text(encoding="utf-8")
    table = text.split("### Graph families\n", 1)[1].strip().split("\n\n", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|", table, re.M)
    assert tuple(rows) == critgroup.GENERATOR_FAMILIES
