"""Command-line surface: graph ingestion, analysis, verification reports.

Reports are deterministic: identical invocations produce byte-identical
stdout. Timing goes to stderr. Report builders return plain values, and
`_json` is the one place an integer becomes a decimal string; pairing
values are "p/q", so consumers never face overflow or floats.

Exit codes: 0 a report was written, 1 a verifier ran and the property
failed, 2 bad input or a graph the command does not apply to (an `error:`
line on stderr), 3 an internal exact check failed.

A run compiles only the modules its subcommand calls. `import
critgroup.cli` compiles `errors` and `graphs`; every other module is in
sys.modules and on the package from import on, where bench/traced_cli.py
looks them up, but is compiled on its first attribute access
(`critgroup._lazy_module`), so each subcommand compiles about the code it
runs. Strings are escaped by the C function of `_json` that `json.encoder`
also uses, without importing the json package. One option table feeds
`_parse_args`, which reads a well-formed command line without argparse,
and `build_parser`, which only help and usage errors need.
"""

from __future__ import annotations

import sys
import time
from _json import encode_basestring_ascii
from types import SimpleNamespace

from . import _lazy_module
from .errors import GraphError, InternalCheckError, StructureError
from .graphs import (
    GENERATOR_FAMILIES,
    Graph,
    SignedGraph,
    TwoEigenvalueParams,
    detect_two_eigenvalue,
    edge_key,
    format_graph,
    generate,
    is_balanced,
    read_graph_file,
    require_connected,
)

families, groups, monodromy, pairing, scan, spectrum = map(
    _lazy_module, ("families", "groups", "monodromy", "pairing", "scan", "spectrum"))
_lazy_module("linalg")  # cli calls none of it; bench/traced_cli.py looks it up in sys.modules

SCHEMA = "critgroup/1"


# ---------------------------------------------------------------------------
# Input handling


def _family_params(raw: str | None):
    """The --params list as integers."""
    if raw is None:
        return []
    values = []
    for piece in raw.split(","):
        if piece.strip():
            try:
                values.append(int(piece))
            except ValueError:
                raise GraphError(f"--params expects integers, got {piece.strip()!r}") from None
    return values


def _load_graph(args) -> tuple[Graph | SignedGraph, dict]:
    """The input graph and its report descriptor. Every subcommand but
    generate needs a connected graph and rejects any other here."""
    if args.input and args.family:
        raise GraphError("give either --input or --family, not both")
    if args.input:
        if args.params is not None:
            raise GraphError("--params applies to --family only")
        g = read_graph_file(args.input)
        descriptor = {"source": "file", "path": args.input}
    elif args.family:
        g = generate(args.family, _family_params(args.params))
        descriptor = {"source": "family", "family": args.family}
        if args.params is not None:
            descriptor["params"] = args.params
    else:
        raise GraphError("an input graph is required: --input FILE or --family NAME")
    if args.command != "generate":
        require_connected(g, args.command)
    return g, descriptor


def _automorphisms(args) -> tuple:
    """`families.automorphisms` of a family in exact mode, else ()."""
    exact = args.family is not None and args.mode == "exact"
    return families.automorphisms(args.family, _family_params(args.params)) if exact else ()


def _parse_edge(raw: str, flag: str) -> tuple[int, int]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise GraphError(f"{flag} expects 'u,v', got {raw!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"{flag} expects integers, got {raw!r}") from None


# ---------------------------------------------------------------------------
# Report pieces


def _graph_summary(g: Graph | SignedGraph) -> dict:
    signed = isinstance(g, SignedGraph)
    base = g.graph if signed else g
    summary = {
        "n": g.n,
        "edge_count": len(base.edges),
        "signed": signed,
        "connected": base.is_connected(),
    }
    if signed:
        summary["negative_edge_count"] = len(g.negative_edges)
        summary["balanced"] = is_balanced(g).balanced
    return summary


def _structure_block(g: Graph | SignedGraph) -> dict | None:
    """The structure record as a report block. K_n, n >= 2, has no record,
    its one non-zero eigenvalue n standing for both, and is reported as
    strongly regular with parameters (n, n-1, n-2, 0)."""
    signed = isinstance(g, SignedGraph)
    if not signed and g.is_complete() and g.n > 1:
        p = TwoEigenvalueParams(g.n, "srg", g.n - 1, g.n - 1, 0, g.n, 0, len(g.edges))
    else:
        p = detect_two_eigenvalue(g)
    if p is None:
        return None
    sums = {"eigenvalue_sum": p.eigenvalue_sum, "eigenvalue_product": p.eigenvalue_product}
    degrees = {"k": p.k1, "lam": p.lam} if p.regular else {"k1": p.k1, "k2": p.k2}
    if signed:
        case = "regular" if p.regular else "two_degree"
        return {"type": "signed_two_eigenvalue", "case": case, **sums, **degrees}
    if p.regular:
        return {"type": "strongly_regular", **_srg_fields(p), **sums}
    return {"type": "two_degree", **degrees, "mu": p.mu, "mu_bar": p.mu_bar, **sums}


def _srg_fields(p) -> dict:
    return {"n": p.n, "k": p.k1, "lam": p.lam, "mu": p.mu}


def _spectrum_block(g: Graph | SignedGraph) -> dict:
    roots, factor = spectrum.laplacian_spectrum(g)
    block = {"integer_eigenvalues": [{"value": r, "multiplicity": m} for r, m in roots]}
    if len(factor) > 1:
        block["irrational_factor_coefficients"] = factor
    return block


def _group_block(g: Graph | SignedGraph) -> dict:
    group = groups.critical_group(g)
    block = {
        "invariant_factors": group.invariant_factors,
        "exponent": group.exponent,
        "order": group.order,
    }
    if isinstance(g, Graph):  # the order of an unsigned group is kappa
        block["spanning_trees"] = group.order
    return block


# ---------------------------------------------------------------------------
# Subcommands (each takes the arguments and the loaded graph, None for scan,
# and returns (result dict, exit code))


def _cmd_generate(args, g) -> tuple[dict, int]:
    result = {"n": g.n, "edges": []}
    for u, v in g.sorted_edges():
        entry = {"u": u, "v": v}
        if isinstance(g, SignedGraph):
            entry["sign"] = "-" if (u, v) in g.negative_edges else "+"
        result["edges"].append(entry)
    result["file"] = format_graph(g)
    return result, 0


def _cmd_analyze(args, g) -> tuple[dict, int]:
    result = {
        "graph": _graph_summary(g),
        "structure": _structure_block(g),
        "spectrum": _spectrum_block(g),
    }
    try:
        result["group"] = _group_block(g)
    except GraphError as exc:
        result["group"] = None
        result["group_note"] = str(exc)
    return result, 0


def _cmd_group(args, g) -> tuple[dict, int]:
    return _group_block(g), 0


def _cmd_pairing(args, g) -> tuple[dict, int]:
    if isinstance(g, SignedGraph):
        raise StructureError("the pairing is defined for unsigned graphs only")
    if (args.edge1 is None) != (args.edge2 is None):
        raise GraphError("give both --edge1 and --edge2, or neither")
    if args.edge1 is not None:
        e1 = _parse_edge(args.edge1, "--edge1")
        e2 = _parse_edge(args.edge2, "--edge2")
        edges = [edge_key(*e1), edge_key(*e2)]
        for (u, v), e in zip((e1, e2), edges):
            if e not in g.edges:
                raise GraphError(f"({u},{v}) is not an edge")
    else:
        edges = g.sorted_edges()
    exponent, table = monodromy._pairing_table(g, edges)
    result = {"m": exponent}
    try:
        monodromy._closed_form_params(g)
        result["closed_form"] = True
    except StructureError:
        result["closed_form"] = False
    if args.edge1 is not None:
        value = str(monodromy.PairingValue.of(table[0][1], exponent))
        result["pairs"] = [{"edge1": e1, "edge2": e2, "value": value}]
    else:
        values = {a: str(monodromy.PairingValue.of(a, exponent)) for a in {x for row in table for x in row}}
        result["pairs"] = [
            {"edge1": edges[i], "edge2": edges[j], "value": values[row[j]]}
            for i, row in enumerate(table)
            for j in range(i, len(edges))
        ]
    return result, 0


def _cmd_orthogonal(args, g) -> tuple[dict, int]:
    found = pairing.orthogonal_subset(g, mode=args.mode, structural_hints=not args.no_hints,
                                      automorphisms=_automorphisms(args))
    result = {
        "mode": args.mode,
        "size": found.size,
        "edges": found.edges,
        "certificate": [
            {"edge1": a, "edge2": b, "value": str(v)}
            for a, b, v in found.certificate
        ],
    }
    return result, 0


def _cmd_verify(args, g) -> tuple[dict, int]:
    if args.check == "exponent":
        report = groups.verify_exponent_theorem(g)
        achieving = None
        if report.achieving_element is not None:
            kind, vertices = report.achieving_element
            achieving = {"type": kind, "vertices": vertices}
        result = {
            "check": "exponent",
            "kind": report.kind,
            "classification": report.classification,
            "spectral_bound": report.spectral_bound,
            "expected_exponent": report.expected_exponent,
            "exponent": report.exponent,
            "invariant_factors": report.group.invariant_factors,
            "max_edge_order": report.max_edge_order,
            "max_edge": report.max_edge,
            "achieving_element": achieving,
            "verdict": "pass" if report.matched else "fail",
        }
        if report.half_bound_even is not None:
            result["half_bound_even"] = report.half_bound_even
        return result, 0 if report.matched else 1
    if args.check == "spectral-bound":
        report = groups.verify_spectral_bound(g)
        result = {
            "check": "spectral-bound",
            "exponent": report.exponent,
            "distinct_eigenvalue_product": report.product,
            "verdict": "pass" if report.passed else "fail",
        }
        return result, 0 if report.passed else 1
    report = pairing.verify_tail_heavy(g, mode=args.mode, automorphisms=_automorphisms(args))
    result = {
        "check": "tail-heavy",
        "parameters": _srg_fields(report.params),
        "self_pairing_denominator": report.denominator,
        "orthogonal_size": report.orthogonal_set.size,
        "orthogonal_edges": report.orthogonal_set.edges,
        "predicted_subgroup": report.predicted.invariant_factors,
        "invariant_factors": report.group.invariant_factors,
        "divisibility_ok": report.divisibility_ok,
        "strong_pattern": report.strong_pattern,
        "verdict": "pass" if report.passed else "fail",
    }
    return result, 0 if report.passed else 1


def _cmd_scan(args, g) -> tuple[dict, int]:
    if args.full:
        tuples = scan.enumerate_feasible(args.nmax)
    else:
        tuples = scan.scan_tight_denominators(args.nmax)
    rows = [
        {
            **_srg_fields(ft.params),
            "multiplicities": ft.multiplicities,
            "conference": ft.conference,
            "denominator": ft.denominator,
            "denominator_equals_bound": ft.denominator_equals_bound,
            "needs_review": ft.needs_review,
        }
        for ft in tuples
    ]
    result = {
        "nmax": args.nmax,
        "full_enumeration": bool(args.full),
        "note": scan.SCAN_NOTE,
        "tuples": rows,
    }
    return result, 0


# ---------------------------------------------------------------------------
# Rendering


def _json(x, pad: str = "") -> str:
    """`x` as the stdlib JSON encoder writes it with indent=2, except that
    every int that is not a bool is a quoted decimal and a tuple a list."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return f'"{x}"'
    inner = pad + "  "
    if isinstance(x, dict):
        ends, items = "{}", [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in x.items()]
    else:
        ends, items = "[]", [_json(v, inner) for v in x]
    if not items:
        return ends
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"


def _render_text(obj: dict, indent: int = 0) -> list[str]:
    """The `--format text` lines of the plain values that `_json` writes."""
    pad = "  " * indent
    lines: list[str] = []
    for key, value in obj.items():
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:")
            lines.extend(_render_text(value, indent + 1))
        elif isinstance(value, (list, tuple)) and value and isinstance(value[0], (dict, list, tuple)):
            lines.append(f"{pad}{key}:")
            for item in value:
                if isinstance(item, (list, tuple)):
                    inner = ", ".join(str(x) for x in item)
                    lines.append(f"{'  ' * (indent + 1)}- [{inner}]")
                    continue
                rendered = _render_text(item, indent + 2)
                if rendered:
                    head = rendered[0].lstrip()
                    lines.append(f"{'  ' * (indent + 1)}- {head}")
                    lines.extend(rendered[1:])
        elif isinstance(value, (list, tuple)):
            lines.append(f"{pad}{key}: [{', '.join(str(x) for x in value)}]")
        else:
            lines.append(f"{pad}{key}: {value}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(_json(report) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(report)) + "\n")


# ---------------------------------------------------------------------------
# Entry point


# The grammar, stated once: each subcommand's help, handler and options, an
# option as its flag and the keywords `add_argument` takes, in the order
# `build_parser` adds them. `_parse_args` reads the same table.
_INPUTS = (
    ("--input", {"metavar": "FILE", "help": "graph file to read"}),
    ("--family", {"metavar": "NAME", "help": f"one of: {', '.join(GENERATOR_FAMILIES)}"}),
    ("--params", {"metavar": "LIST", "help": "comma-separated family parameters"}),
)
_FORMAT = (("--format", {"choices": ("json", "text"), "default": "json"}),)
_MODE = ("--mode", {"choices": ("exact", "greedy"), "default": "exact"})
_SUBCOMMANDS = {
    "generate": ("emit a graph in the file format", _cmd_generate, _INPUTS + _FORMAT),
    "analyze": ("parameters, spectrum, and group", _cmd_analyze, _INPUTS + _FORMAT),
    "group": ("invariant factors and exponent", _cmd_group, _INPUTS + _FORMAT),
    "pairing": ("edge pairing table or a single pair", _cmd_pairing, _INPUTS + _FORMAT + (
        ("--edge1", {"metavar": "U,V", "help": "first edge"}),
        ("--edge2", {"metavar": "X,Y", "help": "second edge"}),
    )),
    "orthogonal": ("orthogonal edge set search", _cmd_orthogonal, _INPUTS + _FORMAT + (
        _MODE,
        ("--no-hints", {"action": "store_true", "default": False,
                        "help": "disable the structural seeds of greedy mode"}),
    )),
    "verify": ("run a theorem verifier", _cmd_verify, _INPUTS + _FORMAT + (
        ("--check", {"required": True, "choices": ("exponent", "spectral-bound", "tail-heavy")}),
        _MODE,
    )),
    "scan": ("feasible parameter scan", _cmd_scan, _FORMAT + (
        ("--nmax", {"type": int, "required": True}),
        ("--full", {"action": "store_true", "default": False,
                    "help": "emit the full feasible enumeration"}),
    )),
}


def build_parser():
    """The argparse parser of the table, for the lines `_parse_args` leaves."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="critgroup",
        description="Exact critical groups of graphs and signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, options) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        for flag, keywords in options:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _parse_args(argv: list[str]):
    """The namespace `build_parser().parse_args(argv)` gives, for the plain
    form only: the subcommand, then each option at most once, as `--flag
    value` with a value not starting with "-" or as a bare store_true flag,
    with every choice, int and required option good. None for anything
    else (help, abbreviations, `--flag=value`, usage errors), which argparse
    then parses or rejects."""
    if not argv or argv[0] not in _SUBCOMMANDS:
        return None
    _, handler, options = _SUBCOMMANDS[argv[0]]
    options = dict(options)
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        keywords = options.get(flag)
        if keywords is None or flag in given:
            return None
        if keywords.get("action") == "store_true":
            given[flag] = True
            continue
        value = next(tokens, None)
        if value is None or value.startswith("-"):
            return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", (value,)):
            return None
        given[flag] = value
    args = SimpleNamespace(command=argv[0], handler=handler)
    for flag, keywords in options.items():
        if flag not in given and keywords.get("required"):
            return None
        setattr(args, flag[2:].replace("-", "_"), given.get(flag, keywords.get("default")))
    return args


def main(argv=None) -> int:
    """Run one command line, sys.argv[1:] by default, and return its exit
    status; argparse parses only the lines `_parse_args` leaves to it."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_args(argv) or build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        if args.command == "scan":
            g, descriptor = None, {"source": "scan"}
        else:
            g, descriptor = _load_graph(args)
        result, status = args.handler(args, g)
    except (GraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalCheckError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 3
    report = {
        "schema": SCHEMA,
        "command": args.command,
        "input": descriptor,
        "result": result,
    }
    _emit(report, args.format)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
