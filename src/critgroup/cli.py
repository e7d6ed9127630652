"""Command-line surface: graph ingestion, analysis, verification reports.

Reports are deterministic: identical invocations produce byte-identical
stdout. Timing goes to stderr. Integers are serialized as decimal strings
and pairing values as "p/q", so consumers never face overflow or floats.

Exit codes: 0 a report was written, 1 a verifier ran and the property
failed, 2 bad input or a graph the command does not apply to (an `error:`
line on stderr), 3 an internal exact check failed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import GraphError, InternalCheckError, StructureError
from .graphs import (
    GENERATOR_FAMILIES,
    Graph,
    SignedGraph,
    detect_two_eigenvalue,
    edge_key,
    format_graph,
    generate,
    is_balanced,
    read_graph_file,
    require_connected,
)
from .groups import (
    critical_group,
    spanning_tree_count,
    verify_exponent_theorem,
    verify_spectral_bound,
)
from .linalg import laplacian_spectrum
from .pairing import (
    PairingValue,
    _closed_form_params,
    _pairing_table,
    orthogonal_subset,
    verify_tail_heavy,
)
from .scan import SCAN_NOTE, enumerate_feasible, scan_tight_denominators

SCHEMA = "critgroup/1"


def _jint(x: int) -> str:
    return str(int(x))


def _jedge(e) -> list[str]:
    return [_jint(e[0]), _jint(e[1])]


# ---------------------------------------------------------------------------
# Input handling


def _add_input_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", metavar="FILE", help="graph file to read")
    p.add_argument("--family", metavar="NAME", help=f"one of: {', '.join(GENERATOR_FAMILIES)}")
    p.add_argument("--params", metavar="LIST", help="comma-separated family parameters")


def _add_format_argument(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("json", "text"), default="json")


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
        "n": _jint(g.n),
        "edge_count": _jint(len(base.edges)),
        "signed": signed,
        "connected": base.is_connected(),
    }
    if signed:
        summary["negative_edge_count"] = _jint(len(g.negative_edges))
        summary["balanced"] = is_balanced(g).balanced
    return summary


def _structure_block(g: Graph | SignedGraph) -> dict | None:
    """The structure record as a report block. K_n, n >= 2, has no record,
    its one non-zero eigenvalue n standing for both, and is reported as
    strongly regular with parameters (n, n-1, n-2, 0)."""
    signed = isinstance(g, SignedGraph)
    if not signed and g.is_complete():
        if g.n == 1:
            return None
        n = g.n
        fields = {"type": "strongly_regular", "n": n, "k": n - 1, "lam": n - 2, "mu": 0,
                  "eigenvalue_sum": n, "eigenvalue_product": 0}
    else:
        p = detect_two_eigenvalue(g)
        if p is None:
            return None
        sums = {"eigenvalue_sum": p.eigenvalue_sum, "eigenvalue_product": p.eigenvalue_product}
        degrees = {"k": p.k1, "lam": p.lam} if p.regular else {"k1": p.k1, "k2": p.k2}
        if signed:
            case = "regular" if p.regular else "two_degree"
            fields = {"type": "signed_two_eigenvalue", "case": case, **sums, **degrees}
        elif p.regular:
            fields = {"type": "strongly_regular", "n": p.n, **degrees, "mu": p.mu, **sums}
        else:
            fields = {"type": "two_degree", **degrees, "mu": p.mu, "mu_bar": p.mu_bar, **sums}
    return {key: x if isinstance(x, str) else _jint(x) for key, x in fields.items()}


def _spectrum_block(g: Graph | SignedGraph) -> dict:
    roots, factor = laplacian_spectrum(g)
    block = {
        "integer_eigenvalues": [
            {"value": _jint(r), "multiplicity": _jint(m)} for r, m in roots
        ]
    }
    if len(factor) > 1:
        block["irrational_factor_coefficients"] = [_jint(c) for c in factor]
    return block


def _group_block(g: Graph | SignedGraph) -> dict:
    group = critical_group(g)
    block = {
        "invariant_factors": [_jint(f) for f in group.invariant_factors],
        "exponent": _jint(group.exponent),
        "order": _jint(group.order),
    }
    if isinstance(g, Graph):
        block["spanning_trees"] = _jint(spanning_tree_count(g))
    return block


# ---------------------------------------------------------------------------
# Subcommands (each returns (result dict, exit code))


def _cmd_generate(args) -> tuple[dict, dict, int]:
    g, descriptor = _load_graph(args)
    base = g.graph if isinstance(g, SignedGraph) else g
    result = {"n": _jint(g.n), "edges": []}
    for u, v in base.sorted_edges():
        entry = {"u": _jint(u), "v": _jint(v)}
        if isinstance(g, SignedGraph):
            entry["sign"] = "-" if (u, v) in g.negative_edges else "+"
        result["edges"].append(entry)
    result["file"] = format_graph(g)
    return result, descriptor, 0


def _cmd_analyze(args) -> tuple[dict, dict, int]:
    g, descriptor = _load_graph(args)
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
    return result, descriptor, 0


def _cmd_group(args) -> tuple[dict, dict, int]:
    g, descriptor = _load_graph(args)
    return _group_block(g), descriptor, 0


def _cmd_pairing(args) -> tuple[dict, dict, int]:
    g, descriptor = _load_graph(args)
    if isinstance(g, SignedGraph):
        raise StructureError("the pairing is defined for unsigned graphs only")
    if (args.edge1 is None) != (args.edge2 is None):
        raise GraphError("give both --edge1 and --edge2, or neither")
    if args.edge1 is not None:
        e1 = _parse_edge(args.edge1, "--edge1")
        e2 = _parse_edge(args.edge2, "--edge2")
        for u, v in (e1, e2):
            if edge_key(u, v) not in g.edges:
                raise GraphError(f"({u},{v}) is not an edge")
    group = critical_group(g)
    result = {"m": _jint(group.exponent)}
    try:
        _closed_form_params(g)
        result["closed_form"] = True
    except StructureError:
        result["closed_form"] = False
    if args.edge1 is not None:
        exponent, table = _pairing_table(g, [edge_key(*e1), edge_key(*e2)])
        value = str(PairingValue.of(table[0][1], exponent))
        result["pairs"] = [{"edge1": _jedge(e1), "edge2": _jedge(e2), "value": value}]
    else:
        edges = g.sorted_edges()
        exponent, table = _pairing_table(g, edges)
        labels = [_jedge(e) for e in edges]
        values = {a: str(PairingValue.of(a, exponent)) for a in {x for row in table for x in row}}
        result["pairs"] = [
            {"edge1": labels[i], "edge2": labels[j], "value": values[row[j]]}
            for i, row in enumerate(table)
            for j in range(i, len(edges))
        ]
    return result, descriptor, 0


def _cmd_orthogonal(args) -> tuple[dict, dict, int]:
    g, descriptor = _load_graph(args)
    found = orthogonal_subset(g, mode=args.mode, structural_hints=not args.no_hints)
    result = {
        "mode": args.mode,
        "size": _jint(found.size),
        "edges": [_jedge(e) for e in found.edges],
        "certificate": [
            {"edge1": _jedge(a), "edge2": _jedge(b), "value": str(v)}
            for a, b, v in found.certificate
        ],
    }
    return result, descriptor, 0


def _cmd_verify(args) -> tuple[dict, dict, int]:
    g, descriptor = _load_graph(args)
    if args.check == "exponent":
        report = verify_exponent_theorem(g)
        achieving = None
        if report.achieving_element is not None:
            kind, vertices = report.achieving_element
            achieving = {"type": kind, "vertices": [_jint(x) for x in vertices]}
        result = {
            "check": "exponent",
            "kind": report.kind,
            "classification": report.classification,
            "spectral_bound": _jint(report.spectral_bound),
            "expected_exponent": _jint(report.expected_exponent),
            "exponent": _jint(report.exponent),
            "invariant_factors": [_jint(f) for f in report.group.invariant_factors],
            "max_edge_order": _jint(report.max_edge_order),
            "max_edge": _jedge(report.max_edge) if report.max_edge else None,
            "achieving_element": achieving,
            "verdict": "pass" if report.matched else "fail",
        }
        if report.half_bound_even is not None:
            result["half_bound_even"] = report.half_bound_even
        return result, descriptor, 0 if report.matched else 1
    if args.check == "spectral-bound":
        report = verify_spectral_bound(g)
        result = {
            "check": "spectral-bound",
            "exponent": _jint(report.exponent),
            "distinct_eigenvalue_product": _jint(report.product),
            "verdict": "pass" if report.passed else "fail",
        }
        return result, descriptor, 0 if report.passed else 1
    report = verify_tail_heavy(g, mode=args.mode)
    result = {
        "check": "tail-heavy",
        "parameters": {
            "n": _jint(report.params.n),
            "k": _jint(report.params.k1),
            "lam": _jint(report.params.lam),
            "mu": _jint(report.params.mu),
        },
        "self_pairing_denominator": _jint(report.denominator),
        "orthogonal_size": _jint(report.orthogonal_set.size),
        "orthogonal_edges": [_jedge(e) for e in report.orthogonal_set.edges],
        "predicted_subgroup": [_jint(f) for f in report.predicted.invariant_factors],
        "invariant_factors": [_jint(f) for f in report.group.invariant_factors],
        "divisibility_ok": report.divisibility_ok,
        "strong_pattern": report.strong_pattern,
        "verdict": "pass" if report.passed else "fail",
    }
    return result, descriptor, 0 if report.passed else 1


def _cmd_scan(args) -> tuple[dict, dict, int]:
    if args.full:
        tuples = enumerate_feasible(args.nmax)
    else:
        tuples = scan_tight_denominators(args.nmax)
    rows = []
    for ft in tuples:
        p = ft.params
        rows.append(
            {
                "n": _jint(p.n),
                "k": _jint(p.k1),
                "lam": _jint(p.lam),
                "mu": _jint(p.mu),
                "multiplicities": [_jint(m) for m in ft.multiplicities],
                "conference": ft.conference,
                "denominator": _jint(ft.denominator),
                "denominator_equals_bound": ft.denominator_equals_bound,
                "needs_review": ft.needs_review,
            }
        )
    result = {
        "nmax": _jint(args.nmax),
        "full_enumeration": bool(args.full),
        "note": SCAN_NOTE,
        "tuples": rows,
    }
    return result, {"source": "scan"}, 0


# ---------------------------------------------------------------------------
# Rendering


def _render_text(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_text(value, indent + 1))
            elif isinstance(value, list) and value and isinstance(value[0], (dict, list)):
                lines.append(f"{pad}{key}:")
                for item in value:
                    if isinstance(item, list):
                        inner = ", ".join(str(x) for x in item)
                        lines.append(f"{'  ' * (indent + 1)}- [{inner}]")
                        continue
                    rendered = _render_text(item, indent + 2)
                    if rendered:
                        head = rendered[0].lstrip()
                        lines.append(f"{'  ' * (indent + 1)}- {head}")
                        lines.extend(rendered[1:])
            elif isinstance(value, list):
                lines.append(f"{pad}{key}: [{', '.join(str(x) for x in value)}]")
            else:
                lines.append(f"{pad}{key}: {value}")
    elif isinstance(obj, list):
        for item in obj:
            lines.append(f"{pad}{item}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(report, indent=2) + "\n")
    else:
        sys.stdout.write("\n".join(_render_text(report)) + "\n")


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critgroup",
        description="Exact critical groups of graphs and signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="emit a graph in the file format")
    _add_input_arguments(p)
    _add_format_argument(p)
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("analyze", help="parameters, spectrum, and group")
    _add_input_arguments(p)
    _add_format_argument(p)
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("group", help="invariant factors and exponent")
    _add_input_arguments(p)
    _add_format_argument(p)
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("pairing", help="edge pairing table or a single pair")
    _add_input_arguments(p)
    _add_format_argument(p)
    p.add_argument("--edge1", metavar="U,V", help="first edge")
    p.add_argument("--edge2", metavar="X,Y", help="second edge")
    p.set_defaults(handler=_cmd_pairing)

    p = sub.add_parser("orthogonal", help="orthogonal edge set search")
    _add_input_arguments(p)
    _add_format_argument(p)
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--no-hints", action="store_true",
                   help="disable the structural seeds of greedy mode")
    p.set_defaults(handler=_cmd_orthogonal)

    p = sub.add_parser("verify", help="run a theorem verifier")
    _add_input_arguments(p)
    _add_format_argument(p)
    p.add_argument(
        "--check",
        required=True,
        choices=("exponent", "spectral-bound", "tail-heavy"),
    )
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("scan", help="feasible parameter scan")
    _add_format_argument(p)
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--full", action="store_true", help="emit the full feasible enumeration")
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        result, descriptor, status = args.handler(args)
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
