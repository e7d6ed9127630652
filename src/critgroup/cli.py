"""Command-line surface: graph ingestion, analysis, verification reports.

Reports are deterministic: identical invocations produce byte-identical
stdout. Timing goes to stderr. Report builders return plain values, and
`_json` is the one place an integer becomes a decimal string; pairing
values are "p/q", so consumers never face overflow or floats.

Exit codes: 0 a report was written, 1 a verifier ran and the property
failed, 2 bad input or a graph the command does not apply to (an `error:`
line on stderr), 3 an internal exact check failed.
"""

from __future__ import annotations

import argparse
import sys
import time
from json.encoder import encode_basestring_ascii

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
from .groups import critical_group, verify_exponent_theorem, verify_spectral_bound
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
            fields = {"type": "strongly_regular", **_srg_fields(p), **sums}
        else:
            fields = {"type": "two_degree", **degrees, "mu": p.mu, "mu_bar": p.mu_bar, **sums}
    return fields


def _srg_fields(p) -> dict:
    return {"n": p.n, "k": p.k1, "lam": p.lam, "mu": p.mu}


def _spectrum_block(g: Graph | SignedGraph) -> dict:
    roots, factor = laplacian_spectrum(g)
    block = {"integer_eigenvalues": [{"value": r, "multiplicity": m} for r, m in roots]}
    if len(factor) > 1:
        block["irrational_factor_coefficients"] = factor
    return block


def _group_block(g: Graph | SignedGraph) -> dict:
    group = critical_group(g)
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
    exponent, table = _pairing_table(g, edges)
    result = {"m": exponent}
    try:
        _closed_form_params(g)
        result["closed_form"] = True
    except StructureError:
        result["closed_form"] = False
    if args.edge1 is not None:
        value = str(PairingValue.of(table[0][1], exponent))
        result["pairs"] = [{"edge1": e1, "edge2": e2, "value": value}]
    else:
        values = {a: str(PairingValue.of(a, exponent)) for a in {x for row in table for x in row}}
        result["pairs"] = [
            {"edge1": edges[i], "edge2": edges[j], "value": values[row[j]]}
            for i, row in enumerate(table)
            for j in range(i, len(edges))
        ]
    return result, 0


def _cmd_orthogonal(args, g) -> tuple[dict, int]:
    found = orthogonal_subset(g, mode=args.mode, structural_hints=not args.no_hints)
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
        report = verify_exponent_theorem(g)
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
        report = verify_spectral_bound(g)
        result = {
            "check": "spectral-bound",
            "exponent": report.exponent,
            "distinct_eigenvalue_product": report.product,
            "verdict": "pass" if report.passed else "fail",
        }
        return result, 0 if report.passed else 1
    report = verify_tail_heavy(g, mode=args.mode)
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
        tuples = enumerate_feasible(args.nmax)
    else:
        tuples = scan_tight_denominators(args.nmax)
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
        "note": SCAN_NOTE,
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="critgroup",
        description="Exact critical groups of graphs and signed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--input", metavar="FILE", help="graph file to read")
    inputs.add_argument("--family", metavar="NAME", help=f"one of: {', '.join(GENERATOR_FAMILIES)}")
    inputs.add_argument("--params", metavar="LIST", help="comma-separated family parameters")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("json", "text"), default="json")
    graph_input = [inputs, fmt]

    p = sub.add_parser("generate", parents=graph_input, help="emit a graph in the file format")
    p.set_defaults(handler=_cmd_generate)

    p = sub.add_parser("analyze", parents=graph_input, help="parameters, spectrum, and group")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("group", parents=graph_input, help="invariant factors and exponent")
    p.set_defaults(handler=_cmd_group)

    p = sub.add_parser("pairing", parents=graph_input, help="edge pairing table or a single pair")
    p.add_argument("--edge1", metavar="U,V", help="first edge")
    p.add_argument("--edge2", metavar="X,Y", help="second edge")
    p.set_defaults(handler=_cmd_pairing)

    p = sub.add_parser("orthogonal", parents=graph_input, help="orthogonal edge set search")
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.add_argument("--no-hints", action="store_true",
                   help="disable the structural seeds of greedy mode")
    p.set_defaults(handler=_cmd_orthogonal)

    p = sub.add_parser("verify", parents=graph_input, help="run a theorem verifier")
    p.add_argument(
        "--check",
        required=True,
        choices=("exponent", "spectral-bound", "tail-heavy"),
    )
    p.add_argument("--mode", choices=("exact", "greedy"), default="exact")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("scan", parents=[fmt], help="feasible parameter scan")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--full", action="store_true", help="emit the full feasible enumeration")
    p.set_defaults(handler=_cmd_scan)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
