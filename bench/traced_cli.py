"""Run the critgroup CLI with a span around each traced public function.

    CRITGROUP_BENCH_SPANS=FILE CRITGROUP_BENCH_OP=7 python3 bench/traced_cli.py group --family petersen

behaves like `critgroup group --family petersen`: same stdout, stderr and
exit code. It wraps every function in TRACED at each module binding site,
because `from .graphs import detect_srg` copies the reference into `cli`,
`groups` and `pairing`. Spans (id, parent id, function, start, end) are kept
in memory and written to FILE as JSON when the op ends; nothing of the
trace goes to stdout.

The parent process imports this module for TRACED and `summarize`, which
turns one span file into per-layer metrics.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import time

TRACED = {
    "graphs": ("generate", "read_graph_file", "detect_srg", "detect_two_eigenvalue",
               "detect_signed_two_eigenvalue", "is_balanced"),
    "linalg": ("laplacian", "smith_normal_form", "char_poly", "determinant", "solve_rational",
               "distinct_nonzero_eigenvalue_product", "integer_roots"),
    "groups": ("critical_group", "element_order", "decomposition", "spanning_tree_count",
               "verify_exponent_theorem", "verify_spectral_bound"),
    "pairing": ("monodromy_pairing", "edge_pairing_closed_form", "orthogonal_subset",
                "verify_tail_heavy"),
    "scan": ("enumerate_feasible", "scan_tight_denominators"),
}
ROOT = "cli.main"
FUNCTIONS = [ROOT] + [f"{module}.{name}" for module, names in TRACED.items() for name in names]
CACHED = "groups.laplacian_snf"


def _snf_bits(result) -> int:
    return max((abs(x).bit_length() for m in (result.U, result.V) for row in m.entries for x in row),
               default=0)


def _poly_bits(result) -> int:
    return max((abs(c).bit_length() for c in result.coeffs), default=0)


BITS = {"linalg.smith_normal_form": _snf_bits, "linalg.char_poly": _poly_bits}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name, in report order, with its unit."""
    units = {"cli.import_s": "s", "cli.self_s": "s"}
    for module, names in TRACED.items():
        for name in names:
            units[f"{module}.{name}.calls"] = "count"
            units[f"{module}.{name}.busy_s"] = "s"
            if f"{module}.{name}" in BITS:
                units[f"{module}.{name}.max_bits"] = "bits"
        if module == "groups":
            units[f"{CACHED}.hits"] = "count"
            units[f"{CACHED}.misses"] = "count"
        units[f"{module}.self_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Recorder:
    def __init__(self):
        self.spans: list[tuple[int, int, int, int, int]] = []
        self.max_bits: dict[str, int] = {}
        self._stack = [0]
        self._ids = itertools.count(1)

    def wrap(self, name: str, fn):
        index = FUNCTIONS.index(name)
        bits = BITS.get(name)
        spans, stack, ids = self.spans, self._stack, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = next(ids)
            parent = stack[-1]
            stack.append(span)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans.append((span, parent, index, start, end))
            if bits is not None:
                self.max_bits[name] = max(self.max_bits.get(name, 0), bits(result))
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Replace each traced function at every critgroup binding site."""
    wrappers = {}
    for module, names in TRACED.items():
        mod = sys.modules[f"critgroup.{module}"]
        for name in names:
            fn = getattr(mod, name, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, recorder.wrap(f"{module}.{name}", fn))
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "critgroup" and not mod_name.startswith("critgroup."):
            continue
        for attr, value in list(vars(mod).items()):
            found = wrappers.get(id(value))
            if found is not None and found[0] is value:
                setattr(mod, attr, found[1])


def main(argv: list[str]) -> int:
    out_path = os.environ["CRITGROUP_BENCH_SPANS"]
    start = time.perf_counter()
    import critgroup.cli as cli
    import_s = time.perf_counter() - start

    recorder = Recorder()
    install(recorder)
    status = 1
    try:
        status = recorder.wrap(ROOT, cli.main)(argv)
    except SystemExit as exc:  # argparse errors exit from inside main
        status = exc.code if isinstance(exc.code, int) else 1
    finally:
        cached = getattr(sys.modules["critgroup.groups"], "laplacian_snf", None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        doc = {
            "op": os.environ.get("CRITGROUP_BENCH_OP"),
            "import_s": import_s,
            "functions": FUNCTIONS,
            "spans": recorder.spans,
            "max_bits": recorder.max_bits,
            "cache": {"hits": info.hits, "misses": info.misses} if info else {"hits": 0, "misses": 0},
        }
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, separators=(",", ":"))
    return status


def summarize(doc: dict) -> dict[str, float]:
    """Per-layer metrics of one op from its span file (trace.overhead_s aside).

    busy_s is inclusive time, counting only the outermost of nested calls to
    the same function; <module>.self_s is span time minus direct child spans.
    """
    names = doc["functions"]
    by_id = {s[0]: s for s in doc["spans"]}
    calls = dict.fromkeys(names, 0)
    busy = dict.fromkeys(names, 0)
    child_ns: dict[int, int] = {}
    for span, parent, index, start, end in doc["spans"]:
        calls[names[index]] += 1
        child_ns[parent] = child_ns.get(parent, 0) + end - start
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != index:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            busy[names[index]] += end - start
    self_ns = dict.fromkeys(["cli", *TRACED], 0)
    for span, parent, index, start, end in doc["spans"]:
        self_ns[names[index].split(".")[0]] += end - start - child_ns.get(span, 0)

    metrics = {"cli.import_s": doc["import_s"], "cli.self_s": self_ns["cli"] / 1e9}
    for name in names[1:]:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.busy_s"] = busy[name] / 1e9
    for name in BITS:
        metrics[f"{name}.max_bits"] = doc["max_bits"].get(name, 0)
    metrics[f"{CACHED}.hits"] = doc["cache"]["hits"]
    metrics[f"{CACHED}.misses"] = doc["cache"]["misses"]
    for module in TRACED:
        metrics[f"{module}.self_s"] = self_ns[module] / 1e9
    return metrics


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
