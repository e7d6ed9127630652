"""Correctness checks on every op's exit code and stdout.

Family ops must reproduce the stdout digest recorded in digests.json.
Every op must exit with its expected code and print a `critgroup/1` report
that passes the structural checks of its subcommand. Group orders of
generated files are recomputed here by stdlib Fraction elimination, so the
check shares no code with `critgroup.linalg`.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import prod

SCHEMA = "critgroup/1"


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def fraction_determinant(rows: list[list[int]]) -> int:
    """Determinant by Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    size = len(a)
    det = Fraction(1)
    for c in range(size):
        pivot = next((r for r in range(c, size) if a[r][c]), None)
        if pivot is None:
            return 0
        if pivot != c:
            a[c], a[pivot] = a[pivot], a[c]
            det = -det
        top = a[c]
        det *= top[c]
        for r in range(c + 1, size):
            if a[r][c]:
                factor = a[r][c] / top[c]
                row = a[r]
                for j in range(c + 1, size):
                    if top[j]:
                        row[j] -= factor * top[j]
    require(det.denominator == 1, "Fraction determinant is not an integer")
    return int(det)


def expected_order(graph: dict) -> int:
    """Spanning-tree count of an unsigned graph, |det L| of a signed one."""
    n = graph["n"]
    sign = -1 if graph["signed"] else 1
    lap = [[0] * n for _ in range(n)]
    for u, v in graph["edges"]:
        u, v = u - 1, v - 1
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= sign
        lap[v][u] -= sign
    if graph["signed"]:
        return abs(fraction_determinant(lap))
    return fraction_determinant([row[:-1] for row in lap[:-1]])


def _fraction(text: str) -> Fraction:
    num, den = text.split("/")
    return Fraction(int(num), int(den))


class Checker:
    """Checks op outputs against digests and against the generated inputs."""

    def __init__(self, manifest: dict, digests: dict[str, str] | None):
        """digests maps family-op labels to stdout SHA-256; None skips that check."""
        self.manifest = manifest
        self.digests = digests
        self._orders: dict[str, int] = {}
        self._queries: dict[tuple, list[tuple[str, str]]] = {}

    def check(self, op, returncode: int, stdout: bytes) -> str | None:
        """The reason the op failed, or None if it passed every check."""
        try:
            require(returncode == op.exit_code, f"exit code {returncode}, expected {op.exit_code}")
            if not op.seeded and self.digests is not None:
                want = self.digests.get(op.label)
                require(want is not None, "no reference digest")
                require(hashlib.sha256(stdout).hexdigest() == want, "stdout differs from reference digest")
            if op.exit_code:
                return None
            report = json.loads(stdout)
            require(report.get("schema") == SCHEMA, f"schema {report.get('schema')!r}")
            require(report.get("command") == op.args[0], f"command {report.get('command')!r}")
            getattr(self, "_" + op.args[0])(op, report["result"])
        except CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"
        return None

    def asymmetric_queries(self) -> set[str]:
        """Labels of single-pair queries whose answer depends on the pair's order."""
        return {
            label
            for answers in self._queries.values()
            if len({value for value, _ in answers}) > 1
            for _, label in answers
        }

    def reset_queries(self) -> None:
        self._queries.clear()

    # -- per-subcommand checks ------------------------------------------------

    def _group_block(self, op, block: dict, signed: bool) -> None:
        factors = [int(f) for f in block["invariant_factors"]]
        require(all(f > 1 for f in factors), "unit or zero invariant factor")
        require(all(b % a == 0 for a, b in zip(factors, factors[1:])), "divisibility chain broken")
        order = int(block["order"])
        require(prod(factors) == order, "product of factors != order")
        require(int(block["exponent"]) == (factors[-1] if factors else 1), "exponent != last factor")
        if not signed:
            require(int(block["spanning_trees"]) == order, "order != spanning_trees")
        if op.graph is not None and op.graph in self.manifest["graphs"]:
            graph = self.manifest["graphs"][op.graph]
            if op.graph not in self._orders:
                self._orders[op.graph] = expected_order(graph)
            require(order == self._orders[op.graph], "order != independently computed order")

    def _group(self, op, result: dict) -> None:
        self._group_block(op, result, self._signed(op))

    def _analyze(self, op, result: dict) -> None:
        require(result["graph"]["connected"] is True, "graph reported disconnected")
        require(result["graph"]["signed"] == self._signed(op), "signedness differs from the input")
        require(result["group"] is not None, "no group block")
        self._group_block(op, result["group"], self._signed(op))

    def _pairing(self, op, result: dict) -> None:
        m = int(result["m"])
        seen = set()
        for pair in result["pairs"]:
            value = _fraction(pair["value"])
            require(0 <= value < 1, f"pairing value {value} outside [0,1)")
            require(m % value.denominator == 0, f"denominator of {value} does not divide m={m}")
            e1, e2 = tuple(pair["edge1"]), tuple(pair["edge2"])
            seen.add(frozenset((e1, e2)) if e1 != e2 else frozenset((e1,)))
        if "--edge1" in op.args:
            require(len(result["pairs"]) == 1, "single-pair query returned several pairs")
            answer = (result["pairs"][0]["value"], op.label)
            self._queries.setdefault((op.graph, frozenset(seen)), []).append(answer)
        else:
            edges = {tuple(e) for pair in result["pairs"] for e in (pair["edge1"], pair["edge2"])}
            count = len(edges)
            require(len(seen) == len(result["pairs"]) == count * (count + 1) // 2,
                    "table does not list each unordered edge pair exactly once")
            if op.graph is not None:
                require(count == len(self.manifest["graphs"][op.graph]["edges"]), "table misses edges")

    def _orthogonal(self, op, result: dict) -> None:
        size = int(result["size"])
        require(size == len(result["edges"]) and size >= 1, "size does not match the edge list")
        require(len(result["certificate"]) == size * (size - 1) // 2, "certificate misses pairs")
        require(all(c["value"] == "0/1" for c in result["certificate"]), "certificate value not 0/1")

    def _verify(self, op, result: dict) -> None:
        require(result["verdict"] == "pass", f"verdict {result['verdict']!r}")
        check = result["check"]
        if check == "exponent":
            require(result["exponent"] == result["expected_exponent"], "exponent != expected")
        elif check == "spectral-bound":
            require(int(result["distinct_eigenvalue_product"]) % int(result["exponent"]) == 0,
                    "exponent does not divide the eigenvalue product")
        else:
            require(result["divisibility_ok"] is True, "tail-heavy divisibility failed")

    def _scan(self, op, result: dict) -> None:
        require(len(result["tuples"]) > 0, "empty scan")

    def _signed(self, op) -> bool:
        graph = self.manifest["graphs"].get(op.graph or "")
        return bool(graph and graph["signed"]) or "signed_complete_unbalanced" in op.args
