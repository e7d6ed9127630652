"""Seeded benchmark inputs.

Writes connected G(n,p) graph files, all-negative signed K_n files and the
edge pairs for single-pair pairing queries. The same seed gives the same
files and pairs. The program under test only ever sees the files and the
command-line arguments built from them.

    python3 bench/inputs.py --seed 7 --out bench/_work/inputs

prints the manifest (file paths, sizes, query pairs) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import combinations

# Invariants ladder: one connected G(n, GNP_P) file per size.
GNP_LADDER = (40, 45, 50, 55, 60, 65, 70, 75, 80)
GNP_P = 0.15
# Small connected G(n, GNPS_P) files, one per size: spectral-bound checks,
# the transform-solve pairing table and pairing queries.
GNPS_SIZES = range(12, 30)
GNPS_P = 0.2
# All-negative signed K_n files, one per size; the seed orders their lines.
NEGK_SIZES = range(4, 36)
# Single-pair pairing queries: graph -> number of edge pairs drawn.
PAIR_QUERIES = {"paley-29": 14, "paley-37": 8, "paley-41": 8, "gnps-24": 9, "gnps-28": 8}


def paley_edges(p: int) -> list[tuple[int, int]]:
    """Edges of the Paley graph on a prime p, with vertex a+1 for residue a."""
    squares = {x * x % p for x in range(1, p)}
    return [(a + 1, b + 1) for a, b in combinations(range(p), 2) if (b - a) % p in squares]


def connected_gnp(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of a G(n,p) sample, redrawn until the graph is connected."""
    while True:
        edges = [(u, v) for u, v in combinations(range(1, n + 1), 2) if rng.random() < p]
        adjacent = {v: [] for v in range(1, n + 1)}
        for u, v in edges:
            adjacent[u].append(v)
            adjacent[v].append(u)
        seen, stack = {1}, [1]
        while stack:
            for w in adjacent[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == n:
            return edges


def _write(path: str, n: int, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"n {n}\n" + "".join(line + "\n" for line in lines))


def generate(seed: int, out_dir: str) -> dict:
    """Write every input file under out_dir and return the manifest.

    Manifest: {"graphs": {key: {"path", "n", "edges", "signed"}},
    "pairs": {key: [[[u, v], [x, y]], ...]}}. Paley graphs appear in
    "graphs" without a path: the CLI generates them from --family.
    """
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)
    graphs: dict[str, dict] = {}

    def add_file(key: str, n: int, edges, signed: bool) -> None:
        edges = list(edges)
        rng.shuffle(edges)  # file line order is part of the seeded input
        path = os.path.join(out_dir, key + ".txt")
        _write(path, n, [f"{u} {v} -" if signed else f"{u} {v}" for u, v in edges])
        graphs[key] = {"path": path, "n": n, "edges": sorted(edges), "signed": signed}

    for n in GNP_LADDER:
        add_file(f"gnp-{n}", n, connected_gnp(n, GNP_P, rng), signed=False)
    for n in GNPS_SIZES:
        add_file(f"gnps-{n}", n, connected_gnp(n, GNPS_P, rng), signed=False)
    for n in NEGK_SIZES:
        add_file(f"negk-{n}", n, combinations(range(1, n + 1), 2), signed=True)
    for q in (29, 37, 41):
        graphs[f"paley-{q}"] = {"path": None, "n": q, "edges": paley_edges(q), "signed": False}

    pairs = {}
    for key, count in PAIR_QUERIES.items():
        edges = graphs[key]["edges"]
        pairs[key] = [[list(e) for e in rng.sample(edges, 2)] for _ in range(count)]
    return {"graphs": graphs, "pairs": pairs}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the input files")
    args = parser.parse_args(argv)
    json.dump(generate(args.seed, args.out), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
