"""The benchmark's op lists: one `critgroup` CLI invocation per op.

Family ops (`--family`, `scan`) do not depend on the seed; their stdout is
checked against a recorded digest. Seeded ops read generated files or use
seeded edge pairs; they are checked structurally.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    args: tuple[str, ...]  # CLI arguments after `critgroup`
    label: str  # args, with a file path replaced by its manifest key
    graph: str | None = None  # manifest key of the graph, for cross-op checks
    seeded: bool = False
    exit_code: int = 0


def family(command: str, name: str, params: str | None = None, *extra: str) -> Op:
    args = (command, "--family", name, *(("--params", params) if params else ()), *extra)
    return Op(args, " ".join(args))


def from_file(manifest: dict, key: str, command: str, *extra: str) -> Op:
    path = manifest["graphs"][key]["path"]
    return Op(
        (command, "--input", path, *extra),
        " ".join((command, "--input", key, *extra)),
        graph=key,
        seeded=True,
    )


def pair_queries(manifest: dict, key: str) -> list[Op]:
    """Single-pair queries on seeded edge pairs, each asked in both orders."""
    ops = []
    for e1, e2 in manifest["pairs"][key]:
        for a, b in ((e1, e2), (e2, e1)):
            edges = ("--edge1", f"{a[0]},{a[1]}", "--edge2", f"{b[0]},{b[1]}")
            if key.startswith("paley-"):
                args = ("pairing", "--family", "paley", "--params", key[6:], *edges)
                ops.append(Op(args, " ".join(args), graph=key, seeded=True))
            else:
                ops.append(from_file(manifest, key, "pairing", *edges))
    return ops


def _keys(manifest: dict, prefix: str) -> list[str]:
    keys = [k for k in manifest["graphs"] if k.startswith(prefix)]
    return sorted(keys, key=lambda k: int(k[len(prefix):]))


# Run before timing, to compile bytecode and warm the file cache.
WARMUP = family("group", "petersen")

# (family, --params) pairs.
SMALL_FAMILIES = (
    ("petersen", None),
    ("clebsch_complement", None),
    ("complete_multipartite", "3,4,5"),
    ("star", "30"),
    ("signed_complete_unbalanced", "20"),
    ("signed_complete_unbalanced", "40"),
)
TAIL_HEAVY_GRAPHS = (
    ("paley", "13"),
    ("paley", "17"),
    ("paley", "29"),
    ("paley", "37"),
    ("petersen", None),
    ("clebsch_complement", None),
)


def invariants(manifest: dict) -> list[Op]:
    """`group` and `analyze` over a size ladder: SNF diagonal and char_poly."""
    ops = [family("group", "paley", str(q)) for q in (13, 29, 41, 61, 101)]
    ops += [family("analyze", "paley", str(q)) for q in (13, 29, 41, 61)]
    ops += [family("group", "cycle", "40"), family("group", "cycle", "200")]
    ops.append(family("analyze", "cycle", "40"))
    ops += [family(cmd, *fam) for fam in SMALL_FAMILIES for cmd in ("group", "analyze")]
    ladder = _keys(manifest, "gnp-")
    ops += [from_file(manifest, k, "group") for k in ladder]
    ops += [from_file(manifest, k, "analyze") for k in ladder[:3]]
    for key in _keys(manifest, "negk-"):
        ops += [from_file(manifest, key, "group"), from_file(manifest, key, "analyze")]
    return ops


def pairings(manifest: dict) -> list[Op]:
    """Full pairing tables (closed form and transform solve) and single pairs."""
    ops = [family("pairing", "paley", str(q)) for q in (13, 17, 29)]
    ops.append(family("pairing", "petersen"))
    ops += [family("pairing", "cycle", str(n)) for n in (20, 30)]
    ops.append(from_file(manifest, "gnps-12", "pairing"))
    for key in manifest["pairs"]:
        ops += pair_queries(manifest, key)
    return ops


def verdicts(manifest: dict) -> list[Op]:
    """Exponent, tail-heavy, orthogonal and spectral-bound verdicts, one scan."""
    ops = [family("verify", "paley", str(q), "--check", "exponent") for q in (13, 17, 29, 37, 41, 53, 61)]
    ops += [family("verify", fam, None, "--check", "exponent") for fam in ("petersen", "clebsch_complement")]
    ops += [family("verify", "star", str(p), "--check", "exponent") for p in (5, 10, 15, 20, 25, 30)]
    for n in (3, 4, 5, 6, 8, 10):
        ops.append(family("verify", "complete_multipartite", f"{n},{n}", "--check", "exponent"))
    for fam in TAIL_HEAVY_GRAPHS:
        for mode in ("exact", "greedy"):
            if fam == ("paley", "37") and mode == "greedy":
                continue  # the largest search: exact tail-heavy only
            ops.append(family("verify", *fam, "--check", "tail-heavy", "--mode", mode))
            if fam != ("paley", "37"):  # the same search runs inside tail-heavy
                ops.append(family("orthogonal", *fam, "--mode", mode))
    spectral = (("cycle", "40"), ("paley", "13"), ("paley", "17"), ("paley", "29"),
                ("petersen", None), ("clebsch_complement", None))
    ops += [family("verify", *fam, "--check", "spectral-bound") for fam in spectral]
    for key in (*_keys(manifest, "gnps-"), "gnp-40"):
        ops.append(from_file(manifest, key, "verify", "--check", "spectral-bound"))
    scan = ("scan", "--nmax", "500", "--full")
    ops.append(Op(scan, " ".join(scan)))
    for key in _keys(manifest, "negk-"):
        ops.append(from_file(manifest, key, "verify", "--check", "exponent"))
    return ops


WORKLOADS = {"invariants": invariants, "pairings": pairings, "verdicts": verdicts}
