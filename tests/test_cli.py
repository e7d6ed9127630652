import collections
import hashlib
import importlib.util
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import critgroup.cli as cli
import critgroup.groups
import critgroup.linalg
import critgroup.monodromy
import critgroup.pairing
import critgroup.spectrum
from critgroup import (
    GENERATOR_FAMILIES,
    InternalCheckError,
    SignedGraph,
    cycle,
    edge_difference,
    format_graph,
    monodromy_pairing,
    paley,
    petersen,
)
from critgroup.errors import replace
from conftest import (
    distinct_nonzero_root_product,
    random_connected_graph,
    signed_complete_all_negative,
    signed_corpus,
    unsigned_two_eigenvalue_corpus,
)

# analyze stdout for the two-eigenvalue corpora, each graph read from
# <name>.txt in the working directory, recorded before the unsigned and
# signed detectors were merged into one
ANALYZE_GOLDENS = pathlib.Path(__file__).with_name("analyze_goldens.json")
# exit code, stdout digest and stderr of every report that reads the
# structure record or its two exceptional families, recorded while the
# strongly regular record and the complete-multipartite classifiers still
# existed beside it; keyed by the joined arguments of `structure_ops`
STRUCTURE_GOLDENS = pathlib.Path(__file__).with_name("structure_goldens.json")
# exit code, stdout and stderr of help and usage errors, and of forms only
# argparse accepts, keyed by `usage_ops`; recorded while every run built the
# argparse parser
USAGE_GOLDENS = pathlib.Path(__file__).with_name("usage_goldens.json")
# stdout SHA-256 of the benchmark's family ops, keyed by their joined
# arguments; the benchmark owns this file and the tests only read it
BENCH_DIGESTS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "digests.json"
# the benchmark's traced runner, read here and never edited
TRACED_CLI = BENCH_DIGESTS.with_name("traced_cli.py")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


def structure_ops():
    """CLI argument lists around the two exceptional families: analyze on
    complete graphs, stars and K_{m,m}; the exponent and tail-heavy checks
    on those and on the unsigned two-eigenvalue corpus, read from
    <name>.txt; pairing tables; the parameter scan."""
    families = (
        [("complete", str(n)) for n in range(1, 7)]
        + [("star", str(p)) for p in range(1, 6)]
        + [("complete_multipartite", f"{m},{m}") for m in range(1, 6)]
        + [("complete_multipartite", "2,3")]
    )
    ops = [["analyze", "--family", name, "--params", params] for name, params in families]
    sources = [["--input", f"{name}.txt"] for name, _ in unsigned_two_eigenvalue_corpus()]
    sources += [["--family", name, "--params", params] for name, params in families]
    for source in sources:
        ops.append(["verify", *source, "--check", "exponent"])
        for mode in ("exact", "greedy"):
            ops.append(["verify", *source, "--check", "tail-heavy", "--mode", mode])
    ops += [
        ["pairing", "--family", "petersen"],
        ["pairing", "--family", "star", "--params", "3"],
        ["pairing", "--family", "complete", "--params", "4"],
        ["pairing", "--family", "complete_multipartite", "--params", "3,3"],
    ]
    for fmt in ("json", "text"):
        ops.append(["scan", "--nmax", "100", "--format", fmt])
        ops.append(["scan", "--nmax", "60", "--full", "--format", fmt])
    return ops


def without_elapsed(err):
    """stderr without its elapsed line, the one part of a run's output that
    changes between runs."""
    return "".join(line for line in err.splitlines(keepends=True)
                   if not line.startswith("elapsed: "))


def structure_record(code, out, err):
    """What a structure golden keeps of one run."""
    return {
        "exit": code,
        "stdout_sha256": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": without_elapsed(err),
    }


def write_corpus_files(directory):
    for name, g in unsigned_two_eigenvalue_corpus():
        (directory / f"{name}.txt").write_text(format_graph(g))


def test_group_golden(capsys):
    code, report, err = run_json(
        capsys, "group", "--family", "complete_multipartite", "--params", "3,3"
    )
    assert code == 0
    assert report["schema"] == "critgroup/1"
    assert report["command"] == "group"
    assert report["result"]["invariant_factors"] == ["3", "3", "9"]
    assert report["result"]["exponent"] == "9"
    assert report["result"]["order"] == "81"
    assert report["result"]["spanning_trees"] == "81"
    assert "elapsed" in err


def test_output_byte_identical(capsys):
    _, out1, _ = run(capsys, "analyze", "--family", "petersen")
    _, out2, _ = run(capsys, "analyze", "--family", "petersen")
    assert out1 == out2


def test_generate_round_trip(capsys, tmp_path):
    code, report, _ = run_json(
        capsys, "generate", "--family", "signed_complete_unbalanced", "--params", "4"
    )
    assert code == 0
    text = report["result"]["file"]
    path = tmp_path / "g.txt"
    path.write_text(text)
    code2, report2, _ = run_json(capsys, "group", "--input", str(path))
    assert code2 == 0
    assert report2["result"]["invariant_factors"] == ["2", "2", "8"]


def test_analyze_structure_and_spectrum(capsys):
    code, report, _ = run_json(capsys, "analyze", "--family", "paley", "--params", "5")
    assert code == 0
    result = report["result"]
    assert result["structure"]["type"] == "strongly_regular"
    assert result["structure"]["mu"] == "1"
    spectrum = result["spectrum"]
    assert {"value": "0", "multiplicity": "1"} in spectrum["integer_eigenvalues"]
    assert spectrum["irrational_factor_coefficients"] == ["25", "-50", "35", "-10", "1"]
    assert result["group"]["invariant_factors"] == ["5"]


def test_analyze_signed_structure(capsys, tmp_path):
    path = tmp_path / "k3.txt"
    path.write_text("n 3\n1 2 -\n1 3\n2 3\n")
    code, report, _ = run_json(capsys, "analyze", "--input", str(path))
    assert code == 0
    structure = report["result"]["structure"]
    assert structure["type"] == "signed_two_eigenvalue"
    assert structure["case"] == "regular"
    assert structure["eigenvalue_product"] == "4"
    assert report["result"]["group"]["invariant_factors"] == ["4"]
    assert "spanning_trees" not in report["result"]["group"]


def test_analyze_two_eigenvalue_goldens(capsys, tmp_path, monkeypatch):
    goldens = json.loads(ANALYZE_GOLDENS.read_text(encoding="utf-8"))
    corpus = unsigned_two_eigenvalue_corpus() + signed_corpus()
    assert sorted(goldens) == sorted(name for name, _ in corpus)
    monkeypatch.chdir(tmp_path)
    for name, g in corpus:
        path = f"{name}.txt"
        (tmp_path / path).write_text(format_graph(g))
        code, out, _ = run(capsys, "analyze", "--input", path)
        assert code == 0 and out == goldens[name], name


def test_structure_goldens(capsys, tmp_path, monkeypatch):
    goldens = json.loads(STRUCTURE_GOLDENS.read_text(encoding="utf-8"))
    ops = structure_ops()
    assert sorted(goldens) == sorted(" ".join(argv) for argv in ops)
    monkeypatch.chdir(tmp_path)
    write_corpus_files(tmp_path)
    for argv in ops:
        assert structure_record(*run(capsys, *argv)) == goldens[" ".join(argv)], argv


SUBCOMMANDS = ("generate", "analyze", "group", "pairing", "orthogonal", "verify", "scan")


def usage_ops():
    """CLI argument lists that only argparse handles: help, usage errors,
    and forms argparse accepts that are not the plain `--flag value` form."""
    petersen = ["--family", "petersen"]
    return [
        ["--help"], ["-h"], *([name, "--help"] for name in SUBCOMMANDS), ["group", "-h"],
        # usage errors
        [], ["nosuch"], ["verify", *petersen], ["verify", *petersen, "--check", "bogus"],
        ["orthogonal", *petersen, "--mode", "bogus"], ["group", *petersen, "--format", "xml"],
        ["scan", "--nmax", "x"], ["scan"], ["group", "--family"], ["group", *petersen, "--bogus"],
        ["group", *petersen, "stray"], ["group", "--", *petersen],
        # accepted by argparse
        ["group", "--fam", "petersen"], ["group", "--family", "complete", "--params=-1"],
        ["group", "--family", "cycle", "--params", "-5"],
        ["group", *petersen, "--format", "text", "--format", "json"],
        ["group", "--family=petersen", "--format=text"],
    ]


def usage_record(capsys, argv):
    """What a usage golden keeps of one run, which may exit through
    argparse."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return {"argv": argv, "exit": code, "stdout": out, "stderr": without_elapsed(err)}


def test_usage_goldens(capsys, monkeypatch):
    # help text and usage errors, recorded while argparse parsed every run;
    # the fast path leaves each of these command lines to argparse
    monkeypatch.setenv("COLUMNS", "80")
    goldens = json.loads(USAGE_GOLDENS.read_text(encoding="utf-8"))
    assert [g["argv"] for g in goldens] == usage_ops()
    for golden in goldens:
        assert cli._parse_args(golden["argv"]) is None, golden["argv"]
        assert usage_record(capsys, golden["argv"]) == golden, golden["argv"]


def test_bench_digests_of_family_ops(capsys):
    # every family op of the benchmark (group, analyze, pairing tables,
    # orthogonal searches, the verdicts and the scan) reproduces its
    # recorded report byte for byte
    digests = json.loads(BENCH_DIGESTS.read_text(encoding="utf-8"))
    labels = list(digests)
    assert len(labels) == 79
    for label in labels:
        code, out, _ = run(capsys, *label.split())
        assert code == 0, label
        assert hashlib.sha256(out.encode()).hexdigest() == digests[label], label


def test_traced_runner_matches_the_cli(tmp_path, monkeypatch):
    # one op of each kind the benchmark runs gives the same exit code and
    # stdout through bench/traced_cli.py as through the CLI, and its span
    # file parses; the runner looks up every traced module right after
    # `import critgroup.cli`, which registers pairing and scan without
    # compiling them, and the runner's own lookups load them, so this fails
    # if cli stops registering one. The all-negative K_5 runs the exponent
    # verdict's vertex classes, and C_7, which has no two-eigenvalue
    # record, runs the spectrum through the characteristic polynomial
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    ops = [["group"], ["analyze"], ["pairing"], ["pairing", "--edge1", "1,8", "--edge2", "2,6"],
           ["orthogonal", "--mode", "greedy"], ["verify", "--check", "tail-heavy", "--mode", "greedy"],
           ["verify", "--check", "exponent"], ["verify", "--check", "spectral-bound"]]
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(cli.__file__).parents[1]),
           "PYTHONHASHSEED": "0"}
    negk = tmp_path / "negk-5.txt"
    negk.write_text(format_graph(signed_complete_all_negative(5)))
    extra = [["verify", "--check", "exponent", "--input", str(negk)], ["scan", "--nmax", "60"]]
    extra += [[*op, "--family", "cycle", "--params", "7"]
              for op in (["analyze"], ["verify", "--check", "spectral-bound"])]
    for i, argv in enumerate([[*op, "--family", "petersen"] for op in ops] + extra):
        spans = tmp_path / f"spans-{i}.json"
        plain = subprocess.run([sys.executable, "-m", "critgroup.cli", *argv], env=env,
                               capture_output=True, text=True)
        traced = subprocess.run([sys.executable, str(TRACED_CLI), *argv], capture_output=True,
                                env={**env, "CRITGROUP_BENCH_SPANS": str(spans)}, text=True)
        assert plain.returncode == 0, (argv, plain.stderr)
        assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout), (
            argv, traced.stderr)
        metrics = traced_cli.summarize(json.loads(spans.read_text(encoding="utf-8")))
        assert set(metrics) == set(traced_cli.metric_units()) - {"trace.overhead_s"}, argv
        if argv[0] == "orthogonal":  # the span wraps the function cli calls through its module
            assert metrics["pairing.orthogonal_subset.calls"] == 1, argv


def test_disconnected_input_is_rejected_by_every_graph_command(capsys, tmp_path):
    # one message naming the subcommand, whichever function would meet the
    # graph first; generate prints the graph as it is
    commands = (
        ["analyze"], ["group"], ["pairing"], ["pairing", "--edge1", "1,2", "--edge2", "4,5"],
        ["orthogonal"], ["orthogonal", "--mode", "greedy"],
        ["verify", "--check", "exponent"], ["verify", "--check", "spectral-bound"],
        ["verify", "--check", "tail-heavy"],
    )
    path = tmp_path / "disconnected.txt"
    for text in ("n 5\n1 2\n2 3\n4 5\n", "n 5\n1 2 -\n1 3 +\n2 3 +\n4 5 -\n"):
        path.write_text(text)
        for command in commands:
            code, out, err = run(capsys, *command, "--input", str(path))
            assert (code, out) == (2, ""), command
            assert err == f"error: {command[0]} requires a connected graph\n", command
        code, report, _ = run_json(capsys, "generate", "--input", str(path))
        assert code == 0 and report["result"]["file"] == text


def test_all_positive_file_is_a_balanced_signed_graph(capsys, tmp_path):
    # a sign token on any edge makes a signed graph, even with no "-" edge
    path = tmp_path / "positive.txt"
    path.write_text(format_graph(SignedGraph(petersen(), frozenset())))
    code, report, _ = run_json(capsys, "analyze", "--input", str(path))
    assert code == 0
    assert report["result"]["graph"]["signed"] is True
    assert report["result"]["graph"]["balanced"] is True
    assert report["result"]["group"] is None
    code, out, err = run(capsys, "group", "--input", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "balanced" in err


def test_analyze_balanced_signed_group_note(capsys, tmp_path):
    path = tmp_path / "balanced.txt"
    path.write_text("n 3\n1 2 -\n2 3 -\n1 3 +\n")
    code, report, _ = run_json(capsys, "analyze", "--input", str(path))
    assert code == 0
    assert report["result"]["group"] is None
    assert "balanced" in report["result"]["group_note"]


def test_pairing_single_pair(capsys):
    code, report, _ = run_json(
        capsys, "pairing", "--family", "clebsch_complement",
        "--edge1", "1,4", "--edge2", "14,15",
    )
    assert code == 0
    assert report["result"]["closed_form"] is True
    [pair] = report["result"]["pairs"]
    assert pair["value"] == "0/1"
    assert pair["edge1"] == ["1", "4"]
    assert pair["edge2"] == ["14", "15"]


def test_pairing_table(capsys):
    code, report, _ = run_json(capsys, "pairing", "--family", "paley", "--params", "5")
    assert code == 0
    entries = report["result"]["pairs"]
    # 5 edges, upper triangle with diagonal: 15 entries
    assert len(entries) == 15
    diagonal = [e for e in entries if e["edge1"] == e["edge2"]]
    assert len(diagonal) == 5
    for entry in diagonal:
        assert entry["value"] == "4/5"  # 2(n-1)/(kn) = 8/10 mod 1


def test_pairing_requires_both_edges(capsys):
    code, out, err = run(
        capsys, "pairing", "--family", "paley", "--params", "5", "--edge1", "1,2"
    )
    assert code == 2
    assert "error" in err


def test_pairing_edges_are_ascending_edges_of_the_graph(capsys, tmp_path):
    # cycle 6 is not strongly regular, so no closed form applies
    def ask(edge1, edge2):
        return run(capsys, "pairing", "--family", "cycle", "--params", "6",
                   "--edge1", edge1, "--edge2", edge2)

    _, table, _ = run_json(capsys, "pairing", "--family", "cycle", "--params", "6")
    values = {(tuple(p["edge1"]), tuple(p["edge2"])): p["value"] for p in table["result"]["pairs"]}
    assert values[(("1", "2"), ("2", "3"))] == "5/6"
    assert values[(("1", "2"), ("1", "6"))] == "1/6"
    for edge1, edge2, key in (
        ("1,2", "2,3", (("1", "2"), ("2", "3"))),
        ("2,1", "2,3", (("1", "2"), ("2", "3"))),
        ("1,2", "3,2", (("1", "2"), ("2", "3"))),
        ("6,1", "1,2", (("1", "2"), ("1", "6"))),
    ):
        code, out, _ = ask(edge1, edge2)
        assert code == 0
        [pair] = json.loads(out)["result"]["pairs"]
        assert pair["edge1"] == edge1.split(",")  # echoed as given
        assert pair["edge2"] == edge2.split(",")
        assert pair["value"] == values[key]
    for bad in ("0,1", "1,99", "1,3"):  # zero, out of range, non-edge
        for edge1, edge2 in ((bad, "2,3"), ("2,3", bad)):
            code, out, err = ask(edge1, edge2)
            assert code == 2 and out == ""
            assert "is not an edge" in err
    # every ordered edge pair: the single pair, the table entry and
    # monodromy_pairing agree, on record graphs and on a random graph
    # without a record, whose potential table comes from `solve`
    rng = random.Random(2525)
    other = random_connected_graph(rng, 9, 0.4)
    assert critgroup.groups.detect_two_eigenvalue(other) is None
    path = tmp_path / "random.txt"
    path.write_text(format_graph(other))
    for source, g in ((["--family", "petersen"], petersen()),
                      (["--family", "paley", "--params", "13"], paley(13)),
                      (["--family", "cycle", "--params", "7"], cycle(7)),
                      (["--input", str(path)], other)):
        _, table, _ = run_json(capsys, "pairing", *source)
        values = {}
        for pair in table["result"]["pairs"]:
            e1, e2 = tuple(pair["edge1"]), tuple(pair["edge2"])
            values[e1, e2] = values[e2, e1] = pair["value"]
        for e1, e2 in itertools.product(g.sorted_edges(), repeat=2):
            code, out, _ = run(capsys, "pairing", *source, "--edge1", "%d,%d" % e1, "--edge2", "%d,%d" % e2)
            [pair] = json.loads(out)["result"]["pairs"]
            direct = monodromy_pairing(g, edge_difference(g, *e1), edge_difference(g, *e2))
            key = (tuple(map(str, e1)), tuple(map(str, e2)))
            assert code == 0 and pair["value"] == values[key] == str(direct), (source, e1, e2)


def _spy_everywhere(monkeypatch, *reals):
    """Wrap each function at every critgroup module that binds it; the
    returned list collects the name of each call."""
    calls = []
    for real in reals:
        spy = lambda *a, _real=real: calls.append(_real.__name__) or _real(*a)
        for name, module in list(sys.modules.items()):
            if name.startswith("critgroup") and getattr(module, real.__name__, None) is real:
                monkeypatch.setattr(module, real.__name__, spy)
    return calls


def test_single_pair_route_pin(capsys, monkeypatch):
    # a single pair is read off a two-edge pairing table: no edge vector
    # and no monodromy_pairing call on the way; calling both directly
    # shows that the spies would see them
    calls = _spy_everywhere(monkeypatch, critgroup.pairing.monodromy_pairing,
                            critgroup.monodromy.edge_difference)
    for source, edge1, edge2 in ((["--family", "petersen"], "1,8", "1,9"),
                                 (["--family", "cycle", "--params", "7"], "1,2", "2,3")):
        code, out, _ = run(capsys, "pairing", *source, "--edge1", edge1, "--edge2", edge2)
        assert code == 0 and json.loads(out)["result"]["pairs"]
    assert calls == []
    g = petersen()
    d = critgroup.monodromy.edge_difference(g, 1, 8)
    critgroup.pairing.monodromy_pairing(g, d, d)
    assert calls == ["edge_difference", "monodromy_pairing"]


def test_pairing_builds_no_group(capsys, monkeypatch):
    # the exponent m comes from the potential table's own solve, so neither
    # a single pair nor the full table builds the critical group or takes
    # a Smith diagonal; the caches are emptied so that nothing is served
    # from an earlier test
    real_group, real_table = critgroup.groups.critical_group, critgroup.monodromy.grounded_inverse
    calls = _spy_everywhere(monkeypatch, real_group, critgroup.linalg.smith_diagonal)
    for source, edges in ((["--family", "petersen"], ["--edge1", "1,8", "--edge2", "1,9"]),
                          (["--family", "cycle", "--params", "7"], ["--edge1", "1,2", "--edge2", "2,3"])):
        for pair in (edges, []):
            real_group.cache_clear()
            real_table.cache_clear()
            code, out, _ = run(capsys, "pairing", *source, *pair)
            assert code == 0 and json.loads(out)["result"]["pairs"], (source, pair)
    assert calls == []
    real_group.cache_clear()
    run(capsys, "group", "--family", "cycle", "--params", "7")
    assert calls == ["critical_group", "smith_diagonal"]  # the spies see both


def test_group_builds_its_group_once(capsys, monkeypatch):
    # the block reads the spanning-tree count off the group's order
    real_group = critgroup.groups.critical_group
    calls = _spy_everywhere(monkeypatch, real_group)
    for source in (["--family", "petersen"], ["--family", "cycle", "--params", "7"],
                   ["--family", "signed_complete_unbalanced", "--params", "4"]):
        real_group.cache_clear()
        calls.clear()
        code, out, _ = run(capsys, "group", *source)
        assert code == 0 and json.loads(out)["result"]["exponent"]
        assert calls == ["critical_group"], source


def test_pairing_edgeless_graph(capsys):
    code, report, _ = run_json(capsys, "pairing", "--family", "complete", "--params", "1")
    assert code == 0
    assert report["result"] == {"m": "1", "closed_form": False, "pairs": []}


def test_orthogonal_exact(capsys):
    code, report, _ = run_json(capsys, "orthogonal", "--family", "petersen")
    assert code == 0
    assert report["result"]["size"] == "3"
    assert len(report["result"]["edges"]) == 3
    assert all(entry["value"] == "0/1" for entry in report["result"]["certificate"])


def test_orthogonal_edgeless_graph(capsys):
    for mode in ("exact", "greedy"):
        code, report, _ = run_json(
            capsys, "orthogonal", "--family", "complete", "--params", "1", "--mode", mode
        )
        assert code == 0
        assert report["result"] == {"mode": mode, "size": "0", "edges": [], "certificate": []}


def test_verify_exponent(capsys):
    code, report, _ = run_json(capsys, "verify", "--family", "petersen", "--check", "exponent")
    assert code == 0
    result = report["result"]
    assert result["verdict"] == "pass"
    assert result["exponent"] == "10"
    assert result["classification"] == "match"
    assert "half_bound_even" not in result
    # K_3 with one negative edge, the one signed_complete_unbalanced graph
    # with two eigenvalues, is the signed_complete case, which reports it
    signed = ("verify", "--family", "signed_complete_unbalanced", "--params", "3", "--check", "exponent")
    code, report, _ = run_json(capsys, *signed)
    result = report["result"]
    assert code == 0 and result["kind"] == "signed_complete"
    assert result["half_bound_even"] is True
    assert result["achieving_element"] == {"type": "vertex_class", "vertices": ["1"]}
    code, out, _ = run(capsys, *signed, "--format", "text")
    assert code == 0 and out.endswith("  verdict: pass\n  half_bound_even: True\n")


def test_verify_tail_heavy(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--family", "clebsch_complement", "--check", "tail-heavy"
    )
    assert code == 0
    result = report["result"]
    assert result["verdict"] == "pass"
    assert result["predicted_subgroup"] == ["16", "16", "16", "96"]
    assert result["strong_pattern"] is True


def test_verify_spectral_bound(capsys):
    code, report, _ = run_json(
        capsys, "verify", "--family", "cycle", "--params", "6", "--check", "spectral-bound"
    )
    assert code == 0
    assert report["result"]["verdict"] == "pass"


def test_verify_spectral_bound_without_record_builds_no_polynomial(capsys, monkeypatch, tmp_path):
    # a G(n, p) file has no record and simple eigenvalues: the Krylov
    # polynomial modulo 2^61 - 1 settles the product, with no exact
    # characteristic polynomial
    g = random_connected_graph(random.Random(41), 40, 0.15)
    assert critgroup.spectrum.detect_two_eigenvalue(g) is None
    want = distinct_nonzero_root_product(critgroup.spectrum.char_poly(critgroup.linalg.laplacian(g)))
    path = tmp_path / "gnp40.txt"
    path.write_text(format_graph(g))

    def broken(*args):
        raise AssertionError("built an exact characteristic polynomial")

    monkeypatch.setattr(critgroup.spectrum, "char_poly", broken)
    monkeypatch.setattr(critgroup.spectrum, "_hessenberg_char_poly", broken)
    code, report, _ = run_json(capsys, "verify", "--input", str(path), "--check", "spectral-bound")
    assert code == 0
    assert report["result"]["distinct_eigenvalue_product"] == str(want)
    assert report["result"]["verdict"] == "pass"


def test_verify_spectral_bound_one_vertex(capsys):
    # trivial group, empty product of eigenvalues
    code, report, _ = run_json(
        capsys, "verify", "--family", "complete", "--params", "1", "--check", "spectral-bound"
    )
    assert code == 0
    assert report["result"]["exponent"] == "1"
    assert report["result"]["distinct_eigenvalue_product"] == "1"
    assert report["result"]["verdict"] == "pass"


def test_verify_failure_exit_code(capsys, monkeypatch):
    # force a failing verdict through a stubbed verifier to exercise exit 1
    real = critgroup.groups.verify_exponent_theorem

    def failing(g):
        return replace(real(g), matched=False)

    monkeypatch.setattr(critgroup.groups, "verify_exponent_theorem", failing)
    code, out, err = run(capsys, "verify", "--family", "petersen", "--check", "exponent")
    assert code == 1
    assert json.loads(out)["result"]["verdict"] == "fail"


def test_internal_check_exit_code(capsys, monkeypatch):
    # an exact check failing inside a command exits 3, never 1
    def broken(g):
        raise InternalCheckError("stubbed identity failed")

    monkeypatch.setattr(critgroup.groups, "verify_spectral_bound", broken)
    code, out, err = run(
        capsys, "verify", "--family", "petersen", "--check", "spectral-bound"
    )
    assert code == 3 and out == ""
    assert err == "error: internal check failed: stubbed identity failed\n"
    # a characteristic-polynomial modulus below the coefficient bound wraps
    # the coefficients, and the one-point certificate fails the command;
    # this graph has no two-eigenvalue record, so its spectrum needs
    # char_poly, and its coefficients reach 83 bits
    monkeypatch.setattr(critgroup.spectrum, "_mersenne_prime", lambda limit: 2 ** 61 - 1)
    code, out, err = run(capsys, "analyze", "--family", "signed_complete_unbalanced", "--params", "20")
    assert code == 3 and out == ""
    assert err.startswith("error: internal check failed: ")
    # a structural modulus that does not annihilate the group: theta1 theta2
    # / 5 on Petersen cuts the 5-parts short, and the group certificate fails
    groups = critgroup.groups
    params = groups.detect_two_eigenvalue(critgroup.petersen())
    short = replace(params, eigenvalue_product=params.eigenvalue_product // 5)
    monkeypatch.setattr(groups, "detect_two_eigenvalue", lambda g: short)
    groups.critical_group.cache_clear()
    code, out, err = run(capsys, "group", "--family", "petersen")
    assert code == 3 and out == ""
    assert err.startswith("error: internal check failed: ")
    monkeypatch.undo()
    groups.critical_group.cache_clear()


def test_error_exit_codes(capsys, tmp_path, monkeypatch):
    # unknown family
    code, _, err = run(capsys, "group", "--family", "nope")
    assert code == 2 and "error:" in err
    # malformed file with line number
    path = tmp_path / "bad.txt"
    path.write_text("n 3\n1 2\n2 9\n")
    code, _, err = run(capsys, "group", "--input", str(path))
    assert code == 2
    assert "line 3" in err
    # missing file
    code, _, err = run(capsys, "group", "--input", str(tmp_path / "missing.txt"))
    assert code == 2
    # both input and family
    code, _, err = run(capsys, "group", "--family", "petersen", "--input", str(path))
    assert code == 2
    # neither
    code, _, err = run(capsys, "group")
    assert code == 2
    # disconnected input
    path2 = tmp_path / "disc.txt"
    path2.write_text("n 4\n1 2\n3 4\n")
    code, _, err = run(capsys, "group", "--input", str(path2))
    assert code == 2
    # structure error: exponent check on a graph without the structure
    code, _, err = run(capsys, "verify", "--family", "cycle", "--params", "6", "--check", "exponent")
    assert code == 2
    # family parameters outside a family's domain, and a file without vertices
    path5 = tmp_path / "empty.txt"
    path5.write_text("n 0\n")
    for argv, message in (
        (("--family", "paley", "--params", "21"), "q must be a prime power"),
        (("--family", "paley", "--params", "1"), "q must be a prime power >= 2"),
        (("--family", "complete_multipartite"), "complete_multipartite needs part sizes"),
        (("--input", str(path5)), "line 1: bad vertex count 0"),
        # the family and its parameter count are checked before the vertex limit
        (("--family", "nosuch", "--params", "2000"),
         f"unknown family 'nosuch'; known: {', '.join(GENERATOR_FAMILIES)}"),
        (("--family", "petersen", "--params", "5000"), "family petersen takes 0 parameter(s), got 1"),
        (("--family", "paley", "--params", "2001,-1000"), "family paley takes 1 parameter(s), got 2"),
    ):
        code, out, err = run(capsys, "group", *argv)
        assert code == 2 and out == ""
        assert err.splitlines()[0] == f"error: {message}"
    # --params must be integers, and the bad value is named
    for params, bad in (("a", "'a'"), ("1,x", "'x'")):
        code, out, err = run(capsys, "group", "--family", "complete", "--params", params)
        assert code == 2 and out == ""
        assert err.startswith("error:") and bad in err
    # --params belongs to --family
    path3 = tmp_path / "path.txt"
    path3.write_text("n 3\n1 2\n2 3\n")
    code, out, err = run(capsys, "group", "--input", str(path3), "--params", "3")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "--params" in err
    # files are read through --input only
    code, out, err = run(capsys, "group", "--family", "signed_from_file")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "unknown family" in err
    # vertex counts above the limit are rejected before anything is built
    path4 = tmp_path / "huge.txt"
    path4.write_text("n 99999999999\n1 2\n")
    code, out, err = run(capsys, "group", "--input", str(path4))
    assert code == 2 and out == ""
    assert err.startswith("error:") and "line 1" in err
    for family, params in (
        ("cycle", "1000000000"),
        ("paley", "1000000009"),
        ("complete_multipartite", "600,600"),
    ):
        code, out, err = run(capsys, "group", "--family", family, "--params", params)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "limit" in err
    # one edge flag without the other is a usage error found before the
    # group is built
    built = []
    monkeypatch.setattr(critgroup.groups, "critical_group", built.append)
    code, out, err = run(capsys, "pairing", "--family", "paley", "--params", "149",
                         "--edge1", "1,2")
    assert (code, out, built) == (2, "", [])
    assert err == "error: give both --edge1 and --edge2, or neither\n"
    # an edge flag takes two integers
    for edge1, message in (("1", "--edge1 expects 'u,v', got '1'"),
                           ("a,b", "--edge1 expects integers, got 'a,b'")):
        code, out, err = run(capsys, "pairing", "--family", "petersen", "--edge1", edge1, "--edge2", "1,8")
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"


def test_input_that_is_not_utf8_exits_2(capsys, tmp_path):
    # bad input, not a failed verifier: exit 2 with an error line and no
    # traceback, for every command that reads --input
    path = tmp_path / "utf16.txt"
    path.write_bytes("n 3\n1 2\n2 3\n".encode("utf-16"))
    for argv in (["group"], ["analyze"], ["pairing"], ["orthogonal"],
                 ["verify", "--check", "exponent"], ["generate"]):
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert (code, out) == (2, ""), argv
        assert err == "error: line 1: not UTF-8 text (byte 0xff)\n", argv


def test_scan_output(capsys):
    code, report, _ = run_json(capsys, "scan", "--nmax", "40")
    assert code == 0
    rows = report["result"]["tuples"]
    by_tuple = {
        (int(r["n"]), int(r["k"]), int(r["lam"]), int(r["mu"])): r for r in rows
    }
    assert by_tuple[(5, 2, 0, 1)]["needs_review"] is False
    assert by_tuple[(15, 6, 1, 3)]["needs_review"] is True
    assert "note" in report["result"]
    assert report["result"]["full_enumeration"] is False


def test_scan_nmax_limit(capsys):
    for nmax in ("1001", "100000"):
        code, out, err = run(capsys, "scan", "--nmax", nmax)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "limit of 1000" in err


def test_scan_full_listing(capsys):
    code, report, _ = run_json(capsys, "scan", "--nmax", "12", "--full")
    assert code == 0
    assert report["result"]["full_enumeration"] is True
    assert len(report["result"]["tuples"]) >= 4


def test_json_writer_matches_json_dumps():
    # _json writes what json.dumps(indent=2) writes once every int that is
    # not a bool is a decimal string and every tuple a list
    def stringify(x):
        if x is None or isinstance(x, (bool, str)):
            return x
        if isinstance(x, int):
            return str(x)
        if isinstance(x, dict):
            return {key: stringify(value) for key, value in x.items()}
        return [stringify(value) for value in x]

    odd = 'a"b\\c\td\ne\u00e9\U0001f600'  # quote, backslash, tab, newline, e-acute, emoji
    sample = {
        "empty": [{}, [], (), None],
        "bools": (True, False),
        "ints": [0, -7, 2**200],
        "nested": ((1, (2, ())), [{"a": 3, "b": [{}]}, {}]),
        odd: [odd, {odd: (odd, 5)}],
    }
    for x in (sample, {}, [], (), None, True, False, 0, 2**200, odd):
        assert cli._json(x) == json.dumps(stringify(x), indent=2)


def test_json_writer_escapes_strings_with_the_json_encoders_function():
    # cli takes the C function from _json, so the json package stays unloaded
    assert cli.encode_basestring_ascii is json.encoder.encode_basestring_ascii


def test_text_format_renders_same_data(capsys):
    code, out_json, _ = run(capsys, "group", "--family", "petersen")
    code2, out_text, _ = run(capsys, "group", "--family", "petersen", "--format", "text")
    assert code == code2 == 0
    assert out_text != out_json
    data = json.loads(out_json)
    for factor in data["result"]["invariant_factors"]:
        assert factor in out_text
    assert "spanning_trees: 2000" in out_text


def test_text_format_scan(capsys):
    code, out, _ = run(capsys, "scan", "--nmax", "40", "--format", "text")
    assert code == 0
    assert "needs_review" in out


def _random_argv(rng, tokens):
    """A command line near the plain form: a subcommand (now and then a
    stray token) and a shuffled subset of its options, each with a value
    it accepts or, now and then, any token; now and then one token is
    repeated or inserted anywhere."""
    name = rng.choice(SUBCOMMANDS) if rng.random() < 0.95 else rng.choice(tokens)
    argv = [name]
    options = list(cli._SUBCOMMANDS.get(name, (None, None, ()))[2])
    rng.shuffle(options)
    for flag, keywords in options:
        if rng.random() < 0.5:
            continue
        argv.append(flag)
        if keywords.get("action") == "store_true":
            continue
        good = keywords.get("choices") or (("20", "0", "+3") if "type" in keywords else
                                           ("petersen", "1,2", "", "a=b", " -1"))
        argv.append(rng.choice(good) if rng.random() < 0.9 else rng.choice(tokens))
    for _ in range(rng.choice((0, 0, 0, 1, 2))):
        argv.insert(rng.randint(0, len(argv)), rng.choice(tokens + argv))
    return argv


def test_fast_parse_matches_argparse(capsys):
    # a well-formed command line gives argparse's namespace without
    # argparse; anything else is left to argparse, so `_parse_args` is None
    # or equal to what argparse parses, and never accepts what it rejects
    flags = sorted({flag for _, _, options in cli._SUBCOMMANDS.values() for flag, _ in options})
    tokens = [*SUBCOMMANDS, *flags, "-h", "--help", "--", "-", "-1", "--nmax=5", "--format=text",
              *(flag[:k] for flag in flags for k in (3, 6)), "petersen", "json", "text", "xml",
              "exact", "greedy", "exponent", "tail-heavy", "bogus", "7", "x", "1,2", "", "a b"]
    parser = cli.build_parser()
    rng = random.Random(4242)
    hits = collections.Counter()
    for _ in range(6000):
        argv = _random_argv(rng, tokens)
        fast = cli._parse_args(argv)
        if fast is None:
            continue
        try:
            slow = parser.parse_args(argv)
        except SystemExit:
            slow = None
        capsys.readouterr()
        assert slow is not None and vars(fast) == vars(slow), argv
        hits[argv[0]] += 1
    assert set(hits) == set(SUBCOMMANDS) and min(hits.values()) >= 100, hits


def test_console_script_reads_sys_argv(capsys, monkeypatch):
    # the console script calls main() with no argument
    for argv in (["group", "--family", "petersen"], ["scan", "--nmax", "5", "--format", "text"],
                 ["group", "--family=petersen"]):
        expected = run(capsys, *argv)[:2]
        monkeypatch.setattr(sys, "argv", ["critgroup", *argv])
        assert (cli.main(), capsys.readouterr().out) == expected, argv


def _random_graph_file(rng):
    """A random graph file on at most 8 vertices: unsigned, or with a random
    sign on every edge; now and then one line is corrupted."""
    n = rng.randint(1, 8)
    p = rng.random()
    signed = rng.random() < 0.5
    lines = [f"n {n}"]
    for u, v in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < p:
            lines.append(f"{u} {v} {rng.choice('+-')}" if signed else f"{u} {v}")
    if len(lines) > 1 and rng.random() < 0.1:
        lines[rng.randrange(1, len(lines))] = rng.choice(
            ("1 1", f"1 {n + 1}", "1 2 *", "x 2", "1 2 + extra")
        )
    return "\n".join(lines) + "\n"


def _random_flags(rng, n):
    command = rng.choice(("generate", "analyze", "group", "pairing", "orthogonal", "verify"))
    flags = [command]
    if command == "pairing" and rng.random() < 0.5:
        for flag in ("--edge1", "--edge2"):
            flags += [flag, f"{rng.randint(0, n + 1)},{rng.randint(1, n)}"]
    if command == "orthogonal":
        flags += ["--mode", rng.choice(("exact", "greedy"))]
        if rng.random() < 0.5:
            flags.append("--no-hints")
    if command == "verify":
        flags += ["--check", rng.choice(("exponent", "spectral-bound", "tail-heavy"))]
        flags += ["--mode", rng.choice(("exact", "greedy"))]
    if rng.random() < 0.3:
        flags += ["--format", "text"]
    return command, flags


def test_fuzz_exit_codes(capsys, tmp_path):
    # every run ends in a report (0), a failed verdict (1) or a clean error (2)
    rng = random.Random(2718)
    seen = set()
    for i in range(200):
        text = _random_graph_file(rng)
        path = tmp_path / f"g{i}.txt"
        path.write_text(text)
        n = int(text.split()[1])
        for _ in range(2):
            command, flags = _random_flags(rng, n)
            code, out, err = run(capsys, *flags, "--input", str(path))
            seen.add(code)
            assert "Traceback" not in err
            if code == 2:
                assert out == "" and err.startswith("error:"), (text, flags, err)
            else:
                assert code == 0 or (code == 1 and command == "verify"), (text, flags, code)
                assert out and "elapsed" in err
    assert {0, 2} <= seen
    # oversized headers, alone or followed by edges
    for i, count in enumerate((1001, 99999999999, 10**40)):
        path = tmp_path / f"huge{i}.txt"
        path.write_text(f"n {count}\n1 2\n" if i % 2 else f"n {count}\n")
        command, flags = _random_flags(rng, 8)
        code, out, err = run(capsys, *flags, "--input", str(path))
        assert code == 2 and out == "" and err.startswith("error:"), (count, flags, err)
