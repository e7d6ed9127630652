"""Self-test of the benchmark on a tiny op list.

    python3 bench/selftest.py

Checks that a clean run reports every end-to-end metric of BENCHMARK.json
with its unit and no failure; that a traced run reports every per-layer
metric with its unit; that a corrupted stdout and a wrong exit code each
count as one failed op; and that in a directory holding only
BENCHMARK.json and bench/ the benchmark exits non-zero without a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile

import run
import workloads

TINY = [
    workloads.family("group", "petersen"),
    workloads.family("group", "paley", "13"),
    workloads.family("verify", "star", "5", "--check", "exponent"),
]
problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        problems.append(message)


def quiet_run(ops, trace: bool = False) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        return run.run("invariants", seed=1, seconds=1, trace=trace, ops=ops)


def expect_metrics(result: dict, declared: list[dict], what: str) -> None:
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    want = {metric["name"]: metric["unit"] for metric in declared}
    expect(got == want, f"{what}: every declared metric printed with its unit")
    expect(all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()),
           f"{what}: every value is a number")


def corrupting_run_op(real):
    """run_op that flips one byte of the stdout of any op on paley 13."""
    def wrapped(argv, out_path, timeout, env):
        measured = real(argv, out_path, timeout, env)
        if "13" in argv:
            with open(out_path, "r+b") as handle:
                data = handle.read()
                handle.seek(len(data) // 2)
                handle.write(bytes([data[len(data) // 2] ^ 1]))
        return measured
    return wrapped


def bare_directory_exit() -> tuple[int, str]:
    """Run the benchmark where only BENCHMARK.json and bench/ exist."""
    bare = tempfile.mkdtemp(prefix="bare-", dir=run.WORK)
    try:
        shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "invariants", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        return proc.returncode, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    os.chdir(run.ROOT)
    os.makedirs(run.WORK, exist_ok=True)
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)

    clean = quiet_run(TINY)
    expect(clean["correct"] and clean["failed"] == 0, "clean tiny run has no failure")
    expect_metrics(clean, spec["end_to_end"], "--trace 0")

    traced = quiet_run(TINY, trace=True)
    expect(traced["correct"] and traced["failed"] == 0, "traced tiny run has no failure")
    expect_metrics(traced, spec["per_layer"], "--trace 1")
    expect(traced["metrics"]["groups.critical_group.calls"]["value"] == 3,
           "traced run counts one critical_group call per op")

    wrong_exit = dataclasses.replace(TINY[0], exit_code=1)
    real = run.run_op
    run.run_op = corrupting_run_op(real)
    try:
        broken = quiet_run([TINY[0], wrong_exit, TINY[1], TINY[2]])
    finally:
        run.run_op = real
    warmups = run.SETUP_REPEATS
    expect(broken["attempted"] == 4 + warmups and broken["failed"] == 2 and not broken["correct"],
           "a wrong exit code and a corrupted stdout count as two failed ops")

    status, stdout = bare_directory_exit()
    expect(status != 0 and not stdout.strip(), "without src/ the benchmark exits non-zero, printing nothing")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
