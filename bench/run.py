"""critgroup benchmark: a seeded list of `critgroup` CLI ops, timed end to end.

    python3 bench/run.py --workload invariants --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each op is its own sequential subprocess
(`python3 -m critgroup.cli ...` against `src/`, PYTHONHASHSEED=0): a closed
loop with one client. Every op's exit code and stdout are checked.

Op times are scaled to a reference machine speed: the host's speed drifts
by tens of percent within seconds, and op times drift with it. A Speedometer
times a short fixed loop, BURST times between ops and every SAMPLE_EVERY_S
while an op runs; each op's seconds are multiplied by REFERENCE_SAMPLE_S over
the mean sample from the burst before it to the burst after it. The client
and its ops share one CPU, so the samples measure the CPU the ops run on, and
a long op is scaled by samples taken while it ran.

--trace 0 times whole passes over the op list, repeating them while another
pass fits in --seconds, and reports the end-to-end metrics; wall_s is the sum
of a pass's op times. --trace 1 runs one plain pass and one pass through
bench/traced_cli.py, and reports the per-layer metrics summed over the ops,
their times scaled like the op's, with trace.overhead_s the traced pass's
wall_s minus the plain one's. Both print one JSON row per op, then
as the last line {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import checks
import inputs
import traced_cli
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(BENCH, "_work")
DIGESTS = os.path.join(BENCH, "digests.json")
TRACED_CLI = os.path.join(BENCH, "traced_cli.py")

OP_TIMEOUT_S = 90
DEADLINE_S = 165  # no op starts or runs past this many seconds after launch
SETUP_REPEATS = 5
REFERENCE_SAMPLE_S = 0.0025  # typical seconds of one speed sample
SAMPLE_LOOPS = 25_000
SAMPLE_EVERY_S = 0.05
BURST = 8
END_TO_END = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB"}


@dataclass
class OpRun:
    op: workloads.Op
    seconds: float = 0.0  # at the reference speed
    raw_seconds: float = 0.0
    rss_kb: int = 0
    returncode: int | None = None  # None: not started before the deadline
    failure: str | None = None


def child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")
    env.update(extra)
    return env


class Speedometer:
    """Speed samples of the client's CPU: (end time, seconds for SAMPLE_LOOPS).

    A background thread takes one sample every SAMPLE_EVERY_S, which costs a
    running op about 5% of its CPU; burst() takes BURST samples in a row.
    A lock keeps two samples from ever sharing the interpreter.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample_periodically, daemon=True)

    def __enter__(self) -> Speedometer:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def sample(self) -> None:
        with self._lock:
            start = time.perf_counter()
            x = 0
            for i in range(SAMPLE_LOOPS):
                x += i * i % 7
            end = time.perf_counter()
            self.samples.append((end, end - start))

    def burst(self) -> float:
        """Take BURST samples; returns the time the burst started."""
        started = time.perf_counter()
        for _ in range(BURST):
            self.sample()
        return started

    def _sample_periodically(self) -> None:
        while not self._stop.wait(SAMPLE_EVERY_S):
            self.sample()

    def scale(self, seconds: float, since: float) -> float:
        """seconds at the reference speed, from the samples taken since `since`."""
        window = [took for end, took in self.samples if end >= since]
        return seconds * REFERENCE_SAMPLE_S / statistics.fmean(window)


def harrell_davis(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A Beta((n+1)p, (n+1)(1-p))-weighted mean of the order statistics: with one
    sample per op, it is much steadier than interpolating between two of them.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 16  # midpoint rule over each order statistic's 1/n slice

    def density(t: float) -> float:
        return math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_beta)

    weights = [sum(density((i + (k + 0.5) / steps) / n) for k in range(steps)) for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def run_op(argv: list[str], out_path: str, timeout: float, env: dict) -> tuple[float, int, int]:
    """Run one op with stdout to out_path; (seconds from spawn to exit, peak RSS in KiB, exit code)."""
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss, proc.returncode


class Bench:
    """One benchmark run: a work directory, the seeded inputs and the checker."""

    def __init__(self, seed: int, work: str, deadline: float, speed: Speedometer):
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.speed = speed
        self.checker: checks.Checker | None = None
        self.warmups: list[OpRun] = []

    def setup(self) -> float:
        """Generate the inputs, load the digests and run one warm-up op."""
        since = self.speed.burst()
        start = time.perf_counter()
        inputs_dir = os.path.relpath(os.path.join(self.work, "inputs"), ROOT)
        shutil.rmtree(inputs_dir, ignore_errors=True)
        manifest = inputs.generate(self.seed, inputs_dir)
        with open(DIGESTS, encoding="utf-8") as handle:
            self.checker = checks.Checker(manifest, json.load(handle))
        self.warmups += self.run_pass([workloads.WARMUP])[1]
        seconds = time.perf_counter() - start
        self.speed.burst()
        return self.speed.scale(seconds, since)

    def ops(self, workload: str) -> list[workloads.Op]:
        return workloads.WORKLOADS[workload](self.checker.manifest)

    def path(self, index: int, kind: str) -> str:
        return os.path.join(self.work, f"op{index}.{kind}")

    def run_pass(self, ops, traced: bool = False) -> tuple[float, list[OpRun]]:
        """Run every op once, in order, and check them afterwards.

        Returns the pass's seconds at the reference speed and the op runs.
        """
        runs = []
        since = self.speed.burst()
        for index, op in enumerate(ops):
            run = OpRun(op)
            runs.append(run)
            remaining = self.deadline - time.monotonic()
            if remaining <= 0:
                continue
            if traced:
                argv = [sys.executable, TRACED_CLI, *op.args]
                env = child_env(CRITGROUP_BENCH_SPANS=self.path(index, "spans"),
                                CRITGROUP_BENCH_OP=str(index))
            else:
                argv = [sys.executable, "-m", "critgroup.cli", *op.args]
                env = child_env()
            run.raw_seconds, run.rss_kb, run.returncode = run_op(
                argv, self.path(index, "out"), min(OP_TIMEOUT_S, remaining), env)
            next_since = self.speed.burst()
            run.seconds = self.speed.scale(run.raw_seconds, since)
            since = next_since
        self.check(runs)
        return sum(run.seconds for run in runs), runs

    def check(self, runs: list[OpRun]) -> None:
        self.checker.reset_queries()
        for index, run in enumerate(runs):
            if run.returncode is None:
                run.failure = "not started before the run deadline"
                continue
            with open(self.path(index, "out"), "rb") as handle:
                run.failure = self.checker.check(run.op, run.returncode, handle.read())
        asymmetric = self.checker.asymmetric_queries()
        for run in runs:
            if run.failure is None and run.op.label in asymmetric:
                run.failure = "differs from the same pair asked in the other order"
        for index, run in enumerate(runs):
            if run.failure is None:
                continue
            detail = []
            if run.returncode is not None:
                with open(self.path(index, "out.err"), "rb") as handle:
                    detail = handle.read().decode(errors="replace").strip().splitlines()[:1]
            print(f"FAIL {run.op.label}: {run.failure} {detail}", file=sys.stderr)

    def trace(self, runs: list[OpRun]) -> tuple[dict[str, float], list[dict]]:
        """Per-layer metrics summed over a traced pass, and one row per op."""
        totals = dict.fromkeys(traced_cli.metric_units(), 0)
        rows = []
        for index, run in enumerate(runs):
            try:
                with open(self.path(index, "spans"), encoding="utf-8") as handle:
                    metrics = traced_cli.summarize(json.load(handle))
            except (OSError, ValueError) as exc:
                run.failure = run.failure or f"no span file: {exc}"
                continue
            scale = run.seconds / run.raw_seconds  # span times to the reference speed too
            metrics = {k: v * scale if k.endswith("_s") else v for k, v in metrics.items()}
            for name, value in metrics.items():
                totals[name] = max(totals[name], value) if name.endswith(".max_bits") else totals[name] + value
            rows.append({"op": run.op.label, "traced_seconds": run.seconds,
                         **{k: round(v, 6) for k, v in metrics.items() if v}})
        return totals, rows


def measure(bench: Bench, ops, seconds: float) -> tuple[dict[str, float], list[OpRun], list[dict]]:
    """Timed passes while another fits in `seconds`: end-to-end metrics and per-op rows."""
    walls, passes = [], []
    started = time.monotonic()
    while True:
        pass_started = time.monotonic()
        wall, runs = bench.run_pass(ops)
        walls.append(wall)
        passes.append(runs)
        now = time.monotonic()
        if now + (now - pass_started) > min(started + seconds, bench.deadline):
            break
    times = [r.seconds for runs in passes for r in runs if r.returncode is not None]
    metrics = {
        "wall_s": statistics.median(walls),
        "op_p50_s": statistics.median(times),
        "op_p90_s": harrell_davis(times, 0.9),
        "peak_rss_mb": max(r.rss_kb for runs in passes for r in runs) / 1024,
    }
    rows = [
        {"op": op.label,
         "seconds": statistics.median(runs[i].seconds for runs in passes),
         "raw_seconds": statistics.median(runs[i].raw_seconds for runs in passes),
         "rss_mb": max(runs[i].rss_kb for runs in passes) / 1024,
         "failure": next((runs[i].failure for runs in passes if runs[i].failure), None)}
        for i, op in enumerate(ops)
    ]
    print(json.dumps({"passes": len(walls), "op_samples": len(times)}))
    return metrics, [r for runs in passes for r in runs], rows


def run(workload: str, seed: int, seconds: float, trace: bool, ops=None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    deadline = time.monotonic() + DEADLINE_S
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # ops inherit it
    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
    try:
        with Speedometer() as speed:
            bench = Bench(seed, work, deadline, speed)
            setups = [bench.setup() for _ in range(SETUP_REPEATS)]
            ops = ops if ops is not None else bench.ops(workload)
            if trace:
                untraced_wall, untraced = bench.run_pass(ops)
                traced_wall, traced = bench.run_pass(ops, traced=True)
                metrics, rows = bench.trace(traced)
                metrics["trace.overhead_s"] = traced_wall - untraced_wall
                runs = untraced + traced
                units = traced_cli.metric_units()
            else:
                metrics, runs, rows = measure(bench, ops, seconds)
                metrics["setup_s"] = statistics.median(setups)
                units = END_TO_END
        runs += bench.warmups
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for row in rows:
        print(json.dumps(row))
    failed = sum(1 for r in runs if r.failure is not None)
    print(json.dumps({"fail_ratio": failed / len(runs)}))
    return {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="critgroup CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "critgroup", "cli.py")):
        print(f"error: no critgroup sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
