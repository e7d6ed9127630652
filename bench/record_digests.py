"""Record the stdout digest of every family op into bench/digests.json.

    python3 bench/record_digests.py

Family ops do not depend on the seed. Each one must first pass the
structural checks; the digests then pin its exact output, so a later change
that alters any `critgroup/1` report byte fails the benchmark.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

import checks
import inputs
import run
import workloads


def main() -> int:
    os.chdir(run.ROOT)
    os.makedirs(run.WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="digests-", dir=run.WORK)
    try:
        with run.Speedometer() as speed:
            bench = run.Bench(seed=0, work=work, deadline=time.monotonic() + 3600, speed=speed)
            manifest = inputs.generate(0, os.path.relpath(os.path.join(work, "inputs"), run.ROOT))
            bench.checker = checks.Checker(manifest, digests=None)
            ops = {op.label: op for name in workloads.WORKLOADS for op in bench.ops(name) if not op.seeded}
            ops[workloads.WARMUP.label] = workloads.WARMUP
            digests = {}
            for op in ops.values():
                _, (result,) = bench.run_pass([op])
                if result.failure is not None:
                    print(f"error: {op.label}: {result.failure}", file=sys.stderr)
                    return 1
                with open(bench.path(0, "out"), "rb") as handle:
                    digests[op.label] = hashlib.sha256(handle.read()).hexdigest()
                print(f"{result.raw_seconds:8.3f}s {op.label}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(run.DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(dict(sorted(digests.items())), handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
