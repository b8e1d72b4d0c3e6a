"""Benchmark entry point.

    python3 perfbench/run.py --workload prefdata --seed 1 --seconds 25 --trace 0

run from the root of a ragsel checkout. It generates the workload's inputs
from the seed in a child process, drives ragsel (imported from `src/`)
through one workload, checks the outputs, prints a report, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
The metrics are the `end_to_end` list of BENCHMARK.json with `--trace 0` and
the `per_layer` list with `--trace 1`. Scratch files live under
`.perfbench_work/` and are removed at exit, except the traced run's spans.
Exit code 0 means every check passed; 1 means a check failed; 2 means the
checkout holds no ragsel sources.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main() -> int:
    parser = argparse.ArgumentParser(description="ragsel benchmark")
    parser.add_argument("--workload", required=True, choices=("answer", "prefdata", "answer-http"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind normally so the stub process is stopped and the
    # scratch directory removed.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))

    src = ROOT / "src"
    if not (src / "ragsel" / "__init__.py").is_file():
        print(f"perfbench: no ragsel sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = work / "inputs"
    try:
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(inputs)],
            check=True,
        )
        ctx = workloads.Ctx(
            workload=args.workload, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            work=work, inputs=inputs, meta=json.loads((inputs / "meta.json").read_text(encoding="utf-8")),
        )
        res = workloads.WORKLOADS[args.workload](ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in res.e2e.items():
        print(f"  e2e    {name:34s} {_fmt(value):>14s} {unit}")
    if args.trace:
        for name, unit in workloads.LAYER_UNITS.items():
            print(f"  layer  {name:34s} {_fmt(res.layers.get(name)):>14s} {unit}")
        print(f"  spans  {WORK_ROOT / f'spans-{args.workload}-{args.seed}.jsonl'}")
    for name, value in res.counts.items():
        print(f"  count  {name:34s} {_fmt(value):>14s}")
    for name, digest in res.digests.items():
        print(f"  sha256 {name:34s} {digest}")
    for name, ok, detail in res.checks:
        print(f"  check  {'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail else ''}")

    source = res.layers if args.trace else {k: v for k, (v, _u) in res.e2e.items()}
    metrics = {}
    for metric in spec["per_layer" if args.trace else "end_to_end"]:
        value = source.get(metric["name"])
        if value is None:
            raise RuntimeError(f"workload {args.workload} does not measure {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    correct = all(ok for _name, ok, _detail in res.checks)
    print(json.dumps({"correct": correct, "attempted": res.attempted, "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
