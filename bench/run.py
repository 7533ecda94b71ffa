"""Learning-loop benchmark of gppi: one workload per process, or all of them.

    python3 bench/run.py --workload cartpole-learn --seed 0 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 0

A single workload prints a JSON line with the environment and the checks,
then, as its last line, {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics with --trace 0, the per-layer metrics of a traced session
with --trace 1.  It exits 1 when a check fails.  `--workload all` runs every
workload with both settings, each in its own process, and exits 1 unless
every one passes.  Run from the root of a source checkout: the program is
imported from ./src, and run directories and span files go under ./.bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

# Pinned before numpy is imported anywhere in this process: the default
# two-thread OpenBLAS makes the GP fits several times slower here.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# Keeps every git call of this process, the harness's version stamp
# included, from searching above the checkout.
os.environ["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8")) \
    if (ROOT / "BENCHMARK.json").is_file() else None


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="workload name, or 'all' for every workload")
    p.add_argument("--seed", type=_non_negative, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="time budget of a plain run (default: BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _units(trace: int) -> dict:
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in SPEC[key]}


def run_one(args) -> int:
    import workloads  # imports numpy and gppi; after the pin above

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out = ROOT / ".bench"
    out.mkdir(exist_ok=True)
    if args.trace:
        spans = out / f"spans-{workload.name}-s{args.seed}.jsonl.gz"
        res = workloads.traced_run(workload, args.seed, out, spans)
        res.info["spans_file"] = str(spans.relative_to(ROOT))
    else:
        res = workloads.plain_run(workload, args.seed, args.seconds, out)
    units = _units(args.trace)
    missing = sorted(set(units) - set(res.metrics))
    res.checks["every_metric_reported"] = not missing
    correct = all(res.checks.values())
    print(json.dumps({"workload": workload.name, "trace": args.trace,
                      "environment": workloads.environment(ROOT, args.seed),
                      "checks": res.checks, "missing_metrics": missing,
                      **res.info}))
    print(json.dumps({
        "correct": correct, "attempted": res.attempted, "failed": res.failed,
        "metrics": {name: {"value": res.metrics[name], "unit": unit}
                    for name, unit in units.items() if name in res.metrics},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload, plain then traced, each in a fresh process."""
    worst = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print(f"== {workload} trace={trace} exit={proc.returncode}")
            for name, m in (json.loads(lines[-1])["metrics"].items()
                            if lines else ()):
                print(f"  {name:48s} {m['value']:.6g} {m['unit']}")
            if lines:
                failed = [k for k, ok in json.loads(lines[0])["checks"].items()
                          if not ok]
                print("  checks: " + ("all passed" if not failed
                                      else "FAILED " + ", ".join(failed)))
            worst = max(worst, proc.returncode)
    return 1 if worst else 0


def main(argv=None) -> int:
    args = _parse(argv)
    if SPEC is None or not (ROOT / "src" / "gppi" / "__init__.py").is_file():
        print("run from a gppi source checkout: BENCHMARK.json and "
              "src/gppi are required", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(SPEC["run_seconds"])
    sys.path.insert(0, str(ROOT / "src"))
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
