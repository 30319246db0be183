"""The exactweil benchmark.

    python3 perfbench/run.py --workload rho-small --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Each workload runs in processes of its own, one after another: SETUP_RUNS - 1
that only set up, then one that sets up and runs the timed loop.  setup_s is
the median over all of them.  With --trace 0 the result holds the end-to-end
metrics; with --trace 1 the per-layer metrics of a traced run.  The last line
of standard output is one JSON object; the exit code is 0 only if every op
succeeded and every output was correct.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402
from perfbench.worker import PER_LAYER, unit_of  # noqa: E402

SETUP_RUNS = 5
DEADLINE_SECONDS = 175  # per workload, all of its workers included
END_TO_END = {"setup_s": "s", "ops_per_s": "ops/s", "op_p50_ms": "ms",
              "op_p90_ms": "ms", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def worker(args, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    cmd = [sys.executable] + (["-O"] * sys.flags.optimize) + ["-m", "perfbench.worker"]
    env = dict(os.environ, PYTHONHASHSEED="0")  # one hash order: runs differ only by seed
    try:
        proc = subprocess.run(cmd + args, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=max(deadline - time.monotonic(), 1), text=True)
    except subprocess.TimeoutExpired:
        raise WorkerError("worker %s timed out" % " ".join(args)) from None
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if result is None:
        raise WorkerError("worker %s exited %d without a result"
                          % (" ".join(args), proc.returncode))
    result["exit"] = proc.returncode
    return result


def run_workload(name: str, seed: int, seconds: int, trace: int, deadline: float) -> dict:
    base = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    if trace:
        return worker(base + ["--trace", "1"], deadline)
    setups = [worker(base + ["--setup-only"], deadline) for _ in range(SETUP_RUNS - 1)]
    result = worker(base + ["--trace", "0"], deadline)
    setups.append(result)
    for key in ("setup_s", "wall.setup_s"):
        result["metrics"][key] = statistics.median(r[key] for r in setups)
    return result


def report(name: str, seed: int, result: dict, trace: int) -> dict:
    """Print the workload's figures; return its metrics with their units."""
    d = result["describe"]
    print("workload %s  seed %d  ops %d  Delta %d..%d  rank %d..%d  "
          "lattice_reuse_ratio %.4f  residue_repeat_ratio %.4f  input_repeat_ratio %.4f"
          % (name, seed, d["ops"], *d["delta_range"], *d["rank_range"],
             d["lattice_reuse_ratio"], d["residue_repeat_ratio"], d["input_repeat_ratio"]))
    m = result["metrics"]
    if trace:
        names = {n: unit_of(n) for n in PER_LAYER}
        print("  trace file %s" % result["trace_file"])
    else:
        names = dict(END_TO_END)
        print("  fail_ratio   %.6g 1  (%d of %d ops)  op samples %d"
              % (m["fail_ratio"], result["failed"], result["attempted"], m["op_samples"]))
    for n, unit in names.items():
        wall = "wall." + n
        raw = "  (wall clock %.6g)" % m[wall] if wall in m else ""
        print("  %-34s %.6g %s%s" % (n, m[n], unit, raw))
    return {n: {"value": m[n], "unit": unit} for n, unit in names.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The exactweil benchmark.")
    parser.add_argument("--workload", default="all",
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed, correct = {}, 0, 0, True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace,
                                  time.monotonic() + DEADLINE_SECONDS)
        except WorkerError as err:
            print("benchmark failed: %s" % err, file=sys.stderr)
            return 1
        shown = report(name, args.seed, result, args.trace)
        prefix = "" if len(names) == 1 else name + "."
        metrics.update({prefix + n: v for n, v in shown.items()})
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and result["exit"] == 0 and result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
