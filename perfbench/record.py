"""Record, for every pool entry, its output digest and its cost rank.

    python3 perfbench/record.py [--workload rho-small ...]

For the rho-* workloads this checks a seeded sample of ops against
``rho_oracle`` as it goes, and stops at the first disagreement, so a digest
never records a wrong answer; every oracle-diff op is such a check itself.
It runs every pool entry once, times it against the reference kernel, and
writes ``perfbench/expected/<workload>.json``: the pool's fingerprint, the
digests, and each entry's cost rank within its lattice.  Re-record only
when a pool or the payload's values change on purpose.
"""

import argparse
import json
import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402
from perfbench.check import canonical, digest  # noqa: E402
from perfbench.clock import scaled, time_reference  # noqa: E402
from perfbench.worker import EXPECTED, Failure, Program  # noqa: E402

# Ops per workload checked against the oracle.  The oracle costs seconds per
# op on [[32]] and [[6,3],[3,6]], so rho-mid checks fewer.
ORACLE_SAMPLE = {"rho-small": 90, "rho-mid": 16, "rho-fresh": 60}


def check_against_oracle(prog: Program, op: workloads.Op, payload: dict) -> None:
    lat = prog.lattice.GramLattice([list(r) for r in op.gram])
    x = prog.metaplectic.MpElement(prog.metaplectic.SL2(*op.matrix), op.eps)
    rho = prog.weilrep.rho_closed if lat.is_even else prog.weilrep.rho_closed_odd
    closed = rho(lat, x)
    oracle = prog.weilrep.rho_oracle(lat, x)
    if (not closed == oracle
            or canonical(payload["entries"]) != canonical(oracle.to_json()["entries"])
            or payload["labels"] != [list(g) for g in oracle.labels]
            or payload["matrix"] != list(op.matrix) or payload["eps"] != op.eps):
        raise Failure("closed formula disagrees with the oracle on %r" % (op,))


def ranks(costs):
    out = [0] * len(costs)
    for rank, k in enumerate(sorted(range(len(costs)), key=costs.__getitem__)):
        out[k] = rank
    return out


def record(w: workloads.Workload) -> None:
    prog = Program(w)
    prog.warm_up()
    lists = workloads.pool(w)
    entries = []
    for lat, pooled in enumerate(lists):
        for k, entry in enumerate(pooled):
            if w.kind == "fresh":
                gram, matrix, eps = entry
            else:
                gram, (matrix, eps) = w.grams[lat], entry
            entries.append(workloads.Op(gram, matrix, eps, (lat, k)))
    sample = set()
    if w.kind != "oracle":
        sample = set(random.Random("oracle-sample:" + w.name).sample(
            range(len(entries)), ORACLE_SAMPLE[w.name]))
    digests = [[None] * len(pooled) for pooled in lists]
    costs = []
    refs = [time_reference()]
    for i, op in enumerate(entries):
        workloads.validate(w, op)
        args = prog.prepare(op)
        t0 = time.perf_counter()
        out = prog.run(args)
        costs.append(time.perf_counter() - t0)
        refs.append(time_reference())
        if out is None or out is False:
            raise Failure("op failed: %r" % (op,))
        lat, k = op.key
        if w.kind != "oracle":
            digests[lat][k] = digest(out)
        if i in sample:
            check_against_oracle(prog, op, out)
    costs = iter(scaled(costs, refs))
    cost_ranks = [ranks([next(costs) for _ in pooled]) for pooled in lists]
    checked = len(sample) if sample else len(entries)
    path = os.path.join(EXPECTED, w.name + ".json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"workload": w.name, "pool_sha256": workloads.fingerprint(lists),
                   "oracle_checked": checked,
                   "digests": None if w.kind == "oracle" else digests,
                   "cost_ranks": cost_ranks}, handle)
        handle.write("\n")
    print("%s: %d entries, %d checked against the oracle" % (w.name, len(entries), checked))


def main(argv=None) -> int:
    names = list(workloads.WORKLOADS)
    parser = argparse.ArgumentParser(description="Record expected digests and cost ranks.")
    parser.add_argument("--workload", nargs="*", choices=names, default=names)
    args = parser.parse_args(argv)
    os.makedirs(EXPECTED, exist_ok=True)
    for name in args.workload:
        record(workloads.WORKLOADS[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
