"""One workload in one single-threaded process: set-up, timed loop, trace.

``run.py`` starts this module; it prints one JSON line with its results.
Run it directly only to debug a workload:

    python3 -m perfbench.worker --workload rho-small --seed 1 --seconds 2

Every check here raises or counts a failure explicitly; none uses
``assert``, so the checks hold under ``python -O``.
"""

import time

SETUP_START = time.perf_counter()  # set-up is timed from here, before the import

import argparse
import json
import os
import resource
import statistics
import sys

from perfbench import workloads
from perfbench.clock import Stopwatch, scaled, time_reference
from perfbench.check import UncheckableOutput, digest
from perfbench.tracer import LAYERS, Tracer, shares

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(ROOT, "perfbench", "expected")
OUT = os.path.join(ROOT, "perfbench", "out")

MIN_OPS = 100        # so that ten samples lie beyond the 90th percentile
HARD_SECONDS = 50    # a loop stops here even short of MIN_OPS
TRACE_SHARE = 1 / 3  # a traced run picks its ops in this share of --seconds

W = "exactweil.weilrep."
TIMED = {
    "weilrep.rho_closed.s": [W + "rho_closed", W + "rho_closed_odd"],
    "weilrep.rho_oracle.s": [W + "rho_oracle"],
    "weilrep.operator_mul.s": [W + "WeilOperator.__mul__"],
    "weilrep.operator_eq.s": [W + "WeilOperator.__eq__"],
    "weilrep.to_json.s": [W + "WeilOperator.to_json"],
}
DECOMPOSE = ["exactweil.metaplectic.decompose_ST", "exactweil.metaplectic.decompose_T2S"]
COSET = ["exactweil.lattice.DiscriminantForm.coset_Dcstar"]
RHO = [W + "rho_closed", W + "rho_closed_odd", W + "rho_oracle"]
SCALAR_SUM = ["exactweil.exact.scalar_sum"]


def _terms(args, result):
    try:
        return len(args[0])
    except TypeError:  # an iterator: its length is not known without consuming it
        return 0


OBSERVED = dict(
    [(q, lambda args, result: len(result)) for q in DECOMPOSE + COSET]
    + [(q, lambda args, result: result.dim) for q in RHO]
    + [(q, _terms) for q in SCALAR_SUM])


def _e(name):
    return "exactweil.exact.ExactScalar." + name


def _l(name):
    return "exactweil.lattice.DiscriminantForm." + name


# Per-op call counts: metric -> qualnames.
CALLS = {
    "exact.mul.calls": [_e("__mul__")],
    "exact.add.calls": [_e("__add__")],
    "exact.scalar_sum.calls": SCALAR_SUM,
    "exact.root_of_unity.calls": ["exactweil.exact.root_of_unity"],
    "exact.sqrt_rat.calls": ["exactweil.exact.sqrt_rat"],
    "exact.eq.calls": [_e("__eq__")],
    "exact.to_json.calls": [_e("to_json")],
    "lattice.discriminant_form.builds": [_l("__init__")],
    "lattice.smith_normal_form.calls": ["exactweil.lattice.smith_normal_form"],
    "lattice.elements.calls": [_l("elements")],
    "lattice.coset_Dcstar.calls": COSET,
    "lattice.lift.calls": [_l("lift")],
    "lattice.qval.calls": [_l("qval")],
    "lattice.pairing.calls": [_l("pairing")],
    "lattice.beta_c_sq_half.calls": [_l("beta_c_sq_half")],
    "jordan.jordan_decompose.calls": ["exactweil.jordan.jordan_decompose"],
    "jordan.weil_index_lattice.calls": ["exactweil.jordan.weil_index_lattice"],
    "jordan.choose_xc.calls": ["exactweil.jordan.choose_xc"],
    "metaplectic.decompose.calls": DECOMPOSE,
    "weilrep.xi_p.calls": [W + "xi_p"],
    "weilrep.operator_mul.calls": [W + "WeilOperator.__mul__"],
    "cli.run.calls": ["exactweil.cli.run"],
}
MEANS = {
    "lattice.coset_size.mean": COSET,
    "metaplectic.word_len.mean": DECOMPOSE,
    "weilrep.dim.mean": RHO,
}


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".builds") or name.endswith(".terms"):
        return "1/op"
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s/op"
    if name.endswith(".mean") or name == "op_samples":
        return "count"
    return "1"


def _layer_metric_names():
    names = list(CALLS) + ["exact.scalar_sum.terms", "numth.calls"]
    names += list(MEANS) + list(TIMED)
    names += ["%s.%s" % (layer, kind) for layer in LAYERS for kind in ("self_s", "share")]
    names += ["trace.overhead_ratio", "lattice_reuse_ratio", "residue_repeat_ratio",
              "input_repeat_ratio", "fail_ratio", "op_samples"]
    return sorted(names)


PER_LAYER = _layer_metric_names()


class Failure(Exception):
    """The benchmark cannot run or check its workload."""


def import_program():
    """Import exactweil from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    import exactweil
    from exactweil import cli, lattice, metaplectic, weilrep

    where = os.path.dirname(os.path.abspath(exactweil.__file__))
    if os.path.dirname(where) != SRC:
        raise Failure("exactweil was imported from %s, not from %s" % (where, SRC))
    return cli, lattice, metaplectic, weilrep


def load_expected(w: workloads.Workload) -> dict:
    """The digests (None for oracle-diff) and cost ranks recorded for the pool."""
    path = os.path.join(EXPECTED, w.name + ".json")
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data["pool_sha256"] != workloads.fingerprint(workloads.pool(w)):
        raise Failure("%s: the pool no longer matches its recorded digests" % path)
    return data


class Program:
    """The workload's ops, bound to the program under test."""

    def __init__(self, w: workloads.Workload, lap=lambda: None):
        """Import the program and build the workload's lattices and their
        discriminant forms, calling `lap` after each step."""
        self.w = w
        self.cli, self.lattice, self.metaplectic, self.weilrep = import_program()
        lap()
        self.lattices = {}
        for gram in w.grams:
            lat = self.lattice.GramLattice([list(r) for r in gram])
            lat.discriminant_form()
            self.lattices[gram] = lat
            lap()

    def prepare(self, op: workloads.Op):
        """The op's arguments as program objects, built outside the timer."""
        mat = self.metaplectic.SL2(*op.matrix)
        if self.w.kind == "oracle":
            return self.lattices[op.gram], self.metaplectic.MpElement(mat, op.eps)
        if self.w.kind == "fresh":
            return [list(r) for r in op.gram], mat, op.eps
        return self.cli.Request("rho", self.lattices[op.gram], mat, op.eps)

    def run(self, args):
        """One op.  Returns the payload (rho-*) or closed == oracle."""
        if self.w.kind == "oracle":
            lat, x = args
            rho = self.weilrep.rho_closed if lat.is_even else self.weilrep.rho_closed_odd
            return rho(lat, x) == self.weilrep.rho_oracle(lat, x)
        if self.w.kind == "fresh":
            rows, mat, eps = args
            args = self.cli.Request("rho", self.lattice.GramLattice(rows), mat, eps)
        payload, code = self.cli.run(args)
        return payload if code == 0 else None

    def warm_up(self, lap=lambda: None):
        """One op per lattice; its output is not checked, only its cost paid."""
        grams = self.w.grams or (workloads.FRESH_WARMUP_GRAM,)
        for gram in grams:
            self.run(self.prepare(workloads.Op(gram, workloads.WARMUP_MATRIX, 1, None)))
            lap()


def check(expected, op: workloads.Op, out) -> bool:
    if out is None or out is False:
        return False
    if out is True:
        return True
    lat, k = op.key
    try:
        return digest(out) == expected[lat][k]
    except UncheckableOutput as err:
        print("op %r: %s" % (op, err), file=sys.stderr)
        return False


def loop(prog: Program, expected, stream, seconds: float, tracer=None):
    """Run ops until `seconds` have passed and MIN_OPS are done.

    The reference kernel is timed before the first op and after each one.
    Returns (ops run, their latencies, kernel times, how many failed)."""
    done, lat, refs, failed = [], [], [time_reference()], 0
    start = time.perf_counter()
    for op in stream:
        elapsed = time.perf_counter() - start
        if (elapsed >= seconds and len(done) >= MIN_OPS) or elapsed >= HARD_SECONDS:
            break
        workloads.validate(prog.w, op)
        args = prog.prepare(op)
        if tracer is not None:
            tracer.begin_op()
        t0 = time.perf_counter()
        try:
            out = prog.run(args)
        except Exception as err:  # an op that raises is a failed op
            out = None
            print("op %r raised %s: %s" % (op, type(err).__name__, err), file=sys.stderr)
        t1 = time.perf_counter()
        if tracer is not None:
            t1 = t0 + tracer.end_op()
        refs.append(time_reference())
        done.append(op)
        lat.append(t1 - t0)
        failed += not check(expected, op, out)
    return done, lat, refs, failed


def latency_metrics(lat, completed: int, prefix: str = "") -> dict:
    if len(lat) < MIN_OPS:
        raise Failure("only %d ops ran; the 90th percentile needs %d" % (len(lat), MIN_OPS))
    return {
        prefix + "ops_per_s": completed / sum(lat),
        prefix + "op_p50_ms": statistics.median(lat) * 1e3,
        prefix + "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
    }


def per_layer(tracer: Tracer, overhead_ratio: float) -> dict:
    n = tracer.ops
    out = {name: tracer.calls(qs) / n for name, qs in CALLS.items()}
    out["exact.scalar_sum.terms"] = sum(tracer.sample_sum[q] for q in SCALAR_SUM) / n
    out["numth.calls"] = tracer.layer_calls("numth") / n
    out.update({name: tracer.sample_mean(qs) for name, qs in MEANS.items()})
    out.update({name: tracer.inclusive[name] / n for name in TIMED})
    share = shares(tracer.self_s, tracer.op_s)
    for layer in LAYERS:
        out[layer + ".self_s"] = tracer.self_s[layer] / n
        out[layer + ".share"] = share.get(layer, 0.0)
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    w = workloads.WORKLOADS[args.workload]

    watch = Stopwatch(SETUP_START if __name__ == "__main__" else time.perf_counter())
    prog = Program(w, watch.lap)
    prog.warm_up(watch.lap)
    setup_s = watch.scaled_total()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "wall.setup_s": watch.total}))
        return 0

    data = load_expected(w)
    expected = data["digests"]
    seconds = args.seconds * (TRACE_SHARE if args.trace else 1)
    stream = workloads.ops(w, args.seed, data["cost_ranks"])
    done, lat, refs, failed = loop(prog, expected, stream, seconds)
    result = {"setup_s": setup_s, "wall.setup_s": watch.total, "attempted": len(done),
              "failed": failed, "describe": workloads.describe(done)}
    if args.trace:
        tracer = Tracer(TIMED, OBSERVED)
        tracer.install()
        try:
            t_done, t_lat, t_refs, t_failed = loop(prog, expected, iter(done),
                                                   float("inf"), tracer)
        finally:
            tracer.uninstall()
        # The same ops once more untraced, now that both passes find warm caches.
        _, u_lat, u_refs, u_failed = loop(prog, expected, iter(t_done), float("inf"))
        failed = max(failed, t_failed, u_failed)
        overhead = (statistics.mean(scaled(t_lat, t_refs))
                    / statistics.mean(scaled(u_lat, u_refs)))
        metrics = per_layer(tracer, overhead)
        metrics["op_samples"] = len(t_lat)
        for key in ("lattice_reuse_ratio", "residue_repeat_ratio", "input_repeat_ratio"):
            metrics[key] = result["describe"][key]
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "trace-%s-seed%d.json" % (w.name, args.seed))
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": w.name, "seed": args.seed, "metrics": metrics,
                       "trace": tracer.dump()}, handle)
        result["trace_file"] = os.path.relpath(path, ROOT)
    else:
        completed = len(lat) - failed
        metrics = latency_metrics(scaled(lat, refs), completed)
        metrics.update(latency_metrics(lat, completed, "wall."))
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["op_samples"] = len(lat)
    metrics["fail_ratio"] = failed / len(done)
    result["failed"] = failed
    result["metrics"] = metrics
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
