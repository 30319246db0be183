"""Tests of the benchmark's tracer: self-time arithmetic and patching."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from perfbench import worker  # noqa: E402
from perfbench.tracer import Tracer, self_times, shares  # noqa: E402


def test_self_time_and_share_of_a_nested_span_tree():
    # op [0, 10]
    #   cli [1, 9]
    #     weilrep [2, 8]
    #       jordan [2.5, 4]
    #         exact [3, 3.5]
    #       exact [5, 7]
    #   lattice [9.25, 9.75]
    spans = [
        ("op", 0.0, 10.0, None),
        ("cli", 1.0, 9.0, 0),
        ("weilrep", 2.0, 8.0, 1),
        ("jordan", 2.5, 4.0, 2),
        ("exact", 3.0, 3.5, 3),
        ("exact", 5.0, 7.0, 2),
        ("lattice", 9.25, 9.75, 0),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"op": 1.5, "cli": 2.0, "weilrep": 2.5,
                                 "jordan": 1.0, "exact": 2.5, "lattice": 0.5})
    assert sum(got.values()) == pytest.approx(10.0)
    share = shares(got, 10.0)
    assert share["exact"] == pytest.approx(0.25)
    assert share["weilrep"] == pytest.approx(0.25)
    assert sum(share.values()) == pytest.approx(1.0)


def test_tracer_patches_names_where_they_are_looked_up_and_restores_them():
    from exactweil import cli, jordan, lattice, weilrep
    from exactweil.metaplectic import SL2

    originals = (weilrep.jordan_decompose, jordan.jordan_decompose,
                 lattice.DiscriminantForm.qval, cli.run)
    lat = lattice.GramLattice([[2, 1], [1, 2]])
    request = cli.Request("rho", lat, SL2(2, 1, 1, 1), 1)
    tracer = Tracer(worker.TIMED, worker.OBSERVED)
    tracer.install()
    try:
        assert weilrep.jordan_decompose is not originals[0]
        assert jordan.jordan_decompose is not originals[1]
        tracer.begin_op()
        payload, code = cli.run(request)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    assert (weilrep.jordan_decompose, jordan.jordan_decompose,
            lattice.DiscriminantForm.qval, cli.run) == originals
    metrics = worker.per_layer(tracer, 1.0)
    assert metrics["cli.run.calls"] == 1
    assert metrics["jordan.jordan_decompose.calls"] >= 1
    assert metrics["weilrep.dim.mean"] == 3
    assert metrics["weilrep.operator_mul.calls"] == 0
    shares_sum = sum(metrics[layer + ".share"] for layer in ("exact", "numth", "lattice",
                                                            "jordan", "metaplectic",
                                                            "weilrep", "cli"))
    assert 0.5 < shares_sum <= 1.0
    assert set(worker.PER_LAYER) - {"lattice_reuse_ratio", "residue_repeat_ratio",
                                    "input_repeat_ratio", "fail_ratio",
                                    "op_samples"} <= set(metrics)
