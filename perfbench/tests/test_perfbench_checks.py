"""Tests of the benchmark's checks: digests, input validation, descriptors,
and a negative self-test that a wrong operator is caught, also under -O."""

import json
import os
import subprocess
import sys
from itertools import islice

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from perfbench import check, workloads  # noqa: E402
from perfbench.worker import load_expected  # noqa: E402


def _is_prime(n: int) -> bool:
    """Miller-Rabin with bases that are deterministic below 3.3e24."""
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def test_digest_field_is_sound():
    assert _is_prime(check.PRIME)
    assert (check.PRIME - 1) % check.ORDER_BOUND == 0
    assert pow(check.ZETA, check.ORDER_BOUND, check.PRIME) == 1
    for q in (2, 3, 5, 7, 11):
        assert pow(check.ZETA, check.ORDER_BOUND // q, check.PRIME) != 1


def test_digest_depends_on_values_not_encodings():
    minus_one = {"order": 1, "coeffs": ["-1"]}
    also_minus_one = {"order": 12, "coeffs": ["-1", "0", "0", "0"]}
    i_in_8 = {"order": 8, "coeffs": ["0", "0", "1", "0"]}
    i_in_4 = {"order": 4, "coeffs": ["0", "1"]}
    payload = {"dim": 1, "entries": [[minus_one, i_in_8]], "eps": 1}
    same = {"eps": 1, "entries": [[also_minus_one, i_in_4]], "dim": 1}
    assert check.digest(payload) == check.digest(same)
    wrong = {"dim": 1, "entries": [[also_minus_one, {"order": 4, "coeffs": ["0", "-1"]}]],
             "eps": 1}
    assert check.digest(payload) != check.digest(wrong)
    # sqrt(3) = zeta_12 + zeta_12^-1 = 2 zeta_12 - zeta_12^3 in Q(zeta_12).
    sqrt3 = {"order": 12, "coeffs": ["0", "2", "0", "-1"]}
    assert check.scalar_image(12, sqrt3["coeffs"]) ** 2 % check.PRIME == 3
    with pytest.raises(check.UncheckableOutput):
        check.digest({"order": 13, "coeffs": ["1"] + ["0"] * 11})


def _op(gram, matrix, eps=1):
    return workloads.Op(tuple(map(tuple, gram)), matrix, eps, None)


def test_validate_rejects_inputs_outside_the_contract():
    small = workloads.WORKLOADS["rho-small"]
    workloads.validate(small, _op([[2]], (1, 1, 0, 1)))
    workloads.validate(small, _op([[1]], (1, 0, 2, 1)))
    bad = [
        (small, _op([[2]], (1, 1, 1, 1))),            # det 0
        (small, _op([[2]], (1, 51, 0, 1))),           # entry above 50
        (small, _op([[1]], (1, 1, 0, 1))),            # bd odd on an odd lattice
        (small, _op([[2]], (1, 1, 0, 1), eps=2)),
        (workloads.WORKLOADS["rho-fresh"], _op([[1]], (1, 0, 0, 1))),  # odd lattice
        (workloads.WORKLOADS["rho-fresh"], _op([[26]], (1, 0, 0, 1))),  # det 26
    ]
    for w, op in bad:
        with pytest.raises(workloads.InputError):
            workloads.validate(w, op)


def test_inputs_follow_the_seed_and_rho_fresh_shares_nothing():
    fresh = workloads.WORKLOADS["rho-fresh"]
    ranks = load_expected(fresh)["cost_ranks"]
    first = list(islice(workloads.ops(fresh, 7, ranks), 300))
    assert first == list(islice(workloads.ops(fresh, 7, ranks), 300))
    assert first != list(islice(workloads.ops(fresh, 8, ranks), 300))
    for op in first:
        workloads.validate(fresh, op)
    d = workloads.describe(first)
    assert d["lattice_reuse_ratio"] == 0 and d["residue_repeat_ratio"] == 0
    assert d["rank_range"][1] == 4
    small = workloads.WORKLOADS["rho-small"]
    small = list(islice(workloads.ops(small, 7, load_expected(small)["cost_ranks"]), 90))
    assert workloads.describe(small)["lattice_reuse_ratio"] == 81 / 90


def test_small_matrices_are_all_of_sl2_with_small_entries():
    mats = workloads.small_matrices()
    assert len(set(mats)) == len(mats)
    assert all(a * d - b * c == 1 and max(map(abs, (a, b, c, d))) <= 50
               for a, b, c, d in mats)
    assert (0, -1, 1, 0) in mats and (50, 1, -1, 0) in mats


WRONG_OPERATOR = """
import sys
sys.path[:0] = [{root!r}, {src!r}]
from exactweil import cli, weilrep
from perfbench import worker

def identity(lattice, x):
    form = lattice.discriminant_form()
    return weilrep.WeilOperator.identity(form.elements(), form)

weilrep.rho_oracle = identity
cli.rho_closed = cli.rho_closed_odd = identity
sys.exit(worker.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("optimize", [False, True])
@pytest.mark.parametrize("workload", ["rho-small", "oracle-diff"])
def test_a_wrong_operator_fails_the_run(workload, optimize):
    code = WRONG_OPERATOR.format(root=ROOT, src=os.path.join(ROOT, "src"))
    cmd = [sys.executable] + (["-O"] if optimize else []) + ["-c", code]
    cmd += ["--workload", workload, "--seed", "1", "--seconds", "0.1"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode != 0
    assert result["failed"] > 0
    assert result["metrics"]["fail_ratio"] > 0
