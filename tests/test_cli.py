"""Request parsing, dispatch, JSON output shape, and exit codes."""

import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction

import exactweil
import pytest

from exactweil.cli import (
    EXIT_CAP,
    EXIT_INVALID,
    EXIT_INVARIANT,
    EXIT_OK,
    Request,
    main,
    parse_lattice,
    parse_matrix,
    run,
)
from exactweil.exact import ExactScalar, root_of_unity, sqrt_rat
from exactweil.lattice import GramLattice
from exactweil.weilrep import rho_S


def invoke(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_parse_lattice_inline_and_file(tmp_path):
    lat = parse_lattice("[[2]]")
    assert lat.rank == 1 and lat.is_even
    assert not parse_lattice("[[1]]").is_even
    assert parse_lattice('{"gram": [[0, 1], [1, 1]]}').rank == 2
    path = tmp_path / "gram.json"
    path.write_text('{"gram": [[2, 1], [1, 2]]}')
    assert parse_lattice(str(path)).delta() == 3
    with pytest.raises(ValueError):
        parse_lattice("[[2, 1], [0, 2]]")  # asymmetric
    with pytest.raises(ValueError):
        parse_lattice("[[2")
    with pytest.raises(ValueError):
        parse_lattice('{"no_gram": 1}')


def test_parse_matrix():
    mat = parse_matrix("0,-1,1,0")
    assert mat.entries() == (0, -1, 1, 0)
    with pytest.raises(ValueError):
        parse_matrix("1,0,0")
    with pytest.raises(ValueError):
        parse_matrix("1,0,x,1")
    with pytest.raises(ValueError):
        parse_matrix("1,1,1,0")  # determinant -1


def test_run_milgram():
    payload, code = run(Request("milgram", parse_lattice("[[2]]")))
    assert code == EXIT_OK and payload["ok"]
    assert payload["sgn"] == 1 and payload["delta"] == 2
    total = ExactScalar.from_json(payload["sum"]["exact"])
    assert total == root_of_unity(1, 8) * sqrt_rat(Fraction(2))


def test_run_rho_matches_generator():
    lattice = parse_lattice("[[2]]")
    payload, code = run(Request("rho", lattice, matrix=parse_matrix("0,-1,1,0")))
    assert code == EXIT_OK
    expected = rho_S(lattice.discriminant_form()).entries
    for i in range(2):
        for j in range(2):
            cell = ExactScalar.from_json(payload["entries"][i][j])
            assert cell == expected[i][j]
            # every emitted scalar re-parses bit-exactly
            assert ExactScalar.from_json(cell.to_json()) == cell
    assert payload["labels"] == [[0], [1]]
    assert payload["matrix"] == [0, -1, 1, 0]


def test_run_rho_numeric_format():
    lattice = parse_lattice("[[2]]")
    payload, _ = run(Request("rho", lattice, matrix=parse_matrix("0,-1,1,0"),
                             fmt="numeric"))
    assert "entries" not in payload
    re, im = payload["entries_numeric"][0][0]
    assert abs(re - 0.5) < 1e-12 and abs(im + 0.5) < 1e-12


def test_run_rho_formats_share_one_payload(monkeypatch):
    # numeric is both without "entries", exact is both without
    # "entries_numeric", key order included; numeric encodes no exact cell
    for gram, matrix in (("[[2, 0], [0, 4]]", "2,1,7,4"), ("[[3]]", "0,-1,1,0"),
                         ("[[2, 0, 0], [0, 6, 0], [0, 0, 10]]", "11,2,49,9")):
        lattice = parse_lattice(gram)
        request = Request("rho", lattice, matrix=parse_matrix(matrix), eps=-1)
        both, _ = run(request._replace(fmt="both"))
        exact, _ = run(request._replace(fmt="exact"))
        with monkeypatch.context() as patch:
            patch.setattr(ExactScalar, "to_json", None)
            numeric, _ = run(request._replace(fmt="numeric"))
        assert json.dumps(exact) == json.dumps(
            {k: v for k, v in both.items() if k != "entries_numeric"})
        assert json.dumps(numeric) == json.dumps(
            {k: v for k, v in both.items() if k != "entries"})


def test_run_discform_and_jordan():
    payload, _ = run(Request("discform", parse_lattice("[[2, 0], [0, 4]]")))
    assert payload["delta"] == 8 and payload["even"]
    assert sorted(payload["orders"]) == [2, 4]
    payload, _ = run(Request("jordan", parse_lattice("[[2, 0], [0, 4]]")))
    assert payload["jordan"][0]["p"] == 2
    assert payload["jordan"][0]["symbol"] == "2^+1_1 4^+1_1"
    payload, _ = run(Request("jordan", parse_lattice("[[6]]"), prime=3))
    assert len(payload["jordan"]) == 1
    assert payload["jordan"][0]["components"][0]["n"] == 1


def test_run_kernel():
    lattice = parse_lattice("[[2]]")
    payload, _ = run(Request("kernel", lattice))
    assert payload["descriptor"]["base_group"] == "Gamma(N)"
    payload, _ = run(Request("kernel", lattice, matrix=parse_matrix("5,4,16,13")))
    assert payload["in_kernel"]
    payload, _ = run(Request("kernel", lattice, matrix=parse_matrix("5,4,16,13"),
                             eps=-1))
    assert not payload["in_kernel"]
    with pytest.raises(ValueError):
        run(Request("kernel", parse_lattice("[[1]]")))


def test_cli_verify(capsys):
    for gram in ("[[2]]", "[[1]]"):
        code, out = invoke(capsys, ["verify", "--lattice", gram])
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["ok"] and all(s["ok"] for s in payload["suites"])
        assert {"closed-vs-oracle", "braun"} <= {s["name"] for s in payload["suites"]}


def test_cli_exit_codes(capsys):
    code, out = invoke(capsys, ["rho", "--lattice", "[[2]]",
                                "--matrix", "1,1,1,0"])
    assert code == EXIT_INVALID and "error" in json.loads(out)
    code, _ = invoke(capsys, ["discform", "--lattice", "no-such-file.json"])
    assert code == EXIT_INVALID
    code, _ = invoke(capsys, ["rho", "--lattice", "[[1]]", "--matrix", "1,1,0,1"])
    assert code == EXIT_INVALID  # T is not in Gamma_odd
    code, _ = invoke(capsys, ["gauss", "--lattice", "[[2]]", "--prime", "2",
                              "--a", "1", "--c", "2097152"])
    assert code == EXIT_CAP
    code, _ = invoke(capsys, ["gauss", "--lattice", "[[2]]", "--prime", "2",
                              "--a", "1"])
    assert code == EXIT_INVALID  # missing --c
    with pytest.raises(SystemExit):
        main(["frobnicate", "--lattice", "[[2]]"])


def test_cli_rho_dense_cap(capsys, monkeypatch):
    import exactweil.lattice as lattice_mod

    # 8 x 8 cells in Q(zeta_8), 4 coefficients each
    argv = ["rho", "--lattice", "[[2, 0], [0, 4]]", "--matrix", "1,1,1,2"]
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 8 * 8 * 4)
    code, _ = invoke(capsys, argv)
    assert code == EXIT_OK
    for cap in (8 * 8 * 4 - 1, 8 * 8 - 1):
        monkeypatch.setattr(lattice_mod, "DENSE_CAP", cap)
        code, out = invoke(capsys, argv)
        assert code == EXIT_CAP and "cap %d" % cap in json.loads(out)["error"]


def test_cli_rho_dense_cap_counts_coefficients(capsys, monkeypatch):
    import exactweil.lattice as lattice_mod

    # T on [[300]]: 300^2 cells, of which the 300 on the diagonal hold at
    # most the phi(600) = 160 coefficients of Q(zeta_600) and the rest one
    # zero each; 300^2 * 160 integers would pass the cap
    code, out = invoke(capsys, ["rho", "--lattice", "[[300]]", "--matrix", "1,1,0,1"])
    assert code == EXIT_OK
    entries = json.loads(out)["entries"]
    assert len(entries) == 300
    assert sum(len(cell["coeffs"]) for row in entries for cell in row) \
        <= 300 * 299 + 300 * 160
    # S on [[106]]: 106^2 cells in Q(zeta_424), 208 coefficients each:
    # 2.3 * 10^6 integers
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 2 * 10 ** 6)
    code, out = invoke(capsys, ["rho", "--lattice", "[[106]]", "--matrix", "0,-1,1,0"])
    assert code == EXIT_CAP and "cap 2000000" in json.loads(out)["error"]


def test_cli_rho_checks_the_dense_cap_before_the_scalar(capsys, monkeypatch):
    import exactweil.weilrep as weilrep_mod

    def no_scalar(*args):
        raise AssertionError("the closed-formula scalar was computed past the cap")

    # Q(zeta_1000003) arithmetic, and trial division of a 19-digit delta.
    monkeypatch.setattr(weilrep_mod, "_xi_product", no_scalar)
    for gram in ("[[2000006]]", "[[2000000000000000006]]"):
        code, out = invoke(capsys, ["rho", "--lattice", gram, "--matrix", "0,-1,1,0"])
        assert code == EXIT_CAP and "cap" in json.loads(out)["error"]


def cli(*argv):
    """Run exactweil in a subprocess with a 20-s timeout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactweil.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run = subprocess.run([sys.executable, "-m", "exactweil.cli"] + list(argv),
                         capture_output=True, text=True, env=env, timeout=20)
    return run.returncode, json.loads(run.stdout), run.stderr


def test_cli_trial_division_cap():
    # each ran for minutes in the trial division of a 19-digit prime; a
    # prime given by --prime is now certified by Miller-Rabin instead
    big = "1000000000000000003"
    code, out, err = cli("jordan", "--lattice", "[[2000000000000000006]]")
    assert code == EXIT_CAP, err
    assert "trial-division cap" in out["error"]
    code, out, err = cli("jordan", "--lattice", "[[2]]", "--prime", big)
    assert code == EXIT_OK, err
    assert out["jordan"][0]["symbol"] == "1^-1"
    code, out, err = cli("gauss", "--lattice", "[[2]]", "--prime", big,
                         "--a", "1", "--c", "2")
    assert code == EXIT_OK, err
    assert out["ok"] is True
    code, out, err = cli("jordan", "--lattice", "[[2]]", "--prime", "10000000000037")
    assert code == EXIT_OK, err


def test_cli_gauss_cap():
    # 100003 terms in Q(zeta_100003): summing them ran for minutes
    code, out, err = cli("gauss", "--lattice", "[[2]]", "--prime", "100003",
                         "--a", "1", "--c", "100003")
    assert code == EXIT_CAP, err
    assert "cap" in out["error"]


def test_cli_precision_cap(capsys, monkeypatch):
    import exactweil.cli as cli_mod
    from exactweil.exact import PRECISION_CAP

    argv = ["rho", "--lattice", "[[2, 1], [1, 2]]", "--matrix", "0,-1,1,0",
            "--format", "numeric", "--precision"]
    code, _ = invoke(capsys, argv + ["128"])
    assert code == EXIT_OK

    def no_operator(*args):
        raise AssertionError("the operator was computed past the precision cap")

    # the cap is checked before the operator is computed
    monkeypatch.setattr(cli_mod, "rho_closed", no_operator)
    code, out = invoke(capsys, argv + [str(PRECISION_CAP + 1)])
    assert code == EXIT_CAP and "cap" in json.loads(out)["error"]


def test_cli_rejects_non_integer_gram_entries(capsys):
    for gram in ("[[2.5]]", '[[true, 0], [0, "4"]]', "[[2.0]]", "[[null]]", "[2]",
                 "[[2, 2], 3]"):
        code, _ = invoke(capsys, ["discform", "--lattice", gram])
        assert code == EXIT_INVALID
    code, _ = invoke(capsys, ["discform", "--lattice", "[[2]]"])
    assert code == EXIT_OK


def test_cli_gauss_and_pretty(capsys):
    code, out = invoke(capsys, ["gauss", "--lattice", "[[2]]", "--prime", "2",
                                "--a", "3", "--c", "2", "--format", "both"])
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"]
    assert payload["closed"]["numeric"]["real"][0] == "2"
    code, out = invoke(capsys, ["rho", "--lattice", "[[2]]",
                                "--matrix", "0,-1,1,0", "--pretty"])
    assert code == EXIT_OK
    assert out.startswith("dim: 2")
    assert "1/2 - 1/2*z8^2" in out


E8 = ("[[2,-1,0,0,0,0,0,0],[-1,2,-1,0,0,0,0,0],[0,-1,2,-1,0,0,0,-1],"
      "[0,0,-1,2,-1,0,0,0],[0,0,0,-1,2,-1,0,0],[0,0,0,0,-1,2,-1,0],"
      "[0,0,0,0,0,-1,2,0],[0,0,-1,0,0,0,0,2]]")


def test_cli_verify_reports_capped_suites(capsys, monkeypatch):
    import exactweil.jordan as jordan_mod
    import exactweil.weilrep as weilrep_mod

    # Under the default caps E8's gauss-sums suite passes the brute cap at
    # p = 5 (5^8 terms) and its braun suite at c = 6 (6^8 terms), after
    # minutes; a cap of 2^9 reaches both at once.  The other suites still
    # run and pass, and the exit code says a cap was met.
    for mod in (jordan_mod, weilrep_mod):
        monkeypatch.setattr(mod, "BRUTE_CAP", 2 ** 9)
    code, out = invoke(capsys, ["verify", "--lattice", E8])
    payload = json.loads(out)
    assert code == EXIT_CAP
    assert payload["ok"] and payload["capped"] == ["gauss-sums", "braun"]
    suites = {s["name"]: s for s in payload["suites"]}
    assert len(suites) == 8
    assert "2^16 terms" in suites["gauss-sums"]["capped"]
    assert "3^8 elements" in suites["braun"]["capped"]
    assert all(s["ok"] for name, s in suites.items()
               if name not in payload["capped"])


def test_cli_verify_fails_under_optimize():
    # The suites must not rely on assert statements, which -O strips.
    code = textwrap.dedent("""
        import json
        from exactweil import checks, cli
        from exactweil.weilrep import WeilOperator
        def wrong_oracle(lattice, x):
            form = lattice.discriminant_form()
            return WeilOperator.identity(form.elements(), form)
        checks.rho_oracle = wrong_oracle
        payload, code = cli.run(cli.Request("verify", cli.parse_lattice("[[2]]")))
        print(json.dumps({"payload": payload, "code": code}))
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(exactweil.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    run_ = subprocess.run([sys.executable, "-O", "-c", code],
                          capture_output=True, text=True, env=env, timeout=300)
    assert run_.returncode == 0, run_.stderr
    out = json.loads(run_.stdout)
    assert out["code"] == EXIT_INVARIANT and out["payload"]["ok"] is False
    suites = {s["name"]: s for s in out["payload"]["suites"]}
    assert suites["closed-vs-oracle"] == {
        "name": "closed-vs-oracle", "ok": False,
        "identity": "closed formula == generator-word oracle"}
    assert suites["braun"]["ok"]
