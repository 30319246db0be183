"""Command-line front end.

Parses a Gram matrix from the command line or a file, dispatches one of the
computations (discriminant form, Jordan symbols, Milgram sum, a Weil
operator, a local Gauss sum, kernel data) or the per-lattice verification
runner, and emits a single JSON document on standard output.  Exit codes:
0 success, 1 a checked identity failed, 2 invalid input, 3 a resource cap
(enumeration, dense operator, trial division or numeric precision).
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional

from .exact import ExactScalar, check_precision, root_of_unity, sqrt_rat
from .jordan import gauss_sum_brute, gauss_sum_closed, jordan_components
from .lattice import CapExceededError, GramLattice
from .metaplectic import SL2, MpElement, mp_mul
from .numth import prime_factors
from .weilrep import (
    braun_check,
    is_in_kernel,
    kernel_descriptor,
    phi_char,
    rho_S,
    rho_T,
    rho_Z,
    rho_closed,
    rho_oracle,
    rho_p_generators,
    tensor_check,
    weil_reciprocity_check,
)

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_INVALID = 2
EXIT_CAP = 3

DEFAULT_BITS = 64


class Request(NamedTuple):
    command: str
    lattice: GramLattice
    matrix: Optional[SL2] = None
    eps: int = 1
    prime: Optional[int] = None
    a: Optional[int] = None
    c: Optional[int] = None
    precision: Optional[int] = None
    fmt: str = "exact"


def parse_lattice(text: str) -> GramLattice:
    """An inline JSON Gram matrix, or a path to a JSON file holding one.

    The file may contain either the bare matrix or {"gram": [[...]]}.
    """
    payload = text.strip()
    if not payload.startswith("[") and not payload.startswith("{"):
        with open(payload, "r", encoding="utf-8") as handle:
            payload = handle.read()
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as err:
        raise ValueError("lattice input is not valid JSON: %s" % err) from None
    if isinstance(data, dict):
        data = data.get("gram")
    if not isinstance(data, list):
        raise ValueError("expected a Gram matrix or an object with a 'gram' key")
    return GramLattice(data)


def parse_matrix(text: str) -> SL2:
    parts = text.split(",")
    if len(parts) != 4:
        raise ValueError('matrix must be given as "a,b,c,d"')
    try:
        a, b, c, d = (int(part) for part in parts)
    except ValueError:
        raise ValueError("matrix entries must be integers") from None
    return SL2(a, b, c, d)


def scalar_payload(s: ExactScalar, fmt: str, precision: Optional[int]) -> dict:
    out = {}
    if fmt in ("exact", "both"):
        out["exact"] = s.to_json()
    if fmt in ("numeric", "both"):
        box = s.eval_numeric(precision or DEFAULT_BITS)
        out["numeric"] = {
            "real": [str(box.real_lo), str(box.real_hi)],
            "imag": [str(box.imag_lo), str(box.imag_hi)],
        }
    return out


# -- command handlers ------------------------------------------------------


def run_discform(req: Request) -> dict:
    form = req.lattice.discriminant_form()
    out = form.to_json()
    out["rank"] = req.lattice.rank
    out["even"] = req.lattice.is_even
    out["exponent"] = form.exponent
    return out


def run_jordan(req: Request) -> dict:
    lattice = req.lattice
    if req.prime is not None:
        primes = [req.prime]
    else:
        primes = sorted(set(prime_factors(2 * lattice.delta())))
    blocks = []
    for p in primes:
        components = jordan_components(lattice, p)
        blocks.append({
            "p": p,
            "symbol": " ".join(comp.symbol() for comp in components),
            "components": [
                {"q": comp.q, "n": comp.n, "eps": comp.eps, "t": comp.t,
                 "type_II": comp.is_type_II}
                for comp in components
            ],
        })
    return {"delta": lattice.delta(), "jordan": blocks}


def run_milgram(req: Request) -> dict:
    form = req.lattice.discriminant_form()
    total = form.milgram_sum()
    sgn = req.lattice.signature() % 8
    expected = root_of_unity(sgn, 8) * sqrt_rat(Fraction(form.delta))
    out = {
        "sum": scalar_payload(total, req.fmt, req.precision),
        "sgn": sgn,
        "delta": form.delta,
        "ok": total == expected,
    }
    if not out["ok"]:
        out["identity"] = "milgram_sum == zeta8^sgn sqrt(delta)"
    return out


def run_rho(req: Request) -> dict:
    if req.matrix is None:
        raise ValueError("rho needs --matrix (and optionally --eps)")
    x = MpElement(req.matrix, req.eps)
    op = rho_closed(req.lattice, x)
    bits = None
    if req.fmt in ("numeric", "both"):
        bits = req.precision or DEFAULT_BITS
    out = op.to_json(precision_bits=bits)
    if req.fmt == "numeric":
        del out["entries"]
    out["labels"] = [list(g) for g in op.labels]
    out["matrix"] = list(req.matrix.entries())
    out["eps"] = req.eps
    return out


def run_gauss(req: Request) -> dict:
    if req.prime is None or req.a is None or req.c is None:
        raise ValueError("gauss needs --prime, --a and --c")
    closed = gauss_sum_closed(req.lattice, req.prime, req.a, req.c)
    brute = gauss_sum_brute(req.lattice, req.prime, req.a, req.c)
    out = {
        "p": req.prime,
        "a": req.a,
        "c": req.c,
        "closed": scalar_payload(closed, req.fmt, req.precision),
        "brute": scalar_payload(brute, req.fmt, req.precision),
        "ok": closed == brute,
    }
    if not out["ok"]:
        out["identity"] = "gauss_sum_closed == gauss_sum_brute"
    return out


def run_kernel(req: Request) -> dict:
    out = {}
    if req.lattice.is_even:
        out["descriptor"] = kernel_descriptor(req.lattice)
    elif req.matrix is None:
        raise ValueError("the kernel classification covers even lattices; "
                         "pass --matrix for a direct membership test")
    if req.matrix is not None:
        out["matrix"] = list(req.matrix.entries())
        out["eps"] = req.eps
        out["in_kernel"] = is_in_kernel(req.lattice, MpElement(req.matrix, req.eps))
    return out


# -- the verification runner -----------------------------------------------


def _mp_word(rng: random.Random, step: int):
    x = MpElement(SL2(1, 0, 0, 1), 1)
    s = MpElement(SL2(0, -1, 1, 0), 1)
    for _ in range(rng.randint(1, 7)):
        if rng.random() < 0.5:
            k = step * rng.randint(-4, 4)
            x = mp_mul(x, MpElement(SL2(1, k, 0, 1), 1))
        else:
            x = mp_mul(x, s)
    if rng.random() < 0.5:
        x = MpElement(x.mat, -x.eps)
    return x


def _gamma0_word(rng: random.Random, n: int) -> SL2:
    mat = SL2(1, 0, 0, 1)
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            mat = mat * SL2(1, rng.randint(-2, 2), 0, 1)
        else:
            mat = mat * SL2(1, 0, n * rng.randint(-2, 2), 1)
    return mat


def _holds(ok: bool, identity: str) -> None:
    """Fail the running suite, naming the identity, unless ok; kept under -O."""
    if not ok:
        raise AssertionError(identity)


def verify_suites(lattice: GramLattice) -> List[dict]:
    """The per-lattice property suites, in fixed order.

    A suite that passes a cap is reported with the cap's message in place
    of its result, and the suites after it still run.
    """
    rng = random.Random(12)
    even = lattice.is_even
    step = 1 if even else 2

    def closed_vs_oracle() -> int:
        for _ in range(24):
            x = _mp_word(rng, step)
            _holds(rho_closed(lattice, x) == rho_oracle(lattice, x),
                   "closed formula == generator-word oracle")
        return 24

    def group_law() -> int:
        checks = 0
        for _ in range(10):
            x, y = _mp_word(rng, step), _mp_word(rng, step)
            product = rho_closed(lattice, mp_mul(x, y))
            _holds(product == rho_closed(lattice, x) * rho_closed(lattice, y),
                   "rho(xy) == rho(x) rho(y)")
            _holds(product.is_unitary(), "rho(x) rho(x)* == 1")
            checks += 2
        form = lattice.discriminant_form()
        s, z = rho_S(form), rho_Z(form)
        _holds(s * s == z, "rho(S)^2 == rho(Z)")
        checks += 1
        if even:
            st = s * rho_T(form)
            _holds(st * st * st == z, "rho(ST)^3 == rho(Z)")
            checks += 1
        _holds((z * z * z * z).is_identity(), "rho(Z)^4 == 1")
        return checks + 1

    def milgram_and_reciprocity() -> int:
        _holds(weil_reciprocity_check(lattice), "prod_p gamma(f_p) == zeta8^sgn")
        if not even:
            return 1
        form = lattice.discriminant_form()
        expected = root_of_unity(lattice.signature(), 8) \
            * sqrt_rat(Fraction(form.delta))
        _holds(form.milgram_sum() == expected,
               "milgram_sum == zeta8^sgn sqrt(delta)")
        return 2

    def gauss_sums() -> int:
        checks = 0
        for p in (2, 3, 5):
            for a, c in ((1, 1), (1, 2), (3, 2), (2, 3), (-1, 4), (5, 6),
                         (1, -2), (4, 5)):
                if a % p == 0 and c % p == 0:
                    continue
                _holds(gauss_sum_closed(lattice, p, a, c)
                       == gauss_sum_brute(lattice, p, a, c),
                       "gauss_sum_closed == gauss_sum_brute")
                checks += 1
        return checks

    def braun() -> int:
        checks = 0
        for c in range(lattice.level(), 13, lattice.level()):
            _holds(braun_check(lattice, c),
                   "Braun sum == zeta8^sgn c^(m/2) sqrt(delta)")
            checks += 1
        return checks

    def tensor() -> int:
        _holds(tensor_check(lattice), "tensor of p-part operators == rho")
        return 1

    def phi_suite() -> int:
        checks = 0
        n = lattice.level()
        form = lattice.discriminant_form()
        for _ in range(8):
            x = MpElement(_gamma0_word(rng, n), rng.choice((1, -1)))
            y = MpElement(_gamma0_word(rng, n), rng.choice((1, -1)))
            op = rho_closed(lattice, x)
            i0 = op.index_of(form.zero())
            _holds(phi_char(lattice, x) == op.entries[i0][i0],
                   "phi == e_0 scalar of rho")
            _holds(phi_char(lattice, mp_mul(x, y))
                   == phi_char(lattice, x) * phi_char(lattice, y),
                   "phi(xy) == phi(x) phi(y)")
            checks += 2
        return checks

    def level_predicates() -> int:
        checks = 1
        if lattice.rank % 2:
            _holds(lattice.level() % 4 == 0, "odd rank forces 4 | N")
        for p in (2, 3, 5, 7):
            if lattice.delta() % p:
                t_p, s_p = rho_p_generators(lattice, p)
                _holds(t_p.is_identity() and s_p.is_identity(),
                       "p-part trivial for p not dividing delta")
                checks += 1
        return checks

    plan = [
        ("closed-vs-oracle", closed_vs_oracle),
        ("group-law-unitarity-relations", group_law),
        ("milgram-reciprocity", milgram_and_reciprocity),
        ("gauss-sums", gauss_sums),
        ("braun", braun),
    ]
    if even:
        plan += [
            ("tensor", tensor),
            ("phi-character", phi_suite),
            ("level-predicates", level_predicates),
        ]
    report = []
    for name, suite in plan:
        try:
            count = suite()
            report.append({"name": name, "ok": True, "checks": count})
        except AssertionError as err:
            report.append({"name": name, "ok": False,
                           "identity": str(err) or name})
        except CapExceededError as err:
            report.append({"name": name, "capped": str(err)})
    return report


def run_verify(req: Request) -> dict:
    suites = verify_suites(req.lattice)
    return {
        "gram": req.lattice.gram,
        "suites": suites,
        "ok": all(s.get("ok", True) for s in suites),
        "capped": [s["name"] for s in suites if "capped" in s],
    }


HANDLERS: Dict[str, Callable[[Request], dict]] = {
    "discform": run_discform,
    "jordan": run_jordan,
    "milgram": run_milgram,
    "rho": run_rho,
    "gauss": run_gauss,
    "kernel": run_kernel,
    "verify": run_verify,
}


def run(request: Request):
    """Dispatch a request; returns (payload, exit code)."""
    handler = HANDLERS.get(request.command)
    if handler is None:
        raise ValueError("unknown command %r" % request.command)
    if request.fmt != "exact" and request.precision is not None:
        check_precision(request.precision)  # before any work is done
    payload = handler(request)
    if not payload.get("ok", True):
        return payload, EXIT_INVARIANT
    return payload, EXIT_CAP if payload.get("capped") else EXIT_OK


# -- output rendering ------------------------------------------------------


def _is_scalar_json(value) -> bool:
    return isinstance(value, dict) and set(value) == {"order", "coeffs"}


def _pretty_lines(value, indent: int = 0) -> List[str]:
    pad = "  " * indent
    if _is_scalar_json(value):
        return [pad + str(ExactScalar.from_json(value))]
    if isinstance(value, dict):
        lines = []
        for key, item in value.items():
            if key == "entries" and isinstance(item, list):
                lines.append("%s%s:" % (pad, key))
                rows = [[str(ExactScalar.from_json(cell)) for cell in row]
                        for row in item]
                widths = [max(len(rows[i][j]) for i in range(len(rows)))
                          for j in range(len(rows[0]))]
                for row in rows:
                    cells = [cell.rjust(widths[j]) for j, cell in enumerate(row)]
                    lines.append("%s  [%s]" % (pad, "  ".join(cells)))
            elif isinstance(item, (dict, list)):
                lines.append("%s%s:" % (pad, key))
                lines.extend(_pretty_lines(item, indent + 1))
            else:
                lines.append("%s%s: %s" % (pad, key, item))
        return lines
    if isinstance(value, list):
        if not any(isinstance(item, dict) for item in value):
            return [pad + json.dumps(value)]
        lines = []
        for item in value:
            lines.extend(_pretty_lines(item, indent))
            lines.append("")
        while lines and not lines[-1]:
            lines.pop()
        return lines
    return [pad + str(value)]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactweil",
        description="Exact Weil representations of integer lattices.")
    parser.add_argument("command", choices=sorted(HANDLERS))
    parser.add_argument("--lattice", required=True,
                        help="inline JSON Gram matrix or path to a JSON file")
    parser.add_argument("--matrix", help='SL2(Z) matrix as "a,b,c,d"')
    parser.add_argument("--eps", type=int, choices=(1, -1), default=1)
    parser.add_argument("--prime", type=int)
    parser.add_argument("--a", type=int)
    parser.add_argument("--c", type=int)
    parser.add_argument("--precision", type=int, metavar="BITS",
                        help="bits for numeric rendering (default %d)"
                        % DEFAULT_BITS)
    parser.add_argument("--format", dest="fmt",
                        choices=("exact", "numeric", "both"), default="exact")
    parser.add_argument("--pretty", action="store_true",
                        help="human-readable output instead of JSON")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        request = Request(
            command=args.command,
            lattice=parse_lattice(args.lattice),
            matrix=parse_matrix(args.matrix) if args.matrix else None,
            eps=args.eps,
            prime=args.prime,
            a=args.a,
            c=args.c,
            precision=args.precision,
            fmt=args.fmt,
        )
        payload, code = run(request)
    except (ValueError, OSError) as err:
        payload, code = {"error": str(err)}, EXIT_INVALID
    except CapExceededError as err:
        payload, code = {"error": str(err)}, EXIT_CAP
    if args.pretty:
        print("\n".join(_pretty_lines(payload)))
    else:
        print(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
