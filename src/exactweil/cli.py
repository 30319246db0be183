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
import sys
from typing import Callable, Dict, List, NamedTuple, Optional

from .checks import milgram_value, verify_suites
from .exact import ExactScalar, check_precision
from .jordan import gauss_sum_brute, gauss_sum_closed, jordan_components
from .lattice import CapExceededError, GramLattice, interesting_primes
from .metaplectic import SL2, MpElement
from .weilrep import is_in_kernel, kernel_descriptor, rho_closed

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
        primes = sorted(interesting_primes(lattice) | {2})
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
    out = {
        "sum": scalar_payload(total, req.fmt, req.precision),
        "sgn": form.signature % 8,
        "delta": form.delta,
        "ok": total == milgram_value(form),
    }
    if not out["ok"]:
        out["identity"] = "milgram_sum == zeta8^sgn sqrt(delta)"
    return out


def run_rho(req: Request) -> dict:
    if req.matrix is None:
        raise ValueError("rho needs --matrix (and optionally --eps)")
    x = MpElement(req.matrix, req.eps)
    op = rho_closed(req.lattice, x)
    bits = req.precision or DEFAULT_BITS
    out = {} if req.fmt == "numeric" else op.to_json()
    if req.fmt != "exact":
        out.update(op.to_numeric_json(bits))
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
