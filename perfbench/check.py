"""Output digests that depend on the values in a payload, not their encoding.

The program writes each scalar as {"order": L, "coeffs": [...]} in the power
basis of Q(zeta_L), and one value has several such encodings (-1 is order 1
or order 12).  The digest maps every scalar through the ring homomorphism
Q(zeta_M) -> F_p that sends zeta_M to a fixed primitive M-th root of unity
mod a prime p = 1 (mod M).  Equal values always map to the same residue; a
wrong value collides only if p divides the norm of its difference from the
right one, which a 61-bit p makes negligible.  Every other field of the
payload (dim, labels, matrix, eps) is hashed as it stands.
"""

import hashlib
import json

# M covers every cyclotomic order these workloads produce: 2^10 3^4 5^2 7^2 11^2.
ORDER_BOUND = 2 ** 10 * 3 ** 4 * 5 ** 2 * 7 ** 2 * 11 ** 2
PRIME = 2305843027470259201          # = 187551557 * ORDER_BOUND + 1, prime
ZETA = 1039010073149665998           # 13^((PRIME - 1) / ORDER_BOUND) mod PRIME


class UncheckableOutput(ValueError):
    """A payload the digest cannot map, such as a scalar of an unexpected order."""


_powers = {}


def _root_powers(order: int):
    if order not in _powers:
        if order < 1 or ORDER_BOUND % order:
            raise UncheckableOutput("scalar order %r does not divide %d"
                                    % (order, ORDER_BOUND))
        root = pow(ZETA, ORDER_BOUND // order, PRIME)
        _powers[order] = [pow(root, k, PRIME) for k in range(order)]
    return _powers[order]


def scalar_image(order: int, coeffs) -> int:
    """The image in F_p of sum_k coeffs[k] * zeta_order^k."""
    powers = _root_powers(order)
    if len(coeffs) > order:
        raise UncheckableOutput("%d coefficients for order %d" % (len(coeffs), order))
    acc = 0
    for k, text in enumerate(coeffs):
        if text != "0":
            num, _, den = text.partition("/")
            acc += int(num) * pow(int(den or 1), -1, PRIME) * powers[k]
    return acc % PRIME


def canonical(value):
    """The payload with every scalar replaced by its image in F_p."""
    if isinstance(value, dict):
        if set(value) == {"order", "coeffs"}:
            return scalar_image(value["order"], value["coeffs"])
        return {k: canonical(v) for k, v in value.items()}
    if isinstance(value, list):
        return [canonical(v) for v in value]
    return value


def digest(payload) -> str:
    text = json.dumps(canonical(payload), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
