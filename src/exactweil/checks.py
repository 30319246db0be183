"""The per-lattice verification suites behind `exactweil verify`.

Each suite checks one family of exact identities on a lattice: the closed
formula against the generator-word oracle, the group law and relations,
Milgram's formula and Weil reciprocity, local Gauss sums, Braun's sum, the
tensor factorisation over the p-parts, the phi character and the level
predicates.  Random elements come from one seeded stream, so a report is
reproducible.
"""

import random
from typing import List

from .exact import ExactScalar, root_of_unity, sqrt_rat
from .jordan import gauss_sum_brute, gauss_sum_closed
from .lattice import CapExceededError, DiscriminantForm, GramLattice
from .metaplectic import SL2, MpElement, mp_mul
from .weilrep import (
    ZERO_PHASE,
    braun_check,
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


def milgram_value(form: DiscriminantForm) -> ExactScalar:
    """zeta_8^sgn sqrt(Delta), the value of the Milgram sum."""
    return root_of_unity(form.signature, 8) * sqrt_rat(form.delta)


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
            # every step a ring operator times a phase operator: the shift kernel
            t = rho_T(form)
            _holds(s * t * s * t * s * t == z, "rho(ST)^3 == rho(Z)")
            checks += 1
        _holds((z * z * z * z).is_identity(), "rho(Z)^4 == 1")
        return checks + 1

    def milgram_and_reciprocity() -> int:
        _holds(weil_reciprocity_check(lattice), "prod_p gamma(f_p) == zeta8^sgn")
        if not even:
            return 1
        form = lattice.discriminant_form()
        _holds(form.milgram_sum() == milgram_value(form),
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
        for _ in range(8):
            x = MpElement(_gamma0_word(rng, n), rng.choice((1, -1)))
            y = MpElement(_gamma0_word(rng, n), rng.choice((1, -1)))
            op = rho_closed(lattice, x)
            # e_0 is basis element 0; phi is a unit, so a zero cell fails
            k, phi = op.phases[0][0], phi_char(lattice, x)
            _holds(k != ZERO_PHASE
                   and root_of_unity(phi, 8) == op.coeff * root_of_unity(k, op.level),
                   "phi == e_0 scalar of rho")
            _holds((phi_char(lattice, mp_mul(x, y)) - phi - phi_char(lattice, y)) % 8 == 0,
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
