"""Lattice invariants, Smith forms, and discriminant-form structure."""

from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import EVEN_GRAMS, ODD_GRAMS
from exactweil.exact import root_of_unity, sqrt_rat
from exactweil.jordan import choose_xc, jordan_decompose
from exactweil.lattice import (
    CapExceededError,
    DiscriminantForm,
    GramLattice,
    _det_int,
    _mat_mul,
    direct_sum,
    interesting_primes,
    smith_normal_form,
)
from reference import (
    class_of_dual_vector,
    lift,
    norm_of_lift,
    pairing_of_lifts,
    q_of_lift,
    subsets_c,
)

ALL_GRAMS = EVEN_GRAMS + ODD_GRAMS


def lattices():
    return [GramLattice(g) for g in ALL_GRAMS]


def test_gram_entries_must_be_integers():
    for rows in ([[2.5]], [[2.0]], [[True, 0], [0, 4]], [[1, 0], [0, "4"]],
                 [[Fraction(2)]], [[None]], [2], [[2, 2], 3]):
        with pytest.raises(ValueError):
            GramLattice(rows)
    assert GramLattice(((2, 1), (1, 2))).gram == ((2, 1), (1, 2))


def test_smith_examples():
    _, d, _ = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    _, d, _ = smith_normal_form([[2, 0], [0, 4]])
    assert (d[0][0], d[1][1]) == (2, 4)
    _, d, _ = smith_normal_form([[2, 1], [1, 2]])
    assert (d[0][0], d[1][1]) == (1, 3)
    with pytest.raises(ValueError):
        smith_normal_form([[1, 1], [1, 1]])


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_smith_properties(rows):
    if _det_int(rows) == 0:
        return
    u, d, v = smith_normal_form(rows)
    assert _mat_mul(_mat_mul(u, rows), v) == d
    assert abs(_det_int(u)) == 1 and abs(_det_int(v)) == 1
    diag = [d[i][i] for i in range(3)]
    assert all(x > 0 for x in diag)
    assert all(diag[i + 1] % diag[i] == 0 for i in range(2))
    assert all(d[i][j] == 0 for i in range(3) for j in range(3) if i != j)


def test_signature_examples():
    assert GramLattice([[2]]).signature() == 1
    assert GramLattice([[-2]]).signature() == -1
    assert GramLattice([[0, 1], [1, 0]]).signature() == 0
    assert GramLattice([[2, 1], [1, 2]]).signature() == 2
    assert GramLattice([[1, 0], [0, -3]]).signature() == 0


@given(st.sampled_from(ALL_GRAMS),
       st.lists(st.integers(-3, 3), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_signature_congruence_invariant(gram, entries):
    # Sylvester: P^T G P has the same signature for invertible P
    m = len(gram)
    p = [[entries[(i * m + j) % 4] for j in range(m)] for i in range(m)]
    for i in range(m):
        p[i][i] += 4  # push towards invertibility
    if _det_int(p) == 0:
        return
    pt = [[p[j][i] for j in range(m)] for i in range(m)]
    conj = _mat_mul(pt, _mat_mul(gram, p))
    assert GramLattice(conj).signature() == GramLattice(gram).signature()


# -- the integer construction against the Fraction references ---------------


def _ref_inverse(rows):
    """Exact inverse by Gauss-Jordan elimination over Fraction."""
    n = len(rows)
    a = [[Fraction(x) for x in r] for r in rows]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        scale = a[col][col]
        a[col] = [x / scale for x in a[col]]
        inv[col] = [x / scale for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def _ref_level(rows):
    """lcm of the denominators of q and of the off-diagonal pairings on the
    dual basis, the columns of G^-1."""
    inv = _ref_inverse(rows)
    n = 1
    for i in range(len(rows)):
        n = lcm(n, (inv[i][i] / 2).denominator)
        for j in range(i + 1, len(rows)):
            n = lcm(n, inv[i][j].denominator)
    return n


def _ref_signature(mat):
    """Inertia by symmetric pivoting over Fraction."""
    n = len(mat)
    if n == 0:
        return 0
    for i in range(n):
        if mat[i][i] != 0:
            piv = Fraction(mat[i][i])
            rest = [j for j in range(n) if j != i]
            sub = [[mat[r][s] - mat[r][i] * mat[i][s] / piv for s in rest] for r in rest]
            return (1 if piv > 0 else -1) + _ref_signature(sub)
    for i in range(n):
        for j in range(i + 1, n):
            if mat[i][j] != 0:
                # hyperbolic 2x2 block: inertia (+1, -1), net contribution 0
                b = Fraction(mat[i][j])
                rest = [k for k in range(n) if k not in (i, j)]
                sub = [[mat[r][s] - (mat[r][i] * mat[s][j] + mat[r][j] * mat[s][i]) / b
                        for s in rest] for r in rest]
                return _ref_signature(sub)
    return 0


@st.composite
def _rank4_grams(draw):
    """Nondegenerate symmetric integer matrices of rank <= 4, often with
    zero diagonal entries (the hyperbolic case of the pivot recursion)."""
    m = draw(st.integers(1, 4))
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        rows[i][i] = draw(st.sampled_from([0, 0, 0, -4, -3, -2, -1, 1, 2, 3, 4]))
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    assume(_det_int(rows) != 0)
    return rows


def test_level_and_signature_match_references_on_corpus():
    for gram in ALL_GRAMS + [[[0, 1], [1, 0]], [[1]], [[-1]], [[0, 2], [2, 1]]]:
        lat = GramLattice(gram)
        assert lat.level() == _ref_level(gram)
        assert lat.signature() == _ref_signature(gram)


@given(_rank4_grams())
@settings(max_examples=300, deadline=None)
def test_level_and_signature_match_references(gram):
    lat = GramLattice(gram)
    assert lat.level() == _ref_level(gram)
    assert lat.signature() == _ref_signature(gram)


def test_construction_builds_no_fraction(monkeypatch):
    import exactweil.lattice as lattice_mod

    class NoFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            raise AssertionError("Fraction built while constructing a lattice")

    monkeypatch.setattr(lattice_mod, "Fraction", NoFraction)
    for gram in ALL_GRAMS + [[[0, 1], [1, 0]], [[1]], [[0, 2], [2, 1]]]:
        lat = GramLattice(gram)
        lat.discriminant_form(), lat.det(), lat.delta(), lat.level(), lat.signature()


def test_level_examples():
    assert GramLattice([[2]]).level() == 4
    assert GramLattice([[0, 1], [1, 0]]).level() == 1
    assert GramLattice([[2, 1], [1, 2]]).level() == 3
    assert GramLattice([[1]]).level() == 2


def test_level_divisibility_and_pfin():
    for lat in lattices():
        df = lat.discriminant_form()
        n, delta = lat.level(), lat.delta()
        assert (2 * delta) % n == 0
        assert delta % df.exponent == 0
        if lat.is_even:
            for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
                assert (delta % p == 0) == (n % p == 0)


def test_odd_rank_even_lattice_level_divisible_by_4():
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        if lat.rank % 2 == 1:
            assert lat.level() % 4 == 0


def test_validation():
    with pytest.raises(ValueError):
        GramLattice([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        GramLattice([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        GramLattice([[1, 2]])
    assert GramLattice([[2]]).is_even
    assert not GramLattice([[1, 0], [0, 2]]).is_even


def test_discriminant_form_examples():
    d1 = GramLattice([[2]]).discriminant_form()
    assert d1.orders == (2,)
    assert d1.qval((1,)) == Fraction(1, 4)
    assert d1.pairing((1,), (1,)) == Fraction(1, 2)
    du = GramLattice([[0, 1], [1, 0]]).discriminant_form()
    assert du.orders == () and du.elements() == [()]
    d2 = GramLattice([[2, 1], [1, 2]]).discriminant_form()
    assert d2.orders == (3,)
    assert d2.qval((1,)) in (Fraction(1, 3), Fraction(2, 3))


def test_quadratic_form_consistency():
    # q(x+y) - q(x) - q(y) = (x,y) mod 1 on even lattices
    for gram in EVEN_GRAMS:
        df = GramLattice(gram).discriminant_form()
        for x in df.elements():
            for y in df.elements():
                lhs = (df.qval(df.add(x, y)) - df.qval(x) - df.qval(y)) % 1
                assert lhs == df.pairing(x, y)


def test_qval_lift_independence():
    for gram in ALL_GRAMS:
        lat = GramLattice(gram)
        df = lat.discriminant_form()
        modulus = 1 if lat.is_even else Fraction(1, 2)
        for x in df.elements():
            base = lift(df, x)
            for shift in range(lat.rank):
                moved = list(base)
                moved[shift] += 1
                assert q_of_lift(df, moved) % modulus == df.qval(x)


def test_milgram_corpus():
    for gram in EVEN_GRAMS:
        df = GramLattice(gram).discriminant_form()
        expected = root_of_unity(df.signature, 8) * sqrt_rat(df.delta)
        assert df.milgram_sum() == expected
    a2 = GramLattice([[2, 1], [1, 2]]).discriminant_form()
    assert a2.milgram_sum() == root_of_unity(1, 4) * sqrt_rat(3)
    with pytest.raises(ValueError):
        GramLattice([[1]]).discriminant_form().milgram_sum()


def test_direct_sum_discriminant_forms():
    pairs = [([[2]], [[2, 1], [1, 2]]), ([[4]], [[-2]]),
             ([[0, 1], [1, 0]], [[6]]), ([[2]], [[2, 0], [0, 4]])]
    for ga, gb in pairs:
        la, lb = GramLattice(ga), GramLattice(gb)
        ls = direct_sum(la, lb)
        da, db, ds = (x.discriminant_form() for x in (la, lb, ls))
        assert ds.delta == da.delta * db.delta
        assert ds.signature == da.signature + db.signature
        assert ds.milgram_sum() == da.milgram_sum() * db.milgram_sum()
        # embedded copies: padded lifts respect q and pair to zero across
        zero_b = [Fraction(0)] * lb.rank
        zero_a = [Fraction(0)] * la.rank
        for x in da.elements():
            vx = list(lift(da, x)) + zero_b
            assert q_of_lift(ds, vx) % 1 == q_of_lift(da, lift(da, x)) % 1
            for y in db.elements():
                vy = zero_a + list(lift(db, y))
                assert pairing_of_lifts(ds, vx, vy) == 0


def test_interesting_primes():
    assert interesting_primes(GramLattice([[2]])) == {2}
    assert interesting_primes(GramLattice([[0, 1], [1, 0]])) == set()
    assert interesting_primes(GramLattice([[2, 1], [1, 2]])) == {3}
    assert interesting_primes(GramLattice([[2, 0], [0, 6]])) == {2, 3}


def test_subsets_c_sizes():
    for gram in ALL_GRAMS:
        df = GramLattice(gram).discriminant_form()
        for c in range(-12, 13):
            kernel, image = subsets_c(df, c)
            assert len(kernel) * len(image) == df.delta
            kset = set(kernel)
            for x in kernel[:10]:
                for y in kernel[:10]:
                    assert df.add(x, y) in kset
            assert set(image) == {df.smul(c, x) for x in df.elements()}
            assert kset == {x for x in df.elements() if df.smul(c, x) == df.zero()}


def test_subsets_c_zero():
    df = GramLattice([[2]]).discriminant_form()
    kernel, image = subsets_c(df, 0)
    assert set(kernel) == set(df.elements())
    assert image == [df.zero()]


def test_coset_dcstar_examples():
    d1 = GramLattice([[2]]).discriminant_form()  # Z/2, level 4, q(1) = 1/4
    assert d1.coset_Dcstar(1, (0,)) == [((0,), 0), ((1,), 1)]
    assert d1.coset_Dcstar(2, (1,)) == [((1,), 0)]
    du = GramLattice([[0, 1], [1, 0]]).discriminant_form()
    assert du.coset_Dcstar(7, ()) == [((), 0)]


def test_coset_dcstar_is_coset_of_image():
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        df = lat.discriminant_form()
        for c in range(-8, 9):
            if c == 0:
                continue
            x_c = choose_xc(jordan_decompose(lat, 2), c)
            star = [beta for beta, _ in df.coset_Dcstar(c, x_c)]
            _, image = subsets_c(df, c)
            assert len(star) == len(set(star)) == len(image) > 0
            assert {df.add(b, df.neg(x_c)) for b in star} == set(image)
            # direct filter definition against the full kernel
            kernel, _ = subsets_c(df, c)
            for beta in star:
                for mu in kernel:
                    val = (c * df.qval(mu) + df.pairing(beta, mu)) % 1
                    assert val == 0


def test_coset_dcstar_odd_lattice_odd_c():
    # [[3]]: D = Z/3, level 6, q(1) = 1/6 mod 1/2.  For odd c, x_c is
    # taken as zero (the half-sum is not dual, and xi_2 carries the oddity
    # 3 of the unimodular component) and the coset is cD: 3D = {0} and 1D = D.
    lat = GramLattice([[3]])
    df = lat.discriminant_form()
    decomp = jordan_decompose(lat, 2)
    assert decomp.component_at(0).t == 3
    with pytest.raises(ValueError):
        choose_xc(decomp, 3)
    assert df.coset_Dcstar(3, (0,)) == [((0,), 0)]
    assert df.coset_Dcstar(1, (0,)) == [((0,), 0), ((1,), 1), ((2,), 1)]
    assert len(df.coset_Dcstar(2, (0,))) == 3


def test_beta_c_sq_half_examples_and_well_defined():
    # h = N (c alpha^2/2 + (x_c, alpha)) mod N for beta = x_c + c alpha
    d1 = GramLattice([[2]]).discriminant_form()
    assert d1.coset_Dcstar(2, (1,)) == [((1,), 0)]
    assert d1.coset_Dcstar(1, (0,))[1] == ((1,), 1)  # 1/4
    assert d1.coset_Dcstar(0, (0,)) == [((0,), 0)]
    for gram in EVEN_GRAMS:
        lat = GramLattice(gram)
        df = lat.discriminant_form()
        for c in (1, 2, 3, 4, 6, -2):
            x_c = choose_xc(jordan_decompose(lat, 2), c)
            for beta, h in df.coset_Dcstar(c, x_c):
                # every preimage alpha of (beta - x_c)/c gives the same value
                seen = set()
                for alpha in df.elements():
                    if df.add(x_c, df.smul(c, alpha)) == beta:
                        seen.add((c * df.qval(alpha) + df.pairing(x_c, alpha)) % 1)
                assert seen == {Fraction(h, df.level)}


def test_class_of_dual_vector_roundtrip():
    for gram in ALL_GRAMS:
        df = GramLattice(gram).discriminant_form()
        for x in df.elements():
            assert class_of_dual_vector(df, lift(df, x)) == x


def test_class_from_dual_vector_projects():
    # the class of a p-local dual vector is the p-component of x: its
    # projection to the p-part is that of x, and to the other part zero
    df = GramLattice([[2, 0], [0, 6]]).discriminant_form()
    p2, p3 = df.p_part(2), df.p_part(3)
    for x in df.elements():
        v = lift(df, x)
        for p, part, other in ((2, p2, p3), (3, p3, p2)):
            cls = df.class_from_dual_vector(v, p)
            assert part.project(cls) == part.project(x) and other.project(cls) == other.zero()
        # shifting the vector by a 3-unit denominator leaves the 3-class alone
        shifted = (v[0] + Fraction(1, 2), v[1])
        cls = df.class_from_dual_vector(shifted, 3)
        assert p3.project(cls) == p3.project(x) and p2.project(cls) == p2.zero()


def test_p_part_structure():
    df = GramLattice([[2, 0], [0, 6]]).discriminant_form()  # level 12
    p2, p3 = df.p_part(2), df.p_part(3)
    assert p2.delta == 4 and p3.delta == 3
    assert (p2.orders, p2.level, p3.orders, p3.level) == ((2, 2), 4, (3,), 3)
    assert len(p2.elements()) == 4 and len(p3.elements()) == 3
    # x -> (pi_2 x, pi_3 x) is a bijection D -> D_2 x D_3 that carries q and
    # the pairing to the sums over the parts, so the parts are orthogonal
    image = {x: (p2.project(x), p3.project(x)) for x in df.elements()}
    assert sorted(image.values()) == sorted(product(p2.elements(), p3.elements()))
    for x, (x2, x3) in image.items():
        assert df.qval(x) == (p2.qval(x2) + p3.qval(x3)) % 1
        for y, (y2, y3) in image.items():
            assert df.pairing(x, y) == (p2.pairing(x2, y2) + p3.pairing(x3, y3)) % 1
    p5 = df.p_part(5)
    assert p5.delta == 1 and p5.level == 1 and p5.elements() == [p5.zero()]


def test_p_part_needs_an_even_form_and_exact_local_entries():
    with pytest.raises(ValueError, match="even forms"):
        GramLattice([[1, 0], [0, 4]]).discriminant_form().p_part(2)
    # level 6 but a Gram entry 1/6 on a factor of order 2: N/N_2 = 3 does
    # not divide N (g, g) = 1
    with pytest.raises(ArithmeticError, match="not a value of the 2-part"):
        DiscriminantForm((2,), [[1]], [1], 6).p_part(2)


def test_enumeration_cap():
    big = GramLattice([[2 * 100003]])
    with pytest.raises(CapExceededError):
        big.discriminant_form().elements()


def test_json_shape():
    doc = GramLattice([[2]]).discriminant_form().to_json()
    assert doc["orders"] == [2] and doc["delta"] == 2
    assert doc["quad"] == ["1/4"] and doc["bilinear"] == [["1/2"]]
    assert doc["signature"] == 1 and doc["level"] == 4


# -- the integer form mod N against the lift-based reference ---------------


def _ref_pairing(df, x, y):
    return pairing_of_lifts(df, lift(df, x), lift(df, y)) % 1


def _ref_qval(df, x):
    modulus = 1 if df.lattice.is_even else Fraction(1, 2)
    return norm_of_lift(df, lift(df, x)) / 2 % modulus


def _check_integer_form(df, elems):
    n = df.level
    for x in elems:
        assert 0 <= df.q_num(x) < (n if df.lattice.is_even else n // 2)
        assert df.qval(x) == _ref_qval(df, x)
        for y in elems:
            assert 0 <= df.pairing_num(x, y) < n
            assert df.pairing(x, y) == _ref_pairing(df, x, y)


def test_integer_form_matches_lifts_on_corpus():
    for gram in ALL_GRAMS:
        df = GramLattice(gram).discriminant_form()
        _check_integer_form(df, df.elements())


@st.composite
def _small_grams(draw):
    """Nondegenerate symmetric integer matrices of rank <= 3 and delta <= 200."""
    m = draw(st.integers(1, 3))
    even = draw(st.booleans())
    rows = [[0] * m for _ in range(m)]
    for i in range(m):
        diag = draw(st.integers(-8, 8))
        rows[i][i] = 2 * diag if even else diag
        for j in range(i + 1, m):
            rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    det = abs(_det_int(rows))
    assume(0 < det <= 200)
    return rows


@given(_small_grams(), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_integer_form_matches_lifts_property(gram, rng):
    df = GramLattice(gram).discriminant_form()
    elems = df.elements()
    gens = [tuple(int(i == j) for j in range(len(df.orders)))
            for i in range(len(df.orders))]
    _check_integer_form(df, gens + rng.sample(elems, min(12, len(elems))))


_COSET_GRAMS = ALL_GRAMS + [[[32]], [[2, 0], [0, 6]], [[4, 2], [2, 4]],
                            [[6, 3], [3, 6]], [[8]], [[1, 0], [0, 4]]]


def _brute_kernel(df, c):
    return [mu for mu in df.elements() if df.smul(c, mu) == df.zero()]


def test_add_table_and_smul_indices(monkeypatch):
    import exactweil.lattice as lattice_mod

    for gram in _COSET_GRAMS:
        lattice = GramLattice(gram)
        df = lattice.discriminant_form()
        forms = [df] + [df.p_part(p) for p in sorted(interesting_primes(lattice))
                        if lattice.is_even]
        for form in forms:
            elems = form.elements()
            assert form.add_table() == [[form.index(form.add(x, y)) for y in elems]
                                        for x in elems], gram
            for c in (0, 1, -1, 2, 3, 7, -12, 10 ** 12 + 1):
                assert form.smul_indices(c) == [form.index(form.smul(c, x)) for x in elems]
    # delta^2 integers, capped before the first build
    monkeypatch.setattr(lattice_mod, "DENSE_CAP", 63)
    with pytest.raises(CapExceededError):
        GramLattice([[8]]).discriminant_form().add_table()


def test_cosets_match_lift_enumeration():
    for gram in _COSET_GRAMS:
        lat = GramLattice(gram)
        df = lat.discriminant_form()
        for c in range(-12, 13):
            kernel = _brute_kernel(df, c)
            values = {beta: [(c * _ref_qval(df, mu) + _ref_pairing(df, beta, mu)) % 1
                             for mu in kernel] for beta in df.elements()}
            if lat.is_even or c % 2 == 0:
                expected = [b for b in df.elements() if not any(values[b])]
            else:
                def two_power(v):
                    return v.denominator & (v.denominator - 1) == 0
                expected = [b for b in df.elements() if all(map(two_power, values[b]))]
            # x_c as rho_closed takes it: 0 at c = 0 and at odd c
            x_c = choose_xc(jordan_decompose(lat, 2), c) if c and c % 2 == 0 else df.zero()
            # each beta once, and exactly the betas of the definition
            assert sorted(beta for beta, _ in df.coset_Dcstar(c, x_c)) == expected


def test_beta_c_sq_half_matches_lift_enumeration():
    for gram in _COSET_GRAMS:
        lat = GramLattice(gram)
        df = lat.discriminant_form()
        for c in range(-12, 13):
            if c == 0:
                continue
            x_c = df.zero() if c % 2 else choose_xc(jordan_decompose(lat, 2), c)
            odd_c = not lat.is_even and c % 2
            box = list(product(*(range(d // gcd(c, d)) for d in df.orders)))
            for beta, h in df.coset_Dcstar(c, x_c):
                val = Fraction(h, df.level)
                seen = {(c * _ref_qval(df, alpha) + _ref_pairing(df, x_c, alpha)) % 1
                        for alpha in df.elements()
                        if df.add(x_c, df.smul(c, alpha)) == beta}
                (alpha,) = [t for t in box if df.add(x_c, df.smul(c, t)) == beta]
                assert val == (c * _ref_qval(df, alpha) + _ref_pairing(df, x_c, alpha)) % 1
                if odd_c:
                    # c*q(alpha) depends on alpha mod 1/2; an even a, which
                    # odd c forces on the parity subgroup, removes that
                    assert {2 * v % 1 for v in seen} == {2 * val % 1}
                else:
                    assert seen == {val}

