import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leopoldt.ratfun import (
    CriterionVerdict,
    NotInPowerSeriesRingError,
    RatFuncFp,
    _padd,
    _pdivmod,
    _pgcd_monic,
    _pmul,
    _pscale,
    _psub,
    _spread,
    _x_power_verdict,
    compose_inv,
    d_rat,
    mu_gamma_formula,
    rat_fp,
    rat_zp,
    sym_combination,
    sym_poly_criterion,
    taylor_shift,
    to_ring_elem,
    u_rat,
)
from leopoldt.ring import RingElem, invariants, invert_unit, op_derivative, op_isotypic, op_leopoldt, op_unit_part, substitute_exp
from conftest import poly_mul, series_fp


# -- T-basis references: fractions rebuilt from their coefficients in T ----


def _remake_t(f, num, den):
    return (rat_fp if isinstance(f, RatFuncFp) else rat_zp)(num, den, f.p)


def rat_add(f, g):
    mod = f.mod
    num = _padd(mod, _pmul(mod, list(f.num), list(g.den)), _pmul(mod, list(g.num), list(f.den)))
    den = _pmul(mod, list(f.den), list(g.den))
    return _remake_t(f, num, den)


def rat_scale(f, c):
    return _remake_t(f, _pscale(f.mod, list(f.num), c), list(f.den))


def d_rat_t(f):
    """D(F) = (1+T) F'(T), in T."""
    mod = f.mod
    num, den = list(f.num), list(f.den)
    dn = [i * c for i, c in enumerate(num)][1:]
    dd = [i * c for i, c in enumerate(den)][1:]
    top = _pmul(mod, [1, 1], _psub(mod, _pmul(mod, dn, den), _pmul(mod, num, dd)))
    return _remake_t(f, top, _pmul(mod, den, den))


def compose_inv_t(f):
    """F(-T/(1+T)) by fraction-free substitution in T: a degree-k polynomial
    P gives P(-T/(1+T)) * (1+T)**k exactly."""
    mod = f.mod
    deg = max(len(f.num), len(f.den)) - 1

    def subst(poly):
        acc = []
        power_num = [1]
        for c in poly:
            if c != 0:
                tail = power_num
                for _ in range(deg - (len(power_num) - 1)):
                    tail = _pmul(mod, tail, [1, 1])
                acc = _padd(mod, acc, _pscale(mod, tail, c))
            power_num = _pmul(mod, power_num, [0, -1])
        return acc

    return _remake_t(f, subst(list(f.num)), subst(list(f.den)))


def is_one_plus_t_denominator(f):
    """Is F of the shape polynomial / (1+T)**n (the rational pseudo-polynomials)?"""
    return _x_power_verdict(taylor_shift(f.den, -1, f.p), f.p)


def rand_fp(rng, p=5, dn=3, dd=3):
    num = [rng.randrange(p) for _ in range(dn + 1)]
    den = [1 + rng.randrange(p - 1)] + [rng.randrange(p) for _ in range(dd)]
    return rat_fp(num, den, p)


def test_normal_form_examples():
    # (T^2 - 1)/(T - 1) reduces to T + 1 over F_5
    f = rat_fp([-1, 0, 1], [-1, 1], 5)
    assert f == rat_fp([1, 1], [1], 5)
    g = rat_fp([1], [1, 1], 5)
    assert g.num == (1,) and g.den == (1, 1)
    # p-integral rational with unit content
    h = rat_zp([5, 1], [1], 5)
    assert h.num == (Fraction(5), Fraction(1))
    with pytest.raises(NotInPowerSeriesRingError):
        rat_fp([1], [0, 1], 5)
    with pytest.raises(NotInPowerSeriesRingError):
        rat_zp([1], [5, 1], 5)
    with pytest.raises(ValueError):
        rat_zp([Fraction(1, 5)], [1], 5)


def test_zp_keeps_p_integrality():
    # monic normalization would produce 1/p coefficients here
    f = rat_zp([5, 1], [1, 5], 5)
    assert f.den[0] == 1


def test_derivative_examples():
    for p in (5, 7):
        c = rat_fp([3], [1], p)
        assert not d_rat(c).num_x
    f = rat_fp([1], [1, -1], 5)
    assert d_rat(f) == rat_fp([1, 1], [1, -2, 1], 5)


def test_derivative_matches_ring_truncation(rng):
    p, m = 5, 2
    for _ in range(10):
        f = rand_fp(rng, p)
        img = to_ring_elem(rat_zp([int(c) for c in f.num],
                                  [int(c) for c in f.den], p), 1, m)
        lhs = op_derivative(img)
        rhs = to_ring_elem(rat_zp([int(c) for c in d_rat(f).num],
                                  [int(c) for c in d_rat(f).den], p), 1, m)
        assert lhs == rhs.reduce(n=lhs.n)


def test_unit_part_examples_and_truncation(rng):
    p = 5
    one = rat_fp([1], [1], p)
    assert not u_rat(one).num_x
    lt = rat_fp([1, 1], [1], p)
    assert u_rat(lt) == lt
    # series of U(F) matches the binomial-basis U of the truncation
    for _ in range(8):
        f = rand_fp(rng, p)
        m = 2
        img = to_ring_elem(rat_zp([int(c) for c in f.num],
                                  [int(c) for c in f.den], p), 1, m)
        got = op_unit_part(img).coeffs
        expect = series_fp(u_rat(f), p**m)
        assert list(got) == expect


def _u_by_derivative_loop(f):
    # the definition U = D**(p-1): the small-p oracle for the Cartier form
    for _ in range(f.p - 1):
        f = d_rat(f)
    return f


@st.composite
def small_p_ratfun(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13]))
    coeff = st.integers(min_value=0, max_value=p - 1)
    num = draw(st.lists(coeff, max_size=6))
    den = [draw(st.integers(min_value=1, max_value=p - 1))] + draw(st.lists(coeff, max_size=5))
    shape = draw(st.sampled_from(["random", "one_plus_t_power", "frobenius",
                                  "frobenius_plus_poly"]))
    if shape == "one_plus_t_power":
        den = [1]
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            den = _mul_mod_p(den, [1, 1], p)
    elif shape.startswith("frobenius"):
        # F(x) = A(x**p) / B(x**p) with x = 1+T lies in F_p(x**p): U(F) = 0
        num = taylor_shift(_spread_x(taylor_shift(num, -1, p), p), 1, p)
        den = taylor_shift(_spread_x(taylor_shift(den, -1, p), p), 1, p)
        if shape == "frobenius_plus_poly":
            # U(F) = U(P) is a polynomial, so the Cartier numerator holds more
            # of each factor of den than den(x**p) = den**p does
            poly = draw(st.lists(coeff, min_size=1, max_size=4))
            num = _add_mod_p(num, _mul_mod_p(poly, den, p), p)
    return rat_fp(num, den, p), shape


def _spread_x(a, p):
    out = [0] * (max(len(a) - 1, 0) * p + 1)
    for i, c in enumerate(a):
        out[i * p] = c
    return out


@settings(max_examples=150, deadline=None)
@given(small_p_ratfun())
def test_u_cartier_matches_derivative_loop(case):
    f, shape = case
    u = u_rat(f)
    assert u == _u_by_derivative_loop(f)
    if shape == "frobenius":
        assert not u.num_x
    if shape == "frobenius_plus_poly":
        assert u.den == (1,)


def test_u_cartier_edge_cases():
    for p in (3, 5, 7, 11, 13):
        zero = rat_fp([], [1], p)
        assert u_rat(zero) == zero == _u_by_derivative_loop(zero)
        for c in range(p):
            assert not u_rat(rat_fp([c], [1], p)).num_x
        # 1/(1+T)**k = x**(-k): U keeps it exactly when p does not divide k
        for k in range(1, 2 * p + 1):
            den = [1]
            for _ in range(k):
                den = _mul_mod_p(den, [1, 1], p)
            f = rat_fp([1], den, p)
            assert u_rat(f) == (rat_fp([], [1], p) if k % p == 0 else f)
            assert u_rat(f) == _u_by_derivative_loop(f)
    with pytest.raises(TypeError):
        u_rat(rat_zp([1], [1], 5))


def test_u_cartier_large_p_witness():
    # out of reach of the D**(p-1) loop: p = 101, the quadratic character
    # mod 3 (odd, so delta = 0 fails the criterion)
    from leopoldt.characters import enumerate_even_theta
    from leopoldt.lfunc import cyclotomic_poly, not_pseudorational_report
    p = 101
    chi = next(t.chi for t in enumerate_even_theta(p, 3) if t.chi.d == 3)
    rep = not_pseudorational_report(chi, 0)
    assert rep.not_pseudorational
    witness = rep.criterion.witness
    assert not is_one_plus_t_denominator(rat_fp([1], witness, p)).holds
    phi3 = taylor_shift(cyclotomic_poly(3), 1, p)
    assert rat_fp(witness, phi3, p).den == (1,)  # Phi_3(1+T) divides it


def test_compose_inv():
    p = 5
    t = rat_fp([0, 1], [1], p)
    assert compose_inv(t) == rat_fp([0, -1], [1, 1], p)
    rng = __import__("random").Random(7)
    for _ in range(15):
        f = rand_fp(rng, p)
        assert compose_inv(compose_inv(f)) == f
    # sigma_{-1} on mod-p ring truncations agrees with the rational composition
    for _ in range(5):
        f = rand_fp(rng, p)
        m = 2
        img = to_ring_elem(rat_zp([int(c) for c in f.num],
                                  [int(c) for c in f.den], p), 1, m)
        lhs = substitute_exp(img, -1)
        g = compose_inv(f)
        rhs = to_ring_elem(rat_zp([int(c) for c in g.num],
                                  [int(c) for c in g.den], p), 1, m)
        assert lhs == rhs


def test_criterion_controls():
    p = 5
    poly = rat_fp([1, 2, 3], [1], p)
    assert sym_poly_criterion(poly, 0).holds
    assert sym_poly_criterion(poly, 1).holds
    inv1t = rat_fp([1], [1, 1], p)
    assert sym_poly_criterion(inv1t, 1).holds
    # constant: combination is killed by U entirely
    cst = rat_fp([2], [1], p)
    v = sym_poly_criterion(cst, 0)
    assert v.holds and v.power == 0


def test_criterion_failure_reports_witness():
    # (1+T)/(2+2T+T^2) over F_5: denominator is Phi_4(1+T)
    f = rat_fp([1, 1], [2, 2, 1], 5)
    v = sym_poly_criterion(f, 0)
    assert not v.holds
    assert v.witness is not None and len(v.witness) > 1


def test_criterion_refuses_rational_coefficients():
    # U = D**(p-1) holds in characteristic p only: a RatFuncZp is refused
    # like u_rat refuses it, not by a TypeError from deep in the F_p kernel
    f = rat_zp([1, 2], [1, 1, 1], 5)
    for delta in (0, 1):
        with pytest.raises(TypeError, match="characteristic-p identity"):
            sym_poly_criterion(f, delta)
    with pytest.raises(TypeError, match="characteristic-p identity"):
        u_rat(f)


def test_one_plus_t_denominator_detection():
    f = rat_fp([1, 3], [1, 2, 1], 5)  # denominator (1+T)^2
    v = is_one_plus_t_denominator(f)
    assert v.holds and v.power >= 1
    g = rat_fp([1], [2, 1], 5)
    v = is_one_plus_t_denominator(g)
    assert not v.holds and v.witness == (2, 1)


def test_sym_combination_without_u(rng):
    # the plain symmetrized form (no U) feeds the same denominator test
    p = 5
    for _ in range(10):
        f = rand_fp(rng, p, dn=2, dd=0)
        for delta in (0, 1):
            v = is_one_plus_t_denominator(sym_combination(f, delta))
            assert v.holds
    bad = rat_fp([1, 1], [2, 2, 1], p)
    assert not is_one_plus_t_denominator(sym_combination(bad, 0)).holds


def test_criterion_product_is_polynomial(rng):
    # holds(n) means (1+T)^n * G is literally a polynomial: multiply back
    p = 5
    for _ in range(10):
        f = rand_fp(rng, p, dn=2, dd=0)  # polynomials
        delta = rng.randrange(4)
        v = sym_poly_criterion(f, delta)
        assert v.holds
        sign = -1 if delta % 2 else 1
        combo = rat_add(f, rat_scale(compose_inv(f), sign))
        g = u_rat(combo)
        one_plus_t_power = [math.comb(v.power, i) for i in range(v.power + 1)]
        shifted = rat_fp(poly_mul(list(g.num), one_plus_t_power), list(g.den), p)
        assert len(shifted.den) == 1  # denominator is constant: polynomial


def _u_rat_by_euclid(f):
    # U in the T-basis: the Cartier numerator over den(T**p), reduced by one
    # Euclidean gcd of degree p * deg(den)
    p = f.p
    a_x, b_x = taylor_shift(f.num, -1, p), taylor_shift(f.den, -1, p)
    top = _pmul(p, a_x, _pdivmod(p, _spread(b_x, p), b_x)[0])
    for i in range(0, len(top), p):
        top[i] = 0
    return rat_fp(taylor_shift(top, 1, p), _spread(list(f.den), p), p)


def _criterion_in_t(f, delta):
    # the criterion by T-basis composition: den(U(F + (-1)**delta F(iota)))
    # split as (1+T)**k * rest by repeated division
    p = f.p
    combo = rat_add(f, rat_scale(compose_inv_t(f), -1 if delta % 2 else 1))
    den, k = list(_u_rat_by_euclid(combo).den), 0
    while len(den) > 1 and not _pdivmod(p, den, [1, 1])[1]:
        den, k = _pdivmod(p, den, [1, 1])[0], k + 1
    if len(den) <= 1:
        return CriterionVerdict(True, k, None)
    return CriterionVerdict(False, None, tuple(den))


@st.composite
def criterion_inputs(draw):
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29]))
    coeff = st.integers(min_value=0, max_value=p - 1)
    num = draw(st.lists(coeff, max_size=5))
    den = [draw(st.integers(min_value=1, max_value=p - 1))] + draw(st.lists(coeff, max_size=2))
    shape = draw(st.sampled_from(["random", "repeated", "one_plus_t_power",
                                  "frobenius", "frobenius_plus_poly"]))
    if shape == "repeated":
        den = _mul_mod_p(den, den, p)
    elif shape == "one_plus_t_power":
        for _ in range(draw(st.integers(min_value=p, max_value=p + 3))):
            den = _mul_mod_p(den, [1, 1], p)
    elif p <= 13 and shape.startswith("frobenius"):
        # in F_p(x**p), U = 0; a polynomial on top leaves U(H) with a
        # denominator x**k only, so the Cartier numerator holds more of each
        # other factor of H's denominator than its p-th power does
        num = taylor_shift(_spread_x(taylor_shift(num[:2], -1, p), p), 1, p)
        den = taylor_shift(_spread_x(taylor_shift(den[:2], -1, p), p), 1, p)
        if shape == "frobenius_plus_poly":
            poly = draw(st.lists(coeff, min_size=1, max_size=3))
            num = _add_mod_p(num, _mul_mod_p(poly, den, p), p)
    return rat_fp(num, den, p), draw(st.integers(min_value=0, max_value=p - 2))


@settings(max_examples=200, deadline=None)
@given(criterion_inputs())
def test_criterion_matches_t_basis_route(case):
    f, delta = case
    for d in (delta, delta + 1):  # both parities
        assert sym_poly_criterion(f, d) == _criterion_in_t(f, d)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@st.composite
def x_and_t_cases(draw):
    exact = draw(st.booleans())
    p = draw(st.sampled_from([3, 5, 7, 11]))
    if exact:
        coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2]))
        unit = st.sampled_from([Fraction(1), Fraction(-1), Fraction(2), Fraction(-1, 2)])
    else:
        coeff = st.integers(min_value=0, max_value=p - 1)
        unit = st.integers(min_value=1, max_value=p - 1)
    num = draw(st.lists(coeff, max_size=5))
    den = [draw(unit)] + draw(st.lists(coeff, max_size=3))
    shape = draw(st.sampled_from(["random", "x_divides_den", "zero"]))
    if shape == "x_divides_den":
        den = poly_mul(den, [1, 1])  # (1+T) = x divides the denominator
    elif shape == "zero":
        num = []
    return (rat_zp if exact else rat_fp), num, den, p


@settings(max_examples=200, deadline=None)
@given(x_and_t_cases())
def test_x_storage_matches_t_basis_references(case):
    make, num, den, p = case
    f = _outcome(make, num, den, p)
    if isinstance(f, tuple):  # refused: a reduced den(0) that is not a unit
        assert f[0] is NotInPowerSeriesRingError
        return
    mod = f.mod
    # num/den read back in T: the canonical form of the input, and a round trip
    assert _pmul(mod, list(f.num), den) == _pmul(mod, _pscale(mod, num, 1), list(f.den))
    assert _pgcd_monic(mod, list(f.num), list(f.den)) == [1]
    assert f.den[-1 if isinstance(f, RatFuncFp) else 0] == 1
    assert make(f.num, f.den, p) == f
    assert _outcome(compose_inv, f) == _outcome(compose_inv_t, f)
    assert _outcome(d_rat, f) == _outcome(d_rat_t, f)
    for delta in (0, 1):
        sign = -1 if delta % 2 else 1
        assert _outcome(sym_combination, f, delta) == _outcome(
            lambda: rat_add(f, rat_scale(compose_inv_t(f), sign)))
    if isinstance(f, RatFuncFp):
        assert u_rat(f) == _u_rat_by_euclid(f)
    else:
        pn, m = p**3, 2

        def lift(c):
            return c.numerator * pow(c.denominator, -1, pn) % pn

        num_img = RingElem(p, 3, m, [lift(c) for c in f.num])
        den_img = RingElem(p, 3, m, [lift(c) for c in f.den])
        assert to_ring_elem(f, 3, m) == num_img * invert_unit(den_img)


def _assert_pipeline_mu(f, delta, mu):
    # criterion 7's check: Gamma_delta(F) in R(mu + 2, 3) is p**mu times an
    # element that certifies (mu = 0)
    p = f.p
    img = to_ring_elem(f, mu + 2, 3)
    gam = op_leopoldt(op_isotypic(op_unit_part(img), -delta), delta, 1 + p)
    assert all(c % p**mu == 0 for c in gam.coeffs), (f, delta, mu)
    reduced = RingElem(p, gam.n - mu, gam.m, [c // p**mu for c in gam.coeffs])
    assert invariants(reduced).certified, (f, delta, mu)


def test_mu_formula_exact_where_truncations_cancel():
    # F = 5x + x**2 - x**27, x = 1+T: truncations mod omega_1 cancel x**27
    # against x**2 and read a content of 1, but Gamma_delta(F) certifies mu = 0
    p = 5
    num = [5 * math.comb(1, i) + math.comb(2, i) - math.comb(27, i) for i in range(28)]
    f = rat_zp(num, [1], p)
    for delta in (1, 3):
        assert mu_gamma_formula(f, delta).mu == 0
    img = to_ring_elem(f, 4, 3)
    for delta in range(p - 1):
        rep = invariants(op_leopoldt(op_isotypic(op_unit_part(img), -delta), delta, 1 + p))
        assert rep.certified and (rep.mu_certified, rep.lambda_certified) == (0, 5)
    # to_ring_elem reduces mod omega_m: x**i lands in binomial slot i mod p**m
    g = rat_zp(num, [1, 2], p)
    for m in (0, 1, 2):
        assert to_ring_elem(g, 4, m) == to_ring_elem(g, 4, 3).reduce(m=m)


def test_mu_formula_branches(rng):
    p = 5
    # mu additivity: p * (unit series)
    f = rat_zp([5, 5], [1, 2], p)
    assert mu_gamma_formula(f, 1).mu == 1
    g = rat_zp([1, 1], [1, 2], p)
    assert mu_gamma_formula(g, 1).mu == 0
    assert mu_gamma_formula(g, 2).mu == 0  # even delta != 0
    # mu above the content of H: (H / p**c) mod p lies in F_p(x**p)
    for num, den, delta, mu in (([-1, 5, 5], [1], 0, 1), ([10, -25, 30], [1, 0, -2], 0, 2),
                                ([6, -4, -2], [1, 0, 1], 0, 1), ([4, 1, 3], [1, -1, 2], 2, 1)):
        f = rat_zp(num, den, p)
        assert mu_gamma_formula(f, delta).mu == mu
        _assert_pipeline_mu(f, delta, mu)
    # U(H) = 0: H = -6, and H = x**5 + x**-5 for F = x**5, both in Q(x**p)
    for num in ([-3], [math.comb(5, i) for i in range(6)]):
        with pytest.raises(ValueError, match="mu is infinite"):
            mu_gamma_formula(rat_zp(num, [1], p), 0)
    # agreement with the certified pipeline on random samples
    for p in (3, 5, 7):
        for _ in range(8):
            scale = p ** rng.randrange(3)
            num = [Fraction(rng.randrange(-6, 7) * scale) for _ in range(3)]
            den = [Fraction(1)] + [Fraction(rng.randrange(-2, 3)) for _ in range(2)]
            if all(x == 0 for x in num):
                num[0] = Fraction(scale)
            f = rat_zp(num, den, p)
            for delta in range(p - 1):
                try:
                    mu = mu_gamma_formula(f, delta).mu
                except ValueError as exc:
                    assert "mu is infinite" in str(exc)
                    continue
                _assert_pipeline_mu(f, delta, mu)


def test_sinnott_relation_spot():
    # hand-built relation: (x-1) - (x^2-1) + ((x-1)^2 + (x-1)) = 0 with
    # integer multipliers c in {1, 2}; all integers are rational multiples
    # of one another, so the grouped sum is the whole sum: a constant (zero).
    p = 5
    r1 = rat_fp([0, 1], [1], p)            # Y at c=1: (1+T)-1 = T
    r2 = rat_fp([0, -1], [1], p)           # -Y at c=2: -((1+T)^2-1)
    r3 = rat_fp([0, 1, 1], [1], p)         # Y^2+Y at c=1
    def sub_power(f, c):
        # F((1+T)^c - 1) for integer c: substitute exactly
        num = _subst_power(f.num, c, p)
        den = _subst_power(f.den, c, p)
        return rat_fp(num, den, p)
    total = rat_add(rat_add(sub_power(r1, 1), sub_power(r2, 2)), sub_power(r3, 1))
    assert not total.num_x


def _subst_power(coeffs, c, p):
    # T -> (1+T)^c - 1 on a polynomial over F_p
    base = [0] * (c + 1)
    for j in range(c + 1):
        b = 1
        for i in range(j):
            b = b * (c - i) // (i + 1)
        base[j] = b % p
    base[0] = 0  # (1+T)^c - 1
    out = [0]
    power = [1]
    for co in coeffs:
        if co:
            out = [(a + co * b) % p for a, b in
                   zip(out + [0] * (len(power) - len(out)), power)]
        power = _mul_mod_p(power, base, p)
    return out


def _add_mod_p(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = x
    for i, x in enumerate(b):
        out[i] = (out[i] + x) % p
    return out


def _mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out
