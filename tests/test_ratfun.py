import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from leopoldt.ratfun import (
    NotInPowerSeriesRingError,
    compose_inv,
    d_rat,
    is_one_plus_t_denominator,
    mu_gamma_formula,
    rat_add,
    rat_fp,
    rat_is_zero,
    rat_scale,
    rat_zp,
    series_fp,
    sym_poly_criterion,
    taylor_shift,
    to_ring_elem,
    u_rat,
)
from leopoldt.ring import invariants, op_derivative, op_isotypic, op_leopoldt, op_unit_part, substitute_exp
from conftest import poly_mul


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
        assert rat_is_zero(d_rat(c))
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
    assert rat_is_zero(u_rat(one))
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
    shape = draw(st.sampled_from(["random", "one_plus_t_power", "frobenius"]))
    if shape == "one_plus_t_power":
        den = [1]
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            den = _mul_mod_p(den, [1, 1], p)
    elif shape == "frobenius":
        # F(x) = A(x**p) / B(x**p) with x = 1+T lies in F_p(x**p): U(F) = 0
        num = taylor_shift(_spread_x(taylor_shift(num, -1, p), p), 1, p)
        den = taylor_shift(_spread_x(taylor_shift(den, -1, p), p), 1, p)
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
        assert rat_is_zero(u)


def test_u_cartier_edge_cases():
    for p in (3, 5, 7, 11, 13):
        zero = rat_fp([], [1], p)
        assert u_rat(zero) == zero == _u_by_derivative_loop(zero)
        for c in range(p):
            assert rat_is_zero(u_rat(rat_fp([c], [1], p)))
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


def test_one_plus_t_denominator_detection():
    f = rat_fp([1, 3], [1, 2, 1], 5)  # denominator (1+T)^2
    v = is_one_plus_t_denominator(f)
    assert v.holds and v.power >= 1
    g = rat_fp([1], [2, 1], 5)
    v = is_one_plus_t_denominator(g)
    assert not v.holds and v.witness == (2, 1)


def test_sym_combination_without_u(rng):
    # the plain symmetrized form (no U) feeds the same denominator test
    from leopoldt.ratfun import sym_combination
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


def test_mu_formula_branches(rng):
    p = 5
    # mu additivity: p * (unit series)
    f = rat_zp([5, 5], [1, 2], p)
    assert mu_gamma_formula(f, 1).mu == 1
    g = rat_zp([1, 1], [1, 2], p)
    assert mu_gamma_formula(g, 1).mu == 0
    assert mu_gamma_formula(g, 2).mu == 0  # even branch
    # agreement with the certified pipeline on random samples
    kappa = 6
    for _ in range(10):
        num = [Fraction(rng.randrange(-6, 7)) for _ in range(3)]
        den = [Fraction(1), Fraction(rng.randrange(-2, 3))]
        if all(x == 0 for x in num):
            num[0] = Fraction(1)
        f = rat_zp(num, den, p)
        for delta in (0, 1, 2, 3):
            try:
                res = mu_gamma_formula(f, delta)
            except ValueError:
                continue
            img = to_ring_elem(f, 4, 3)
            gam = op_leopoldt(op_isotypic(op_unit_part(img), -delta), delta, kappa)
            rep = invariants(gam)
            if rep.certified:
                assert res.mu == 0


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
    assert rat_is_zero(total)


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


def _mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out
