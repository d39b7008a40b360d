import pytest

from leopoldt.characters import (
    ThetaCharacter,
    build_validate,
    characters_mod,
    enumerate_even_theta,
    trivial_character,
)
from leopoldt import lfunc
from leopoldt.lfunc import (
    bounds,
    cyclotomic_poly,
    default_check_exponents,
    f_chi,
    f_chi_bar,
    g_c_bar,
    g_c_surrogate,
    interpolation_selfcheck,
    iwasawa_invariants,
    iwasawa_series,
    lambda_sum_cyclotomic,
    not_pseudorational_report,
    surrogate_h_poly,
    valid_multipliers,
)
from leopoldt.padic import is_odd_prime, kappa_exponent_table, teichmuller
from leopoldt.ring import (
    RingElem,
    invariants,
    invert_unit,
    op_isotypic,
    op_leopoldt,
    op_unit_part,
    ring_one,
    substitute_exp,
)
from conftest import series_fp


def test_f_chi_closed_form_chi4():
    chi4 = build_validate(4, {1: 1, 3: 4}, 5)
    f = f_chi(chi4, 3, 2)
    expect = RingElem(5, 3, 2, [1, 1]) * invert_unit(RingElem(5, 3, 2, [2, 2, 1]))
    assert f == expect
    assert f.coeffs[0] == pow(2, -1, 125)  # F(0) = -B_{1,chi} = 1/2


def test_f_chi_constant_term_is_minus_b1():
    from leopoldt.characters import bernoulli_chi
    for p, d, table in [(5, 4, {1: 1, 3: 4}), (5, 3, {1: 1, 2: 4}),
                        (7, 3, {1: 1, 2: 6})]:
        chi = build_validate(d, table, p)
        f = f_chi(chi, 3, 2)
        b1 = bernoulli_chi(chi, 1, 3)
        assert f.coeffs[0] == (-b1.value) % p**3


def test_f_chi_defining_relation():
    # F * (1 - (1+T)^d) equals the numerator sum, exactly in R(n, m)
    for p, d, table in [(5, 3, {1: 1, 2: 4}), (7, 4, {1: 1, 3: 6})]:
        chi = build_validate(d, table, p)
        n, m = 2, 2
        f = f_chi(chi, n, m)
        pn = p**n
        den = [0] * p**m
        den[0] = 1
        den[d % p**m] = (den[d % p**m] - 1) % pn
        lhs = f * RingElem.from_binomial(p, n, m, den)
        num = [0] * p**m
        from leopoldt.padic import is_odd_prime, teichmuller
        for a in range(1, d + 1):
            r = chi.residue(a)
            if r:
                num[a % p**m] = teichmuller(r, p, n).value
        assert lhs == RingElem.from_binomial(p, n, m, num)


def test_f_chi_conductor_above_ring_size():
    # d = 13 > p**(m+1) = 9: the numerator wraps x**Q - 1 more than once
    theta = next(t for t in enumerate_even_theta(3, 13) if t.chi.d == 13)
    rep = iwasawa_invariants(theta, check_precision=2)
    assert rep.certified
    assert rep.checks and all(c.ok for c in rep.checks)


def test_f_chi_u_identity():
    # U(F_chi) = F_chi - chi(p) sigma_p(F_chi)
    from leopoldt.padic import is_odd_prime, teichmuller
    for p, d, table in [(5, 4, {1: 1, 3: 4}), (5, 3, {1: 1, 2: 4})]:
        chi = build_validate(d, table, p)
        f = f_chi(chi, 2, 2)
        chi_p = teichmuller(chi.residue(p), p, 2).value
        rhs = f - substitute_exp(f, p).scale(chi_p)
        assert op_unit_part(f) == rhs


def test_f_chi_sigma_minus_one_symmetry():
    # sigma_{-1}(F_chi) = eps F_chi with eps = +1 for odd chi, -1 for even
    chi4 = build_validate(4, {1: 1, 3: 4}, 5)  # odd
    f = f_chi(chi4, 2, 2)
    assert substitute_exp(f, -1) == f
    chi5 = build_validate(5, {1: 1, 2: 10, 3: 10, 4: 1}, 11)  # even quadratic mod 5
    assert not chi5.is_odd()
    g = f_chi(chi5, 2, 1)
    assert substitute_exp(g, -1) == g.scale(-1)


def test_conductor_one_symmetry_on_rational_form():
    # F = -(1+T)/T satisfies F((1+T)^{-1} - 1) = -1 - F(T) over Q(T)
    from fractions import Fraction
    from leopoldt.ratfun import _padd, _pmul, _pscale, _psub
    mod = None  # exact over Q
    num = [Fraction(-1), Fraction(-1)]     # -(1+T)
    den = [Fraction(0), Fraction(1)]       # T
    # compose with iota fraction-free: deg 1 homogenization
    comp_num = _padd(mod, _pscale(mod, [1, 1], num[0]),
                     _pmul(mod, [Fraction(0), Fraction(-1)], [num[1]]))
    comp_den = _pmul(mod, [Fraction(0), Fraction(-1)], [den[1]])
    # -1 - F = (-den - num)/den
    tgt_num = _psub(mod, _pscale(mod, den, Fraction(-1)), num)
    assert _pmul(mod, comp_num, den) == _pmul(mod, tgt_num, comp_den)


def _h_by_division(c):
    # the defining quotient ((c-1) x**c - c x**(c-1) + 1) / (x-1)**2, by two
    # synthetic divisions by x - 1
    numer = [0] * (c + 1)
    numer[0] = 1
    numer[c - 1] = -c
    numer[c] += c - 1
    for _ in range(2):
        quot = [0] * (len(numer) - 1)
        carry = 0
        for i in range(len(numer) - 1, 0, -1):
            carry += numer[i]
            quot[i - 1] = carry
        assert carry + numer[0] == 0  # x = 1 is a root
        numer = quot
    while numer and numer[-1] == 0:
        numer.pop()
    return numer


def test_surrogate_h_poly_integral():
    for c in range(2, 40):
        h = surrogate_h_poly(c)
        assert h == _h_by_division(c)
        # (x-1)^2 h_c = (c-1) x^c - c x^{c-1} + 1 exactly
        back = [0] * (len(h) + 2)
        for i, x in enumerate(h):
            back[i] += x
            back[i + 1] -= 2 * x
            back[i + 2] += x
        expect = [0] * (c + 1)
        expect[0] = 1
        expect[c - 1] += -c
        expect[c] += c - 1
        assert back[:c + 1] == expect[:c + 1]


def test_g_c_closed_forms():
    p, n, m = 5, 3, 2
    g2 = g_c_surrogate(p, 2, n, m)
    assert g2 == ring_one(p, n, m) - invert_unit(RingElem(p, n, m, [2, 1]))
    g3 = g_c_surrogate(p, 3, n, m)
    expect = RingElem(p, n, m, [3, 5, 2]) * invert_unit(RingElem(p, n, m, [3, 3, 1]))
    assert g3 == expect


def test_valid_multipliers():
    assert valid_multipliers(5, 1)[0] == 2
    for p in (5, 7, 13):
        for delta in range(p - 1):
            if (delta + 1) % (p - 1) == 0:
                continue
            cs = valid_multipliers(p, delta)
            assert cs, (p, delta)
            assert all(pow(c, delta + 1, p) != 1 for c in cs)
    for p in (q for q in range(3, 160) if is_odd_prime(q)):
        for delta in range(-1, p):
            assert valid_multipliers(p, delta) == [
                c for c in range(2, p) if pow(c, delta + 1, p) != 1]


def test_multiplier_independence():
    theta = ThetaCharacter(trivial_character(5), 1)
    cs = valid_multipliers(5, 1)
    series = [iwasawa_series(theta, 3, 2, c=c) for c in cs[:3]]
    assert all(s == series[0] for s in series)
    with pytest.raises(ValueError):
        iwasawa_series(theta, 2, 1, c=[c for c in range(2, 5)
                                       if pow(c, 2, 5) == 1][0])


@pytest.mark.parametrize("p, d", [(3, 4), (5, 12), (7, 12), (11, 3), (13, 4)])
def test_series_coeffs_mod_p_agree_across_basis_changes(p, d):
    # read out at n = 2 by Pascal rows and at n = 1 by Lucas's theorem
    for theta in enumerate_even_theta(p, d):
        for m in range(4 if p == 3 else 3 if p < 11 else 2):
            pascal = iwasawa_series(theta, 2, m).coeffs
            assert tuple(c % p for c in pascal) == iwasawa_series(theta, 1, m).coeffs


def test_interpolation_p5_omega2():
    theta = ThetaCharacter(trivial_character(5), 1)
    f = iwasawa_series(theta, 3, 2)
    rep = invariants(f)
    assert (rep.mu_certified, rep.lambda_certified) == (0, 0)
    checks = interpolation_selfcheck(theta, [1, 5, 9], 3, f)
    assert all(c.ok for c in checks)


def test_interpolation_conductor4():
    chi4 = build_validate(4, {1: 1, 3: 4}, 5)
    for delta in (0, 2):
        theta = ThetaCharacter(chi4, delta)
        f = iwasawa_series(theta, 3, 2)
        ks = default_check_exponents(theta, 3)
        checks = interpolation_selfcheck(theta, ks, 3, f)
        assert all(c.ok for c in checks)


def test_interpolation_detects_corruption():
    theta = ThetaCharacter(trivial_character(5), 1)
    f = iwasawa_series(theta, 3, 2)
    bad = list(f.coeffs)
    bad[0] = (bad[0] + 1) % 125
    f_bad = RingElem(5, 3, 2, bad)
    checks = interpolation_selfcheck(theta, [1, 5], 3, f_bad)
    assert not all(c.ok for c in checks)


def test_iwasawa_invariants_p37():
    theta = ThetaCharacter(trivial_character(37), 31)  # omega^32
    rep = iwasawa_invariants(theta, check_precision=2)
    assert rep.certified
    assert (rep.invariants.mu_certified, rep.invariants.lambda_certified) == (0, 1)
    assert all(c.ok for c in rep.checks)
    assert rep.invariants.lambda_certified < rep.bound_new


def test_iwasawa_invariants_escalates_level():
    # theta = chi omega, chi the quadratic character of conductor 164 = 4 * 41:
    # level (2, 1) shows no unit coefficient, level (2, 2) certifies lambda = 3
    from leopoldt.characters import lp_value
    theta = ThetaCharacter(characters_mod(164, 3)[0], 0)
    rep = iwasawa_invariants(theta, check_precision=2)
    assert rep.certified and rep.invariants.level == (2, 2)
    assert (rep.invariants.mu_certified, rep.invariants.lambda_certified) == (0, 3)
    assert [c.k for c in rep.checks] == [2, 4] and all(c.ok for c in rep.checks)
    # an independent route to lambda >= 1: L_p(-k, theta) = 0 mod p at mu = 0
    assert all(lp_value(theta, k, 2).value % 3 == 0 for k in (2, 4))
    stuck = iwasawa_invariants(theta, m_max=1)
    assert stuck.invariants.verdict == "indeterminate"
    assert stuck.invariants.level == (2, 1)


def test_lambda_sum_p5():
    rep = lambda_sum_cyclotomic(5)
    assert rep.total == 0 and not rep.indeterminate


def test_bounds_known_values():
    b = bounds(5, 1)
    assert b == {"new": 4, "rosenberg": 6400, "field": 16}
    b7 = bounds(7, 1)
    assert b7["new"] == 3**2 and b7["rosenberg"] == 168**2
    assert bounds(5, 4)["new"] == (2 * 2) ** 2
    for p, d in [(5, 1), (7, 1), (13, 1), (5, 4), (7, 3)]:
        bb = bounds(p, d)
        assert bb["new"] < bb["rosenberg"]


def test_cyclotomic_poly():
    assert cyclotomic_poly(1) == [-1, 1]
    assert cyclotomic_poly(2) == [1, 1]
    assert cyclotomic_poly(4) == [1, 0, 1]
    assert cyclotomic_poly(3) == [1, 1, 1]
    assert cyclotomic_poly(6) == [1, -1, 1]


def test_not_pseudorational_reports():
    chi4 = build_validate(4, {1: 1, 3: 4}, 5)
    rep = not_pseudorational_report(chi4, 0)
    assert rep.denominator_matches
    assert not rep.criterion.holds
    assert rep.not_pseudorational
    # witness is not a power of 1+T and is divisible by Phi_4(1+T)
    assert rep.criterion.witness is not None
    _assert_divisible(rep.criterion.witness, rep.expected_denominator, 5)
    # d = 1 route through G_2
    triv = trivial_character(5)
    rep1 = not_pseudorational_report(triv, 1)
    assert rep1.denominator_matches and not rep1.criterion.holds
    _assert_divisible(rep1.criterion.witness, (2, 1), 5)


# the criterion workload's (p, d) classes, then conductor one (the G_2 route)
REPORT_CLASSES = ((13, 5), (13, 7), (17, 5), (19, 7), (23, 3), (29, 3),
                  (5, 1), (7, 1), (13, 1))


def test_report_cache_keyed_on_chi_and_parity():
    # a warm scan of every delta equals reports built from a cleared cache,
    # and one chi's scan computes one report per parity of delta
    parts = lfunc._report_parts
    for p, d in REPORT_CLASSES:
        for chi in characters_mod(d, p) if d > 1 else [trivial_character(p)]:
            cold = []
            for delta in range(p - 1):
                parts.cache_clear()
                cold.append(not_pseudorational_report(chi, delta))
            parts.cache_clear()
            warm = [not_pseudorational_report(chi, delta) for delta in range(p - 1)]
            assert warm == cold, chi
            assert parts.cache_info().misses == 2, chi


def _assert_divisible(poly, factor, p):
    from leopoldt.ratfun import _pdivmod
    q, r = _pdivmod(p, list(poly), list(factor))
    assert not r, (poly, factor)


def test_fbar_matches_series_of_ring_image():
    # the mod-p rational F_chi agrees coefficientwise with the ring image
    chi4 = build_validate(4, {1: 1, 3: 4}, 5)
    fbar = f_chi_bar(chi4)
    img = f_chi(chi4, 1, 2)
    assert list(img.coeffs) == series_fp(fbar, 25)
    g2 = g_c_bar(5, 2)
    img2 = g_c_surrogate(5, 2, 1, 2)
    assert list(img2.coeffs) == series_fp(g2, 25)


def test_iwasawa_series_rejects_oversized_ring():
    theta = ThetaCharacter(trivial_character(101), 1)
    with pytest.raises(ValueError):
        iwasawa_series(theta, 2, 3)


# -- the rational construction, a differential oracle for the closed forms ----
#
# The sources as rational functions of x = 1+T: a short numerator times the
# inverse of the geometric sum 1 + x + ... + x**(d-1), whose cyclic binomial
# view comes from an exact division by x**Q - 1.


def _geometric_inverse_view(p, n, m, d):
    # (x-1) * sum_{j<Q} x**(jd) is divisible by x**Q - 1 (Q = p**m), and
    # S_d times the quotient is sum_{i<d} x**(iQ) = d mod (x**Q - 1)
    q, pn = p**m, p**n
    deg = d * (q - 1) + 1
    work = [0] * (deg + 1)
    for j in range(q):
        work[j * d] -= 1
        work[j * d + 1] += 1
    quot = [0] * (deg - q + 1)
    for i in range(deg, q - 1, -1):
        if work[i]:
            quot[i - q] += work[i]
            work[i - q] += work[i]
            work[i] = 0
    assert not any(work)
    out = [0] * q
    for i, c in enumerate(quot):
        out[i % q] += c
    dinv = pow(d, -1, pn)
    return [x * dinv % pn for x in out]


def _mul_short_cyclic(view, short, pn):
    # cyclic product with a short x-polynomial, folded mod x**Q - 1 first
    q = len(view)
    out = [0] * q
    for i, c in enumerate(short):
        for a, v in enumerate(view):
            out[(a + i) % q] += c * v
    return [x % pn for x in out]


def _divide_out_x_minus_1(coeffs, pn):
    # the numerator vanishes at x = 1 mod pn, as chi is nontrivial
    quot = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 2, -1, -1):
        carry += coeffs[i + 1]
        quot[i] = carry
    assert (coeffs[0] + quot[0]) % pn == 0
    return quot


def rational_g_c(p, c, n, m):
    """x h_c(x) / S_c(x) in R(n, m)."""
    view = _mul_short_cyclic(_geometric_inverse_view(p, n, m, c),
                             [0] + surrogate_h_poly(c), p**n)
    return RingElem.from_binomial(p, n, m, view)


def rational_f_chi(chi, n, m):
    """(sum_{a<=d} chi(a) x**a) / (1 - x**d) = -(numerator / (x-1)) / S_d(x)."""
    p, d = chi.p, chi.d
    numer = [0] + [teichmuller(chi.residue(a), p, n).value if chi.residue(a) else 0
                   for a in range(1, d + 1)]
    short = [-x for x in _divide_out_x_minus_1(numer, p**n)]
    view = _mul_short_cyclic(_geometric_inverse_view(p, n, m, d), short, p**n)
    return RingElem.from_binomial(p, n, m, view)


def test_g_c_matches_rational_construction():
    cases = [(p, c, n, m) for p in (3, 5, 7, 11) for c in range(2, p)
             for n, m in ((2, 1), (3, 2))]
    cases += [(p, c, 2, m) for p in (13, 37, 59) for c in (2, 3, p - 1) for m in (1, 2)]
    for p, c, n, m in cases:
        assert g_c_surrogate(p, c, n, m) == rational_g_c(p, c, n, m), (p, c, n, m)


def test_f_chi_matches_rational_construction():
    # Q = p**m runs below and above the conductor d
    count = 0
    for p in (3, 5, 7, 11, 13):
        for d in range(3, 41):
            if d % p == 0:
                continue
            for chi in characters_mod(d, p):
                for n, m in ((2, 1), (2, 2), (3, 1)):
                    assert f_chi(chi, n, m) == rational_f_chi(chi, n, m), (chi, n, m)
                    count += 1
    assert count > 500


# -- the pipeline without U or sigma_{-1} -------------------------------------
#
# Gamma_delta kills the non-unit exponents, and gamma_{-delta} maps units to
# units and non-units to non-units, so Gamma_delta gamma_{-delta} U equals
# Gamma_delta gamma_{-delta}: iwasawa_series applies no U.  kappa**(-1)
# generates 1 + pZ_p as well, and sigma_{-1} Gamma_delta^kappa equals
# Gamma_delta^(kappa**(-1)): iwasawa_series applies no sigma_{-1}.  The
# route with U, kappa, a Newton inverse of the surrogate factor and
# sigma_{-1} is kept here as the reference.


def series_with_unit_part(theta, n, m, c=None):
    """source -> U -> gamma_{-delta} -> Gamma_delta^kappa -> * Newton inverse
    of 1 - beta (1+T)**e_c -> sigma_{-1}."""
    p, d, delta = theta.p, theta.chi.d, theta.delta
    kappa = 1 + p * d
    if d >= 2:
        src = f_chi(theta.chi, n, m + 1)
    else:
        c = valid_multipliers(p, delta)[0] if c is None else c
        src = g_c_surrogate(p, c, n, m + 1)
    h = op_leopoldt(op_isotypic(op_unit_part(src), -delta), delta, kappa)
    if d == 1:
        pn = p**n
        beta = c * pow(teichmuller(c, p, n).value, delta, pn) % pn
        factor = [0] * p**m
        factor[0] = 1
        factor[int(kappa_exponent_table(p, m + 1, kappa)[c])] -= beta
        h = h * invert_unit(RingElem.from_binomial(p, n, m, factor))
    return substitute_exp(h, -1)


# the (p, d) grid of the oracle benchmark workload
ORACLE_CONDUCTORS = ((7, 3), (7, 4), (7, 8), (11, 3), (13, 4))


def test_series_without_unit_part_matches_route_with_it():
    cases = [(theta, 2, 1, None) for p in range(3, 60) if is_odd_prime(p)
             for theta in enumerate_even_theta(p, 1)]
    assert len(cases) == sum((p - 3) // 2 for p in range(3, 60) if is_odd_prime(p))
    # deeper levels, and every valid multiplier c
    cases += [(theta, n, m, None) for theta in enumerate_even_theta(5, 1)
              for n, m in ((2, 2), (3, 3), (2, 4))]
    cases += [(theta, 3, 2, c) for p in (5, 7, 11) for theta in enumerate_even_theta(p, 1)
              for c in valid_multipliers(p, theta.delta)]
    # an object view, the exact fallback: 7**12 > 2**31
    cases += [(theta, 12, 2, None) for theta in enumerate_even_theta(7, 1)]
    oracle = [(theta, 3, 2, None) for p, d in ORACLE_CONDUCTORS
              for theta in enumerate_even_theta(p, d) if theta.chi.d >= 2]
    assert len(oracle) > 20
    for theta, n, m, c in cases + oracle:
        assert (iwasawa_series(theta, n, m, c).binomial
                == series_with_unit_part(theta, n, m, c).binomial), (theta, n, m, c)
