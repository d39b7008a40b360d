import contextlib
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from leopoldt.padic import NotAUnitError, PadicInt, PrecisionError, kappa_exponent, teichmuller
from leopoldt.ring import (
    ContextMismatchError,
    RingElem,
    _padd,
    _pdiv_exact,
    _pdivmod,
    _pgcd_monic,
    _pmul,
    _psub,
    _trim,
    _divide_binomial,
    decompose_t_power,
    evaluate,
    exponent_moment,
    ideal_zero,
    invariants,
    invert_unit,
    k_index,
    op_derivative,
    op_isotypic,
    op_leopoldt,
    op_unit_part,
    ring_one,
    ring_zero,
    substitute_exp,
    taylor_shift,
)
from conftest import (
    brute_force_from_binomial,
    omega_poly,
    poly_mul,
    random_elem,
    random_monomial_elem,
)


P, N, M = 5, 2, 2
KAPPA = 6


def monomial(p, n, m, degree, c=1):
    """c * T**degree."""
    coeffs = [0] * p**m
    coeffs[degree] = c
    return RingElem(p, n, m, coeffs)


def x_power(p, n, m, a, c=1):
    """c * (1+T)**a, exponent folded mod p**m, built from its binomial view."""
    b = [0] * p**m
    b[a % p**m] = c
    return RingElem.from_binomial(p, n, m, b)


def test_constructor_canonicalizes():
    f = RingElem(5, 2, 1, [26, -1])
    assert f.coeffs == (1, 24, 0, 0, 0)
    with pytest.raises(ValueError):
        RingElem(5, 2, 1, [0] * 6)


def test_basis_convert_examples():
    one = ring_one(P, N, M)
    assert one.binomial[0] == 1 and all(x == 0 for x in one.binomial[1:])
    t = monomial(P, N, M, 1)
    b = t.binomial
    assert b[0] == P**N - 1 and b[1] == 1 and all(x == 0 for x in b[2:])


def test_basis_roundtrip_random(rng):
    for _ in range(25):
        f = random_monomial_elem(rng, P, N, M)
        assert RingElem.from_binomial(P, N, M, f.binomial).coeffs == f.coeffs
        g = random_elem(rng, P, N, M)
        assert RingElem.from_binomial(P, N, M, g.binomial).coeffs == g.coeffs


def test_binomial_view_against_bruteforce(rng):
    for p, n, m in [(3, 2, 2), (5, 2, 1), (5, 3, 2), (7, 1, 2)]:
        for _ in range(5):
            q = p**m
            b = [rng.randrange(p**n) for _ in range(q)]
            f = RingElem.from_binomial(p, n, m, b)
            assert f.coeffs == brute_force_from_binomial(p, n, m, b)


def test_mul_examples():
    q = P**M
    a = x_power(P, N, M, q - 1)
    b = x_power(P, N, M, 1)
    assert a * b == ring_one(P, N, M)
    t = monomial(P, N, M, 1)
    s = RingElem.from_binomial(P, N, M, [1] * q)
    assert (t * s).is_zero()
    f = RingElem(P, N, M, [3, 1, 4])
    assert f * ring_one(P, N, M) == f
    with pytest.raises(ContextMismatchError):
        f * ring_one(P, N, M + 1)


def _schoolbook_cyclic(a, b, pn):
    q = len(a)
    out = [0] * q
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % q] += x * y
    return tuple(v % pn for v in out)


def test_mul_matches_bruteforce(rng):
    for _ in range(10):
        f = random_elem(rng, 5, 2, 2)
        g = random_elem(rng, 5, 2, 2)
        assert (f * g).binomial == _schoolbook_cyclic(f.binomial, g.binomial, 25)


def test_invert_unit():
    f = RingElem(P, N, M, [2, 1])
    g = invert_unit(f)
    assert f * g == ring_one(P, N, M)
    with pytest.raises(NotAUnitError):
        invert_unit(monomial(P, N, M, 1))
    # sum of d powers of 1+T has constant term d
    d = 3
    s = RingElem.from_binomial(P, N, M, [1] * d + [0] * (P**M - d))
    assert s * invert_unit(s) == ring_one(P, N, M)


@st.composite
def _binomial_divisions(draw):
    """(f, beta, e) for f / (1 - beta (1+T)**e): e = 0, p | e, e = Q - 1 and
    any e, on int64 views up to p**n near 2**31 and on tuple views."""
    p, n, m = draw(st.sampled_from(
        [(5, 2, 2), (3, 4, 3), (7, 3, 1), (5, 3, 0), (7, 11, 2), (3, 25, 2)]))
    q, pn = p**m, p**n
    e = draw(st.one_of(st.just(0), st.just(q - 1), st.integers(-q, q).map(lambda k: k * p),
                       st.integers(-q, 2 * q)))
    beta = draw(st.integers(0, pn - 1).filter(lambda b: b % p not in (0, 1)))
    view = draw(st.lists(st.one_of(st.just(pn - 1), st.integers(0, pn - 1)),
                         min_size=q, max_size=q))
    return RingElem.from_binomial(p, n, m, view), beta, e


@settings(max_examples=80, deadline=None)
@given(_binomial_divisions())
@example((RingElem.from_binomial(7, 11, 2, [7**11 - 1] * 49), 7**11 - 2, 1))
def test_divide_binomial_matches_newton(case):
    # the explicit example sums 49 products near 7**22 > 2**61 along one orbit
    f, beta, e = case
    p, n, m = f.p, f.n, f.m
    b = [0] * p**m
    b[0] = 1
    b[e % p**m] -= beta
    divisor = RingElem.from_binomial(p, n, m, b)
    assert _divide_binomial(f, beta, e) == f * invert_unit(divisor)


def test_divide_binomial_refuses_non_units():
    f = RingElem(P, N, M, [1, 2, 3])
    for beta in (0, P, 1, 1 + P):  # beta or 1 - beta divisible by p
        with pytest.raises(NotAUnitError):
            _divide_binomial(f, beta, 1)


def test_substitute_exp():
    f = x_power(P, N, M, 2)
    assert substitute_exp(f, -1) == x_power(P, N, M, P**M - 2)
    g = RingElem(P, N, M, [1, 2, 3, 4])
    assert substitute_exp(g, 1) == g
    assert substitute_exp(substitute_exp(g, 2), 3) == substitute_exp(g, 6)
    with pytest.raises(PrecisionError):
        substitute_exp(g, PadicInt(P, 1, 2))


def test_derivative():
    # D(T) = 1 + T
    t = monomial(P, N, M, 1)
    dt = op_derivative(t)
    assert dt == x_power(P, min(N, M), M, 1)
    # D((1+T)^a) = a (1+T)^a
    for a in (0, 1, 7, 24):
        f = x_power(P, N, M, a)
        assert op_derivative(f) == x_power(P, min(N, M), M, a, a)
    assert op_derivative(t).n == min(N, M)


def test_unit_part():
    assert op_unit_part(ring_one(P, N, M)).is_zero()
    lt = x_power(P, N, M, 1)
    assert op_unit_part(lt) == lt
    f = x_power(P, N, M, P)
    assert op_unit_part(f).is_zero()


def test_gamma_example_p5():
    f = x_power(5, 1, 1, 1)
    g = op_isotypic(f, 0)
    inv4 = pow(4, -1, 5)
    assert list(g.binomial) == [0] + [inv4] * 4


def _isotypic_reference(b, p, n, m, delta):
    # the scatter definition, with Teichmuller lifts omega(r) = r**(p**(k-1))
    q, pn = p**m, p**n
    out = [0] * q
    for r in range(1, p):
        coef = pow(pow(r, p ** (n - 1), pn), delta, pn)
        mult = pow(r, p ** (m - 1), q)
        for a, ba in enumerate(b):
            out[mult * a % q] += coef * ba
    inv = pow(p - 1, -1, pn)
    return tuple(x * inv % pn for x in out)


def test_numpy_and_python_paths_agree(rng):
    # the orbit sums of the int64 view against the scatter definition
    p, n, m = 5, 2, 3
    for _ in range(5):
        f = random_elem(rng, p, n, m)
        for delta in (0, 1, 3):
            assert op_isotypic(f, delta).binomial == _isotypic_reference(
                f.binomial, p, n, m, delta)


def test_leopoldt_transform_examples():
    p, n, m = 5, 3, 3
    assert op_leopoldt(ring_one(p, n, m), 2, KAPPA).is_zero()
    f = x_power(p, n, m, KAPPA)
    assert op_leopoldt(f, 0, KAPPA) == x_power(p, n, m - 1, 1)
    with pytest.raises(ValueError):
        op_leopoldt(ring_one(p, n, 0), 0, KAPPA)


def test_leopoldt_needs_generator():
    from leopoldt.padic import NotAGeneratorError
    with pytest.raises(NotAGeneratorError):
        op_leopoldt(ring_one(5, 2, 2), 0, 26)


def test_ideal_zero():
    p, n, m = 5, 2, 2
    w1 = RingElem(p, n, m, [c % p**n for c in omega_poly(p, 1)])
    assert ideal_zero(w1, 1, 1)
    assert ideal_zero(w1, 2, 1)
    assert not ideal_zero(w1, 1, 2)
    f = ring_one(p, n, m).scale(p)
    assert ideal_zero(f, 1, 2)
    assert not ideal_zero(f, 2, 2)
    # sum of distinct binomial powers with a unit coefficient
    g = RingElem.from_binomial(p, n, m, [0, 3, 0, 1] + [0] * 21)
    assert not ideal_zero(g, 1, 1)


def test_invariants_certification():
    r = invariants(RingElem(5, 2, 1, [5, 1]))
    assert (r.mu_certified, r.lambda_certified, r.verdict) == (0, 1, "certified")
    r = invariants(RingElem(5, 2, 1, [0, 5, 0, 1]))
    assert r.lambda_certified == 3
    # p and p + omega_m are congruent mod (p^2, omega_m): no certification
    r = invariants(RingElem(5, 2, 2, [5]))
    assert r.verdict == "indeterminate"
    assert r.mu_certified is None


def test_evaluate():
    p, n, m = 5, 3, 2
    t = PadicInt(p, 3, 10)
    f = monomial(p, n, m, 1)
    assert evaluate(f, t).value == 10
    # (1+T)^a at kappa^s - 1 equals kappa^(a s)
    for a, s in [(3, 1), (7, 2)]:
        f = x_power(p, n, m, a)
        ks = PadicInt(p, 3, pow(KAPPA, s, 125) - 1)
        assert evaluate(f, ks).value == pow(KAPPA, a * s, 125)
    # omega_j vanishes to order j+1 on pZ_p; result precision is min(n, m+1)
    w = RingElem(p, n, m, [c % 125 for c in omega_poly(p, 1)])
    val = evaluate(w, t)
    assert val.value % 5**2 == 0
    assert val.precision == min(n, m + 1)
    with pytest.raises(ValueError):
        evaluate(f, PadicInt(p, 3, 2))


def test_exponent_moment():
    p, n, m = 5, 3, 3
    f = x_power(p, n, m, 7)
    out_mod = p ** min(n, m)
    for k in (0, 1, 5):
        assert exponent_moment(f, k).value == pow(7, k, out_mod)
    g = RingElem.from_binomial(p, n, m, [0, 2, 0, 4] + [0] * (p**m - 4))
    assert exponent_moment(g, 3).value == (2 * 1 + 4 * 27) % out_mod
    assert exponent_moment(g, 0).value == g.coeffs[0] % out_mod


def test_k_index_properties():
    s = PadicInt(5, 4, 0)
    assert k_index(s, 0, 0) == 20
    for sv in (0, 3, 77, 124):
        for delta in range(4):
            s = PadicInt(5, 4, sv)
            ks = [k_index(s, delta, j) for j in range(3)]
            assert ks[0] < ks[1] < ks[2]
            for j, k in enumerate(ks):
                assert k % 4 == delta % 4
                assert k % 5 ** (j + 1) == sv % 5 ** (j + 1)


def test_interpolation_congruence(rng):
    # evaluate(Gamma_delta(F), kappa^s - 1) = moment(F, k_index) mod p^(j+1)
    p, n, m = 5, 3, 3
    for _ in range(10):
        f = random_elem(rng, p, n, m)
        for delta in range(p - 1):
            g = op_leopoldt(f, delta, KAPPA)
            for sv in (0, 2, 13):
                for j in range(min(n, m) - 1):
                    s = PadicInt(p, n, sv)
                    t = PadicInt(p, n, pow(KAPPA, sv, p**n) - 1)
                    lhs = evaluate(g, t).value
                    rhs = exponent_moment(f, k_index(s, delta, j)).value
                    assert (lhs - rhs) % p ** (j + 1) == 0


def test_change_kappa_identity_and_invariants(rng):
    # rebasing Gamma_delta from kappa to kappa2 is sigma_u with
    # u = Log_p(kappa)/Log_p(kappa2), which keeps the Weierstrass data
    p, n, m = 5, 3, 3
    kappa2 = 11

    def rebase(f, kappa, kappa2):
        u = kappa_exponent(PadicInt(p, m + 1, kappa), PadicInt(p, m + 1, kappa2), m)
        return substitute_exp(f, u)

    for _ in range(8):
        f = random_elem(rng, p, n, m)
        for delta in (0, 1, 2):
            lhs = op_leopoldt(f, delta, kappa2)
            rhs = rebase(op_leopoldt(f, delta, KAPPA), KAPPA, kappa2)
            assert lhs == rhs
    for _ in range(10):
        f = random_elem(rng, p, n, m)
        g = rebase(f, KAPPA, kappa2)
        a, b = invariants(f), invariants(g)
        assert a.verdict == b.verdict
        if a.certified:
            assert (a.mu_certified, a.lambda_certified) == (b.mu_certified, b.lambda_certified)
    assert rebase(f, KAPPA, KAPPA) == f


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=24), min_size=25, max_size=25))
def test_unit_projector_idempotent_and_decomposition(b):
    f = RingElem.from_binomial(5, 2, 2, b)
    u = op_unit_part(f)
    assert op_unit_part(u) == u
    parts = [op_isotypic(f, d) for d in range(4)]
    total = parts[0]
    for g in parts[1:]:
        total = total + g
    assert total == f


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=24), min_size=25, max_size=25),
       st.integers(min_value=1, max_value=24))
def test_substitution_action_is_multiplicative(b, a):
    f = RingElem.from_binomial(5, 2, 2, b)
    assert substitute_exp(substitute_exp(f, a), 7) == substitute_exp(f, 7 * a)


def test_operator_ideal_stability(rng):
    # multiples of omega_j stay multiples under gamma and U; the derivative
    # lands in (p^j, omega_j)
    p, n, m = 5, 3, 3
    for j in (1, 2):
        w = RingElem(p, n, m, [c % p**n for c in omega_poly(p, j)])
        for _ in range(8):
            f = w * random_elem(rng, p, n, m)
            assert ideal_zero(f, n, j)
            assert ideal_zero(op_unit_part(f), n, j)
            for delta in (0, 1, 3):
                assert ideal_zero(op_isotypic(f, delta), n, j)
            df = op_derivative(f)
            assert ideal_zero(df, min(df.n, j), j)


def test_threshold_relation(rng):
    # lambda(Gamma_delta F) >= p^(N-1) iff lambda(gamma_{-delta} U F) >= p^N,
    # read through ideal membership at (p, omega_*), and the certification
    # verdicts of the two sides agree
    p, n, m = 5, 2, 3
    for i in range(30):
        f = random_elem(rng, p, n, m)
        if i % 3 == 0:
            f = monomial(p, n, m, 1) * f  # force lambda >= 1
        for delta in (0, 1, 3):
            gam = op_leopoldt(f, delta, KAPPA)
            gu = op_isotypic(op_unit_part(f), -delta)
            for level in range(1, m + 1):
                assert ideal_zero(gam, 1, level - 1) == ideal_zero(gu, 1, level)
            a, b = invariants(gam), invariants(gu)
            assert a.certified == b.certified
            if a.certified:
                assert a.mu_certified == b.mu_certified == 0


def test_decompose_t_power_small():
    # T^(p^j) = sum omega_i p^l delta_l, verified over Z inside the function
    for p in (3, 5):
        for j in (0, 1, 2):
            deltas = decompose_t_power(j, p)
            assert len(deltas) == j + 1
    assert decompose_t_power(0, 3) == [[1]]


def test_reduce_images():
    f = RingElem(5, 3, 2, list(range(25)))
    g = f.reduce(n=2, m=1)
    assert (g.n, g.m) == (2, 1)
    folded = [0] * 5
    for a, ba in enumerate(f.binomial):
        folded[a % 5] = (folded[a % 5] + ba) % 25
    assert list(g.binomial) == folded


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_storage_differential(data):
    # the stored binomial view against monomial input, the brute-force basis
    # change and a monomial Horner evaluation kept only here
    p = data.draw(st.sampled_from((3, 5, 7)))
    n = data.draw(st.integers(min_value=1, max_value=3))
    m = data.draw(st.integers(min_value=0, max_value=2))
    q, pn = p**m, p**n
    digits = st.integers(min_value=0, max_value=pn - 1)
    c = data.draw(st.lists(digits, max_size=q))
    f = RingElem(p, n, m, c)
    assert f.coeffs == tuple(c) + (0,) * (q - len(c))
    b = data.draw(st.lists(digits, min_size=q, max_size=q))
    g = RingElem.from_binomial(p, n, m, b)
    mono = brute_force_from_binomial(p, n, m, b)
    h = RingElem(p, n, m, mono)
    assert g == h and hash(g) == hash(h)
    assert g.coeffs == mono
    assert (f == g) == (f.coeffs == mono)
    t = p * data.draw(st.integers(min_value=0, max_value=pn - 1))
    out_prec = min(n, m + 1)
    for elem, coeffs in ((f, f.coeffs), (g, mono)):
        acc = 0
        for x in reversed(coeffs):
            acc = (acc * t + x) % pn
        val = evaluate(elem, PadicInt(p, n, t))
        assert val.precision == out_prec
        assert val.value == acc % p**out_prec


def _near_top(rng, pn, q):
    return [pn - 1 - rng.randrange(3) for _ in range(q)]


@contextlib.contextmanager
def _guard_verdicts():
    # every answer of ring's one int64 sum guard, in call order
    import leopoldt.ring as ring

    real, seen = ring._fits_int64, []

    def spy(k, q):
        seen.append(real(k, q))
        return seen[-1]

    with mock.patch.object(ring, "_fits_int64", spy):
        yield seen


@pytest.mark.parametrize("p, m", [(3, 4), (5, 3)])
def test_mul_int64_boundary(rng, p, m):
    # each folded output of * sums exactly q products, so its int64 path runs
    # while q*(p**n - 1)**2 < 2**63: compare it at the last p**n it admits,
    # and the exact (object array) path at the first one it refuses; both
    # views are int64 (p**n < 2**31)
    q = p**m
    n = 1
    while q * (p ** (n + 1) - 1) ** 2 < 2**63:
        n += 1
    assert p ** (n + 1) < 2**31
    for n2, fast in ((n, True), (n + 1, False)):
        pn = p**n2
        cases = [([pn - 1] * q, [pn - 1] * q)]
        cases += [(_near_top(rng, pn, q), [rng.randrange(pn) for _ in range(q)])
                  for _ in range(3)]
        for a, b in cases:
            f, g = RingElem.from_binomial(p, n2, m, a), RingElem.from_binomial(p, n2, m, b)
            with _guard_verdicts() as seen, \
                    mock.patch.object(np, "convolve", wraps=np.convolve) as conv:
                got = f * g
            assert got.binomial == _schoolbook_cyclic(a, b, pn)
            assert seen == [fast]
            assert conv.call_args.args[0].dtype == (np.int64 if fast else object)


@pytest.mark.parametrize("p, n, m", [(3, 19, 4), (7, 11, 3)])
def test_isotypic_int64_boundary(rng, p, n, m):
    # p**n just below 2**31 (numpy path) and the next power (exact path);
    # at p = 7, delta = 1 the int64 sum overflows without its reductions
    q = p**m
    assert p**n < 2**31 < p ** (n + 1)
    for n2 in (n, n + 1):
        pn = p**n2
        b = _near_top(rng, pn, q)
        f = RingElem.from_binomial(p, n2, m, b)
        for delta in (0, 1, p - 2):
            assert op_isotypic(f, delta).binomial == _isotypic_reference(b, p, n2, m, delta)


def _gamma_orbit_reference(b, p, n, m, delta):
    # gamma_delta in Python ints over the orbit {omega(t) x} of each exponent:
    # out at x averages omega(t)**delta b at omega(t)**(-1) x over t in 1..p-1
    q, pn = p**m, p**n
    tw = [pow(pow(r, p ** (n - 1), pn), delta, pn) for r in range(p)]
    inv_lift = [0] + [pow(pow(t, -1, p), p ** (m - 1), q) for t in range(1, p)]
    inv = pow(p - 1, -1, pn)
    out = [b[0] if delta == 0 else 0]
    out += [inv * sum(tw[t] * b[inv_lift[t] * x % q] for t in range(1, p)) % pn
            for x in range(1, q)]
    return tuple(out)


def _leopoldt_orbit_reference(b, p, n, m, delta, kappa):
    # Gamma_delta in Python ints: out at e sums omega(r)**delta b at the units
    # omega(r) kappa**e, r in 1..p-1
    q, pn = p**m, p**n
    tw = [pow(pow(r, p ** (n - 1), pn), delta, pn) for r in range(p)]
    lift = [pow(r, p ** (m - 1), q) for r in range(p)]
    return tuple(sum(tw[r] * b[lift[r] * pow(kappa, e, q) % q] for r in range(1, p)) % pn
                 for e in range(q // p))


# gamma and Gamma sum p-1 twisted products per output entry: in int64 while
# (p-1)(p**n - 1)**2 < 2**63, in exact ints past it.  (13, 8) is the closest
# point below, (19, 7) lies between 2**63 and 2**64, and (7, 12) has an
# object view.
@pytest.mark.parametrize("p, n, m, exact", [
    (3, 19, 4, False), (5, 13, 3, False), (13, 8, 2, False),
    (7, 11, 2, True), (19, 7, 2, True), (7, 12, 2, True)])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_twisted_orbit_sums_at_int64_guard(p, n, m, exact, data):
    q, pn = p**m, p**n
    assert ((p - 1) * (pn - 1) ** 2 >= 2**63) == exact
    near_top = st.integers(min_value=pn - 3, max_value=pn - 1)
    entry = data.draw(st.sampled_from((near_top, st.integers(0, pn - 1))))
    b = data.draw(st.lists(entry, min_size=q, max_size=q))
    f = RingElem.from_binomial(p, n, m, b)
    with _guard_verdicts() as seen:
        for delta in range(p - 1):
            assert op_isotypic(f, delta).binomial == _gamma_orbit_reference(b, p, n, m, delta)
            for kappa in (1 + p, 1 + 2 * p):
                assert op_leopoldt(f, delta, kappa).binomial == _leopoldt_orbit_reference(
                    b, p, n, m, delta, kappa)
    assert seen and set(seen) == {not exact}


# -- storage: the int64 view against plain loops, and the exact fallback ----

# n with p**n just below 2**31: the int64 view; n + 1 takes the exact path
_BELOW_2_31 = {3: 19, 5: 13, 7: 11}


def _leopoldt_reference(b, p, n, m, delta, kappa):
    # Gamma_delta unit by unit, with exponents from the logarithm series
    pn = p**n
    out = [0] * p ** (m - 1)
    for a, ba in enumerate(b):
        if a % p:
            e = 0 if m == 1 else kappa_exponent(
                PadicInt(p, m, a), PadicInt(p, m, kappa), m - 1).value
            out[e] += ba * pow(teichmuller(a, p, n).value, delta, pn)
    return tuple(x % pn for x in out)


def _fold(b, q2):
    out = [0] * q2
    for a, ba in enumerate(b):
        out[a % q2] += ba
    return out


@st.composite
def _view_cases(draw):
    p = draw(st.sampled_from((3, 5, 7)))
    top = _BELOW_2_31[p]
    n = draw(st.sampled_from((1, 2, top, top, top + 1)))
    m = draw(st.integers(min_value=0, max_value={3: 4, 5: 3, 7: 2}[p]))
    q, pn = p**m, p**n
    # entries near p**n - 1 drive every int64 sum to its bound
    near_top = st.integers(min_value=max(0, pn - 3), max_value=pn - 1)
    entry = draw(st.sampled_from(
        (near_top, st.one_of(st.integers(min_value=0, max_value=pn - 1), near_top))))
    b = draw(st.lists(entry, min_size=q, max_size=q))
    c = draw(st.lists(entry, min_size=q, max_size=q))
    s = draw(st.integers(min_value=0, max_value=q))
    n2 = draw(st.integers(min_value=1, max_value=n))
    m2 = draw(st.integers(min_value=0, max_value=m))
    return p, n, m, b, c, s, n2, m2


@pytest.mark.parametrize("n", [39, 40])  # 3**39 < 2**63 < 3**40
def test_numpy_scalar_coefficients_match_python_ints(n):
    # numpy scalars are reduced as Python ints: c % 3**40 on an int64 overflows
    ints = [5, -7]
    scalars = [np.int64(c) for c in ints]
    assert RingElem(3, n, 1, scalars) == RingElem(3, n, 1, ints)
    assert RingElem(3, n, 2, scalars).coeffs == RingElem(3, n, 2, ints).coeffs
    assert taylor_shift(scalars, 1, 3, n) == taylor_shift(ints, 1, 3, n)


# saturated entries at p = 7 just below 2**31: the int64 orbit sums of gamma
# overflow unless every twisted product is reduced first
@settings(max_examples=100, deadline=None)
@given(_view_cases())
@example((7, 11, 2, [7**11 - 1] * 49, [7**11 - 2] * 49, 3, 11, 1))
def test_int64_view_differential(case):
    p, n, m, b, c, s, n2, m2 = case
    q, pn = p**m, p**n
    f = RingElem.from_binomial(p, n, m, b)
    g = RingElem.from_binomial(p, n, m, c)
    assert f._bin.dtype == (np.int64 if pn < 2**31 else object)
    assert not f._bin.flags.writeable
    assert (f * g).binomial == _schoolbook_cyclic(b, c, pn)
    assert op_unit_part(f).binomial == tuple(0 if a % p == 0 else x for a, x in enumerate(b))
    for delta in range(p - 1):
        if m == 0:
            assert op_isotypic(f, delta).binomial == (b[0] if delta == 0 else 0,)
        else:
            assert op_isotypic(f, delta).binomial == _isotypic_reference(b, p, n, m, delta)
            assert op_leopoldt(f, delta, 1 + p).binomial == _leopoldt_reference(
                b, p, n, m, delta, 1 + p)
    image = [0] * q
    for a, ba in enumerate(b):
        image[s * a % q] += ba
    assert substitute_exp(f, s).binomial == tuple(x % pn for x in image)
    pd = p ** (min(n, m) if m else 1)
    assert op_derivative(f).binomial == tuple(a * ba % pd for a, ba in enumerate(b))
    folded = _fold(b, p**m2)
    assert f.reduce(n2, m2).binomial == tuple(x % p**n2 for x in folded)
    assert ideal_zero(f, n2, m2) == all(x % p**n2 == 0 for x in folded)
    shifted = [0] * q
    shifted[p**m2 % q] = 1
    shifted[0] -= 1
    member = g * RingElem.from_binomial(p, n, m, shifted) + f.scale(p**n2)
    assert ideal_zero(member, n2, m2)
    first = next((i for i, x in enumerate(f.coeffs) if x % p), None)
    assert invariants(f).lambda_certified == first


@pytest.mark.parametrize("p, n, m", [(5, 2, 2), (3, 19, 3), (3, 20, 3), (7, 12, 1)])
def test_views_agree_across_constructors(rng, p, n, m):
    # p**n on both sides of 2**31: every input form gives the same read-only
    # view, int64 or Python ints (never numpy scalars in an object view)
    pn = p**n
    dtype = np.int64 if pn < 2**31 else object
    big = pn * (2**64 // pn + 1)  # a multiple of p**n above 2**64
    for _ in range(5):
        f = random_monomial_elem(rng, p, n, m)
        b = f.binomial
        assert all(type(x) is int for x in b)
        same = (RingElem.from_binomial(p, n, m, list(b)),
                RingElem.from_binomial(p, n, m, np.array(b, dtype=np.int64)),
                RingElem.from_binomial(p, n, m, np.array(b, dtype=object)),
                RingElem.from_binomial(p, n, m, [np.int64(x) for x in b]),
                RingElem.from_binomial(p, n, m, np.array([np.int64(x) for x in b],
                                                         dtype=object)),
                RingElem.from_binomial(p, n, m, [x - pn for x in b]),
                RingElem.from_binomial(p, n, m, [x + big for x in b]),
                RingElem.from_binomial(p, n, m, np.array([x - big for x in b], dtype=object)))
        for g in (f,) + same:
            assert g._bin.dtype == dtype and not g._bin.flags.writeable
            if dtype is object:
                assert all(type(x) is int for x in g._bin)
            assert all(type(x) is int for x in g.binomial)
            assert g.binomial == b
            assert g == f and hash(g) == hash(f)
        assert f != f + ring_one(p, n, m)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_invariants_lucas_matches_coeffs(rng, p):
    # the first unit coefficient sits behind p-divisible ones at a random
    # index, so that a wrong digit order in the mod-p basis change shows
    for m in range(4):
        q = p**m
        for n in (1, 2, _BELOW_2_31[p] + 1):
            pn = p**n
            elems = [ring_zero(p, n, m), random_elem(rng, p, n, m)]
            for _ in range(4):
                lead = rng.randrange(q + 1)
                c = [p * rng.randrange(pn) for _ in range(lead)]
                if lead < q:
                    c.append(rng.randrange(1, p) + p * rng.randrange(pn))
                    c += [rng.randrange(pn) for _ in range(q - lead - 1)]
                elems.append(RingElem(p, n, m, c))
            for f in elems:
                first = next((i for i, x in enumerate(f.coeffs) if x % p), None)
                rep = invariants(f)
                assert rep.lambda_certified == first
                assert rep.certified == (first is not None)


# -- dense polynomials against the quadratic originals ------------------------
#
# The Pascal-row basis changes and the field helpers that dispatched every
# coefficient operation through a method of the field, which the shared
# helpers replaced; kept here as references.


def _binomial_to_coeffs(b, pn):
    q = len(b)
    length = max((a + 1 for a, ba in enumerate(b) if ba), default=0)
    out = [0] * q
    row = [0] * length  # binomial coefficients C(a, k) for current a
    for a in range(length):
        if a == 0:
            row[0] = 1
        else:
            for k in range(a, 0, -1):
                row[k] = (row[k] + row[k - 1]) % pn
        ba = b[a]
        if ba:
            for k in range(a + 1):
                out[k] = (out[k] + ba * row[k]) % pn
    return tuple(out)


def _coeffs_to_binomial(c, q, pn):
    out = [0] * q
    row = [0] * len(c)  # signed binomials C(k, a)(-1)**(k-a) for current k
    for k, ck in enumerate(c):
        if k == 0:
            row[0] = 1
        else:
            for a in range(k, 0, -1):
                row[a] = (row[a - 1] - row[a]) % pn
            row[0] = (-row[0]) % pn
        if ck:
            for a in range(k + 1):
                out[a] = (out[a] + ck * row[a]) % pn
    return out


@st.composite
def _shift_cases(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    m = draw(st.integers(min_value=0, max_value=3))
    # mod p, the int64 view's largest p**n and the tuple view's smallest
    n = draw(st.sampled_from([1, _BELOW_2_31[p], _BELOW_2_31[p] + 1]))
    pn = p**n
    digits = st.integers(min_value=0, max_value=pn - 1)
    c = draw(st.lists(digits, max_size=p**m))
    return p, n, m, c


@settings(max_examples=150, deadline=None)
@given(_shift_cases())
@example((7, 11, 2, [7**11 - 1] * 49))
@example((3, 20, 3, [3**20 - 1] * 27))
def test_taylor_shift_matches_pascal_rows(case):
    p, n, m, c = case
    q, pn = p**m, p**n
    view = c + [0] * (q - len(c))
    mono = _binomial_to_coeffs(view, pn)
    back = _coeffs_to_binomial(c, q, pn)
    assert tuple(taylor_shift(c, 1, p, n) + [0] * q)[:q] == mono
    assert (taylor_shift(c, -1, p, n) + [0] * q)[:q] == back
    assert RingElem.from_binomial(p, n, m, view).coeffs == mono
    assert RingElem(p, n, m, c).binomial == tuple(back)
    assert taylor_shift(taylor_shift(c, -1, p, n), 1, p, n) == _trim(c, pn)


def _synthetic_shift(coeffs, s, mod):
    """P(y + s) by repeated synthetic division, O(deg**2) Python steps,
    mod `mod` or exactly when it is None."""
    a = _trim(list(coeffs), mod)
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] += s * a[j + 1]
            if mod:
                a[j] %= mod
    return a


@st.composite
def _lucas_and_pascal_cases(draw):
    p = draw(st.sampled_from([3, 5, 7, 101, 997]))
    n = draw(st.sampled_from([1, 2, 3]))
    c = draw(st.lists(st.integers(-p**(n + 1), p**(n + 1)), max_size=501))
    return p, n, draw(st.sampled_from([1, -1])), c


@settings(max_examples=60, deadline=None)
@given(_lucas_and_pascal_cases())
@example((101, 5, 1, list(range(-300, 200))))  # 101**5 > 2**31: object arrays
@example((101, 5, -1, [101**5 - 1] * 120))
@example((3, 1, -1, [1] * 300))  # 3**5 < 300: the top digit axis is cut to 2
@example((997, 1, 1, [5, 0, 7]))
@example((2**61 - 1, 1, -1, [3, 2**61, -5, 7]))  # a 4 x 4 table, on exact objects
@example((2**31 - 1, 1, -1, [2**31 - 2] * 3))  # 3 (p-1)**2 is just past 2**63
def test_taylor_shift_matches_synthetic_division(case):
    # over F_p the shift runs Lucas's theorem digit by digit, mod p**n
    # (n >= 2) Pascal rows; both must match the quadratic original
    p, n, s, c = case
    assert taylor_shift(c, s, p, n) == _synthetic_shift(c, s, p**n)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.fractions(max_denominator=50), max_size=40), st.sampled_from([1, -1]))
def test_taylor_shift_exact_matches_synthetic_division(c, s):
    assert taylor_shift(c, s, None) == _synthetic_shift(c, s, None)


class _FpByMethods:
    def __init__(self, p):
        self.p = p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    zero = 0


class _QQByMethods:
    @staticmethod
    def add(x, y):
        return x + y

    @staticmethod
    def sub(x, y):
        return x - y

    @staticmethod
    def mul(x, y):
        return x * y

    @staticmethod
    def inv(x):
        return 1 / Fraction(x)

    zero = Fraction(0)


def _ref_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_pmul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != 0:
            for j, y in enumerate(b):
                if y != 0:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _ref_trim(out)


def _ref_pdivmod(F, a, b):
    a = list(a)
    inv_lead = F.inv(b[-1])
    q = [F.zero] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = F.mul(a[i + len(b) - 1], inv_lead)
        q[i] = c
        if c != 0:
            for j, y in enumerate(b):
                a[i + j] = F.sub(a[i + j], F.mul(c, y))
    return _ref_trim(q), _ref_trim(a)


def _ref_pgcd_monic(F, a, b):
    while b:
        a, b = b, _ref_pdivmod(F, a, b)[1]
    if a:
        a = _ref_trim([F.mul(F.inv(a[-1]), x) for x in a])
    return a


@st.composite
def _poly_cases(draw):
    if draw(st.booleans()):
        p = draw(st.sampled_from([3, 5, 13, 101, 2**31 - 1]))
        coeff = st.integers(min_value=0, max_value=p - 1)
        fields = p, _FpByMethods(p)
    else:
        coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)
        fields = None, _QQByMethods()
    a, b, g = (_ref_trim(draw(st.lists(coeff, max_size=k))) for k in (9, 6, 4))
    if g and draw(st.booleans()):  # a common factor, so the gcd is not 1
        a, b = _ref_pmul(fields[1], a, g), _ref_pmul(fields[1], b, g)
    return fields, a, b


@settings(max_examples=200, deadline=None)
@given(_poly_cases())
def test_poly_helpers_match_method_dispatch(case):
    (mod, ref), a, b = case
    assert _pmul(mod, a, b) == _ref_pmul(ref, a, b)
    assert _padd(mod, a, b) == _ref_trim([ref.add(x, y) for x, y in zip(
        a + [0] * (len(b) - len(a)), b + [0] * (len(a) - len(b)))])
    assert _psub(mod, _padd(mod, a, b), b) == a
    if b:
        assert _pdivmod(mod, a, b) == _ref_pdivmod(ref, a, b)
    assert _pgcd_monic(mod, a, b) == _ref_pgcd_monic(ref, a, b)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=8),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=2, max_size=5),
       st.integers(min_value=1, max_value=9))
def test_pdiv_exact_over_z(a, b, r):
    a, b = _ref_trim(a), _ref_trim(b)
    if len(b) < 2:
        return
    prod = poly_mul(a, b)
    assert _pdiv_exact(prod, b) == a
    assert all(type(x) is int for x in _pdiv_exact(prod, b))
    with pytest.raises(ArithmeticError):
        _pdiv_exact(_padd(None, prod, [r]), b)
