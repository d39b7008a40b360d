import pytest
from hypothesis import given, settings, strategies as st

from leopoldt.padic import NotAUnitError, PadicInt, PrecisionError, kappa_exponent
from leopoldt.ring import (
    ContextMismatchError,
    RingElem,
    _solve_binomial_inverse,
    decompose_t_power,
    evaluate,
    exponent_moment,
    ideal_zero,
    invariants,
    invert_unit,
    k_index,
    monomial,
    op_derivative,
    op_isotypic,
    op_leopoldt,
    op_unit_part,
    ring_one,
    substitute_exp,
)
from conftest import brute_force_from_binomial, omega_poly, random_elem, random_monomial_elem


P, N, M = 5, 2, 2
KAPPA = 6


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


def test_solve_binomial_inverse_matches_newton(rng):
    pn = P**N
    for _ in range(20):
        beta = rng.randrange(pn)
        if (1 - beta) % P == 0:
            continue
        e = rng.randrange(P**M)
        fast = _solve_binomial_inverse(P, N, M, beta, e)
        b = [0] * P**M
        b[0] = 1
        b[e] = (b[e] - beta) % pn
        slow = invert_unit(RingElem.from_binomial(P, N, M, b))
        assert fast == slow


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
    # q = 125 >= 64 triggers the vector path; compare against a handmade loop
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


@pytest.mark.parametrize("p, m", [(3, 4), (5, 3)])
def test_mul_int64_boundary(rng, monkeypatch, p, m):
    # the numpy path of * runs while q*(p**n - 1)**2 < 2**62: compare it at
    # the last p**n it admits, and the exact path at the first one it refuses
    import leopoldt.ring as ring

    q = p**m
    n = 1
    while q * (p ** (n + 1) - 1) ** 2 < 2**62:
        n += 1
    calls = []
    convolve = ring.np.convolve
    monkeypatch.setattr(ring.np, "convolve", lambda *a: calls.append(1) or convolve(*a))
    for n2, fast in ((n, True), (n + 1, False)):
        pn = p**n2
        cases = [([pn - 1] * q, [pn - 1] * q)]
        cases += [(_near_top(rng, pn, q), [rng.randrange(pn) for _ in range(q)])
                  for _ in range(3)]
        for a, b in cases:
            calls.clear()
            got = RingElem.from_binomial(p, n2, m, a) * RingElem.from_binomial(p, n2, m, b)
            assert got.binomial == _schoolbook_cyclic(a, b, pn)
            assert bool(calls) == fast


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
