from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from leopoldt import pseudo
from leopoldt.padic import (
    MAX_RING_SIZE,
    PadicInt,
    PrecisionError,
    kappa_exponent,
    kappa_exponent_table,
    require_generator,
    teichmuller,
    teichmuller_table,
)
from leopoldt.pseudo import (
    IndecisiveError,
    PseudoPoly,
    apply_derivative,
    apply_isotypic,
    apply_leopoldt,
    apply_unit_part,
    equal_test,
    to_ring,
)
from leopoldt.ring import (
    k_index,
    op_derivative,
    op_isotypic,
    op_leopoldt,
    op_unit_part,
    ring_one,
)

P, N, M = 5, 3, 4
KAPPA = 6


def rand_poly(rng, terms=4, p=P, n=N, m=M):
    return PseudoPoly(p, n, m, [(rng.randrange(p**n), rng.randrange(p**m))
                                for _ in range(terms)])


def test_canonical_form_merges_and_sorts():
    f = PseudoPoly(5, 2, 2, [(3, 7), (4, 7), (0, 3), (1, 2)])
    assert f.terms == ((1, 2), (7, 7))
    assert f.collided  # 3 and 4 landed on the same exponent residue
    g = PseudoPoly(5, 2, 2, [(1, 2), (7, 7)])
    assert not g.collided
    assert f.terms == g.terms


def test_exponents_need_precision():
    with pytest.raises(PrecisionError):
        PseudoPoly(5, 2, 3, [(1, PadicInt(5, 2, 7))])
    f = PseudoPoly(5, 2, 2, [(1, PadicInt(5, 2, 7))])
    assert f.terms == ((1, 7),)


def test_equal_test_three_valued():
    lhs = PseudoPoly(5, 2, 2, [(1, 3)])
    assert equal_test(lhs, PseudoPoly(5, 2, 2, [(1, 3)]), 2) is True
    assert equal_test(lhs, PseudoPoly(5, 2, 2, [(2, 3)]), 2) is False
    # classic pitfall: (1+T)^a + (1+T)^(a + p^(N+1) t) vs 2 (1+T)^a
    # at exponent precision <= N the two left terms merge: indecisive.
    coll = PseudoPoly(5, 2, 2, [(1, 3), (1, 3 + 25)])
    with pytest.raises(IndecisiveError):
        equal_test(coll, PseudoPoly(5, 2, 2, [(2, 3)]), 2)
    # at precision 3 the exponents separate and the answer is a clean False
    fine = PseudoPoly(5, 2, 3, [(1, 3), (1, 3 + 25)])
    assert equal_test(fine, PseudoPoly(5, 2, 3, [(2, 3)]), 2) is False
    # distinct exponents with a nonzero coefficient: decisively unequal
    assert equal_test(coll, PseudoPoly(5, 2, 2, [(3, 7)]), 2) is False
    # cross-side cancellation at a shared residue is also indecisive
    with pytest.raises(IndecisiveError):
        equal_test(PseudoPoly(5, 2, 2, [(1, 3), (2, 7)]),
                   PseudoPoly(5, 2, 2, [(1, 3), (2, 8)]) -
                   PseudoPoly(5, 2, 2, [(2, 8)]) + PseudoPoly(5, 2, 2, [(2, 7)]), 2)


def test_to_ring_examples():
    one = PseudoPoly(P, N, M, [(1, 0)])
    assert to_ring(one, N, 2) == ring_one(P, N, 2)
    # exponent p^m folds to 0 at level m
    f = PseudoPoly(P, N, M, [(1, 25)])
    assert to_ring(f, N, 2) == ring_one(P, N, 2)
    with pytest.raises(PrecisionError):
        to_ring(one, N, M + 1)


def test_operators_commute_with_to_ring(rng):
    m = 2
    for _ in range(15):
        f = rand_poly(rng)
        assert to_ring(apply_unit_part(f), N, m) == op_unit_part(to_ring(f, N, m))
        for delta in (0, 1, 2, 3):
            assert (to_ring(apply_isotypic(f, delta), N, m)
                    == op_isotypic(to_ring(f, N, m), delta))
        nn = min(N, m)
        lhs = to_ring(apply_derivative(f), min(N, M), m).reduce(n=nn)
        rhs = op_derivative(to_ring(f, N, m)).reduce(n=nn)
        assert lhs == rhs
        assert (to_ring(apply_leopoldt(f, 1, KAPPA), N, m - 1)
                == op_leopoldt(to_ring(f, N, m), 1, KAPPA))


def test_operator_examples():
    one = PseudoPoly(P, N, M, [(1, 0)])
    assert apply_unit_part(one).is_zero()
    f = PseudoPoly(P, N, M, [(2, 7)])
    assert apply_derivative(f).terms == ((14 % 5**min(N, M), 7),)
    # gamma orthogonality and idempotence at term level
    g = PseudoPoly(P, N, M, [(3, 2), (1, 11)])
    for d in range(4):
        assert apply_isotypic(apply_isotypic(g, d), (d + 1) % 4).is_zero()
        assert (apply_isotypic(apply_isotypic(g, d), d).terms
                == apply_isotypic(g, d).terms)


def test_leopoldt_on_terms():
    # Gamma(1) = 0 and Gamma((1+T)^kappa) = (1+T)
    one = PseudoPoly(P, N, M, [(1, 0)])
    assert apply_leopoldt(one, 1, KAPPA).is_zero()
    f = PseudoPoly(P, N, M, [(1, KAPPA)])
    g = apply_leopoldt(f, 0, KAPPA)
    assert g.terms == ((1, 1),)
    assert g.M == M - 1


def test_gamma_then_leopoldt_equals_leopoldt(rng):
    # Gamma absorbs gamma_{-d} U exactly on terms
    for _ in range(10):
        f = rand_poly(rng)
        for d in (0, 1, 3):
            lhs = apply_leopoldt(f, d, KAPPA)
            rhs = apply_leopoldt(apply_isotypic(apply_unit_part(f), -d), d, KAPPA)
            assert lhs.terms == rhs.terms


# p**M on each side of MAX_RING_SIZE: 3**10 and 313**2 read the table,
# 3**11 and 317**2 run the logarithm series
@pytest.mark.parametrize("p, M", [(3, 10), (3, 11), (313, 2), (317, 2)])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_leopoldt_table_and_series_paths_agree(p, M, data):
    n = data.draw(st.integers(min_value=1, max_value=3))
    pn = p**n
    f = PseudoPoly(p, n, M, data.draw(st.lists(
        st.tuples(st.integers(0, pn - 1), st.integers(0, p**M - 1)), min_size=1, max_size=8)))
    kappa = 1 + p * data.draw(st.integers(1, p - 1)) + p**2 * data.draw(st.integers(0, p))
    m_out = data.draw(st.integers(min_value=1, max_value=M - 1))
    kp = PadicInt(p, M, kappa)
    units = [(c, a) for c, a in f.terms if a % p]
    exps = [kappa_exponent(PadicInt(p, M, a), kp, M - 1).value for _, a in units]
    assert exps == kappa_exponent_table(p, M, kappa)[[a for _, a in units]].tolist()
    table = p**M <= MAX_RING_SIZE
    with mock.patch.object(pseudo, "kappa_exponent_table",
                           wraps=pseudo.kappa_exponent_table) as read, \
            mock.patch.object(pseudo, "kappa_exponents",
                              wraps=pseudo.kappa_exponents) as series:
        for delta in range(p - 1):
            expect = PseudoPoly(p, n, m_out, [
                (c * pow(teichmuller(a, p, n).value, delta, pn), e % p**m_out)
                for (c, a), e in zip(units, exps)])
            assert apply_leopoldt(f, delta, kappa, m_out) == expect
    assert (read.called, series.called) == (table, not table)


def interp_check(f: PseudoPoly, delta: int, s: PadicInt, j: int, kappa: int) -> bool:
    """Interpolation congruence at precision p**(j+1).

    Left side: Gamma_delta(f)(kappa**s - 1) = sum over unit exponents of
    c * omega(a)**delta * <a>**s.  Right side: the exponent moment
    sum c * a**k for k = [s]_{j+1} + d_j p**(j+1).  Both are evaluated
    exactly and compared mod p**(j+1).
    """
    p = f.p
    require_generator(kappa, p)
    w = j + 1
    if f.M < w or f.n < w:
        raise PrecisionError(f"need precisions >= {w}")
    pw = p**w
    tei = teichmuller_table(p, w)
    s_red = s.value % p**w if s.precision >= w else None
    if s_red is None:
        raise PrecisionError(f"need s mod p^{w}")
    delta %= p - 1
    lhs = 0
    for c, a in f.terms:
        if a % p == 0:
            continue
        om = tei[a % p]
        ahat = (a * pow(om, -1, pw)) % pw
        lhs = (lhs + c * pow(om, delta, pw) * pow(ahat, s_red, pw)) % pw
    k = k_index(PadicInt(p, w, s_red), delta, j)
    rhs = 0
    for c, a in f.terms:
        rhs = (rhs + c * pow(a, k, pw)) % pw
    return lhs == rhs


def test_interp_check(rng):
    cst = PseudoPoly(P, N, M, [(4, 0)])
    assert interp_check(cst, 1, PadicInt(P, N, 2), 1, KAPPA)
    # single unit power: both sides equal omega^d(a) <a>^s
    f = PseudoPoly(P, N, M, [(1, 7)])
    for d in (0, 2):
        for s in (0, 3, 19):
            assert interp_check(f, d, PadicInt(P, N, s), 2, KAPPA)
    for _ in range(10):
        f = rand_poly(rng)
        for d in (0, 1, 2, 3):
            for s in (0, 2, 13):
                for j in (0, 1, 2):
                    assert interp_check(f, d, PadicInt(P, N, s), j, KAPPA)


def test_integer_exponent_interp(rng):
    # integer s = k with k = delta mod p-1: classical interpolation point
    for _ in range(5):
        f = rand_poly(rng)
        for d in range(4):
            k = d if d else 4
            assert interp_check(f, d, PadicInt(P, N, k), 2, KAPPA)


def test_ring_addition_and_scaling():
    f = PseudoPoly(5, 2, 2, [(1, 3), (2, 7)])
    g = PseudoPoly(5, 2, 2, [(3, 3)])
    assert (f + g).terms == ((4, 3), (2, 7))
    assert (f - f).is_zero()
    assert f.scale(5).terms == ((5, 3), (10, 7))
    prod = f * g
    assert prod.terms == ((3, 6), (6, 10))
