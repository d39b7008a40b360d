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
    RingElem,
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
    table = p**M <= MAX_RING_SIZE
    if table:
        assert exps == kappa_exponent_table(p, M, kappa)[[a for _, a in units]].tolist()
    else:  # the table is refused above the ring bound, before it is built
        with pytest.raises(ValueError, match="size bound"):
            kappa_exponent_table(p, M, kappa)
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
    s_red = s.value % p**w if s.precision >= w else None
    if s_red is None:
        raise PrecisionError(f"need s mod p^{w}")
    delta %= p - 1
    lhs = 0
    for c, a in f.terms:
        if a % p == 0:
            continue
        om = teichmuller(a, p, w).value
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


def test_equal_test_refuses_nonpositive_precision():
    f = PseudoPoly(5, 2, 3, [(1, 7), (2, 11)])
    g = PseudoPoly(5, 2, 3, [(1, 7), (3, 11)])
    for n in (0, -1):
        with pytest.raises(ValueError, match="not positive"):
            equal_test(f, g, n)


def test_to_ring_refuses_negative_level():
    f = PseudoPoly(5, 2, 3, [(1, 7), (2, 11)])
    with pytest.raises(ValueError, match="negative"):
        to_ring(f, 2, -1)


def test_precisions_bounded_before_the_power_is_formed():
    # 3**161 < 2**256 < 3**162; 10**7 would form a 23-Mbit 5**M
    assert PseudoPoly(3, 161, 161, [(1, 1)]).terms == ((1, 1),)
    for p, n, M in ((3, 162, 2), (3, 2, 162), (5, 2, 10**7), (5, 10**7, 2)):
        with pytest.raises(ValueError, match="size bound"):
            PseudoPoly(p, n, M, [(1, 1)])


# -- a per-term dict implementation, the reference for the array-backed type --


class DictPseudoPoly:
    """Per-term Python merge: a dict from exponent residue to coefficient."""

    def __init__(self, p, n, M, terms, collided=False):
        if n < 1 or M < 1:
            raise ValueError("precisions must be >= 1")
        self.p, self.n, self.M = p, n, M
        pn, qm = p**n, p**M
        merged, nonzero_hits = {}, {}
        for c, a in terms:
            if isinstance(a, PadicInt):
                if a.precision < M:
                    raise PrecisionError(f"exponent needs precision >= {M}")
                a = a.value
            key = a % qm
            merged[key] = (merged.get(key, 0) + c) % pn
            if c % pn:
                nonzero_hits[key] = nonzero_hits.get(key, 0) + 1
        self.collided = collided or any(v > 1 for v in nonzero_hits.values())
        self.terms = tuple((c, a) for a, c in sorted(merged.items()) if c != 0)

    def __add__(self, other):
        return DictPseudoPoly(self.p, self.n, self.M, self.terms + other.terms,
                              self.collided or other.collided)

    def __neg__(self):
        return DictPseudoPoly(self.p, self.n, self.M, [(-c, a) for c, a in self.terms],
                              self.collided)

    def __sub__(self, other):
        return self + (-other)


def ref_equal_test(lhs, rhs, n):
    if n > lhs.n:
        raise PrecisionError(f"coefficients only known mod p^{lhs.n}")
    pn = lhs.p**n
    tainted = lhs.collided or rhs.collided
    if lhs.terms == rhs.terms and not tainted:
        return True
    groups = {}
    for c, a in lhs.terms:
        groups.setdefault(a, []).append(c)
    for c, a in rhs.terms:
        groups.setdefault(a, []).append(-c)
    cancelling = False
    for cs in groups.values():
        if sum(cs) % pn != 0:
            return False
        if len(cs) > 1 and any(c % pn != 0 for c in cs):
            cancelling = True
    if tainted or cancelling:
        raise IndecisiveError("collision")
    return True


def ref_to_ring(f, n, m):
    b = [0] * f.p**m
    for c, a in f.terms:
        b[a % f.p**m] += c
    return RingElem.from_binomial(f.p, n, m, b)


def ref_apply_derivative(f):
    return DictPseudoPoly(f.p, min(f.n, f.M), f.M, [(c * a, a) for c, a in f.terms],
                          f.collided)


def ref_apply_unit_part(f):
    return DictPseudoPoly(f.p, f.n, f.M, [(c, a) for c, a in f.terms if a % f.p],
                          f.collided)


def ref_apply_isotypic(f, delta):
    p, pn = f.p, f.p**f.n
    inv = pow(p - 1, -1, pn)
    tei_n = [0] + [teichmuller(r, p, f.n).value for r in range(1, p)]
    tei_m = [0] + [teichmuller(r, p, f.M).value for r in range(1, p)]
    out = [(pow(tei_n[r], delta % (p - 1), pn) * inv * c, tei_m[r] * a)
           for c, a in f.terms for r in range(1, p)]
    return DictPseudoPoly(p, f.n, f.M, out, f.collided)


def ref_apply_leopoldt(f, delta, kappa, m_out):
    p, pn = f.p, f.p**f.n
    kp = PadicInt(p, f.M, kappa)
    out = [(c * pow(teichmuller(a, p, f.n).value, delta % (p - 1), pn),
            kappa_exponent(PadicInt(p, f.M, a), kp, f.M - 1).value)
           for c, a in f.terms if a % p]
    return DictPseudoPoly(p, f.n, m_out, out, f.collided)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (IndecisiveError, PrecisionError) as e:
        return type(e)


def _same_poly(f, ref):
    assert (f.p, f.n, f.M) == (ref.p, ref.n, ref.M)
    assert (f.terms, f.collided) == (ref.terms, ref.collided)
    assert (f._a.dtype == object) == (max(f.p**f.n, f.p**f.M) >= 2**31)


# int64 arrays; coefficients past 2**31 (3**20) and 2**64 (3**45); exponents
# past 2**31 (3**21) and 2**64 (3**45); both past 2**31 (5**14)
CONTEXTS = ((5, 3, 4), (7, 2, 4), (3, 4, 5), (3, 20, 3), (3, 45, 2), (3, 3, 21),
            (3, 2, 45), (5, 14, 14))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arrays_match_dict_reference(data):
    p, n, M = data.draw(st.sampled_from(CONTEXTS))
    pn, qm = p**n, p**M
    # a small exponent pool plus shifts by multiples of p**M forces collisions
    pool = data.draw(st.lists(st.integers(0, qm - 1), min_size=1, max_size=4))
    coeff = st.one_of(st.integers(-pn, pn), st.integers(-2**70, 2**70), st.just(0))
    expo = st.one_of(
        st.builds(lambda a, k: a + k * qm, st.sampled_from(pool), st.integers(-3, 3)),
        st.integers(-2**70, 2**70),
        st.builds(lambda a, extra: PadicInt(p, M + extra, a),
                  st.integers(0, 2**70), st.integers(0, 2)))

    def draw_pair():
        terms = data.draw(st.lists(st.tuples(coeff, expo), max_size=8))
        collided = data.draw(st.booleans()) and data.draw(st.booleans())
        return PseudoPoly(p, n, M, terms, collided), DictPseudoPoly(p, n, M, terms, collided)

    (f, rf), (g, rg) = draw_pair(), draw_pair()
    _same_poly(f, rf)
    # f with every coefficient moved by a multiple of p**j: equal below precision j+1
    j, x = data.draw(st.integers(1, n)), data.draw(st.integers(1, p - 1))
    near = [(c + x * p**j, a) for c, a in f.terms]
    for lhs, rhs, rl, rr in ((f, g, rf, rg), (f, f + g - g, rf, rf + rg - rg),
                             (f, -(-f), rf, -(-rf)),
                             (f, PseudoPoly(p, n, M, near), rf, DictPseudoPoly(p, n, M, near))):
        _same_poly(lhs + rhs, rl + rr)
        _same_poly(lhs - rhs, rl - rr)
        _same_poly(-lhs, -rl)
        for k in range(1, n + 2):
            assert _outcome(equal_test, lhs, rhs, k) == _outcome(ref_equal_test, rl, rr, k)
    _same_poly(apply_unit_part(f), ref_apply_unit_part(rf))
    _same_poly(apply_derivative(f), ref_apply_derivative(rf))
    delta = data.draw(st.integers(-1, p - 1))
    _same_poly(apply_isotypic(f, delta), ref_apply_isotypic(rf, delta))
    kappa = 1 + p * data.draw(st.integers(1, p - 1))
    m_out = data.draw(st.integers(1, M - 1))
    _same_poly(apply_leopoldt(f, delta, kappa, m_out),
               ref_apply_leopoldt(rf, delta, kappa, m_out))
    for m in range(min(M, 3) + 1):
        k = data.draw(st.integers(1, n))
        assert to_ring(f, k, m) == ref_to_ring(rf, k, m)
