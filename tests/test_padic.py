import time
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from leopoldt.padic import (
    NotAGeneratorError,
    NotAUnitError,
    PadicInt,
    PrecisionError,
    _log_series,
    is_odd_prime,
    iwasawa_log,
    kappa_exponent,
    kappa_exponent_table,
    teichmuller,
    teichmuller_twist,
)
from leopoldt.pseudo import PseudoPoly, to_ring
from leopoldt.ring import RingElem, ring_zero


def test_canonical_value_and_modulus():
    x = PadicInt(5, 3, 130)
    assert x.value == 5 and x.modulus == 125
    assert PadicInt(5, 2, -1).value == 24


def test_rejects_bad_prime_and_precision():
    with pytest.raises(ValueError):
        PadicInt(4, 2, 1)
    with pytest.raises(ValueError):
        PadicInt(2, 2, 1)
    with pytest.raises(ValueError):
        PadicInt(5, 0, 1)


def test_is_odd_prime_miller_rabin():
    small = [q for q in range(3, 158, 2) if all(q % f for f in range(3, q, 2))]
    assert [q for q in range(-3, 158) if is_odd_prime(q)] == small
    t0 = time.monotonic()
    assert is_odd_prime(2**61 - 1)
    assert time.monotonic() - t0 < 1
    assert not is_odd_prime(3215031751)  # strong pseudoprime to bases 2, 3, 5, 7
    assert not is_odd_prime(3 * (2**89 - 1))
    with pytest.raises(ValueError, match="not decided"):
        is_odd_prime(2**89 - 1)


def test_arithmetic_minimum_precision():
    a = PadicInt(5, 3, 7)
    b = PadicInt(5, 2, 9)
    assert (a + b).precision == 2
    assert (a * b).value == 63 % 25
    with pytest.raises(ValueError):
        a + PadicInt(7, 3, 1)


def test_inverse_and_unit():
    a = PadicInt(7, 3, 10)
    assert (a * a.inverse()).value == 1
    with pytest.raises(NotAUnitError):
        PadicInt(7, 3, 14).inverse()


def test_teichmuller_known_values():
    assert teichmuller(1, 5, 2).value == 1
    assert teichmuller(4, 5, 2).value == 24
    assert teichmuller(2, 5, 2).value == 7
    # fixed point of Frobenius
    assert pow(7, 5, 25) == 7
    with pytest.raises(NotAUnitError):
        teichmuller(10, 5, 3)


@pytest.mark.parametrize("p,N", [(3, 4), (5, 3), (7, 3)])
def test_teichmuller_is_multiplicative_root_of_unity(p, N):
    q = p**N
    for a in range(1, p):
        t = teichmuller(a, p, N)
        assert pow(t.value, p - 1, q) == 1
        assert t.value % p == a
        for b in range(1, p):
            assert (teichmuller(a * b % p, p, N).value
                    == t.value * teichmuller(b, p, N).value % q)


@pytest.mark.parametrize("p,N", [(5, 3), (7, 2)])
def test_teichmuller_values_are_all_roots_of_unity(p, N):
    # product of (X - omega(a)) = X^(p-1) - 1 mod p^N
    q = p**N
    poly = [1]
    for a in range(1, p):
        w = teichmuller(a, p, N).value
        poly = [(-w * poly[0]) % q] + [
            (poly[i - 1] - w * poly[i]) % q for i in range(1, len(poly))] + [1]
        poly[-1] = 1
    expect = [(q - 1)] + [0] * (p - 2) + [1]
    assert poly == expect


def test_iwasawa_log_known_values():
    assert iwasawa_log(PadicInt(5, 3, 1), 3).value == 0
    assert iwasawa_log(PadicInt(5, 4, 6), 3).value == 55
    # roots of unity die
    for a in range(1, 5):
        w = teichmuller(a, 5, 4)
        assert iwasawa_log(w, 3).value == 0


def test_iwasawa_log_requires_unit_and_precision():
    with pytest.raises(NotAUnitError):
        iwasawa_log(PadicInt(5, 3, 10), 2)
    with pytest.raises(PrecisionError):
        iwasawa_log(PadicInt(5, 2, 6), 3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5**6 - 1), st.integers(min_value=1, max_value=5**6 - 1))
def test_iwasawa_log_is_homomorphism(u, v):
    p, w = 5, 6
    if u % p == 0 or v % p == 0:
        return
    lu = iwasawa_log(PadicInt(p, w, u), 4)
    lv = iwasawa_log(PadicInt(p, w, v), 4)
    luv = iwasawa_log(PadicInt(p, w, u * v), 4)
    assert luv.value == (lu + lv).value


def test_kappa_exponent_basics():
    p = 5
    kappa = PadicInt(p, 6, 6)
    assert kappa_exponent(kappa, kappa, 3).value == 1
    # roots of unity have exponent 0
    assert kappa_exponent(teichmuller(2, p, 6), kappa, 3).value == 0
    # Log is a homomorphism: kappa^2 -> 2
    assert kappa_exponent(PadicInt(p, 6, 36), kappa, 3).value == 2


def test_kappa_exponent_recovers_small_powers():
    p, out = 5, 2
    kappa = PadicInt(p, out + 2, 1 + p)
    for s in range(0, p**2 + 1):
        a = PadicInt(p, out + 2, pow(1 + p, s, p ** (out + 2)))
        assert kappa_exponent(a, kappa, out).value == s % p**out


def test_kappa_must_generate():
    with pytest.raises(NotAGeneratorError):
        kappa_exponent(PadicInt(5, 4, 6), PadicInt(5, 4, 26), 2)  # 26 = 1 mod 25
    with pytest.raises(NotAGeneratorError):
        kappa_exponent(PadicInt(5, 4, 6), PadicInt(5, 4, 7), 2)


def test_shift_down_exact_division():
    x = PadicInt(5, 4, 250)
    y = x.shift_down(2)
    assert (y.precision, y.value) == (2, 10 % 25)
    with pytest.raises(ValueError):
        PadicInt(5, 4, 3).shift_down(1)


def _log_series_table(p, level, kappa):
    # the log-series route: Log_p(a)/Log_p(kappa) per unit a, after
    # dividing out omega(a), both logarithms divided by p before inverting
    q = p**level
    out_mod = p ** (level - 1)
    lk = _log_series(kappa - 1, p, level) // p
    out = [0] * q
    for a in range(1, q):
        if a % p and level > 1:
            om = teichmuller(a, p, level).value
            la = _log_series(a * pow(om, -1, q) - 1, p, level) // p
            out[a] = la * pow(lk, -1, out_mod) % out_mod
    return out


@pytest.mark.parametrize("p, level, kappas", [
    (3, 1, (4,)), (3, 3, (4, 7, 13)), (5, 2, (6, 11, 21)), (5, 3, (6, 16)),
    (7, 3, (8, 15)), (13, 2, (14, 27)), (37, 3, (38,)),
    (3, 10, (4,)),  # 3**10 is the largest level of 3 within MAX_RING_SIZE
])
def test_kappa_exponent_table_matches_log_series(p, level, kappas):
    for kappa in kappas:
        table = kappa_exponent_table(p, level, kappa)
        assert table.dtype == "int64" and not table.flags.writeable
        assert table.tolist() == _log_series_table(p, level, kappa)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37])
def test_teichmuller_twist_matches_pow(p):
    # the top n with p**n < 2**31 gives int64, the next one Python ints;
    # delta = 1 gives the lifts themselves, pointwise as `teichmuller`
    top = max(n for n in range(1, 32) if p**n < 2**31)
    for n in (1, top, top + 1):
        pn = p**n
        tei = [0] + [teichmuller(t, p, n).value for t in range(1, p)]
        assert teichmuller_twist(p, n, 1).tolist() == tei
        for delta in range(2 - p, p):
            tw = teichmuller_twist(p, n, delta)
            assert tw.dtype == ("int64" if pn < 2**31 else object) and not tw.flags.writeable
            assert all(type(x) is int for x in tw.tolist())
            assert tw.tolist() == [0] + [pow(tei[t], delta, pn) for t in range(1, p)]



@pytest.mark.parametrize("call", [
    lambda: to_ring(PseudoPoly(3, 2, 12, [(1, 1)]), 2, 12),
    lambda: RingElem(3, 2, 12, [1, 2]),
    lambda: ring_zero(3, 2, 12),
    lambda: kappa_exponent_table(3, 12, 4),
], ids=["to_ring", "RingElem", "ring_zero", "kappa_exponent_table"])
def test_ring_size_refused_before_allocation(call):
    # each call asks for a view of 3**12 = 531441 entries, above MAX_RING_SIZE:
    # it is refused before anything of that size is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="size bound"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
