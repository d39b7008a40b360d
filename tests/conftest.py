"""Shared helpers: seeded random element generators and an independent
integer-polynomial oracle used to cross-check the binomial-basis code paths."""

import random

import pytest

from leopoldt.ring import RingElem


@pytest.fixture
def rng():
    return random.Random(20260808)


def pytest_runtest_logreport(report):
    # the acceptance tests print their own PASS lines; mirror failures
    if report.when == "call" and report.failed and "test_acceptance" in report.nodeid:
        name = report.nodeid.split("::")[-1]
        print(f"\nACCEPTANCE ({name}): FAIL")


def random_elem(rng, p, n, m):
    q = p**m
    return RingElem.from_binomial(p, n, m, [rng.randrange(p**n) for _ in range(q)])


def random_monomial_elem(rng, p, n, m):
    q = p**m
    return RingElem(p, n, m, [rng.randrange(p**n) for _ in range(q)])


# -- independent exact polynomial arithmetic (the oracle side) --------------


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(a, b):
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_pow(a, k):
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_mod(a, b):
    """Remainder of a by monic b over Z."""
    a = list(a)
    while len(a) >= len(b):
        c = a[-1]
        shift = len(a) - len(b)
        for j, y in enumerate(b):
            a[shift + j] -= c * y
        while a and a[-1] == 0:
            a.pop()
    return a


def series_fp(f, count):
    """First `count` Taylor coefficients of a RatFuncFp over F_p, by long
    division (independent of the quotient-ring machinery)."""
    p = f.p
    num = list(f.num) + [0] * count
    den = list(f.den)
    inv0 = pow(den[0], -1, p)
    out = []
    for k in range(count):
        c = (num[k] * inv0) % p
        out.append(c)
        if c:
            for j in range(1, min(len(den), count - k)):
                num[k + j] = (num[k + j] - c * den[j]) % p
    return out


def omega_poly(p, m):
    out = poly_pow([1, 1], p**m)
    out[0] -= 1
    return out


def brute_force_from_binomial(p, n, m, b):
    """Expand sum b_a (1+T)**a with exact integer arithmetic, reduce by the
    monic omega_m, and return the canonical coefficients mod p**n."""
    total = []
    for a, ba in enumerate(b):
        if ba:
            total = poly_add(total, [ba * c for c in poly_pow([1, 1], a)])
    total = poly_mod(total, omega_poly(p, m))
    pn = p**n
    q = p**m
    out = [c % pn for c in total]
    return tuple(out + [0] * (q - len(out)))
