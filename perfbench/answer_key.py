"""Expected answers computed without `leopoldt`.

Everything here is plain integer and rational arithmetic: exact Bernoulli
numbers from the binomial recurrence, the irregular pairs (p, j) with
p | B_j that they imply, Kubota-Leopoldt values at negative integers from
generalized Bernoulli numbers, and polynomial arithmetic over F_p.  The irregular pairs are
checked against the published table before any workload uses them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

# Irregular pairs (p, j), p | B_j, for odd p < 160 (Buhler, Crandall,
# Ernvall, Metsankyla, "Irregular primes and cyclotomic invariants to four
# million", Math. Comp. 61, 1993).
PUBLISHED_IRREGULAR = {
    37: (32,), 59: (44,), 67: (58,), 101: (68,), 103: (24,),
    131: (22,), 149: (130,), 157: (62, 110),
}


PRIME_BOUND = 160


class AnswerKeyError(AssertionError):
    """The independent key disagrees with the published table."""


def odd_primes_below(bound: int) -> list[int]:
    return [q for q in range(3, bound, 2)
            if all(q % f for f in range(3, int(q**0.5) + 1, 2))]


def euler_phi(n: int) -> int:
    return sum(1 for a in range(1, n + 1) if _gcd(a, n) == 1)


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B_0..B_n_max from sum_{k<=n} C(n+1, k) B_k = 0 (B_1 = -1/2)."""
    bern = [Fraction(1)]
    for n in range(1, n_max + 1):
        bern.append(-sum(comb(n + 1, k) * bern[k] for k in range(n)) / (n + 1))
    return bern


def lambda_bound_new(p: int, d: int = 1) -> int:
    """The paper's sharpened lambda bound ((p-1)/2 * phi(d))**phi(p-1)."""
    return ((p - 1) // 2 * euler_phi(d)) ** euler_phi(p - 1)


def _mod_fraction(x: Fraction, modulus: int) -> int:
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


class AnswerKey:
    """Exact B_0..B_320 and what follows from them for odd p < 160.

    L-values at k = j - 1 + (p-1) need B_(j + p - 1), j <= p - 3.
    """

    def __init__(self):
        self.bern = bernoulli_numbers(2 * PRIME_BOUND)
        self.irregular = {
            p: tuple(j for j in range(2, p - 2, 2)
                     if self.bern[j].numerator % p == 0)
            for p in odd_primes_below(PRIME_BOUND)}
        found = {p: js for p, js in self.irregular.items() if js}
        if found != PUBLISHED_IRREGULAR:
            raise AnswerKeyError(
                f"irregular pairs {found} differ from the published table")

    def l_value(self, p: int, residues: tuple[int, ...], k: int,
                precision: int) -> int:
        """L_p(-k, chi * omega**(k+1)) mod p**precision.

        chi has conductor d = len(residues) and chi(a) is the Teichmuller
        lift of residues[a % d]; residues == (1,) is the trivial character.
        The value is -(1 - chi(p) p**k) B_{k+1,chi} / (k+1), with
        B_{n,chi} = d**(n-1) sum_{a=1}^{d} chi(a) B_n(a/d) and the Bernoulli
        polynomial B_n(x) = sum_i C(n, i) B_i x**(n-i).  Each term has
        p-adic valuation >= -1, so lifts mod p**w give the sum mod p**(w-1).
        """
        n = k + 1
        d = len(residues)
        if d == 1 and n % (p - 1) == 0:
            raise ValueError("the value has a pole: p-1 divides k+1")
        v, rest = 0, n
        while rest % p == 0:
            rest //= p
            v += 1
        w = precision + v + 2
        mod = p**w

        def lift(r: int) -> int:
            return pow(r, p ** (w - 1), mod)

        if d == 1:
            bern = self.bern[n]  # B_n(1) = B_n for n >= 2
        else:
            bern = sum(lift(residues[a % d]) * d**k * self._bernoulli_poly(n, Fraction(a, d))
                       for a in range(1, d + 1) if residues[a % d])
        value = -(1 - lift(residues[p % d]) * p**k) * bern / n
        return _mod_fraction(value, p**precision)

    def _bernoulli_poly(self, n: int, x: Fraction) -> Fraction:
        return sum(comb(n, i) * self.bern[i] * x ** (n - i) for i in range(n + 1))


# -- polynomials over F_p, coefficient lists from degree 0 upwards ----------


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def fp_divmod(a, b, p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b over F_p."""
    a = _trim([x % p for x in a])
    b = _trim([x % p for x in b])
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    inv = pow(b[-1], -1, p)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv % p
        quot[i] = c
        for j, y in enumerate(b):
            a[i + j] = (a[i + j] - c * y) % p
    return _trim(quot), _trim(a)


def fp_add(a, b, p: int) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _trim([x % p for x in out])


def fp_mul(a, b, p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def fp_gcd(a, b, p: int) -> list[int]:
    """Monic gcd over F_p."""
    a, b = _trim([x % p for x in a]), _trim([x % p for x in b])
    while b:
        a, b = b, fp_divmod(a, b, p)[1]
    lead = pow(a[-1], -1, p)
    return [x * lead % p for x in a]


def in_one_plus_t(poly_x, p: int) -> tuple[int, ...]:
    """P(1+T) mod p for P given in x, scaled to be monic."""
    out = [0] * len(poly_x)
    for i, c in enumerate(poly_x):
        for k in range(i + 1):
            out[k] += c * comb(i, k)
    out = _trim([x % p for x in out])
    lead = pow(out[-1], -1, p)
    return tuple(x * lead % p for x in out)


@lru_cache(maxsize=None)
def criterion_witness(residues: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Reduced denominator of U(F_chi) over F_p, as a monic polynomial in T.

    F = N(x) / (1 - x**d) with N = sum_{a<=d} chi(a) x**a and x = 1+T.  Over
    F_p, U F = F(x) - chi(p) F(x**p) and N(x**p) = N(x)**p, so
    U F = (N (1 - x**d)**(p-1) - chi(p) N(x**p)) / (1 - x**d)**p.
    """
    d = len(residues)
    numer = [0] + [residues[a % d] for a in range(1, d + 1)]
    base = [1] + [0] * (d - 1) + [p - 1]  # 1 - x**d
    base_pow = [1]
    for _ in range(p - 1):
        base_pow = fp_mul(base_pow, base, p)
    frobenius = [0] * ((len(numer) - 1) * p + 1)
    for a, c in enumerate(numer):
        frobenius[a * p] = -residues[p % d] * c
    top = fp_add(fp_mul(numer, base_pow, p), frobenius, p)
    den = fp_mul(base_pow, base, p)
    return in_one_plus_t(fp_divmod(den, fp_gcd(top, den, p), p)[0], p)


def _int_div_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division over Z by a monic b."""
    a = list(a)
    quot = [0] * (len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        quot[i] = c
        for j, y in enumerate(b):
            a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("cyclotomic division left a remainder")
    return quot


def cyclotomic(d: int) -> list[int]:
    """Phi_d(x) over Z: x**d - 1 divided by Phi_e for every proper divisor e."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _int_div_exact(poly, cyclotomic(e))
    return poly


def cyclotomic_in_one_plus_t(d: int, p: int) -> tuple[int, ...]:
    """Phi_d(1+T) mod p, scaled to be monic."""
    return in_one_plus_t(cyclotomic(d), p)
