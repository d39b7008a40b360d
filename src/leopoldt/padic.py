"""Exact arithmetic in Z/p^N for an odd prime p.

A value is an integer carried modulo p**N together with its precision N.
On top of the basic modular arithmetic this module provides the
Teichmuller lift, the p-adic logarithm on units, exponents with respect
to a topological generator kappa of 1 + p*Z_p, and exact division by p**k.
All functions are pure; values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class PrecisionError(ValueError):
    """An operation needs more p-adic precision than the operand carries."""


class NotAUnitError(ArithmeticError):
    """Operand is divisible by p where a unit was required."""


class NotAGeneratorError(ValueError):
    """kappa is not a topological generator of 1 + p*Z_p."""


# Miller-Rabin with the first 13 prime bases decides primality below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3317044064679887385961981

# A ring of more than this many coefficients is refused, and the pseudo
# Leopoldt transform builds no kappa-exponent table of more entries.
MAX_RING_SIZE = 10**5
# Coefficients are carried mod p**n; a modulus of more bits is refused.
MAX_MODULUS_BITS = 256
# Residues mod p**n (the binomial view of a ring element, a twist table) are
# int64 when p**n < 2**31, so that a product of two fits; a sum of such
# products is checked to fit, or is formed from reduced terms, before numpy
# computes it.  At larger moduli they are Python ints.
_NP_COEFF_LIMIT = 2**31


def residue_dtype(modulus: int):
    """The dtype of every residue array mod `modulus`: int64 below 2**31,
    else object (Python ints), the one exact fallback."""
    return np.int64 if modulus < _NP_COEFF_LIMIT else object


def require_ring_size(p: int, e: int) -> None:
    """Refuse a ring of p**e coefficients above MAX_RING_SIZE, or e < 0,
    before anything is allocated (p**e itself is not formed for large e)."""
    if e < 0:
        raise ValueError(f"omega-level {e} is negative")
    if e >= MAX_RING_SIZE.bit_length() or p**e > MAX_RING_SIZE:
        raise ValueError(f"{p}**{e} coefficients exceed size bound {MAX_RING_SIZE}")


def require_precision(p: int, n: int) -> None:
    """Refuse a coefficient modulus p**n above 2**MAX_MODULUS_BITS, or n < 1,
    before anything is allocated (p**n itself is not formed for large n)."""
    if n < 1:
        raise ValueError(f"precision {n} is not positive")
    if n > MAX_MODULUS_BITS or p**n > 2**MAX_MODULUS_BITS:
        raise ValueError(
            f"modulus {p}**{n} exceeds size bound 2**{MAX_MODULUS_BITS}")


@lru_cache(maxsize=256)
def is_odd_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; ValueError above MR_DETERMINISTIC_BOUND."""
    if p < 3 or any(p % q == 0 for q in _MR_BASES):
        return p in _MR_BASES[1:]
    if p >= MR_DETERMINISTIC_BOUND:
        raise ValueError(f"primality of {p} is not decided above {MR_DETERMINISTIC_BOUND}")
    r = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2**r * odd
    for a in _MR_BASES:
        # a**(odd * 2**i), i < r: for a prime p the first is 1 or one is p - 1
        powers = [pow(a, (p - 1) >> (r - i), p) for i in range(r)]
        if powers[0] != 1 and p - 1 not in powers:
            return False
    return True


def ilog(base: int, x: int) -> int:
    """Largest e with base**e <= x (x >= 1)."""
    e = 0
    while base ** (e + 1) <= x:
        e += 1
    return e


@dataclass(frozen=True)
class PadicInt:
    """An integer known modulo p**precision, canonical value in [0, p**precision).

    Arithmetic between two values requires the same p; the result carries
    the minimum of the two precisions.
    """

    p: int
    precision: int
    value: int

    def __post_init__(self) -> None:
        if not is_odd_prime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.precision < 1:
            raise ValueError(f"precision must be >= 1, got {self.precision}")
        object.__setattr__(self, "value", self.value % self.p**self.precision)

    @property
    def modulus(self) -> int:
        return self.p**self.precision

    def _joint(self, other: "PadicInt") -> int:
        if not isinstance(other, PadicInt):
            raise TypeError("expected a PadicInt")
        if other.p != self.p:
            raise ValueError(f"mixed primes {self.p} and {other.p}")
        return min(self.precision, other.precision)

    def __add__(self, other: "PadicInt") -> "PadicInt":
        return PadicInt(self.p, self._joint(other), self.value + other.value)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        return PadicInt(self.p, self._joint(other), self.value * other.value)

    def reduce(self, precision: int) -> "PadicInt":
        """Forget digits down to the given (smaller or equal) precision."""
        if precision > self.precision:
            raise PrecisionError(
                f"cannot raise precision from {self.precision} to {precision}"
            )
        return PadicInt(self.p, precision, self.value)

    def is_unit(self) -> bool:
        return self.value % self.p != 0

    def inverse(self) -> "PadicInt":
        if not self.is_unit():
            raise NotAUnitError(f"{self.value} is divisible by {self.p}")
        return PadicInt(self.p, self.precision, pow(self.value, -1, self.modulus))

    def shift_down(self, k: int) -> "PadicInt":
        """Exact division by p**k; the residue must be divisible by p**k."""
        if k == 0:
            return self
        if self.precision - k < 1:
            raise PrecisionError("no precision left after dividing by p**k")
        if self.value % self.p**k != 0:
            raise ValueError(f"residue {self.value} not divisible by {self.p}**{k}")
        return PadicInt(self.p, self.precision - k, self.value // self.p**k)

    def __repr__(self) -> str:
        return f"{self.value} (mod {self.p}^{self.precision})"


def teichmuller(a: int, p: int, precision: int) -> PadicInt:
    """The unique (p-1)-th root of unity congruent to a mod p.

    Computed as a**(p**(precision-1)) mod p**precision, the stable limit of
    the Frobenius iteration x -> x**p starting from a.
    """
    if a % p == 0:
        raise NotAUnitError(f"{a} is divisible by {p}, no Teichmuller lift")
    q = p**precision
    return PadicInt(p, precision, pow(a % q, p ** (precision - 1), q))


def _power_table(x: int, count: int, q: int) -> np.ndarray:
    """x**e mod q for e < count, by doubling, of `residue_dtype(q)`."""
    powers = np.ones(1, dtype=residue_dtype(q))
    while len(powers) < count:
        powers = np.concatenate((powers, powers * pow(x, len(powers), q) % q))
    return powers[:count]


@lru_cache(maxsize=64)
def _primitive_root_index(p: int) -> tuple[int, np.ndarray]:
    """The least primitive root g mod p and ind(t) mod p-1 with g**ind(t) = t,
    for t = 1..p-1 (entry 0 is 0)."""
    for g in range(2, p):
        powers = _power_table(g, p - 1, p)
        if np.count_nonzero(powers == 1) == 1:  # g has order p-1
            break
    ind = np.zeros(p, dtype=np.int64)
    ind[powers] = np.arange(p - 1)
    ind.flags.writeable = False
    return g, ind


@lru_cache(maxsize=64)
def _teichmuller_powers(p: int, precision: int) -> np.ndarray:
    """omega(g)**k mod p**precision for k = 0..p-2 and the root g above."""
    q = p**precision
    out = _power_table(pow(_primitive_root_index(p)[0], q // p, q), p - 1, q)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=64)
def teichmuller_twist(p: int, precision: int, delta: int) -> np.ndarray:
    """omega(t)**delta mod p**precision for t = 0..p-1 (entry 0 is 0).

    Gathered from the cached tables above as omega(g)**(delta ind(t) mod p-1):
    a read-only array of `residue_dtype(p**precision)`.  delta = 1 gives the
    Teichmuller lifts themselves.
    """
    _, ind = _primitive_root_index(p)
    out = _teichmuller_powers(p, precision)[delta % (p - 1) * ind % (p - 1)]
    out[0] = 0
    out.flags.writeable = False
    return out


def _log_series(x: int, p: int, w: int) -> int:
    """Log(1 + x) mod p**w for v_p(x) >= 1, by the alternating series.

    Truncated at the first K with K - v_p(K) >= w; the division by k in
    term k is exact because x**k is known modulo p**(w + k - 1).
    """
    x %= p**w
    if x % p != 0:
        raise NotAUnitError("series argument must be divisible by p")
    k_max = 1
    while k_max - ilog(p, k_max) < w:
        k_max += 1
    b = ilog(p, k_max) + 1
    big = p ** (w + b)
    mod = p**w
    xk = 1
    total = 0
    for k in range(1, k_max + 1):
        xk = (xk * x) % big
        v, kunit = 0, k
        while kunit % p == 0:
            kunit //= p
            v += 1
        term = (xk // p**v) * pow(kunit, -1, mod)
        if k % 2 == 0:
            term = -term
        total = (total + term) % mod
    return total


def iwasawa_log(u: PadicInt, out_precision: int) -> PadicInt:
    """Log_p(u) mod p**out_precision for a unit u.

    Roots of unity are killed first: the series is applied to
    <u> = u * omega(u)**(-1) in 1 + p*Z_p. The logarithm of a unit known
    mod p**P is determined mod p**P, so u.precision >= out_precision
    suffices.
    """
    if not u.is_unit():
        raise NotAUnitError(f"{u.value} is not a unit mod {u.p}")
    if u.precision < out_precision:
        raise PrecisionError(
            f"need the unit mod {u.p}^{out_precision}, have precision {u.precision}"
        )
    w = u.precision
    q = u.p**w
    omega = teichmuller(u.value, u.p, w)
    uhat = (u.value * pow(omega.value, -1, q)) % q
    return PadicInt(u.p, w, _log_series(uhat - 1, u.p, w)).reduce(out_precision)


def require_generator(kappa: int | PadicInt, p: int) -> None:
    """kappa must satisfy kappa = 1 mod p and kappa != 1 mod p**2."""
    k = kappa.value if isinstance(kappa, PadicInt) else kappa
    if k % p != 1:
        raise NotAGeneratorError(f"{k} is not 1 mod {p}")
    if k % p**2 == 1:
        raise NotAGeneratorError(f"{k} is 1 mod {p}^2, not a generator")


def kappa_exponent(a: PadicInt, kappa: PadicInt, out_precision: int) -> PadicInt:
    """Log_p(a) / Log_p(kappa) mod p**out_precision."""
    return kappa_exponents([a], kappa, out_precision)[0]


def kappa_exponents(units: list[PadicInt], kappa: PadicInt,
                    out_precision: int) -> list[PadicInt]:
    """kappa_exponent of each unit, with Log_p(kappa) computed once.

    Both logarithms are computed mod p**(out_precision+1) and divided by p
    before the unit inversion, so nothing is lost to v_p(Log_p kappa) = 1.
    """
    require_generator(kappa, kappa.p)
    w = out_precision + 1
    if kappa.precision < w or any(a.precision < w for a in units):
        raise PrecisionError(f"need arguments mod {kappa.p}^{w}")
    lk_inv = iwasawa_log(kappa, w).shift_down(1).inverse()
    return [iwasawa_log(a, w).shift_down(1) * lk_inv for a in units]


@lru_cache(maxsize=16)
def kappa_unit_table(p: int, level: int, kappa: int) -> np.ndarray:
    """omega(r) * kappa**e mod p**level at row r-1, column e < p**(level-1):
    kappa has that order, so each unit a < p**level shows once, at column
    Log_p(a)/Log_p(kappa) of row (a mod p) - 1.  A read-only int64 array;
    p**level is bounded by MAX_RING_SIZE."""
    require_generator(kappa, p)
    require_ring_size(p, level)
    q = p**level
    out = np.outer(teichmuller_twist(p, level, 1)[1:], _power_table(kappa, q // p, q)) % q
    out.flags.writeable = False
    return out


@lru_cache(maxsize=16)
def kappa_exponent_table(p: int, level: int, kappa: int) -> np.ndarray:
    """Exponents Log_p(a)/Log_p(kappa) mod p**(level-1) for all units a < p**level.

    Entry a is 0 for non-units; a mod p**level determines exactly this
    precision.  The column indices of `kappa_unit_table`, read-only int64.
    """
    units = kappa_unit_table(p, level, kappa)
    out = np.zeros(p**level, dtype=np.int64)
    out[units] = np.arange(units.shape[1], dtype=np.int64)
    out.flags.writeable = False
    return out
