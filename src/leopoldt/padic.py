"""Exact arithmetic in Z/p^N for an odd prime p.

A value is an integer carried modulo p**N together with its precision N.
On top of the basic modular arithmetic this module provides the
Teichmuller lift, the p-adic logarithm on units, exponents with respect
to a topological generator kappa of 1 + p*Z_p, and p-power valuations.
All functions are pure; values are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache


class PrecisionError(ValueError):
    """An operation needs more p-adic precision than the operand carries."""


class NotAUnitError(ArithmeticError):
    """Operand is divisible by p where a unit was required."""


class NotAGeneratorError(ValueError):
    """kappa is not a topological generator of 1 + p*Z_p."""


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
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

    def __sub__(self, other: "PadicInt") -> "PadicInt":
        return PadicInt(self.p, self._joint(other), self.value - other.value)

    def __mul__(self, other: "PadicInt") -> "PadicInt":
        return PadicInt(self.p, self._joint(other), self.value * other.value)

    def __neg__(self) -> "PadicInt":
        return PadicInt(self.p, self.precision, -self.value)

    def __pow__(self, k: int) -> "PadicInt":
        if k < 0:
            return self.inverse() ** (-k)
        return PadicInt(self.p, self.precision, pow(self.value, k, self.modulus))

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

    def valuation(self) -> int:
        """v_p of the residue, capped at the precision (the value 0 returns precision)."""
        if self.value == 0:
            return self.precision
        v = 0
        x = self.value
        while x % self.p == 0:
            x //= self.p
            v += 1
        return v

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


def teichmuller(a: int | PadicInt, p: int | None = None, precision: int | None = None) -> PadicInt:
    """The unique (p-1)-th root of unity congruent to a mod p.

    Computed as a**(p**(precision-1)) mod p**precision, the stable limit of
    the Frobenius iteration x -> x**p starting from a.
    """
    if isinstance(a, PadicInt):
        p = a.p
        precision = a.precision if precision is None else precision
        a = a.value
    assert p is not None and precision is not None
    if a % p == 0:
        raise NotAUnitError(f"{a} is divisible by {p}, no Teichmuller lift")
    q = p**precision
    return PadicInt(p, precision, pow(a % q, p ** (precision - 1), q))


@lru_cache(maxsize=64)
def teichmuller_table(p: int, precision: int) -> tuple[int, ...]:
    """Residues of the Teichmuller lifts omega(r) mod p**precision, r = 0..p-1 (entry 0 is 0)."""
    q = p**precision
    e = p ** (precision - 1)
    return (0,) + tuple(pow(r, e, q) for r in range(1, p))


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
    """Log_p(a) / Log_p(kappa) mod p**out_precision.

    Both logarithms are computed mod p**(out_precision+1) and divided by p
    before the unit inversion, so nothing is lost to v_p(Log_p kappa) = 1.
    """
    require_generator(kappa, a.p)
    w = out_precision + 1
    if a.precision < w or kappa.precision < w:
        raise PrecisionError(f"need arguments mod {a.p}^{w}")
    la = iwasawa_log(a, w).shift_down(1)
    lk = iwasawa_log(kappa, w).shift_down(1)
    return la * lk.inverse()


@lru_cache(maxsize=16)
def kappa_exponent_table(p: int, level: int, kappa: int) -> tuple[int, ...]:
    """Exponents Log_p(a)/Log_p(kappa) mod p**(level-1) for all units a < p**level.

    Entry a is 0 for non-units.  Used to apply the Leopoldt transform on
    whole coefficient vectors; the output precision level-1 is exactly what
    a residue a mod p**level determines.
    """
    require_generator(kappa, p)
    w = level
    q = p**w
    out_mod = p ** (level - 1) if level > 1 else 1
    tei = teichmuller_table(p, w)
    inv_tei = [0] + [pow(t, -1, q) for t in tei[1:]]
    lk = _log_series((kappa - 1) % q, p, w) // p
    inv_lk = pow(lk % (p ** (w - 1)), -1, p ** (w - 1)) if w > 1 else 0
    out = [0] * (p**level)
    for a in range(1, p**level):
        if a % p == 0:
            continue
        uhat = (a * inv_tei[a % p]) % q
        la = _log_series(uhat - 1, p, w) // p
        out[a] = (la * inv_lk) % out_mod if level > 1 else 0
    return tuple(out)
