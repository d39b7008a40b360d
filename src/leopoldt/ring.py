"""Arithmetic in the finite quotients R(n, m) = (Z/p^n)[T] / (omega_m(T)).

Here omega_m(T) = (1+T)**(p**m) - 1; the ideals (p^n, omega_m) form a
neighbourhood basis of zero in Z_p[[T]], so these quotients are where all
exact computation happens.

An element is stored by its coordinates in the binomial basis
{(1+T)**a : 0 <= a < p**m}, entries mod p**n.  Every operator of the
calculus is an exponent map there:

* substitution  sigma_a : F(T) -> F((1+T)**a - 1)     permutes exponents,
* derivative    D = (1+T) d/dT                        multiplies b_a by a,
* projector     U                                     keeps unit exponents,
* isotypic      gamma_delta                           averages over mu_{p-1},
* Leopoldt      Gamma_delta                           maps level m to m-1.

The monomial coefficients (the canonical representative of degree
< p**m, which carries the Weierstrass data) are computed only where they
are read: `coeffs`, invariant certification and the series report.

Everything is pure and exact at the stated precision; where an operator
genuinely loses precision (D, whose multiplier is only known mod p**m) the
output records the smaller n rather than keeping stale digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .padic import (
    NotAUnitError,
    PadicInt,
    PrecisionError,
    is_odd_prime,
    kappa_exponent_table,
    require_generator,
    teichmuller_table,
)

# numpy int64 fast paths are used when products and accumulated sums
# provably fit; everything falls back to exact python ints otherwise.
_NP_COEFF_LIMIT = 2**31


class ContextMismatchError(ValueError):
    """Operands live in different rings R(n, m)."""


class RingElem:
    """Element of R(n, m), stored as its binomial view b (F = sum b_a (1+T)**a)."""

    __slots__ = ("p", "n", "m", "_bin")

    def __init__(self, p: int, n: int, m: int, coeffs, _binomial=None):
        """The class of sum coeffs[k] T**k; at most p**m coefficients."""
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if n < 1 or m < 0:
            raise ValueError(f"need n >= 1 and m >= 0, got ({n}, {m})")
        self.p = p
        self.n = n
        self.m = m
        q = p**m
        pn = p**n
        if _binomial is None:
            c = [x % pn for x in coeffs]
            if len(c) > q:
                raise ValueError(f"{len(c)} coefficients exceeds p**m = {q}")
            while c and c[-1] == 0:
                c.pop()
            _binomial = _coeffs_to_binomial(c, q, pn)
        b = tuple(x % pn for x in _binomial)
        if len(b) != q:
            raise ValueError("binomial view must have length p**m")
        self._bin = b

    @classmethod
    def from_binomial(cls, p: int, n: int, m: int, b) -> "RingElem":
        """The class of sum b[a] (1+T)**a; exactly p**m entries."""
        return cls(p, n, m, None, _binomial=b)

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Monomial coefficients of the canonical representative, O(Q^2)."""
        return _binomial_to_coeffs(self._bin, self.p**self.n)

    @property
    def binomial(self) -> tuple[int, ...]:
        return self._bin

    # -- ring structure ----------------------------------------------------

    def _require_same(self, other: "RingElem") -> None:
        if (self.p, self.n, self.m) != (other.p, other.n, other.m):
            raise ContextMismatchError(
                f"R({self.n},{self.m}) over p={self.p} vs R({other.n},{other.m}) over p={other.p}"
            )

    def __add__(self, other: "RingElem") -> "RingElem":
        self._require_same(other)
        return RingElem.from_binomial(self.p, self.n, self.m,
                                      [a + b for a, b in zip(self._bin, other._bin)])

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + other.scale(-1)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._require_same(other)
        b = _cyclic_convolve(self._bin, other._bin, self.p, self.n)
        return RingElem.from_binomial(self.p, self.n, self.m, b)

    def scale(self, c: int) -> "RingElem":
        return RingElem.from_binomial(self.p, self.n, self.m, [c * x for x in self._bin])

    def __eq__(self, other) -> bool:
        # the basis change is a bijection, so the binomial view decides
        if not isinstance(other, RingElem):
            return NotImplemented
        return ((self.p, self.n, self.m) == (other.p, other.n, other.m)
                and self._bin == other._bin)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.m, self._bin))

    def is_zero(self) -> bool:
        return not any(self._bin)

    def reduce(self, n: int | None = None, m: int | None = None) -> "RingElem":
        """Image in R(n', m') for n' <= n, m' <= m (fold exponents, drop digits)."""
        n2 = self.n if n is None else n
        m2 = self.m if m is None else m
        if n2 > self.n or m2 > self.m:
            raise PrecisionError("reduce cannot increase precision")
        if (n2, m2) == (self.n, self.m):
            return self
        b = _fold_binomial(self._bin, self.p, m2)
        return RingElem.from_binomial(self.p, n2, m2, b)

    def constant_term(self) -> int:
        """F(0) = sum b_a mod p**n."""
        return sum(self._bin) % self.p**self.n

    def __repr__(self) -> str:
        coeffs = self.coeffs
        head = ", ".join(str(c) for c in coeffs[:6])
        tail = ", ..." if len(coeffs) > 6 else ""
        return f"RingElem(p={self.p}, n={self.n}, m={self.m}, [{head}{tail}])"


def ring_zero(p: int, n: int, m: int) -> RingElem:
    return RingElem(p, n, m, [])


def ring_one(p: int, n: int, m: int) -> RingElem:
    return RingElem(p, n, m, [1])


def monomial(p: int, n: int, m: int, degree: int, c: int = 1) -> RingElem:
    """c * T**degree."""
    q = p**m
    if not 0 <= degree < q:
        raise ValueError("degree out of range")
    coeffs = [0] * q
    coeffs[degree] = c
    return RingElem(p, n, m, coeffs)


# -- basis change --------------------------------------------------------
#
# (1+T)**a = sum_k C(a,k) T**k and T**k = sum_a C(k,a)(-1)**(k-a) (1+T)**a;
# both matrices are unitriangular, so the transforms below are exact
# inverses over Z/p**n, and exact identities of polynomials of degree < Q.
# They run in O(L^2) for L = 1 + the last nonzero index, with a single
# Pascal row kept in memory.


def _binomial_to_coeffs(b, pn: int) -> tuple[int, ...]:
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


def _coeffs_to_binomial(c, q: int, pn: int) -> list[int]:
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


def _cyclic_convolve(a, b, p: int, n: int) -> list[int]:
    """Convolution of binomial views modulo (x**Q - 1, p**n)."""
    q = len(a)
    pn = p**n
    if pn < _NP_COEFF_LIMIT and q >= 32 and q * (pn - 1) ** 2 < 2**62:
        fa = np.array(a, dtype=np.int64)
        fb = np.array(b, dtype=np.int64)
        conv = np.convolve(fa, fb)
        out = conv[:q].copy()
        out[: q - 1] += conv[q:]
        return [int(x) for x in out % pn]
    out = [0] * q
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            if bj:
                k = i + j
                if k >= q:
                    k -= q
                out[k] = (out[k] + ai * bj) % pn
    return out


def _fold_binomial(b, p: int, m2: int) -> list[int]:
    q2 = p**m2
    out = [0] * q2
    for a, ba in enumerate(b):
        if ba:
            out[a % q2] += ba
    return out


# -- unit inversion ------------------------------------------------------


def invert_unit(f: RingElem) -> RingElem:
    """Inverse of f in R(n, m); requires f(0) to be a unit mod p.

    R(n,m)/(p) is the local ring F_p[T]/(T**(p**m)), so a unit constant
    term characterises the units.  Newton iteration v <- v(2 - f v)
    doubles the (p, T)-adic accuracy each step.
    """
    p, n, m = f.p, f.n, f.m
    if f.constant_term() % p == 0:
        raise NotAUnitError("constant term divisible by p")
    v = RingElem(p, n, m, [pow(f.constant_term(), -1, p**n)])
    one = ring_one(p, n, m)
    two = one.scale(2)
    for _ in range(64):
        prod = f * v
        if prod == one:
            return v
        v = v * (two - prod)
    raise ArithmeticError("unit inversion did not converge")  # pragma: no cover


def _solve_binomial_inverse(p: int, n: int, m: int, beta: int, e: int) -> RingElem:
    """Inverse of 1 - beta*(1+T)**e in R(n, m), for 1 - beta a unit.

    The linear system v_a - beta*v_{a-e} = [a == 0] decouples along the
    orbits of a -> a + e on Z/p**m; the orbit through 0 closes with the
    unit 1 - beta**L and every other orbit is zero.  O(p**m) time.
    """
    q = p**m
    pn = p**n
    beta %= pn
    if (1 - beta) % p == 0:
        raise NotAUnitError("1 - beta is not a unit")
    e %= q
    if e == 0:
        return RingElem(p, n, m, [pow(1 - beta, -1, pn)])
    g = math.gcd(e, q)
    length = q // g
    v = [0] * q
    v0 = pow(1 - pow(beta, length, pn), -1, pn)
    a = 0
    val = v0
    for _ in range(length):
        v[a] = val
        a = (a + e) % q
        val = (val * beta) % pn
    return RingElem.from_binomial(p, n, m, v)


# -- exponent-space operators -------------------------------------------


def substitute_exp(f: RingElem, a: int | PadicInt) -> RingElem:
    """sigma_a : F(T) -> F((1+T)**a - 1), exact on R(n, m).

    In the binomial basis this is the exponent map a' -> a*a' mod p**m,
    which is a permutation when a is a unit.
    """
    p, n, m = f.p, f.n, f.m
    q = p**m
    if isinstance(a, PadicInt):
        if a.p != p:
            raise ValueError("mixed primes")
        if a.precision < m:
            raise PrecisionError(f"exponent needs precision >= m = {m}")
        a = a.value
    a %= q
    b = f.binomial
    out = [0] * q
    pn = p**n
    for ap, bv in enumerate(b):
        if bv:
            k = (a * ap) % q
            out[k] = (out[k] + bv) % pn
    return RingElem.from_binomial(p, n, m, out)


def op_derivative(f: RingElem) -> RingElem:
    """D = (1+T) d/dT.  Output precision drops to min(n, m).

    In the binomial basis D multiplies b_a by a, and the exponent a is
    only known mod p**m, so only min(n, m) coefficient digits survive.
    """
    p, n, m = f.p, f.n, f.m
    n2 = min(n, m) if m >= 1 else 1
    if m == 0:
        return ring_zero(p, n2, 0)
    b = f.binomial
    return RingElem.from_binomial(p, n2, m, [a * ba for a, ba in enumerate(b)])


def op_unit_part(f: RingElem) -> RingElem:
    """U: keep binomial exponents prime to p, kill the rest (including a=0).

    Exact at full precision n: U((1+T)**a) is (1+T)**a for unit a, else 0.
    """
    p = f.p
    b = [(ba if a % p != 0 else 0) for a, ba in enumerate(f.binomial)]
    return RingElem.from_binomial(p, f.n, f.m, b)


@lru_cache(maxsize=8)
def _gamma_gather(p: int, m: int) -> "np.ndarray":
    """Row r-1 holds the gather indices of sigma_{omega(r)} on Z/p**m."""
    q = p**m
    tei_m = teichmuller_table(p, max(m, 1))
    idx = np.empty((p - 1, q), dtype=np.int64)
    ar = np.arange(q, dtype=np.int64)
    for r in range(1, p):
        rinv = pow(r, -1, p)
        idx[r - 1] = (tei_m[rinv] % q) * ar % q
    return idx


def op_isotypic(f: RingElem, delta: int) -> RingElem:
    """gamma_delta: average of eta**delta * sigma_eta over eta in mu_{p-1}.

    Exact at precision (n, m); the Teichmuller roots are used mod p**m for
    the exponent permutation and mod p**n for the coefficient twist.
    """
    p, n, m = f.p, f.n, f.m
    q = p**m
    pn = p**n
    delta %= p - 1
    tei_n = teichmuller_table(p, n)
    b = f.binomial
    inv = pow(p - 1, -1, pn)
    if pn < _NP_COEFF_LIMIT and q >= 64:
        gather = _gamma_gather(p, m)
        arr = np.array(b, dtype=np.int64)
        acc = np.zeros(q, dtype=np.int64)
        budget = 2**62 // max(1, (pn - 1) ** 2)
        for r in range(1, p):
            coef = pow(tei_n[r], delta, pn)
            acc += coef * arr[gather[r - 1]]
            if r % max(1, budget) == 0:
                acc %= pn
        out = (acc % pn) * inv % pn
        return RingElem.from_binomial(p, n, m, [int(x) for x in out])
    tei_m = teichmuller_table(p, max(m, 1))
    out = [0] * q
    for r in range(1, p):
        coef = pow(tei_n[r], delta, pn)
        mult = tei_m[r] % q if q > 1 else 0
        for a, ba in enumerate(b):
            if ba:
                k = (mult * a) % q
                out[k] = (out[k] + coef * ba) % pn
    return RingElem.from_binomial(p, n, m, [(x * inv) % pn for x in out])


def op_leopoldt(f: RingElem, delta: int, kappa: int) -> RingElem:
    """Leopoldt transform Gamma_delta: R(n, m) -> R(n, m-1).

    Each unit exponent a contributes b_a * omega(a)**delta at the new
    exponent Log_p(a)/Log_p(kappa) mod p**(m-1); non-unit exponents die.
    One omega-level is consumed; the coefficient precision n is kept.
    """
    p, n, m = f.p, f.n, f.m
    if m < 1:
        raise ValueError("Gamma_delta needs level m >= 1")
    require_generator(kappa, p)
    q = p**m
    q2 = p ** (m - 1)
    pn = p**n
    delta %= p - 1
    tei_n = teichmuller_table(p, n)
    exps = kappa_exponent_table(p, m, kappa)
    b = f.binomial
    if pn < _NP_COEFF_LIMIT and q >= 64 and q * (pn - 1) ** 2 < 2**62:
        arr = np.array(b, dtype=np.int64)
        a_idx = np.arange(q, dtype=np.int64)
        unit = (a_idx % p) != 0
        tw = np.array([pow(t, delta, pn) if t else 0 for t in tei_n], dtype=np.int64)
        vals = arr[unit] * tw[a_idx[unit] % p]
        tgt = np.array(exps, dtype=np.int64)[unit]
        acc = np.zeros(q2, dtype=np.int64)
        np.add.at(acc, tgt, vals)
        return RingElem.from_binomial(p, n, m - 1, [int(x) for x in acc % pn])
    out = [0] * q2
    for a, ba in enumerate(b):
        if ba and a % p != 0:
            c = (ba * pow(tei_n[a % p], delta, pn)) % pn
            k = exps[a]
            out[k] = (out[k] + c) % pn
    return RingElem.from_binomial(p, n, m - 1, out)


# -- predicates and invariants -------------------------------------------


def ideal_zero(f: RingElem, n2: int, m2: int) -> bool:
    """Membership of f in the ideal (p**n2, omega_m2(T)), for n2 <= n, m2 <= m.

    Exponents are folded to level m2 in the binomial basis and the folded
    coefficients checked mod p**n2.
    """
    if n2 > f.n or m2 > f.m:
        raise PrecisionError(f"cannot test ideal ({n2},{m2}) at level ({f.n},{f.m})")
    pn2 = f.p**n2
    folded = _fold_binomial(f.binomial, f.p, m2)
    return all(x % pn2 == 0 for x in folded)


@dataclass(frozen=True)
class InvariantReport:
    """Certified Weierstrass data of a ring element, or an honest refusal.

    Certification (verdict "certified") means the canonical representative
    has a unit coefficient: then mu = 0 and lambda is the index of the
    first unit coefficient, both intrinsic to the class mod (p**n, omega_m).
    Otherwise verdict is "indeterminate": the element has mu >= 1 or
    lambda >= p**m, and the caller must escalate the level.
    """

    mu_certified: int | None
    lambda_certified: int | None
    verdict: str
    level: tuple[int, int]

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"


def invariants(f: RingElem) -> InvariantReport:
    p = f.p
    for i, c in enumerate(f.coeffs):
        if c % p != 0:
            return InvariantReport(0, i, "certified", (f.n, f.m))
    return InvariantReport(None, None, "indeterminate", (f.n, f.m))


def evaluate(f: RingElem, t: PadicInt) -> PadicInt:
    """F(t) for v_p(t) >= 1; the result is valid mod p**min(n, m+1).

    Horner in x = 1+t over the binomial view, F(t) = sum b_a x**a.
    omega_m(t) has valuation >= m+1 on p*Z_p, so the class of F only
    determines the value to that precision.
    """
    p, n, m = f.p, f.n, f.m
    if t.p != p:
        raise ValueError("mixed primes")
    if t.value % p != 0:
        raise ValueError("evaluation point must satisfy v_p(t) >= 1")
    out_prec = min(n, m + 1)
    if t.precision < out_prec:
        raise PrecisionError(f"need t mod p^{out_prec}")
    pn = p**n
    acc = 0
    x = (1 + t.value) % pn
    for ba in reversed(f.binomial):
        acc = (acc * x + ba) % pn
    return PadicInt(p, out_prec, acc)


def exponent_moment(f: RingElem, k: int) -> PadicInt:
    """sum_a b_a * a**k over the binomial view; valid mod p**min(n, m).

    k = 0 gives F(0).  This is D**k applied and evaluated at T = 0.
    """
    p, n, m = f.p, f.n, f.m
    out_prec = min(n, m) if m >= 1 else n
    pn = p**n
    acc = 0
    for a, ba in enumerate(f.binomial):
        if ba:
            acc = (acc + ba * pow(a, k, pn)) % pn
    return PadicInt(p, out_prec, acc)


def k_index(s: PadicInt, delta: int, n: int) -> int:
    """The interpolation exponent [s]_{n+1} + d_n p**(n+1).

    d_n is the unique digit in 1..p-1 making the result congruent to delta
    mod p-1; the output is congruent to s mod p**(n+1) and grows with n.
    """
    p = s.p
    if s.precision < n + 1:
        raise PrecisionError(f"need s mod p^{n + 1}")
    base = s.value % p ** (n + 1)
    for d in range(1, p):
        if (base + d) % (p - 1) == delta % (p - 1):
            return base + d * p ** (n + 1)
    raise AssertionError("unreachable: digits 1..p-1 cover Z/(p-1)")  # pragma: no cover


# -- constructive ideal identity ------------------------------------------
#
# T**(p**j) = sum_{i+l=j} omega_i(T) p**l delta_l^{(j)}(T) with integer
# polynomials delta_l, built by the recurrence coming from the exact
# divisions omega_{j+1}/omega_j = T**(p**j (p-1)) - p r = omega_j**(p-1) + p q.


def _ipoly_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _ipoly_add(a, b) -> list[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return _ipoly_trim(out)


def _ipoly_scale(a, c: int) -> list[int]:
    return _ipoly_trim([c * x for x in a])


def _ipoly_mul(a, b) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return _ipoly_trim(out)


def _ipoly_pow(a, k: int) -> list[int]:
    out = [1]
    for _ in range(k):
        out = _ipoly_mul(out, a)
    return out


def _ipoly_div_exact(a, b) -> list[int]:
    """Exact division by monic-leading b over Z; raises if a remainder is left."""
    a = list(a)
    out = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1]
        if c % lead != 0:
            raise ArithmeticError("division not exact")
        qc = c // lead
        out[i] = qc
        if qc:
            for j, y in enumerate(b):
                a[i + j] -= qc * y
    if any(a):
        raise ArithmeticError("division not exact")
    return _ipoly_trim(out)


def _omega_poly(p: int, j: int) -> list[int]:
    """omega_j(T) = (1+T)**(p**j) - 1 as an integer polynomial."""
    out = _ipoly_pow([1, 1], p**j)
    out[0] -= 1
    return _ipoly_trim(out)


def decompose_t_power(j: int, p: int) -> list[list[int]]:
    """Integer polynomials delta_l with T**(p**j) = sum omega_i p**l delta_l.

    Exact over Z and re-verified by polynomial arithmetic before returning;
    intended for small j (the degrees grow like p**j).
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    deltas = [[1]]  # level 0: T = omega_0 * 1
    for lev in range(j):
        w_lo = _omega_poly(p, lev)
        w_hi = _omega_poly(p, lev + 1)
        ratio = _ipoly_div_exact(w_hi, w_lo)
        t_pow = [0] * (p**lev * (p - 1)) + [1]
        r = _ipoly_div_exact(_ipoly_add(t_pow, _ipoly_scale(ratio, -1)), [p])
        q = _ipoly_div_exact(
            _ipoly_add(ratio, _ipoly_scale(_ipoly_pow(w_lo, p - 1), -1)), [p])
        qr = _ipoly_add(q, r)
        new = [list(deltas[0])]
        first = _ipoly_mul(r, deltas[0])
        pow_p = 1
        for l in range(1, lev + 1):
            w_gap = _ipoly_mul(_ipoly_pow(w_lo, p - 2), _omega_poly(p, lev - l))
            first = _ipoly_add(first, _ipoly_scale(_ipoly_mul(w_gap, deltas[l]), pow_p))
            pow_p *= p
        new.append(first)
        for l in range(2, lev + 2):
            new.append(_ipoly_mul(qr, deltas[l - 1]))
        deltas = new
    total: list[int] = []
    for l, d in enumerate(deltas):
        term = _ipoly_scale(_ipoly_mul(_omega_poly(p, j - l), d), p**l)
        total = _ipoly_add(total, term)
    expected = [0] * (p**j) + [1]
    if total != expected:
        raise ArithmeticError("decomposition identity failed verification")
    return deltas
