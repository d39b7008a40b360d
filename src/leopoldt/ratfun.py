"""Exact rational-function arithmetic over F_p and over p-integral rationals.

Rational functions are kept reduced with a monic denominator that does not
vanish at T = 0, i.e. they are the rational elements of the power-series
ring.  This is the computable side of the pseudo-rationality machinery:
the operator D = (1+T) d/dT acts rationally, U = D**(p-1) in
characteristic p is the Cartier projection (see u_rat), the involution
T -> (1+T)**(-1) - 1 acts by composition, and mu of Gamma_delta(F) is
read off the content of exact truncations (see mu_gamma_formula).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import is_odd_prime
from .ring import RingElem, invert_unit, op_unit_part


class NotInPowerSeriesRingError(ValueError):
    """Denominator vanishes at T = 0: not an element of the power-series ring."""


# -- coefficient fields ----------------------------------------------------


class _Fp:
    """Arithmetic of F_p for the generic polynomial helpers."""

    def __init__(self, p: int):
        self.p = p

    def norm(self, x):
        return x % self.p

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def mul(self, x, y):
        return (x * y) % self.p

    def inv(self, x):
        return pow(x, -1, self.p)

    zero = 0
    one = 1


class _QQ:
    """Arithmetic of Q with Fraction coefficients."""

    @staticmethod
    def norm(x):
        return Fraction(x)

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
    one = Fraction(1)


def _trim(a: list) -> list:
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(F, a, b):
    out = [F.zero] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] = F.add(out[i], x)
    for i, x in enumerate(b):
        out[i] = F.add(out[i], x)
    return _trim(out)


def _pneg(F, a):
    return [F.sub(F.zero, x) for x in a]


def _psub(F, a, b):
    return _padd(F, a, _pneg(F, b))


def _pmul(F, a, b):
    if not a or not b:
        return []
    out = [F.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x != 0:
            for j, y in enumerate(b):
                if y != 0:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(out)


def _pscale(F, a, c):
    return _trim([F.mul(c, x) for x in a])


def _pdivmod(F, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    inv_lead = F.inv(b[-1])
    q = [F.zero] * max(len(a) - len(b) + 1, 0)
    for i in range(len(a) - len(b), -1, -1):
        c = F.mul(a[i + len(b) - 1], inv_lead)
        q[i] = c
        if c != 0:
            for j, y in enumerate(b):
                a[i + j] = F.sub(a[i + j], F.mul(c, y))
    return _trim(q), _trim(a)


def _pgcd_monic(F, a, b):
    while b:
        a, b = b, _pdivmod(F, a, b)[1]
    if a:
        a = _pscale(F, a, F.inv(a[-1]))
    return a


def _peval(F, a, x):
    acc = F.zero
    for c in reversed(a):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _pderive(F, a):
    return _trim([F.mul(F.norm(i), a[i]) for i in range(1, len(a))])


def taylor_shift(coeffs, s: int, p: int) -> list[int]:
    """Coefficients of P(y + s) over F_p, given those of P(y).

    s = 1 rewrites a polynomial in x = 1+T as one in T; s = -1 goes back.
    Repeated synthetic division, O(deg**2)."""
    a = _trim([c % p for c in coeffs])
    s %= p
    for i in range(len(a) - 1):
        for j in range(len(a) - 2, i - 1, -1):
            a[j] = (a[j] + s * a[j + 1]) % p
    return a


def _spread(a, p: int) -> list[int]:
    """P(y**p) from the coefficients of P(y)."""
    out = [0] * ((len(a) - 1) * p + 1)
    out[::p] = a
    return out


# -- rational functions ----------------------------------------------------


@dataclass(frozen=True)
class RatFuncFp:
    """Reduced num/den over F_p, den monic with den(0) != 0."""

    p: int
    num: tuple[int, ...]
    den: tuple[int, ...]

    @property
    def field(self) -> _Fp:
        return _Fp(self.p)


@dataclass(frozen=True)
class RatFuncZp:
    """Reduced num/den over Q with p-integral coefficients, den(0) a p-adic unit."""

    p: int
    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]

    @property
    def field(self) -> _QQ:
        return _QQ()


def _vp_fraction(x: Fraction, p: int) -> int:
    if x == 0:
        raise ValueError("valuation of 0")
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def rat_fp(num, den, p: int) -> RatFuncFp:
    """Canonical form over F_p: gcd removed, den monic; den(0) must be nonzero."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    F = _Fp(p)
    num = _trim([F.norm(x) for x in num])
    den = _trim([F.norm(x) for x in den])
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = _pgcd_monic(F, num, den)
    if len(g) > 1:
        num = _pdivmod(F, num, g)[0]
        den = _pdivmod(F, den, g)[0]
    lead = F.inv(den[-1])
    num = _pscale(F, num, lead)
    den = _pscale(F, den, lead)
    if not den or den[0] == 0:
        raise NotInPowerSeriesRingError("denominator vanishes at T = 0")
    return RatFuncFp(p, tuple(num), tuple(den))


def rat_zp(num, den, p: int) -> RatFuncZp:
    """Canonical form over Q: reduced, den(0) = 1, coefficients p-integral.

    The denominator is normalized by its constant term rather than its
    leading coefficient: den(0) must be a p-adic unit anyway, and dividing
    by it keeps every coefficient p-integral, which a monic scaling would
    not (e.g. 1 + pT)."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    F = _QQ()
    num = _trim([Fraction(x) for x in num])
    den = _trim([Fraction(x) for x in den])
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = _pgcd_monic(F, num, den)
    if len(g) > 1:
        num = _pdivmod(F, num, g)[0]
        den = _pdivmod(F, den, g)[0]
    if not den or den[0] == 0 or _vp_fraction(den[0], p) != 0:
        raise NotInPowerSeriesRingError("denominator is not a unit at T = 0")
    lead = F.inv(den[0])
    num = _pscale(F, num, lead)
    den = _pscale(F, den, lead)
    for c in num + den:
        if c != 0 and _vp_fraction(c, p) < 0:
            raise ValueError(f"coefficient {c} is not p-integral at p={p}")
    return RatFuncZp(p, tuple(num), tuple(den))


def _remake(f, num, den):
    if isinstance(f, RatFuncFp):
        return rat_fp(num, den, f.p)
    return rat_zp(num, den, f.p)


def rat_add(f, g):
    F = f.field
    num = _padd(F, _pmul(F, list(f.num), list(g.den)), _pmul(F, list(g.num), list(f.den)))
    den = _pmul(F, list(f.den), list(g.den))
    return _remake(f, num, den)


def rat_scale(f, c):
    F = f.field
    return _remake(f, _pscale(F, list(f.num), F.norm(c)), list(f.den))


def rat_sub(f, g):
    return rat_add(f, rat_scale(g, -1))


def rat_is_zero(f) -> bool:
    return not f.num


def d_rat(f):
    """D(F) = (1+T) F'(T), reduced."""
    F = f.field
    num, den = list(f.num), list(f.den)
    dn, dd = _pderive(F, num), _pderive(F, den)
    top = _psub(F, _pmul(F, dn, den), _pmul(F, num, dd))
    top = _pmul(F, [F.one, F.one], top)
    bot = _pmul(F, den, den)
    return _remake(f, top, bot)


def u_rat(f: RatFuncFp) -> RatFuncFp:
    """U = D**(p-1) in characteristic p, computed as the Cartier projection.

    In x = 1+T, F_p(x) is the direct sum of the x**i F_p(x**p), i < p, and
    D = x d/dx multiplies the i-th summand by i, so D**(p-1) drops the
    i = 0 summand and keeps the others.  For F = A/B over F_p,
    B(x**p) = B(x)**p, so F = A B**(p-1) / B(x**p) has its denominator in
    F_p(x**p), and U(F) is A B**(p-1) with the exponents divisible by p
    removed, over B(x**p).  Since (1+T)**p = 1 + T**p, B(x**p) in the
    T-basis is den(T**p).  One exact division, one product, one reduction.
    """
    if not isinstance(f, RatFuncFp):
        raise TypeError("U as D**(p-1) is a characteristic-p identity")
    p, F = f.p, f.field
    a_x = taylor_shift(f.num, -1, p)
    b_x = taylor_shift(f.den, -1, p)
    b_pow, rem = _pdivmod(F, _spread(b_x, p), b_x)
    if rem:
        raise ArithmeticError("B(x**p) is not divisible by B(x)")  # pragma: no cover
    top = _pmul(F, a_x, b_pow)
    for i in range(0, len(top), p):
        top[i] = 0
    return rat_fp(taylor_shift(top, 1, p), _spread(f.den, p), p)


def compose_inv(f):
    """F(iota(T)) with iota(T) = (1+T)**(-1) - 1 = -T/(1+T); iota is an involution.

    Substitution is done fraction-free: a degree-k polynomial P gives
    P(-T/(1+T)) * (1+T)**k exactly.
    """
    F = f.field
    deg = max(len(f.num), len(f.den)) - 1
    it_num = [F.zero, F.sub(F.zero, F.one)]  # -T
    it_den = [F.one, F.one]                  # 1+T

    def subst(poly):
        acc = []
        power_num = [F.one]
        for c in poly:
            if c != 0:
                tail = power_num
                for _ in range(deg - (len(power_num) - 1)):
                    tail = _pmul(F, tail, it_den)
                acc = _padd(F, acc, _pscale(F, tail, c))
            power_num = _pmul(F, power_num, it_num)
        return acc

    return _remake(f, subst(list(f.num)), subst(list(f.den)))


def series_fp(f: RatFuncFp, count: int) -> list[int]:
    """First `count` Taylor coefficients of F over F_p (independent of the
    quotient-ring machinery; used as a cross-module oracle)."""
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


def to_ring_elem(f: RatFuncZp, n: int, m: int) -> RingElem:
    """Exact image of a rational Lambda-element in R(n, m).

    The denominator has unit constant term, so it is invertible in the
    quotient and the image of the fraction is num * den**(-1)."""
    pn = f.p**n

    def lift(c: Fraction) -> int:
        return c.numerator * pow(c.denominator, -1, pn) % pn

    num = RingElem(f.p, n, m, [lift(c) for c in f.num])
    den = RingElem(f.p, n, m, [lift(c) for c in f.den])
    return num * invert_unit(den)


@dataclass(frozen=True)
class CriterionVerdict:
    """Outcome of the symmetrized-polynomial test.

    holds(n): the combination times (1+T)**n is a polynomial.
    fails: the reduced denominator has the recorded non-(1+T) factor."""

    holds: bool
    power: int | None
    witness: tuple[int, ...] | None


def _split_one_plus_t(f: RatFuncFp) -> tuple[int, tuple[int, ...]]:
    """Factor den = (1+T)**k * rest; returns (k, rest) with rest monic."""
    F = f.field
    den = list(f.den)
    k = 0
    while len(den) > 1:
        q, r = _pdivmod(F, den, [1, 1])
        if r:
            break
        den = q
        k += 1
    if den and den[-1] != 1:
        den = _pscale(F, den, F.inv(den[-1]))
    return k, tuple(den)


def is_one_plus_t_denominator(f: RatFuncFp) -> CriterionVerdict:
    """Is F of the shape polynomial / (1+T)**n (the rational pseudo-polynomials)?"""
    k, rest = _split_one_plus_t(f)
    if len(rest) <= 1:
        return CriterionVerdict(True, k, None)
    return CriterionVerdict(False, None, rest)


def sym_combination(f, delta: int):
    """F + (-1)**delta F(iota), the symmetrized form the criteria test."""
    sign = -1 if delta % 2 else 1
    return rat_add(f, rat_scale(compose_inv(f), sign))


def sym_poly_criterion(f: RatFuncFp, delta: int) -> CriterionVerdict:
    """Pseudo-rationality criterion for rational F.

    Forms G = U(F) + (-1)**delta U(F(iota)) and asks whether some
    (1+T)**n * G is a polynomial; the reduced denominator tells the answer
    and, on failure, supplies the offending factor.  The same denominator
    primitive answers the plain symmetrized question (without U) and the
    pseudo-polynomial test for F itself.
    """
    return is_one_plus_t_denominator(u_rat(sym_combination(f, delta)))


@dataclass(frozen=True)
class MuFormulaResult:
    mu: int
    stabilized_at: int  # omega-level where the Gauss content stopped moving


def mu_gamma_formula(f: RatFuncZp, delta: int, m_max: int = 6,
                     n_work: int = 6) -> MuFormulaResult:
    """mu(Gamma_delta(F)) for rational F via the symmetrized-U content.

    For delta odd or zero this is mu(U(H)) with H = F + (-1)**delta F(iota);
    for even delta != 0 the constant 2 U(F)(0) is removed first.  U has no
    rational closed form in characteristic zero, so the content is read off
    exact truncations at increasing omega-levels until it stabilizes.
    """
    p = f.p
    delta %= p - 1
    branch_two = (delta % 2 == 0 and delta != 0)
    sign = -1 if delta % 2 else 1
    combo = rat_add(f, rat_scale(compose_inv(f), sign))
    if rat_is_zero(combo) and not branch_two:
        raise ValueError("symmetrized combination vanishes: mu is infinite")
    prev = None
    for m in range(1, m_max + 1):
        img = op_unit_part(to_ring_elem(combo, n_work, m))
        b = list(img.binomial)
        if branch_two:
            uf0 = sum(op_unit_part(to_ring_elem(f, n_work, m)).binomial)
            b[0] -= 2 * uf0
        pn = p**n_work
        vals = [x % pn for x in b]
        v = n_work
        for x in vals:
            if x:
                w = 0
                while x % p == 0:
                    x //= p
                    w += 1
                v = min(v, w)
        if v == prev and v < n_work - 1:
            return MuFormulaResult(v, m)
        prev = v
    raise ArithmeticError(
        f"Gauss content did not stabilize below level {m_max}; raise m_max or n_work")
