"""Exact rational-function arithmetic over F_p and over p-integral rationals.

Rational functions are kept reduced with a monic denominator that does not
vanish at T = 0, i.e. they are the rational elements of the power-series
ring.  This is the computable side of the pseudo-rationality machinery:
the operator D = (1+T) d/dT acts rationally, U = D**(p-1) in
characteristic p is the Cartier projection in x = 1+T (see _cartier_x),
the involution T -> (1+T)**(-1) - 1 is x -> 1/x, and mu of Gamma_delta(F)
is read off the content of exact truncations (see mu_gamma_formula).

The polynomial arithmetic and the x <-> T basis change `taylor_shift` are
`ring`'s dense-polynomial helpers, run here over `_Fp(p)` or `_QQ`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import is_odd_prime
from .ring import (
    RingElem,
    _Fp,
    _padd,
    _pdivmod,
    _pgcd_monic,
    _pmul,
    _pscale,
    _psub,
    _QQ,
    _trim,
    invert_unit,
    op_unit_part,
    taylor_shift,
)


# U over F_p builds polynomials of degree p * deg(den) in x = 1+T, and
# taking the criterion's witness back to T is quadratic in that degree.
MAX_CARTIER_DEGREE = 4000


class NotInPowerSeriesRingError(ValueError):
    """Denominator vanishes at T = 0: not an element of the power-series ring."""


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
    num = _trim(num, p)
    den = _trim(den, p)
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
    return _remake(f, _pscale(F, list(f.num), c), list(f.den))


def rat_is_zero(f) -> bool:
    return not f.num


def d_rat(f):
    """D(F) = (1+T) F'(T), reduced."""
    F = f.field
    num, den = list(f.num), list(f.den)
    dn = [i * c for i, c in enumerate(num)][1:]
    dd = [i * c for i, c in enumerate(den)][1:]
    top = _pmul(F, [1, 1], _psub(F, _pmul(F, dn, den), _pmul(F, num, dd)))
    bot = _pmul(F, den, den)
    return _remake(f, top, bot)


def _cartier_x(a, b, p: int) -> tuple[list[int], list[int]]:
    """U(a/b) for polynomials in x = 1+T over F_p: reduced, den monic.

    x = 1+T splits F_p(x) into the x**i F_p(x**p), i < p, and D = x d/dx
    multiplies the i-th summand by i, so U = D**(p-1) drops i = 0 and keeps
    the rest.  Over F_p, b(x**p) = b**p, so a/b = a b**(p-1) / b(x**p) and
    U(a/b) = C / b**p with C = a b**(p-1) less its exponents divisible by p.
    Every common factor of C and b**p divides b: g = gcd(b, C mod b) is
    stripped from both until g no longer divides the denominator (that
    happens only once the factors C holds beyond b**p are all that is left).
    """
    if p * (len(b) - 1) > MAX_CARTIER_DEGREE:
        raise ValueError(f"U over F_{p} of a degree-{len(b) - 1} denominator exceeds "
                         f"the degree bound {MAX_CARTIER_DEGREE}")
    F = _Fp(p)
    den = _spread(b, p)
    top = _pmul(F, a, _pdivmod(F, den, b)[0])
    for i in range(0, len(top), p):
        top[i] = 0
    if not _trim(top):
        return [], [1]
    while True:
        g = _pgcd_monic(F, b, _pdivmod(F, top, b)[1])
        if len(g) < 2:
            break
        den_g, rem = _pdivmod(F, den, g)
        if rem:
            break
        top, den = _pdivmod(F, top, g)[0], den_g
    lead = F.inv(den[-1])
    return _pscale(F, top, lead), _pscale(F, den, lead)


def u_rat(f: RatFuncFp) -> RatFuncFp:
    """U = D**(p-1) in characteristic p: the Cartier projection `_cartier_x`,
    taken in x = 1+T and brought back to T."""
    if not isinstance(f, RatFuncFp):
        raise TypeError("U as D**(p-1) is a characteristic-p identity")
    p = f.p
    num, den = _cartier_x(taylor_shift(f.num, -1, p), taylor_shift(f.den, -1, p), p)
    return RatFuncFp(p, tuple(taylor_shift(num, 1, p)), tuple(taylor_shift(den, 1, p)))


def compose_inv(f):
    """F(iota(T)) with iota(T) = (1+T)**(-1) - 1 = -T/(1+T); iota is an involution.

    Substitution is done fraction-free: a degree-k polynomial P gives
    P(-T/(1+T)) * (1+T)**k exactly.
    """
    F = f.field
    deg = max(len(f.num), len(f.den)) - 1
    it_num = [0, -1]  # -T
    it_den = [1, 1]   # 1+T

    def subst(poly):
        acc = []
        power_num = [1]
        for c in poly:
            if c != 0:
                tail = power_num
                for _ in range(deg - (len(power_num) - 1)):
                    tail = _pmul(F, tail, it_den)
                acc = _padd(F, acc, _pscale(F, tail, c))
            power_num = _pmul(F, power_num, it_num)
        return acc

    return _remake(f, subst(list(f.num)), subst(list(f.den)))


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


def _x_power_verdict(den_x, p: int) -> CriterionVerdict:
    """holds(k) for a monic x-basis den = x**k * rest, rest constant; else rest in T."""
    k = next(i for i, c in enumerate(den_x) if c)
    rest = taylor_shift(den_x[k:], 1, p)
    if len(rest) <= 1:
        return CriterionVerdict(True, k, None)
    return CriterionVerdict(False, None, tuple(rest))


def sym_combination(f, delta: int):
    """F + (-1)**delta F(iota), the symmetrized form the criteria test."""
    sign = -1 if delta % 2 else 1
    return rat_add(f, rat_scale(compose_inv(f), sign))


def sym_poly_criterion(f: RatFuncFp, delta: int) -> CriterionVerdict:
    """Pseudo-rationality criterion for rational F.

    Asks whether some (1+T)**n * U(H), H = F + (-1)**delta F(iota), is a
    polynomial, all in x = 1+T: iota is x -> 1/x, so F(iota) = a(1/x)/b(1/x)
    is x**(deg b - deg a) rev(a) / rev(b); H is reduced by one gcd of degree
    about 2 deg b, U(H) is reduced against the factors of H's denominator
    (`_cartier_x`), and (1+T)**n is a power of x.  On failure the rest of
    the denominator, monic in T, is the witness.
    """
    p, F = f.p, f.field
    a, b = taylor_shift(f.num, -1, p), taylor_shift(f.den, -1, p)
    e = len(b) - len(a)
    sign = -1 if delta % 2 else 1
    rev_a, rev_b = _trim(a[::-1]), _trim(b[::-1])
    num = _padd(F, [0] * max(-e, 0) + _pmul(F, a, rev_b),
                [0] * max(e, 0) + _pscale(F, _pmul(F, rev_a, b), sign))
    den = [0] * max(-e, 0) + _pmul(F, b, rev_b)
    g = _pgcd_monic(F, num, den)
    num, den = _pdivmod(F, num, g)[0], _pdivmod(F, den, g)[0]
    return _x_power_verdict(_cartier_x(num, den, p)[1], p)


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
    combo = sym_combination(f, delta)
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
