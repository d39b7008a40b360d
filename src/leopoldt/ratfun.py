"""Exact rational-function arithmetic over F_p and over p-integral rationals.

A rational function is stored as a reduced a/b of polynomials in x = 1+T,
the binomial basis of `ring`: over F_p b is monic, over Q b(1) = 1.  In
both b(1) = den(T = 0) is nonzero (a p-adic unit over Q), so these are the
rational elements of the power-series ring.  The pseudo-rationality
operators act on exponents of x: D = (1+T) d/dT is x d/dx, U = D**(p-1)
in characteristic p is the Cartier projection (see u_rat), and the
involution T -> (1+T)**(-1) - 1 is x -> 1/x.  mu of Gamma_delta(F) is
read off exactly over F_p, one factor p at a time (see mu_gamma_formula).

T appears only at the edges: `rat_fp` and `rat_zp` take coefficients in
T, the `num` and `den` properties read them back in T, and the
criterion's witness is reported in T.  The shift x <-> T keeps the
leading coefficient and is unimodular over Z, so monic, den(0) != 0 and
p-integrality mean the same in either basis.  The polynomial arithmetic
and the shift `taylor_shift` are `ring`'s dense-polynomial helpers, run
here mod p or, with the modulus None, exactly over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import is_odd_prime
from .ring import (
    RingElem,
    _inv,
    _padd,
    _pdivmod,
    _pgcd_monic,
    _pmul,
    _pscale,
    _psub,
    _trim,
    invert_unit,
    taylor_shift,
)


# U over F_p builds polynomials of degree p * deg(den) in x = 1+T, and
# reducing them (`_pdivmod`'s gcds) is quadratic in that degree.
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
class _RatFunc:
    """Reduced num_x/den_x in x = 1+T; `num` and `den` read them in T."""

    p: int
    num_x: tuple
    den_x: tuple

    @property
    def num(self) -> tuple:
        return tuple(taylor_shift(self.num_x, 1, self.mod))

    @property
    def den(self) -> tuple:
        return tuple(taylor_shift(self.den_x, 1, self.mod))


class RatFuncFp(_RatFunc):
    """Reduced over F_p, den monic with den(0) != 0."""

    @property
    def mod(self) -> int:
        """The modulus of the coefficients, p."""
        return self.p


class RatFuncZp(_RatFunc):
    """Reduced over Q with p-integral coefficients, den(0) = 1."""

    mod = None  # exact coefficients


def _normal(cls, p: int, a, b):
    """The reduced a/b of class `cls` (`RatFuncFp` or `RatFuncZp`), a and b
    in x = 1+T.

    Over F_p the denominator is made monic.  Over Q it is divided by
    b(1) = den(0), which keeps every coefficient p-integral where a monic
    scaling would not (e.g. 1 + pT).  b(1) may carry a factor p that the
    numerator shares (297 (1 + x**2) / (9x**2 - 15x + 9) at p = 3), so
    p-integrality is checked after the scaling.  A coefficient left with p
    in its denominator is refused as a den(0) that is not a unit when p
    divides b(1), and as a coefficient that is not p-integral otherwise."""
    mod = p if cls is RatFuncFp else None
    a, b = _trim(a, mod), _trim(b, mod)
    if not b:
        raise ZeroDivisionError("zero denominator")
    g = _pgcd_monic(mod, a, b)
    if len(g) > 1:
        a, b = _pdivmod(mod, a, g)[0], _pdivmod(mod, b, g)[0]
    b1 = sum(b)
    if mod:
        if b1 % p == 0:
            raise NotInPowerSeriesRingError("denominator vanishes at T = 0")
        lead = _inv(b[-1], p)
        return RatFuncFp(p, tuple(_pscale(p, a, lead)), tuple(_pscale(p, b, lead)))
    if b1 == 0:
        raise NotInPowerSeriesRingError("denominator vanishes at T = 0")
    inv = _inv(b1, None)
    a, b = _pscale(None, a, inv), _pscale(None, b, inv)
    if any(c.denominator % p == 0 for c in a + b):
        if b1.numerator % p == 0:
            raise NotInPowerSeriesRingError("denominator is not a unit at T = 0")
        c = next(c for c in taylor_shift(a, 1, None) + taylor_shift(b, 1, None)
                 if c.denominator % p == 0)
        raise ValueError(f"coefficient {c} is not p-integral at p={p}")
    return RatFuncZp(p, tuple(a), tuple(b))


def rat_fp(num, den, p: int) -> RatFuncFp:
    """Canonical form over F_p of num/den, given in T: reduced, den monic;
    den(0) must be nonzero."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    return _normal(RatFuncFp, p, taylor_shift(num, -1, p), taylor_shift(den, -1, p))


def rat_zp(num, den, p: int) -> RatFuncZp:
    """Canonical form over Q of num/den, given in T: reduced, den(0) = 1,
    coefficients p-integral; refused when that form does not exist (3/(3 + 3T)
    is 1/(1 + T), but 1/(5 + T) at p = 5 is refused)."""
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    num = taylor_shift([Fraction(x) for x in num], -1, None)
    den = taylor_shift([Fraction(x) for x in den], -1, None)
    return _normal(RatFuncZp, p, num, den)


def d_rat(f):
    """D(F) = x F'(x) = x (a'b - ab') / b**2, reduced; x a' multiplies a_i by i."""
    mod, a, b = f.mod, f.num_x, f.den_x
    da = [i * c for i, c in enumerate(a)]
    db = [i * c for i, c in enumerate(b)]
    return _normal(type(f), f.p, _psub(mod, _pmul(mod, da, b), _pmul(mod, a, db)),
                   _pmul(mod, b, b))


def u_rat(f: RatFuncFp) -> RatFuncFp:
    """U = D**(p-1) in characteristic p: the Cartier projection, reduced.

    x = 1+T splits F_p(x) into the x**i F_p(x**p), i < p, and D = x d/dx
    multiplies the i-th summand by i, so U = D**(p-1) drops i = 0 and keeps
    the rest.  Over F_p, b(x**p) = b**p, so a/b = a b**(p-1) / b(x**p) and
    U(a/b) = C / b**p with C = a b**(p-1) less its exponents divisible by p.
    Every common factor of C and b**p divides b: g = gcd(b, C mod b) is
    stripped from both until g no longer divides the denominator (that
    happens only once the factors C holds beyond b**p are all that is left).
    """
    if not isinstance(f, RatFuncFp):
        raise TypeError("U as D**(p-1) is a characteristic-p identity")
    p, a, b = f.p, f.num_x, f.den_x
    if p * (len(b) - 1) > MAX_CARTIER_DEGREE:
        raise ValueError(f"U over F_{p} of a degree-{len(b) - 1} denominator exceeds "
                         f"the degree bound {MAX_CARTIER_DEGREE}")
    den = _spread(b, p)
    top = _pmul(p, a, _pdivmod(p, den, b)[0])
    for i in range(0, len(top), p):
        top[i] = 0
    if not _trim(top):
        return RatFuncFp(p, (), (1,))
    while True:
        g = _pgcd_monic(p, b, _pdivmod(p, top, b)[1])
        if len(g) < 2:
            break
        den_g, rem = _pdivmod(p, den, g)
        if rem:
            break
        top, den = _pdivmod(p, top, g)[0], den_g
    lead = _inv(den[-1], p)
    return RatFuncFp(p, tuple(_pscale(p, top, lead)), tuple(_pscale(p, den, lead)))


def _inverted(f):
    """(e, rev(a), rev(b)) with F(1/x) = x**e rev(a) / rev(b), e = deg b - deg a."""
    a, b = f.num_x, f.den_x
    return len(b) - len(a), _trim(list(a[::-1])), _trim(list(b[::-1]))


def compose_inv(f):
    """F(iota(T)) with iota(T) = (1+T)**(-1) - 1; iota is x -> 1/x, an involution."""
    e, rev_a, rev_b = _inverted(f)
    return _normal(type(f), f.p, [0] * max(e, 0) + rev_a, [0] * max(-e, 0) + rev_b)


def _residues(poly, pn: int) -> list[int]:
    """The p-integral coefficients of `poly` mod pn."""
    return [c.numerator * pow(c.denominator, -1, pn) % pn for c in poly]


def to_ring_elem(f: RatFuncZp, n: int, m: int) -> RingElem:
    """Exact image of a rational Lambda-element in R(n, m).

    The denominator has unit constant term, so it is invertible in the
    quotient and the image of the fraction is num * den**(-1).  x**(p**m)
    is 1 mod omega_m, so x**i goes to binomial slot i mod p**m."""
    p, q, pn = f.p, f.p**m, f.p**n

    def image(poly) -> RingElem:
        slots = [0] * q
        for i, c in enumerate(_residues(poly, pn)):
            slots[i % q] += c
        return RingElem.from_binomial(p, n, m, slots)

    return image(f.num_x) * invert_unit(image(f.den_x))


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
    """H = F + (-1)**delta F(iota), the symmetrized form the criteria test.

    With F(iota) = x**e rev(a) / rev(b), H is built over the one denominator
    x**max(-e, 0) b rev(b) and reduced by one gcd of degree about 2 deg b."""
    mod = f.mod
    e, rev_a, rev_b = _inverted(f)
    sign = -1 if delta % 2 else 1
    a, b = f.num_x, f.den_x
    num = _padd(mod, [0] * max(-e, 0) + _pmul(mod, a, rev_b),
                [0] * max(e, 0) + _pscale(mod, _pmul(mod, rev_a, b), sign))
    return _normal(type(f), f.p, num, [0] * max(-e, 0) + _pmul(mod, b, rev_b))


def sym_poly_criterion(f: RatFuncFp, delta: int) -> CriterionVerdict:
    """Pseudo-rationality criterion for rational F.

    Asks whether some (1+T)**n * U(H), H = F + (-1)**delta F(iota), is a
    polynomial: U(H) is reduced against the factors of H's denominator
    (`u_rat`, which refuses F over Q), and (1+T)**n is a power of x.  On
    failure the rest of the denominator, monic in T, is the witness.
    """
    return _x_power_verdict(u_rat(sym_combination(f, delta)).den_x, f.p)


@dataclass(frozen=True)
class MuFormulaResult:
    mu: int


def mu_gamma_formula(f: RatFuncZp, delta: int) -> MuFormulaResult:
    """mu(Gamma_delta(F)) for rational F: mu(U(H)), H = F + (-1)**delta F(iota),
    read off exactly over F_p (after Sinnott, Invent. Math. 75, 1984).

    With h = a/b, b(1) = 1, U(h) mod p is `u_rat`(h mod p): if that is
    nonzero, mu(U(h)) = 0.  Otherwise h mod p = A/B with A, B in F_p[x**p]
    (A = 0 when p divides a), U kills the integer lift A~/B~, and
    U(h) = p U(K) for the p-integral K = (h - A~/B~)/p.  mu counts these
    rounds.  Each lowers mu(U(h)) >= 0 by 1, so the loop ends unless
    U(h) = 0, which happens exactly when h lies in Q(x**p): that is refused.

    Even delta != 0 needs no branch of its own.  There 2 U(F)(0) = U(H)(0),
    and U(H) - U(H)(0) has the content of U(H): it only fills the binomial
    slot of exponent 0, which U leaves empty, with minus the sum of the
    other slots.
    """
    p = f.p
    h, mu = sym_combination(f, delta), 0
    while True:
        a, b = h.num_x, h.den_x
        if all(i % p == 0 for poly in (a, b) for i, c in enumerate(poly) if c):
            raise ValueError("symmetrized combination lies in Q(x**p), so U(H) = 0: "
                             "mu is infinite")
        bar = _normal(RatFuncFp, p, _residues(a, p), _residues(b, p))
        if u_rat(bar).num_x:
            return MuFormulaResult(mu)
        lift_a, lift_b = list(bar.num_x), list(bar.den_x)
        rest = _psub(None, _pmul(None, a, lift_b), _pmul(None, lift_a, b))
        h = _normal(RatFuncZp, p, _pscale(None, rest, Fraction(1, p)), _pmul(None, b, lift_b))
        mu += 1
