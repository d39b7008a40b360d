"""Iwasawa power series of Kubota-Leopoldt p-adic L-functions.

The pipeline: build the generating rational series F_chi (or, for
conductor one, the surrogate G_c = F_chi - c sigma_c F_chi, which lies in
the power-series ring), push it through gamma_{-delta} and the Leopoldt
transform with respect to kappa**(-1), and divide out the surrogate factor.
No U is applied: Gamma_delta kills the non-unit exponents and gamma_{-delta}
keeps units and non-units apart, so Gamma_delta gamma_{-delta} U =
Gamma_delta gamma_{-delta}.  No sigma_{-1} is applied: kappa**(-1)
generates 1 + pZ_p too, and omega(r) kappa**(-e) = omega(r) (kappa**(-1))**e,
so Gamma_delta^(kappa**(-1)) = sigma_{-1} Gamma_delta^kappa.  The result is
the series f(T, theta) with

    f(kappa**(-k) - 1, theta) = L_p(-k, theta),   kappa = 1 + p d,

which is checked against independently computed exact Bernoulli numbers.
Invariant certification escalates the omega-level until the canonical
representative shows a unit coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt

import numpy as np

from .padic import (
    MAX_MODULUS_BITS,
    MAX_RING_SIZE,
    PadicInt,
    kappa_unit_table,
    require_precision,
    require_ring_size,
    teichmuller,
    teichmuller_twist,
)
from .ring import (
    InvariantReport,
    RingElem,
    _divide_binomial,
    evaluate,
    invariants,
    op_isotypic,
    op_leopoldt,
    taylor_shift,
)
from .ring import _pdiv_exact
from .characters import (
    MAX_CONDUCTOR,
    DirichletCharacter,
    ThetaCharacter,
    _prime_factors,
    lp_value,
    enumerate_even_theta,
)
from .ratfun import (
    RatFuncFp,
    CriterionVerdict,
    _normal,
    sym_poly_criterion,
)

# The bounds are exact integers of about phi(p-1) * log2(4p(p-1)) bits.
MAX_BOUND_BITS = 2**14


def euler_phi(n: int) -> int:
    out = n
    for ell in _prime_factors(n):
        out -= out // ell
    return out


# -- generating series ------------------------------------------------------


def f_chi(chi: DirichletCharacter, n: int, m: int) -> RingElem:
    """The generating series of chi as an exact element of R(n, m).

    F = (sum_{a<=d} chi(a) x**a) / (1 - x**d), x = 1+T, is the Bernoulli
    distribution of chi (Washington, Introduction to Cyclotomic Fields,
    12.1): with Q = p**m its binomial view is
    b_r = -d**(-1) * sum_{j=1}^{d-1} j chi(r + jQ), which depends on r mod d
    only.  O(d min(d, Q)) for the distinct entries, O(Q) for the view.
    """
    p, d = chi.p, chi.d
    if d < 2:
        raise ValueError("f_chi needs conductor d >= 2 (use g_c_surrogate for d = 1)")
    if d % p == 0:
        raise ValueError("d must be prime to p")
    q = p**m
    pn = p**n
    values = teichmuller_twist(p, n, 1)[list(chi.residues)].tolist()  # chi(a), a mod d
    width = min(d, q)
    scale = -pow(d, -1, pn)
    distinct = [scale * sum(j * values[(r + j * q) % d] for j in range(1, d)) % pn
                for r in range(width)]
    return RingElem.from_binomial(p, n, m, np.array(distinct)[np.arange(q) % width])


def surrogate_h_poly(c: int) -> list[int]:
    """h_c(x) = ((c-1) x**c - c x**(c-1) + 1) / (x-1)**2 = 1 + 2x + ...
    + (c-1) x**(c-2), the derivative of (x**c - 1)/(x - 1)."""
    return list(range(1, c))


@lru_cache(maxsize=4)
def g_c_surrogate(p: int, c: int, n: int, m: int) -> RingElem:
    """G_c = F_chi - c sigma_c(F_chi) for the conductor-one F_chi = -(1+T)/T.

    Closed form x h_c(x) / (1 + x + ... + x**(c-1)); the denominator has
    unit constant term c, so G_c is an exact element of R(n, m).  Its
    binomial view is the Bernoulli distribution E_{1,c}(-r + Q Z_p):
    b_r = (c-1)/2 - floor(c s / Q) with s = -c**(-1) r mod Q, Q = p**m.
    """
    if not 2 <= c <= p - 1:
        raise ValueError(f"need 2 <= c <= p-1, got c={c}")
    q = p**m
    pn = p**n
    half = (c - 1) * pow(2, -1, pn)
    values = np.array([(half - k) % pn for k in range(c)])  # floor(c s / Q) < c
    s = -pow(c, -1, q) * np.arange(q, dtype=np.int64) % q
    return RingElem.from_binomial(p, n, m, values[c * s // q])


def valid_multipliers(p: int, delta: int) -> list[int]:
    """Integers c in 2..p-1 with c**(delta+1) != 1 mod p: exactly those whose
    surrogate factor 1 - c omega(c)**delta (1+T)**e_c is a unit."""
    return (np.flatnonzero(teichmuller_twist(p, 1, delta + 1)[2:] != 1) + 2).tolist()


def iwasawa_series(theta: ThetaCharacter, n: int, m: int,
                   c: int | None = None) -> RingElem:
    """f(T, theta) as an exact element of R(n, m), kappa = 1 + p d.

    The source is built one omega-level higher, as the Leopoldt transform
    consumes one; Gamma_delta is taken with respect to kappa**(-1), and no
    U or sigma_{-1} is applied (see the module docstring).  For d = 1 the
    surrogate factor 1 - c omega(c)**delta (1+T)**e_c, with the least valid
    multiplier c or the one supplied, is divided out along the orbits of
    a -> a + e_c.  Every step after the source (see f_chi) is O(p**(m+1)).
    """
    p = theta.p
    chi = theta.chi
    d = chi.d
    delta = theta.delta
    require_precision(p, n)
    require_ring_size(p, m + 1)
    if d >= 2:
        src = f_chi(chi, n, m + 1)
    else:
        if c is None:
            c = valid_multipliers(p, delta)[0]
        elif pow(c, delta + 1, p) == 1:
            raise ValueError(f"multiplier c={c} has c**(delta+1) = 1 mod p")
        src = g_c_surrogate(p, c, n, m + 1)
    # mod p**(m+2), so that it is a generator of 1 + pZ_p at m = 0 as well
    kappa_inv = pow(1 + p * d, -1, p ** (m + 2))
    h = op_leopoldt(op_isotypic(src, -delta), delta, kappa_inv)
    if d == 1:
        beta = c * pow(teichmuller(c, p, n).value, delta, p**n)
        # e_c = Log_p(c)/Log_p(kappa**(-1)) mod p**m: c's column in op_leopoldt's table
        e_c = int(np.flatnonzero(kappa_unit_table(p, m + 1, kappa_inv)[c - 1] == c)[0])
        h = _divide_binomial(h, beta, e_c)
    return h


# -- bounds and reports ------------------------------------------------------


def bounds(p: int, d: int) -> dict[str, int]:
    """The lambda bounds as exact integers: the sharpened bound, Rosenberg's
    earlier bound, and the derived bound for the cyclotomic field."""
    if d % p == 0:
        raise ValueError("d must be prime to p")
    if not 1 <= d <= MAX_CONDUCTOR:
        raise ValueError(f"conductor d = {d} is outside 1..{MAX_CONDUCTOR}")
    width = (4 * p * (p - 1)).bit_length()
    # phi(n) >= sqrt(n/2) refuses a huge p before p-1 is factored
    if (isqrt((p - 1) // 2) * width > MAX_BOUND_BITS
            or (phi_pm1 := euler_phi(p - 1)) * width > MAX_BOUND_BITS):
        raise ValueError(f"lambda bounds for p = {p} exceed {MAX_BOUND_BITS} bits")
    base = (p - 1) // 2 * euler_phi(d)
    return {
        "new": base**phi_pm1,
        "rosenberg": (4 * p * (p - 1)) ** phi_pm1,
        "field": 2 * base ** (phi_pm1 + 1),
    }


@dataclass(frozen=True)
class InterpolationCheck:
    k: int
    lhs: PadicInt
    rhs: PadicInt

    @property
    def ok(self) -> bool:
        return self.lhs.value == self.rhs.value and self.lhs.precision == self.rhs.precision


@dataclass(frozen=True)
class IwasawaSeriesReport:
    theta: ThetaCharacter
    kappa: int
    series: RingElem
    invariants: InvariantReport
    bound_new: int
    bound_rosenberg: int
    checks: tuple[InterpolationCheck, ...]

    @property
    def certified(self) -> bool:
        return self.invariants.certified


def interpolation_selfcheck(theta: ThetaCharacter, ks, n: int,
                            f: RingElem | None = None) -> list[InterpolationCheck]:
    """Compare f(kappa**(-k) - 1) against the exact Bernoulli L-value mod p**n.

    The two sides travel independent routes: the left through the operator
    pipeline and Horner evaluation, the right through exact Bernoulli numbers.
    """
    p = theta.p
    kappa = 1 + p * theta.chi.d
    if f is None:
        f = iwasawa_series(theta, n, max(n - 1, 1))
    if min(f.n, f.m + 1) < n:
        raise ValueError(f"series level ({f.n},{f.m}) cannot certify mod p^{n}")
    out = []
    for k in ks:
        if k % (p - 1) != theta.delta % (p - 1):
            raise ValueError(f"k={k} is not congruent to delta mod p-1")
        t = PadicInt(p, f.n, pow(kappa, -k, p**f.n) - 1)
        lhs = evaluate(f, t).reduce(n)
        rhs = lp_value(theta, k, n)
        out.append(InterpolationCheck(k, lhs, rhs))
    return out


def default_check_exponents(theta: ThetaCharacter, count: int = 3) -> list[int]:
    """The `count` smallest positive exponents congruent to delta mod p-1."""
    p = theta.p
    start = theta.delta % (p - 1)
    if start == 0:
        start = p - 1
    return [start + (p - 1) * i for i in range(count)]


def iwasawa_invariants(theta: ThetaCharacter, m_max: int = 4, n: int = 2,
                       check_precision: int | None = None) -> IwasawaSeriesReport:
    """Certify (mu, lambda) of f(T, theta), escalating the omega-level.

    Levels m = 1, 2, 4, ... are tried until the invariants certify or the
    budget runs out; the report carries the interpolation cross-checks at
    the two least positive k = delta mod p-1 and the bound comparisons, and
    a certified lambda violating the bound is a hard error.
    """
    p = theta.p
    kappa = 1 + p * theta.chi.d
    m = 1
    while True:
        f = iwasawa_series(theta, n, m)
        rep = invariants(f)
        if rep.certified:
            break
        m_next = max(m + 1, 2 * m)
        if m_next > m_max or p ** (m_next + 1) > MAX_RING_SIZE:
            break
        m = m_next
    checks: tuple[InterpolationCheck, ...] = ()
    if check_precision:
        ks = default_check_exponents(theta, 2)
        checks = tuple(interpolation_selfcheck(
            theta, ks, check_precision,
            f if min(f.n, f.m + 1) >= check_precision else None))
    b = bounds(p, theta.chi.d)
    if rep.certified and rep.lambda_certified >= b["new"]:
        raise ArithmeticError(
            f"certified lambda {rep.lambda_certified} violates the bound {b['new']}")
    return IwasawaSeriesReport(theta, kappa, f, rep, b["new"], b["rosenberg"], checks)


@dataclass(frozen=True)
class LambdaSumReport:
    p: int
    entries: tuple[tuple[str, int | None], ...]
    total: int | None
    indeterminate: tuple[str, ...]


def lambda_sum_cyclotomic(p: int, m_max: int = 4, n: int = 2) -> LambdaSumReport:
    """Sum of certified lambda(theta) over all even nontrivial theta at d = 1."""
    entries = []
    stuck = []
    total = 0
    for theta in enumerate_even_theta(p, 1):
        rep = iwasawa_invariants(theta, m_max=m_max, n=n)
        lam = rep.invariants.lambda_certified
        entries.append((theta.label(), lam))
        if lam is None:
            stuck.append(theta.label())
        else:
            total += lam
    return LambdaSumReport(p, tuple(entries), None if stuck else total, tuple(stuck))


# -- pseudo-rationality evidence ---------------------------------------------


def cyclotomic_poly(d: int) -> list[int]:
    """d-th cyclotomic polynomial over Z (coefficient list)."""
    poly = [-1] + [0] * (d - 1) + [1]  # x**d - 1
    for d2 in range(1, d):
        if d % d2 == 0:
            poly = _pdiv_exact(poly, cyclotomic_poly(d2))
    return poly


def f_chi_bar(chi: DirichletCharacter) -> RatFuncFp:
    """Reduction of F_chi mod p as an exact rational function over F_p."""
    p, d = chi.p, chi.d
    if d < 2:
        raise ValueError("conductor must be >= 2")
    num_x = [0] + [chi.residue(a) for a in range(1, d + 1)]
    den_x = [1] + [0] * (d - 1) + [-1]  # 1 - x**d
    return _normal(RatFuncFp, p, num_x, den_x)


def g_c_bar(p: int, c: int) -> RatFuncFp:
    """Reduction mod p of the conductor-one surrogate G_c = x h_c(x) / S_c(x)."""
    return _normal(RatFuncFp, p, [0] + surrogate_h_poly(c), [1] * c)


@dataclass(frozen=True)
class PseudoRationalReport:
    label: str
    delta: int
    denominator_matches: bool
    expected_denominator: tuple[int, ...]
    reduced_denominator: tuple[int, ...]
    criterion: CriterionVerdict

    @property
    def not_pseudorational(self) -> bool:
        return self.denominator_matches and not self.criterion.holds


def not_pseudorational_report(chi: DirichletCharacter, delta: int) -> PseudoRationalReport:
    """Evidence that the reduced Iwasawa series is not pseudo-rational.

    Builds the rational source mod p, confirms its reduced denominator
    (the d-th cyclotomic polynomial in 1+T; 2+T for the d = 1 surrogate G_2),
    and runs the symmetrized-polynomial criterion, whose failure witness
    is reported.
    """
    p = chi.p
    if chi.d >= 2:
        fbar = f_chi_bar(chi)
        expected = tuple(taylor_shift(cyclotomic_poly(chi.d), 1, p))
        label = chi.label()
    else:
        fbar = g_c_bar(p, 2)
        expected = tuple(taylor_shift([1, 1], 1, p))
        label = "G_2 (d=1 surrogate)"
    den = fbar.den
    verdict = sym_poly_criterion(fbar, delta)
    return PseudoRationalReport(label, delta % (p - 1),
                                den == expected, expected, den, verdict)
