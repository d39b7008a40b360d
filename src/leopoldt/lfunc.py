"""Iwasawa power series of Kubota-Leopoldt p-adic L-functions.

The pipeline: build the generating rational series F_chi (or, for
conductor one, the surrogate G_c = F_chi - c sigma_c F_chi, which lies in
the power-series ring), push it through U, gamma_{-delta} and the
Leopoldt transform, divide out the surrogate factor, and flip variables
with sigma_{-1}.  The result is the series f(T, theta) with

    f(kappa**(-k) - 1, theta) = L_p(-k, theta),   kappa = 1 + p d,

which is checked against independently computed Bernoulli limit sums.
Invariant certification escalates the omega-level until the canonical
representative shows a unit coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .padic import PadicInt, kappa_exponent, teichmuller
from .ring import (
    InvariantReport,
    RingElem,
    _solve_binomial_inverse,
    evaluate,
    invariants,
    op_isotypic,
    op_leopoldt,
    op_unit_part,
    substitute_exp,
)
from .ring import _ipoly_div_exact, _ipoly_trim
from .characters import (
    DirichletCharacter,
    ThetaCharacter,
    lp_value,
    enumerate_even_theta,
)
from .ratfun import (
    RatFuncFp,
    CriterionVerdict,
    rat_fp,
    sym_poly_criterion,
    taylor_shift,
)

MAX_RING_SIZE = 10**5


def require_ring_size(p: int, e: int) -> None:
    """Refuse a ring of p**e coefficients above MAX_RING_SIZE, or e < 0,
    before anything is allocated (p**e itself is not formed for large e)."""
    if e < 0:
        raise ValueError(f"omega-level {e} is negative")
    if e >= MAX_RING_SIZE.bit_length() or p**e > MAX_RING_SIZE:
        raise ValueError(f"{p}**{e} coefficients exceed size bound {MAX_RING_SIZE}")


def euler_phi(n: int) -> int:
    out = n
    f = 2
    while f * f <= n:
        if n % f == 0:
            out -= out // f
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out -= out // n
    return out


# -- generating series ------------------------------------------------------


@lru_cache(maxsize=32)
def _geometric_inverse_view(p: int, n: int, m: int, d: int) -> tuple[int, ...]:
    """Binomial view of (1 + x + ... + x**(d-1))**(-1) in R(n, m), x = 1+T.

    (x-1) * sum_{j<Q} x**(jd) is exactly divisible by x**Q - 1 (Q = p**m),
    and S_d times the quotient is sum_{i<d} x**(iQ) = d mod (x**Q - 1), so
    the inverse is the quotient times d**(-1).  Linear time in d*Q.
    """
    if d % p == 0:
        raise ValueError("d must be prime to p")
    q = p**m
    pn = p**n
    deg = d * (q - 1) + 1
    work = [0] * (deg + 1)
    for j in range(q):
        work[j * d] -= 1
        work[j * d + 1] += 1
    quot = [0] * (deg - q + 1)
    for i in range(deg, q - 1, -1):
        c = work[i]
        if c:
            quot[i - q] += c
            work[i - q] += c
            work[i] = 0
    if any(work):
        raise ArithmeticError("cyclic quotient identity failed")  # pragma: no cover
    out = [0] * q
    for i, c in enumerate(quot):
        if c:
            out[i % q] = (out[i % q] + c) % pn
    dinv = pow(d, -1, pn)
    return tuple((x * dinv) % pn for x in out)


def _mul_short_cyclic(view, short, p: int, n: int) -> list[int]:
    """Cyclic product of a dense binomial view with a short x-polynomial.

    The short polynomial is first folded mod x**Q - 1, so it may be longer
    than the view (conductor d > Q in f_chi)."""
    q = len(view)
    pn = p**n
    folded = [0] * min(len(short), q)
    for i, c in enumerate(short):
        folded[i % q] += c
    out = [0] * q
    for i, c in enumerate(folded):
        if c % pn:
            cc = c % pn
            for a, v in enumerate(view):
                if v:
                    k = a + i
                    if k >= q:
                        k -= q
                    out[k] = (out[k] + cc * v) % pn
    return out


def _divide_out_x_minus_1(coeffs: list[int], pn: int) -> list[int]:
    """Exact division of an x-polynomial by (x - 1) mod pn; remainder must vanish."""
    deg = len(coeffs) - 1
    quot = [0] * deg
    carry = 0
    for i in range(deg - 1, -1, -1):
        carry = (coeffs[i + 1] + carry) % pn
        quot[i] = carry
    if (coeffs[0] + quot[0]) % pn != 0:
        raise ArithmeticError("polynomial is not divisible by x - 1")
    return quot


def f_chi(chi: DirichletCharacter, n: int, m: int) -> RingElem:
    """The generating series of chi as an exact element of R(n, m).

    F = (sum_{a<=d} chi(a) x**a) / (1 - x**d): the numerator vanishes at
    x = 1 because chi is nontrivial, so after cancelling (x - 1) only the
    geometric factor with unit constant term d remains to invert.
    """
    p, d = chi.p, chi.d
    if d < 2:
        raise ValueError("f_chi needs conductor d >= 2 (use g_c_surrogate for d = 1)")
    pn = p**n
    numer = [0] * (d + 1)
    for a in range(1, d + 1):
        r = chi.residue(a)
        if r:
            numer[a] = teichmuller(r, p, n).value
    n1 = _divide_out_x_minus_1(numer, pn)
    inv = _geometric_inverse_view(p, n, m, d)
    view = _mul_short_cyclic(inv, [(-c) % pn for c in n1], p, n)
    return RingElem.from_binomial(p, n, m, view)


def surrogate_h_poly(c: int) -> list[int]:
    """h_c(x) = ((c-1) x**c - c x**(c-1) + 1) / (x-1)**2, an exact integer
    polynomial (the numerator has a double root at 1)."""
    numer = [0] * (c + 1)
    numer[0] = 1
    numer[c - 1] = -c
    numer[c] += c - 1
    return _ipoly_div_exact(_ipoly_trim(numer), [1, -2, 1])


def g_c_surrogate(p: int, c: int, n: int, m: int) -> RingElem:
    """G_c = F_chi - c sigma_c(F_chi) for the conductor-one F_chi = -(1+T)/T.

    Closed form x h_c(x) / (1 + x + ... + x**(c-1)); the denominator has
    unit constant term c, so G_c is an exact element of R(n, m).
    """
    if not 2 <= c <= p - 1:
        raise ValueError(f"need 2 <= c <= p-1, got c={c}")
    pn = p**n
    inv = _geometric_inverse_view(p, n, m, c)
    hc = [x % pn for x in surrogate_h_poly(c)]
    view = _mul_short_cyclic(inv, hc, p, n)
    view = [view[-1]] + view[:-1]  # multiply by x: rotate exponents up by 1
    return RingElem.from_binomial(p, n, m, view)


def valid_multipliers(p: int, delta: int) -> list[int]:
    """Integers c in 2..p-1 with c**(delta+1) != 1 mod p: exactly those whose
    surrogate factor 1 - c omega(c)**delta (1+T)**e_c is a unit."""
    return [c for c in range(2, p) if pow(c, delta + 1, p) != 1]


def iwasawa_series(theta: ThetaCharacter, n: int, m: int,
                   c: int | None = None) -> RingElem:
    """f(T, theta) as an exact element of R(n, m), kappa = 1 + p d.

    The source series is built one omega-level higher because the Leopoldt
    transform consumes a level.  For d = 1 the surrogate factor is divided
    out with the least valid multiplier c (or the one supplied), and the
    final sigma_{-1} turns f(1/(1+T) - 1, theta) into f(T, theta).
    """
    p = theta.p
    chi = theta.chi
    d = chi.d
    delta = theta.delta
    kappa = 1 + p * d
    require_ring_size(p, m + 1)
    if d >= 2:
        src = f_chi(chi, n, m + 1)
    else:
        if c is None:
            c = valid_multipliers(p, delta)[0]
        elif pow(c, delta + 1, p) == 1:
            raise ValueError(f"multiplier c={c} has c**(delta+1) = 1 mod p")
        src = g_c_surrogate(p, c, n, m + 1)
    h = op_unit_part(src)
    h = op_isotypic(h, -delta)
    h = op_leopoldt(h, delta, kappa)
    if d == 1:
        pn = p**n
        beta = c * pow(teichmuller(c, p, n).value, delta, pn) % pn
        if m >= 1:
            e_c = kappa_exponent(PadicInt(p, m + 1, c),
                                 PadicInt(p, m + 1, kappa), m).value
        else:
            e_c = 0
        h = h * _solve_binomial_inverse(p, n, m, beta, e_c)
    return substitute_exp(h, -1)


# -- bounds and reports ------------------------------------------------------


def bounds(p: int, d: int) -> dict[str, int]:
    """The lambda bounds as exact integers: the sharpened bound, Rosenberg's
    earlier bound, and the derived bound for the cyclotomic field."""
    if d % p == 0:
        raise ValueError("d must be prime to p")
    phi_pm1 = euler_phi(p - 1)
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
    """Compare f(kappa**(-k) - 1) against the Bernoulli-sum L-value mod p**n.

    The two sides travel independent routes: the left through the operator
    pipeline and Horner evaluation, the right through limit sums.
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
                       check_precision: int | None = None,
                       check_count: int = 2) -> IwasawaSeriesReport:
    """Certify (mu, lambda) of f(T, theta), escalating the omega-level.

    Levels m = 1, 2, 4, ... are tried until the invariants certify or the
    budget runs out; the report carries the interpolation cross-checks and
    the bound comparisons, and a certified lambda violating the bound is a
    hard error.
    """
    p = theta.p
    kappa = 1 + p * theta.chi.d
    f = None
    rep = None
    m = 1
    tried = []
    while True:
        f = iwasawa_series(theta, n, m)
        rep = invariants(f)
        tried.append(m)
        if rep.certified:
            break
        m_next = max(m + 1, 2 * m)
        if m_next > m_max or p ** (m_next + 1) > MAX_RING_SIZE:
            break
        m = m_next
    checks: tuple[InterpolationCheck, ...] = ()
    if check_precision:
        ks = default_check_exponents(theta, check_count)
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
            poly = _ipoly_div_exact(poly, cyclotomic_poly(d2))
    return poly


def f_chi_bar(chi: DirichletCharacter) -> RatFuncFp:
    """Reduction of F_chi mod p as an exact rational function over F_p."""
    p, d = chi.p, chi.d
    if d < 2:
        raise ValueError("conductor must be >= 2")
    num_x = [0] + [chi.residue(a) for a in range(1, d + 1)]
    den_x = [1] + [0] * (d - 1) + [-1]  # 1 - x**d
    return rat_fp(taylor_shift(num_x, 1, p), taylor_shift(den_x, 1, p), p)


def g_c_bar(p: int, c: int) -> RatFuncFp:
    """Reduction mod p of the conductor-one surrogate G_c = x h_c(x) / S_c(x)."""
    num_x = [0] + surrogate_h_poly(c)
    den_x = [1] * c
    return rat_fp(taylor_shift(num_x, 1, p), taylor_shift(den_x, 1, p), p)


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


def not_pseudorational_report(chi: DirichletCharacter, delta: int,
                              c: int = 2) -> PseudoRationalReport:
    """Evidence that the reduced Iwasawa series is not pseudo-rational.

    Builds the rational source mod p, confirms its reduced denominator
    (the d-th cyclotomic polynomial in 1+T; 2+T for the d = 1 surrogate),
    and runs the symmetrized-polynomial criterion, whose failure witness
    is reported.
    """
    p = chi.p
    if chi.d >= 2:
        fbar = f_chi_bar(chi)
        expected = taylor_shift(cyclotomic_poly(chi.d), 1, p)
        label = chi.label()
    else:
        fbar = g_c_bar(p, c)
        expected = taylor_shift([1] * c, 1, p)
        label = f"G_{c} (d=1 surrogate)"
    lead = pow(expected[-1], -1, p)
    expected = tuple(x * lead % p for x in expected)
    verdict = sym_poly_criterion(fbar, delta)
    return PseudoRationalReport(label, delta % (p - 1),
                                fbar.den == expected, expected, fbar.den, verdict)
