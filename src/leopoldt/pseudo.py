"""Pseudo-polynomials: finite sums  sum_i c_i (1+T)**a_i  with p-adic exponents.

Exponents are carried modulo p**M (exponent precision M), coefficients
modulo p**n.  Term-level operator actions are exact, and equality testing
is three-valued: a comparison whose outcome depends on digits beyond the
exponent precision raises IndecisiveError instead of guessing.

The Leopoldt transform sends a unit exponent a to Log_p(a)/Log_p(kappa).
Up to p**M = MAX_RING_SIZE it reads that image from the cached
kappa_exponent_table that the ring operators use; above the bound it runs
the logarithm series per term, with Log_p(kappa) computed once per call.
The coefficient twists omega(a)**delta are gathered once per residue.
"""

from __future__ import annotations

from .padic import (
    MAX_RING_SIZE,
    PadicInt,
    PrecisionError,
    is_odd_prime,
    kappa_exponent_table,
    kappa_exponents,
    require_generator,
    teichmuller_table,
    teichmuller_twist,
)
from .ring import RingElem


class IndecisiveError(ValueError):
    """Exponent precision too small to decide the comparison (never guesses)."""


class PseudoPoly:
    """sum of c * (1+T)**a with exponents pairwise distinct mod p**M.

    Terms with equal exponent residues are merged on construction and zero
    coefficients dropped, so the representation is canonical for the given
    precisions (n for coefficients, M for exponents).  When two terms with
    nonzero coefficients collide at the exponent precision, the merge may
    misrepresent a pseudo-polynomial whose true exponents differ beyond
    precision M: the object is then marked `collided`, and equality tests
    involving it escalate rather than answer "equal".
    """

    __slots__ = ("p", "n", "M", "terms", "collided")

    def __init__(self, p: int, n: int, M: int, terms, collided: bool = False):
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if n < 1 or M < 1:
            raise ValueError("precisions must be >= 1")
        self.p = p
        self.n = n
        self.M = M
        pn = p**n
        qm = p**M
        merged: dict[int, int] = {}
        nonzero_hits: dict[int, int] = {}
        for c, a in terms:
            if isinstance(a, PadicInt):
                if a.p != p:
                    raise ValueError("mixed primes")
                if a.precision < M:
                    raise PrecisionError(f"exponent needs precision >= {M}")
                a = a.value
            key = a % qm
            merged[key] = (merged.get(key, 0) + c) % pn
            if c % pn:
                nonzero_hits[key] = nonzero_hits.get(key, 0) + 1
        self.collided = collided or any(v > 1 for v in nonzero_hits.values())
        self.terms: tuple[tuple[int, int], ...] = tuple(
            (c, a) for a, c in sorted(merged.items()) if c != 0)

    def is_zero(self) -> bool:
        return not self.terms

    def _same(self, other: "PseudoPoly") -> None:
        if (self.p, self.n, self.M) != (other.p, other.n, other.M):
            raise ValueError("pseudo-polynomials live in different contexts")

    def __add__(self, other: "PseudoPoly") -> "PseudoPoly":
        self._same(other)
        return PseudoPoly(self.p, self.n, self.M, self.terms + other.terms,
                          collided=self.collided or other.collided)

    def __neg__(self) -> "PseudoPoly":
        return PseudoPoly(self.p, self.n, self.M, [(-c, a) for c, a in self.terms],
                          collided=self.collided)

    def __sub__(self, other: "PseudoPoly") -> "PseudoPoly":
        return self + (-other)

    def __mul__(self, other: "PseudoPoly") -> "PseudoPoly":
        self._same(other)
        prods = [(c1 * c2, a1 + a2) for c1, a1 in self.terms for c2, a2 in other.terms]
        return PseudoPoly(self.p, self.n, self.M, prods,
                          collided=self.collided or other.collided)

    def scale(self, c: int) -> "PseudoPoly":
        return PseudoPoly(self.p, self.n, self.M, [(c * x, a) for x, a in self.terms],
                          collided=self.collided)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PseudoPoly):
            return NotImplemented
        return (self.p, self.n, self.M, self.terms) == (other.p, other.n, other.M, other.terms)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.M, self.terms))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*(1+T)^{a}" for c, a in self.terms) or "0"
        return f"PseudoPoly(p={self.p}, n={self.n}, M={self.M}: {body})"


def equal_test(lhs: PseudoPoly, rhs: PseudoPoly, n: int) -> bool:
    """Decide lhs = rhs mod (p**n, omega_{N+1}) by coefficient comparison.

    With all exponents distinct at the carried precision, the difference
    vanishes iff every coefficient does (N is the pairwise valuation bound
    of the exponent differences, below the precision by hypothesis).  When
    a "true" answer would lean on a collision, either one recorded at
    construction time or a cross-side cancellation at a shared residue,
    the outcome depends on exponent digits beyond precision M:
    IndecisiveError, never a wrong boolean.  "False" is always safe:
    splitting a merged residue class cannot make a nonzero total vanish.
    """
    lhs._same(rhs)
    if n > lhs.n:
        raise PrecisionError(f"coefficients only known mod p^{lhs.n}")
    pn = lhs.p**n
    tainted = lhs.collided or rhs.collided
    if lhs.terms == rhs.terms and not tainted:
        return True
    groups: dict[int, list[int]] = {}
    for c, a in lhs.terms:
        groups.setdefault(a, []).append(c)
    for c, a in rhs.terms:
        groups.setdefault(a, []).append(-c)
    cancelling = False
    for cs in groups.values():
        if sum(cs) % pn != 0:
            return False
        if len(cs) > 1 and any(c % pn != 0 for c in cs):
            cancelling = True
    if tainted or cancelling:
        raise IndecisiveError(
            "terms collide at exponent precision M; raise M to decide")
    return True


def to_ring(f: PseudoPoly, n: int, m: int) -> RingElem:
    """Image in R(n, m): binomial coordinate [a]_m picks up each coefficient."""
    if m > f.M:
        raise PrecisionError(f"exponents only known mod p^{f.M}")
    if n > f.n:
        raise PrecisionError(f"coefficients only known mod p^{f.n}")
    q = f.p**m
    b = [0] * q
    for c, a in f.terms:
        b[a % q] += c
    return RingElem.from_binomial(f.p, n, m, b)


def apply_derivative(f: PseudoPoly) -> PseudoPoly:
    """D = (1+T) d/dT: multiply each coefficient by its exponent.

    The exponent is only known mod p**M, so the coefficient precision of
    the result is min(n, M).
    """
    n2 = min(f.n, f.M)
    return PseudoPoly(f.p, n2, f.M, [(c * a, a) for c, a in f.terms],
                      collided=f.collided)


def apply_unit_part(f: PseudoPoly) -> PseudoPoly:
    """U: delete terms whose exponent is divisible by p."""
    return PseudoPoly(f.p, f.n, f.M,
                      [(c, a) for c, a in f.terms if a % f.p != 0],
                      collided=f.collided)


def apply_isotypic(f: PseudoPoly, delta: int) -> PseudoPoly:
    """gamma_delta: terms (eta**delta c / (p-1), eta a) over eta in mu_{p-1}."""
    p = f.p
    pn = p**f.n
    inv = pow(p - 1, -1, pn)
    tw = [w * inv % pn for w in teichmuller_twist(p, f.n, delta).tolist()]
    tei_m = teichmuller_table(p, f.M)
    out = [(tw[r] * c % pn, tei_m[r] * a) for c, a in f.terms for r in range(1, p)]
    return PseudoPoly(p, f.n, f.M, out, collided=f.collided)


def apply_leopoldt(f: PseudoPoly, delta: int, kappa: int,
                   out_precision: int | None = None) -> PseudoPoly:
    """Gamma_delta on terms: unit exponents a map to Log_p(a)/Log_p(kappa).

    Output exponents live at precision out_precision <= M - 1.
    """
    p = f.p
    require_generator(kappa, p)
    if f.M < 2:
        raise PrecisionError("need exponent precision M >= 2 for Gamma")
    m_out = f.M - 1 if out_precision is None else out_precision
    if m_out > f.M - 1:
        raise PrecisionError("Gamma determines exponents only mod p^(M-1)")
    pn = p**f.n
    q_out = p**m_out
    tw = teichmuller_twist(p, f.n, delta).tolist()
    units = [(c, a) for c, a in f.terms if a % p]
    if p**f.M <= MAX_RING_SIZE:
        exps = kappa_exponent_table(p, f.M, kappa)[[a for _, a in units]].tolist()
    else:
        exps = [e.value for e in kappa_exponents(
            [PadicInt(p, f.M, a) for _, a in units], PadicInt(p, f.M, kappa), f.M - 1)]
    out = [(c * tw[a % p] % pn, e % q_out) for (c, a), e in zip(units, exps)]
    return PseudoPoly(p, f.n, m_out, out, collided=f.collided)
