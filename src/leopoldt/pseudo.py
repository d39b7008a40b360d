"""Pseudo-polynomials: finite sums  sum_i c_i (1+T)**a_i  with p-adic exponents.

Exponents are carried modulo p**M (exponent precision M), coefficients
modulo p**n, in two sorted parallel numpy arrays of
`residue_dtype(max(p**n, p**M))`: int64 below 2**31, else Python ints.
The constructor, +, -, every apply_* and equal_test end in one merge, a
stable sort and add.reduceat, O(k log k) on k terms.  Term-level operator
actions are exact, and equality testing is three-valued: a comparison
whose outcome depends on digits beyond the exponent precision raises
IndecisiveError instead of guessing.

The Leopoldt transform sends a unit exponent a to Log_p(a)/Log_p(kappa).
Up to p**M = MAX_RING_SIZE it gathers that image from the cached
kappa_exponent_table that the ring operators use; above the bound it runs
the logarithm series per term, with Log_p(kappa) computed once per call.
The coefficient twists omega(a)**delta are gathered from one cached table.
"""

from __future__ import annotations

import numpy as np

from .padic import (
    MAX_RING_SIZE,
    PadicInt,
    PrecisionError,
    is_odd_prime,
    kappa_exponent_table,
    kappa_exponents,
    require_generator,
    require_precision,
    require_ring_size,
    residue_dtype,
    teichmuller_twist,
)
from .ring import RingElem


class IndecisiveError(ValueError):
    """Exponent precision too small to decide the comparison (never guesses)."""


class PseudoPoly:
    """sum of c * (1+T)**a with exponents pairwise distinct mod p**M.

    Stored as `_a`, the exponent residues mod p**M in increasing order, and
    `_c`, their coefficients mod p**n, all nonzero, both of
    `residue_dtype(max(p**n, p**M))`.
    Terms with equal exponent residues are merged on construction and zero
    coefficients dropped, so the representation is canonical for the given
    precisions (n for coefficients, M for exponents).  When two terms with
    nonzero coefficients collide at the exponent precision, the merge may
    misrepresent a pseudo-polynomial whose true exponents differ beyond
    precision M: the object is then marked `collided`, and equality tests
    involving it escalate rather than answer "equal".  Construction, +, -
    and each operator cost O(k log k) for k terms.
    """

    __slots__ = ("p", "n", "M", "collided", "_a", "_c")

    def __init__(self, p: int, n: int, M: int, terms, collided: bool = False):
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        require_precision(p, n)  # n, M >= 1 and p**n, p**M bounded
        require_precision(p, M)
        pn, qm = p**n, p**M
        cs, exps = [], []
        for c, a in terms:
            if isinstance(a, PadicInt):
                if a.p != p:
                    raise ValueError("mixed primes")
                if a.precision < M:
                    raise PrecisionError(f"exponent needs precision >= {M}")
                a = a.value
            cs.append(c % pn)
            exps.append(a % qm)
        self._merge(p, n, M, exps, cs, collided)

    def _merge(self, p: int, n: int, M: int, a, c, collided: bool) -> None:
        """Canonical form of sum c[i] (1+T)**a[i]: per exponent residue, sum the
        coefficients, count the nonzero ones (two set `collided`), drop zero sums."""
        pn = p**n
        dtype = residue_dtype(max(pn, p**M))
        wide = object if dtype is object else None  # widen int64 before reducing
        a = (np.asarray(a, dtype=wide) % p**M).astype(dtype, copy=False)
        c = (np.asarray(c, dtype=wide) % pn).astype(dtype, copy=False)
        order = np.argsort(a, kind="stable")
        a, c = a[order], c[order]
        starts = np.flatnonzero(np.concatenate(([True], a[1:] != a[:-1]))[:len(a)])
        sums = np.add.reduceat(c, starts) % pn
        self.p, self.n, self.M = p, n, M
        self.collided = bool(collided or (np.add.reduceat(c != 0, starts) > 1).any())
        self._a, self._c = a[starts][sums != 0], sums[sums != 0]

    @property
    def terms(self) -> tuple[tuple[int, int], ...]:
        """The (coefficient, exponent) pairs in increasing exponent order."""
        return tuple(zip(self._c.tolist(), self._a.tolist()))

    def is_zero(self) -> bool:
        return not len(self._a)

    def _same(self, other: "PseudoPoly") -> None:
        if (self.p, self.n, self.M) != (other.p, other.n, other.M):
            raise ValueError("pseudo-polynomials live in different contexts")

    def __add__(self, other: "PseudoPoly") -> "PseudoPoly":
        self._same(other)
        return _merged(self.p, self.n, self.M, np.concatenate((self._a, other._a)),
                       np.concatenate((self._c, other._c)),
                       self.collided or other.collided)

    def __neg__(self) -> "PseudoPoly":
        return _merged(self.p, self.n, self.M, self._a, -self._c, self.collided)

    def __sub__(self, other: "PseudoPoly") -> "PseudoPoly":
        return self + (-other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PseudoPoly):
            return NotImplemented
        return ((self.p, self.n, self.M) == (other.p, other.n, other.M) and
                np.array_equal(self._a, other._a) and np.array_equal(self._c, other._c))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.M, self.terms))

    def __repr__(self) -> str:
        body = " + ".join(f"{c}*(1+T)^{a}" for c, a in self.terms) or "0"
        return f"PseudoPoly(p={self.p}, n={self.n}, M={self.M}: {body})"


def _merged(p: int, n: int, M: int, a, c, collided: bool = False) -> PseudoPoly:
    f = PseudoPoly.__new__(PseudoPoly)
    f._merge(p, n, M, a, c, collided)
    return f


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
    if n < 1:
        raise ValueError(f"precision {n} is not positive")
    lhs._same(rhs)
    if n > lhs.n:
        raise PrecisionError(f"coefficients only known mod p^{lhs.n}")
    tainted = lhs.collided or rhs.collided
    if lhs == rhs and not tainted:
        return True
    # lhs - rhs mod p**n; once it vanishes, a collision is a cross-side cancellation
    diff = _merged(lhs.p, n, lhs.M, np.concatenate((lhs._a, rhs._a)),
                   np.concatenate((lhs._c, -rhs._c)))
    if not diff.is_zero():
        return False
    if tainted or diff.collided:
        raise IndecisiveError(
            "terms collide at exponent precision M; raise M to decide")
    return True


def to_ring(f: PseudoPoly, n: int, m: int) -> RingElem:
    """Image in R(n, m): binomial coordinate [a]_m picks up each coefficient."""
    require_ring_size(f.p, m)  # m >= 0 and p**m bounded before the view exists
    if m > f.M:
        raise PrecisionError(f"exponents only known mod p^{f.M}")
    if n > f.n:
        raise PrecisionError(f"coefficients only known mod p^{f.n}")
    q = f.p**m
    b = np.zeros(q, dtype=f._c.dtype)
    np.add.at(b, (f._a % q).astype(np.int64), f._c)
    return RingElem.from_binomial(f.p, n, m, b)


def apply_derivative(f: PseudoPoly) -> PseudoPoly:
    """D = (1+T) d/dT: multiply each coefficient by its exponent.

    The exponent is only known mod p**M, so the coefficient precision of
    the result is min(n, M).
    """
    return _merged(f.p, min(f.n, f.M), f.M, f._a, f._c * f._a, f.collided)


def apply_unit_part(f: PseudoPoly) -> PseudoPoly:
    """U: delete terms whose exponent is divisible by p."""
    units = f._a % f.p != 0
    return _merged(f.p, f.n, f.M, f._a[units], f._c[units], f.collided)


def apply_isotypic(f: PseudoPoly, delta: int) -> PseudoPoly:
    """gamma_delta: terms (eta**delta c / (p-1), eta a) over eta in mu_{p-1}."""
    p, pn = f.p, f.p**f.n
    tw = teichmuller_twist(p, f.n, delta)[1:] * pow(p - 1, -1, pn) % pn
    tei = teichmuller_twist(p, f.M, 1)[1:].astype(f._a.dtype, copy=False)
    return _merged(p, f.n, f.M, np.outer(f._a, tei).ravel(), np.outer(f._c, tw).ravel(),
                   f.collided)


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
    if m_out < 1:
        raise ValueError("precisions must be >= 1")
    units = f._a % p != 0
    a, c = f._a[units], f._c[units]
    if p**f.M <= MAX_RING_SIZE:
        exps = kappa_exponent_table(p, f.M, kappa)[a.astype(np.int64)]
    else:
        exps = np.array([e.value for e in kappa_exponents(
            [PadicInt(p, f.M, x) for x in a.tolist()], PadicInt(p, f.M, kappa), f.M - 1)],
            dtype=object)
    tw = teichmuller_twist(p, f.n, delta)[(a % p).astype(np.int64)]
    return _merged(p, f.n, m_out, exps, c * tw, f.collided)
