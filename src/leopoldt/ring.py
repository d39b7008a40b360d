"""Arithmetic in the finite quotients R(n, m) = (Z/p^n)[T] / (omega_m(T)).

Here omega_m(T) = (1+T)**(p**m) - 1; the ideals (p^n, omega_m) form a
neighbourhood basis of zero in Z_p[[T]], so these quotients are where all
exact computation happens.

An element is stored by its coordinates in the binomial basis
{(1+T)**a : 0 <= a < p**m}, entries mod p**n, as one read-only numpy array
of `padic.residue_dtype(p**n)`: int64 when p**n < 2**31, else Python ints,
the one exact fallback.  Every operator works on it with numpy, and every
operator of the calculus is an exponent map there, O(p**m):

* substitution  sigma_a : F(T) -> F((1+T)**a - 1)     permutes exponents,
* derivative    D = (1+T) d/dT                        multiplies b_a by a,
* projector     U                                     keeps unit exponents,
* isotypic      gamma_delta                           averages over mu_{p-1},
* Leopoldt      Gamma_delta                           maps level m to m-1.

gamma_delta and Gamma_delta are twisted orbit sums, twist @ view[table]
mod p**n over cached int64 tables of exponents (the mu_{p-1}-orbits of
the nonzero exponents; the units omega(r) kappa**e), in int64 while the
one sum guard `_fits_int64` holds and in exact Python ints past it.
Division by 1 - beta (1+T)**e is one cumsum per orbit of a -> a + e.
The monomial coefficients (the canonical representative of degree < p**m,
which carries the Weierstrass data) come from the one x <-> T basis change
`taylor_shift`: mod p by Lucas's theorem in O(m p**(m+1)), which is all
invariant certification needs, and mod p**n for `coeffs` and the series
report in p**m numpy steps, O(p**(2m)) work.

The dense-polynomial helpers here (`_pmul`, `_pdivmod`, ..., and
`taylor_shift`), which take the modulus p or None for exact arithmetic,
also serve `ratfun` and `lfunc`.

Everything is pure and exact at the stated precision; where an operator
genuinely loses precision (D, whose multiplier is only known mod p**m) the
output records the smaller n rather than keeping stale digits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .padic import (
    NotAUnitError,
    PadicInt,
    PrecisionError,
    _power_table,
    is_odd_prime,
    kappa_unit_table,
    require_ring_size,
    residue_dtype,
    teichmuller_twist,
)


class ContextMismatchError(ValueError):
    """Operands live in different rings R(n, m)."""


def _mod(x, pn: int):
    """x % pn for an integer array; on int64 as x - x // pn * pn, which numpy
    runs on a fast path for division by a scalar that % lacks."""
    return x % pn if x.dtype == object else x - x // pn * pn


def _fits_int64(k: int, q: int) -> bool:
    """Whether a sum of k products of residues mod q fits in int64:
    k (q-1)**2 < 2**63."""
    return k * (q - 1) ** 2 < 2**63


def _stored(b, pn: int, reduced: bool = False) -> np.ndarray:
    """b mod pn as stored: a read-only array of `residue_dtype(pn)`.  A
    `reduced` array (entries in [0, pn) already) only changes dtype; on the
    exact branch every entry goes through int(), so that no numpy scalar
    is stored."""
    dtype = residue_dtype(pn)
    if reduced:
        arr = b.astype(dtype, copy=False)
    elif dtype is object:
        arr = np.array([int(x) % pn for x in b], dtype=object)
    elif isinstance(b, np.ndarray) and b.dtype == np.int64:
        arr = _mod(b, pn)
    else:
        arr = np.array([x % pn for x in b], dtype=np.int64)
    arr.flags.writeable = False
    return arr


def _key(b: np.ndarray):
    # the bytes of an object array are pointers: an exact view keys by its ints
    return tuple(b.tolist()) if b.dtype == object else b.tobytes()


class RingElem:
    """Element of R(n, m), stored as its binomial view b (F = sum b_a (1+T)**a),
    a read-only numpy array (see `_stored`)."""

    __slots__ = ("p", "n", "m", "_bin")

    def __init__(self, p: int, n: int, m: int, coeffs, _binomial=None):
        """The class of sum coeffs[k] T**k; at most p**m coefficients."""
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        if n < 1 or m < 0:
            raise ValueError(f"need n >= 1 and m >= 0, got ({n}, {m})")
        require_ring_size(p, m)
        self.p, self.n, self.m = p, n, m
        q = p**m
        pn = p**n
        if _binomial is None:
            c = list(coeffs)
            if len(c) > q:
                raise ValueError(f"{len(c)} coefficients exceeds p**m = {q}")
            b = taylor_shift(c, -1, p, n)
            _binomial = b + [0] * (q - len(b))
        if len(_binomial) != q:
            raise ValueError("binomial view must have length p**m")
        self._bin = _stored(_binomial, pn)

    @classmethod
    def from_binomial(cls, p: int, n: int, m: int, b) -> "RingElem":
        """The class of sum b[a] (1+T)**a; exactly p**m entries (a sequence
        of ints or an integer numpy array)."""
        return cls(p, n, m, None, _binomial=b)

    @classmethod
    def _from_reduced(cls, p: int, n: int, m: int, b: np.ndarray) -> "RingElem":
        """An operator's output in R(n, m), its entries in [0, p**n) already."""
        f = cls.__new__(cls)
        f.p, f.n, f.m, f._bin = p, n, m, _stored(b, p**n, reduced=True)
        return f

    @property
    def coeffs(self) -> tuple[int, ...]:
        """Monomial coefficients of the canonical representative: Q numpy
        steps of O(Q) each, or O(m p Q) by Lucas's theorem for n = 1."""
        c = taylor_shift(self._bin.tolist(), 1, self.p, self.n)
        return tuple(c + [0] * (self.p**self.m - len(c)))

    @property
    def binomial(self) -> tuple[int, ...]:
        return tuple(self._bin.tolist())

    # -- ring structure ----------------------------------------------------

    def _require_same(self, other: "RingElem") -> None:
        if (self.p, self.n, self.m) != (other.p, other.n, other.m):
            raise ContextMismatchError(
                f"R({self.n},{self.m}) over p={self.p} vs R({other.n},{other.m}) over p={other.p}"
            )

    def __add__(self, other: "RingElem") -> "RingElem":
        self._require_same(other)
        s = self._bin + other._bin
        return RingElem.from_binomial(self.p, self.n, self.m, s)

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + other.scale(-1)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._require_same(other)
        b = _cyclic_convolve(self._bin, other._bin, self.p, self.n)
        return RingElem.from_binomial(self.p, self.n, self.m, b)

    def scale(self, c: int) -> "RingElem":
        s = self._bin * (c % self.p**self.n)
        return RingElem.from_binomial(self.p, self.n, self.m, s)

    def __eq__(self, other) -> bool:
        # the basis change is a bijection, so the binomial view decides
        if not isinstance(other, RingElem):
            return NotImplemented
        return ((self.p, self.n, self.m) == (other.p, other.n, other.m)
                and _key(self._bin) == _key(other._bin))

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.m, _key(self._bin)))

    def is_zero(self) -> bool:
        return not self._bin.any()

    def reduce(self, n: int | None = None, m: int | None = None) -> "RingElem":
        """Image in R(n', m') for n' <= n, m' <= m (fold exponents, drop digits)."""
        n2 = self.n if n is None else n
        m2 = self.m if m is None else m
        if n2 > self.n or m2 > self.m:
            raise PrecisionError("reduce cannot increase precision")
        if (n2, m2) == (self.n, self.m):
            return self
        folded = self._bin.reshape(-1, self.p**m2).sum(axis=0)
        return RingElem.from_binomial(self.p, n2, m2, folded)

    def constant_term(self) -> int:
        """F(0) = sum b_a mod p**n."""
        return int(self._bin.sum()) % self.p**self.n

    def __repr__(self) -> str:
        coeffs = self.coeffs
        head = ", ".join(str(c) for c in coeffs[:6])
        tail = ", ..." if len(coeffs) > 6 else ""
        return f"RingElem(p={self.p}, n={self.n}, m={self.m}, [{head}{tail}])"


def ring_zero(p: int, n: int, m: int) -> RingElem:
    return RingElem(p, n, m, [])


def ring_one(p: int, n: int, m: int) -> RingElem:
    return RingElem(p, n, m, [1])


# -- dense polynomials ----------------------------------------------------
#
# Coefficient lists, lowest degree first, without trailing zeros.  The
# helpers use plain + - * and reduce each result once mod p; p = None means
# exact over Q (Fraction coefficients, or ints wherever nothing is divided).


def _inv(x, p: int | None):
    """1/x mod p, or exactly over Q when p is None."""
    return pow(x, -1, p) if p else 1 / Fraction(x)


def _trim(a: list, p: int | None = None) -> list:
    """a reduced mod p (when p is given), without its trailing zeros."""
    if p:
        a = [x % p for x in a]
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(p, a, b) -> list:
    out = list(a) + [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        out[i] += y
    return _trim(out, p)


def _psub(p, a, b) -> list:
    return _padd(p, a, [-y for y in b])


def _pscale(p, a, c) -> list:
    return _trim([c * x for x in a], p)


def _pmul(p, a, b) -> list:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _trim(out, p)


def _pdivmod(p, a, b) -> tuple[list, list]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    lb = len(b)
    a = list(a)
    inv_lead = _inv(b[-1], p)
    q = [0] * max(len(a) - lb + 1, 0)
    for i in range(len(a) - lb, -1, -1):
        c = a[i + lb - 1] * inv_lead
        if p:
            c %= p
        q[i] = c
        if c:
            for j, y in enumerate(b, i):
                a[j] -= c * y
    return _trim(q), _trim(a[:lb - 1], p)


def _pgcd_monic(p, a, b) -> list:
    while b:
        a, b = b, _pdivmod(p, a, b)[1]
    return _pscale(p, a, _inv(a[-1], p)) if a else a


def _pdiv_exact(a, b) -> list[int]:
    """a / b over Z, in Python ints; raises unless b divides a exactly."""
    a = list(a)
    lb = len(b)
    q = [0] * max(len(a) - lb + 1, 0)
    for i in range(len(a) - lb, -1, -1):
        c, r = divmod(a[i + lb - 1], b[-1])
        if r:
            raise ArithmeticError("division not exact")
        q[i] = c
        if c:
            for j, y in enumerate(b, i):
                a[j] -= c * y
    if any(a):
        raise ArithmeticError("division not exact")
    return _trim(q)


def taylor_shift(coeffs, s: int, p: int | None, n: int = 1) -> list:
    """Coefficients of P(y + s) mod p**n (exactly when p is None), trimmed,
    given those of P(y), for s = +-1: the x = 1+T <-> T basis change (s = 1
    takes a binomial view to T, s = -1 goes back), which keeps the leading
    coefficient and so the degree.  Over F_p this is `_lucas_shift`.  Mod
    p**n (n >= 2) and over Q, step i replaces a[i:] by its reverse cumsum
    (Pascal's rule), on int64 below 2**31 and exact objects otherwise:
    O(deg**2) work in deg numpy steps.  s = -1 flips the odd signs before
    and after there, as P(y - 1) is P(-y) shifted by 1, taken at -y."""
    pn = p**n if p else None
    a = _trim([int(c) % pn for c in coeffs] if pn else list(coeffs))
    if not a:
        return a
    a = np.array(a, dtype=residue_dtype(pn) if pn else object)
    if pn and n == 1:
        return _lucas_shift(a, s, p).tolist()
    a[1::2] *= s
    for i in range(len(a) - 1):
        tail = a[i:][::-1].cumsum()[::-1]
        a[i:] = _mod(tail, pn) if pn else tail
    a[1::2] *= s
    return (_mod(a, pn) if pn else a).tolist()


def _cyclic_convolve(a, b, p: int, n: int):
    """Convolution of binomial views modulo x**Q - 1, left for the caller to
    reduce mod p**n: one np.convolve, in int64 while each folded output, a
    sum of exactly Q products, fits (`_fits_int64`), on exact object arrays
    past it."""
    q = len(a)
    if not _fits_int64(q, p**n):
        a, b = a.astype(object, copy=False), b.astype(object, copy=False)
    conv = np.convolve(a, b)
    out = conv[:q].copy()
    out[: q - 1] += conv[q:]
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


def _divide_binomial(f: RingElem, beta: int, e: int) -> RingElem:
    """f / (1 - beta*(1+T)**e) in R(n, m), for beta and 1 - beta units.

    The quotient y solves y_a - beta*y_{a-e} = f_a, which decouples along
    the orbits r, r+e, ..., r+(L-1)e of a -> a+e on Z/p**m.  With v_j the
    orbit's entries and run_j = sum_{i<=j} beta**(L-i) v_i (one cumsum per
    row), y_0 = v_0 + run_{L-1} / (1 - beta**L) and
    y_j = beta**(j-L) (beta**L (y_0 - v_0) + run_j); 1 - beta**L = 1 - beta
    mod p.  On an int64 view every run stays below L p**n < 2**63.  O(p**m).
    """
    p, n, m = f.p, f.n, f.m
    q = p**m
    pn = p**n
    beta %= pn
    if beta % p == 0 or (1 - beta) % p == 0:
        raise NotAUnitError(f"beta = {beta} or 1 - beta is not a unit")
    e %= q
    length = q // math.gcd(e, q)
    pw = _power_table(beta, length + 1, pn)  # beta**0 .. beta**L, the view's dtype
    beta_l = int(pw[-1])
    b = f._bin
    orbits = (np.arange(q // length)[:, None] + e * np.arange(length)) % q
    run = (b[orbits] * pw[:0:-1] % pn).cumsum(axis=1) % pn
    close = run[:, -1:] * pow(1 - beta_l, -1, pn) % pn  # y_0 - v_0
    y = (run * pow(beta_l, -1, pn) + close) % pn * pw[:-1] % pn
    out = np.empty(q, dtype=b.dtype)
    out[orbits] = y
    return RingElem._from_reduced(p, n, m, out)


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
    b = f._bin
    out = np.zeros(q, dtype=b.dtype)
    np.add.at(out, a * np.arange(q, dtype=np.int64) % q, b)
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
    d = f._bin * np.arange(p**m, dtype=np.int64)
    return RingElem.from_binomial(p, n2, m, d)


def op_unit_part(f: RingElem) -> RingElem:
    """U: keep binomial exponents prime to p, kill the rest (including a=0).

    Exact at full precision n: U((1+T)**a) is (1+T)**a for unit a, else 0.
    """
    out = f._bin.copy()
    out[::f.p] = 0
    return RingElem._from_reduced(f.p, f.n, f.m, out)


@lru_cache(maxsize=8)
def _orbit_index(p: int, m: int) -> np.ndarray:
    """The orbits of mu_{p-1} on the nonzero exponents mod p**m: column j
    lists omega(t) * rep_j for t = 1..p-1 (row t-1).

    The action is free there (eta - 1 is a unit for eta != 1), and the
    representatives are the p**v * u with u = 1 mod p, one per orbit.
    """
    q = p**m
    a = np.arange(1, q, dtype=np.int64)
    u = a.copy()
    for _ in range(m - 1):  # the unit part of a: strip up to m-1 factors p
        u = np.where(u % p == 0, u // p, u)
    idx = np.outer(teichmuller_twist(p, max(m, 1), 1)[1:], a[u % p == 1]) % q
    idx.flags.writeable = False
    return idx


def _twisted_orbit_sum(f: RingElem, rows: np.ndarray, twist: np.ndarray) -> np.ndarray:
    """twist @ b[rows] mod p**n: each column sums p-1 products of entries
    below p**n, in int64 while they fit (`_fits_int64`), else in exact
    Python ints."""
    pn = f.p**f.n
    b = f._bin if _fits_int64(f.p - 1, pn) else f._bin.astype(object, copy=False)
    return _mod(twist.astype(b.dtype, copy=False) @ b[rows], pn)


def op_isotypic(f: RingElem, delta: int) -> RingElem:
    """gamma_delta: average of eta**delta * sigma_eta over eta in mu_{p-1}.

    On the orbit {omega(t) rep} the output at omega(s) rep is
    omega(s)**delta / (p-1) * sum_t omega(t)**(-delta) b_{omega(t) rep}: one
    twisted orbit sum over the cached `_orbit_index` columns, O(p**m).  The
    exponent 0 keeps b_0 only for delta = 0.  The Teichmuller roots are
    used mod p**m for the exponents and mod p**n for the twists.
    """
    p, n, m = f.p, f.n, f.m
    pn = p**n
    delta %= p - 1
    idx = _orbit_index(p, m)
    sums = _twisted_orbit_sum(f, idx, teichmuller_twist(p, n, -delta)[1:])
    up = teichmuller_twist(p, n, delta)[1:] * pow(p - 1, -1, pn) % pn
    out = np.empty(p**m, dtype=sums.dtype)
    out[idx] = _mod(up.astype(sums.dtype, copy=False)[:, None] * sums, pn)
    out[0] = f._bin[0] if delta == 0 else 0
    return RingElem._from_reduced(p, n, m, out)


def op_leopoldt(f: RingElem, delta: int, kappa: int) -> RingElem:
    """Leopoldt transform Gamma_delta: R(n, m) -> R(n, m-1).

    Each unit exponent a = omega(r) kappa**e contributes b_a * omega(r)**delta
    at the new exponent e = Log_p(a)/Log_p(kappa) mod p**(m-1); non-unit
    exponents die.  This is one twisted orbit sum over the columns of the
    cached `kappa_unit_table`.  One omega-level is consumed; the
    coefficient precision n is kept.
    """
    p, n, m = f.p, f.n, f.m
    if m < 1:
        raise ValueError("Gamma_delta needs level m >= 1")
    twist = teichmuller_twist(p, n, delta % (p - 1))[1:]
    out = _twisted_orbit_sum(f, kappa_unit_table(p, m, kappa), twist)
    return RingElem._from_reduced(p, n, m - 1, out)


# -- predicates and invariants -------------------------------------------


def ideal_zero(f: RingElem, n2: int, m2: int) -> bool:
    """Membership of f in the ideal (p**n2, omega_m2(T)), for n2 <= n, m2 <= m:
    the image of f in R(n2, m2) vanishes."""
    if n2 > f.n or m2 > f.m:
        raise PrecisionError(f"cannot test ideal ({n2},{m2}) at level ({f.n},{f.m})")
    return f.reduce(n2, m2).is_zero()


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


@lru_cache(maxsize=64)
def _pascal_mod_p(p: int, w: int, s: int) -> np.ndarray:
    """C(a, k) s**(a-k) mod p at row a, column k, for digits a, k < w <= p
    and s = +-1; int64 while a row of w products mod p fits (`_fits_int64`),
    else exact objects."""
    out = np.zeros((w, w), dtype=np.int64 if _fits_int64(w, p) else object)
    out[:, 0] = 1
    for a in range(1, w):
        out[a, 1:] = (out[a - 1, 1:] + out[a - 1, :-1]) % p
    if s < 0:  # C(a, k) (-1)**(a-k): a checkerboard of signs
        out = np.where(np.add.outer(np.arange(w), np.arange(w)) % 2, -out % p, out)
    out.flags.writeable = False
    return out


def _lucas_shift(c: np.ndarray, s: int, p: int) -> np.ndarray:
    """P(y + s) mod p from the coefficients c of P(y), for s = +-1 and c
    nonempty in [0, p).  By Lucas's theorem (y+s)**a = prod_i
    (y**(p**i) + s)**a_i mod p over the base-p digits a_i of a, so the shift
    applies `_pascal_mod_p` along each digit axis of c reshaped to (top, p,
    ..., p), top cut to the digits that occur: a table min(p, len(c))
    square and O(p len(c) log_p len(c)) work.  The degree does not grow."""
    d, k = len(c), 0
    while p ** (k + 1) < d:  # k digit axes of size p below the top one
        k += 1
    shape = (-(-d // p**k),) + (p,) * k
    pad = shape[0] * p**k - d
    c = (np.concatenate([c, np.zeros(pad, c.dtype)]) if pad else c).reshape(shape)
    table = _pascal_mod_p(p, min(p, d), s)
    for w in reversed(shape):  # contract the last digit axis, then rotate it to the front
        c = (c @ table[:w, :w] % p).transpose(-1, *range(k))
    return c.reshape(-1)[:d]


def invariants(f: RingElem) -> InvariantReport:
    """Certify from the monomial coefficients mod p, `_lucas_shift` of the
    view mod p, in O(m p**(m+1)); their degree stays below p**m, so no
    reduction by omega_m is due."""
    c = _lucas_shift((f._bin % f.p).astype(np.int64), 1, f.p)
    units = np.flatnonzero(c)
    if units.size:
        return InvariantReport(0, int(units[0]), "certified", (f.n, f.m))
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
    for ba in reversed(f._bin.tolist()):
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
    for a, ba in enumerate(f._bin.tolist()):
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


def _omega_poly(p: int, j: int) -> list[int]:
    """omega_j(T) = (1+T)**(p**j) - 1 as an integer polynomial."""
    q = p**j
    return [0] + [math.comb(q, k) for k in range(1, q + 1)]


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
        ratio = _pdiv_exact(_omega_poly(p, lev + 1), w_lo)
        w_pow = [1]  # w_lo**(p-2)
        for _ in range(p - 2):
            w_pow = _pmul(None, w_pow, w_lo)
        t_pow = [0] * (p**lev * (p - 1)) + [1]
        r = _pdiv_exact(_psub(None, t_pow, ratio), [p])
        q = _pdiv_exact(_psub(None, ratio, _pmul(None, w_pow, w_lo)), [p])
        qr = _padd(None, q, r)
        new = [list(deltas[0])]
        first = _pmul(None, r, deltas[0])
        pow_p = 1
        for l in range(1, lev + 1):
            w_gap = _pmul(None, w_pow, _omega_poly(p, lev - l))
            first = _padd(None, first, _pscale(None, _pmul(None, w_gap, deltas[l]), pow_p))
            pow_p *= p
        new.append(first)
        for l in range(2, lev + 2):
            new.append(_pmul(None, qr, deltas[l - 1]))
        deltas = new
    total: list[int] = []
    for l, d in enumerate(deltas):
        total = _padd(None, total, _pscale(None, _pmul(None, _omega_poly(p, j - l), d), p**l))
    expected = [0] * (p**j) + [1]
    if total != expected:
        raise ArithmeticError("decomposition identity failed verification")
    return deltas
