"""Dirichlet characters with values in mu_{p-1}, Bernoulli numbers, L-values.

A character of conductor d (p not dividing d) taking values in the
(p-1)-th roots of unity is stored by residues: chi(a) is the Teichmuller
lift of a recorded unit r_a mod p, so the table of r_a determines the
character at every precision.  Generalized Bernoulli numbers are computed
exactly from the classical Bernoulli numbers B_j, which are built once in
integers over a common von Staudt denominator, and the power sums
sum_{a<=d} chi(a) a**i; only the final value is reduced mod p**N.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

from .padic import PadicInt, is_odd_prime, teichmuller, teichmuller_twist


# A conductor is refused above this before any table of d entries is built
# (and before lfunc.bounds factors it); every conductor used is far below.
MAX_CONDUCTOR = 10**6


class CharacterTableError(ValueError):
    """The given value table is not a valid primitive character."""


class ResourceGuardError(RuntimeError):
    """An exact Bernoulli computation would exceed its admission bounds."""


class NonIntegralError(ArithmeticError):
    """A value that must be p-integral to be returned mod p**N is not."""


@dataclass(frozen=True)
class DirichletCharacter:
    """Character mod d with chi(a) = teichmuller(residues[a % d]).

    residues has length d; entry 0 marks arguments sharing a factor with d.
    Multiplicativity, primitivity and p-adic unit values are validated on
    construction through build_validate.
    """

    p: int
    d: int
    residues: tuple[int, ...]

    def is_odd(self) -> bool:
        return self.residues[-1 % self.d] == self.p - 1

    def residue(self, a: int) -> int:
        """chi(a) mod p (0 when gcd(a, d) > 1)."""
        return self.residues[a % self.d]

    def label(self) -> str:
        return f"chi[{self.d};" + ",".join(str(r) for r in self.residues) + "]"

    def __repr__(self) -> str:
        return f"DirichletCharacter(p={self.p}, d={self.d}, residues={self.residues})"


def trivial_character(p: int) -> DirichletCharacter:
    return DirichletCharacter(p, 1, (1,))


def build_validate(d: int, table: dict[int, int], p: int) -> DirichletCharacter:
    """Validated character of conductor exactly d from a residue table.

    table maps every a in (Z/d)* to the residue mod p of chi(a); the table
    must be multiplicative, unit-valued, and not induced from any proper
    divisor of d (the rejected divisor is reported).
    """
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if d < 1 or d % p == 0:
        raise ValueError(f"conductor must be >= 1 and prime to p, got {d}")
    if d > MAX_CONDUCTOR:
        raise ValueError(f"conductor d = {d} is outside 1..{MAX_CONDUCTOR}")
    if d == 1:
        return trivial_character(p)
    normalized = {int(a) % d: int(r) for a, r in table.items()}
    residues = [0] * d
    for a in range(d):
        if gcd(a, d) == 1:
            if a not in normalized:
                raise CharacterTableError(f"missing value at a={a}")
            r = normalized[a] % p
            if r == 0:
                raise CharacterTableError(f"value at a={a} is not a unit mod {p}")
            residues[a] = r
    if residues[1 % d] != 1:
        raise CharacterTableError("chi(1) must be 1")
    # chi(a g) = chi(a) chi(g) for the generators g of (Z/d)* gives it for
    # every product of them, that is for all pairs of units: O(d k)
    for g, _ in _unit_group_generators(d):
        for a in range(d):
            if residues[a] and residues[a * g % d] != residues[a] * residues[g] % p:
                raise CharacterTableError(f"table is not multiplicative at ({a}, {g})")
    for ell in _prime_factors(d):
        d2 = d // ell
        if all(residues[a] == 1 for a in range(d) if gcd(a, d) == 1 and a % d2 == 1 % d2):
            raise CharacterTableError(
                f"table is induced from modulus {d2}: not primitive")
    return DirichletCharacter(p, d, tuple(residues))


def character_from_omega_exponents(d: int, exponents: dict[int, int], p: int) -> DirichletCharacter:
    """Ingestion format: chi(a) = omega(g)**e_a with g the least primitive
    root mod p and e_a given mod p-1."""
    g = _least_primitive_root(p)
    table = {int(a): pow(g, int(e) % (p - 1), p) for a, e in exponents.items()}
    return build_validate(d, table, p)


def _prime_factors(m: int) -> list[int]:
    out = []
    f = 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        out.append(m)
    return out


@lru_cache(maxsize=64)
def _least_primitive_root(q: int) -> int:
    """Least primitive root modulo q (q an odd prime power or 2, 4)."""
    if q in (1, 2):
        return 1
    if q == 4:
        return 3
    ell = _prime_factors(q)[0]
    phi = q // ell * (ell - 1)
    factors = _prime_factors(phi)
    for g in range(2, q):
        if gcd(g, q) != 1:
            continue
        if all(pow(g, phi // f, q) != 1 for f in factors):
            return g
    raise ArithmeticError(f"no primitive root mod {q}")  # pragma: no cover


def _unit_group_generators(m: int) -> list[tuple[int, int]]:
    """Generators (g, order) of (Z/m)*, lifted by CRT, direct-product exact."""
    gens: list[tuple[int, int]] = []
    for ell in _prime_factors(m):
        e = 0
        mm = m
        while mm % ell == 0:
            mm //= ell
            e += 1
        q = ell**e
        rest = m // q

        def lift(x: int) -> int:
            if rest == 1:
                return x % m
            # CRT: x mod q, 1 mod rest
            inv = pow(rest % q, -1, q) if q > 1 else 0
            return (1 + rest * ((x - 1) * inv % q)) % m

        if ell == 2:
            if e == 2:
                gens.append((lift(3), 2))
            elif e >= 3:
                gens.append((lift(q - 1), 2))
                gens.append((lift(5), 2 ** (e - 2)))
        else:
            g = _least_primitive_root(q)
            gens.append((lift(g), q // ell * (ell - 1)))
    return gens


def characters_mod(m: int, p: int) -> list[DirichletCharacter]:
    """All primitive characters of conductor exactly m with values in mu_{p-1}."""
    import itertools

    if m == 1:
        return [trivial_character(p)]
    if m % p == 0:
        raise ValueError("conductor must be prime to p")
    gens = _unit_group_generators(m)
    h = _least_primitive_root(p)
    choice_sets = []
    for _, order in gens:
        g2 = gcd(order, p - 1)
        choice_sets.append([pow(h, (p - 1) // g2 * t, p) for t in range(g2)])
    out = []
    exponent_tuples = list(itertools.product(*(range(o) for _, o in gens)))
    for values in itertools.product(*choice_sets):
        residues = [0] * m
        for exps in exponent_tuples:
            a = 1
            v = 1
            for (g, _), x, val in zip(gens, exps, values):
                a = a * pow(g, x, m) % m
                v = v * pow(val, x, p) % p
            residues[a] = v
        try:
            out.append(build_validate(m, {a: r for a, r in enumerate(residues) if r},
                                      p))
        except CharacterTableError:
            continue
    out.sort(key=lambda c: c.residues)
    return out


@dataclass(frozen=True)
class ThetaCharacter:
    """theta = chi * omega**(delta+1), required even and nontrivial."""

    chi: DirichletCharacter
    delta: int

    def __post_init__(self) -> None:
        p = self.chi.p
        d = self.delta % (p - 1)
        object.__setattr__(self, "delta", d)
        eps = -1 if self.chi.is_odd() else 1
        if eps * (-1) ** ((d + 1) % 2) != 1:
            raise ValueError("theta = chi * omega^(delta+1) must be even")
        if self.chi.d == 1 and (d + 1) % (p - 1) == 0:
            raise ValueError("theta must be nontrivial")

    @property
    def p(self) -> int:
        return self.chi.p

    def label(self) -> str:
        if self.chi.d == 1:
            return f"omega^{(self.delta + 1) % (self.p - 1)}"
        return f"{self.chi.label()}*omega^{self.delta + 1}"


def divisors(m: int) -> list[int]:
    out = [k for k in range(1, m + 1) if m % k == 0]
    return out


def enumerate_even_theta(p: int, d: int) -> list[ThetaCharacter]:
    """All even nontrivial theta = chi * omega**(delta+1) with the conductor
    of chi dividing d (and values in Z_p)."""
    if d % p == 0:
        raise ValueError("d must be prime to p")
    out = []
    for d2 in divisors(d):
        for chi in characters_mod(d2, p):
            for delta in range(p - 1):
                try:
                    out.append(ThetaCharacter(chi, delta))
                except ValueError:
                    continue
    out.sort(key=lambda t: (t.chi.d, t.chi.residues, t.delta))
    return out


# -- Bernoulli numbers and L-values ----------------------------------------


# The exact route costs O(k**2) big-integer operations to grow the B_j table
# to index k and O(d*k) modular products for the power sums; both are
# admitted or refused before any work starts.
BERNOULLI_INDEX_LIMIT = 2000
RESOURCE_GUARD = 10**7

# B_j = _BERNOULLI_NUM[j] / _bernoulli_den (B_1 = -1/2) over the product of the
# primes q <= len(_BERNOULLI_NUM), which clears every B_j by von Staudt-Clausen.
_BERNOULLI_NUM = [2, -1]
_bernoulli_den = 2


def _bernoulli_table(k: int) -> tuple[int, list[int]]:
    """(D, numerators) with B_j = numerators[j] / D for every j <= k, grown on
    demand in integers by sum_{j<=n} C(n+1, j) B_j = 0 (n >= 1)."""
    global _bernoulli_den
    num = _BERNOULLI_NUM
    if len(num) > k:
        return _bernoulli_den, num
    scale = prod(q for q in range(len(num) + 1, k + 2) if is_odd_prime(q))
    num[:] = [b * scale for b in num]
    _bernoulli_den *= scale
    for n in range(len(num), k + 1):
        if n % 2:
            num.append(0)
            continue
        s, c = 0, 1  # c = C(n+1, j)
        for j in range(n):
            if num[j]:
                s += c * num[j]
            c = c * (n + 1 - j) // (j + 1)
        num.append(-s // (n + 1))
    return _bernoulli_den, num


def bernoulli_chi(chi: DirichletCharacter, k: int, precision: int) -> PadicInt:
    """Generalized Bernoulli number B_{k,chi} mod p**precision.

    Exact route (Washington, Prop. 4.1): B_{k,chi} = d**(k-1) sum_{a<=d}
    chi(a) B_k(a/d); expanding B_k(x) and swapping the sums gives

        B_{k,chi} = sum_j C(k, j) B_j d**(j-1) S_{k-j},  S_i = sum_{a<=d} chi(a) a**i.

    By von Staudt-Clausen every term has v_p >= -1, so p*B_{k,chi} is summed
    mod p**(precision+1) and NonIntegralError is raised when it is not
    divisible by p.  d = 1 gives B_k, with B_{1,1} = +1/2.  Returns exact 0
    on parity mismatch (except that d = 1, k = 1 case).
    """
    p, d = chi.p, chi.d
    if k < 0 or precision < 1:
        raise ValueError("need k >= 0 and precision >= 1")
    parity = -1 if chi.is_odd() else 1
    if parity != (-1) ** (k % 2) and not (d == 1 and k == 1):
        return PadicInt(p, precision, 0)
    if k > BERNOULLI_INDEX_LIMIT or d * (k + 1) > RESOURCE_GUARD:
        raise ResourceGuardError(f"B_({k},chi) for d = {d} exceeds the index limit "
                                 f"{BERNOULLI_INDEX_LIMIT} or {RESOURCE_GUARD} power-sum terms")
    mod = p ** (precision + 1)
    tei = teichmuller_twist(p, precision + 1, 1).tolist()
    sums = [0] * (k + 1)
    for a in range(1, d + 1):
        c = tei[chi.residue(a)]
        if c:
            for i in range(k + 1):
                sums[i] += c
                c = c * a % mod
    den, num = _bernoulli_table(k)
    # p * B_j = num[j] * p / den, where den has at most one factor p
    p_over_den = pow(den // p, -1, mod) if den % p == 0 else p * pow(den, -1, mod)
    total, binom, d_pow = 0, 1, pow(d, -1, mod)  # C(k, j) and d**(j-1)
    for j in range(k + 1):
        if num[j]:
            total += binom * (num[j] % mod) * d_pow % mod * sums[k - j]
        binom = binom * (k - j) // (j + 1)
        d_pow = d_pow * d % mod
    total = total * p_over_den % mod
    if total % p:
        raise NonIntegralError(f"B_({k},chi) is not {p}-integral")
    return PadicInt(p, precision, total // p)


def lp_value(theta: ThetaCharacter, k: int, precision: int) -> PadicInt:
    """L_p(-k, theta) = -(1 - chi(p) p**k) B_{k+1,chi} / (k+1) mod p**precision,
    for k congruent to delta mod p-1."""
    p = theta.p
    chi = theta.chi
    if k % (p - 1) != theta.delta % (p - 1):
        raise ValueError(f"need k = delta mod p-1, got k={k}, delta={theta.delta}")
    v_k1 = 0
    k1 = k + 1
    while k1 % p == 0:
        k1 //= p
        v_k1 += 1
    work = precision + v_k1
    bern = bernoulli_chi(chi, k + 1, work)
    mod = p**work
    chi_p = 1 if chi.d == 1 else teichmuller(chi.residue(p), p, work).value
    euler = (1 - chi_p * pow(p, k, mod)) % mod if k < work else 1
    num = (-euler * bern.value) % mod
    if num % p**v_k1 != 0:
        raise NonIntegralError("L-value numerator not divisible by v_p(k+1)")
    out = (num // p**v_k1) * pow(k1, -1, p**precision)
    return PadicInt(p, precision, out)
