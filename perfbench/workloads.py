"""The four workloads: inputs built from a seed, the calls of one timed
pass, and the check of every output against the answer key.

Each workload puts most of its time in a different layer, so a change to
one layer shows on one workload and reads as "no change" on the others:

* sweep     -- `lambda_sum_cyclotomic` for every odd p < 160 (ring, lfunc);
* oracle    -- `iwasawa_invariants` with interpolation checks (characters);
* algebra   -- operator identities on small rings with deep towers (ring);
* criterion -- `not_pseudorational_report` over F_p (ratfun).

A call is one public entry-point call; it fails if it raises, returns a
wrong value, or returns indeterminate where certification is expected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from answer_key import (
    PRIME_BOUND,
    PUBLISHED_IRREGULAR,
    AnswerKey,
    criterion_witness,
    cyclotomic_in_one_plus_t,
    fp_divmod,
    lambda_bound_new,
    odd_primes_below,
)


@dataclass(frozen=True)
class Call:
    label: str
    invoke: Callable[[], object]
    verify: Callable[[object], list[str]]  # problems found; empty means verified
    items: int


class Workload:
    """Defaults for the optional parts of a workload."""

    def probes(self, inputs, key) -> list[Call]:
        return []

    def trace_problems(self, metrics: dict, items: int) -> list[str]:
        return []


def _lfunc():
    from leopoldt import lfunc
    return lfunc


# -- sweep --------------------------------------------------------------------


class Sweep(Workload):
    """`leopoldt lambda-sum` for every odd prime p < 160 at (n, m) = (2, 1)."""

    name = "sweep"

    def setup(self, seed: int):
        return odd_primes_below(PRIME_BOUND)

    def grid(self, primes):
        return [{"p": p, "n": 2, "m": 1, "Q": p**2} for p in primes]

    def calls(self, primes, key: AnswerKey) -> list[Call]:
        lfunc = _lfunc()
        return [Call(f"lambda-sum p={p}",
                     lambda p=p: lfunc.lambda_sum_cyclotomic(p),
                     lambda rep, p=p: _check_lambda_sum(rep, p, key),
                     (p - 3) // 2)
                for p in primes]

    def trace_problems(self, metrics: dict, items: int) -> list[str]:
        # Every certified theta builds one source and applies gamma once, so
        # both counts equal the thetas certified: calls from lfunc into ring
        # are seen by the trace.
        counts = {name: metrics[name] for name in
                  ("ring.op_isotypic.calls", "lfunc.g_c_surrogate.calls")}
        if any(v != items for v in counts.values()):
            return [f"trace self-check: {counts} for {items} certified thetas"]
        return []


def _check_lambda_sum(rep, p: int, key: AnswerKey) -> list[str]:
    irregular = key.irregular[p]
    bound = lambda_bound_new(p)
    lams = {int(label.split("^")[1]): lam for label, lam in rep.entries}
    problems = []
    if sorted(lams) != list(range(2, p - 2, 2)):
        problems.append(f"p={p}: theta set {sorted(lams)}")
    for j, lam in lams.items():
        # A certified lambda comes with mu = 0: certification is a unit
        # coefficient of the canonical representative.
        if lam is None:
            problems.append(f"p={p} omega^{j}: indeterminate")
        elif lam != (1 if j in irregular else 0) or lam >= bound:
            problems.append(f"p={p} omega^{j}: lambda {lam}")
    if rep.indeterminate or rep.total != len(irregular):
        problems.append(f"p={p}: total {rep.total}, index {len(irregular)}")
    return problems


# -- oracle -------------------------------------------------------------------

# (p, conductor) pairs whose every even theta is checked mod p**3 with n = 3.
ORACLE_CONDUCTORS = ((7, 3), (7, 4), (7, 8), (11, 3), (13, 4))
# Irregular thetas are checked mod p**2 up to this prime and mod p above it.
ORACLE_P2_MAX = 67
ORACLE_REGULAR_SAMPLE = 2
# Irregular thetas at these primes are also tried mod p**2: the limit sum
# would have d * p**4 > 10**8 terms, so they are refusal probes.
ORACLE_PROBE_PRIMES = (101, 103)


@dataclass(frozen=True)
class OracleJob:
    theta: object
    n: int
    precision: int
    irregular: bool | None  # None for conductor d >= 2


class Oracle(Workload):
    """`leopoldt invariants --check-precision` on three groups of thetas."""

    name = "oracle"

    def setup(self, seed: int):
        from leopoldt import characters

        rng = random.Random(seed)
        jobs, probes = [], []
        for p, irregular in PUBLISHED_IRREGULAR.items():
            by_j = {(t.delta + 1) % (p - 1): t
                    for t in characters.enumerate_even_theta(p, 1)}
            pool = sorted(set(by_j) - set(irregular))
            # The seed draws the regular controls where every call is cheap.
            # Above ORACLE_P2_MAX the controls are the regular neighbours of
            # the irregular index: their cost depends on the check exponents,
            # and a drawn pair would move the median and tail latencies.
            if p <= ORACLE_P2_MAX:
                regular = rng.sample(pool, ORACLE_REGULAR_SAMPLE)
            else:
                regular = sorted(pool, key=lambda j: (abs(j - irregular[0]), j))
                regular = regular[:ORACLE_REGULAR_SAMPLE]
            for j in irregular:
                jobs.append(OracleJob(by_j[j], 2, 2 if p <= ORACLE_P2_MAX else 1, True))
                if p in ORACLE_PROBE_PRIMES:
                    probes.append(OracleJob(by_j[j], 2, 2, True))
            for j in regular:
                jobs.append(OracleJob(by_j[j], 2, 1, False))
        for p, d in ORACLE_CONDUCTORS:
            for theta in characters.enumerate_even_theta(p, d):
                if theta.chi.d == d:
                    jobs.append(OracleJob(theta, 3, 3, None))
        return jobs, probes

    def grid(self, inputs):
        classes: dict[tuple, int] = {}
        for job in inputs[0] + inputs[1]:
            p = job.theta.p
            cls = (p, job.theta.chi.d, job.n, job.precision)
            classes[cls] = classes.get(cls, 0) + 1
        return [{"p": p, "d": d, "n": n, "m": 1, "Q": p**2,
                 "check_precision": c, "thetas": count}
                for (p, d, n, c), count in sorted(classes.items())]

    def calls(self, inputs, key):
        return [self._call(job, key) for job in inputs[0]]

    def probes(self, inputs, key):
        return [self._call(job, key) for job in inputs[1]]

    def _call(self, job: OracleJob, key: AnswerKey) -> Call:
        lfunc = _lfunc()
        return Call(f"invariants {job.theta.label()} p={job.theta.p} mod p^{job.precision}",
                    lambda: lfunc.iwasawa_invariants(
                        job.theta, n=job.n, check_precision=job.precision),
                    lambda rep: _check_invariants(rep, job, key),
                    2)


def _check_invariants(rep, job: OracleJob, key: AnswerKey) -> list[str]:
    theta, c = job.theta, job.precision
    p, d = theta.p, theta.chi.d
    tag = f"{theta.label()} p={p}"
    inv = rep.invariants
    problems = []
    if not inv.certified or inv.mu_certified != 0:
        problems.append(f"{tag}: {inv.verdict}, mu {inv.mu_certified}")
    elif inv.lambda_certified >= lambda_bound_new(p, d):
        problems.append(f"{tag}: lambda {inv.lambda_certified} over the bound")
    if job.irregular is not None and inv.lambda_certified != int(job.irregular):
        problems.append(f"{tag}: lambda {inv.lambda_certified}")
    if len(rep.checks) != 2:
        problems.append(f"{tag}: {len(rep.checks)} checks")
    values = []
    for chk in rep.checks:
        if not chk.ok or chk.lhs.precision != c:
            problems.append(f"{tag} k={chk.k}: check failed mod p^{c}")
        values.append(chk.lhs.value)
        if chk.lhs.value != key.l_value(p, theta.chi.residues, chk.k, c):
            problems.append(f"{tag} k={chk.k}: value differs from exact B_(k+1,chi)")
    if job.irregular:
        if any(v % p for v in values):
            problems.append(f"{tag}: irregular value not 0 mod p")
        if c >= 2 and all(v % p**2 == 0 for v in values):
            problems.append(f"{tag}: every value 0 mod p^2")
    elif job.irregular is False and any(v % p == 0 for v in values):
        problems.append(f"{tag}: regular value not a unit")
    return problems


# -- algebra ------------------------------------------------------------------

# (p, n, m, elements): Q = p**m from the exact fallback (Q < 64) to the numpy
# path (Q = 625); coefficient moduli from p**2 up to about 2**28.
ALGEBRA_RINGS = ((3, 2, 3, 20), (7, 3, 2, 20), (3, 17, 4, 16), (5, 2, 3, 16),
                 (3, 2, 5, 8), (7, 2, 3, 8), (5, 12, 4, 24))
# (p, n, M, m, pseudo-polynomials, terms): exponents are known mod p**M and
# the ring images are taken at level m <= M.
ALGEBRA_PSEUDO = ((3, 4, 5, 3, 10, 120), (5, 3, 4, 3, 10, 200), (7, 2, 4, 2, 10, 300))


@dataclass(frozen=True)
class RingCase:
    p: int
    n: int
    m: int
    binomial: tuple[int, ...]
    delta: int


@dataclass(frozen=True)
class PseudoCase:
    poly: object
    extra: object  # one term at an exponent the poly does not use
    m: int
    delta: int


class Algebra(Workload):
    """The `selftest` operator identities and three pseudo-polynomial checks."""

    name = "algebra"

    def setup(self, seed: int):
        from leopoldt.pseudo import PseudoPoly

        rng = random.Random(seed)
        rings = []
        for p, n, m, count in ALGEBRA_RINGS:
            for _ in range(count):
                b = tuple(rng.randrange(p**n) for _ in range(p**m))
                rings.append(RingCase(p, n, m, b, rng.randrange(p - 1)))
        pseudos = []
        for p, n, big_m, m, count, terms in ALGEBRA_PSEUDO:
            for _ in range(count):
                exps = rng.sample(range(p**big_m), terms + 1)
                coeffs = [rng.randrange(1, p**n) for _ in exps]
                poly = PseudoPoly(p, n, big_m, list(zip(coeffs[1:], exps[1:])))
                extra = PseudoPoly(p, n, big_m, [(1, exps[0])])
                pseudos.append(PseudoCase(poly, extra, m, rng.randrange(p - 1)))
        return rings, pseudos

    def grid(self, inputs):
        rings = [{"p": p, "n": n, "m": m, "Q": p**m, "elements": k}
                 for p, n, m, k in ALGEBRA_RINGS]
        pseudo = [{"p": p, "n": n, "M": big_m, "m": m, "Q": p**m, "pseudo_polys": k,
                   "terms": t} for p, n, big_m, m, k, t in ALGEBRA_PSEUDO]
        return rings + pseudo

    def calls(self, inputs, key):
        rings, pseudos = inputs
        out = []
        for i, case in enumerate(rings):
            for name, identity in RING_IDENTITIES:
                out.append(Call(f"{name} #{i} Q={case.p ** case.m}",
                                lambda case=case, identity=identity: identity(case),
                                _expect_true, 1))
        for i, case in enumerate(pseudos):
            for name, check in PSEUDO_CHECKS:
                out.append(Call(f"{name} #{i} p={case.poly.p}",
                                lambda case=case, check=check: check(case),
                                _expect_true, 1))
        return out


def _expect_true(result) -> list[str]:
    return [] if result is True else [f"identity returned {result!r}"]


def _elem(case: RingCase):
    from leopoldt.ring import RingElem
    return RingElem.from_binomial(case.p, case.n, case.m, case.binomial)


def _uu(case):
    from leopoldt import ring
    u = ring.op_unit_part(_elem(case))
    return ring.op_unit_part(u) == u


def _du(case):
    from leopoldt import ring
    f = _elem(case)
    return (ring.op_derivative(ring.op_unit_part(f))
            == ring.op_unit_part(ring.op_derivative(f)))


def _gg(case):
    from leopoldt import ring
    g = ring.op_isotypic(_elem(case), case.delta)
    return ring.op_isotypic(g, case.delta) == g


def _dg(case):
    from leopoldt import ring
    f = _elem(case)
    return (ring.op_derivative(ring.op_isotypic(f, case.delta))
            == ring.op_isotypic(ring.op_derivative(f), case.delta + 1))


RING_IDENTITIES = (("U.U == U", _uu), ("D.U == U.D", _du),
                   ("gamma_d.gamma_d == gamma_d", _gg),
                   ("D.gamma_d == gamma_{d+1}.D", _dg))


def _pseudo_leopoldt(case):
    from leopoldt import pseudo, ring
    f, d, m = case.poly, case.delta, case.m
    kappa = 1 + f.p
    lhs = pseudo.apply_leopoldt(
        pseudo.apply_isotypic(pseudo.apply_unit_part(f), -d), d, kappa)
    return (pseudo.to_ring(lhs, f.n, m - 1)
            == ring.op_leopoldt(pseudo.to_ring(f, f.n, m), d, kappa))


def _pseudo_equal(case):
    from leopoldt import pseudo
    f = case.poly
    return (pseudo.equal_test(f, f, f.n) is True
            and pseudo.equal_test(f, f + case.extra, f.n) is False)


def _pseudo_apply(case):
    from leopoldt import pseudo, ring
    f, d, m = case.poly, case.delta, case.m
    n = f.n
    image = pseudo.to_ring(f, n, m)
    nd = min(n, m)
    return (pseudo.to_ring(pseudo.apply_unit_part(f), n, m) == ring.op_unit_part(image)
            and pseudo.to_ring(pseudo.apply_isotypic(f, d), n, m)
            == ring.op_isotypic(image, d)
            and pseudo.to_ring(pseudo.apply_derivative(f), nd, m)
            == ring.op_derivative(image).reduce(n=nd))


PSEUDO_CHECKS = (("Gamma.gamma_{-d}.U on terms", _pseudo_leopoldt),
                 ("equal_test", _pseudo_equal), ("apply_*", _pseudo_apply))


# -- criterion ----------------------------------------------------------------

CRITERION_CLASSES = ((13, 5), (13, 7), (17, 5), (19, 7), (23, 3), (29, 3))


class Criterion(Workload):
    """`leopoldt pseudo-rational-check` for every primitive chi and delta."""

    name = "criterion"

    def setup(self, seed: int):
        from leopoldt import characters

        return [(chi, delta)
                for p, d in CRITERION_CLASSES
                for chi in characters.characters_mod(d, p)
                for delta in range(p - 1)]

    def grid(self, jobs):
        counts: dict[tuple[int, int], int] = {}
        for chi, _ in jobs:
            counts[chi.p, chi.d] = counts.get((chi.p, chi.d), 0) + 1
        return [{"p": p, "d": d, "n": 1, "m": None, "Q": None, "reports": k}
                for (p, d), k in sorted(counts.items())]

    def calls(self, jobs, key):
        lfunc = _lfunc()
        return [Call(f"pseudo-rational {chi.label()} p={chi.p} delta={delta}",
                     lambda chi=chi, delta=delta:
                         lfunc.not_pseudorational_report(chi, delta),
                     lambda rep, chi=chi, delta=delta: _check_criterion(rep, chi, delta),
                     1)
                for chi, delta in jobs]


def _check_criterion(rep, chi, delta: int) -> list[str]:
    p = chi.p
    expected = cyclotomic_in_one_plus_t(chi.d, p)
    tag = f"{chi.label()} p={p} delta={delta}"
    problems = []
    if (not rep.denominator_matches or rep.delta != delta % (p - 1)
            or tuple(rep.expected_denominator) != expected
            or tuple(rep.reduced_denominator) != expected):
        problems.append(f"{tag}: denominator {rep.reduced_denominator}")
    # F(1/x) = -chi(-1) F(x), so F + (-1)**delta F(iota) is 0 (the criterion
    # holds) when chi(-1) (-1)**delta = 1 and 2F (it fails) otherwise.
    chi_minus_one = 1 if chi.residues[chi.d - 1] == 1 else -1
    if rep.criterion.holds != (chi_minus_one * (-1) ** delta == 1):
        problems.append(f"{tag}: criterion holds = {rep.criterion.holds}")
    if not rep.criterion.holds:
        witness = list(rep.criterion.witness)
        if tuple(witness) != criterion_witness(chi.residues, p):
            problems.append(f"{tag}: witness differs from U(F) computed over F_p")
        if fp_divmod(witness, expected, p)[1]:
            problems.append(f"{tag}: witness not divisible by Phi_d(1+T)")
        if len(witness) < 2 or not fp_divmod(witness, [1, 1], p)[1]:
            problems.append(f"{tag}: witness is a power of 1+T")
    return problems


WORKLOADS = {w.name: w for w in (Sweep(), Oracle(), Algebra(), Criterion())}
