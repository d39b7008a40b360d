"""Acceptance criteria, one test per criterion, each printing a PASS line.

Expected values follow the oracle-first rule: exact Bernoulli numbers and
exact integer polynomial arithmetic provide the independent side of every
comparison; certified invariants are cross-checked against the
interpolation oracle, never asserted bare.
"""

import itertools
import random
import time
from fractions import Fraction

from leopoldt.characters import (
    ThetaCharacter,
    build_validate,
    enumerate_even_theta,
    trivial_character,
)
from leopoldt.lfunc import (
    bounds,
    default_check_exponents,
    g_c_surrogate,
    interpolation_selfcheck,
    iwasawa_invariants,
    iwasawa_series,
    lambda_sum_cyclotomic,
    not_pseudorational_report,
    valid_multipliers,
)
from leopoldt.padic import PadicInt, teichmuller
from leopoldt.ratfun import (
    _pdivmod,
    mu_gamma_formula,
    rat_fp,
    rat_zp,
    sym_poly_criterion,
    to_ring_elem,
)
from leopoldt.ring import (
    RingElem,
    decompose_t_power,
    evaluate,
    exponent_moment,
    ideal_zero,
    invariants,
    invert_unit,
    k_index,
    op_derivative,
    op_isotypic,
    op_leopoldt,
    op_unit_part,
    ring_one,
    substitute_exp,
)
from conftest import omega_poly, poly_add, poly_mul

SEED = 0xA11CE
IRREGULAR = {37: [32], 59: [44], 67: [58], 101: [68], 103: [24],
              131: [22], 149: [130], 157: [62, 110]}

CERTIFIED_LAMBDAS: dict[tuple[int, int], list[int]] = {}


def _report(number, name, budget, t0):
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s > {budget}s"
    print(f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s")


def _random_elem(rng, p, n, m):
    return RingElem.from_binomial(p, n, m,
                                  [rng.randrange(p**n) for _ in range(p**m)])


def test_criterion_1_operator_identities():
    t0 = time.monotonic()
    rng = random.Random(SEED)
    counts = 0
    for p in (3, 5, 7):
        for n, m in ((1, 2), (2, 2), (2, 3)):
            deltas = range(p - 1)
            for _ in range(12):
                f = _random_elem(rng, p, n, m)
                u = op_unit_part(f)
                assert op_unit_part(u) == u
                assert op_derivative(u) == op_unit_part(op_derivative(f))
                gs = [op_isotypic(f, d) for d in deltas]
                total = gs[0]
                for g in gs[1:]:
                    total = total + g
                assert total == f
                for d, g in enumerate(gs):
                    assert op_isotypic(g, d) == g
                    assert op_isotypic(g, (d + 1) % (p - 1)).is_zero()
                    assert op_isotypic(u, d) == op_unit_part(g)
                    assert op_derivative(g) == op_isotypic(op_derivative(f), d + 1)
                counts += 1
    assert counts == 9 * 12  # >= 100 random elements per identity and prime set
    _report(1, "operator identity suite", 30, t0)


def test_criterion_2_transform_identities():
    t0 = time.monotonic()
    rng = random.Random(SEED + 1)
    n, m = 2, 2
    for p in (3, 5, 7):
        kappa = 1 + p
        kappa2 = 1 + 2 * p
        for delta in range(p - 1):
            for i in range(100):
                f = _random_elem(rng, p, n, m)
                if i % 3 == 0:  # seed genuine ideal members
                    f = f.scale(p ** rng.choice((1, 2)))
                gam = op_leopoldt(f, delta, kappa)
                gu = op_isotypic(op_unit_part(f), -delta)
                # ideal membership transfers with one omega-level consumed
                for n2, m2 in itertools.product((1, 2), (1, 2)):
                    assert ideal_zero(gam, n2, m2 - 1) == ideal_zero(gu, n2, m2)
                # the transform absorbs gamma_{-delta} U
                assert op_leopoldt(gu, delta, kappa) == gam
                # twisting the argument by a unit twists the output
                a = rng.choice([x for x in range(2, p**m) if x % p])
                from leopoldt.padic import kappa_exponent
                e_a = kappa_exponent(PadicInt(p, m + 1, a),
                                     PadicInt(p, m + 1, kappa), m - 1)
                tw = [0] * p ** (m - 1)
                tw[e_a.value] = pow(teichmuller(a, p, n).value, delta, p**n)
                twist = RingElem.from_binomial(p, n, m - 1, tw)
                assert op_leopoldt(substitute_exp(f, a), delta, kappa) == twist * gam
                # changing the generator substitutes the exponent ratio
                assert (op_leopoldt(f, delta, kappa2)
                        == substitute_exp(gam, _log_ratio(p, kappa, kappa2, m - 1)))
    # interpolation congruence at (n, m) = (3, 3), j <= min(n,m) - 2
    for p in (3, 5):
        kappa = 1 + p
        for delta in range(p - 1):
            for _ in range(25):
                f = _random_elem(rng, p, 3, 3)
                g = op_leopoldt(f, delta, kappa)
                sv = rng.randrange(p**3)
                s = PadicInt(p, 3, sv)
                t = PadicInt(p, 3, pow(kappa, sv, p**3) - 1)
                for j in (0, 1):
                    lhs = evaluate(g, t).value
                    rhs = exponent_moment(f, k_index(s, delta, j)).value
                    assert (lhs - rhs) % p ** (j + 1) == 0
    _report(2, "Leopoldt transform identities", 60, t0)


def _log_ratio(p, kappa, kappa2, out_prec):
    from leopoldt.padic import kappa_exponent
    prec = out_prec + 1
    return kappa_exponent(PadicInt(p, prec, kappa),
                          PadicInt(p, prec, kappa2), out_prec).value


def test_criterion_3_interpolation_oracle():
    t0 = time.monotonic()
    jobs = [(p, trivial_character(p)) for p in (5, 7, 13)]
    jobs.append((5, build_validate(3, {1: 1, 2: 4}, 5)))
    jobs.append((5, build_validate(4, {1: 1, 3: 4}, 5)))
    for p, chi in jobs:
        thetas = [t for t in enumerate_even_theta(p, chi.d)
                  if t.chi.d == chi.d] if chi.d > 1 else enumerate_even_theta(p, 1)
        assert thetas
        for theta in thetas:
            f = iwasawa_series(theta, 3, 2)
            ks = default_check_exponents(theta, 3)
            checks = interpolation_selfcheck(theta, ks, 3, f)
            assert len(checks) == 3
            assert all(c.ok for c in checks), (p, theta.label())
            rep = invariants(f)
            if rep.certified:
                CERTIFIED_LAMBDAS.setdefault((p, theta.chi.d), []).append(
                    rep.lambda_certified)
    _report(3, "interpolation oracle mod p^3", 300, t0)


def test_criterion_4_irregular_primes():
    t0 = time.monotonic()
    for p, expected_irregular in IRREGULAR.items():
        lam = {}
        reps = {}
        for theta in enumerate_even_theta(p, 1):
            f = iwasawa_series(theta, 2, 1)
            rep = invariants(f)
            assert rep.certified, (p, theta.label())
            assert rep.mu_certified == 0
            j = (theta.delta + 1) % (p - 1)
            lam[j] = rep.lambda_certified
            reps[j] = (theta, f)
        assert sorted(j for j, l in lam.items() if l) == expected_irregular, p
        assert all(lam[j] == 1 for j in expected_irregular), p
        CERTIFIED_LAMBDAS.setdefault((p, 1), []).extend(lam.values())
        # oracle cross-checks: the irregular thetas mod p^2 and one regular
        # theta mod p
        sample = list(expected_irregular) + [next(j for j in sorted(lam) if not lam[j])]
        for j in sample:
            theta, f = reps[j]
            ks = default_check_exponents(theta, 3)
            n_chk = 2 if lam[j] else 1
            checks = interpolation_selfcheck(theta, ks, n_chk, f)
            assert all(c.ok for c in checks), (p, j)
            if lam[j]:
                # lambda = 1, mu = 0 forces values = 0 mod p but not mod p^2
                assert all(c.lhs.value % p == 0 for c in checks)
                assert any(c.lhs.value != 0 for c in checks)
    rep37 = lambda_sum_cyclotomic(37)
    assert rep37.total == 1
    rep157 = lambda_sum_cyclotomic(157)
    assert rep157.total == 2
    _report(4, "irregular prime lambda certification", 600, t0)


def test_criterion_5_bounds():
    t0 = time.monotonic()
    if not CERTIFIED_LAMBDAS:  # standalone run: regenerate a small sample
        for p in (5, 37):
            theta = enumerate_even_theta(p, 1)[0]
            rep = iwasawa_invariants(theta)
            CERTIFIED_LAMBDAS[(p, 1)] = [rep.invariants.lambda_certified]
    for (p, d), lams in CERTIFIED_LAMBDAS.items():
        b = bounds(p, d)
        for lam in lams:
            assert lam < b["new"]
    for p in (3, 5, 7, 13, 37, 59, 67, 101, 103, 131, 149, 157):
        for d in (1, 3, 4):
            if d % p == 0:
                continue
            b = bounds(p, d)
            assert b["new"] < b["rosenberg"]
    assert bounds(5, 1) == {"new": 4, "rosenberg": 6400, "field": 16}
    _report(5, "lambda bound comparisons", 30, t0)


def test_criterion_6_pseudo_rationality():
    t0 = time.monotonic()
    cases = [(5, build_validate(4, {1: 1, 3: 4}, 5), 0),
             (7, build_validate(3, {1: 1, 2: 6}, 7), 0)]
    for p, chi, delta in cases:
        rep = not_pseudorational_report(chi, delta)
        # reduced denominator must be Phi_d(1+T) up to scalar
        assert rep.denominator_matches, (p, chi.d)
        assert not rep.criterion.holds
        witness = list(rep.criterion.witness)
        q, r = _pdivmod(p, list(witness), [1, 1])
        assert r, "witness factor must not be a power of 1+T"
        q2, r2 = _pdivmod(p, witness, list(rep.expected_denominator))
        assert not r2, "witness must be divisible by the cyclotomic factor"
    # controls
    assert sym_poly_criterion(rat_fp([1, 2, 3], [1], 5), 0).holds
    assert sym_poly_criterion(rat_fp([1], [1, 1], 5), 1).holds
    assert sym_poly_criterion(rat_fp([2, 0, 1], [1], 7), 1).holds
    _report(6, "pseudo-rationality criterion", 5, t0)


def test_criterion_7_mu_formula():
    t0 = time.monotonic()
    rng = random.Random(SEED + 7)
    p = 5
    kappa = 1 + p
    branch_counts = {1: 0, 2: 0}
    attempts = 0
    while (branch_counts[1] < 20 or branch_counts[2] < 20) and attempts < 400:
        attempts += 1
        scale = p ** rng.choice((0, 0, 0, 1))
        num = [Fraction(rng.randrange(-6, 7) * scale) for _ in range(3)]
        den = [Fraction(1)] + [Fraction(rng.randrange(-2, 3)) for _ in range(2)]
        if all(x == 0 for x in num):
            continue
        f = rat_zp(num, den, p)
        delta = rng.randrange(p - 1)
        branch = 2 if (delta % 2 == 0 and delta != 0) else 1
        try:
            res = mu_gamma_formula(f, delta)
        except ValueError:
            continue
        img = to_ring_elem(f, 4, 3)
        gam = op_leopoldt(op_isotypic(op_unit_part(img), -delta), delta, kappa)
        rep = invariants(gam)
        if rep.certified:
            assert res.mu == 0, (num, den, delta)
        else:
            # escalate: divide the certified p-power out and recertify
            assert res.mu >= 1
            pn = p**gam.n
            assert all(c % p**res.mu == 0 for c in gam.coeffs)
            reduced = RingElem(p, gam.n - res.mu, gam.m,
                               [c // p**res.mu for c in gam.coeffs])
            assert invariants(reduced).certified, (num, den, delta, res)
        branch_counts[branch] += 1
    assert branch_counts[1] >= 20 and branch_counts[2] >= 20
    _report(7, "symmetrized mu formula", 60, t0)


def test_criterion_8_power_decomposition():
    t0 = time.monotonic()
    for p in (3, 5):
        for j in (0, 1, 2):
            deltas = decompose_t_power(j, p)
            # independent residual check with the conftest polynomial oracle
            total = []
            for level, d in enumerate(deltas):
                w = omega_poly(p, j - level)
                total = poly_add(total, [p**level * c for c in poly_mul(w, d)])
            expect = [0] * (p**j) + [1]
            assert total == expect, (p, j)
    _report(8, "T-power ideal decomposition", 30, t0)


def test_criterion_9_surrogate():
    t0 = time.monotonic()
    for n, m in ((2, 1), (3, 2)):
        g2 = g_c_surrogate(5, 2, n, m)
        expect = ring_one(5, n, m) - invert_unit(RingElem(5, n, m, [2, 1]))
        assert g2 == expect
    for p in (5, 13):
        theta = ThetaCharacter(trivial_character(p), 1)
        cs = valid_multipliers(p, 1)[:2]
        assert len(cs) == 2
        fs = [iwasawa_series(theta, 2, 2, c=c) for c in cs]
        assert fs[0] == fs[1]
    _report(9, "conductor-one surrogate", 30, t0)
