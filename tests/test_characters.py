import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from leopoldt import characters
from leopoldt.characters import (
    CharacterTableError,
    DirichletCharacter,
    NonIntegralError,
    ResourceGuardError,
    ThetaCharacter,
    bernoulli_chi,
    build_validate,
    character_from_omega_exponents,
    characters_mod,
    enumerate_even_theta,
    lp_value,
    trivial_character,
)
from leopoldt.padic import teichmuller


def limit_sum_bernoulli(chi, k, precision, guard=2):
    """B_{k,chi} mod p**precision as the p-adic limit
    (1/(d p^N)) sum_{a <= d p^N} chi(a) a**k, N = precision + guard, or
    NonIntegralError when the sum is not divisible by p**N.  Exponential in
    the precision: an independent reference for small p only."""
    p, d = chi.p, chi.d
    parity = -1 if chi.is_odd() else 1
    if parity != (-1) ** (k % 2) and not (d == 1 and k == 1):
        return 0
    n_lim = precision + guard
    mod = p ** (precision + n_lim)
    chi_mod = [teichmuller(r, p, precision + n_lim).value if r else 0
               for r in chi.residues]
    s = sum(chi_mod[a % d] * pow(a, k, mod)
            for a in range(1, d * p**n_lim + 1)) % mod
    if s % p**n_lim:
        raise NonIntegralError(f"limit sum is not divisible by {p}**{n_lim}")
    return (s // p**n_lim) * pow(d, -1, p**precision) % p**precision


def _outcome(thunk):
    try:
        return thunk()
    except NonIntegralError:
        return "not p-integral"


def test_build_validate_quadratic_mod4():
    chi = build_validate(4, {1: 1, 3: 4}, 5)
    assert chi.is_odd() and set(chi.residues) == {0, 1, 4}  # order 2
    assert chi.residue(3) == 4 and chi.residue(2) == 0
    assert teichmuller(chi.residue(3), 5, 2).value == 24  # -1 mod 25


def test_trivial_character():
    chi = build_validate(1, {}, 5)
    assert chi.d == 1 and chi.residue(5) == 1 and not chi.is_odd()


def test_rejects_imprimitive_with_witness():
    # chi_4 induced to modulus 8: constant on 1 mod 4
    with pytest.raises(CharacterTableError, match="modulus 4"):
        build_validate(8, {1: 1, 3: 4, 5: 1, 7: 4}, 5)


def test_rejects_non_multiplicative():
    with pytest.raises(CharacterTableError, match="multiplicative"):
        build_validate(5, {1: 1, 2: 2, 3: 2, 4: 1}, 7)


def _multiplicative_by_pairs(d, residues, p):
    # the full check over every pair of units, O(d**2)
    units = [a for a in range(d) if gcd(a, d) == 1]
    return all(residues[a * b % d] == residues[a] * residues[b] % p
               for a in units for b in units)


def _assert_validation_matches_pairs(d, residues, p):
    try:
        build_validate(d, {a: r for a, r in enumerate(residues) if r}, p)
        refusal = None
    except CharacterTableError as exc:
        refusal = str(exc)
    if _multiplicative_by_pairs(d, residues, p):
        assert refusal is None or "not primitive" in refusal, (d, residues, refusal)
    else:
        assert refusal is not None and "not multiplicative" in refusal, (d, residues)


@pytest.mark.parametrize("p", [7, 13])
def test_multiplicativity_by_generators_matches_all_pairs(p):
    # every primitive character of conductor d <= 30, and each table that
    # differs from one in a single unit value
    count = 0
    for d in range(3, 31):
        if d % p == 0:
            continue
        for chi in characters_mod(d, p):
            _assert_validation_matches_pairs(d, chi.residues, p)
            for a in range(2, d):
                for h in (p - 1, 2):
                    if chi.residues[a]:
                        changed = list(chi.residues)
                        changed[a] = changed[a] * h % p
                        _assert_validation_matches_pairs(d, changed, p)
                        count += 1
    assert count >= 500


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multiplicativity_by_generators_random_tables(data):
    p = data.draw(st.sampled_from((3, 5, 7)))
    d = data.draw(st.integers(min_value=2, max_value=48).filter(lambda d: d % p))
    residues = [0] * d
    for a in range(d):
        if gcd(a, d) == 1:
            # mostly +-1 so that multiplicative tables are drawn too
            residues[a] = 1 if a == 1 % d else data.draw(
                st.sampled_from((1, p - 1, 1, p - 1, 2 % p or 1)))
    _assert_validation_matches_pairs(d, residues, p)


def test_rejects_conductor_above_bound():
    # refused before the table of d residues is allocated
    with pytest.raises(ValueError, match="outside 1..1000000"):
        build_validate(10**12 + 1, {1: 1}, 5)
    assert characters.MAX_CONDUCTOR == 10**6


def test_rejects_conductor_divisible_by_p():
    with pytest.raises(ValueError):
        build_validate(10, {1: 1, 3: 1, 7: 1, 9: 1}, 5)


def test_omega_exponent_ingestion():
    # least primitive root mod 5 is 2; omega(2)^2 = omega(4) = -1
    chi = character_from_omega_exponents(4, {1: 0, 3: 2}, 5)
    assert chi.residue(3) == 4


def test_characters_mod_counts():
    # mod 4: one nontrivial character, quadratic
    assert len(characters_mod(4, 5)) == 1
    # mod 2 carries no primitive character
    assert characters_mod(2, 5) == []
    # mod 3 at p = 7: the quadratic character survives (order 2 | 6)
    chis = characters_mod(3, 7)
    assert len(chis) == 1 and chis[0].residue(2) == 6
    # mod 5 at p = 11: characters have order dividing gcd(4, 10) = 2
    chis = characters_mod(5, 11)
    assert len(chis) == 1 and set(chis[0].residues) == {0, 1, 10}


def test_enumerate_even_theta():
    assert [t.label() for t in enumerate_even_theta(5, 1)] == ["omega^2"]
    assert len(enumerate_even_theta(37, 1)) == 17
    assert len(enumerate_even_theta(3, 1)) == 0
    labels = [t.label() for t in enumerate_even_theta(5, 4)]
    assert "omega^2" in labels and len(labels) == 3
    for theta in enumerate_even_theta(5, 4):
        eps = -1 if theta.chi.is_odd() else 1
        assert eps * (-1) ** ((theta.delta + 1) % 2) == 1


def test_theta_parity_validation():
    chi4 = build_validate(4, {1: 1, 3: 4}, 5)
    ThetaCharacter(chi4, 0)
    with pytest.raises(ValueError):
        ThetaCharacter(chi4, 1)  # chi odd needs delta even
    with pytest.raises(ValueError):
        ThetaCharacter(trivial_character(5), 3)  # omega^4 = trivial


def test_bernoulli_first_values():
    # B_{1,chi} = -1/3 for the odd quadratic character mod 3
    chi3 = build_validate(3, {1: 1, 2: 4}, 5)
    assert bernoulli_chi(chi3, 1, 3).value == (-pow(3, -1, 125)) % 125
    # parity mismatch: chi_4 odd, k = 2 even
    chi4 = build_validate(4, {1: 1, 3: 4}, 5)
    assert bernoulli_chi(chi4, 2, 2).value == 0
    assert bernoulli_chi(chi4, 1, 2).value != 0


def test_bernoulli_ordinary_von_staudt():
    # B_2 = 1/6 and B_4 = -1/30 wherever they are p-integral
    for p in (5, 7):
        triv = trivial_character(p)
        q = p**3
        assert bernoulli_chi(triv, 2, 3).value == pow(6, -1, q)
    triv7 = trivial_character(7)
    assert bernoulli_chi(triv7, 4, 3).value == (-pow(30, -1, 343)) % 343
    # (p-1) | k: von Staudt pole is detected, not silently wrong
    with pytest.raises(NonIntegralError):
        bernoulli_chi(trivial_character(5), 4, 3)


def test_bernoulli_exceptional_b1():
    # B_{1,1} = 1/2 despite the parity mismatch
    triv = trivial_character(5)
    assert bernoulli_chi(triv, 1, 3).value == pow(2, -1, 125)


def test_bernoulli_guard_stability():
    # the reference does not depend on its guard digits
    chi3 = build_validate(3, {1: 1, 2: 4}, 5)
    for k in (1, 3, 5):
        a = limit_sum_bernoulli(chi3, k, 3, guard=2)
        b = limit_sum_bernoulli(chi3, k, 3, guard=3)
        assert a == b == bernoulli_chi(chi3, k, 3).value


# Limit-sum terms allowed per case, and in total over the sampled grid.
LIMIT_SUM_CASE_TERMS = 60_000
LIMIT_SUM_BUDGET = 8_000_000


def test_bernoulli_chi_matches_limit_sum():
    # p <= 13, primitive chi with d <= 13, k <= 3(p-1)+1, precision 1-3:
    # every conductor-one case (these hold the von Staudt poles) and a seeded
    # sample of the rest within the term budget
    cases = []
    for p in (3, 5, 7, 11, 13):
        for d in range(1, 14):
            if d % p == 0:
                continue
            for chi in characters_mod(d, p):
                parity = 1 if chi.is_odd() else 0
                for k in range(3 * (p - 1) + 2):
                    if k % 2 != parity and not (d == 1 and k == 1):
                        continue
                    for precision in (1, 2, 3):
                        terms = d * p ** (precision + 2)
                        if terms <= LIMIT_SUM_CASE_TERMS:
                            cases.append((terms, chi, k, precision))
    random.Random(11).shuffle(cases)
    cases.sort(key=lambda case: case[1].d != 1)
    spent = non_integral = compared = 0
    for terms, chi, k, precision in cases:
        if chi.d != 1 and spent + terms > LIMIT_SUM_BUDGET:
            continue
        spent += terms
        expect = _outcome(lambda: limit_sum_bernoulli(chi, k, precision))
        got = _outcome(lambda: bernoulli_chi(chi, k, precision).value)
        assert got == expect, (chi, k, precision)
        non_integral += expect == "not p-integral"
        compared += chi.d != 1
    assert non_integral >= 10 and compared >= 400


def test_bernoulli_resource_guard(monkeypatch):
    # an index above the limit, or power sums of more than RESOURCE_GUARD
    # terms, are refused before the B_j table grows
    def never(k):
        raise AssertionError("the Bernoulli table grew past the admission check")

    monkeypatch.setattr(characters, "_bernoulli_table", never)
    with pytest.raises(ResourceGuardError):
        bernoulli_chi(trivial_character(101), 10**6, 2)
    chi3 = build_validate(3, {1: 1, 2: 4}, 5)
    with pytest.raises(ResourceGuardError):
        bernoulli_chi(chi3, characters.BERNOULLI_INDEX_LIMIT + 1, 1)
    d = characters.RESOURCE_GUARD // 1000 + 1  # a table of d units, k = 1000
    wide = DirichletCharacter(5, d, (0,) + (1,) * (d - 1))
    with pytest.raises(ResourceGuardError):
        bernoulli_chi(wide, 1000, 1)


def test_lp_value_structure():
    # lp_value = -(1 - chi(p) p^k) B_{k+1,chi}/(k+1) by construction
    p = 5
    chi3 = build_validate(3, {1: 1, 2: 4}, p)
    theta = ThetaCharacter(chi3, 0)  # chi3 odd, delta even
    k = 8
    got = lp_value(theta, k, 3)
    bern = bernoulli_chi(chi3, k + 1, 3)
    chi_p = teichmuller(chi3.residue(p), p, 3).value
    expect = (-(1 - chi_p * pow(p, k, 125)) * bern.value *
              pow(k + 1, -1, 125)) % 125
    assert got.value == expect
    with pytest.raises(ValueError):
        lp_value(theta, 1, 3)


def test_lp_value_with_p_dividing_k_plus_one():
    # k = 4 has k+1 = 5: the extra digit makes the division exact
    p = 5
    chi3 = build_validate(3, {1: 1, 2: 4}, p)
    theta = ThetaCharacter(chi3, 0)
    got = lp_value(theta, 4, 3)
    bern = bernoulli_chi(chi3, 5, 4)
    chi_p = teichmuller(chi3.residue(p), p, 4).value
    num = (-(1 - chi_p * pow(p, 4, 5**4)) * bern.value) % 5**4
    assert num % 5 == 0
    assert got.value == (num // 5) % 125


def test_lp_value_trivial_chi_euler_factor():
    # d = 1: chi(p) = 1 and the Euler factor is 1 - p^k
    p = 5
    theta = ThetaCharacter(trivial_character(p), 1)
    k = 1
    got = lp_value(theta, k, 3)
    bern = bernoulli_chi(trivial_character(p), 2, 3)
    expect = (-(1 - 5) * bern.value * pow(2, -1, 125)) % 125
    assert got.value == expect


def test_kummer_congruence_neighbours():
    # consecutive k and k + (p-1): values agree mod p once Euler factors align
    p = 5
    theta = ThetaCharacter(trivial_character(p), 1)
    a = lp_value(theta, 1, 1)
    b = lp_value(theta, 5, 1)
    assert a.value % p == b.value % p
