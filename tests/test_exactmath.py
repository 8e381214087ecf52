import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_factoring import (
    miller_rabin,
    primes_below,
    reference_factorize,
    trial_division_factorize,
)

from doublepell import (
    DivisionByZero,
    DomainError,
    FactoringLimit,
    MultiQuad,
    QuadPoint,
    SearchConfig,
    enumerate_family_xy,
    enumerate_family_xz,
    enumerate_family_yz,
    exactmath,
    factorize,
    squarefree_decompose,
    validate_curve,
)
from doublepell.exactmath import _is_probable_prime


def trial_division_squarefree(n):
    """Independent oracle: peel off square factors by trial division."""
    assert n != 0
    sign = 1 if n > 0 else -1
    n = abs(n)
    s, d = 1, 1
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        s *= f ** (e // 2)
        if e % 2:
            d *= f
        f += 1
    d *= n
    return s, sign * d


class TestSquarefreeDecompose:
    def test_identity_case(self):
        assert squarefree_decompose(1) == (1, 1)

    def test_twelve(self):
        assert squarefree_decompose(12) == trial_division_squarefree(12) == (2, 3)

    def test_negative(self):
        assert squarefree_decompose(-18) == trial_division_squarefree(-18) == (3, -2)

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            squarefree_decompose(0)

    def test_against_trial_division(self):
        for n in range(-2000, 2001):
            if n == 0:
                continue
            s, d = squarefree_decompose(n)
            assert (s, d) == trial_division_squarefree(n)
            assert s * s * d == n

    def test_large_values(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.randrange(10**8, 10**12)
            s, d = squarefree_decompose(n)
            assert s * s * d == n
            assert trial_division_squarefree(d)[0] == 1


def test_factorize_reassembles():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(2, 10**10)
        total = 1
        for p, e in factorize(n).items():
            total *= p**e
        assert total == n


# psi_12 and psi_13: the least strong pseudoprimes to the first 12 and 13
# prime bases, each a product of two primes.
PSI_12 = (399165290221, 798330580441)
PSI_13 = (1287836182261, 2575672364521)


class TestFactoringLayer:
    def test_primality_agrees_with_a_sieve_below_10_5(self):
        primes = set(primes_below(10**5))
        assert [n for n in range(10**5) if _is_probable_prime(n) != (n in primes)] == []

    def test_strong_pseudoprimes_are_composite(self):
        for p, q in (PSI_12, PSI_13):
            assert miller_rabin(p) and miller_rabin(q)
            assert _is_probable_prime(p) and _is_probable_prime(q)
            assert not _is_probable_prime(p * q)
        # Strong pseudoprimes to base 2, and Lucas pseudoprimes.
        for n in (2047, 3277, 4033, 4681, 8321, 5459, 5777, 10877, 3215031751):
            assert not _is_probable_prime(n)
        # Mersenne primes past 2^64, where no Baillie-PSW proof holds.
        for e in (89, 107, 127):
            assert _is_probable_prime(2**e - 1)

    def test_strong_pseudoprime_is_factored(self):
        p, q = PSI_12
        assert factorize(p * q) == {p: 1, q: 1}

    def test_square_part_of_a_strong_pseudoprime_is_found(self):
        p, q = PSI_12
        assert squarefree_decompose(-p * p * q) == (p, -q)

    def test_point_over_a_strong_pseudoprime_gets_a_squarefree_eps(self):
        p, q = PSI_12
        point = QuadPoint.make(p * p * q, (1, 0), (0, 1), (2, 3))
        assert point.eps == q
        assert point.y == (0, p) and point.z == (2, 3 * p)

    def test_rho_stops_at_its_cap_and_names_the_number(self, monkeypatch):
        # Rho needs stretches of 2^19 steps to split psi_12; under a cap of
        # 2^10 it gives up instead.
        p, q = PSI_12
        monkeypatch.setattr(exactmath, "_RHO_MAX_STRETCH", 2**10)
        with pytest.raises(FactoringLimit, match=str(p * q)):
            factorize(p * q)

    def test_family_radicands_match_the_reference(self, monkeypatch):
        # Every radicand the three family walks factor, up to 38 digits.
        # (7,6,1,2) stops at 16 points: its 17th xy radicand holds a
        # 35-digit cofactor whose least prime rho cannot reach.
        seen = {}

        def recording(n):
            seen[n] = factorize(n)
            return seen[n]

        monkeypatch.setattr(exactmath, "factorize", recording)
        for params, count in (((2, 3, 1, 1), 20), ((3, 2, -2, 1), 20), ((7, 6, 1, 2), 16)):
            cfg = SearchConfig(validate_curve(*params), family_count=count)
            for enumerate_family in (enumerate_family_xy, enumerate_family_xz, enumerate_family_yz):
                enumerate_family(cfg)
        assert len(seen) > 100
        assert max(len(str(abs(n))) for n in seen) == 38
        for n, factors in seen.items():
            assert factors == reference_factorize(n), n

    def test_random_values_below_10_12_match_trial_division(self):
        primes = primes_below(10**6 + 1)
        rng = random.Random(12)
        for _ in range(40):
            n = rng.randrange(1, 10**12)
            assert factorize(n) == trial_division_factorize(n, primes), n
        for n in (10**12 - 11, 999983 * 999979, 9973**3, 10007**2, 2**39):
            assert factorize(n) == trial_division_factorize(n, primes), n

    def test_products_of_two_primes(self):
        rng = random.Random(5)
        pairs = [(28110398770513, 71751541), (169049663943243481, 6976873)]
        while len(pairs) < 12:
            small = rng.randrange(10**4, 10**8)
            large = rng.randrange(10**5, 10**17)
            if miller_rabin(small) and miller_rabin(large) and 10 <= len(str(small * large)) <= 25:
                pairs.append((small, large))
        for p, q in pairs:
            assert factorize(p * q) == {p: 1, q: 1}


_KNOWN_PRIMES = (2, 3, 5, 7, 9973, 10007, 1000003, 9999991)


@settings(deadline=None)
@given(st.integers(-(10**18), 10**18).filter(bool))
def test_factors_multiply_back_and_are_prime(n):
    total = 1
    for p, e in factorize(n).items():
        assert e >= 1 and _is_probable_prime(p)
        total *= p**e
    assert total == abs(n)


@settings(deadline=None)
@given(
    st.integers(1, 10**6),
    st.sets(st.sampled_from(_KNOWN_PRIMES), max_size=4),
    st.sampled_from((1, -1)),
)
def test_square_part_is_split_from_distinct_primes(s, primes, sign):
    d = sign * math.prod(primes)
    assert squarefree_decompose(s * s * d) == (s, d)


class TestBasicAlgebra:
    def test_add_cancellation(self):
        assert MultiQuad({1: 1, 2: 1}) + MultiQuad({1: 1, 2: -1}) == 2

    def test_add_disjoint(self):
        assert MultiQuad({2: 1}) + MultiQuad({3: 1}) == MultiQuad({2: 1, 3: 1})

    def test_additive_inverse(self):
        x = MultiQuad({1: 5, 6: -2})
        assert (x + (-x)).is_zero()

    def test_sqrt2_squared(self):
        assert MultiQuad.sqrt_int(2) * MultiQuad.sqrt_int(2) == 2

    def test_sqrt2_times_sqrt3(self):
        assert MultiQuad.sqrt_int(2) * MultiQuad.sqrt_int(3) == MultiQuad({6: 1})

    def test_negative_radicand_squared(self):
        root = MultiQuad.sqrt_int(-2)
        assert root * root == -2

    def test_unit_product(self):
        assert MultiQuad({1: 5, 6: -2}) * MultiQuad({1: 5, 6: 2}) == 1

    def test_nonsquarefree_radicand_folds(self):
        assert MultiQuad({12: 1}) == MultiQuad({3: 2})
        assert MultiQuad.sqrt_int(4) == 2

    def test_zero_radicand_rejected(self):
        with pytest.raises(DomainError):
            MultiQuad({0: 1})


class TestInverse:
    def test_rational(self):
        assert MultiQuad.from_rational(2).inverse() == Fraction(1, 2)

    def test_pell_unit(self):
        assert MultiQuad({1: 5, 6: -2}).inverse() == MultiQuad({1: 5, 6: 2})

    def test_sqrt2(self):
        assert MultiQuad.sqrt_int(2).inverse() == MultiQuad({2: Fraction(1, 2)})

    def test_zero_raises(self):
        with pytest.raises(DivisionByZero):
            MultiQuad.zero().inverse()

    def test_random_small_supports(self):
        rng = random.Random(3)
        pool = [-6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 15]
        for _ in range(200):
            rads = rng.sample(pool, rng.randint(1, 4))
            x = MultiQuad(
                {1: rng.randint(-9, 9)}
                | {r: rng.randint(-9, 9) for r in rads}
            )
            if x.is_zero():
                continue
            assert x * x.inverse() == 1


    # Two 10-digit primes; their product stands for a radicand too large to
    # factor cheaply.
    BIG = 1_000_000_007 * 1_000_000_009

    def test_random_composite_supports(self):
        rng = random.Random(13)
        pool = [6, 10, 15, 21, 35, -30, -1, self.BIG]
        roots = {r: MultiQuad({r: 1}) for r in pool}
        for _ in range(100):
            x = MultiQuad.from_rational(rng.randint(-9, 9))
            for r in rng.sample(pool, rng.randint(1, 4)):
                x = x + rng.randint(-9, 9) * roots[r]
            if x.is_zero():
                continue
            assert x * x.inverse() == 1

    def test_large_radicand_is_not_factored(self, monkeypatch):
        x = MultiQuad({1: 3, 6: -1, self.BIG: 2, -self.BIG * 5: 1})

        def refuse(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(exactmath, "factorize", refuse)
        assert x * x.inverse() == 1


class TestConjugateUnder:
    """MultiQuad._flip, the automorphism inverse() multiplies by: under a
    prime key p, sqrt(p) -> -sqrt(p); under -1, complex conjugation."""

    def test_flips_divisible(self):
        assert MultiQuad({1: 1, 2: 1})._flip(2) == MultiQuad({1: 1, 2: -1})

    def test_fixes_coprime(self):
        x = MultiQuad({1: 1, 2: 1})
        assert x._flip(3) == x

    def test_divides_composite_radicand(self):
        assert MultiQuad({6: 1})._flip(2) == MultiQuad({6: -1})

    def test_involution(self):
        x = MultiQuad({1: 3, 2: 1, 6: -4, -1: 2})
        for key in (2, 3, -1):
            assert x._flip(key)._flip(key) == x

    def test_negative_one_flips_imaginary(self):
        x = MultiQuad({1: 1, -2: 3, 2: 5})
        assert x._flip(-1) == MultiQuad({1: 1, -2: -3, 2: 5})

    def test_composite_split_key_flips_its_multiples(self):
        x = MultiQuad({1: 1, 6: 2, 30: 3, 5: 4, -6: 5})
        assert x._split_key() == 6
        assert x._flip(6) == MultiQuad({1: 1, 6: -2, 30: -3, 5: 4, -6: -5})


def _random_terms(rng, pool, max_coeff):
    rads = rng.sample(pool, rng.randint(0, 3))
    terms = {1: rng.randint(-max_coeff, max_coeff)}
    for r in rads:
        terms[r] = rng.randint(-max_coeff, max_coeff)
    return terms


def _random_mq(rng, pool, max_coeff):
    return MultiQuad(_random_terms(rng, pool, max_coeff))


def _large_sample():
    """10^4 triples of term maps with coefficients up to 10^6."""
    rng = random.Random(2024)
    pool = [-6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 15, 21, -10]
    for _ in range(10_000):
        yield [_random_terms(rng, pool, 10**6) for _ in range(3)]


def test_field_axioms_large_sample():
    """Associativity, commutativity, distributivity on 10^4 random triples
    with coefficients up to 10^6; all exact."""
    for terms in _large_sample():
        x, y, z = map(MultiQuad, terms)
        assert x + y == y + x
        assert x * y == y * x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z


class FractionMultiQuad:
    """The Fraction-coefficient form that integer numerators over one
    denominator replaced, kept as the reference: {radicand: nonzero
    Fraction}, with terms merged as they are built."""

    def __init__(self, terms):
        self.terms = {}
        for rad, co in terms.items():
            co = Fraction(co)
            if co == 0:
                continue
            s, d = squarefree_decompose(rad)
            self._accumulate(d, co * s)

    def _accumulate(self, rad, co):
        cur = self.terms.get(rad, Fraction(0)) + co
        if cur == 0:
            self.terms.pop(rad, None)
        else:
            self.terms[rad] = cur

    def __add__(self, other):
        out = FractionMultiQuad(self.terms)
        for rad, co in other.terms.items():
            out._accumulate(rad, co)
        return out

    def __mul__(self, other):
        out = FractionMultiQuad({})
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                g = math.gcd(abs(r1), abs(r2))
                mult = -g if (r1 < 0 and r2 < 0) else g
                out._accumulate((r1 // g) * (r2 // g), c1 * c2 * mult)
        return out

    def __eq__(self, other):
        return self.terms == other.terms

    def agrees(self, mq):
        return mq.items() == tuple(sorted(self.terms.items()))


def _assert_matches_reference(*term_maps):
    """Each map builds the same value in both forms, and each consecutive
    pair adds, multiplies and compares alike."""
    built = [(MultiQuad(t), FractionMultiQuad(t)) for t in term_maps]
    for mq, ref in built:
        assert ref.agrees(mq), mq
    for (x, rx), (y, ry) in zip(built, built[1:]):
        assert (rx + ry).agrees(x + y), (x, y)
        assert (rx * ry).agrees(x * y), (x, y)
        assert (x == y) == (rx == ry)


def test_large_sample_matches_fraction_reference():
    """The large sample's elements, and the same numerators over random
    denominators, against the Fraction reference."""
    dens = random.Random(31)
    for x, y, z in _large_sample():
        yq, zq = ({r: Fraction(c, dens.randint(1, 60)) for r, c in t.items()} for t in (y, z))
        _assert_matches_reference(x, yq, zq)


class TestNormalForm:
    def test_one_value_built_three_ways(self):
        x = MultiQuad({1: Fraction(2, 4), 2: Fraction(1, 2)})
        y = MultiQuad({1: 1, 2: 1}) / 2
        z = MultiQuad.from_rational(Fraction(1, 2)) + MultiQuad({8: Fraction(1, 4)})
        assert x == y == z
        assert hash(x) == hash(y) == hash(z)

    def test_scaling_then_dividing_round_trips(self):
        x = MultiQuad({1: Fraction(3, 5), 6: Fraction(-7, 10)})
        assert (x * 6) / 6 == x

    def test_negative_divisor_keeps_denominator_positive(self):
        q = MultiQuad({1: 1, 2: Fraction(1, 2)}) / -3
        assert q._den > 0
        assert q == MultiQuad({1: Fraction(-1, 3), 2: Fraction(-1, 6)})

    def test_division_by_zero_raises(self):
        with pytest.raises(DivisionByZero):
            MultiQuad({2: 1}) / 0

    def test_rational_hashes_like_its_fraction(self):
        assert hash(MultiQuad.from_rational(Fraction(3, 4))) == hash(Fraction(3, 4))


def test_canonical_form_round_trip():
    rng = random.Random(5)
    pool = [-6, -3, -2, -1, 2, 3, 5, 6]
    for _ in range(300):
        x = _random_mq(rng, pool, 100)
        y = _random_mq(rng, pool, 100)
        built_two_ways = (x + y) * (x + y)
        expanded = x * x + 2 * (x * y) + y * y
        assert built_two_ways == expanded
        assert hash(built_two_ways) == hash(expanded)


def test_embedding_consistency():
    """Numeric embedding of exact results matches complex arithmetic to 1e-9
    relative error (sanity check only; exact tests are primary)."""
    rng = random.Random(17)
    pool = [-6, -3, -2, -1, 2, 3, 5, 6, 7]
    for _ in range(300):
        x = _random_mq(rng, pool, 50)
        y = _random_mq(rng, pool, 50)
        for exact, numeric in (
            (x + y, x.to_complex() + y.to_complex()),
            (x * y, x.to_complex() * y.to_complex()),
        ):
            lhs = exact.to_complex()
            scale = 1 + abs(lhs) + abs(numeric)
            assert abs(lhs - numeric) <= 1e-9 * scale
        if not x.is_zero():
            inv = x.inverse().to_complex()
            assert abs(inv * x.to_complex() - 1) <= 1e-9 * (1 + abs(inv))


def test_rational_value_guards():
    with pytest.raises(DomainError):
        MultiQuad({2: 1}).rational_value()
    assert MultiQuad.from_rational(Fraction(3, 4)).rational_value() == Fraction(3, 4)


_rads = st.sampled_from([-6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10, 15])
_coeffs = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@st.composite
def term_maps(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n):
        terms[draw(_rads)] = draw(_coeffs)
    return terms


def multiquads():
    return term_maps().map(MultiQuad)


@settings(deadline=None)
@given(term_maps(), term_maps(), term_maps())
def test_matches_fraction_reference_property(x, y, z):
    _assert_matches_reference(x, y, z)


@settings(deadline=None)
@given(multiquads(), multiquads())
def test_commutativity_property(x, y):
    assert x + y == y + x
    assert x * y == y * x


@settings(deadline=None)
@given(multiquads(), multiquads(), multiquads())
def test_distributivity_property(x, y, z):
    assert x * (y + z) == x * y + x * z


@settings(deadline=None, max_examples=60)
@given(multiquads())
def test_inverse_property(x):
    if not x.is_zero():
        assert x * x.inverse() == 1


@settings(deadline=None)
@given(term_maps(), st.sampled_from([2, 3, 5, 7, -1, 6]))
def test_conjugation_is_ring_homomorphism(terms, key):
    # A composite key, as _split_key may return, is an automorphism on
    # values whose radicands it divides or is coprime to; keep only those.
    x = MultiQuad({
        rad: co for rad, co in terms.items()
        if key == -1 or rad % key == 0 or math.gcd(rad, key) == 1
    })
    y = MultiQuad({1: 2, 6: 1})
    assert (x * y)._flip(key) == x._flip(key) * y._flip(key)
    assert (x + y)._flip(key) == x._flip(key) + y._flip(key)
