import functools
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest

from doublepell import (
    DomainError,
    QuadPoint,
    SPrimeSet,
    SearchConfig,
    Verdict,
    box_search,
    classify,
    enumerate_family_xy,
    enumerate_family_xz,
    enumerate_family_yz,
    on_curve,
    search_exceptional,
    sunit_solutions,
    validate_curve,
    verify_identities,
)
from doublepell.search import (
    _box_candidates,
    _exceptional_candidates,
    _squarefree_eps_range,
)
from doublepell.exactmath import squarefree_decompose


@pytest.fixture
def curve():
    return validate_curve(2, 3, 1, 1)


class TestFamilyXY:
    def test_reference_sequence(self, curve):
        points = enumerate_family_xy(SearchConfig(curve, family_count=4))
        assert points == [
            QuadPoint.rational(0, 1, 1),
            QuadPoint.make(13, (2, 0), (3, 0), (0, 1)),
            QuadPoint.make(433, (12, 0), (17, 0), (0, 1)),
            QuadPoint.make(14701, (70, 0), (99, 0), (0, 1)),
        ]

    def test_emissions_verified(self, curve):
        for p in enumerate_family_xy(SearchConfig(curve, family_count=6)):
            assert on_curve(curve, p)
            assert verify_identities(curve, p).all_pass()

    def test_empty_when_conic_has_no_integral_points(self):
        barren = validate_curve(5, 7, 2, 3)  # y^2 = 5x^2 + 2 fails mod 5
        assert enumerate_family_xy(SearchConfig(barren, family_count=3)) == []

    def test_completed_coordinate_can_vanish(self):
        # z^2 = x^2 - 1 is 0 at x = 1, on y^2 = 2x^2 - 1.
        thin = validate_curve(2, 1, -1, -1)
        assert enumerate_family_xy(SearchConfig(thin, family_count=2)) == [
            QuadPoint.rational(1, 1, 0),
            QuadPoint.make(6, (5, 0), (7, 0), (0, 2)),
        ]


class TestFamilyXZ:
    def test_reference_sequence(self, curve):
        points = enumerate_family_xz(SearchConfig(curve, family_count=4))
        assert points == [
            QuadPoint.rational(0, 1, 1),
            QuadPoint.make(3, (1, 0), (0, 1), (2, 0)),
            QuadPoint.make(33, (4, 0), (0, 1), (7, 0)),
            QuadPoint.make(451, (15, 0), (0, 1), (26, 0)),
        ]

    def test_k_rational_emission_flagged(self, curve):
        points = enumerate_family_xz(SearchConfig(curve, family_count=2))
        assert classify(curve, points[1]).verdict is Verdict.K_RATIONAL

    def test_canonical_deduplication(self, curve):
        points = enumerate_family_xz(SearchConfig(curve, family_count=6))
        assert len(points) == len(set(points))
        negated = QuadPoint.make(33, (4, 0), (0, -1), (7, 0))
        assert negated not in points  # only the canonical representative


class TestFamilyYZ:
    def test_reference_sequence(self, curve):
        points = enumerate_family_yz(SearchConfig(curve, family_count=3))
        assert points == [
            QuadPoint.rational(0, 1, 1),
            QuadPoint.make(10, (0, 2), (9, 0), (11, 0)),
            QuadPoint.make(110, (0, 6), (89, 0), (109, 0)),
        ]

    def test_divisibility_filter(self, curve):
        for p in enumerate_family_yz(SearchConfig(curve, family_count=5)):
            uy = p.y[0]
            t = (uy * uy - curve.c) / curve.a
            assert t.denominator == 1  # S = empty: plain integrality
            assert curve.a * (p.x[0] ** 2 + p.eps * p.x[1] ** 2) == uy * uy - curve.c

    def test_emissions_verified(self, curve):
        for p in enumerate_family_yz(SearchConfig(curve, family_count=5)):
            assert on_curve(curve, p)
            assert verify_identities(curve, p).all_pass()


@functools.cache
def naive_conic_points(A, B, C, bound):
    """The (s, t) with s >= 0, 0 <= t <= bound and A*s^2 - B*t^2 = C, in
    ascending t, by testing every t: written independently of the Pell
    module."""
    points = []
    for t in range(bound + 1):
        r = B * t * t + C
        if r % A == 0 and r // A >= 0 and isqrt(r // A) ** 2 == r // A:
            points.append((isqrt(r // A), t))
    return points


def is_s_smooth(n, s_primes):
    for p in s_primes.primes:
        while n % p == 0:
            n //= p
    return n == 1


# The pair each family walks, read off a canonical point: integral s >= 0
# and t >= 0 with A*s^2 - B*t^2 = C.
FAMILY_WALKS = {
    "xy": (enumerate_family_xy, lambda a, b, c, d: (1, a, c), lambda p: (p.y[0], p.x[0])),
    "xz": (enumerate_family_xz, lambda a, b, c, d: (1, b, d), lambda p: (p.z[0], p.x[0])),
    "yz": (
        enumerate_family_yz,
        lambda a, b, c, d: (b, a, b * c - a * d),
        lambda p: (p.y[0], p.z[0]),
    ),
}


def test_family_walks_match_a_naive_scan():
    # Each walk must emit, in ascending t, exactly the conic points a scan of
    # every integral t finds, less (for yz) those whose x^2 = (y^2 - c)/a
    # is not an S-fraction: up to the last emitted t, or up to a fixed bound
    # when that is smaller or the walk emitted fewer than family_count
    # points.  (-2, 2, -2, 3) has a yz point with x^2 = -3/2, dropped for S
    # without 2.
    bound, count = 2000, 4
    walks = 0
    for a, b, c, d in product((-2, -1, 2, 3, 5), (-1, 2, 3, 5, 7), (-2, -1, 1, 3), (-1, 1, 2, 3)):
        if a == b or a * d == b * c:
            continue
        curve = validate_curve(a, b, c, d)
        for s_primes in (SPrimeSet.empty(), SPrimeSet.of(2), SPrimeSet.of(2, 3)):
            cfg = SearchConfig(curve, s_primes, family_count=count)
            for name, (enumerate_family, conic, pair) in FAMILY_WALKS.items():
                points = enumerate_family(cfg)
                walked = [pair(p) for p in points]
                assert all(on_curve(curve, p) for p in points)
                assert all(v.denominator == 1 for w in walked for v in w)
                limit = min(int(walked[-1][1]), bound) if len(walked) == count else bound
                expected = [
                    (s, t)
                    for s, t in naive_conic_points(*conic(a, b, c, d), limit)
                    if name != "yz" or is_s_smooth(Fraction(s * s - c, a).denominator, s_primes)
                ]
                assert [w for w in walked if w[1] <= limit] == expected, (name, curve, s_primes)
                walks += 1
    assert walks > 2000


class TestBoxSearch:
    def test_reference_box(self, curve):
        points = box_search(SearchConfig(curve, coeff_bound=5, eps_bound=15))
        assert set(points) == {
            QuadPoint.rational(0, 1, 1),
            QuadPoint.make(13, (2, 0), (3, 0), (0, 1)),
            QuadPoint.make(3, (1, 0), (0, 1), (2, 0)),
        }

    def test_eps_bound_one_gives_rational_points(self, curve):
        points = box_search(SearchConfig(curve, coeff_bound=9, eps_bound=1))
        assert points == [QuadPoint.rational(0, 1, 1)]

    def test_negative_eps_scan_empty_on_reference_curve(self, curve):
        points = box_search(SearchConfig(curve, coeff_bound=5, eps_bound=15))
        assert not [p for p in points if p.eps < 0]

    def test_families_restricted_to_box_equal_box(self, curve):
        cfg = SearchConfig(curve, coeff_bound=5, eps_bound=15, family_count=8)
        box = set(box_search(cfg))
        family_points = set()
        for enumerator in (enumerate_family_xy, enumerate_family_xz, enumerate_family_yz):
            for p in enumerator(cfg):
                coeffs = [abs(q.numerator) for pair in (p.x, p.y, p.z) for q in pair]
                if abs(p.eps) <= cfg.eps_bound and max(coeffs) <= cfg.coeff_bound:
                    family_points.add(p)
        assert family_points == box

    def test_s_integral_denominators_admitted(self):
        tight = validate_curve(2, 3, 1, 1)
        cfg = SearchConfig(tight, SPrimeSet.of(2), coeff_bound=5, eps_bound=3)
        points = box_search(cfg)
        assert QuadPoint.rational(0, 1, 1) in points
        for p in points:
            for pair in (p.x, p.y, p.z):
                for q in pair:
                    assert q.denominator in (1, 2, 4)


    def test_wide_box_scan_finishes(self, deadline):
        # eps = -1 alone scans 1001^2 pairs (X, V) with X, V >= 0: a Fraction
        # scan of the 2001^2 signed pairs was still running after 20 s.
        # y^2 = 2x^2 + 3 has no point over Q (the Hilbert symbol (2, 3)_3 is
        # -1), and none over Q(i) in this box.
        cfg = SearchConfig(validate_curve(2, 3, 3, 17), coeff_bound=1000, eps_bound=1)
        with deadline(10):
            assert box_search(cfg) == []


def s_smooth_up_to(bound, s_primes):
    """The integers 1..bound with no prime factor outside s_primes, found by
    trial division."""
    dens = []
    for q in range(1, bound + 1):
        rest = q
        for p in s_primes.primes:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            dens.append(q)
    return dens


def naive_box_oracle(curve, eps_bound, coeff_bound, s_primes=SPrimeSet.empty()):
    """Oracle written independently of the search module: every coordinate
    u + v*sqrt(eps) with u, v among the Fractions n/q, |n| <= coeff_bound and
    q <= coeff_bound supported on s_primes.  The squares of all such y (or z)
    are tabulated once per eps, and each x looks its two right-hand sides up
    in the table."""
    from doublepell import canonical_representative
    from doublepell.exactmath import squarefree_decompose

    bound = coeff_bound
    dens = s_smooth_up_to(bound, s_primes)
    span = sorted({Fraction(n, q) for n in range(-bound, bound + 1) for q in dens})
    eps_values = []
    for e in range(-eps_bound, eps_bound + 1):
        if e != 0 and squarefree_decompose(e)[1] == e:
            eps_values.append(e)
    hits = set()
    for eps in eps_values:
        radical = span if eps != 1 else [Fraction(0)]
        squares = {}
        for u in span:
            for v in radical:
                squares.setdefault((u * u + eps * v * v, 2 * u * v), []).append((u, v))
        for ux in span:
            for vx in radical:
                rx, ix = ux * ux + eps * vx * vx, 2 * ux * vx
                ys = squares.get((curve.a * rx + curve.c, curve.a * ix), [])
                zs = squares.get((curve.b * rx + curve.d, curve.b * ix), [])
                for y_pair in ys:
                    for z_pair in zs:
                        point = QuadPoint.make(eps, (ux, vx), y_pair, z_pair)
                        hits.add(canonical_representative(point))
    return hits


def test_squarefree_eps_range_matches_the_decomposition():
    squarefree = [e for e in range(-299, 300) if e and squarefree_decompose(e)[1] == e]
    for limit in range(300):
        expected = [e for e in squarefree if abs(e) <= limit]
        assert _squarefree_eps_range(limit) == expected, limit


def test_squarefree_eps_range_factors_nothing(count_calls):
    counts = {"factorize": 0}
    count_calls(counts, "doublepell.exactmath", "factorize")
    assert len(_squarefree_eps_range(200)) > 0
    assert counts == {"factorize": 0}


def test_candidates_are_not_factored_again(count_calls):
    # Both scans take eps from squarefree lists, the box from
    # _squarefree_eps_range and the genus-1 hunt from products of distinct
    # primes, so neither factors a candidate's eps; the hunt's one call
    # factors bc - ad for those primes.
    counts = {"factorize": 0}
    count_calls(counts, "doublepell.exactmath", "factorize")
    box = SearchConfig(validate_curve(2, 3, 1, 1), SPrimeSet.of(2, 3), coeff_bound=8)
    assert len(list(_box_candidates(box))) == 29
    assert counts == {"factorize": 0}
    hunt = SearchConfig(validate_curve(2, 3, 3, 17), coeff_bound=5)
    assert list(_exceptional_candidates(hunt))
    assert counts == {"factorize": 1}


def test_box_matches_naive_oracle_small():
    curve = validate_curve(2, 3, 1, 1)
    got = set(box_search(SearchConfig(curve, coeff_bound=3, eps_bound=10)))
    assert got == naive_box_oracle(curve, 10, 3)
    other = validate_curve(2, 3, 3, 17)
    got2 = set(box_search(SearchConfig(other, coeff_bound=3, eps_bound=10)))
    assert got2 == naive_box_oracle(other, 10, 3)


@pytest.mark.parametrize(
    "params, primes",
    [
        ((2, 3, 1, 1), (2,)),
        ((2, 3, 1, 1), (2, 3)),
        ((2, 3, 3, 17), (2,)),
        ((2, 3, 3, 17), (2, 3)),
        # Some root of y or z has U^2 = (r - s)/2, the smaller root of the
        # norm; on (-1, 5, 2, 1) a root also has U in the box and W = i/(2U)
        # outside it.
        ((2, 3, 3, 2), (2,)),
        ((-1, 5, 2, 1), (2, 3)),
    ],
)
def test_box_matches_naive_oracle_with_s_denominators(params, primes):
    # The box's common denominator is L = 2 for S = {2} and L = 6 for
    # S = {2, 3}: coordinates n/q with q > 1 are scanned as integers nL/q.
    curve = validate_curve(*params)
    s_primes = SPrimeSet.of(*primes)
    got = set(box_search(SearchConfig(curve, s_primes, coeff_bound=3, eps_bound=10)))
    assert got == naive_box_oracle(curve, 10, 3, s_primes)
    if params == (2, 3, 1, 1):
        # x = sqrt(-2)/2 makes y = 0 and z = x.
        half = Fraction(1, 2)
        assert QuadPoint.make(-2, (0, half), (0, 0), (0, half)) in got


def naive_exceptional_oracle(curve, s_primes, bound):
    """Triple-loop oracle for the three genus-1 shapes, written independently
    of the search module: integral t, u in [-bound, bound] and v among the
    box coefficients, with both curve equations tested directly.  Maps each
    canonical point found to the shape, "x", "y" or "z", whose coordinate is
    rational."""
    from doublepell import canonical_representative, exceptional_eps_candidates

    a, b, c, d = curve.a, curve.b, curve.c, curve.d
    span = range(-bound, bound + 1)
    vs = {Fraction(n, q) for n in span for q in s_smooth_up_to(bound, s_primes)}
    hits = {}
    for eps in exceptional_eps_candidates(curve, s_primes):
        for t in span:
            for u in span:
                for v in vs:
                    shapes = []
                    if eps * u * u == a * t * t + c and eps * v * v == b * t * t + d:
                        shapes.append(("x", ((t, 0), (0, u), (0, v))))
                    if t * t == a * eps * u * u + c and eps * v * v == b * eps * u * u + d:
                        shapes.append(("y", ((0, u), (t, 0), (0, v))))
                    if t * t == b * eps * u * u + d and eps * v * v == a * eps * u * u + c:
                        shapes.append(("z", ((0, u), (0, v), (t, 0))))
                    for shape, (x, y, z) in shapes:
                        point = QuadPoint.make(eps, x, y, z)
                        assert on_curve(curve, point)
                        if point.eps != 1:
                            hits[canonical_representative(point)] = shape
    return hits


class TestSearchExceptional:
    def test_vacuous_on_reference_curve(self, curve):
        assert search_exceptional(SearchConfig(curve, coeff_bound=1000)) == []

    def test_matches_naive_oracle(self):
        # Over this grid each shape has points, and no point fits two shapes
        # (that would need c = 0, d = 0 or ad = bc), so dropping any one
        # shape from the search breaks the equality.
        curves = [(2, 3, 1, 1), (2, 3, 3, 17), (2, 3, 2, 7), (1, 2, -3, 3),
                  (1, 1, -3, 1), (-2, -3, -3, -2), (-4, -1, 1, -2)]
        shapes = set()
        for params in curves:
            curve = validate_curve(*params)
            for s_primes in (SPrimeSet.empty(), SPrimeSet.of(2), SPrimeSet.of(2, 3, 7)):
                cfg = SearchConfig(curve, s_primes, coeff_bound=4)
                expected = naive_exceptional_oracle(curve, s_primes, 4)
                assert set(search_exceptional(cfg)) == set(expected), (params, s_primes)
                shapes.update(expected.values())
        assert shapes == set("xyz")

    def test_large_pell_unit_does_not_stall(self, deadline):
        # bc - ad = 29 makes eps = 29 a radicand, and the z-rational shape
        # t^2 - 261 u^2 = 2 has a Pell unit with y = 11891880: solved as a
        # Pell problem, its class window was about 10^10.
        cfg = SearchConfig(validate_curve(-1, 9, 3, 2), coeff_bound=2, eps_bound=6)
        with deadline(5):
            assert search_exceptional(cfg) == []

    def test_crafted_curve_has_witness(self):
        other = validate_curve(2, 3, 3, 17)
        found = search_exceptional(SearchConfig(other, coeff_bound=5))
        assert QuadPoint.make(5, (1, 0), (0, 1), (0, 2)) in found
        for p in found:
            assert classify(other, p).verdict in (
                Verdict.EXCEPTIONAL_X,
                Verdict.EXCEPTIONAL_Y,
                Verdict.EXCEPTIONAL_Z,
            )

    def test_agrees_with_box_search(self):
        other = validate_curve(2, 3, 3, 17)
        cfg = SearchConfig(other, coeff_bound=4, eps_bound=25)
        exceptional_in_box = {
            p
            for p in box_search(cfg)
            if classify(other, p).verdict
            in (Verdict.EXCEPTIONAL_X, Verdict.EXCEPTIONAL_Y, Verdict.EXCEPTIONAL_Z)
        }
        direct = {
            p for p in search_exceptional(cfg) if abs(p.eps) <= cfg.eps_bound
        }
        assert direct == exceptional_in_box

    def test_second_curve_scan(self):
        # The candidate list is complete under the admissibility hypothesis,
        # so the scan runs with S covering the primes of c*d*(bc-ad) = -35.
        other = validate_curve(2, 3, 1, 5)
        admissible = SPrimeSet.of(5, 7)
        cfg = SearchConfig(other, admissible, coeff_bound=30, eps_bound=10)
        direct = search_exceptional(cfg)
        boxed = {
            p
            for p in box_search(SearchConfig(other, coeff_bound=8, eps_bound=10))
            if classify(other, p).verdict
            in (Verdict.EXCEPTIONAL_X, Verdict.EXCEPTIONAL_Y, Verdict.EXCEPTIONAL_Z)
        }
        assert boxed <= set(direct)
        for p in direct:
            assert on_curve(other, p)

    def test_admissible_s_covers_all_three_shapes(self):
        # eps must divide d for the shape with y in the base field, and the
        # admissibility hypothesis (primes of c*d inside S) is what folds
        # that case into the candidate list.
        other = validate_curve(2, 3, 2, 7)
        witness = QuadPoint.make(7, (0, 1), (4, 0), (0, 2))
        assert on_curve(other, witness)
        assert classify(other, witness).verdict is Verdict.EXCEPTIONAL_Y
        admissible = SearchConfig(other, SPrimeSet.of(2, 7), coeff_bound=4)
        assert witness in search_exceptional(admissible)
        bare = SearchConfig(other, coeff_bound=4)
        assert witness not in search_exceptional(bare)
        assert witness in box_search(SearchConfig(other, coeff_bound=4, eps_bound=7))

    @pytest.mark.xfail(
        strict=True,
        reason="the hunt scans integral t and u only; ROADMAP item 6 scans S-denominators",
    )
    def test_finds_every_exceptional_box_point_with_s_denominators(self, curve):
        # The box finds x = sqrt(-2)/2, y = 0, z = sqrt(-2)/2, Exceptional_y,
        # whose radical parts have the S-denominator 2.
        cfg = SearchConfig(curve, SPrimeSet.of(2, 3), coeff_bound=8)
        exceptional = (Verdict.EXCEPTIONAL_X, Verdict.EXCEPTIONAL_Y, Verdict.EXCEPTIONAL_Z)
        boxed = {p for p in box_search(cfg) if classify(curve, p).verdict in exceptional}
        assert QuadPoint.make(-2, (0, Fraction(1, 2)), (0, 0), (0, Fraction(1, 2))) in boxed
        assert boxed <= set(search_exceptional(cfg))

    def test_emissions_on_intersection_loci_keep_marker(self):
        # A genus-1 locus can meet a family locus; the verdict then follows
        # flag precedence but the multi-degenerate marker is retained.
        other = validate_curve(2, 3, 2, 7)
        for p in search_exceptional(SearchConfig(other, coeff_bound=4)):
            cls = classify(other, p)
            exceptional = cls.verdict in (
                Verdict.EXCEPTIONAL_X,
                Verdict.EXCEPTIONAL_Y,
                Verdict.EXCEPTIONAL_Z,
            )
            assert exceptional or cls.multi_degenerate


class TestSUnitSolutions:
    def test_contains_reference_triples(self):
        sols = {s.triple: s.degenerate for s in sunit_solutions(SPrimeSet.of(2, 3), 2)}
        f = Fraction
        assert sols[(f(4), f(-3, 2), f(-3, 2))] is False
        assert sols[(f(1), f(2), f(-2))] is True

    def test_all_sum_to_one(self):
        for sol in sunit_solutions(SPrimeSet.of(2, 3), 2):
            assert sum(sol.triple) == 1
            assert sol.degenerate == (1 in sol.triple)

    def test_empty_s(self):
        sols = sunit_solutions(SPrimeSet.empty(), 1)
        f = Fraction
        assert {s.triple for s in sols} == {
            (f(1), f(1), f(-1)),
            (f(1), f(-1), f(1)),
            (f(-1), f(1), f(1)),
        }
        assert all(s.degenerate for s in sols)

    def test_ordered_triples_kept_distinct(self):
        sols = [s.triple for s in sunit_solutions(SPrimeSet.of(2), 1)]
        assert len(sols) == len(set(sols))
        f = Fraction
        assert (f(2), f(1), f(-2)) in sols and (f(1), f(2), f(-2)) in sols

    def test_nondegenerate_count_within_global_bound(self):
        s_set = SPrimeSet.of(2, 3)
        nondegen = [s for s in sunit_solutions(s_set, 2) if not s.degenerate]
        assert len(nondegen) <= 2 ** (2835 * s_set.s)

    def test_rejects_bad_bound(self):
        with pytest.raises(DomainError):
            sunit_solutions(SPrimeSet.of(2), 0)


def test_search_config_validates_bounds(curve):
    with pytest.raises(DomainError):
        SearchConfig(curve, coeff_bound=0)
    with pytest.raises(DomainError):
        SearchConfig(curve, family_count=0)
