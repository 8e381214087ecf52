import functools
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations, product
from math import isqrt

import pytest

from doublepell import (
    DomainError,
    QuadPoint,
    SPrimeSet,
    SearchConfig,
    Verdict,
    box_search,
    canonical_representative,
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
from doublepell.classify import _in_base_square_class, loci_from_signs
from doublepell.search import (
    _box,
    _box_candidates,
    _box_roots,
    _box_sqrt,
    _collect,
    _exceptional_candidates,
    _is_squarefree,
)
from doublepell.exactmath import isqrt_exact, squarefree_decompose

# The first 18 primes: 2^19 signed radicands for a hunt that lists them.
EIGHTEEN_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


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


def family_walk_grid():
    """The (curve, S) grid the family walks are checked on."""
    for a, b, c, d in product((-2, -1, 2, 3, 5), (-1, 2, 3, 5, 7), (-2, -1, 1, 3), (-1, 1, 2, 3)):
        if a == b or a * d == b * c:
            continue
        curve = validate_curve(a, b, c, d)
        for s_primes in (SPrimeSet.empty(), SPrimeSet.of(2), SPrimeSet.of(2, 3)):
            yield curve, s_primes


def test_family_walks_match_a_naive_scan():
    # Each walk must emit, in ascending t, exactly the conic points a scan of
    # every integral t finds, less (for yz) those whose x^2 = (y^2 - c)/a
    # is not an S-fraction: up to the last emitted t, or up to a fixed bound
    # when that is smaller or the walk emitted fewer than family_count
    # points.  (-2, 2, -2, 3) has a yz point with x^2 = -3/2, dropped for S
    # without 2.
    bound, count = 2000, 4
    walks = 0
    for curve, s_primes in family_walk_grid():
        a, b, c, d = curve.a, curve.b, curve.c, curve.d
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


def test_family_walks_emit_canonical_points():
    # Each walk builds its points canonical, s, t >= 0 and the third
    # coordinate 0 or purely radical with a positive part, and calls no
    # canonical_representative.  The extra curves give the yz walk A = b
    # below -1 and the xz walk a bounded conic.
    extra = [(validate_curve(*params), SPrimeSet.of(2)) for params in (
        (-3, -5, 1, 1), (-3, -2, 1, 2), (2, -3, 1, 5),
    )]
    points = 0
    for curve, s_primes in [*family_walk_grid(), *extra]:
        cfg = SearchConfig(curve, s_primes, family_count=4)
        for enumerate_family, _, _ in FAMILY_WALKS.values():
            for point in enumerate_family(cfg):
                assert canonical_representative(point) == point, (curve, point)
                points += 1
    assert points > 2000


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
        # The scan walks the 1001^2 pairs (X, U) with X, U >= 0 once for all
        # radicands: a Fraction scan of the 2001^2 signed pairs (X, V) at
        # eps = -1 alone was still running after 20 s.  y^2 = 2x^2 + 3 has no point over Q (the Hilbert symbol (2, 3)_3 is
        # -1), and none over Q(i) in this box.
        cfg = SearchConfig(validate_curve(2, 3, 3, 17), coeff_bound=1000, eps_bound=1)
        with deadline(10):
            assert box_search(cfg) == []

    def test_wide_eps_bound_finishes(self, curve, deadline):
        # One radicand at a time, this box took over 20 s for its 2 * 607,926
        # radicands; solving each y root for its own eps scans it once.
        cfg = SearchConfig(curve, coeff_bound=2, eps_bound=10**6)
        with deadline(3):
            points = box_search(cfg)
        assert points == [QuadPoint.rational(0, 1, 1), QuadPoint.make(3, (1, 0), (0, 1), (2, 0))]

    def test_wide_eps_bound_keeps_the_narrow_box(self, curve, deadline):
        # Raising eps_bound only adds points of larger radicand: the wide
        # scan, less its |eps| > 15 points (eps = 33 among them), is the
        # eps_bound = 15 box.
        primes = SPrimeSet.of(2, 3)
        with deadline(3):
            wide = box_search(SearchConfig(curve, primes, coeff_bound=8, eps_bound=100000))
        narrow = box_search(SearchConfig(curve, primes, coeff_bound=8, eps_bound=15))
        assert any(p.eps == 33 for p in wide)
        assert [p for p in wide if abs(p.eps) <= 15] == narrow


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


def test_is_squarefree_matches_the_decomposition():
    for e in [*range(-3000, 0), *range(1, 3001)]:
        assert _is_squarefree(e) == (squarefree_decompose(e)[1] == e), e
    assert not _is_squarefree(0)


def test_is_squarefree_past_the_cube_root():
    # Past the cube root of n what is left has at most two prime factors:
    # products of two large primes, squared or not, test that edge.
    large = (10007, 10009, 99991, 1000003, 1000033)
    edges = [m * p * p for p in large for m in (1, 2)]
    edges += [sign * p * q for p, q in combinations(large, 2) for sign in (1, -1)]
    edges += [p * p * q for p, q in permutations(large, 2)]
    for e in edges:
        assert _is_squarefree(e) == (squarefree_decompose(e)[1] == e), e


def test_is_squarefree_factors_nothing(count_calls):
    counts = {"factorize": 0}
    count_calls(counts, "doublepell.exactmath", "factorize")
    assert sum(map(_is_squarefree, range(1, 200))) == 122
    assert _is_squarefree(1000003 * 1000033) and not _is_squarefree(1000003**2 * 1000033)
    assert counts == {"factorize": 0}


def test_candidates_are_not_factored_again(count_calls):
    # Neither scan factors a candidate's eps: the box reads it off a split
    # e*s^2 = k checked by _is_squarefree, and the genus-1 hunt off a split
    # that divides out the primes of the shape's constant; the hunt's three
    # calls factor bc - ad, c and d for those primes, however many primes S
    # has.
    counts = {"factorize": 0}
    count_calls(counts, "doublepell.exactmath", "factorize")
    box = SearchConfig(validate_curve(2, 3, 1, 1), SPrimeSet.of(2, 3), coeff_bound=8)
    assert len(list(_box_candidates(box))) == 6
    assert counts == {"factorize": 0}
    hunt = SearchConfig(validate_curve(2, 3, 3, 17), coeff_bound=5)
    assert list(_exceptional_candidates(hunt))
    assert counts == {"factorize": 3}
    wide = SearchConfig(validate_curve(2, 3, 1, 1), SPrimeSet.of(*EIGHTEEN_PRIMES), coeff_bound=3)
    list(_exceptional_candidates(wide))
    assert counts == {"factorize": 6}


def reference_box_candidates(cfg):
    """The box scan one radicand at a time, as box_search ran before it
    solved for eps: for each squarefree eps with |eps| <= eps_bound, every
    X, V >= 0 in the box (V = 0 over eps = 1), with the y and z roots from
    _box_roots.  O(eps_bound * coeff_bound^2) root tests."""
    curve = cfg.curve
    L, box = _box(cfg)
    scan = sorted(n for n in box if n >= 0)
    a, b = curve.a, curve.b
    cL2, dL2 = curve.c * L * L, curve.d * L * L
    limit = cfg.eps_bound
    for eps in (e for e in range(-limit, limit + 1) if e and squarefree_decompose(e)[1] == e):
        for X in scan:
            for V in scan if eps != 1 else (0,):
                rx = X * X + eps * V * V
                ix = 2 * X * V
                ys = _box_roots(a * rx + cL2, a * ix, eps, box)
                if not ys:
                    continue
                zs = _box_roots(b * rx + dL2, b * ix, eps, box)
                for y_pair in ys:
                    for z_pair in zs:
                        yield QuadPoint._of_lift(eps, L, (X, V, *y_pair, *z_pair))


BOX_SHAPES = (
    "body",
    "x = 0",
    "y = 0",
    "eps from z",
    "x = V*sqrt(eps), y rational",
    "x rational, y = W*sqrt(eps)",
    "x, y in sqrt(eps)*Q",
    "S-denominator",
    "square a",
)


def box_shapes(curve, point):
    """The names in BOX_SHAPES that a point over eps != 1 shows."""
    x, y = point.x, point.y
    shapes = {"body"} if all(x) and y[0] else set()
    if x == (0, 0):
        shapes.add("x = 0")
    if y == (0, 0):
        shapes.add("y = 0")
    if x[1] == y[1] == 0:
        shapes.add("eps from z")
    if x[0] == 0 and y[0] and y[1] == 0:
        shapes.add("x = V*sqrt(eps), y rational")
    if x[1] == 0 and y[0] == 0 and y[1]:
        shapes.add("x rational, y = W*sqrt(eps)")
    if x[0] == y[0] == 0 and x[1] and y[1]:
        shapes.add("x, y in sqrt(eps)*Q")
    if point.den > 1:
        shapes.add("S-denominator")
    if curve.a > 0 and isqrt(curve.a) ** 2 == curve.a:
        shapes.add("square a")
    return shapes


def test_box_scan_matches_the_per_eps_reference():
    # The scan that solves each y root for its own eps must give what the
    # one-radicand-at-a-time scan gives, on every branch: the body X, V, U
    # > 0, each edge where one of X, V, U, W is 0, eps read off z when x and
    # y are both rational, squares a, S-denominators and eps_bound = 1.  On
    # the two curves after the grid, a body root has W = aXV/U outside the
    # box.
    settings = [((), 4, 12), ((2,), 3, 6), ((2, 3), 3, 4), ((5,), 5, 6), ((), 6, 1)]
    grid = product((-3, -2, -1, 1, 2, 4), (-1, 2, 3), (-2, -1, 1, 4, 9), (-1, 1, 2, 4))
    configs = [
        SearchConfig(validate_curve(*params), SPrimeSet.of(*primes), coeff_bound=coeff_bound,
                     eps_bound=eps_bound)
        for params in grid if params[0] * params[3] != params[1] * params[2]
        for primes, coeff_bound, eps_bound in settings
    ]
    configs += [
        SearchConfig(validate_curve(5, -1, 1, 2), SPrimeSet.of(2, 3), coeff_bound=3, eps_bound=6),
        SearchConfig(validate_curve(5, 1, -4, 3), SPrimeSet.of(2, 3), coeff_bound=4, eps_bound=4),
    ]
    assert len(configs) > 1600
    shapes = Counter()
    for cfg in configs:
        got = box_search(cfg)
        assert got == _collect(cfg.curve, reference_box_candidates(cfg), "reference"), cfg
        for point in got:
            assert canonical_representative(point) == point, (cfg, point)
            if point.eps != 1:
                shapes.update(box_shapes(cfg.curve, point))
    assert min(shapes[name] for name in BOX_SHAPES) > 0, shapes


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


def hunt_radicands(curve):
    """Every squarefree eps an integral genus-1 locus point could live over,
    found without the hunt's primes: eps divides the constant bc - ad, d or
    c of its shape, so |eps| is at most the largest of them.  Less 1 and the
    square classes of a, b and ab."""
    top = max(abs(curve.c), abs(curve.d), abs(curve.cross))
    return [
        e for m in range(1, top + 1) for e in (-m, m)
        if e != 1 and squarefree_decompose(e)[1] == e and not _in_base_square_class(curve, e)
    ]


def reference_hunt_candidates(cfg):
    """The genus-1 hunt one radicand at a time, as search_exceptional ran
    before it read eps off each shape: for each eps of hunt_radicands, each
    shape scans an integral t or u over 0..coeff_bound with an exact square
    test, and takes the companion coordinate from the box.
    O(coeff_bound * 2^(k+1)) square tests."""
    curve = cfg.curve
    bound = cfg.coeff_bound
    a, b, c, d = curve.a, curve.b, curve.c, curve.d
    L, box = _box(cfg)

    def square_scan(m, k):
        """The (s, r) with s = 0..bound, r >= 0 and r^2 = m*s^2 + k."""
        roots = ((s, isqrt_exact(m * s * s + k)) for s in range(bound + 1))
        return [(s, r) for s, r in roots if r is not None]

    def companion(eps, m):
        return _box_sqrt(m * L * L, eps, box)

    for eps in hunt_radicands(curve):
        # x rational: r^2 = eps*(a*t^2 + c), u = r/eps, companion z.
        for t, r in square_scan(a * eps, c * eps):
            u = r // eps
            if abs(u) <= bound and (v := companion(eps, b * t * t + d)) is not None:
                yield QuadPoint._of_lift(eps, L, (t * L, 0, 0, u * L, 0, v))
        # y rational: t^2 = a*eps*u^2 + c, companion z.
        for u, t in square_scan(a * eps, c):
            if t <= bound and (v := companion(eps, b * eps * u * u + d)) is not None:
                yield QuadPoint._of_lift(eps, L, (0, u * L, t * L, 0, 0, v))
        # z rational: t^2 = b*eps*u^2 + d, companion y.
        for u, t in square_scan(b * eps, d):
            if t <= bound and (v := companion(eps, a * eps * u * u + c)) is not None:
                yield QuadPoint._of_lift(eps, L, (0, u * L, 0, v, t * L, 0))


def test_hunt_matches_the_per_radicand_reference():
    # Reading eps off each shape must give what the scan of every listed
    # radicand gives: every shape, the edge where the first radical
    # coordinate is 0 (eps read off the second), S primes that no constant
    # has, and coeff_bound both below and above the usual box.
    grid = product((-4, -2, -1, 1, 2, 3, 5, 7), (-1, 2, 3, 5, 9), (-3, -1, 1, 2, 5),
                   (-1, 1, 2, 6, 17))
    settings = [((), 4), ((2,), 6), ((2, 3), 4), ((5, 7), 9)]
    configs = [
        SearchConfig(validate_curve(*params), SPrimeSet.of(*primes), coeff_bound=coeff_bound)
        for params in grid if params[0] != params[1] and params[0] * params[3] != params[1] * params[2]
        for primes, coeff_bound in settings
    ]
    assert len(configs) > 2000
    shapes = Counter()
    for cfg in configs:
        got = search_exceptional(cfg)
        # The reference builds some points with negative parts; fold each
        # into its canonical representative, as the hunt builds them.
        reference = (
            canonical_representative(p) for p in reference_hunt_candidates(cfg) if p.eps != 1
        )
        assert got == _collect(cfg.curve, reference, "reference"), cfg
        for point in got:
            assert canonical_representative(point) == point, (cfg, point)
            for shape, first in (("x+", point.y), ("y+", point.x), ("z+", point.x)):
                if shape in loci_from_signs(point):
                    shapes[shape] += 1
                    shapes["first = 0"] += first == (0, 0)
    assert min(shapes[name] for name in ("x+", "y+", "z+", "first = 0")) > 0, shapes


def naive_exceptional_oracle(curve, s_primes, bound):
    """Triple-loop oracle for the three genus-1 shapes, written independently
    of the search module: each radicand of hunt_radicands, integral t, u in
    [-bound, bound] and v among the box coefficients, with both curve
    equations tested directly.  Maps each canonical point found to the
    shape, "x", "y" or "z", whose coordinate is rational."""
    from doublepell import canonical_representative

    a, b, c, d = curve.a, curve.b, curve.c, curve.d
    span = range(-bound, bound + 1)
    vs = {Fraction(n, q) for n in span for q in s_smooth_up_to(bound, s_primes)}
    hits = {}
    for eps in hunt_radicands(curve):
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

    def test_many_s_primes_stay_fast(self, curve, deadline):
        # Listing the 2^19 signed radicands of 18 primes and scanning each
        # shape once per radicand took about 4 s; reading eps off each
        # scanned value costs O(|P|) divisions per t.
        cfg = SearchConfig(curve, SPrimeSet.of(*EIGHTEEN_PRIMES), coeff_bound=3)
        with deadline(0.5):
            found = search_exceptional(cfg)
        assert found == []

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
        # The hunt scans its rational coordinate and the first radical one
        # over the integers only (ROADMAP item 6 and the strict xfail
        # below), and this box has S empty, so every box coordinate is
        # integral.  Each shape's eps splits over the primes of its own
        # constant, bc - ad = -7, c = 1 or d = 5, so S adds nothing.
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
        # eps must divide d for the shape with y in the base field, so the
        # hunt splits that shape over the primes of d: eps = 7 on 2,3,2,7 is
        # found with S empty, where bc - ad = -8 has no 7, as with 7 in S.
        other = validate_curve(2, 3, 2, 7)
        witness = QuadPoint.make(7, (0, 1), (4, 0), (0, 2))
        assert on_curve(other, witness)
        assert classify(other, witness).verdict is Verdict.EXCEPTIONAL_Y
        admissible = SearchConfig(other, SPrimeSet.of(2, 7), coeff_bound=4)
        assert witness in search_exceptional(admissible)
        bare = SearchConfig(other, coeff_bound=4)
        assert search_exceptional(bare) == search_exceptional(admissible)
        assert witness in box_search(SearchConfig(other, coeff_bound=4, eps_bound=7))

    def test_finds_every_integral_exceptional_box_point_for_every_s(self):
        # eps divides its shape's constant (bc - ad, d or c), so S adds no
        # radicand: the hunt finds every integral Exceptional_* box point
        # with S empty, and its output is the same for every S.  A hunt
        # that splits every shape over the primes of bc - ad and S misses
        # some, such as x = 0, y = 1, z = sqrt(3) on -2,-1,1,3.
        exceptional = (Verdict.EXCEPTIONAL_X, Verdict.EXCEPTIONAL_Y, Verdict.EXCEPTIONAL_Z)
        grid = product((-2, -1, 2, 3), (-1, 2, 3, 5, 7), (-2, -1, 1, 2, 3, 5, 6),
                       (-1, 1, 2, 3, 6, 10))
        curves = [validate_curve(*params) for params in grid
                  if params[0] * params[3] != params[1] * params[2]]
        hunts, boxed = [], 0
        for primes in ((), (2,), (3,)):
            hunt = {}
            for curve in curves:
                cfg = SearchConfig(curve, SPrimeSet.of(*primes), coeff_bound=6, eps_bound=40)
                hunt[curve] = search_exceptional(cfg)
                points = {
                    p for p in box_search(cfg)
                    if p.den == 1 and classify(curve, p).verdict in exceptional
                }
                assert points <= set(hunt[curve]), (curve, primes)
                boxed += len(points)
            hunts.append(hunt)
        assert hunts[0] == hunts[1] == hunts[2]
        assert boxed > 1000

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
