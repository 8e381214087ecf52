import math
from itertools import combinations, product

import pytest

from doublepell import (
    DegenerateCurve,
    DomainError,
    QuadPoint,
    SearchConfig,
    SPrimeSet,
    Verdict,
    box_search,
    classify,
    detect_degenerate,
    factorize,
    family_image,
    loci_from_invariants,
    loci_from_signs,
    search_exceptional,
    squarefree_decompose,
    sym_invariants,
    validate_curve,
)
from doublepell.classify import FAMILY_FLAG, _in_base_square_class, family_conic

# a, b over -12..12 with no zero, for the square-class grids below.
_GRID = [n for n in range(-12, 13) if n]


def _base_classes(a, b):
    """Squarefree parts of a, b and ab: the reference for the square-class
    tests, built by factoring."""
    return {squarefree_decompose(m)[1] for m in (a, b, a * b)}


@pytest.fixture
def curve():
    return validate_curve(2, 3, 1, 1)


class TestConjugatePoint:
    def test_flips_radical_part(self):
        p = QuadPoint.make(13, (2, 0), (3, 0), (0, 1))
        assert p.conjugate() == QuadPoint.make(13, (2, 0), (3, 0), (0, -1))

    def test_rational_fixed(self):
        p = QuadPoint.rational(0, 1, 1)
        assert p.conjugate() == p

    def test_pure_radical_x(self):
        p = QuadPoint.make(10, (0, 2), (9, 0), (11, 0))
        assert p.conjugate() == QuadPoint.make(10, (0, -2), (9, 0), (11, 0))


class TestDetectDegenerate:
    def test_family_xy_witness(self, curve):
        sym = sym_invariants(curve, QuadPoint.make(13, (2, 0), (3, 0), (0, 1)))
        assert detect_degenerate(sym) == frozenset({"gamma"})

    def test_family_yz_witness(self, curve):
        sym = sym_invariants(curve, QuadPoint.make(10, (0, 2), (9, 0), (11, 0)))
        assert detect_degenerate(sym) == frozenset({"alpha"})

    def test_diagonal(self, curve):
        sym = sym_invariants(curve, QuadPoint.rational(0, 1, 1))
        assert detect_degenerate(sym) == frozenset({"alpha"})

    def test_two_flags_force_third_value_minus_one(self):
        other = validate_curve(1, 3, -4, 1)
        sym = sym_invariants(other, QuadPoint.make(13, (2, 0), (0, 0), (0, 1)))
        flags = detect_degenerate(sym)
        assert flags == frozenset({"alpha", "gamma"})
        assert sym.beta == -1


class TestClassify:
    def test_family_xy(self, curve):
        cls = classify(curve, QuadPoint.make(13, (2, 0), (3, 0), (0, 1)))
        assert cls.verdict is Verdict.FAMILY_XY
        assert cls.degenerate_flags == frozenset({"gamma"})
        assert cls.sign_pattern == ("+", "+", "-")
        assert not cls.multi_degenerate

    def test_family_xz(self, curve):
        cls = classify(curve, QuadPoint.make(33, (4, 0), (0, 1), (7, 0)))
        assert cls.verdict is Verdict.FAMILY_XZ
        assert cls.degenerate_flags == frozenset({"beta"})
        assert cls.sign_pattern == ("+", "-", "+")

    def test_family_yz(self, curve):
        cls = classify(curve, QuadPoint.make(10, (0, 2), (9, 0), (11, 0)))
        assert cls.verdict is Verdict.FAMILY_YZ
        assert cls.degenerate_flags == frozenset({"alpha"})
        assert cls.sign_pattern == ("-", "+", "+")

    def test_k_rational(self, curve):
        cls = classify(curve, QuadPoint.make(3, (1, 0), (0, 1), (2, 0)))
        assert cls.verdict is Verdict.K_RATIONAL

    def test_rational(self, curve):
        cls = classify(curve, QuadPoint.rational(0, 1, 1))
        assert cls.verdict is Verdict.RATIONAL
        assert cls.sign_pattern == ("+", "+", "+")

    def test_exceptional(self):
        other = validate_curve(2, 3, 3, 17)
        cls = classify(other, QuadPoint.make(5, (1, 0), (0, 1), (0, 2)))
        assert cls.verdict is Verdict.EXCEPTIONAL_X
        assert cls.degenerate_flags == frozenset({"alpha"})
        assert cls.sign_pattern == ("+", "-", "-")

    def test_sporadic_synthetic(self):
        other = validate_curve(4, 9, -3, 32)
        cls = classify(other, QuadPoint.make(5, (1, 1), (4, 1), (9, 1)))
        assert cls.verdict is Verdict.SPORADIC
        assert cls.degenerate_flags == frozenset()
        assert cls.sign_pattern is None

    def test_multi_degenerate_marker(self):
        other = validate_curve(1, 3, -4, 1)
        cls = classify(other, QuadPoint.make(13, (2, 0), (0, 0), (0, 1)))
        assert cls.verdict is Verdict.EXCEPTIONAL_X
        assert cls.multi_degenerate
        assert cls.degenerate_flags == frozenset({"alpha", "gamma"})

    def test_k_rational_verdict_matches_squarefree_reference(self):
        # x = sqrt(eps), y = 2, z = 1 lies on the curve with c = 4 - a*eps,
        # d = 1 - b*eps; eps runs over the signed base classes.
        for a in _GRID:
            for b in _GRID:
                classes = _base_classes(a, b)
                for eps in {sign * e for e in classes for sign in (1, -1)} - {1}:
                    try:
                        curve = validate_curve(a, b, 4 - a * eps, 1 - b * eps)
                    except DegenerateCurve:
                        continue
                    point = QuadPoint.make(eps, (0, 1), (2, 0), (1, 0))
                    verdict = classify(curve, point).verdict
                    assert (verdict is Verdict.K_RATIONAL) == (eps in classes), (a, b, eps)

    def test_rejects_off_curve(self, curve):
        with pytest.raises(DomainError):
            classify(curve, QuadPoint.rational(1, 1, 1))


def _reference_verdict(curve, point):
    """The verdict by a loop over the axes, each axis's "-" locus before its
    "+" locus: the reference for the order of the locus table."""
    if point.eps == 1:
        return Verdict.RATIONAL
    if _in_base_square_class(curve, point.eps):
        return Verdict.K_RATIONAL
    loci = loci_from_invariants(curve, sym_invariants(curve, point))
    verdicts = {
        "x-": Verdict.FAMILY_YZ,
        "x+": Verdict.EXCEPTIONAL_X,
        "y-": Verdict.FAMILY_XZ,
        "y+": Verdict.EXCEPTIONAL_Y,
        "z-": Verdict.FAMILY_XY,
        "z+": Verdict.EXCEPTIONAL_Z,
    }
    for axis in "xyz":
        if f"{axis}-" in loci:
            return verdicts[f"{axis}-"]
        if f"{axis}+" in loci:
            return verdicts[f"{axis}+"]
    return Verdict.SPORADIC


class TestVerdictPrecedence:
    def test_matches_the_axis_loop_on_a_box_grid(self):
        # 943 points, 369 of them on two loci, in six different pairs.
        pairs = set()
        grid = product((-2, -1, 1, 2, 3), (-1, 1, 2, 3, 5), (-4, -1, 1, 2, 3), (-1, 1, 2, 4))
        for a, b, c, d in grid:
            try:
                curve = validate_curve(a, b, c, d)
            except DegenerateCurve:
                continue
            for point in box_search(SearchConfig(curve, coeff_bound=3, eps_bound=6)):
                assert classify(curve, point).verdict is _reference_verdict(curve, point), point
                loci = loci_from_signs(point)
                if len(loci) == 2:
                    pairs.add(loci)
        assert len(pairs) == 6

    @pytest.mark.parametrize("verdict", [v for v in Verdict if v not in FAMILY_FLAG])
    def test_family_conic_rejects_non_family_verdict(self, curve, verdict):
        with pytest.raises(DomainError):
            family_conic(curve, verdict)


class TestOracleEquivalence:
    def test_invariant_route_equals_sign_route(self, corpus):
        disagreements = 0
        for curve, point in corpus:
            sym = sym_invariants(curve, point)
            if loci_from_invariants(curve, sym) != loci_from_signs(point):
                disagreements += 1
        assert disagreements == 0

    def test_classify_runs_both_routes(self, corpus):
        for curve, point in corpus[:200]:
            classify(curve, point)


class TestFamilyImage:
    def test_xy(self, curve):
        p = QuadPoint.make(13, (2, 0), (3, 0), (0, 1))
        assert family_image(curve, p, Verdict.FAMILY_XY) == (2, 3)

    def test_xz(self, curve):
        p = QuadPoint.make(33, (4, 0), (0, 1), (7, 0))
        assert family_image(curve, p, Verdict.FAMILY_XZ) == (4, 7)

    def test_yz(self, curve):
        p = QuadPoint.make(10, (0, 2), (9, 0), (11, 0))
        assert family_image(curve, p, Verdict.FAMILY_YZ) == (9, 11)

    def test_images_satisfy_their_conic(self, corpus):
        for curve, point in corpus:
            cls = classify(curve, point)
            if cls.verdict is Verdict.FAMILY_XY:
                x, y = family_image(curve, point, cls.verdict)
                assert y * y == curve.a * x * x + curve.c
            elif cls.verdict is Verdict.FAMILY_XZ:
                x, z = family_image(curve, point, cls.verdict)
                assert z * z == curve.b * x * x + curve.d
            elif cls.verdict is Verdict.FAMILY_YZ:
                y, z = family_image(curve, point, cls.verdict)
                assert curve.b * y * y - curve.a * z * z == curve.cross

    def test_rejects_non_family_verdict(self, curve):
        with pytest.raises(DomainError):
            family_image(curve, QuadPoint.rational(0, 1, 1), Verdict.RATIONAL)


class TestExceptionalEpsCandidates:
    """The radicands the genus-1 hunt admits: squarefree, supported on the
    primes of bc - ad and S, and neither 1 nor a square class of a, b or ab."""

    @staticmethod
    def hunt_eps(params, primes=(), coeff_bound=5):
        cfg = SearchConfig(validate_curve(*params), SPrimeSet.of(*primes), coeff_bound=coeff_bound)
        return {p.eps for p in search_exceptional(cfg)}

    def test_unit_cross_term(self, curve):
        # bc - ad = +-1 leaves eps = -1 alone.  On 2,3,1,1 the rational point
        # (0, 1, 1) fits every shape with eps = 1, and the hunt drops it.
        assert self.hunt_eps((2, 3, -1, -1)) == {-1}
        cfg = SearchConfig(curve, coeff_bound=3)
        assert QuadPoint.rational(0, 1, 1) in box_search(cfg)
        assert QuadPoint.rational(0, 1, 1) not in search_exceptional(cfg)

    def test_prime_cross_term(self):
        assert validate_curve(2, 3, 3, 2).cross == 5
        assert self.hunt_eps((2, 3, 3, 2)) == {-1, 5}

    def test_s_primes_join_but_base_classes_leave(self):
        # bc - ad = -8 on 2,3,2,7: eps = 7 needs 7 in S.  On 2,3,-4,2, bc - ad
        # = -16 supports eps = 2 = a, whose x = sqrt(2), y = 0, z = 2*sqrt(2)
        # the box finds and the hunt drops as KRational.
        assert self.hunt_eps((2, 3, 2, 7)) == {-2, -1}
        assert self.hunt_eps((2, 3, 2, 7), (7,)) == {-2, -1, 7}
        other = validate_curve(2, 3, -4, 2)
        witness = QuadPoint.make(2, (0, 1), (0, 0), (0, 2))
        assert witness in box_search(SearchConfig(other, coeff_bound=4, eps_bound=10))
        assert classify(other, witness).verdict is Verdict.K_RATIONAL
        assert 2 not in self.hunt_eps((2, 3, -4, 2), (2,))

    def test_square_classes_always_excluded(self):
        # eps = 6 = ab on 2,3,-3,6 is supported on S and the primes 3, 7 of
        # bc - ad; x = sqrt(6), y = 3, z = 2*sqrt(6) is in the box, not the hunt.
        other = validate_curve(2, 3, -3, 6)
        witness = QuadPoint.make(6, (0, 1), (3, 0), (0, 2))
        assert witness in box_search(SearchConfig(other, coeff_bound=4, eps_bound=10))
        assert classify(other, witness).verdict is Verdict.K_RATIONAL
        assert not self.hunt_eps((2, 3, -3, 6), (2,)) & {1, 2, 3, 6}
        assert self.hunt_eps((2, 3, 3, 17), (2, 3)) == {5}  # bc - ad = -25

    def test_matches_squarefree_reference(self):
        found = 0
        for a in _GRID:
            for b in _GRID:
                try:
                    curve = validate_curve(a, b, 3, 2)
                except DegenerateCurve:
                    continue
                excluded = _base_classes(a, b) | {1}
                for r in range(4):
                    for s_primes in combinations((2, 3, 5), r):
                        support = sorted(set(factorize(curve.cross)) | set(s_primes))
                        expected = set()
                        for k in range(len(support) + 1):
                            for combo in combinations(support, k):
                                expected |= {math.prod(combo), -math.prod(combo)}
                        got = self.hunt_eps((a, b, 3, 2), s_primes)
                        assert got <= expected - excluded, (a, b, s_primes)
                        found += len(got)
        assert found > 500
