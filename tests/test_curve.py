from fractions import Fraction

import pytest

from doublepell import (
    DegenerateCurve,
    DomainError,
    MultiQuad,
    OffCurve,
    QuadPoint,
    SPrimeSet,
    canonical_representative,
    compute_bounds,
    eval_fgh,
    is_s_integral,
    on_curve,
    pair_key,
    points_at_infinity,
    sym_invariants,
    validate_curve,
    verify_identities,
)
from doublepell.errors import ABCD_ZERO, AD_EQUALS_BC


class TestValidateCurve:
    def test_reference_curve(self):
        curve = validate_curve(2, 3, 1, 1)
        assert (curve.a, curve.b, curve.c, curve.d) == (2, 3, 1, 1)
        assert curve.cross == 1

    def test_proportional_rows_rejected(self):
        with pytest.raises(DegenerateCurve) as info:
            validate_curve(1, 1, 1, 1)
        assert info.value.code == AD_EQUALS_BC

    def test_zero_coefficient_rejected(self):
        with pytest.raises(DegenerateCurve) as info:
            validate_curve(0, 3, 1, 1)
        assert info.value.code == ABCD_ZERO


class TestQuadPoint:
    def test_nonsquarefree_eps_folds(self):
        p = QuadPoint.make(8, (0, 1), (1, 0), (1, 0))
        assert p.eps == 2 and p.x == (Fraction(0), Fraction(2))

    def test_all_rational_collapses_to_eps_one(self):
        p = QuadPoint.make(13, (2, 0), (3, 0), (5, 0))
        assert p.eps == 1

    def test_square_eps_folds_into_rational_part(self):
        p = QuadPoint.make(4, (1, 1), (0, 2), (3, 0))
        assert p.eps == 1 and p.x == (Fraction(3), Fraction(0)) and p.y == (Fraction(4), Fraction(0))

    def test_conjugate_involution(self):
        p = QuadPoint.make(13, (2, 0), (3, 0), (0, 1))
        assert p.conjugate().conjugate() == p
        assert p.conjugate().z == (Fraction(0), Fraction(-1))

    def test_zero_eps_rejected(self):
        with pytest.raises(DomainError):
            QuadPoint.make(0, (1, 0), (1, 0), (1, 0))

    def test_every_constructor_gives_one_normal_form(self):
        # x = 1/2 + sqrt(6)/3, y = 3/4, z = -sqrt(6)/4: least denominator 12.
        coords = ((Fraction(1, 2), Fraction(1, 3)), (Fraction(3, 4), 0), (0, Fraction(-1, 4)))
        halved = [(u, Fraction(v, 2)) for u, v in coords]  # sqrt(24) = 2*sqrt(6)
        nums = (6, 4, 9, 0, 0, -3)
        points = [
            QuadPoint.make(24, *halved),
            QuadPoint._of_squarefree(6, *coords),
            QuadPoint._of_lift(6, 24, tuple(2 * n for n in nums)),
            QuadPoint._of_lift(6, 12, nums),
        ]
        for point in points:
            assert (point.eps, point.den, point.nums) == (6, 12, nums)
            assert point == points[0] and hash(point) == hash(points[0])
        assert points[0].flat() == tuple(q for pair in coords for q in pair)

    @pytest.mark.parametrize(
        "eps, den, nums",
        [
            (6, 0, (1, 1, 0, 0, 0, 0)),     # den = 0
            (6, -2, (1, 1, 0, 0, 0, 0)),    # negative den
            (6, 2, (2, 4, 0, 0, 2, 0)),     # den not least: gcd 2
            (0, 1, (1, 1, 0, 0, 0, 0)),     # eps = 0
            (1, 1, (1, 1, 0, 0, 0, 0)),     # eps = 1 with a radical part
            (6, 1, (1, 0, 2, 0, 3, 0)),     # eps != 1 with none
        ],
    )
    def test_raw_constructor_rejects_what_is_not_the_normal_form(self, eps, den, nums):
        with pytest.raises(DomainError):
            QuadPoint(eps, den, nums)


class TestOnCurve:
    def test_rational_point(self):
        assert on_curve(validate_curve(2, 3, 1, 1), QuadPoint.rational(0, 1, 1))

    def test_quadratic_point(self):
        p = QuadPoint.make(13, (2, 0), (3, 0), (0, 1))
        assert on_curve(validate_curve(2, 3, 1, 1), p)

    def test_off_curve(self):
        assert not on_curve(validate_curve(2, 3, 1, 1), QuadPoint.rational(1, 1, 1))


class TestEvalFGH:
    def test_rational_point(self):
        curve = validate_curve(2, 3, 1, 1)
        f, g, h = eval_fgh(curve, QuadPoint.rational(0, 1, 1))
        assert f == 1 and g == 1
        assert h == MultiQuad({3: 1, 2: -1})

    def test_quadratic_point(self):
        curve = validate_curve(2, 3, 1, 1)
        p = QuadPoint.make(13, (2, 0), (3, 0), (0, 1))
        f, g, h = eval_fgh(curve, p)
        assert f == MultiQuad({1: 3, 2: 2})
        assert g == MultiQuad({13: 1, 3: 2})
        assert h == MultiQuad({3: 3, 26: -1})

    def test_difference_of_squares(self):
        curve = validate_curve(2, 3, 1, 1)
        sa = MultiQuad.sqrt_int(curve.a)
        for point in (QuadPoint.rational(0, 1, 1), QuadPoint.make(13, (2, 0), (3, 0), (0, 1))):
            f, _, _ = eval_fgh(curve, point)
            x, y, _ = point.coord_mqs()
            assert f * (y - sa * x) == curve.c

    def test_rejects_off_curve(self):
        with pytest.raises(OffCurve):
            eval_fgh(validate_curve(2, 3, 1, 1), QuadPoint.rational(1, 1, 1))


class TestSymInvariants:
    def test_diagonal_pair(self):
        curve = validate_curve(2, 3, 1, 1)
        sym = sym_invariants(curve, QuadPoint.rational(0, 1, 1))
        assert sym.ff == 1 and sym.gg == 1
        assert sym.hh == MultiQuad({1: 5, 6: -2})
        assert sym.alpha == 1
        assert sym.beta == MultiQuad({1: 5, 6: 2})
        assert sym.gamma == MultiQuad({1: -5, 6: -2})

    def test_family_xy_witness(self):
        curve = validate_curve(2, 3, 1, 1)
        sym = sym_invariants(curve, QuadPoint.make(13, (2, 0), (3, 0), (0, 1)))
        assert sym.ff == MultiQuad({1: 17, 2: 12})
        assert sym.gg == -1 and sym.hh == 1
        assert sym.gamma == 1

    def test_family_yz_witness(self):
        curve = validate_curve(2, 3, 1, 1)
        sym = sym_invariants(curve, QuadPoint.make(10, (0, 2), (9, 0), (11, 0)))
        assert sym.ff == 1 and sym.gg == 1 and sym.alpha == 1

    def test_products_match_direct_evaluation(self, corpus):
        for curve, point in corpus[:80]:
            sym = sym_invariants(curve, point)
            f, g, h = eval_fgh(curve, point)
            f2, g2, h2 = eval_fgh(curve, point.conjugate())
            assert sym.ff == f * f2
            assert sym.gg == g * g2
            assert sym.hh == h * h2

    def test_inverse_formulas_cross_validate(self, corpus):
        # The closed forms in sym_invariants against the defining quotients
        # alpha = cd/(ff*gg) and friends, through the general field inverse.
        for curve, point in corpus:
            sym = sym_invariants(curve, point)
            cd = curve.c * curve.d
            assert sym.alpha * (sym.ff * sym.gg * Fraction(1, cd)) == 1
            assert sym.alpha == cd * (sym.ff * sym.gg).inverse()
            cbcad = curve.c * curve.cross
            assert sym.beta * (sym.ff * sym.hh * Fraction(1, cbcad)) == 1
            assert sym.beta == cbcad * (sym.ff * sym.hh).inverse()
            dadbc = curve.d * -curve.cross
            assert sym.gamma * (sym.gg * sym.hh * Fraction(1, dadbc)) == 1
            assert sym.gamma == dadbc * (sym.gg * sym.hh).inverse()


class TestVerifyIdentities:
    def test_reference_points_pass(self):
        curve = validate_curve(2, 3, 1, 1)
        for point in (
            QuadPoint.rational(0, 1, 1),
            QuadPoint.make(13, (2, 0), (3, 0), (0, 1)),
            QuadPoint.make(33, (4, 0), (0, 1), (7, 0)),
        ):
            report = verify_identities(curve, point)
            assert report.all_pass(), report.as_dict()

    def test_refuses_off_curve_point(self):
        with pytest.raises(OffCurve):
            verify_identities(validate_curve(2, 3, 1, 1), QuadPoint.rational(1, 1, 1))


class TestPointsAtInfinity:
    def test_reference_curve(self):
        inf = points_at_infinity(validate_curve(2, 3, 1, 1))
        one = MultiQuad.one()
        s2, s3 = MultiQuad.sqrt_int(2), MultiQuad.sqrt_int(3)
        assert inf.points == (
            (one, s2, s3),
            (one, s2, -s3),
            (one, -s2, s3),
            (one, -s2, -s3),
        )

    def test_square_parameter_still_four(self):
        inf = points_at_infinity(validate_curve(4, 3, 1, 5))
        assert len(set(inf.points)) == 4
        assert inf.points[0][1] == 2

    def test_unit_parameters(self):
        inf = points_at_infinity(validate_curve(1, 1, 2, 1))
        assert {(p[1].rational_value(), p[2].rational_value()) for p in inf.points} == {
            (1, 1), (1, -1), (-1, 1), (-1, -1),
        }


class TestComputeBounds:
    def test_exact_values(self):
        n1, n2 = compute_bounds(1, 1)
        assert n1 == 2**2838
        assert n2 == 3 * 2**1122

    def test_digit_count(self):
        n1, _ = compute_bounds(1, 1)
        assert len(str(n1)) == 855

    def test_s_two(self):
        assert compute_bounds(2, 1)[0] == 2**5673

    def test_rejects_bad_input(self):
        with pytest.raises(DomainError):
            compute_bounds(0, 1)
        with pytest.raises(DomainError):
            compute_bounds(1, 0)


class TestSPrimeSet:
    def test_cardinality_counts_archimedean_place(self):
        assert SPrimeSet.empty().s == 1
        assert SPrimeSet.of(2, 3).s == 3

    def test_rejects_composites(self):
        with pytest.raises(DomainError):
            SPrimeSet.of(6)


class TestCanonicalRepresentative:
    def test_collapses_sign_orbit(self):
        base = QuadPoint.make(13, (2, 0), (3, 0), (0, 1))
        for variant in (
            QuadPoint.make(13, (-2, 0), (3, 0), (0, 1)),
            QuadPoint.make(13, (2, 0), (-3, 0), (0, -1)),
            base.conjugate(),
        ):
            assert canonical_representative(variant) == base

    def test_pair_key_identifies_conjugates(self):
        p = QuadPoint.make(13, (2, 0), (3, 0), (0, 1))
        assert pair_key(p) == pair_key(p.conjugate())
        flipped = QuadPoint.make(13, (2, 0), (-3, 0), (0, 1))
        assert pair_key(flipped) != pair_key(p)


def test_is_s_integral():
    p = QuadPoint.make(5, (Fraction(1, 2), Fraction(3)), (2, 3), (Fraction(9, 2), 3))
    assert not is_s_integral(p, set())
    assert is_s_integral(p, {2})
    assert is_s_integral(QuadPoint.rational(1, 2, 3), set())


# The product of the primes 10^17 + 3 and 10^18 + 3: 36 digits that trial
# division and Floyd's rho do not split in seconds.
HARD_SEMIPRIME = 100000000000000003 * 1000000000000000003


def test_is_s_integral_divides_out_s_instead_of_factoring(deadline):
    with deadline(5):
        assert not is_s_integral(QuadPoint.rational(Fraction(1, HARD_SEMIPRIME), 0, 0), {2, 3})


def test_is_s_integral_rejects_a_nonprime():
    # Dividing out 1 would never end; SPrimeSet refuses it first.
    with pytest.raises(DomainError):
        is_s_integral(QuadPoint.rational(1, 0, 0), {1})
