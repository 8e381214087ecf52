"""The integer per-point kernel against its Fraction oracles.

on_curve and canonical_representative run in integers over each point's
common denominator, and sym_invariants forms ff, gg, hh from those integer
numerators as MultiQuads, which hold integer numerators over one denominator.
The oracles below start from the Fraction coordinates instead: both curve
equations as MultiQuad polynomials in the coordinates, ff, gg, hh and their
flips as MultiQuad sums of Fraction norms and crosses with alpha, beta,
gamma as scaled products, and the lexicographic max over all 16 sign and
conjugation variants.  MultiQuad itself is checked against the Fraction
coefficient form in test_exactmath.py.
"""

from fractions import Fraction
from itertools import product

import pytest

from doublepell import (
    MultiQuad,
    OffCurve,
    PanicInvariant,
    QuadPoint,
    canonical_representative,
    on_curve,
    sym_invariants,
    validate_curve,
)
from doublepell.curve import SymPoint

SEVENTH = Fraction(1, 7)


def oracle_on_curve(curve, point):
    x, y, z = point.coord_mqs()
    eq1 = y * y - curve.a * (x * x) - curve.c
    eq2 = z * z - curve.b * (x * x) - curve.d
    return eq1.is_zero() and eq2.is_zero()


def oracle_sym_invariants(curve, point):
    if not oracle_on_curve(curve, point):
        raise OffCurve(f"{point} is not on {curve}")
    e = point.eps
    a, b, c, d = curve.a, curve.b, curve.c, curve.d

    def norm(pair):
        u, v = pair
        return u * u - e * v * v

    def cross(p1, p2):
        return 2 * (p1[0] * p2[0] - e * p1[1] * p2[1])

    def with_flip(rational, radical):
        return rational + radical, rational - radical

    sa, sb, sab = curve.roots
    xx, yy, zz = norm(point.x), norm(point.y), norm(point.z)
    ff, ff_flip = with_flip(yy + a * xx, sa * cross(point.x, point.y))
    gg, gg_flip = with_flip(zz + b * xx, sb * cross(point.x, point.z))
    hh, hh_flip = with_flip(b * yy + a * zz, -sab * cross(point.y, point.z))
    alpha = ff_flip * gg_flip * Fraction(1, c * d)
    beta = ff_flip * hh_flip * Fraction(1, c * curve.cross)
    gamma = gg_flip * hh_flip * Fraction(-1, d * curve.cross)
    if alpha + beta + gamma != MultiQuad.one():
        raise PanicInvariant(f"alpha+beta+gamma != 1 at {point}")
    return SymPoint(point, ff, gg, hh, alpha, beta, gamma)


def oracle_canonical_representative(point):
    (ux, vx), (uy, vy), (uz, vz) = point.x, point.y, point.z
    best = max(
        (sx * ux, sx * tau * vx, sy * uy, sy * tau * vy, sz * uz, sz * tau * vz)
        for sx in (1, -1)
        for sy in (1, -1)
        for sz in (1, -1)
        for tau in (1, -1)
    )
    return QuadPoint._of_squarefree(point.eps, best[0:2], best[2:4], best[4:6])


def variants(point):
    """All 16 images of `point` under coordinate signs and conjugation."""
    signed = [(q, -q) for q in point.flat()]
    for sx, sy, sz, tau in product((0, 1), repeat=4):
        flips = (sx, sx ^ tau, sy, sy ^ tau, sz, sz ^ tau)
        e = [pair[flip] for pair, flip in zip(signed, flips)]
        yield QuadPoint._of_squarefree(point.eps, (e[0], e[1]), (e[2], e[3]), (e[4], e[5]))


def perturbations(point):
    """The point with one u, or one v when eps != 1, moved by 1/7, and with
    one v negated: that keeps the rational parts of both equations and
    moves only their sqrt(eps) parts."""
    flat = list(point.flat())
    for index in range(6):
        if index % 2 and point.eps == 1:
            continue
        entries = [flat[index] + SEVENTH]
        if index % 2 and flat[index]:
            entries.append(-flat[index])
        for entry in entries:
            moved = list(flat)
            moved[index] = entry
            if not any(moved[1::2]):
                continue  # no radical part left: not a point over eps
            yield QuadPoint._of_squarefree(point.eps, moved[0:2], moved[2:4], moved[4:6])


class TestAgainstOracles:
    def test_sym_points_equal_on_corpus(self, corpus):
        for curve, point in corpus:
            assert sym_invariants(curve, point) == oracle_sym_invariants(curve, point), point

    def test_on_curve_agrees_on_corpus_and_perturbations(self, corpus):
        off = 0
        for curve, point in corpus:
            assert on_curve(curve, point) and oracle_on_curve(curve, point)
            for moved in perturbations(point):
                expected = oracle_on_curve(curve, moved)
                assert on_curve(curve, moved) == expected, moved
                off += not expected
        assert off > 5 * len(corpus)

    def test_canonical_representative_agrees_on_every_variant(self, corpus):
        # The oracle maximizes over the whole orbit, which every variant
        # shares, so one oracle value serves all 16.  The corpus has 0 or 3
        # coordinates with both parts nonzero ("mixed"); the closed form
        # needs no curve, so off-curve points add 1 and 2 mixed coordinates,
        # zero coordinates beside them, and a first mixed coordinate whose
        # parts have opposite signs, as its variants have too.
        extra = [
            QuadPoint._of_squarefree(5, (2, 3), (0, 1), (4, 0)),
            QuadPoint._of_squarefree(-2, (0, 0), (1, -1), (3, 0)),
            QuadPoint._of_squarefree(7, (0, 2), (1, 3), (5, -2)),
            QuadPoint._of_squarefree(3, (-1, SEVENTH), (0, 0), (2, 1)),
        ]
        points = [point for _, point in corpus] + extra
        pairs = [list(zip(p.nums[0::2], p.nums[1::2])) for p in points]
        assert {sum(bool(u and v) for u, v in pair) for pair in pairs} == {0, 1, 2, 3}
        assert any((0, 0) in pair and any(u and v for u, v in pair) for pair in pairs)
        assert any(next((u * v for u, v in pair if u and v), 0) < 0 for pair in pairs)
        for point in points:
            expected = oracle_canonical_representative(point)
            for variant in variants(point):
                assert canonical_representative(variant) == expected, variant

    def test_corpus_covers_zero_coordinates_and_rational_points(self, corpus):
        points = [point for _, point in corpus]
        assert any(point.eps == 1 for point in points)
        assert any(point.x == (0, point.x[1]) and point.x[1] for point in points)


class TestLift:
    def test_numerators_over_the_common_denominator(self):
        point = QuadPoint.make(13, (Fraction(1, 2), 0), (Fraction(2, 3), 1), (0, Fraction(-5, 4)))
        assert point.den == 12
        assert point.nums == (6, 0, 8, 12, 0, -15)
        for q, n in zip(point.flat(), point.nums):
            assert q == Fraction(n, point.den)

    def test_integral_point_lifts_over_one(self):
        point = QuadPoint.rational(0, 1, 1)
        assert (point.den, point.nums) == (1, (0, 0, 1, 0, 1, 0))


class TestChecksStay:
    def test_off_curve_raises(self):
        curve = validate_curve(2, 3, 1, 1)
        with pytest.raises(OffCurve):
            sym_invariants(curve, QuadPoint.rational(1, 1, 1))

    def test_radical_part_equation_is_checked(self):
        # The rational parts of both equations hold; only the sqrt(eps)
        # part of the first, 2*uy*vy = 2a*ux*vx, fails.
        curve = validate_curve(2, 3, 1, 1)
        point = QuadPoint.make(2, (1, 0), (1, 1), (2, 0))
        (ux, vx), (uy, vy), (uz, vz) = point.x, point.y, point.z
        assert uy * uy + 2 * vy * vy == 2 * (ux * ux + 2 * vx * vx) + 1
        assert uz * uz + 2 * vz * vz == 3 * (ux * ux + 2 * vx * vx) + 1
        assert not on_curve(curve, point)
        assert not oracle_on_curve(curve, point)

    def test_failed_unit_sum_raises(self, monkeypatch):
        # A wrong root breaks ff*ff~ = c^2 on an on-curve sporadic point,
        # and with it the unit sum.
        curve = validate_curve(2, 3, -3, -4)
        point = QuadPoint.make(5, (1, 1), (2, 1), (3, 1))
        assert on_curve(curve, point)
        sa, sb, sab = curve.roots
        monkeypatch.setitem(curve.__dict__, "roots", (sa * 2, sb, sab))
        with pytest.raises(PanicInvariant):
            sym_invariants(curve, point)
