from decimal import Decimal, getcontext
from math import isqrt

import pytest

from doublepell import (
    DomainError,
    PellProblem,
    cf_sqrt,
    pell_classes,
    pell_fundamental,
    pell_iterate,
    solve_conic,
)
from doublepell.pell import _conic_stream


def brute_force_pell(D, N, bound):
    """Independent oracle: scan every |y| <= bound directly."""
    out = set()
    for y in range(bound + 1):
        x2 = N + D * y * y
        if x2 < 0:
            continue
        x = isqrt(x2)
        if x * x == x2:
            out.update({(x, y), (-x, y), (x, -y), (-x, -y)})
    return out


def cf_oracle(D, count):
    """Continued-fraction terms from a high-precision decimal square root."""
    getcontext().prec = 500
    x = Decimal(D).sqrt()
    terms = []
    for _ in range(count):
        a = int(x)
        terms.append(a)
        x = 1 / (x - a)
    return terms


class TestCFSqrt:
    def test_two(self):
        cf = cf_sqrt(2)
        assert (cf.a0, cf.period) == (1, (2,))

    def test_three(self):
        cf = cf_sqrt(3)
        assert (cf.a0, cf.period) == (1, (1, 2))

    def test_thirteen(self):
        cf = cf_sqrt(13)
        assert (cf.a0, cf.period) == (3, (1, 1, 1, 1, 6))

    def test_rejects_squares_and_nonpositive(self):
        for bad in (0, -3, 4, 9, 49):
            with pytest.raises(DomainError):
                cf_sqrt(bad)

    def test_last_period_element(self):
        for D in range(2, 200):
            if isqrt(D) ** 2 == D:
                continue
            cf = cf_sqrt(D)
            assert cf.period[-1] == 2 * cf.a0

    def test_against_decimal_oracle(self):
        for D in (2, 3, 13, 19, 31, 46, 61, 94):
            cf = cf_sqrt(D)
            want = min(25, 2 * len(cf.period) + 3)
            expanded = [cf.a0] + [
                cf.period[i % len(cf.period)] for i in range(want - 1)
            ]
            assert expanded == cf_oracle(D, want)


class TestFundamental:
    def test_known_values(self):
        assert pell_fundamental(2) == (3, 2)
        assert pell_fundamental(3) == (2, 1)
        assert pell_fundamental(6) == (5, 2)

    def test_brute_force_small(self):
        for D in (2, 3, 5, 6, 7, 8, 10):
            x1, y1 = pell_fundamental(D)
            found = None
            y = 1
            while found is None:
                x2 = 1 + D * y * y
                if isqrt(x2) ** 2 == x2:
                    found = (isqrt(x2), y)
                y += 1
            assert (x1, y1) == found

    def test_minimality_to_fifty(self):
        for D in range(2, 51):
            if isqrt(D) ** 2 == D:
                continue
            x1, y1 = pell_fundamental(D)
            assert x1 * x1 - D * y1 * y1 == 1
            for y in range(1, y1):
                x2 = 1 + D * y * y
                assert isqrt(x2) ** 2 != x2


class TestClasses:
    def test_unit_problem(self):
        sols = pell_classes(PellProblem(2, 1))
        assert sols.fundamental == (3, 2)
        assert sols.class_reps == ((1, 0),)
        assert not sols.finite_complete

    def test_d6_n3(self):
        sols = pell_classes(PellProblem(6, 3))
        assert (3, 1) in sols.class_reps

    def test_negative_d(self):
        sols = pell_classes(PellProblem(-1, 1))
        assert sols.finite_complete
        assert set(sols.class_reps) == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_square_d(self):
        sols = pell_classes(PellProblem(4, 1))
        assert sols.finite_complete
        assert set(sols.class_reps) == {(1, 0), (-1, 0)}

    def test_negative_d_negative_n_empty(self):
        assert pell_classes(PellProblem(-2, -5)).class_reps == ()

    def test_rejects_zero_n(self):
        with pytest.raises(DomainError):
            PellProblem(2, 0)

    def test_rejects_zero_d(self):
        with pytest.raises(DomainError):
            pell_classes(PellProblem(0, 4))


class TestIterate:
    def test_d2_bound_100(self):
        sols = pell_iterate(pell_classes(PellProblem(2, 1)), 100)
        assert set(sols) == brute_force_pell(2, 1, 100)
        assert {(abs(x), abs(y)) for x, y in sols} == {(1, 0), (3, 2), (17, 12), (99, 70)}

    def test_d3_bound_30(self):
        sols = pell_iterate(pell_classes(PellProblem(3, 1)), 30)
        assert {(abs(x), abs(y)) for x, y in sols} == {(1, 0), (2, 1), (7, 4), (26, 15)}

    def test_bound_zero(self):
        assert pell_iterate(pell_classes(PellProblem(2, 1)), 0) == [(-1, 0), (1, 0)]
        assert pell_iterate(pell_classes(PellProblem(2, 3)), 0) == []

    def test_sorted_and_deduplicated(self):
        sols = pell_iterate(pell_classes(PellProblem(6, 3)), 500)
        assert sols == sorted(set(sols), key=lambda t: (abs(t[1]), t[0], t[1]))

    def test_emissions_satisfy_equation(self):
        for D, N in ((2, 1), (6, 3), (13, -9), (-5, 21), (9, 16)):
            sols = pell_classes(PellProblem(D, N))
            for x, y in pell_iterate(sols, 300):
                assert x * x - D * y * y == N

    def test_desk_scale_completeness(self):
        # Full-scale version runs in the acceptance suite; a denser but
        # shallower sweep here keeps unit runs quick.
        for D in range(-6, 41):
            if D == 0:
                continue
            for N in range(-12, 13):
                if N == 0:
                    continue
                got = set(pell_iterate(pell_classes(PellProblem(D, N)), 400))
                assert got == brute_force_pell(D, N, 400), (D, N)


class TestSolveConic:
    def test_reference_conic(self):
        got = solve_conic(3, 2, 1, 200)
        brute = {
            (y, z)
            for y in range(-300, 301)
            for z in range(-200, 201)
            if 3 * y * y - 2 * z * z == 1
        }
        assert set(got) == brute
        assert {(abs(y), abs(z)) for y, z in got} == {(1, 1), (9, 11), (89, 109)}

    def test_substitution_identity(self):
        got = solve_conic(1, 2, 1, 100)
        assert set(got) == set(pell_iterate(pell_classes(PellProblem(2, 1)), 100))

    def test_conic_that_looks_obstructed_but_is_not(self):
        # 2y^2 - 3z^2 = 5 does have solutions: (2, 1) and (4, 3) among them.
        got = solve_conic(2, 3, 5, 50)
        brute = {
            (y, z)
            for y in range(-100, 101)
            for z in range(-50, 51)
            if 2 * y * y - 3 * z * z == 5
        }
        assert set(got) == brute
        assert (2, 1) in brute

    def test_rejects_zero_coefficients(self):
        with pytest.raises(DomainError):
            solve_conic(0, 2, 1, 10)

    def test_stream_yields_nonnegative_y_for_negative_a(self):
        # The stream walks u = A*y >= 0, so y = u/A would be -1 here, and
        # negative on 2y^2 - 3z^2 = 5 written with A = -2.
        assert list(_conic_stream(-1, 2, -1, 10)) == [(1, 0)]
        assert list(_conic_stream(-2, -3, -5, 50)) == [(2, 1), (4, 3), (16, 13), (38, 31)]
