"""Materializing point sets at desk scale.

A family point has two integral coordinates (s, t) on one of the conics
y^2 = a x^2 + c, z^2 = b x^2 + d and b y^2 - a z^2 = bc - ad, and a third
that is the square root of an S-integer in s and t; one walk along the
conic's lazy Pell stream enumerates each of the three families.

box_search is an exhaustive independent oracle over a finite coefficient
box.  The genus-1 locus hunt scans each shape's rational coordinate t over
the integers 0..coeff_bound and reads the radicand off the value t fixes:
O(coeff_bound) splits per shape, each O(|P|) divisions for the primes P of
the shape's constant, bc - ad, d or c, which eps divides.  Its points are
integral, so it misses box points with an S-denominator (ROADMAP item 6).

Every box coordinate is n/q with |n| <= coeff_bound and q an S-smooth
integer up to coeff_bound, so the box works over the common denominator L
= lcm(q): the coordinate is the integer n*(L/q), and box membership is one
lookup in the set of those integers.  It runs in int, and each candidate
is a QuadPoint of integer numerators over L.

The box does not scan its radicands one at a time: with x = (X +
V*sqrt(e))/L and y = (U + W*sqrt(e))/L, y^2 = a*x^2 + c splits into U*W =
a*X*V, free of e, and U^2 - a*X^2 - c*L^2 = e*(a*V^2 - W^2), linear in e.
So each pair (X, U) fixes e*V^2 (e*W^2 when U = 0), and e is read off as
the squarefree part of that integer; only X = U = 0, where x and y both
lie in sqrt(e)*Q, takes a second pass, over (V, W).  That is
O(coeff_bound^2) integer tests, each e tested for squarefreeness where the
scan meets it, instead of O(coeff_bound^2) root tests per radicand.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from fractions import Fraction
from itertools import product
from math import isqrt, lcm
from typing import NamedTuple

from .classify import Verdict, _in_base_square_class, family_conic
from .curve import (
    CurveParams,
    QuadPoint,
    SPrimeSet,
    _is_s_smooth,
    on_curve,
)
from .errors import DomainError, PanicInvariant
from .exactmath import factorize, isqrt_exact
from .pell import _conic_stream

# The family walk stops when t passes this cap, so a family with no further
# point still ends.
_PELL_Y_CAP = 2**100


class SearchConfig(
    namedtuple("SearchConfig", "curve s_primes coeff_bound eps_bound family_count")
):
    __slots__ = ()

    def __new__(
        cls, curve: CurveParams, s_primes: SPrimeSet = SPrimeSet.empty(),
        coeff_bound: int = 5, eps_bound: int = 15, family_count: int = 5,
    ):
        if min(coeff_bound, eps_bound, family_count) < 1:
            raise DomainError("all search bounds must be at least 1")
        return tuple.__new__(cls, (curve, s_primes, coeff_bound, eps_bound, family_count))

    # _replace builds through _make, so both validate as the constructor does.
    _make = classmethod(lambda cls, values: cls(*values))


class SUnitSolution(NamedTuple):
    """Ordered triple of S-units summing to 1; degenerate iff some entry is 1
    (equivalently a proper subsum vanishes)."""

    triple: tuple[Fraction, Fraction, Fraction]
    degenerate: bool


def _is_squarefree(n: int) -> bool:
    """n is nonzero with no square factor above 1; found without factoring, by
    dividing out each p while p^3 <= n.  What is left has at most two prime
    factors, so it is squarefree unless it is a square above 1."""
    n, p = abs(n), 2
    while p * p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return False
        p += 1 if p == 2 else 2
    return n == 1 or isqrt_exact(n) is None


def _point_key(p: QuadPoint):
    return (abs(p.eps), p.eps, p.flat())


def _walk_family(cfg: SearchConfig, verdict: Verdict) -> list[QuadPoint]:
    """Points over the integral (s, t) on the family's conic A*s^2 - B*t^2 =
    C, s and t at the coordinates i and j that family_conic gives, in
    ascending t until family_count points or t > _PELL_Y_CAP.

    The third coordinate k is sqrt(r), r = (x^2, a*x^2 + c, b*x^2 + d)[k]
    with x^2 = t^2 when x is walked (j = 0), else (y^2 - c)/a; a step is
    kept when r is an S-integer.  Each point is canonical as built:
    _conic_stream yields s, t >= 0, and sqrt(r) is 0, has radical part
    1/q > 0, or is rational and positive once make() folds a square in.
    """
    a, b, c, d = cfg.curve.a, cfg.curve.b, cfg.curve.c, cfg.curve.d
    i, j, *conic = family_conic(cfg.curve, verdict)
    k = 3 - i - j
    primes = cfg.s_primes.primes
    points = []
    for s, t in _conic_stream(*conic, _PELL_Y_CAP):
        x2 = t * t if j == 0 else Fraction(s * s - c, a)
        # Only the k-th square: for yz, x2 is a Fraction.
        r = x2 if k == 0 else a * x2 + c if k == 1 else b * x2 + d
        if not _is_s_smooth(r.denominator, primes):
            continue
        # sqrt(p/q) = sqrt(p*q)/q: make() folds the square part of p*q into
        # the coordinate, and a square p*q into its rational part.  For an
        # integral r the coordinate stays the int 1, so no Fraction is built.
        p, q = r.numerator, r.denominator
        coords = [(0, Fraction(1, q) if q > 1 else 1) if p else (0, 0)] * 3
        coords[i], coords[j] = (s, 0), (t, 0)
        points.append(QuadPoint.make(p * q or 1, *coords))
        if len(points) == cfg.family_count:
            break
    return points


def enumerate_family_xy(cfg: SearchConfig) -> list[QuadPoint]:
    """Points over integral solutions of y^2 = a x^2 + c, with z completed
    as sqrt(b x^2 + d); ascending x, canonical representatives."""
    return _walk_family(cfg, Verdict.FAMILY_XY)


def enumerate_family_xz(cfg: SearchConfig) -> list[QuadPoint]:
    """Mirror of the xy family: integral (x, z) on z^2 = b x^2 + d with y
    completed as sqrt(a x^2 + c)."""
    return _walk_family(cfg, Verdict.FAMILY_XZ)


def enumerate_family_yz(cfg: SearchConfig) -> list[QuadPoint]:
    """Points over integral (y, z) with b y^2 - a z^2 = bc - ad, keeping the
    subsequence where x^2 = (y^2 - c)/a is an S-integer; ascending z,
    canonical representatives."""
    return _walk_family(cfg, Verdict.FAMILY_YZ)


def _box(cfg: SearchConfig) -> tuple[int, frozenset[int]]:
    """The box over one common denominator: L, the lcm of the S-smooth
    integers q up to coeff_bound, and the box coordinates n/q with |n| <=
    coeff_bound scaled by L, as the integers n*(L/q).  A rational r lies in
    the box iff r*L is an integer in the set."""
    bound, primes = cfg.coeff_bound, cfg.s_primes.primes
    dens = [q for q in range(1, bound + 1) if _is_s_smooth(q, primes)]
    L = lcm(*dens)
    return L, frozenset(n * (L // q) for q in dens for n in range(-bound, bound + 1))


def _collect(curve: CurveParams, candidates, source: str) -> list[QuadPoint]:
    """The candidates, each checked on the curve, without repeats, sorted by
    _point_key.  The box and the hunt, its callers, build each candidate as
    its canonical representative: every rational part, and every radical
    part beside a rational 0, is >= 0, and a box candidate's y or z has both
    parts nonzero only when its x does, with X, V > 0."""
    points = set()
    for point in candidates:
        if not on_curve(curve, point):
            raise PanicInvariant(f"{source} candidate {point} escaped the curve")
        points.add(point)
    return sorted(points, key=_point_key)


def box_search(cfg: SearchConfig) -> list[QuadPoint]:
    """Exhaustive scan of every point whose radicand and coefficients fit the
    configured box; complete within the box by construction.

    With x = (X + V*sqrt(eps))/L and y = (U + W*sqrt(eps))/L, the equation
    y^2 = a*x^2 + c becomes (U + W*sqrt(eps))^2 = R + I*sqrt(eps) in
    integers, R = a*(X^2 + eps*V^2) + c*L^2 and I = 2*a*X*V; z likewise with
    b and d.  The scan takes X, V >= 0 and one root of each +-(U, W) pair for
    y and for z.  Both cuts are exact, because the output keeps one
    canonical representative per orbit under independent signs of x, y and
    z and conjugation: (-X, -V) is x negated, (X, -V) with y and z
    conjugated is the conjugate point, and -(U, W) is y or z negated.

    The y equation is solved for eps rather than scanned over it: its
    sqrt(eps) part is U*W = a*X*V and its rational part D - c*L^2 =
    eps*(a*V^2 - W^2), D = U^2 - a*X^2.  Every solution falls in one case:

    - V = W = 0, so x and y are rational: eps = 1 gives the rational
      points, and z = Q*sqrt(eps)/L fixes eps*Q^2 = b*X^2 + d*L^2.
    - Else U > 0: W = a*X*V/U, so eps*V^2 = kappa with kappa = (D -
      c*L^2)*U^2/(a*D), one integer per (X, U) or none; eps is its
      squarefree part.  D = 0 has no solution, as c != 0.
    - Else U = 0: X*V = 0 and eps*(W^2 - a*V^2) = a*X^2 + c*L^2, over X
      with V = 0 and over (V, W) with X = 0.

    So one pass over (X, U) and one over (V, W) with X = U = 0 cover the
    box.  Each split e*s^2 = k keeps s in the box and e squarefree with
    |e| <= eps_bound, tested where the scan meets it, so the scan finds
    exactly the points a scan of every radicand finds.  z comes from its
    root test at the eps found.  Each candidate is built as its canonical
    representative, so the output is the candidates without repeats.
    """
    return _collect(cfg.curve, _box_candidates(cfg), "box")


def _box_sqrt(n: int, eps: int, box) -> int | None:
    """The w >= 0 in box with eps*w^2 = n, or None."""
    w = isqrt_exact(n // eps) if n % eps == 0 else None
    return w if w in box else None


def _box_roots(r: int, i: int, eps: int, box: frozenset[int]) -> list[tuple[int, int]]:
    """The (U, W) in the scaled box with (U + W*sqrt(eps))^2 = r + i*sqrt(eps),
    one of each +-(U, W) pair.

    U^2 and eps*W^2 sum to r with product eps*i^2/4, so for i != 0 they are
    (r +- s)/2 with s^2 the norm r^2 - eps*i^2, and W = i/(2U).
    """
    if i == 0:
        # U*W = 0: U^2 = r, or eps*W^2 = r.  Over eps = 1 both (u, 0) and
        # (0, u) come back; QuadPoint._of_lift, which lifts calls, folds
        # them into one rational point, and _collect drops the repeat.
        roots = {(_box_sqrt(r, 1, box), 0), (0, _box_sqrt(r, eps, box))}
        return [root for root in roots if None not in root]
    s = isqrt_exact(r * r - eps * i * i)
    if s is None:
        return []
    roots = []
    for twice_u2 in (r + s, r - s):
        if twice_u2 <= 0 or twice_u2 % 2:
            continue
        u = isqrt_exact(twice_u2 // 2)
        if u is None or u not in box:
            continue
        w, rest = divmod(i, 2 * u)
        if rest == 0 and w in box:
            roots.append((u, w))
    return roots


def _box_candidates(cfg: SearchConfig):
    curve = cfg.curve
    L, box = _box(cfg)
    scan = sorted(n for n in box if n >= 0)
    positive = scan[1:]
    a, b = curve.a, curve.b
    cL2, dL2 = curve.c * L * L, curve.d * L * L
    bound = cfg.eps_bound

    def radicand(e: int) -> bool:
        """e is a squarefree radicand other than 1 with |e| <= eps_bound."""
        return e != 1 and abs(e) <= bound and _is_squarefree(e)

    def split(k: int):
        """The (e, s) with e*s^2 = k, s > 0 in the scan and radicand(e), or
        None.  There is at most one, e being the squarefree part of k; every
        s below isqrt(|k| // eps_bound) leaves |e| too large."""
        n = abs(k)
        for i in range(bisect_left(scan, max(1, isqrt(n // bound))), len(scan)):
            s = scan[i]
            if s * s > n:
                break
            e, rest = divmod(k, s * s)
            if rest == 0 and radicand(e):
                return e, s
        return None

    def lifts(e: int, X: int, V: int, U: int, W: int):
        rz, iz = b * (X * X + e * V * V) + dL2, 2 * b * X * V
        for z_pair in _box_roots(rz, iz, e, box):
            yield QuadPoint._of_lift(e, L, (X, V, U, W, *z_pair))

    for X in scan:
        # U = 0: U*W = a*X*V forces V = 0 when X > 0, and the (V, W) loop
        # below takes X = 0 with V > 0.  So V = 0, y = W*sqrt(e)/L and
        # e*W^2 = a*X^2 + c*L^2, read once per X.
        aX2 = a * X * X
        if hit := split(aX2 + cL2):
            yield from lifts(hit[0], X, 0, 0, hit[1])
        for U in scan:
            D = U * U - aX2
            if D == cL2:
                # V = W = 0, so x and y are rational: eps = 1 gives the
                # rational points, and z = Q*sqrt(e)/L gives e*Q^2 = b*X^2 +
                # d*L^2.
                yield from lifts(1, X, 0, U, 0)
                if hit := split(b * X * X + dL2):
                    yield from lifts(hit[0], X, 0, U, 0)
            elif D:
                # W = a*X*V/U and e*V^2 = kappa; W = 0 at X = 0.  U = 0
                # leaves kappa = 0, which split rejects, so W never divides
                # by 0.
                kappa, rest = divmod((D - cL2) * U * U, a * D)
                if rest or not (hit := split(kappa)):
                    continue
                e, V = hit
                W, rest = divmod(a * X * V, U)
                if rest == 0 and W in box:
                    yield from lifts(e, X, V, U, W)
    for V in positive:
        # X = 0, U = 0 and V > 0: e*(W^2 - a*V^2) = c*L^2.
        aV2 = a * V * V
        for W in scan:
            m = W * W - aV2
            if m and cL2 % m == 0 and radicand(e := cL2 // m):
                yield from lifts(e, 0, V, 0, W)


def search_exceptional(cfg: SearchConfig) -> list[QuadPoint]:
    """Hunt the genus-1 locus shapes, reading each radicand off the shape's
    equations.

    Each shape puts one coordinate t in the base field and the other two in
    sqrt(eps)*Q.  The scan takes t over the integers 0..coeff_bound: t fixes
    x^2 = X2, y^2 = a*X2 + c and z^2 = b*X2 + d, and the two that are not t^2
    are eps times squares, so eps is the squarefree part of whichever is
    nonzero.  The squares are integers and eps is squarefree, so both
    radical coordinates u, v are integral too, and the shape's equations
    give eps*(b*u^2 - a*v^2) = bc - ad when x is rational, eps*(v^2 -
    b*u^2) = d when y is, and eps*(v^2 - a*u^2) = c when z is.  So eps
    divides the shape's constant, and each split costs O(|P|) divisions for
    the primes P of that constant, whatever S is.  A point with an
    S-denominator is missed (ROADMAP item 6); box_search stays the oracle.
    """
    return _collect(cfg.curve, _exceptional_candidates(cfg), "exceptional")


def _radicand(n: int, primes) -> int | None:
    """The squarefree e supported on primes and the sign with n = e*s^2 for
    an integer s, or None; found by dividing out primes, without factoring."""
    if n == 0:
        return None
    e, rest = (1 if n > 0 else -1), abs(n)
    for p in primes:
        while rest % (p * p) == 0:
            rest //= p * p
        if rest % p == 0:
            rest //= p
            e *= p
    return e if isqrt_exact(rest) is not None else None


def _exceptional_candidates(cfg: SearchConfig):
    curve = cfg.curve
    a, b, c, d = curve.a, curve.b, curve.c, curve.d
    box = range(cfg.coeff_bound + 1)
    # The rational coordinate i = t, x^2 = (t^2 - C)/A, and the primes of
    # the constant that eps divides, for each shape.
    shapes = [(i, A, C, factorize(k)) for i, A, C, k in
              ((0, 1, 0, curve.cross), (1, a, c, d), (2, b, d, c))]
    for t in box:
        for i, A, C, primes in shapes:
            X2, rest = divmod(t * t - C, A)
            if rest:
                continue
            squares = (X2, a * X2 + c, b * X2 + d)
            j, k = (m for m in range(3) if m != i)
            eps = _radicand(squares[j] or squares[k], primes)
            if eps is None or eps == 1 or _in_base_square_class(curve, eps):
                continue
            u, v = _box_sqrt(squares[j], eps, box), _box_sqrt(squares[k], eps, box)
            if u is not None and v is not None:
                nums = [0] * 6
                nums[2 * i], nums[2 * j + 1], nums[2 * k + 1] = t, u, v
                yield QuadPoint._of_lift(eps, 1, nums)


def sunit_solutions(s_primes: SPrimeSet, exp_bound: int) -> list[SUnitSolution]:
    """Every ordered triple of S-units with exponents bounded by exp_bound
    that sums to 1 exactly."""
    if exp_bound < 1:
        raise DomainError("exp_bound must be at least 1")
    primes = sorted(s_primes.primes)
    units: set[Fraction] = set()
    for exps in product(range(-exp_bound, exp_bound + 1), repeat=len(primes)):
        value = Fraction(1)
        for p, e in zip(primes, exps):
            value *= Fraction(p) ** e
        units.add(value)
        units.add(-value)
    ordered = sorted(units)
    solutions = []
    for x1 in ordered:
        for x2 in ordered:
            x3 = 1 - x1 - x2
            if x3 in units:
                triple = (x1, x2, x3)
                solutions.append(SUnitSolution(triple, degenerate=1 in triple))
    solutions.sort(key=lambda sol: sol.triple)
    return solutions
