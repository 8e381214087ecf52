"""Materializing point sets at desk scale.

A family point has two integral coordinates (s, t) on one of the conics
y^2 = a x^2 + c, z^2 = b x^2 + d and b y^2 - a z^2 = bc - ad, and a third
that is the square root of an S-integer in s and t; one walk along the
conic's lazy Pell stream enumerates each of the three families.

box_search is an exhaustive independent oracle over a finite coefficient
box.  The genus-1 locus hunt makes O(coeff_bound) square tests per shape
and admissible radicand over integral rational coordinates only, so it
misses box points whose scanned coordinates have an S-denominator
(ROADMAP item 6).

Every box coordinate is n/q with |n| <= coeff_bound and q an S-smooth
integer up to coeff_bound, so both searches work over the common
denominator L = lcm(q): the coordinate is the integer n*(L/q), and box
membership is one lookup in the set of those integers.  Both run in int,
and each candidate is a QuadPoint of integer numerators over L.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import isqrt, lcm

from .classify import exceptional_eps_candidates
from .curve import (
    CurveParams,
    QuadPoint,
    SPrimeSet,
    _is_s_smooth,
    canonical_representative,
    on_curve,
)
from .errors import DomainError, PanicInvariant
from .exactmath import isqrt_exact
from .pell import _conic_stream

# The family walk stops when t passes this cap, so a family with no further
# point still ends.
_PELL_Y_CAP = 2**100


@dataclass(frozen=True)
class SearchConfig:
    curve: CurveParams
    s_primes: SPrimeSet = SPrimeSet.empty()
    coeff_bound: int = 5
    eps_bound: int = 15
    family_count: int = 5

    def __post_init__(self):
        if min(self.coeff_bound, self.eps_bound, self.family_count) < 1:
            raise DomainError("all search bounds must be at least 1")


@dataclass(frozen=True)
class SUnitSolution:
    """Ordered triple of S-units summing to 1; degenerate iff some entry is 1
    (equivalently a proper subsum vanishes)."""

    triple: tuple[Fraction, Fraction, Fraction]
    degenerate: bool


def _squarefree_eps_range(limit: int) -> list[int]:
    """The nonzero squarefree integers in [-limit, limit], found without
    factoring: no p*p with p <= isqrt(|e|) divides e."""
    return [
        e for e in range(-limit, limit + 1)
        if e and all(e % (p * p) for p in range(2, isqrt(abs(e)) + 1))
    ]


def _point_key(p: QuadPoint):
    return (abs(p.eps), p.eps, p.flat())


def _walk_family(cfg: SearchConfig, conic, third, place) -> list[QuadPoint]:
    """Points over the integral (s, t) on A*s^2 - B*t^2 = C, conic = (A, B,
    C), in ascending t until family_count points or t > _PELL_Y_CAP;
    canonical representatives.

    The third coordinate is sqrt(r), r = third(s, t), and a step is kept
    when r is an S-integer, its denominator supported on S; place(s, t, w)
    orders the coordinate pairs (s, 0), (t, 0) and w as (x, y, z).
    """
    primes = cfg.s_primes.primes
    points = []
    for s, t in _conic_stream(*conic, _PELL_Y_CAP):
        r = third(s, t)
        if not _is_s_smooth(r.denominator, primes):
            continue
        # sqrt(p/q) = sqrt(p*q)/q: make() folds the square part of p*q into
        # the coordinate, and a square p*q into its rational part.  For an
        # integral r the coordinate stays the int 1, so no Fraction is built.
        p, q = r.numerator, r.denominator
        w = (0, Fraction(1, q) if q > 1 else 1) if p else (0, 0)
        pt = QuadPoint.make(p * q or 1, *place((s, 0), (t, 0), w))
        points.append(canonical_representative(pt))
        if len(points) == cfg.family_count:
            break
    return points


def enumerate_family_xy(cfg: SearchConfig) -> list[QuadPoint]:
    """Points over integral solutions of y^2 = a x^2 + c, with z completed
    as sqrt(b x^2 + d); ascending x, canonical representatives."""
    a, b, c, d = cfg.curve.a, cfg.curve.b, cfg.curve.c, cfg.curve.d
    return _walk_family(
        cfg, (1, a, c), lambda y, x: b * x * x + d, lambda y, x, z: (x, y, z)
    )


def enumerate_family_xz(cfg: SearchConfig) -> list[QuadPoint]:
    """Mirror of the xy family: integral (x, z) on z^2 = b x^2 + d with y
    completed as sqrt(a x^2 + c)."""
    a, b, c, d = cfg.curve.a, cfg.curve.b, cfg.curve.c, cfg.curve.d
    return _walk_family(
        cfg, (1, b, d), lambda z, x: a * x * x + c, lambda z, x, y: (x, y, z)
    )


def enumerate_family_yz(cfg: SearchConfig) -> list[QuadPoint]:
    """Points over integral (y, z) with b y^2 - a z^2 = bc - ad, keeping the
    subsequence where x^2 = (y^2 - c)/a is an S-integer; ascending z,
    canonical representatives."""
    curve = cfg.curve
    return _walk_family(
        cfg,
        (curve.b, curve.a, curve.cross),
        lambda y, z: Fraction(y * y - curve.c, curve.a),
        lambda y, z, x: (x, y, z),
    )


def _box(cfg: SearchConfig) -> tuple[int, frozenset[int]]:
    """The box over one common denominator: L, the lcm of the S-smooth
    integers q up to coeff_bound, and the box coordinates n/q with |n| <=
    coeff_bound scaled by L, as the integers n*(L/q).  A rational r lies in
    the box iff r*L is an integer in the set."""
    bound = cfg.coeff_bound
    dens = {1}
    for p in sorted(cfg.s_primes.primes):
        extra = set()
        for base in dens:
            value = base * p
            while value <= bound:
                extra.add(value)
                value *= p
        dens |= extra
    L = lcm(*dens)
    return L, frozenset(n * (L // q) for q in dens for n in range(-bound, bound + 1))


def _collect(curve: CurveParams, candidates, source: str) -> list[QuadPoint]:
    """The candidates, each checked on the curve, as canonical
    representatives without repeats, sorted by _point_key."""
    reps = set()
    for point in candidates:
        if not on_curve(curve, point):
            raise PanicInvariant(f"{source} candidate {point} escaped the curve")
        reps.add(canonical_representative(point))
    return sorted(reps, key=_point_key)


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
    """
    return _collect(cfg.curve, _box_candidates(cfg), "box")


def _box_sqrt(n: int, eps: int, box: frozenset[int]) -> int | None:
    """The w >= 0 in the scaled box with eps*w^2 = n, or None."""
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
        # (0, u) come back; QuadPoint._of_squarefree folds them into one
        # rational point, and _collect drops the repeat.
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
    a, b = curve.a, curve.b
    cL2, dL2 = curve.c * L * L, curve.d * L * L
    for eps in _squarefree_eps_range(cfg.eps_bound):
        # Rational points come from eps = 1 with V = 0.
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


def _square_scan(m: int, k: int, bound: int):
    """The pairs (s, r) with s = 0..bound, r >= 0 and r^2 = m*s^2 + k."""
    roots = ((s, isqrt_exact(m * s * s + k)) for s in range(bound + 1))
    return [(s, r) for s, r in roots if r is not None]


def search_exceptional(cfg: SearchConfig) -> list[QuadPoint]:
    """Hunt the genus-1 locus shapes over every admissible radicand.

    Each shape puts one coordinate t in the base field and the other two in
    sqrt(eps)*Q.  One curve equation ties t to one of them, u; scanning t or
    u over the integers 0..coeff_bound with an exact square test finds its
    integral solutions at O(coeff_bound) per shape and radicand.  The other
    equation is a companion square condition on the third coordinate.

    The radicand candidates are supported on the primes of bc - ad together
    with S.  The shapes whose rational coordinate is y or z force eps to
    divide d or c instead, which S covers when it contains the primes of
    c*d.  Even then a point whose t or u has an S-denominator is missed
    (ROADMAP item 6); box_search stays the oracle.
    """
    candidates = _exceptional_candidates(cfg)
    return _collect(cfg.curve, (p for p in candidates if p.eps != 1), "exceptional")


def _exceptional_candidates(cfg: SearchConfig):
    curve = cfg.curve
    bound = cfg.coeff_bound
    a, b, c, d = curve.a, curve.b, curve.c, curve.d
    L, box = _box(cfg)

    def companion(eps: int, m: int):
        """V = v*L for the v >= 0 in the box with eps*v^2 = m, or None."""
        return _box_sqrt(m * L * L, eps, box)

    for eps in exceptional_eps_candidates(curve, cfg.s_primes):
        # x rational: eps*u^2 = a*t^2 + c, scanned as r^2 = eps*(a*t^2 + c);
        # eps is squarefree, so eps | r and u = r/eps.  Companion
        # eps*v^2 = b*t^2 + d.
        for t, r in _square_scan(a * eps, c * eps, bound):
            u = r // eps
            if abs(u) <= bound and (v := companion(eps, b * t * t + d)) is not None:
                yield QuadPoint._of_lift(eps, L, (t * L, 0, 0, u * L, 0, v))
        # y rational: t^2 = a*eps*u^2 + c, companion eps*v^2 = b*eps*u^2 + d.
        for u, t in _square_scan(a * eps, c, bound):
            if t <= bound and (v := companion(eps, b * eps * u * u + d)) is not None:
                yield QuadPoint._of_lift(eps, L, (0, u * L, t * L, 0, 0, v))
        # z rational: t^2 = b*eps*u^2 + d, companion eps*v^2 = a*eps*u^2 + c.
        for u, t in _square_scan(b * eps, d, bound):
            if t <= bound and (v := companion(eps, a * eps * u * u + c)) is not None:
                yield QuadPoint._of_lift(eps, L, (0, u * L, 0, v, t * L, 0))


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
