"""Exact solution of x^2 - D*y^2 = N over the integers.

Positive nonsquare D gives the classical structure: a fundamental unit of
x^2 - D*y^2 = 1 plus finitely many class representatives, every solution
being a representative composed with a power of the unit, up to sign.
D < 0 and square D collapse to finite enumerations.
"""

from __future__ import annotations

import heapq
from collections import namedtuple
from math import isqrt
from operator import itemgetter
from typing import NamedTuple

from .errors import DomainError, PanicInvariant
from .exactmath import factorize, isqrt_exact


def divisors(n: int) -> list[int]:
    """Positive divisors of |n|, ascending."""
    if n == 0:
        raise DomainError("0 has no divisor list")
    out = [1]
    for p, e in sorted(factorize(n).items()):
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


class CFExpansion(NamedTuple):
    """Periodic continued fraction of sqrt(d): [a0; period repeating]."""

    d: int
    a0: int
    period: tuple[int, ...]


class PellProblem(namedtuple("PellProblem", "D N")):
    __slots__ = ()

    def __new__(cls, D: int, N: int):
        if N == 0:
            raise DomainError("N must be nonzero")
        return tuple.__new__(cls, (D, N))

    # _replace builds through _make, so both validate as the constructor does.
    _make = classmethod(lambda cls, values: cls(*values))


class PellSolutionSet(NamedTuple):
    """Solutions of x^2 - D*y^2 = N.

    If finite_complete, class_reps is the entire solution set.  Otherwise
    every solution is, up to sign, a class representative composed with a
    power of the fundamental unit.
    """

    problem: PellProblem
    fundamental: tuple[int, int] | None
    class_reps: tuple[tuple[int, int], ...]
    finite_complete: bool


def cf_sqrt(D: int) -> CFExpansion:
    """Minimal-period continued fraction of sqrt(D) for nonsquare D > 0."""
    if D <= 0:
        raise DomainError("D must be positive")
    a0 = isqrt(D)
    if a0 * a0 == D:
        raise DomainError("D must not be a perfect square")
    m, d, a = 0, 1, a0
    period = []
    while True:
        m = d * a - m
        d = (D - m * m) // d
        a = (a0 + m) // d
        period.append(a)
        if d == 1:
            break
    return CFExpansion(d=D, a0=a0, period=tuple(period))


def pell_fundamental(D: int) -> tuple[int, int]:
    """Minimal positive solution of x^2 - D*y^2 = 1, via CF convergents."""
    cf = cf_sqrt(D)
    p_prev, q_prev = 1, 0
    p, q = cf.a0, 1
    k = 0
    while p * p - D * q * q != 1:
        a = cf.period[k % len(cf.period)]
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        k += 1
    return p, q


def _branches(sols: PellSolutionSet, ymax: int) -> list:
    """The nonnegative solutions (x, y) of sols.problem with y <= ymax, as a
    few lazy branches, each strictly ascending in y and each element checked
    against x^2 - D*y^2 = N.

    Each class representative and its conjugate (negated when N < 0, so
    that its value is positive) seed one branch start*eps^k, k >= 0, eps
    the fundamental unit.  A branch's leading elements with a negative
    entry have value below sqrt|N| and are skipped; after them x and y both
    ascend.  A finite set is one branch: its sorted absolute pairs.
    """
    D, N = sols.problem.D, sols.problem.N

    def check(x, y):
        if x * x - D * y * y != N:
            raise PanicInvariant(f"emitted ({x},{y}) violates x^2-{D}y^2={N}")
        return x, y

    if sols.finite_complete:
        pairs = sorted({(abs(x), abs(y)) for x, y in sols.class_reps}, key=itemgetter(1))
        return [[check(x, y) for x, y in pairs if y <= ymax]]
    x1, y1 = sols.fundamental

    # Brahmagupta composition with the unit: this is pell_iterate's inner loop.
    def branch(x, y):
        while x < 0 or y < 0:
            x, y = x * x1 + D * y * y1, x * y1 + y * x1
        while y <= ymax:
            yield check(x, y)
            x, y = x * x1 + D * y * y1, x * y1 + y * x1

    starts = {(x, -y) if N > 0 else (-x, y) for x, y in sols.class_reps}
    starts.update(sols.class_reps)
    return [branch(x, y) for x, y in starts]


def pell_classes(problem: PellProblem) -> PellSolutionSet:
    """Class representatives (plus fundamental unit) for x^2 - D*y^2 = N.

    D > 0 nonsquare: representatives with nonnegative entries are found by
    exhausting the window y <= y1*sqrt(|N|(x1+1)/(2D)) for N > 0 and the
    mirrored x-window for N < 0; both windows contain the classical bounds,
    so the class list is complete.  The candidates are taken in ascending
    y; each one that no earlier representative's branches reached (walked
    up to the largest candidate y) becomes a representative.
    D < 0 and square D are enumerated outright and marked finite_complete.
    """
    D, N = problem.D, problem.N
    if D == 0:
        # x^2 = N leaves y unconstrained, so no finite description exists.
        raise DomainError("D = 0 is degenerate: y would be unconstrained")
    if D < 0:
        sols: set[tuple[int, int]] = set()
        if N > 0:
            for y in range(isqrt(N // -D) + 1):
                x = isqrt_exact(N + D * y * y)
                if x is not None:
                    sols.update({(x, y), (-x, y), (x, -y), (-x, -y)})
        return PellSolutionSet(problem, None, tuple(sorted(sols)), True)
    m = isqrt(D)
    if m * m == D:
        sols = set()
        for e in divisors(N):
            for e_signed in (e, -e):
                f = N // e_signed
                if (e_signed + f) % 2:
                    continue
                x = (e_signed + f) // 2
                t = (f - e_signed) // 2
                if t % m == 0:
                    sols.add((x, t // m))
        return PellSolutionSet(problem, None, tuple(sorted(sols)), True)

    x1, y1 = pell_fundamental(D)
    cands = []
    if N > 0:
        lim = y1 * y1 * N * (x1 + 1)
        y = 0
        while 2 * D * y * y <= lim:
            x = isqrt_exact(N + D * y * y)
            if x is not None:
                cands.append((x, y))
            y += 1
    else:
        lim = x1 * x1 * (-N) * (x1 + 1)
        x = 0
        while 2 * D * x * x <= lim:
            rem = x * x - N
            if rem % D == 0:
                y = isqrt_exact(rem // D)
                if y is not None:
                    cands.append((x, y))
            x += 1
    cands.sort(key=lambda t: (t[1], t[0]))
    ymax = max((y for _, y in cands), default=0)
    reps: list[tuple[int, int]] = []
    covered: set[tuple[int, int]] = set()
    for cand in cands:
        if cand in covered:
            continue
        reps.append(cand)
        for branch in _branches(PellSolutionSet(problem, (x1, y1), (cand,), False), ymax):
            covered.update(branch)
    return PellSolutionSet(problem, (x1, y1), tuple(reps), False)


def pell_iterate(sols: PellSolutionSet, bound: int) -> list[tuple[int, int]]:
    """All solutions with |y| <= bound, deduplicated, sorted by |y| then x:
    the branches of nonnegative solutions walked up to the bound, each
    element expanded by sign."""
    if bound < 0:
        raise DomainError("bound must be nonnegative")
    out: set[tuple[int, int]] = set()
    for branch in _branches(sols, bound):
        for x, y in branch:
            out.update({(x, y), (-x, y), (x, -y), (-x, -y)})
    return sorted(out, key=lambda t: (abs(t[1]), t[0], t[1]))


def _conic_stream(A: int, B: int, C: int, zmax: int):
    """Nonnegative solutions (y, z) of A*y^2 - B*z^2 = C with z <= zmax,
    lazily, in strictly ascending z: u = A*y on u^2 - (A*B)*z^2 = A*C, its
    branches walked up to zmax and merged by z, less the repeat an ambiguous
    class yields (each z has at most one u >= 0); y = u/|A| >= 0 for either
    sign of A.  zmax also ends a walk where A divides no u."""
    branches = _branches(pell_classes(PellProblem(A * B, A * C)), zmax)
    last = -1
    for u, z in heapq.merge(*branches, key=itemgetter(1)):
        if z == last:
            continue
        last = z
        if u % A == 0:
            y = u // abs(A)
            if A * y * y - B * z * z != C:
                raise PanicInvariant("conic substitution produced a bad pair")
            yield y, z


def solve_conic(A: int, B: int, C: int, bound: int) -> list[tuple[int, int]]:
    """All integer solutions of A*y^2 - B*z^2 = C with |z| <= bound."""
    if A == 0 or B == 0 or C == 0:
        raise DomainError("conic coefficients must be nonzero")
    out = set()
    for y, z in _conic_stream(A, B, C, bound):
        out.update({(y, z), (-y, z), (y, -z), (-y, -z)})
    return sorted(out, key=lambda t: (abs(t[1]), abs(t[0]), t[1], t[0]))
