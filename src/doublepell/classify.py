"""Classification of quadratic points into families, exceptional loci, or
the sporadic class.

Two independent routes are computed for every point and must agree: exact
equality tests on the symmetric products ff', gg', hh' against +-c, +-d,
+-(bc - ad), and the pattern of coordinates fixed or negated by conjugation.
The two routes are provably equivalent, so their agreement serves as a
permanent internal oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .curve import CurveParams, QuadPoint, SymPoint, sym_invariants
from .errors import DomainError, PanicInvariant
from .exactmath import isqrt_exact


class Verdict(str, Enum):
    RATIONAL = "RationalPoint"
    K_RATIONAL = "KRational"
    FAMILY_XY = "Family_xy"
    FAMILY_XZ = "Family_xz"
    FAMILY_YZ = "Family_yz"
    EXCEPTIONAL_X = "Exceptional_x"
    EXCEPTIONAL_Y = "Exceptional_y"
    EXCEPTIONAL_Z = "Exceptional_z"
    SPORADIC = "Sporadic"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# The six loci with their verdict and degenerate flag, keyed by the
# coordinate whose conjugation behavior splits the case, with "-" for the
# genus-0 (family) branch and "+" for the genus-1 (exceptional) branch.
# This order is the verdict precedence for a point on several loci.
_LOCI = {
    "x-": (Verdict.FAMILY_YZ, "alpha"),
    "x+": (Verdict.EXCEPTIONAL_X, "alpha"),
    "y-": (Verdict.FAMILY_XZ, "beta"),
    "y+": (Verdict.EXCEPTIONAL_Y, "beta"),
    "z-": (Verdict.FAMILY_XY, "gamma"),
    "z+": (Verdict.EXCEPTIONAL_Z, "gamma"),
}
FAMILY_FLAG = {verdict: flag for tag, (verdict, flag) in _LOCI.items() if tag[1] == "-"}


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    degenerate_flags: frozenset[str]
    sign_pattern: tuple[str, str, str] | None
    multi_degenerate: bool
    sym: SymPoint


def detect_degenerate(sym: SymPoint) -> frozenset[str]:
    """Which of alpha, beta, gamma equal 1 exactly; several may hold."""
    return frozenset(flag for flag in ("alpha", "beta", "gamma") if getattr(sym, flag) == 1)


def loci_from_invariants(curve: CurveParams, sym: SymPoint) -> frozenset[str]:
    """Locus membership from exact values of ff', gg', hh'."""
    c, d = curve.c, curve.d
    cross = curve.cross
    loci = set()
    if sym.ff == c and sym.gg == d:
        loci.add("x-")
    if sym.ff == -c and sym.gg == -d:
        loci.add("x+")
    if sym.ff == -c and sym.hh == -cross:
        loci.add("y-")
    if sym.ff == c and sym.hh == cross:
        loci.add("y+")
    if sym.gg == -d and sym.hh == cross:
        loci.add("z-")
    if sym.gg == d and sym.hh == -cross:
        loci.add("z+")
    return frozenset(loci)


def _conjugation(point: QuadPoint) -> list[tuple[bool, bool]]:
    """Per coordinate, (negated, fixed) under conjugation: a coordinate is
    negated iff its rational part vanishes and fixed iff its radical part
    vanishes; a zero coordinate is both."""
    return [(u == 0, v == 0) for u, v in zip(point.nums[0::2], point.nums[1::2])]


def loci_from_signs(point: QuadPoint) -> frozenset[str]:
    """Locus membership read directly off the coordinates: "k-" when
    conjugation negates coordinate k and fixes the other two, "k+" when it
    fixes k and negates the other two."""
    parts = _conjugation(point)
    loci = set()
    for k, axis in enumerate("xyz"):
        negated, fixed = parts[k]
        others = [parts[m] for m in range(3) if m != k]
        if negated and all(f for _, f in others):
            loci.add(axis + "-")
        if fixed and all(n for n, _ in others):
            loci.add(axis + "+")
    return frozenset(loci)


def _sign_pattern(point: QuadPoint) -> tuple[str, str, str] | None:
    """Coordinate-wise behavior under conjugation: "+" fixed, "-" negated;
    None when some coordinate is neither (mixed parts)."""
    symbols = tuple(
        "+" if fixed else "-" if negated else None for negated, fixed in _conjugation(point)
    )
    return None if None in symbols else symbols


def _in_base_square_class(curve: CurveParams, n: int) -> bool:
    """True when n*m is a square for m = a, b or ab; for squarefree n, when
    n is the squarefree part of one of them."""
    return any(isqrt_exact(n * m) is not None for m in (curve.a, curve.b, curve.a * curve.b))


def classify(curve: CurveParams, point: QuadPoint) -> Classification:
    """Full verdict for one point.

    Rational and base-field-rational points are decided before degeneracy
    analysis.  Otherwise degeneracy flags resolve through the sign tests on
    ff', gg', hh'; the coordinate route is recomputed independently and any
    disagreement raises.  sym_invariants rejects an off-curve point with
    OffCurve.
    """
    sym = sym_invariants(curve, point)
    flags = detect_degenerate(sym)
    inv_loci = loci_from_invariants(curve, sym)
    sig_loci = loci_from_signs(point)
    if inv_loci != sig_loci:
        raise PanicInvariant(
            f"invariant loci {sorted(inv_loci)} != sign loci {sorted(sig_loci)} at {point}"
        )
    if flags != {_LOCI[tag][1] for tag in inv_loci}:
        raise PanicInvariant(f"flags {sorted(flags)} inconsistent with loci {sorted(inv_loci)}")

    if point.eps == 1:
        verdict = Verdict.RATIONAL
    elif _in_base_square_class(curve, point.eps):
        verdict = Verdict.K_RATIONAL
    elif not inv_loci:
        verdict = Verdict.SPORADIC
    else:
        verdict = next(v for tag, (v, _) in _LOCI.items() if tag in inv_loci)
    return Classification(
        verdict=verdict,
        degenerate_flags=flags,
        sign_pattern=_sign_pattern(point),
        multi_degenerate=len(flags) >= 2,
        sym=sym,
    )


def family_conic(curve: CurveParams, verdict: Verdict) -> tuple[int, int, int, int, int]:
    """(i, j, A, B, C): the family's rational coordinates i and j (0, 1, 2
    for x, y, z) and its conic A*s^2 - B*t^2 = C, with s the i-th
    coordinate and t the j-th."""
    if verdict == Verdict.FAMILY_XY:
        return 1, 0, 1, curve.a, curve.c
    if verdict == Verdict.FAMILY_XZ:
        return 2, 0, 1, curve.b, curve.d
    if verdict == Verdict.FAMILY_YZ:
        return 1, 2, curve.b, curve.a, curve.cross
    raise DomainError(f"{verdict} is not a family verdict")


def family_image(
    curve: CurveParams, point: QuadPoint, verdict: Verdict
) -> tuple[Fraction, Fraction]:
    """The rational coordinate pair a family point projects to, in coordinate
    order, checked against its conic in integers over the point's common
    denominator."""
    i, j, A, B, C = family_conic(curve, verdict)
    L, n = point.den, point.nums
    S0, T0 = n[2 * i], n[2 * j]
    if n[2 * i + 1] or n[2 * j + 1] or A * S0 * S0 - B * T0 * T0 != C * L * L:
        raise PanicInvariant(f"family image of {point} fails its conic")
    return Fraction(n[2 * min(i, j)], L), Fraction(n[2 * max(i, j)], L)

