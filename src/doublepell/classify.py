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
from itertools import combinations

from .curve import CurveParams, QuadPoint, SPrimeSet, SymPoint, sym_invariants
from .errors import DomainError, PanicInvariant
from .exactmath import factorize, isqrt_exact


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


FAMILY_VERDICTS = (Verdict.FAMILY_XY, Verdict.FAMILY_XZ, Verdict.FAMILY_YZ)

# Locus tags: the coordinate whose conjugation behavior splits the case,
# with "-" for the genus-0 (family) branch and "+" for the genus-1
# (exceptional) branch.
_LOCUS_VERDICT = {
    "x-": Verdict.FAMILY_YZ,
    "x+": Verdict.EXCEPTIONAL_X,
    "y-": Verdict.FAMILY_XZ,
    "y+": Verdict.EXCEPTIONAL_Y,
    "z-": Verdict.FAMILY_XY,
    "z+": Verdict.EXCEPTIONAL_Z,
}
_AXIS_FLAG = {"x": "alpha", "y": "beta", "z": "gamma"}
# The degenerate flag of each family: that of the axis whose "-" locus it is.
FAMILY_FLAG = {_LOCUS_VERDICT[f"{axis}-"]: flag for axis, flag in _AXIS_FLAG.items()}


@dataclass(frozen=True)
class Classification:
    verdict: Verdict
    degenerate_flags: frozenset[str]
    sign_pattern: tuple[str, str, str] | None
    multi_degenerate: bool
    sym: SymPoint


def detect_degenerate(sym: SymPoint) -> frozenset[str]:
    """Which of alpha, beta, gamma equal 1 exactly; several may hold."""
    return frozenset(flag for flag in _AXIS_FLAG.values() if getattr(sym, flag) == 1)


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


def loci_from_signs(point: QuadPoint) -> frozenset[str]:
    """Locus membership read directly off the coordinates.

    A coordinate is fixed by conjugation iff its radical part vanishes and
    negated iff its rational part vanishes; zero coordinates are both.
    """
    nx, fx, ny, fy, nz, fz = (n == 0 for n in point.nums)
    loci = set()
    if nx and fy and fz:
        loci.add("x-")
    if fx and ny and nz:
        loci.add("x+")
    if fx and ny and fz:
        loci.add("y-")
    if nx and fy and nz:
        loci.add("y+")
    if fx and fy and nz:
        loci.add("z-")
    if nx and ny and fz:
        loci.add("z+")
    return frozenset(loci)


def _sign_pattern(point: QuadPoint) -> tuple[str, str, str] | None:
    """Coordinate-wise behavior under conjugation: "+" fixed, "-" negated;
    None when some coordinate is neither (mixed parts)."""
    symbols = []
    for u, v in zip(point.nums[0::2], point.nums[1::2]):
        if v == 0:
            symbols.append("+")
        elif u == 0:
            symbols.append("-")
        else:
            return None
    return tuple(symbols)


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
    axes_with_locus = {tag[0] for tag in inv_loci}
    if flags != {_AXIS_FLAG[axis] for axis in axes_with_locus}:
        raise PanicInvariant(f"flags {sorted(flags)} inconsistent with loci {sorted(inv_loci)}")

    if point.eps == 1:
        verdict = Verdict.RATIONAL
    elif _in_base_square_class(curve, point.eps):
        verdict = Verdict.K_RATIONAL
    elif not inv_loci:
        verdict = Verdict.SPORADIC
    else:
        verdict = None
        for axis in "xyz":
            if f"{axis}-" in inv_loci:
                verdict = _LOCUS_VERDICT[f"{axis}-"]
                break
            if f"{axis}+" in inv_loci:
                verdict = _LOCUS_VERDICT[f"{axis}+"]
                break
    return Classification(
        verdict=verdict,
        degenerate_flags=flags,
        sign_pattern=_sign_pattern(point),
        multi_degenerate=len(flags) >= 2,
        sym=sym,
    )


def family_image(
    curve: CurveParams, point: QuadPoint, verdict: Verdict
) -> tuple[Fraction, Fraction]:
    """The rational coordinate pair a family point projects to, checked
    against its conic in integers over the point's common denominator."""
    if verdict not in FAMILY_VERDICTS:
        raise DomainError(f"{verdict} is not a family verdict")
    a, b, c, d = curve.a, curve.b, curve.c, curve.d
    L, (X0, X1, Y0, Y1, Z0, Z1) = point.den, point.nums
    LL = L * L
    if verdict is Verdict.FAMILY_XY:
        ok = X1 == 0 and Y1 == 0 and Y0 * Y0 == a * X0 * X0 + c * LL
        image = (X0, Y0)
    elif verdict is Verdict.FAMILY_XZ:
        ok = X1 == 0 and Z1 == 0 and Z0 * Z0 == b * X0 * X0 + d * LL
        image = (X0, Z0)
    else:
        ok = Y1 == 0 and Z1 == 0 and b * Y0 * Y0 - a * Z0 * Z0 == curve.cross * LL
        image = (Y0, Z0)
    if not ok:
        raise PanicInvariant(f"family image of {point} fails its conic")
    return Fraction(image[0], L), Fraction(image[1], L)


def exceptional_eps_candidates(curve: CurveParams, s_primes: SPrimeSet) -> list[int]:
    """Every squarefree eps a genus-1 locus point could live over: prime
    support inside (primes of bc-ad) union S union {-1}, excluding the
    square classes of 1, a, b and ab."""
    primes = sorted(set(factorize(curve.cross)) | set(s_primes.primes))
    candidates = set()
    for r in range(len(primes) + 1):
        for combo in combinations(primes, r):
            value = 1
            for p in combo:
                value *= p
            for signed in (value, -value):
                if signed != 1 and not _in_base_square_class(curve, signed):
                    candidates.add(signed)
    return sorted(candidates, key=lambda v: (abs(v), v))

