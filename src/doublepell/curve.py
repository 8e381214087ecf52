"""The double Pell curve y^2 = a*x^2 + c, z^2 = b*x^2 + d.

Holds the curve parameters, quadratic points u + v*sqrt(eps), the three
multiplicative functions f, g, h on the curve, their symmetric products at
a conjugate pair, the unit-sum invariants alpha, beta, gamma, and the exact
identity checks tying all of them together.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple

from .errors import (
    ABCD_ZERO,
    AD_EQUALS_BC,
    DegenerateCurve,
    DomainError,
    OffCurve,
    PanicInvariant,
)
from .exactmath import (
    MultiQuad,
    _is_probable_prime,
    factorize,
    squarefree_decompose,
)


# The records that check their input are namedtuple subclasses whose
# __new__ makes the checks; _replace builds through _make, so overriding
# _make makes both validate as the constructor does.
class CurveParams(namedtuple("CurveParams", "a b c d")):
    # No __slots__: the instance __dict__ holds the cached roots, and
    # __setattr__ keeps it closed to assignment.

    def __new__(cls, a: int, b: int, c: int, d: int):
        if a * b * c * d == 0:
            raise DegenerateCurve("a*b*c*d must be nonzero", ABCD_ZERO)
        if a * d - b * c == 0:
            raise DegenerateCurve("a*d - b*c must be nonzero", AD_EQUALS_BC)
        return tuple.__new__(cls, (a, b, c, d))

    _make = classmethod(lambda cls, values: cls(*values))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    @property
    def cross(self) -> int:
        """b*c - a*d, the constant of the third conic."""
        return self.b * self.c - self.a * self.d

    @cached_property
    def roots(self) -> tuple[MultiQuad, MultiQuad, MultiQuad]:
        """(sqrt(a), sqrt(b), sqrt(a)*sqrt(b)) under the fixed embedding."""
        sa = MultiQuad.sqrt_int(self.a)
        sb = MultiQuad.sqrt_int(self.b)
        return sa, sb, sa * sb


def validate_curve(a: int, b: int, c: int, d: int) -> CurveParams:
    return CurveParams(a, b, c, d)


class SPrimeSet(namedtuple("SPrimeSet", "primes")):
    """Finite set of rational primes; s counts the archimedean place too."""

    __slots__ = ()

    def __new__(cls, primes: frozenset[int]):
        for p in primes:
            if not _is_probable_prime(p):
                raise DomainError(f"{p} is not prime")
        return tuple.__new__(cls, (primes,))

    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def of(cls, *primes: int) -> "SPrimeSet":
        return cls(frozenset(primes))

    @classmethod
    def empty(cls) -> "SPrimeSet":
        return cls(frozenset())

    @property
    def s(self) -> int:
        return len(self.primes) + 1

    def missing_primes_for(self, curve: CurveParams) -> frozenset[int]:
        """Primes of c*d*(bc-ad) not in the set; empty iff admissible."""
        needed = factorize(curve.c * curve.d * curve.cross)
        return frozenset(needed) - self.primes

    def is_admissible_for(self, curve: CurveParams) -> bool:
        return not self.missing_primes_for(curve)


class QuadPoint(namedtuple("QuadPoint", "eps den nums")):
    """A point (x, y, z) with coordinates u + v*sqrt(eps), u, v rational,
    stored as six integer numerators over one denominator:
    x = (nums[0] + nums[1]*sqrt(eps))/den, y and z likewise.

    eps is squarefree; eps = 1 encodes rational points (all radical
    numerators 0).  den is the least common denominator, so the fields are
    a normal form.  make() is the one validating constructor;
    _of_squarefree() is make() without the factoring, for an eps already
    known to be squarefree, and _of_lift() takes integer numerators over
    any positive denominator; the raw constructor makes only structural
    checks and trusts eps to be squarefree, as later steps do.
    """

    __slots__ = ()

    def __new__(cls, eps: int, den: int, nums: tuple[int, int, int, int, int, int]):
        if eps == 0:
            raise DomainError("eps must be nonzero")
        if den < 1 or gcd(den, *nums) != 1:
            raise DomainError("den must be the least positive common denominator")
        radical = any(nums[1::2])
        if eps == 1 and radical:
            raise DomainError("eps = 1 points must have zero radical parts")
        if eps != 1 and not radical:
            raise DomainError("all radical parts zero; use QuadPoint.make")
        return tuple.__new__(cls, (eps, den, nums))

    _make = classmethod(lambda cls, values: cls(*values))

    @classmethod
    def make(cls, eps: int, x, y, z) -> "QuadPoint":
        """Canonicalize: fold square parts of eps into v, collapse to eps = 1
        when every radical part vanishes."""
        if eps == 0:
            raise DomainError("eps must be nonzero")
        s, sf = squarefree_decompose(eps)
        return cls._of_squarefree(sf, *((u, v * s) for u, v in (x, y, z)))

    @classmethod
    def _of_squarefree(cls, eps: int, x, y, z) -> "QuadPoint":
        """make() for an eps already known to be squarefree, as a search
        that scans squarefree radicands has; the int or Fraction
        coordinates are lifted over the lcm of their denominators."""
        flat = [q for pair in (x, y, z) for q in pair]
        den = lcm(*(q.denominator for q in flat))
        return cls._of_lift(eps, den, [q.numerator * (den // q.denominator) for q in flat])

    @classmethod
    def _of_lift(cls, eps: int, den: int, nums) -> "QuadPoint":
        """The point x = (nums[0] + nums[1]*sqrt(eps))/den, y and z likewise,
        for squarefree eps and den > 0: fold the radical parts into the
        rational ones when eps = 1, collapse to eps = 1 when every radical
        part vanishes, and divide out the common factor."""
        if eps == 1:
            nums = [n for i in (0, 2, 4) for n in (nums[i] + nums[i + 1], 0)]
        elif not any(nums[1::2]):
            eps = 1
        g = gcd(den, *nums)
        return cls(eps, den // g, tuple(n // g for n in nums))

    @classmethod
    def rational(cls, x, y, z) -> "QuadPoint":
        return cls.make(1, (x, 0), (y, 0), (z, 0))

    def conjugate(self) -> "QuadPoint":
        X0, X1, Y0, Y1, Z0, Z1 = self.nums
        return QuadPoint(self.eps, self.den, (X0, -X1, Y0, -Y1, Z0, -Z1))

    def coord_mqs(self) -> tuple[MultiQuad, MultiQuad, MultiQuad]:
        # eps is squarefree, and the radical numerator is 0 when eps = 1.
        n = self.nums
        return tuple(
            MultiQuad._of({rad: co for rad, co in ((1, u), (self.eps, v)) if co}, self.den)
            for u, v in zip(n[0::2], n[1::2])
        )

    def flat(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.den) for n in self.nums)

    # The coordinates as (u, v) Fraction pairs.
    x = property(lambda self: self.flat()[0:2])
    y = property(lambda self: self.flat()[2:4])
    z = property(lambda self: self.flat()[4:6])


def on_curve(curve: CurveParams, point: QuadPoint) -> bool:
    """Exact check of both defining equations in Q(sqrt(eps)), in integers
    over the common denominator: y^2 = a*x^2 + c times L^2 is one equation
    for the rational part and one for the sqrt(eps) part."""
    e, L = point.eps, point.den
    X0, X1, Y0, Y1, Z0, Z1 = point.nums
    xx, xv = X0 * X0 + e * X1 * X1, X0 * X1
    LL = L * L
    return (
        Y0 * Y0 + e * Y1 * Y1 == curve.a * xx + curve.c * LL
        and Y0 * Y1 == curve.a * xv
        and Z0 * Z0 + e * Z1 * Z1 == curve.b * xx + curve.d * LL
        and Z0 * Z1 == curve.b * xv
    )


def eval_fgh(curve: CurveParams, point: QuadPoint):
    """f = y + sqrt(a)x, g = z + sqrt(b)x, h = sqrt(b)y - sqrt(a)z.

    All three are nonzero at affine points: f*(y - sqrt(a)x) = c,
    g*(z - sqrt(b)x) = d, h*(sqrt(b)y + sqrt(a)z) = bc - ad, and the curve
    is nondegenerate.
    """
    if not on_curve(curve, point):
        raise OffCurve(f"{point} is not on {curve}")
    return _fgh(curve, point)


def _fgh(curve: CurveParams, point: QuadPoint):
    """eval_fgh without the on-curve check, for callers that made it."""
    x, y, z = point.coord_mqs()
    sa, sb, _ = curve.roots
    f = y + sa * x
    g = z + sb * x
    h = sb * y - sa * z
    if f.is_zero() or g.is_zero() or h.is_zero():
        raise PanicInvariant("f, g, h cannot vanish at an affine point")
    return f, g, h


class SymPoint(NamedTuple):
    """Symmetric data of the conjugate pair {P, P'}.

    ff, gg, hh are the products f(P)f(P'), g(P)g(P'), h(P)h(P'); alpha,
    beta, gamma the unit-equation coordinates built from them.
    """

    point: QuadPoint
    ff: MultiQuad
    gg: MultiQuad
    hh: MultiQuad
    alpha: MultiQuad
    beta: MultiQuad
    gamma: MultiQuad


def sym_invariants(curve: CurveParams, point: QuadPoint) -> SymPoint:
    """Evaluate ff, gg, hh by their symmetric bilinear expansions, and the
    unit-sum coordinates in closed form, with no field inverse.

    Flipping the root in each expansion gives ff~, gg~, hh~: the products of
    y - sqrt(a)x, z - sqrt(b)x and sqrt(b)y + sqrt(a)z at P and P'.  Under the
    fixed embedding, for every sign and square class of a and b,
        ff*ff~ = c^2,  gg*gg~ = d^2,  hh*hh~ = (bc-ad)^2,
    so alpha = cd/(ff*gg) = ff~*gg~/(cd), beta = c(bc-ad)/(ff*hh) =
    ff~*hh~/(c(bc-ad)) and gamma = d(ad-bc)/(gg*hh) = gg~*hh~/(d(ad-bc)).

    All of it runs in integers over the point's denominator L: the norms
    X0^2 - eps*X1^2 and the crosses 2(X0*Y0 - eps*X1*Y1) are the norms and
    crosses of the coordinates times L^2, so ff, gg, hh and their flips
    times L^2 are MultiQuads with integer coefficients, one root times a
    cross plus a rational, and alpha, beta, gamma are their products over
    L^4*cd, L^4*c(bc-ad) and L^4*d(ad-bc).  The MultiQuad sum
    alpha + beta + gamma must be 1.
    """
    if not on_curve(curve, point):
        raise OffCurve(f"{point} is not on {curve}")
    e = point.eps
    a, b, c, d, cross = curve.a, curve.b, curve.c, curve.d, curve.cross
    L, (X0, X1, Y0, Y1, Z0, Z1) = point.den, point.nums
    xx, yy, zz = X0 * X0 - e * X1 * X1, Y0 * Y0 - e * Y1 * Y1, Z0 * Z0 - e * Z1 * Z1
    xy = 2 * (X0 * Y0 - e * X1 * Y1)
    xz = 2 * (X0 * Z0 - e * X1 * Z1)
    yz = 2 * (Y0 * Z0 - e * Y1 * Z1)

    def with_flip(rational: int, radical: MultiQuad):
        return radical + rational, -radical + rational

    sa, sb, sab = curve.roots
    ff, ff_flip = with_flip(yy + a * xx, sa * xy)
    gg, gg_flip = with_flip(zz + b * xx, sb * xz)
    hh, hh_flip = with_flip(b * yy + a * zz, sab * -yz)
    L4 = L**4
    alpha = ff_flip * gg_flip / (L4 * c * d)
    beta = ff_flip * hh_flip / (L4 * c * cross)
    gamma = gg_flip * hh_flip / (-L4 * d * cross)
    if alpha + beta + gamma != 1:
        raise PanicInvariant(f"alpha+beta+gamma != 1 at {point}")
    LL = L * L
    return SymPoint(point, ff / LL, gg / LL, hh / LL, alpha, beta, gamma)


class IdentityReport(NamedTuple):
    """Pass/fail record of the six exact identities at one point."""

    linear_fgh: bool        # sqrt(b)f - sqrt(a)g = h
    inverse_fgh: bool       # c*sqrt(b)/f - d*sqrt(a)/g = h
    product_linear: bool    # hh' = b ff' + a gg' - sqrt(ab)(f'g + fg')
    product_inverse: bool   # hh' = c^2 b/ff' + d^2 a/gg' - cd sqrt(ab)(1/f'g + 1/fg')
    unit_sum: bool          # alpha + beta + gamma = 1
    ff_square_ratio: bool   # (ff')^2 = -c^2 gamma / (alpha beta)

    def all_pass(self) -> bool:
        return all(self.as_dict().values())

    def as_dict(self) -> dict[str, bool]:
        return self._asdict()


def verify_identities(curve: CurveParams, point: QuadPoint) -> IdentityReport:
    """Evaluate every identity exactly at the conjugate pair of `point`.

    sym_invariants makes the one on-curve check; the conjugate of an
    on-curve point is on the curve too.
    """
    sym = sym_invariants(curve, point)
    a, b, c, d = curve.a, curve.b, curve.c, curve.d
    sa, sb, sab = curve.roots
    f, g, h = _fgh(curve, point)
    f2, g2, _ = _fgh(curve, point.conjugate())

    linear = sb * f - sa * g == h
    inverse = c * sb * f.inverse() - d * sa * g.inverse() == h
    prod_lin = sym.hh == b * sym.ff + a * sym.gg - sab * (f2 * g + f * g2)
    prod_inv = sym.hh == (
        (c * c * b) * sym.ff.inverse()
        + (d * d * a) * sym.gg.inverse()
        - (c * d) * sab * ((f2 * g).inverse() + (f * g2).inverse())
    )
    unit_sum = sym.alpha + sym.beta + sym.gamma == MultiQuad.one()
    ff_sq = sym.ff * sym.ff == (
        (-c * c) * sym.gamma * (sym.alpha * sym.beta).inverse()
    )
    return IdentityReport(linear, inverse, prod_lin, prod_inv, unit_sum, ff_sq)


class InfinityPoints(namedtuple("InfinityPoints", "points")):
    """The four projective points at infinity (1 : +-sqrt(a) : +-sqrt(b) : 0),
    as (X, Y, Z) MultiQuad triples in the fixed sign order ++, +-, -+, --."""

    __slots__ = ()

    def __new__(cls, points: tuple[tuple[MultiQuad, MultiQuad, MultiQuad], ...]):
        if len(points) != 4 or len(set(points)) != 4:
            raise PanicInvariant("expected four distinct points at infinity")
        return tuple.__new__(cls, (points,))

    _make = classmethod(lambda cls, values: cls(*values))


def points_at_infinity(curve: CurveParams) -> InfinityPoints:
    one = MultiQuad.one()
    sa, sb, _ = curve.roots
    return InfinityPoints(
        (
            (one, sa, sb),
            (one, sa, -sb),
            (one, -sa, sb),
            (one, -sa, -sb),
        )
    )


def compute_bounds(s: int, H: int) -> tuple[int, int]:
    """Exact values of the two finiteness bounds 2^(2835 s + 3) and
    3 * 2^(1121 (s + H - 1) + 1), refused before they are built when one
    would have more digits than sys.get_int_max_str_digits() prints."""
    if s < 1:
        raise DomainError("s must be at least 1")
    if H < 1:
        raise DomainError("H must be at least 1")
    # The limit came with Python 3.11 (and 3.10.7); before it there is none.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        # 2^k < 10^limit iff k < bit_length(10^limit), as 10^limit is no
        # power of two; 3 * 2^m < 10^limit iff 2^m <= (10^limit - 1) // 3.
        ceiling = 10**limit
        s_max = (ceiling.bit_length() - 4) // 2835
        h_max = (((ceiling - 1) // 3).bit_length() - 2) // 1121 + 1 - s
        for name, value, most in (("s", s, s_max), ("H", H, h_max)):
            if value > most:
                raise DomainError(
                    f"{name} must be at most {most}: with s = {s}, H = {H} a bound "
                    f"would exceed {limit} digits"
                )
    n1 = 2 ** (2835 * s + 3)
    n2 = 3 * 2 ** (1121 * (s + H - 1) + 1)
    return n1, n2


def canonical_representative(point: QuadPoint) -> QuadPoint:
    """Deterministic representative of the orbit of `point` under coordinate
    sign flips and conjugation: the variant with lexicographically maximal
    (u, v) sequence, in closed form.

    Every rational part is made nonnegative, and so is every radical part
    whose rational part is 0.  Conjugation is set by the first coordinate
    with both parts nonzero, so that its radical part is positive, and that
    fixes the other radical parts.  So a point with no such coordinate, as
    a family point, is canonical once its parts are nonnegative.  Sign
    flips keep den least and the radical parts nonzero: no make() needed.
    """
    pairs = list(zip(point.nums[0::2], point.nums[1::2]))
    tau = next((1 if (u > 0) == (v > 0) else -1 for u, v in pairs if u and v), 1)
    nums = []
    for u, v in pairs:
        nums += (abs(u), v * tau if u > 0 else -v * tau) if u else (0, abs(v))
    return QuadPoint(point.eps, point.den, tuple(nums))


def pair_key(point: QuadPoint):
    """Hashable key of the unordered conjugate pair {P, P'}."""
    return (point.eps, point.den) + tuple(sorted((point.nums, point.conjugate().nums)))


def _is_s_smooth(n: int, primes: Iterable[int]) -> bool:
    """True when the positive integer n is supported on `primes`: dividing
    them out leaves 1.  No factoring."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n == 1


def is_s_integral(point: QuadPoint, primes: Iterable[int]) -> bool:
    """True when every coordinate denominator is supported on the primes
    `primes`, as their lcm, the point's den, is; DomainError when one of
    them is not prime."""
    return _is_s_smooth(point.den, SPrimeSet(frozenset(primes)).primes)
