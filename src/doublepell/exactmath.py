"""Exact arithmetic over multiquadratic extensions of Q.

An element is a finite Q-linear combination of sqrt(d) over distinct
squarefree integers d, with d = 1 carrying the rational part.  It is stored
as integer numerators over one positive denominator that shares no factor
with all of them, as FLINT's nf_elem stores number field elements, so the
arithmetic runs in ints.  The complex embedding is fixed once and for all by
sqrt(d) = i*sqrt(|d|) for d < 0; that choice determines every sign rule
below.  Linear independence of the radicals over Q makes the reduced
representation unique, so equality is equality of numerators and
denominator, and no floating point enters any exact path.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress
from typing import Mapping, Union

from .errors import DivisionByZero, DomainError

Coefficient = Union[int, Fraction]

_TRIAL_LIMIT = 10_000
# Deterministic Miller-Rabin bases, valid for n < 3.3e24; inputs here stay
# far below that in practice.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _primes_upto(limit: int) -> tuple[int, ...]:
    """The primes p <= limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), sieve))


_TRIAL_PRIMES = _primes_upto(_TRIAL_LIMIT)


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of an odd composite n."""
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, as {prime: exponent}.

    Trial division by the primes up to a fixed limit, then Pollard rho on
    what remains.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write n = s^2 * d with d squarefree and sign(d) = sign(n).

    Returns (s, d) with s > 0.
    """
    if n == 0:
        raise DomainError("0 has no squarefree decomposition")
    s = 1
    d = 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d if n > 0 else -d


def isqrt_exact(n: int):
    """Integer square root of n if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None


class MultiQuad:
    """An element of a multiquadratic field, stored as integer numerators
    {radicand: numerator} over one positive denominator.

    Immutable; all arithmetic returns new values.  Radicands are nonzero
    squarefree integers (1 for the rational part), numerators are nonzero
    ints, and the denominator shares no factor with all of them.  This is a
    normal form: equal values have equal numerators and denominators.
    items(), rational_value() and str() give Fraction coefficients.
    """

    __slots__ = ("_num", "_den", "_hash")

    def __init__(self, terms: Mapping[int, Coefficient] | None = None):
        total = MultiQuad._of({})
        for rad, co in (terms or {}).items():
            if co == 0:
                continue
            if rad == 0:
                raise DomainError("radicand must be nonzero")
            s, d = squarefree_decompose(rad)
            total = total + MultiQuad._of({d: co.numerator * s}, co.denominator)
        self._num, self._den, self._hash = total._num, total._den, None

    # --- constructors ---

    @classmethod
    def _of(cls, num: dict[int, int], den: int = 1) -> "MultiQuad":
        """Wrap unchecked numerators over den > 0: squarefree radicands,
        nonzero ints; the common factor is divided out."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {rad: co // g for rad, co in num.items()}
                den //= g
        out = cls.__new__(cls)
        out._num, out._den, out._hash = num, den, None
        return out

    @classmethod
    def from_rational(cls, q: Coefficient) -> "MultiQuad":
        return cls._of({1: q.numerator} if q else {}, q.denominator)

    @classmethod
    def zero(cls) -> "MultiQuad":
        return cls._of({})

    @classmethod
    def one(cls) -> "MultiQuad":
        return cls._of({1: 1})

    @classmethod
    def sqrt_int(cls, n: int) -> "MultiQuad":
        """The square root of the integer n under the fixed embedding."""
        if n == 0:
            return cls._of({})
        s, d = squarefree_decompose(n)
        return cls._of({d: s})

    # --- inspection ---

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted((rad, Fraction(co, self._den)) for rad, co in self._num.items()))

    def is_zero(self) -> bool:
        return not self._num

    def is_rational(self) -> bool:
        return self._num.keys() <= {1}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is not rational")
        return Fraction(self._num.get(1, 0), self._den)

    def to_complex(self) -> complex:
        """Numeric value under the fixed embedding (sanity checks only)."""
        total = 0j
        for rad, co in self._num.items():
            root = math.sqrt(rad) if rad > 0 else 1j * math.sqrt(-rad)
            total += co / self._den * root
        return total

    # --- arithmetic ---

    @staticmethod
    def _coerce(other):
        if isinstance(other, MultiQuad):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiQuad.from_rational(other)
        return None

    def __add__(self, other):
        if isinstance(other, int):
            num = dict(self._num)
            cur = num.get(1, 0) + other * self._den
            if cur:
                num[1] = cur
            else:
                num.pop(1, None)
            return MultiQuad._of(num, self._den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d1, d2 = self._den, other._den
        g = math.gcd(d1, d2)
        s1, s2 = d2 // g, d1 // g
        acc = {rad: co * s1 for rad, co in self._num.items()}
        for rad, co in other._num.items():
            cur = acc.get(rad, 0) + co * s2
            if cur:
                acc[rad] = cur
            else:
                acc.pop(rad, None)
        return MultiQuad._of(acc, d1 * s1)

    __radd__ = __add__

    def __neg__(self):
        return MultiQuad._of({rad: -co for rad, co in self._num.items()}, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            if not other:
                return MultiQuad._of({})
            return MultiQuad._of({rad: co * other for rad, co in self._num.items()}, self._den)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        # For squarefree m, n, sqrt(m)*sqrt(n) = s*g*sqrt(m*n/g^2) with
        # g = gcd(|m|, |n|) and s = -1 exactly when both are negative
        # (i*i = -1 under the embedding).
        acc: dict[int, int] = {}
        for r1, c1 in self._num.items():
            for r2, c2 in other._num.items():
                g = math.gcd(r1, r2)
                rad = (r1 // g) * (r2 // g)
                cur = acc.get(rad, 0) + c1 * c2 * (-g if r1 < 0 and r2 < 0 else g)
                if cur:
                    acc[rad] = cur
                else:
                    acc.pop(rad, None)
        return MultiQuad._of(acc, self._den * other._den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero int."""
        if not isinstance(other, int):
            return NotImplemented
        if other == 0:
            raise DivisionByZero("division by 0")
        num = self._num
        if other < 0:
            num = {rad: -co for rad, co in num.items()}
        return MultiQuad._of(num, self._den * abs(other))

    def inverse(self) -> "MultiQuad":
        """Exact multiplicative inverse by iterated conjugation.

        The flip under the split key k is the automorphism sqrt(p) -> -sqrt(p)
        for every prime p of k (complex conjugation for k = -1), by the parity
        argument in _split_key.  A value times its flip is fixed by it, so no
        prime of k divides a radicand of the product: the primes of the
        support shrink at each step until a rational n/q is left, and the
        inverse is the numerator times q/n.  No step factors a radicand.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of 0")
        num = MultiQuad.one()
        den = self
        while not den.is_rational():
            conj = den._flip(den._split_key())
            num = num * conj
            den = den * conj
        return num * den._den / den._num[1]

    def _split_key(self) -> int:
        """-1 when every support radicand is +-1, else a k > 1 that divides
        some radicand r and, for each one, divides r or is coprime to it.

        Start from any |r| > 1 and replace k by gcd(k, r) whenever that is
        > 1; each k divides the last, so radicands already passed stay
        divided or coprime.  Radicands are squarefree, so a prime p of k
        divides r exactly when k does, and p has odd parity in a product of
        radicands exactly when k divides an odd number of its factors.
        Negating the terms k divides is therefore sqrt(p) -> -sqrt(p), an
        automorphism, just as for a prime key.
        """
        rads = [abs(rad) for rad in self._num if abs(rad) > 1]
        if not rads:
            return -1
        key = rads[0]
        for rad in rads:
            g = math.gcd(key, rad)
            if g > 1:
                key = g
        return key

    def conjugate_under(self, p: int) -> "MultiQuad":
        """Negate every term whose radicand p divides; an involution.

        p = -1 means complex conjugation: terms with negative radicand flip.
        """
        if p != -1 and not _is_probable_prime(p):
            raise DomainError("conjugation key must be a prime or -1")
        return self._flip(p)

    def _flip(self, key: int) -> "MultiQuad":
        """Negate the terms whose radicand is negative (key = -1) or that key
        divides."""
        return MultiQuad._of({
            rad: -co if (rad < 0 if key == -1 else rad % key == 0) else co
            for rad, co in self._num.items()
        }, self._den)

    # --- comparison ---

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._num == other._num

    def __hash__(self):
        if self._hash is None:
            # Rational values hash like their Fraction so that mixed-type
            # equality stays consistent with hashing.
            if self.is_rational():
                self._hash = hash(self.rational_value())
            else:
                self._hash = hash(self.items())
        return self._hash

    def __bool__(self):
        return bool(self._num)

    def __repr__(self):
        return f"MultiQuad({self!s})"

    def __str__(self):
        if not self._num:
            return "0"
        parts = []
        for rad, co in sorted(self.items(), key=lambda t: (t[0] != 1, t[0])):
            if rad == 1:
                parts.append(str(co))
                continue
            if co == 1:
                lead = ""
            elif co == -1:
                lead = "-"
            else:
                lead = f"{co}*"
            parts.append(f"{lead}sqrt({rad})")
        text = parts[0]
        for part in parts[1:]:
            text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return text
