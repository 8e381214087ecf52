"""Exact arithmetic over multiquadratic extensions of Q.

An element is a finite Q-linear combination of sqrt(d) over distinct
squarefree integers d, with d = 1 carrying the rational part.  The complex
embedding is fixed once and for all by sqrt(d) = i*sqrt(|d|) for d < 0;
that choice determines every sign rule below.  Linear independence of the
radicals over Q makes the representation unique, so equality is term-map
equality and no floating point enters any exact path.
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


def _mul_radicands(m: int, n: int) -> tuple[int, int]:
    """Reduce sqrt(m)*sqrt(n) to mult*sqrt(rad) for squarefree m, n.

    sqrt(m)*sqrt(n) = s*g*sqrt(m*n/g^2) with g = gcd(|m|,|n|) and s = -1
    exactly when both m and n are negative (i*i = -1 under the embedding).
    """
    g = math.gcd(abs(m), abs(n))
    rad = (m // g) * (n // g)
    mult = -g if (m < 0 and n < 0) else g
    return mult, rad


class MultiQuad:
    """An element of a multiquadratic field, stored as {radicand: coefficient}.

    Immutable; all arithmetic returns new values.  Radicands are nonzero
    squarefree integers (1 for the rational part), coefficients are nonzero
    Fractions.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[int, Coefficient] | None = None):
        acc: dict[int, Fraction] = {}
        if terms:
            for rad, co in terms.items():
                co = Fraction(co)
                if co == 0:
                    continue
                if rad == 0:
                    raise DomainError("radicand must be nonzero")
                s, d = squarefree_decompose(rad)
                cur = acc.get(d, Fraction(0)) + co * s
                if cur == 0:
                    acc.pop(d, None)
                else:
                    acc[d] = cur
        self._terms = acc
        self._hash = None

    # --- constructors ---

    @classmethod
    def _of(cls, terms: dict[int, Fraction]) -> "MultiQuad":
        """Wrap unchecked terms: squarefree radicands, nonzero Fractions."""
        out = cls.__new__(cls)
        out._terms = terms
        out._hash = None
        return out

    @classmethod
    def from_rational(cls, q: Coefficient) -> "MultiQuad":
        q = Fraction(q)
        return cls._of({1: q} if q else {})

    @classmethod
    def zero(cls) -> "MultiQuad":
        return cls()

    @classmethod
    def one(cls) -> "MultiQuad":
        return cls._of({1: Fraction(1)})

    @classmethod
    def sqrt_int(cls, n: int) -> "MultiQuad":
        """The square root of the integer n under the fixed embedding."""
        if n == 0:
            return cls()
        s, d = squarefree_decompose(n)
        return cls._of({d: Fraction(s)})

    # --- inspection ---

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return set(self._terms) <= {1}

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is not rational")
        return self._terms.get(1, Fraction(0))

    def to_complex(self) -> complex:
        """Numeric value under the fixed embedding (sanity checks only)."""
        total = 0j
        for rad, co in self._terms.items():
            root = math.sqrt(rad) if rad > 0 else 1j * math.sqrt(-rad)
            total += float(co) * root
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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc = dict(self._terms)
        for rad, co in other._terms.items():
            cur = acc.get(rad, Fraction(0)) + co
            if cur == 0:
                acc.pop(rad, None)
            else:
                acc[rad] = cur
        return MultiQuad._of(acc)

    __radd__ = __add__

    def __neg__(self):
        return MultiQuad._of({rad: -co for rad, co in self._terms.items()})

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
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for r1, c1 in self._terms.items():
            for r2, c2 in other._terms.items():
                mult, rad = _mul_radicands(r1, r2)
                cur = acc.get(rad, Fraction(0)) + c1 * c2 * mult
                if cur == 0:
                    acc.pop(rad, None)
                else:
                    acc[rad] = cur
        return MultiQuad._of(acc)

    __rmul__ = __mul__

    def inverse(self) -> "MultiQuad":
        """Exact multiplicative inverse by iterated conjugation.

        The flip under the split key k is the automorphism sqrt(p) -> -sqrt(p)
        for every prime p of k (complex conjugation for k = -1), by the parity
        argument in _split_key.  A value times its flip is fixed by it, so no
        prime of k divides a radicand of the product: the primes of the
        support shrink at each step until a rational is left, whose inverse is
        plain Fraction arithmetic.  No step factors a radicand.
        """
        if self.is_zero():
            raise DivisionByZero("inverse of 0")
        num = MultiQuad.one()
        den = self
        while not den.is_rational():
            conj = den._flip(den._split_key())
            num = num * conj
            den = den * conj
        return num * MultiQuad.from_rational(1 / den.rational_value())

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
        rads = [abs(rad) for rad in self._terms if abs(rad) > 1]
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
            for rad, co in self._terms.items()
        })

    # --- comparison ---

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

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
        return bool(self._terms)

    def __repr__(self):
        return f"MultiQuad({self!s})"

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for rad, co in sorted(self._terms.items(), key=lambda t: (t[0] != 1, t[0])):
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
