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
# Trial primes go in blocks of this many, one gcd per block.
_TRIAL_BLOCK = 32
# Brent's rho takes one gcd per this many steps.
_RHO_BATCH = 64


def _primes_upto(limit: int) -> tuple[int, ...]:
    """The primes p <= limit, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return tuple(compress(range(limit + 1), sieve))


_TRIAL_PRIMES = _primes_upto(_TRIAL_LIMIT)
# (square of the first prime, primes, their product) per block.
_TRIAL_BLOCKS = tuple(
    (block[0] ** 2, block, math.prod(block))
    for block in (
        _TRIAL_PRIMES[i : i + _TRIAL_BLOCK]
        for i in range(0, len(_TRIAL_PRIMES), _TRIAL_BLOCK)
    )
)
# The primes below 100, which _is_probable_prime divides by first.
_SMALL_PRIMES = _TRIAL_PRIMES[:25]


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _is_probable_prime(n: int) -> bool:
    """Baillie-PSW: a strong base-2 Fermat test, then a strong Lucas test
    with Selfridge's parameters (R. Baillie and S. S. Wagstaff, "Lucas
    pseudoprimes", Math. Comp. 35, 1980).

    Proven correct for n < 2^64; no composite above that is known to pass.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    # Strong base-2 test: n - 1 = d * 2^s with d odd.
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    x = pow(2, d, n)
    if x != 1 and x != n - 1:
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    # Selfridge: the first D of 5, -7, 9, -11, ... with (D/n) = -1.  A
    # square n has none; (D/n) = 0 with D not a multiple of n shows a
    # proper factor.
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and D % n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    # Strong Lucas test with P = 1: n + 1 = d * 2^s with d odd; n passes
    # when U_d = 0 or V_(d*2^r) = 0 for some 0 <= r < s.  U, V and Q^k are
    # carried mod n from k = 1 along the bits of d; halving mod odd n adds
    # n to an odd value first.
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    d = (n + 1) >> s
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U % 2 else U) // 2 % n
            V = (V + n if V % 2 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of an odd composite n, by Brent's variant of
    Pollard's rho (R. P. Brent, "An improved Monte Carlo factorization
    algorithm", BIT 20, 1980): the walk y -> y^2 + c runs in doubling
    stretches, and one gcd covers the product of _RHO_BATCH differences.
    A batch whose gcd is n is walked again one step at a time; a walk that
    still finds n alone restarts with the next c."""
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n|, as {prime: exponent}.

    Trial division by the primes up to _TRIAL_LIMIT, a block of them at a
    time: one gcd with the block's product, and division only by the primes
    of a block that shares a factor.  It stops at the first block whose
    least prime squared exceeds what remains, which is then 1 or a prime,
    as is any remainder below _TRIAL_LIMIT^2.  A larger remainder is split
    by Brent's rho until each part passes the Baillie-PSW test, which is
    proven below 2^64 and has no known counterexample above it.
    """
    if n == 0:
        raise DomainError("cannot factor 0")
    n = abs(n)
    out: dict[int, int] = {}
    for first_square, block, product in _TRIAL_BLOCKS:
        if first_square > n:
            break
        g = math.gcd(n, product)
        if g == 1:
            continue
        for p in block:
            if g % p == 0:
                n //= p
                e = 1
                while n % p == 0:
                    n //= p
                    e += 1
                out[p] = e
                g //= p
                if g == 1:
                    break
    if n < _TRIAL_LIMIT * _TRIAL_LIMIT:
        if n > 1:
            out[n] = 1
        return out
    stack = [n]
    while stack:
        m = stack.pop()
        if _is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_rho(m)
            stack += (d, m // d)
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
