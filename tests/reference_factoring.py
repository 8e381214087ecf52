"""The factoring layer before block gcds, Brent's rho and Baillie-PSW, kept
as the reference that tests compare `doublepell.exactmath.factorize` with:
trial division by each prime up to 10^4, Floyd's rho on what remains, and a
Miller-Rabin test on the first 13 prime bases.  Those bases decide
primality below psi_13 = 3317044064679887385961981, the least strong
pseudoprime to all of them; above it the test is probabilistic, with
bases independent of Baillie-PSW's.
"""

import math


def primes_below(limit):
    """The primes p < limit, by a sieve independent of the package's."""
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit, p)))
    return [p for p in range(limit) if sieve[p]]


TRIAL_PRIMES = primes_below(10_001)
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def miller_rabin(n):
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in MR_BASES:
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


def floyd_rho(n):
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


def reference_factorize(n):
    """Prime factorization of |n| != 0, as {prime: exponent}."""
    n = abs(n)
    out = {}
    for p in TRIAL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if miller_rabin(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = floyd_rho(m)
            stack.append(d)
            stack.append(m // d)
    return out


def trial_division_factorize(n, primes):
    """Factorization of |n| by division by each of `primes` in turn, which
    must hold every prime up to sqrt(|n|)."""
    n = abs(n)
    out = {}
    for p in primes:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
