"""Prime utilities on exact integers: sieves, p-adic valuations, factoring.

Everything is deterministic.  Primality uses Miller-Rabin with a witness
set that is provably sufficient below 3.3e24 and a fixed extended witness
schedule above.  The valuation of 0 is ``math.inf``, which orders above
every finite valuation; callers that build polygons must treat such points
as absent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

INFINITY = math.inf

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_PROVEN_BOUND = 3_317_044_064_679_887_385_961_981


def composite_flags(bound: int) -> bytearray:
    """Eratosthenes' sieve over 0..bound, bound >= 1: a bytearray with 0 at
    the primes and 1 at every other n (0, 1 and the composites)."""
    # zero-filled, so a bound too large to allocate raises MemoryError
    # alone: CPython 3.11's bytearray repetition also prints a stray
    # "SystemError: deallocated bytearray" line when it fails
    composite = bytearray(bound + 1)
    composite[0] = composite[1] = 1
    composite[4::2] = b"\x01" * len(range(4, bound + 1, 2))
    # an odd p's even multiples are struck already: step 2p over the odd ones
    for p in range(3, math.isqrt(bound) + 1, 2):
        if not composite[p]:
            start = p * p
            composite[start::2 * p] = b"\x01" * len(range(start, bound + 1, 2 * p))
    return composite


def sieve_primes(bound: int) -> list[int]:
    """All primes <= bound, ascending.  Empty for bound < 2."""
    if bound < 2:
        return []
    return [n for n, flag in enumerate(composite_flags(bound)) if not flag]


@lru_cache(maxsize=1 << 16)
def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    witnesses = _MR_WITNESSES
    if n >= _MR_PROVEN_BOUND:
        # extended fixed schedule; composite error probability < 4**-20
        witnesses = _MR_WITNESSES + tuple(range(41, 200, 2))
    for a in witnesses:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def vp_int(p: int, n: int) -> int | float:
    """Largest e with p**e dividing n (sign ignored); inf for n == 0.
    One divmod by p per unit of e, so the cost grows linearly with e."""
    _require_prime(p)
    return _vp_int(p, n)


def _vp_int(p: int, n: int) -> int | float:
    """vp_int's body, for a caller that has checked once that p is prime."""
    if n == 0:
        return INFINITY
    e = 0
    q, r = divmod(n, p)
    while not r:
        e += 1
        q, r = divmod(q, p)
    return e


def vp_rat(p: int, q: Fraction | int) -> int | float:
    """Valuation of a rational, independent of representation; inf for 0."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q == 0:
        return INFINITY
    return vp_int(p, q.numerator) - vp_int(p, q.denominator)


def factorial_valuation(p: int, n: int) -> int:
    """v_p(n!) by Legendre's formula; strictly below n/(p-1) for n >= 1."""
    _require_prime(p)
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0
    pk = p
    while pk <= n:
        total += n // pk
        pk *= p
    return total


def _rho(n: int) -> int:
    """A nontrivial factor of composite odd n: Pollard's rho with Floyd's
    cycle detection on x -> x^2 + c, trying c = 1, 2, ... in turn."""
    for c in range(1, 100):
        x = y = 2
        g = 1
        while g == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            g = math.gcd(x - y, n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


_TRIAL_LIMIT = 10**6


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| >= 1 as {prime: exponent}."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    d = 5
    while d * d <= n and d <= _TRIAL_LIMIT:
        for p in (d, d + 2):
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
        d += 6
    if n > 1:
        stack = [n]
        while stack:
            m = stack.pop()
            if is_prime(m):
                out[m] = out.get(m, 0) + 1
                continue
            g = _rho(m)
            stack.extend((g, m // g))
    return out


def largest_prime_factor(n: int) -> int:
    """Maximal prime dividing n; requires |n| >= 2."""
    if abs(n) < 2:
        raise ValueError("|n| must be at least 2")
    return max(factorize(n))

