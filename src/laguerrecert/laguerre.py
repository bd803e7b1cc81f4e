"""Laguerre-type instances over a monic base polynomial.

An instance packages m, a rational parameter u/v (never a negative
integer), an integer leading multiplier, lower multiplier polynomials of
degree below the base, and the base polynomial itself.  The canonical
integer object is v**m times the assembled polynomial, so that every
prime not dividing v sees the same valuations on the expansion parts as
on the coefficients themselves.  Only its integer coefficients v**m b_j
are stored, built on first read once per (m, parameter); the Fractions
b_j are views of them, valued by one routine, coefficient_valuations.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, repeat
from math import comb
from operator import add, sub

from .polyring import Poly, content, format_poly, is_irreducible_mod_p
from .primes import is_prime, sieve_primes, vp_int
from .primes import vp_rat  # noqa: F401  (module attribute wrapped by bench/tracer.py)


class HypothesisViolation(ValueError):
    """A constructed instance breaks one or more of the standing hypotheses."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


def parameter(value) -> Fraction:
    """The rational parameter alpha = u/v in lowest terms, v > 0.

    Accepts an int, a Fraction or a pair of ints (u, v); v = 0 raises
    ValueError, any other value TypeError, and a negative integer
    HypothesisViolation.
    """
    if isinstance(value, tuple) and len(value) == 2 and all(isinstance(n, int) for n in value):
        if value[1] == 0:
            raise ValueError("v must be nonzero")
        value = Fraction(*value)
    elif isinstance(value, int):
        value = Fraction(value)
    elif not isinstance(value, Fraction):
        raise TypeError(f"cannot interpret {value!r} as a rational parameter")
    if value.denominator == 1 and value.numerator < 0:
        raise HypothesisViolation(["alpha is a negative integer"])
    return value


def laguerre_coefficients(m: int, alpha) -> tuple[Fraction, ...]:
    """Coefficients b_0..b_{m-1}, b_j = C(m,j) (m+a)(m-1+a)...(j+1+a).

    A view of the cleared integers: b_j = c_j / v**m, built on each call.
    """
    alpha = parameter(alpha)
    vm = alpha.denominator ** m
    return tuple(Fraction(c, vm) for c in _cleared_coefficients(m, alpha))


@lru_cache(maxsize=4096)
def _cleared_coefficients(m: int, alpha) -> tuple[int, ...]:
    """c_j = v**m b_j = C(m,j) v**j (vm+u)(v(m-1)+u)...(v(j+1)+u) for j < m.

    Checked by ratio_identity_parts, a different formula that determines them.
    """
    if m < 1:
        raise ValueError("m must be positive")
    alpha = parameter(alpha)
    u, v = alpha.numerator, alpha.denominator
    c = [0] * m
    iprod = 1  # (v(j+1)+u) ... (vm+u)
    vj = v ** m  # v**j
    for j in range(m - 1, -1, -1):
        iprod *= v * (j + 1) + u
        vj //= v
        c[j] = comb(m, j) * vj * iprod
    ratio_identity_parts(c, m, u, v)
    return tuple(c)


def ratio_identity_parts(cleared, m: int, u: int, v: int) -> tuple[int, ...]:
    """c_0..c_m: the cleared integers c_0..c_{m-1}, then c_m = v**m.

    Raises ArithmeticError unless c_j (m-j) v = c_{j+1} (j+1) (v(j+1)+u)
    with v(j+1)+u != 0 at every j < m, which proves c_j = v**m b_j != 0.
    """
    parts = tuple(cleared) + (v ** m,)
    if len(parts) != m + 1:
        raise ArithmeticError(f"expected {m} cleared coefficients")
    for j in range(m):
        step = v * (j + 1) + u
        if step == 0 or parts[j] * (m - j) * v != parts[j + 1] * (j + 1) * step:
            raise ArithmeticError(f"coefficient ratio identity fails at j={j}")
    return parts


def coefficient_valuations(m: int, alpha, p: int) -> tuple[int, ...]:
    """Exact valuations (v_p(b_0), ..., v_p(b_{m-1})) at a prime p not dividing v.

    Additive, on small integers only: v_p(b_j) = F(m) - F(j) - F(m-j) +
    S(j), with F(n) = v_p(n!) and S(j) = sum_{i=j+1..m} v_p(v*i+u).  Both
    are built from their events alone.  v_p(i) >= e exactly at the
    multiples of p**e, so writing e over those positions for e = 1, 2, ...
    leaves v_p(i) at every i <= m, and F is its running sum (Legendre's
    formula, one count per power of p).  v_p(v*i+u) >= e exactly on the
    residue class i = -u/v (mod p**e), so the same writes over that class
    leave every v_p(v*i+u), and S is their suffix sum.  Python work is one
    slice write per power of p; the dense sums and the per-j combination
    run in itertools.accumulate and map.  Rejected when p divides v, where
    the cleared integer model no longer has the coefficient valuations.
    """
    alpha = parameter(alpha)
    u, v = alpha.numerator, alpha.denominator
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if v % p == 0:
        raise ValueError("p must not divide v")
    steps = [0] * (m + 1)  # steps[i] = v_p(i) for 1 <= i <= m
    pe, e = p, 1
    while pe <= m:
        steps[pe::pe] = [e] * (m // pe)
        pe, e = pe * p, e + 1
    fact = list(accumulate(steps))  # fact[n] = v_p(n!)
    factors = [0] * (m + 1)  # factors[i] = v_p(v*i+u) for 1 <= i <= m
    largest = max(abs(v + u), abs(v * m + u))  # bounds |v*i+u| for 1 <= i <= m
    pe, e = p, 1
    while pe <= largest:
        start = -u * pow(v, -1, pe) % pe or pe  # least i >= 1 with p**e | v*i+u
        factors[start::pe] = [e] * len(range(start, m + 1, pe))
        pe, e = pe * p, e + 1
    # suffix[m-j] = S(j), for j = m, m-1, ..., 0
    suffix = list(accumulate(reversed(factors[1:]), initial=0))
    return tuple(map(sub, map(sub, map(add, repeat(fact[m]), suffix[m:0:-1]), fact[:m]),
                     fact[m:0:-1]))


class LaguerreInstance:
    """Immutable bundle of instance data with lazily assembled polynomials.

    Structural errors (wrong shapes, a non-monic base, a parameter that is
    a negative integer) raise; integer multipliers become constants.  The
    standing hypotheses its data break are recorded, however it is built.
    """

    def __init__(self, m, alpha, a_m, a_parts, phi):
        self.alpha = parameter(alpha)
        self.u, self.v = self.alpha.numerator, self.alpha.denominator
        if m < 1:
            raise ValueError("m must be positive")
        if not isinstance(a_m, int) or a_m == 0:
            raise ValueError("leading multiplier must be a nonzero integer")
        a_parts = tuple(p if isinstance(p, Poly) else Poly.const(p) for p in a_parts)
        if len(a_parts) != m:
            raise ValueError(f"expected {m} lower multipliers, got {len(a_parts)}")
        if not isinstance(phi, Poly) or not phi.is_monic or phi.degree < 1 or not phi.is_integral:
            raise ValueError("base polynomial must be monic over the integers, degree >= 1")
        if not all(p.is_integral for p in a_parts):
            raise ValueError("multipliers must have integer coefficients")
        self.m = m
        self.a_m = a_m
        self.a_parts = a_parts
        self.phi = phi
        violations = []
        for j, part in enumerate(self.a_parts):
            if part.degree >= phi.degree:
                violations.append(f"deg a_{j} = {part.degree} is not below deg phi = {phi.degree}")
        bound = self.prime_bound
        c = 0 if self.a_parts[0].is_zero else abs(a_m) * content(self.a_parts[0])
        if not c:
            violations.append("a_0 is zero, so its content condition cannot hold")
        for p in sieve_primes(bound):
            if c and c % p == 0:
                violations.append(f"content of a_m*a_0 is divisible by {p} <= {bound}")
            if not is_irreducible_mod_p(phi, p):
                violations.append(f"phi is reducible modulo {p} <= {bound}")
        self.violations = tuple(violations)
        self._f = None

    @property
    def is_valid(self) -> bool:
        return not self.violations

    @property
    def prime_bound(self) -> int:
        """vm + u, the bound below which the hypotheses control every prime."""
        return self.v * self.m + self.u

    @cached_property
    def cleared(self) -> tuple[int, ...]:
        """c_j = v**m b_j as ints; the parts of f in powers of phi are c_j * a_j."""
        return _cleared_coefficients(self.m, self.alpha)

    @property
    def b(self) -> tuple[Fraction, ...]:
        """b_0..b_m with b_m equal to the leading multiplier; b_j = c_j / v**m."""
        return laguerre_coefficients(self.m, self.alpha) + (Fraction(self.a_m),)

    @property
    def f(self) -> Poly:
        """v**m times the assembled polynomial; integer coefficients.

        Its expansion parts in powers of phi are exactly cleared[j] * a_j,
        with cleared[j] = v**m * b_j.
        """
        if self._f is None:
            acc = Poly.const(self.v ** self.m * self.a_m)
            for j in range(self.m - 1, -1, -1):
                acc = acc * self.phi + self.cleared[j] * self.a_parts[j]
            self._f = acc
        return self._f

    @property
    def laguerre_polynomial(self) -> Poly:
        """The rational polynomial f / (v**m * m!)."""
        return self.f * Fraction(1, self.v ** self.m * math.factorial(self.m))

    def valuation_vector(self, p: int) -> tuple:
        """coefficient_valuations at p, then v_p(a_m)."""
        return coefficient_valuations(self.m, self.alpha, p) + (vp_int(p, self.a_m),)

    def to_text(self) -> str:
        lines = [f"m: {self.m}", f"u: {self.u}", f"v: {self.v}", f"a_m: {self.a_m}"]
        for j, part in enumerate(self.a_parts):
            lines.append(f"a_{j}: {format_poly(part)}")
        lines.append(f"phi: {format_poly(self.phi)}")
        return "\n".join(lines)

    def __repr__(self):
        flag = "" if self.is_valid else f", violations={list(self.violations)!r}"
        return (f"LaguerreInstance(m={self.m}, alpha={self.alpha}, "
                f"a_m={self.a_m}, phi={format_poly(self.phi)!r}{flag})")


def build_instance(m, alpha, a_m, a_parts, phi, relaxed: bool = False) -> LaguerreInstance:
    """Assemble an instance; its recorded hypothesis violations raise
    HypothesisViolation unless ``relaxed``."""
    inst = LaguerreInstance(m, alpha, a_m, a_parts, phi)
    if inst.violations and not relaxed:
        raise HypothesisViolation(inst.violations)
    return inst
