"""Laguerre-type instances over a monic base polynomial.

An instance packages m, a rational parameter u/v (never a negative
integer), an integer leading multiplier, lower multiplier polynomials of
degree below the base, and the base polynomial itself.  The canonical
integer object is v**m times the assembled polynomial, so that every
prime not dividing v sees the same valuations on the expansion parts as
on the coefficients themselves.  Only its integer coefficients v**m b_j
are stored, once per (m, parameter); the Fractions b_j are views of them,
and their valuations have one routine, coefficient_valuations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from .polyring import Poly, content, format_poly, is_irreducible_mod_p, parse_poly
from .primes import factorial_valuation, is_prime, sieve_primes, vp_int
from .primes import vp_rat  # noqa: F401  (module attribute wrapped by bench/tracer.py)


class HypothesisViolation(ValueError):
    """A constructed instance breaks one or more of the standing hypotheses."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))


@dataclass(frozen=True)
class Alpha:
    """Rational parameter u/v with gcd(u, v) = 1, v > 0, not a negative integer."""

    u: int
    v: int = 1

    def __post_init__(self):
        if self.v <= 0:
            raise ValueError("v must be positive")
        if math.gcd(self.u, self.v) != 1:
            raise ValueError("u and v must be coprime")
        if self.v == 1 and self.u < 0:
            raise HypothesisViolation(["alpha is a negative integer"])

    @classmethod
    def coerce(cls, value) -> "Alpha":
        if isinstance(value, Alpha):
            return value
        if isinstance(value, int):
            return cls(value, 1)
        if isinstance(value, Fraction):
            return cls(value.numerator, value.denominator)
        if isinstance(value, tuple) and len(value) == 2:
            f = Fraction(value[0], value[1])
            return cls(f.numerator, f.denominator)
        raise TypeError(f"cannot interpret {value!r} as a rational parameter")

    @property
    def value(self) -> Fraction:
        return Fraction(self.u, self.v)

    def __str__(self):
        return str(self.value)


def laguerre_coefficients(m: int, alpha) -> tuple[Fraction, ...]:
    """Coefficients b_0..b_{m-1}, b_j = C(m,j) (m+a)(m-1+a)...(j+1+a).

    A view of the cleared integers: b_j = c_j / v**m, built on each call.
    """
    alpha = Alpha.coerce(alpha)
    vm = alpha.v ** m
    return tuple(Fraction(c, vm) for c in _cleared_coefficients(m, alpha))


@lru_cache(maxsize=4096)
def _cleared_coefficients(m: int, alpha: Alpha) -> tuple[int, ...]:
    """c_j = v**m b_j = C(m,j) v**j (vm+u)(v(m-1)+u)...(v(j+1)+u) for j < m.

    Checked by ratio_identity_parts, a different formula that determines them.
    """
    if m < 1:
        raise ValueError("m must be positive")
    u, v = alpha.u, alpha.v
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

    Additive, on small integers only: v_p(b_j) = v_p(C(m,j)) +
    sum_{i=j+1..m} v_p(v*i+u), the binomial term by Legendre's formula and
    the sum in one suffix loop.  Rejected when p divides v, where the
    cleared integer model no longer has the coefficient valuations.
    """
    alpha = Alpha.coerce(alpha)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if alpha.v % p == 0:
        raise ValueError("p must not divide v")
    u, v = alpha.u, alpha.v
    fact = [factorial_valuation(p, n) for n in range(m + 1)]
    vec = [0] * m
    run = 0  # v_p((v(j+1)+u) ... (vm+u))
    for j in range(m - 1, -1, -1):
        t = v * (j + 1) + u
        if t % p == 0:  # saves the call where v_p(t) = 0
            run += vp_int(p, t)
        vec[j] = fact[m] - fact[j] - fact[m - j] + run
    return tuple(vec)


class LaguerreInstance:
    """Immutable bundle of instance data with lazily assembled polynomials.

    Structural errors (wrong shapes, a non-monic base, a parameter that is
    a negative integer) raise; integer multipliers become constants.  The
    standing hypotheses its data break are recorded, however it is built.
    """

    def __init__(self, m, alpha, a_m, a_parts, phi):
        self.alpha = Alpha.coerce(alpha)
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
        # c_j = v**m b_j as ints; the parts of f in powers of phi are c_j * a_j
        self.cleared = _cleared_coefficients(m, self.alpha)
        self._f = None

    @property
    def u(self) -> int:
        return self.alpha.u

    @property
    def v(self) -> int:
        return self.alpha.v

    @property
    def is_valid(self) -> bool:
        return not self.violations

    @property
    def prime_bound(self) -> int:
        """vm + u, the bound below which the hypotheses control every prime."""
        return self.v * self.m + self.u

    @property
    def b(self) -> tuple[Fraction, ...]:
        """b_0..b_m with b_m equal to the leading multiplier; b_j = c_j / v**m."""
        vm = self.v ** self.m
        return tuple(Fraction(c, vm) for c in self.cleared) + (Fraction(self.a_m),)

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

    @classmethod
    def from_text(cls, text: str, relaxed: bool = False) -> "LaguerreInstance":
        fields = {}
        for line in text.strip().splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        m = int(fields["m"])
        alpha = Alpha(int(fields["u"]), int(fields["v"]))
        a_m = int(fields["a_m"])
        parts = [parse_poly(fields[f"a_{j}"]) for j in range(m)]
        return build_instance(m, alpha, a_m, parts, parse_poly(fields["phi"]),
                              relaxed=relaxed)

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
