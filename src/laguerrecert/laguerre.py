"""Laguerre-type instances over a monic base polynomial.

An instance packages m, a rational parameter u/v (never a negative
integer), an integer leading multiplier, lower multiplier polynomials of
degree below the base, and the base polynomial itself.  The canonical
integer object is v**m times the assembled polynomial, so that every
prime not dividing v sees the same valuations on the expansion parts as
on the coefficients themselves.  Only its integer coefficients v**m b_j
are stored, built on first read once per instance and read only by f and
b; the Fractions b_j are views of them.  Their valuations come from one
routine, coefficient_valuations, which reads no b_j: closed forms value
them at the O(m/p) starts of their runs of equal values.  One sweep,
cleared_from_definition, builds the c_j from their definition at any set
of j.  It serves two readers, each of which cross-checks it by another
formula: cleared reads it at every j < m and is guarded by the ratio
identity, and the verifier reads it only at its polygon vertices, where
its heights, telescoped along the coefficient ratio, are confirmed on it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import comb, prod
from operator import add

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
    """Coefficients b_0..b_{m-1}, b_j = C(m,j) (m+a)(m-1+a)...(j+1+a), built on each call."""
    alpha = parameter(alpha)
    return _coefficient_view(_cleared_coefficients(m, alpha), alpha.denominator ** m)


def _coefficient_view(cleared, vm: int) -> tuple[Fraction, ...]:
    """The Fractions b_j = c_j / v**m, a view of the cleared integers c_j."""
    return tuple(map(Fraction, cleared, repeat(vm)))


def _cleared_coefficients(m: int, alpha) -> tuple[int, ...]:
    """c_0..c_{m-1}: cleared_from_definition at every j < m.

    Checked by ratio_identity_parts, a different formula that determines
    them, before f or b can read them.
    """
    if m < 1:
        raise ValueError("m must be positive")
    alpha = parameter(alpha)
    u, v = alpha.numerator, alpha.denominator
    cleared = cleared_from_definition(m, u, v, range(m))
    c = [cleared[j] for j in range(m)]
    ratio_identity_parts(c, m, u, v)
    return tuple(c)


def _progression_product(u: int, v: int, lo: int, hi: int) -> int:
    """prod of v*i+u over lo <= i <= hi (1 when empty), as a balanced product tree."""
    if hi - lo < 16:
        return prod(v * i + u for i in range(lo, hi + 1))
    mid = (lo + hi) // 2
    return _progression_product(u, v, lo, mid) * _progression_product(u, v, mid + 1, hi)


def cleared_from_definition(m: int, u: int, v: int, js) -> dict[int, int]:
    """{j: c_j} at the given j in 0..m, from the definition
    c_j = v**m b_j = C(m, j) v**j prod_{j<i<=m}(vi+u), so c_m = v**m.

    One descending sweep over the j keeps the suffix product
    prod_{i>j}(vi+u), multiplies in each gap's factors as a balanced
    product tree, and calls comb once per j.  No c_j is derived from
    another by the ratio c_j / c_{j+1}, which the ratio identity and the
    verifier's telescoped heights read, so both stay checks by a second
    formula.
    """
    cleared = {}
    suffix, top = 1, m  # suffix = prod of vi+u over top < i <= m
    for j in sorted(js, reverse=True):
        suffix *= _progression_product(u, v, j + 1, top)
        top = j
        cleared[j] = comb(m, j) * v ** j * suffix
    return cleared


def ratio_identity_parts(cleared, m: int, u: int, v: int) -> tuple[int, ...]:
    """c_0..c_m: the cleared integers c_0..c_{m-1}, then c_m = v**m.

    Raises ArithmeticError unless c_j (m-j) v = c_{j+1} (j+1) (v(j+1)+u)
    with v(j+1)+u != 0 at every j < m, which proves c_j = v**m b_j != 0.
    It guards f (and b), the readers of the cleared integers.  The
    verifier's heights telescope along this same ratio, on small integers,
    and are confirmed on cleared_from_definition at the polygon vertices,
    so the verifier never reads the cleared integers or calls this check.
    """
    parts = tuple(cleared) + (v ** m,)
    if len(parts) != m + 1:
        raise ArithmeticError(f"expected {m} cleared coefficients")
    for j in range(m):
        step = v * (j + 1) + u
        if step == 0 or parts[j] * (m - j) * v != parts[j + 1] * (j + 1) * step:
            raise ArithmeticError(f"coefficient ratio identity fails at j={j}")
    return parts


def coefficient_valuations(m: int, alpha, p: int) -> tuple[tuple[int, int], ...]:
    """Exact valuations v_p(b_0), ..., v_p(b_{m-1}) at a prime p not dividing v,
    as runs: (j, v_p(b_j)) at each run start j, ascending from 0, each run
    lasting to the next start (adjacent runs may carry equal values).

    v_p(b_j) = F(m) - F(j) - F(m-j) + S(j), with F(n) = v_p(n!) =
    sum_e floor(n/p**e) (Legendre's formula) and S(j) = sum_{i=j+1..m}
    v_p(v*i+u).  v_p(v*i+u) >= e exactly on the residue class
    i = r_e = -u/v (mod p**e), so S(j) counts each class in (j, m]:
    sum_e floor((m - r_e)/p**e) - floor((j - r_e)/p**e).  Both sums run
    together, one pass over all starts per power p**e up to m or the
    largest |v*i+u|; past either bound that sum's terms are 0.  The value
    can change from j-1 to j only where p | j, p | m-j+1 or p | v*j+u, so
    the starts are 0 and those j, at most 3(m/p + 1) + 1 of them, each
    valued by the closed forms alone: no b_j is read and no valuation is
    carried from one start to the next.
    Rejected when p divides v, where the cleared integer model no longer
    has the coefficient valuations.
    """
    alpha = parameter(alpha)
    u, v = alpha.numerator, alpha.denominator
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if v % p == 0:
        raise ValueError("p must not divide v")
    starts = sorted({0, *range(p, m, p), *range((m + 1) % p or p, m, p),
                     *range(-u * pow(v, -1, p) % p or p, m, p)})
    largest = max(m, abs(v + u), abs(v * m + u))  # also bounds |v*i+u| for 1 <= i <= m
    values = [0] * len(starts)
    pe = p
    while pe <= largest:  # F's floors at p**e, and S(j)'s class r of p**e in (j, m]
        r = -u * pow(v, -1, pe) % pe
        top = m // pe + (m - r) // pe
        values = [s + top - j // pe - (m - j) // pe - (j - r) // pe
                  for s, j in zip(values, starts)]
        pe *= p
    return tuple(zip(starts, values))


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
        """c_j = v**m b_j as ints; the parts of f in powers of phi are c_j * a_j.
        Read only by f and b."""
        return _cleared_coefficients(self.m, self.alpha)

    @property
    def b(self) -> tuple[Fraction, ...]:
        """b_0..b_m with b_m equal to the leading multiplier; b_j = c_j / v**m."""
        return _coefficient_view(self.cleared, self.v ** self.m) + (Fraction(self.a_m),)

    @property
    def f(self) -> Poly:
        """v**m times the assembled polynomial; integer coefficients.

        Its expansion parts in powers of phi are exactly cleared[j] * a_j,
        with cleared[j] = v**m * b_j.  Assembled by Horner in phi,
        acc = acc * phi + cleared[j] * a_j from acc = v**m a_m down to
        j = 0, on plain int lists, and made a Poly once at the end.
        """
        if self._f is None:
            lower = self.phi.coeffs[:-1]
            acc = [self.v ** self.m * self.a_m]
            for c, part in zip(reversed(self.cleared), reversed(self.a_parts)):
                # acc * phi: acc shifted up by deg phi (phi is monic), plus
                # acc times each lower coefficient of phi
                size = len(acc)
                nxt = [0] * len(lower) + acc
                for i, b in enumerate(lower):
                    if b:
                        nxt[i:i + size] = map(add, nxt[i:i + size], [b * a for a in acc])
                # a relaxed instance's a_j may reach above acc * phi
                nxt += [0] * (len(part.coeffs) - len(nxt))
                for i, a in enumerate(part.coeffs):
                    nxt[i] += c * a
                acc = nxt
            self._f = Poly(acc)
        return self._f

    @property
    def laguerre_polynomial(self) -> Poly:
        """The rational polynomial f / (v**m * m!)."""
        return self.f * Fraction(1, self.v ** self.m * math.factorial(self.m))

    def valuation_vector(self, p: int) -> tuple[tuple[int, int], ...]:
        """The runs of v_p(b_0), ..., v_p(b_m): coefficient_valuations at p,
        then the one-entry run (m, v_p(a_m)) of the leading multiplier."""
        return coefficient_valuations(self.m, self.alpha, p) + ((self.m, vp_int(p, self.a_m)),)

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
