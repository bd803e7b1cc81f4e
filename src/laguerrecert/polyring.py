"""Dense univariate polynomials with exact coefficients.

Coefficients are Python ints or Fractions, ascending degree, no trailing
zeros (the zero polynomial has an empty tuple).  Includes the shared text
format, expansion in powers of a monic polynomial, reduction mod p, and
the factor degrees of a polynomial over the p-element field by
distinct-degree splitting, which also decides irreducibility mod p.

The splitting applies the Frobenius map a -> a**p, which is linear over
the p-element field, as one matrix modulo f: x**p mod f by
square-and-multiply, then the rows x**(i*p) mod f, each packed into one
integer, built once per (f, p).  Every degree costs one combination of
rows instead of another powering.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .primes import INFINITY, _require_prime, sieve_primes, vp_int, vp_rat


def _canon(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    if isinstance(c, bool):
        return int(c)
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")
    return c


class Poly:
    """Immutable dense polynomial; coeffs[i] is the coefficient of x**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_canon(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple = tuple(cs)

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def term(cls, c, e: int) -> "Poly":
        return cls((0,) * e + (c,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    @property
    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __getitem__(self, e: int):
        if 0 <= e < len(self.coeffs):
            return self.coeffs[e]
        return 0

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly(-c for c in self.coeffs)

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self[i] + other[i] for i in range(n))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly(c * other for c in self.coeffs)
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative exponent")
        result = Poly((1,))
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        """Long division; exact over the rationals (monic divisors stay integral)."""
        other = _as_poly(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        monic = other.is_monic
        dn = other.degree
        r = list(self.coeffs)
        qc = [0] * max(0, len(r) - dn)
        while len(r) - 1 >= dn:
            c = r[-1] if monic else _canon(Fraction(r[-1]) / Fraction(other.lead))
            shift = len(r) - 1 - dn
            qc[shift] = c
            for i, b in enumerate(other.coeffs):
                r[shift + i] -= c * b
            while r and r[-1] == 0:
                r.pop()
        return Poly(qc), Poly(r)

    def __floordiv__(self, other) -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other) -> "Poly":
        return divmod(self, other)[1]

    def __call__(self, value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def map_coeffs(self, fn) -> "Poly":
        return Poly(fn(c) for c in self.coeffs)

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly({list(self.coeffs)!r})"


X = Poly((0, 1))


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Poly")


# ---------------------------------------------------------------------------
# text format: descending terms like "3x^2 - x + 17"; input order is free and
# the printed form parses back bit-exactly.

_TERM_RE = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(x(?:\^(\d+))?)?")

# The parsed polynomial is dense, so its cost grows with the largest
# exponent, not with the length of the text: "x^99999999999" alone would ask
# for 10^11 coefficient slots.  Every polynomial this library builds or
# checks has degree m * deg(phi), far below this bound.
MAX_PARSED_DEGREE = 100_000


def format_poly(f: Poly) -> str:
    if f.is_zero:
        return "0"
    parts = []
    for e in range(f.degree, -1, -1):
        c = f[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        body = "" if (mag == 1 and e > 0) else str(mag)
        if e == 1:
            body += "x"
        elif e > 1:
            body += f"x^{e}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def parse_poly(text: str) -> Poly:
    if re.search(r"\d[ \t]+\d", text):
        raise ValueError(f"whitespace between digits in {text!r}")
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        sign, num, xpart, exp = m.groups()
        if (num is None and xpart is None) or (pos and not sign):  # terms join by + or -
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        try:
            c = Fraction(num) if num is not None else Fraction(1)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {num!r}") from None
        if sign == "-":
            c = -c
        e = 0
        if xpart is not None:
            e = int(exp) if exp is not None else 1
            if e > MAX_PARSED_DEGREE:
                raise ValueError(f"exponent {e} exceeds the largest accepted degree "
                                 f"{MAX_PARSED_DEGREE}")
        coeffs[e] = coeffs.get(e, Fraction(0)) + c
        pos = m.end()
    top = max(coeffs)
    return Poly(coeffs.get(i, 0) for i in range(top + 1))


# ---------------------------------------------------------------------------
# content / valuations

def content(f: Poly) -> int:
    """Positive gcd of the integer coefficients; rejects the zero polynomial."""
    if f.is_zero:
        raise ValueError("content of the zero polynomial is undefined")
    if not f.is_integral:
        raise ValueError("content requires integer coefficients")
    return math.gcd(*f.coeffs)


def primitive_part(f: Poly) -> Poly:
    c = content(f)
    return f.map_coeffs(lambda a: a // c)


def gauss_valuation(p: int, f: Poly) -> int | float:
    """min over coefficients of the p-adic valuation; inf for the zero poly."""
    if f.is_zero:
        return INFINITY
    # integer coefficients skip the Fraction wrapper of vp_rat
    return min(vp_int(p, c) if isinstance(c, int) else vp_rat(p, c)
               for c in f.coeffs if c != 0)


# ---------------------------------------------------------------------------
# expansion in powers of a monic polynomial

@dataclass(frozen=True)
class PhiExpansion:
    """f = sum parts[i] * phi**i with deg parts[i] < deg phi, parts[-1] != 0."""

    phi: Poly
    parts: tuple[Poly, ...]

    @property
    def n(self) -> int:
        return len(self.parts) - 1

    def reassemble(self) -> Poly:
        acc = Poly()
        for part in reversed(self.parts):
            acc = acc * self.phi + part
        return acc


def phi_expand(f: Poly, phi: Poly) -> PhiExpansion:
    if not (phi.is_monic and phi.degree >= 1):
        raise ValueError("expansion base must be monic of degree >= 1")
    parts = []
    rest = f
    while not rest.is_zero:
        rest, rem = divmod(rest, phi)
        parts.append(rem)
    while parts and parts[-1].is_zero:
        parts.pop()
    return PhiExpansion(phi=phi, parts=tuple(parts))


# ---------------------------------------------------------------------------
# arithmetic over the p-element field (dense int lists, ascending).  The
# kernels reduce late: they accumulate plain ints and take one % p per
# output coefficient, never one per product.

def _fp_trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _fp_from_poly(f: Poly, p: int) -> list[int]:
    if not f.is_integral:
        raise ValueError("reduction requires integer coefficients")
    return _fp_trim([c % p for c in f.coeffs])


def _fp_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b != 0; consumes a."""
    if not b:
        raise ZeroDivisionError
    top = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - top)
    for shift in range(len(a) - 1 - top, -1, -1):
        # only the leading coefficient is reduced before it is read; the
        # one it cancels is never read again
        c = a[shift + top] * inv % p
        if c:
            q[shift] = c
            for i in range(top):
                a[shift + i] -= c * b[i]
    return q, _fp_trim([c % p for c in a[:top]])


def _fp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd by Euclid's remainders; consumes a."""
    while b:
        a, b = b, _fp_divmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _fp_times_x(a: list[int], mod: list[int], p: int) -> list[int]:
    """x*a mod a monic mod, for a padded to length deg(mod); same length."""
    c = a[-1]
    shifted = [0] + a[:-1]
    if not c:
        return shifted
    return [(s - c * m) % p for s, m in zip(shifted, mod)]


def _fp_mulmod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    """a*b mod a monic mod of degree n >= 1, for a and b of length n;
    n residues."""
    n = len(mod) - 1
    out = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    for k in range(2 * n - 2, n - 1, -1):
        c = out[k] % p
        if c:
            for i in range(n):
                out[k - n + i] -= c * mod[i]
    return [c % p for c in out[:n]]


def _fp_pack(a: list[int], slot: int) -> int:
    """Residues a as one integer, a[j] in bits slot*j .. slot*(j+1)-1."""
    acc = 0
    for c in reversed(a):
        acc = acc << slot | c
    return acc


def _fp_unpack(acc: int, slot: int, n: int, p: int) -> list[int]:
    """The first n slots of a packed integer, each reduced mod p."""
    mask = (1 << slot) - 1
    return [(acc >> slot * j & mask) % p for j in range(n)]


def _fp_combine(coeffs: list[int], rows: list[int], slot: int, p: int) -> list[int]:
    """sum_i coeffs[i] * rows[i] mod p, residues of packed rows; the result
    has len(coeffs) residues.  One big-integer product per row replaces a
    loop over its coefficients.  No slot carries into the next while slot
    bits hold len(coeffs) * (p-1)**2, and the one % p per output
    coefficient comes at the end."""
    acc = 0
    for c, row in zip(coeffs, rows):
        if c:
            acc += c * row
    return _fp_unpack(acc, slot, len(coeffs), p)


def _frobenius_rows(mod: list[int], p: int) -> tuple[int, list[int]]:
    """(slot, rows): rows[i] = x**(i*p) mod a monic mod for i < n =
    deg(mod) >= 1, each packed with that slot.  x**p comes from left-to-right
    square-and-multiply (a set bit of p costs one shift, not a product);
    the columns x**j * x**p mod mod from n shift-and-reduce steps; then row
    i is row i-1 times x**p, the combination of the columns by the
    coefficients of row i-1."""
    n = len(mod) - 1
    xp = _fp_times_x([1] + [0] * (n - 1), mod, p)
    for bit in bin(p)[3:]:
        xp = _fp_mulmod(xp, xp, mod, p)
        if bit == "1":
            xp = _fp_times_x(xp, mod, p)
    slot = (n * (p - 1) ** 2).bit_length()
    col = xp
    cols = [_fp_pack(col, slot)]
    for _ in range(n - 1):
        col = _fp_times_x(col, mod, p)
        cols.append(_fp_pack(col, slot))
    rows = [1, cols[0]]
    row = xp
    while len(rows) < n:
        row = _fp_combine(row, cols, slot, p)
        rows.append(_fp_pack(row, slot))
    return slot, rows[:n]


def reduce_mod_p(f: Poly, p: int) -> Poly:
    """Coefficientwise reduction into [0, p), canonical form."""
    _require_prime(p)
    return Poly(_fp_from_poly(f, p))


@dataclass(frozen=True)
class DegreePattern:
    p: int
    degrees: tuple[int, ...]
    usable: bool


def degree_pattern(f: Poly, p: int) -> DegreePattern:
    """Multiset of irreducible-factor degrees of f mod p by distinct-degree
    splitting; unusable (no degrees) when the reduction is not squarefree.

    Step d divides rest by gcd(rest, w - x), w = x**(p**d) mod f, the
    product of its factors of degree d.  Costs, for n = deg(f):
    - once: the Frobenius rows x**(i*p) mod f for i < n, from about log2(p)
      squarings mod f, n shift-and-reduce steps and n - 2 combinations;
    - each step: one combination w <- sum_i w[i] * row_i (n products of a
      residue by a packed row) plus the gcd, O(n**2).
    rest divides f, so w mod f serves every step: nothing is reduced
    modulo rest after a split.
    """
    _require_prime(p)
    if f.lead % p == 0:
        raise ValueError("p must not divide the leading coefficient")
    fp = _fp_from_poly(f, p)
    deriv = _fp_trim([i * c % p for i, c in enumerate(fp)][1:])
    if _fp_gcd(fp[:], deriv, p) != [1]:
        return DegreePattern(p=p, degrees=(), usable=False)
    if len(fp) == 1:  # a unit has no factors, and no matrix of degree 0 exists
        return DegreePattern(p=p, degrees=(), usable=True)
    inv = pow(fp[-1], -1, p)
    rest = [c * inv % p for c in fp]
    slot, rows = _frobenius_rows(rest, p)
    # x as deg(f) residues; the loop combines only when deg(f) >= 2
    w = [0, 1] + [0] * (len(rest) - 3)
    degrees = []
    d = 0
    while len(rest) - 1 > 0:
        d += 1
        if 2 * d > len(rest) - 1:
            degrees.append(len(rest) - 1)
            break
        w = _fp_combine(w, rows, slot, p)
        # gcd(w - x, rest) is the product of the degree-d factors
        diff = w[:]
        diff[1] = (diff[1] - 1) % p
        g = _fp_gcd(rest[:], _fp_trim(diff), p)
        if len(g) - 1 > 0:
            degrees.extend([d] * ((len(g) - 1) // d))
            rest, rem = _fp_divmod(rest, g, p)
            if rem:
                raise ArithmeticError("distinct-degree part does not divide")
    return DegreePattern(p=p, degrees=tuple(sorted(degrees)), usable=True)


@lru_cache(maxsize=1 << 14)
def is_irreducible_mod_p(phi: Poly, p: int) -> bool:
    """Irreducibility of a monic polynomial over the p-element field: its
    factor-degree pattern is the single degree deg phi (squarefree)."""
    _require_prime(p)
    if not phi.is_monic:
        raise ValueError("irreducibility test requires a monic polynomial")
    if phi.degree < 1:
        raise ValueError("degree must be at least 1")
    return degree_pattern(phi, p).degrees == (phi.degree,)


def check_phi(phi: Poly, bound: int) -> bool:
    """True iff phi is irreducible modulo every prime <= bound."""
    return all(is_irreducible_mod_p(phi, p) for p in sieve_primes(bound))


def _first_irreducible_mod_p(d: int, p: int) -> list[int]:
    """First monic irreducible of degree d over F_p, lower coefficients
    enumerated as base-p digits of 0, 1, 2, ... (constant digit first)."""
    for n in range(p**d):
        lower = []
        rest = n
        for _ in range(d):
            rest, digit = divmod(rest, p)
            lower.append(digit)
        if is_irreducible_mod_p(Poly(lower + [1]), p):
            return lower
    raise AssertionError("irreducibles of every degree exist over F_p")  # pragma: no cover


def construct_phi(d: int, bound: int) -> Poly:
    """A monic degree-d polynomial irreducible mod every prime <= bound.

    Picks one monic irreducible per prime and glues the coefficients with
    the Chinese Remainder Theorem (balanced representatives).  Degree 1 is
    rejected when primes are in play: every linear polynomial is trivially
    irreducible and the factor-degree machinery degenerates there.
    """
    if d < 1:
        raise ValueError("degree must be at least 1")
    primes = sieve_primes(bound)
    if not primes:
        return Poly((0,) * d + (1,))
    if d < 2:
        raise ValueError("degree 1 with a nontrivial prime bound is rejected")
    modulus = math.prod(primes)
    lowers = {p: _first_irreducible_mod_p(d, p) for p in primes}
    coeffs = []
    for i in range(d):
        residue = 0
        for p in primes:
            mp = modulus // p
            residue += lowers[p][i] * mp * pow(mp, -1, p)
        residue %= modulus
        if residue > modulus // 2:
            residue -= modulus
        coeffs.append(residue)
    phi = Poly(coeffs + [1])
    if not check_phi(phi, bound):  # pragma: no cover
        raise AssertionError("CRT glue must preserve per-prime irreducibility")
    return phi
