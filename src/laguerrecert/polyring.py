"""Dense univariate polynomials with exact coefficients.

Coefficients are Python ints or Fractions, ascending degree, no trailing
zeros (the zero polynomial has an empty tuple).  Includes the shared text
format, expansion in powers of a monic polynomial, and the factor degrees
of a polynomial over the p-element field by distinct-degree splitting,
which also decides irreducibility mod p.

The splitting runs in F_p[x]/(f) with every polynomial packed into one
integer, one residue per fixed-width slot (``_PackedRing``): a product is
one big-integer multiplication, reduced modulo f by polynomial Barrett and
modulo p in every slot at once by integer Barrett, at each stage of the
product, so a slot holds about twice the bits of max(n, 3)(p-1)**2.  The
Frobenius map a -> a**p, linear over the p-element field, is one matrix
modulo f whose rows x**(i*p) are built once per (f, p), so x**(p**d) costs
one combination of rows per degree.  A product tree over x**(p**d) - x for
d <= deg(f)/2 then splits f by degree range with one gcd per visited node.
The squarefree gate, the gcds and the exact divisions run by Euclid on the
same packed integers, two quotient terms per multiply-add and one integer
Barrett reduction per pass; the slot layout comes before the gate, so only
a squarefree f pays for fixing f as the modulus, and f is packed once per
(f, p): the monic f, -f and mu are derived from the int the gate read.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache

from .primes import INFINITY, _require_prime, sieve_primes, vp_int, vp_rat


def _canon(c):
    if type(c) is int:
        return c
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
# the printed form parses back bit-exactly.  Numbers are read and written by
# halves, the lower half zero-padded, down to pieces of at most 640 digits:
# the least int/str digit limit an interpreter accepts, so int() and str()
# take every piece and the limit (4,300 digits by default) never applies.
# Digits are ASCII 0-9 only: \d would also match other scripts' digits,
# which no other reader here (JSON numbers, certificate slopes) accepts.

_TERM_RE = re.compile(r"([+-]?)([0-9]+(?:/[0-9]+)?)?(x(?:\^([0-9]+))?)?")

# The parsed polynomial is dense, so its cost grows with the largest
# exponent, not with the length of the text: "x^99999999999" alone would ask
# for 10^11 coefficient slots.  Every polynomial this library builds or
# checks has degree m * deg(phi), far below this bound.
MAX_PARSED_DEGREE = 100_000

_PIECE_DIGITS = 640
_PIECE_BOUND = 10**_PIECE_DIGITS


@lru_cache(maxsize=32)
def _ten_to(k: int) -> int:
    return 10**k


def _read_int(digits: str) -> int:
    """int(digits) for a string of ASCII digits of any length."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    k = len(digits) // 2
    return _read_int(digits[:-k]) * _ten_to(k) + _read_int(digits[-k:])


def _int_text(n: int) -> str:
    """str(n) for an int n >= 0 of any size."""
    if n < _PIECE_BOUND:
        return str(n)
    # about half the digits; 10**k <= n, as n >= 2**(bits-1) > 10**(0.3 * (bits-1))
    k = n.bit_length() * 3 // 20
    high, low = divmod(n, _ten_to(k))
    return _int_text(high) + _int_text(low).zfill(k)


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
        body = "" if (mag == 1 and e > 0) else "/".join(
            map(_int_text, mag.as_integer_ratio() if mag.denominator > 1 else (mag,)))
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
    if re.search(r"[0-9][ \t]+[0-9]", text):
        raise ValueError(f"whitespace between digits in {text!r}")
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise ValueError("empty polynomial text")
    coeffs: dict[int, int | Fraction] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        sign, num, xpart, exp = m.groups()
        if (num is None and xpart is None) or (pos and not sign):  # terms join by + or -
            raise ValueError(f"cannot parse polynomial near {s[pos:]!r}")
        if not num:
            c = 1
        elif "/" in num:  # only a rational term builds a Fraction
            try:
                c = Fraction(*map(_read_int, num.split("/")))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in {num!r}") from None
        else:
            c = _read_int(num)
        if sign == "-":
            c = -c
        e = 0
        if xpart is not None:
            e = int(exp) if exp is not None else 1
            if e > MAX_PARSED_DEGREE:
                raise ValueError(f"exponent {e} exceeds the largest accepted degree "
                                 f"{MAX_PARSED_DEGREE}")
        coeffs[e] = coeffs.get(e, 0) + c
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

def phi_expand(f: Poly, phi: Poly) -> tuple[Poly, ...]:
    """The parts of f = sum parts[i] * phi**i, deg parts[i] < deg phi and
    parts[-1] != 0; the zero polynomial has none."""
    if not (phi.is_monic and phi.degree >= 1):
        raise ValueError("expansion base must be monic of degree >= 1")
    parts = []
    rest = f
    while not rest.is_zero:
        rest, rem = divmod(rest, phi)
        parts.append(rem)
    while parts and parts[-1].is_zero:
        parts.pop()
    return tuple(parts)


# ---------------------------------------------------------------------------
# arithmetic over the p-element field, every polynomial one packed int

class _PackedRing:
    """F_p[x]/(f) for a monic f of degree n >= 2, every element one int, and
    Euclid on polynomials of degree at most n (and on x**(2n-2), for mu) in
    the same slot layout.

    A polynomial a_0 + a_1 x + ... + a_d x**d, residues 0 <= a_j < p, is the
    int sum_j a_j * 2**(slot*j) (Kronecker substitution), so a product of
    two elements is one big-integer multiplication, and a nonzero
    polynomial's degree is its bit length // slot (its top residue has
    fewer than slot bits).  The layout (slot width, Barrett shift and magic,
    mask) depends on n and p only and is built first, so the squarefree gate
    runs before f is fixed.  ``set_modulus`` then takes f mod p as the one
    packed int the gate read and derives the rest from it: the monic f, one
    scalar product by 1/lead(f) and one integer Barrett reduction; -f mod p,
    p in each of its n+1 slots minus the monic f, and one reduction (a slot
    of p becomes 0); and mu by ``divmod``.  A product c = a*b of two
    elements has degree <= 2n-2 and is reduced by two Barrett reductions,
    with every slot reduced mod p at each of their stages:

    - modulo f by polynomial Barrett: with mu = floor(x**(2n-2) / f), of
      degree n-2 and built once, the quotient is
      q = floor(floor(c / x**n) * mu / x**(n-2)) exactly, and the remainder
      c - q*f is c + q * (-f mod p), whose slots n and above are 0 mod p;
    - every slot modulo p at once by integer Barrett: with 2**t > B*(p-1)
      and magic = ceil(2**t / p) = (2**t + e) / p, 0 <= e < p, any
      0 <= v <= B has floor(v * magic / 2**t) = floor(v / p), because
      v * magic / 2**t = v/p + v*e / (p * 2**t) and v*e < 2**t.

    So a product reduces c = a*b mod p, then the quotient q (h*mu after
    its shift), then the remainder.  Why the quotient is exact: write
    c = h * x**n + l with deg l < n and x**(2n-2) = mu*f + r with
    deg r < n.  Then c/f = h*mu / x**(n-2) + h*r / (f * x**(n-2)) + l/f,
    and the last two terms have only negative powers of x (deg h <= n-2),
    so their polynomial part is 0.  This holds over the p-element field,
    so c, h and q may be taken mod p at any stage.

    Euclid divides a by b (``divmod``) two quotient terms per pass: with
    d = deg a, k = d - deg b and u = 1/lead(b), q_k = a_d * u and
    q_(k-1) = (a_(d-1) - q_k * b_(deg b - 1)) * u, then one multiply-add
    a += ((p - q_k) x + (-q_(k-1) mod p)) * x**(k-1) * b clears slots d
    and d-1 mod p and one integer Barrett reduction brings every slot back
    below p; a last odd term goes alone, and the degree is read again after
    each pass, so a pass that clears more than two slots shortens the rest.
    One pass kernel serves both readers: ``divmod`` collects the quotient
    terms (for mu, and the descent's exact division), ``gcd`` only the
    remainders, and builds no quotient.

    The slot bound: with every residue at most p-1, a slot before a
    reduction holds at most
    - n(p-1)**2 in c = a*b (at most n products per slot);
    - (n-1)(p-1)**2 in h*mu (h and mu have n-1 slots each);
    - (p-1) + (n-1)(p-1)**2 in c + q * (-f mod p) (q has n-1 slots);
    - (p-1) + 2(p-1)**2 after a two-term Euclid pass (a slot of a plus at
      most two products, as the multiplier has two slots), and
      (p-1) + (p-1)**2 after a one-term pass; the division of x**(2n-2)
      by the monic f that gives mu is such a pass on 2n-1 slots, and the
      multiplier times f reaches no slot above the one it clears, so it
      stays within the mask's 2n-1 slots;
    - (p-1)**2 when a gcd or f itself is made monic, one product per slot;
    - p in -f before its reduction (p minus a residue, at most p);
    and (p-1) <= (p-1)**2, so any slot before a reduction is at most
    B = max(n, 3)(p-1)**2.  Only the Euclid pass needs the 3: at n = 2 it
    can exceed n(p-1)**2.  A row combination sum_i c_i * row_i with c_i < p
    holds at most B too.  The slot width holds B * magic, so no slot ever
    carries into the next, the integer arithmetic is the polynomial
    arithmetic over Z slot by slot, and after the shift by t slot j keeps
    floor(v_j * magic / 2**t) in its low slot - t bits (slot > t, as
    B >= p), under the low bits of slot j+1, for a mask to cut.  A slot is
    about 2 log2(B) bits: 34 at n = 30 and p = 59, 62 at n = 1024 and
    p = 1031.
    """

    __slots__ = ("n", "p", "slot", "_slot_mask", "_t", "_magic", "_ones", "_q_mask",
                 "_high", "_q_shift", "_mu", "_neg_f")

    def __init__(self, n: int, p: int):
        bound = max(n, 3) * (p - 1) ** 2
        self._t = (bound * (p - 1)).bit_length()
        self._magic = -(-(1 << self._t) // p)
        self.slot = slot = (bound * self._magic).bit_length()
        self.n, self.p = n, p
        self._slot_mask = (1 << slot) - 1
        # one mask for every reduction: a product's 2n-1 slots at most (a
        # polynomial Euclid divides has n+1, but x**(2n-2) for mu has 2n-1);
        # ones has a 1 in each slot
        self._ones = ones = ((1 << slot * (2 * n - 1)) - 1) // self._slot_mask
        self._q_mask = ones * ((1 << slot - self._t) - 1)
        self._high = slot * n
        self._q_shift = slot * (n - 2)

    def set_modulus(self, f: int) -> int:
        """Fix f mod p (packed, degree n) as the modulus for mul; returns
        the monic f."""
        monic = self.monic(f)
        self._neg_f = self._residues(self.p * (self._ones >> self.slot * (self.n - 2)) - monic)
        self._mu = self.divmod(1 << self.slot * (2 * self.n - 2), monic)[0]
        return monic

    def pack(self, residues: list[int]) -> int:
        acc = 0
        for c in reversed(residues):
            acc = acc << self.slot | c
        return acc

    def unpack(self, a: int) -> list[int]:
        """The n residues of an element, constant term first."""
        slot, mask = self.slot, self._slot_mask
        return [a >> slot * j & mask for j in range(self.n)]

    def _residues(self, acc: int) -> int:
        """Every slot of acc (each at most B) reduced mod p."""
        return acc - self.p * (acc * self._magic >> self._t & self._q_mask)

    def mul(self, a: int, b: int) -> int:
        # _residues three times over, inlined: this is the ring's hot loop
        p, magic, t, mask = self.p, self._magic, self._t, self._q_mask
        c = a * b
        c -= p * (c * magic >> t & mask)
        q = (c >> self._high) * self._mu >> self._q_shift
        q -= p * (q * magic >> t & mask)
        c += q * self._neg_f
        return c - p * (c * magic >> t & mask)

    def combine(self, coeffs: list[int], rows: list[int]) -> int:
        """sum_i coeffs[i] * rows[i] for residues coeffs and elements rows."""
        acc = 0
        for c, row in zip(coeffs, rows):
            if c:
                acc += c * row
        return self._residues(acc)

    def frobenius_rows(self) -> list[int]:
        """rows[i] = x**(i*p) for i < n: x**p by left-to-right
        square-and-multiply, then row i = row i-1 times x**p."""
        xp = 1 << self.slot
        for bit in bin(self.p)[3:]:
            xp = self.mul(xp, xp)
            if bit == "1":
                # times x: the quotient by f is the top slot h, and
                # c + h * (-f mod p) has slots at most (p-1) + (p-1)**2 <= B
                c = xp << self.slot
                xp = self._residues(c + (c >> self._high) * self._neg_f)
        rows = [1, xp]
        while len(rows) < self.n:
            rows.append(self.mul(rows[-1], xp))
        return rows

    def monic(self, a: int) -> int:
        """A nonzero polynomial divided by its leading residue."""
        lead = a >> self.slot * (a.bit_length() // self.slot)
        return self._residues(a * pow(lead, -1, self.p))

    def divmod(self, a: int, b: int, quotient: bool = True) -> tuple[int, int]:
        """Quotient and remainder of a by b != 0, polynomials of degree at
        most n, two quotient terms per pass; the quotient is 0, and never
        built, when not asked for.  Every pass lowers the degree, so there
        are at most deg a - deg b + 1 of them; ArithmeticError on a pass
        that does not, which only wrong arithmetic in the ring can cause."""
        p, slot, magic, t, mask = self.p, self.slot, self._magic, self._t, self._q_mask
        top = b.bit_length() // slot
        inv = pow(b >> slot * top, -1, p)
        second = b >> slot * (top - 1) & self._slot_mask if top else 0
        q = 0
        d = a.bit_length() // slot
        while a and d >= top:
            hi = (a >> slot * d) * inv % p
            if d > top:
                lo = ((a >> slot * (d - 1) & self._slot_mask) - hi * second) * inv % p
                shift = slot * (d - top - 1)
                a += ((p - hi) << slot | -lo % p) * b << shift
                if quotient:
                    q |= (hi << slot | lo) << shift
            else:
                a += (p - hi) * b
                if quotient:
                    q |= hi
            a -= p * (a * magic >> t & mask)
            # a pass that keeps the degree would repeat forever; this check
            # bounds the passes more cheaply than a range() over them
            e = a.bit_length() // slot
            if e >= d and a:
                raise ArithmeticError("a Euclid pass did not lower the degree")
            d = e
        return q, a

    def gcd(self, a: int, b: int) -> int:
        """Monic gcd of polynomials of degree at most n by Euclid's
        remainders; 0 when both are 0."""
        while b:
            a, b = b, self.divmod(a, b, False)[1]
        return self.monic(a) if a else 0


# ---------------------------------------------------------------------------
# factor degrees.  Possible factor degrees are one int bitmask, bit d set while
# degree d is open.  A factor of degree d has a cofactor of degree n - d, so a
# polynomial of degree n has no proper factor once no degree in 1..n//2 is open.

def degree_range(lo: int, hi: int) -> int:
    """The mask of the degrees lo <= d < hi (lo >= 0); 0 when hi <= lo."""
    return (1 << hi) - (1 << lo) if hi > lo else 0


def subset_sums(parts, n: int) -> int:
    """The mask of the sums of sub-multisets of parts that are at most n."""
    mask = 1
    for d in parts:
        mask |= mask << d
    return mask & degree_range(0, n + 1)


def degrees_of(mask: int):
    """Yield the set bits of a mask, ascending, one lowest bit at a time."""
    while mask:
        yield (mask & -mask).bit_length() - 1
        mask &= mask - 1


def degree_pattern(f: Poly, p: int) -> tuple[int, ...] | None:
    """Irreducible-factor degrees of f mod p, ascending, by distinct-degree
    splitting; None when the reduction is not squarefree (a unit's degrees
    are (), so read None with ``is None``).

    With n = deg(f) and h = n // 2, the leaves are w_d - x for d = 1..h,
    w_d = x**(p**d) mod f, whose gcd with f is the product of the degree-d
    factors.  A product tree over the leaves gives, at its root,
    G = gcd(root, f): the product of every factor of degree <= n/2.  Its
    cofactor is the one factor of degree above n/2, if there is one (two
    would exceed n), so it adds the degree n - deg G without a division.
    Descending, a node whose part G holds the factors of its degree range
    splits G: the left child's part is gcd(left product mod G, G) and the
    right child's the exact quotient.  A leaf's part is k factors of its
    degree d, k = deg G / d, and a part of degree below twice its range's
    least degree is one factor.  Every cost runs in one packed ring
    (``_PackedRing``) per (f, p), whose slot layout is built before the
    squarefree gate:
    - the gate, gcd(f mod p, f'), by Euclid on packed ints, f mod p
      packed once: the monic f (which the root gcd reads), -f and mu are
      derived from that int (``_PackedRing.set_modulus``), mu by one
      division of x**(2n-2) by the monic f;
    - x**p by about log2(p) squarings and a shift per set bit of p, and
      n - 2 row products for the Frobenius rows x**(i*p) mod f;
    - h - 1 row combinations w_d = sum_i w_{d-1}[i] * row_i (w_1 is row 1);
    - h - 1 products for the tree's inner nodes;
    - one gcd per visited node (the root, and every inner node whose part
      may hold two factors), plus an exact division at each such inner
      node, each Euclid pass one multiply-add per two quotient terms.
    So f irreducible mod p costs the squarefree gate and one gcd.
    """
    _require_prime(p)
    if not f.is_integral:
        raise ValueError("reduction requires integer coefficients")
    return _degree_pattern(f, p)


def _degree_pattern(f: Poly, p: int) -> tuple[int, ...] | None:
    """degree_pattern's body, for a caller that has made its checks: p
    prime and f integral.  A p that divides the leading coefficient is
    refused here, as the gate alone would not notice it (3x**2 + 1 is 1
    with derivative 0 mod 3, whose gcd is 1)."""
    fp = [c % p for c in f.coeffs]
    if not fp:
        raise ValueError("zero polynomial has no leading coefficient")
    if not fp[-1]:
        raise ValueError("p must not divide the leading coefficient")
    n = len(fp) - 1
    if n < 2:  # a unit has no factors, a linear polynomial is irreducible
        return (1,) if n else ()
    ring = _PackedRing(n, p)
    packed = ring.pack(fp)
    if ring.gcd(packed, ring.pack([i * c % p for i, c in enumerate(fp)][1:])) != 1:
        return None
    monic = ring.set_modulus(packed)
    rows = ring.frobenius_rows()
    slot = ring.slot
    x = 1 << slot
    half = n // 2
    # products[lo, hi] = leaves lo .. hi-1 multiplied mod f; leaf d-1 is
    # w_d - x, w_1 = x**p and w_d the combination of the rows by w_{d-1}
    products = {}
    w = rows[1]
    for d in range(half):
        res = ring.unpack(w)
        products[d, d + 1] = w - x if res[1] else w + (p - 1) * x
        if d + 1 < half:
            w = ring.combine(res, rows)
    # the tree's nodes top-down, then their products bottom-up; plain loops,
    # not recursive closures, which would leave a reference cycle per call
    nodes = [(0, half)]
    for lo, hi in nodes:
        if hi - lo > 1:
            mid = (lo + hi) // 2
            nodes += [(lo, mid), (mid, hi)]
    for lo, hi in reversed(nodes):
        if hi - lo > 1:
            mid = (lo + hi) // 2
            products[lo, hi] = ring.mul(products[lo, mid], products[mid, hi])
    g = ring.gcd(products[0, half], monic)
    size = g.bit_length() // slot
    degrees = [n - size] if size < n else []
    # (lo, hi, g): g (monic) is the product of the factors of degree lo+1 .. hi
    parts = [(0, half, g)]
    while parts:
        lo, hi, g = parts.pop()
        size = g.bit_length() // slot
        if not size:
            continue
        if hi - lo == 1:
            degrees += [hi] * (size // hi)
        elif size < 2 * (lo + 1):  # too small for two such factors
            degrees.append(size)
        else:
            mid = (lo + hi) // 2
            g_left = ring.gcd(products[lo, mid], g)
            g_right, rem = ring.divmod(g, g_left)
            if rem:
                raise ArithmeticError("distinct-degree part does not divide")
            parts += [(lo, mid, g_left), (mid, hi, g_right)]
    return tuple(sorted(degrees))


@lru_cache(maxsize=1 << 14)
def is_irreducible_mod_p(phi: Poly, p: int) -> bool:
    """Irreducibility of a monic polynomial over the p-element field: its
    factor-degree pattern is the single degree deg phi (squarefree).

    Cached by (phi, p), the key every instance build asks for at every
    prime up to vm+u; a miss reduces phi mod p and asks the cache of
    decisions by residues, so polynomials congruent mod p share one."""
    _require_prime(p)
    if not phi.is_monic:
        raise ValueError("irreducibility test requires a monic polynomial")
    if phi.degree < 1:
        raise ValueError("degree must be at least 1")
    if not phi.is_integral:
        raise ValueError("reduction requires integer coefficients")
    return _irreducible_residues(tuple(c % p for c in phi.coeffs), p)


@lru_cache(maxsize=1 << 14)
def _irreducible_residues(residues: tuple[int, ...], p: int) -> bool:
    """is_irreducible_mod_p's decision for the monic polynomial with these
    residues mod the prime p, constant term first."""
    return _degree_pattern(Poly(residues), p) == (len(residues) - 1,)


def check_phi(phi: Poly, bound: int) -> bool:
    """True iff phi is irreducible modulo every prime <= bound."""
    return all(is_irreducible_mod_p(phi, p) for p in sieve_primes(bound))


def _first_irreducible_mod_p(d: int, p: int) -> list[int]:
    """First monic irreducible of degree d >= 2 over F_p, lower coefficients
    enumerated as base-p digits of 0, 1, 2, ... (constant digit first).  A
    zero constant term means x divides the candidate, so it is not tested.
    Each decision lands in the residue cache, where construct_phi's check
    of the glued polynomial at p finds it."""
    for n in range(p**d):
        lower = []
        rest = n
        for _ in range(d):
            rest, digit = divmod(rest, p)
            lower.append(digit)
        if lower[0] and _irreducible_residues((*lower, 1), p):
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
