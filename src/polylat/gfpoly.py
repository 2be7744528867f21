"""Exact arithmetic in Z_b[x] for a prime base b.

Polynomials over the prime field Z_b are the atoms of every polynomial
lattice construction: point coordinates are truncations of the formal
Laurent series n(x)q(x)/P(x) in x^{-1}, with P irreducible of degree m.
This module provides multiplication mod P, an irreducibility test, the
deterministic choice of modulus, Laurent digit extraction, and the b-adic
doubling that applies a Z_b-linear map to every digit vector at once.

Everything here is exact integer arithmetic.  Digit vectors are converted
to floating point only at quadrature time, so leading-digit positions
(needed by the error kernel) are never subject to rounding.

Coefficients are stored little-endian: index i holds the coefficient of
x^i.  The text form used in JSON files reads the other way around,
constant term last, so "111" is x^2+x+1 over Z_2.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NEG_INF = float("-inf")


def _prime_factors(n: int):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def check_prime_base(b: int) -> int:
    """b, checked to be a prime below 2^16 by trial division (bounded first)."""
    if not isinstance(b, int) or not 2 <= b < 1 << 16 or _prime_factors(b) != [b]:
        raise ValueError(f"base must be a small prime, got {b!r}")
    return b


@dataclass(frozen=True)
class GfPoly:
    """Polynomial over Z_b, canonical form (no trailing zero coefficients)."""

    b: int
    coeffs: tuple

    def __post_init__(self):
        check_prime_base(self.b)
        c = tuple(int(v) for v in self.coeffs)
        if any(v < 0 or v >= self.b for v in c):
            raise ValueError(f"coefficients must lie in 0..{self.b - 1}: {c}")
        while c and c[-1] == 0:
            c = c[:-1]
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, b: int) -> "GfPoly":
        return cls(b, ())

    @classmethod
    def one(cls, b: int) -> "GfPoly":
        return cls(b, (1,))

    @classmethod
    def x(cls, b: int) -> "GfPoly":
        return cls(b, (0, 1))

    @classmethod
    def from_int(cls, b: int, n: int) -> "GfPoly":
        """Decode the base-b integer encoding (constant term = least digit)."""
        if n < 0:
            raise ValueError("encoding must be nonnegative")
        digits = []
        while n:
            n, r = divmod(n, b)
            digits.append(r)
        return cls(b, tuple(digits))

    def to_int(self) -> int:
        """Base-b integer encoding; inverse of :meth:`from_int`."""
        n = 0
        for c in reversed(self.coeffs):
            n = n * self.b + c
        return n

    @property
    def degree(self):
        """Degree, with -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self):
        return poly_to_string(self)


def _check_same_base(a: GfPoly, c: GfPoly):
    if a.b != c.b:
        raise ValueError(f"base mismatch: {a.b} vs {c.b}")


def is_irreducible(p: GfPoly) -> bool:
    """True iff p has no nontrivial factorization over Z_b.

    Ben-Or's test.  x^(b^k) - x is the product of the monic irreducibles
    whose degree divides k, so p of degree m is reducible iff
    gcd(x^(b^k) - x, p) != 1 for some k <= m/2.  h = x^(b^k) mod p takes
    one b-th power per k: at most m/2 powerings of O(m^2 log b) coefficient
    operations and as many Euclidean gcds, stopping at the smallest
    factor degree of a reducible p.
    """
    deg = p.degree
    if deg == NEG_INF or deg < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    b, P = p.b, p.coeffs
    h = [0, 1]
    for _ in range(deg // 2):
        h = _powmod(h, b, P, b)
        g = h + [0] * (2 - len(h))
        g[1] = (g[1] - 1) % b
        if not _coprime(_trim(g), P, b):
            return False
    return True


@dataclass(frozen=True)
class Modulus:
    """Irreducible polynomial P of degree m, the lattice-rule modulus."""

    poly: GfPoly

    def __post_init__(self):
        if not is_irreducible(self.poly):
            raise ValueError(f"modulus must be irreducible: {self.poly}")

    @property
    def b(self) -> int:
        return self.poly.b

    @property
    def m(self) -> int:
        return int(self.poly.degree)


@lru_cache(maxsize=None)
def find_irreducible(b: int, m: int) -> Modulus:
    """Deterministic modulus: the smallest monic irreducible of degree m.

    "Smallest" means smallest base-b integer encoding (constant term is
    the least significant digit), so constructions are reproducible
    across runs and implementations.
    """
    check_prime_base(b)
    if m < 1:
        raise ValueError("degree must be >= 1")
    for low in range(b**m):
        cand = GfPoly.from_int(b, low + b**m)
        if is_irreducible(cand):
            return Modulus(cand)
    raise AssertionError("unreachable: irreducibles exist for every degree")


@dataclass(frozen=True)
class DigitVector:
    """Base-b digit expansion t_1..t_L of a value in [0,1).

    digits[i] is t_{i+1}, the coefficient of b^{-(i+1)}.
    """

    b: int
    digits: tuple

    def __post_init__(self):
        check_prime_base(self.b)
        d = tuple(int(v) for v in self.digits)
        if any(v < 0 or v >= self.b for v in d):
            raise ValueError(f"digits must lie in 0..{self.b - 1}: {d}")
        object.__setattr__(self, "digits", d)

    @property
    def precision(self) -> int:
        return len(self.digits)

    def value(self) -> float:
        """Represented value sum t_l b^{-l}, evaluated by Horner."""
        v = 0.0
        for t in reversed(self.digits):
            v = (v + t) / self.b
        return v


def laurent_digits(n_poly: GfPoly, q: GfPoly, modulus: Modulus, precision: int) -> DigitVector:
    """First `precision` digits of the Laurent series n(x)q(x)/P(x).

    Returns t_1..t_L where n(x)q(x)/P(x) = (polynomial part) + sum t_l x^{-l}.
    With r = nq mod P, the quotient of x^L r by P is sum t_l x^{L-l}, so the
    digits are its coefficients read from the top.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    _check_same_base(n_poly, q)
    if n_poly.b != modulus.b:
        raise ValueError(f"base mismatch: {n_poly.b} vs {modulus.b}")
    b, p = modulus.b, modulus.poly.coeffs
    rem = _mulmod(n_poly.coeffs, q.coeffs, p, b)
    quot = _divmod([0] * precision + rem, p, b)[0]
    return DigitVector(b, tuple(reversed(quot + [0] * (precision - len(quot)))))


def primitive_element(modulus: Modulus) -> GfPoly:
    """Smallest generator of the multiplicative group of Z_b[x]/(P).

    "Smallest" again refers to the base-b integer encoding.  The powers
    g^0, ..., g^{b^m-2} enumerate every nonzero residue exactly once;
    this is what makes the score matrix circulant under the index
    permutation used for FFT multiplication.
    """
    b, m = modulus.b, modulus.m
    order = b**m - 1
    if order == 1:
        return GfPoly.one(b)
    factors = _prime_factors(order)
    for enc in range(1, b**m):
        g = GfPoly.from_int(b, enc)
        if all(_powmod(g.coeffs, order // f, modulus.poly.coeffs, b) != [1] for f in factors):
            return g
    raise AssertionError("unreachable: the multiplicative group is cyclic")


def poly_mul_mod(a: GfPoly, c: GfPoly, modulus: Modulus) -> GfPoly:
    """(a*c) mod P, degree < m."""
    if a.b != modulus.b or c.b != modulus.b:
        raise ValueError("base mismatch with modulus")
    return GfPoly(modulus.b, tuple(_mulmod(a.coeffs, c.coeffs, modulus.poly.coeffs, modulus.b)))


def poly_to_string(p: GfPoly) -> str:
    """Digit-string form, constant term last ("111" = x^2+x+1 over Z_2)."""
    if p.b > 7:
        raise ValueError("digit-string form needs single-character digits (b <= 7)")
    if p.is_zero():
        return "0"
    return "".join(str(c) for c in reversed(p.coeffs))


def poly_from_string(b: int, s: str) -> GfPoly:
    """Inverse of :func:`poly_to_string`."""
    if not s or not s.isdigit():
        raise ValueError(f"malformed polynomial digit string: {s!r}")
    return GfPoly(b, tuple(int(ch) for ch in reversed(s)))


# ---------------------------------------------------------------------------
# Linear maps over Z_b: r -> r*q mod P is linear in the coefficient vector of
# r, and a digital net's digits are linear in the digits of the point index,
# so both are applied to every digit vector at once by b-adic doubling.


def mul_mod_matrix(q: GfPoly, modulus: Modulus) -> np.ndarray:
    """(m x m) matrix M over Z_b mapping coeffs(r) to coeffs(r*q mod P)."""
    if q.b != modulus.b:
        raise ValueError("base mismatch with modulus")
    b, m, p = modulus.b, modulus.m, modulus.poly.coeffs
    M = np.zeros((m, m), dtype=np.int64)
    col = _divmod(q.coeffs, p, b)[1]
    for i in range(m):  # column i holds x^i q mod P
        M[: len(col), i] = col
        col = _mulmod(col, (0, 1), p, b)
    return M


def fill_by_doubling(out: np.ndarray, G: np.ndarray, b: int):
    """Row n of out, n = 0 .. b^r - 1, set to G @ (digits of n) mod b.

    G has shape (..., r) and out has b^r rows, out[0] = 0 on entry.  Rows
    [t b^k, (t+1) b^k) are rows [0, b^k) plus t times column k of G.  The
    sums stay in out's unsigned dtype, which must hold 2b - 1: x + c < 2b,
    and x + c - b wraps above x + c exactly when x + c < b.
    """
    size = 1
    for k in range(G.shape[-1]):
        for t in range(1, b):
            step = (t * G[..., k] % b).astype(out.dtype)  # t*G may not fit the dtype
            dst = out[t * size : (t + 1) * size]
            np.add(out[:size], step, out=dst)
            np.minimum(dst, dst - out.dtype.type(b), out=dst)
        size *= b


# ---------------------------------------------------------------------------
# The arithmetic core: little-endian coefficient lists of Python ints, with
# no GfPoly built or validated inside a loop.  Every exact product mod P
# (and Ben-Or's powerings and gcds, and Laurent digits) runs through _mulmod
# and _divmod.


def _trim(c: list) -> list:
    while c and not c[-1]:
        c.pop()
    return c


def _mul(a, c) -> list:
    """Schoolbook product; coefficients are left unreduced mod b."""
    out = [0] * (len(a) + len(c) - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + len(c)] = [o + x * y for o, y in zip(out[i : i + len(c)], c)]
    return out


def _divmod(a, d, b: int):
    """Trimmed quotient and remainder of a by d over Z_b (d trimmed, nonzero)."""
    n = len(d) - 1
    inv_lead = pow(d[-1], b - 2, b)
    rem = list(a)
    quot = [0] * max(len(rem) - n, 0)
    for k in range(len(rem) - 1, n - 1, -1):
        t = rem[k] * inv_lead % b
        if t:
            quot[k - n] = t
            rem[k - n : k] = [r - t * y for r, y in zip(rem[k - n : k], d)]
    return _trim(quot), _trim([r % b for r in rem[:n]])


def _mulmod(a, c, p, b: int) -> list:
    """(a*c) mod p over Z_b."""
    return _divmod(_mul(a, c), p, b)[1]


def _powmod(a, e: int, p, b: int) -> list:
    """a^e mod p for e >= 1, by left-to-right square-and-multiply."""
    a = out = _divmod(a, p, b)[1]
    for bit in bin(e)[3:]:
        out = _mulmod(out, out, p, b)
        if bit == "1":
            out = _mulmod(out, a, p, b)
    return out


def _coprime(a: list, p, b: int) -> bool:
    """gcd(a, p) == 1, by Euclid's algorithm (a trimmed, p nonzero)."""
    while a:
        a, p = _divmod(p, a, b)[1], a
    return len(p) == 1
