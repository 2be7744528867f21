"""Exact arithmetic in Z_b[x] for a prime base b.

Polynomials over the prime field Z_b are the atoms of every polynomial
lattice construction: point coordinates are truncations of the formal
Laurent series n(x)q(x)/P(x) in x^{-1}, with P irreducible of degree m.
This module provides the ring operations, an irreducibility test, the
deterministic choice of modulus, and Laurent digit extraction.

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


def is_prime(b: int) -> bool:
    """Trial-division primality check for small bases."""
    if b < 2:
        return False
    f = 2
    while f * f <= b:
        if b % f == 0:
            return False
        f += 1
    return True


def check_prime_base(b: int) -> int:
    if not isinstance(b, int) or not is_prime(b):
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


def poly_add(a: GfPoly, c: GfPoly) -> GfPoly:
    """Coefficient-wise sum mod b."""
    _check_same_base(a, c)
    n = max(len(a.coeffs), len(c.coeffs))
    ca = a.coeffs + (0,) * (n - len(a.coeffs))
    cc = c.coeffs + (0,) * (n - len(c.coeffs))
    return GfPoly(a.b, tuple((x + y) % a.b for x, y in zip(ca, cc)))


def poly_mul(a: GfPoly, c: GfPoly) -> GfPoly:
    """Plain polynomial product in Z_b[x]."""
    _check_same_base(a, c)
    if a.is_zero() or c.is_zero():
        return GfPoly.zero(a.b)
    out = [0] * (len(a.coeffs) + len(c.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x == 0:
            continue
        for j, y in enumerate(c.coeffs):
            out[i + j] = (out[i + j] + x * y) % a.b
    return GfPoly(a.b, tuple(out))


def poly_divmod(a: GfPoly, d: GfPoly):
    """Quotient and remainder of a by d (d nonzero)."""
    _check_same_base(a, d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    b = a.b
    inv_lead = pow(d.coeffs[-1], b - 2, b)
    rem = list(a.coeffs)
    dd = len(d.coeffs) - 1
    if len(rem) - 1 < dd:
        return GfPoly.zero(b), a
    quot = [0] * (len(rem) - dd)
    for k in range(len(rem) - 1, dd - 1, -1):
        coef = (rem[k] * inv_lead) % b
        if coef:
            quot[k - dd] = coef
            for i, y in enumerate(d.coeffs):
                rem[k - dd + i] = (rem[k - dd + i] - coef * y) % b
    return GfPoly(b, tuple(quot)), GfPoly(b, tuple(rem))


def poly_mod(a: GfPoly, d: GfPoly) -> GfPoly:
    return poly_divmod(a, d)[1]


def is_irreducible(p: GfPoly) -> bool:
    """True iff p has no nontrivial factorization over Z_b.

    Brute-force trial division by every monic polynomial of degree up to
    deg(p)/2; degrees stay small here (m <= ~20), so no probabilistic
    test is needed.
    """
    deg = p.degree
    if deg == NEG_INF or deg < 1:
        raise ValueError("irreducibility is defined for degree >= 1")
    if deg == 1:
        return True
    b = p.b
    for ddeg in range(1, deg // 2 + 1):
        # monic divisors of degree ddeg, enumerated by their lower coefficients
        for low in range(b**ddeg):
            div = GfPoly.from_int(b, low + b**ddeg)
            if poly_mod(p, div).is_zero():
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

    def leading_position(self):
        """1-based index of the first nonzero digit, or None if all zero."""
        for i, t in enumerate(self.digits):
            if t:
                return i + 1
        return None


def laurent_digits(n_poly: GfPoly, q: GfPoly, modulus: Modulus, precision: int) -> DigitVector:
    """First `precision` digits of the Laurent series n(x)q(x)/P(x).

    Returns t_1..t_L where n(x)q(x)/P(x) = (polynomial part) + sum t_l x^{-l}.
    Long division step by step: multiply the running remainder by x and
    strip the degree-m coefficient against P.
    """
    if precision < 1:
        raise ValueError("precision must be >= 1")
    _check_same_base(n_poly, q)
    if n_poly.b != modulus.b:
        raise ValueError(f"base mismatch: {n_poly.b} vs {modulus.b}")
    b = modulus.b
    m = modulus.m
    p_coeffs = modulus.poly.coeffs
    inv_lead = pow(p_coeffs[-1], b - 2, b)
    rem = list(poly_mod(poly_mul(n_poly, q), modulus.poly).coeffs)
    rem += [0] * (m - len(rem))
    digits = []
    for _ in range(precision):
        # rem <- rem * x, then reduce the x^m coefficient
        rem.insert(0, 0)
        t = (rem[m] * inv_lead) % b
        if t:
            for i, y in enumerate(p_coeffs):
                rem[i] = (rem[i] - t * y) % b
        del rem[m]
        digits.append(t)
    return DigitVector(b, tuple(digits))


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
        if all(_poly_pow_mod(g, order // f, modulus).coeffs != (1,) for f in factors):
            return g
    raise AssertionError("unreachable: the multiplicative group is cyclic")


def _poly_pow_mod(g: GfPoly, e: int, modulus: Modulus) -> GfPoly:
    result = GfPoly.one(g.b)
    base = poly_mod(g, modulus.poly)
    while e:
        if e & 1:
            result = poly_mod(poly_mul(result, base), modulus.poly)
        base = poly_mod(poly_mul(base, base), modulus.poly)
        e >>= 1
    return result


def poly_mul_mod(a: GfPoly, c: GfPoly, modulus: Modulus) -> GfPoly:
    """(a*c) mod P, degree < m."""
    if a.b != modulus.b or c.b != modulus.b:
        raise ValueError("base mismatch with modulus")
    return poly_mod(poly_mul(a, c), modulus.poly)


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
# Linear-map form of r -> r*q mod P: over Z_b it is linear in the
# coefficient vector of r, so repeated products reduce to small integer
# matrix products.


def mul_mod_matrix(q: GfPoly, modulus: Modulus) -> np.ndarray:
    """(m x m) matrix M over Z_b mapping coeffs(r) to coeffs(r*q mod P)."""
    m = modulus.m
    M = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        basis = GfPoly(modulus.b, (0,) * i + (1,))
        prod = poly_mul_mod(basis, q, modulus)
        col = list(prod.coeffs) + [0] * (m - len(prod.coeffs))
        M[:, i] = col
    return M
