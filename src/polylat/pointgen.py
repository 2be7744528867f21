"""Polynomial lattice point sets and digit interlacing.

A generating vector (b, m, P, q_1..q_d) defines the classical polynomial
lattice point set: point n has coordinate j equal to the first m Laurent
digits of n(x)q_j(x)/P(x).  Interlacing order alpha merges each block of
alpha classical coordinates into one coordinate with alpha*m digits,
yielding a higher-order net of b^m points in s = d/alpha dimensions.

Points are kept as exact base-b digit vectors until quadrature time: the
error kernel needs exact leading-digit positions, and interlacing is a
digit operation.  The point set is a digital net: the digits of classical
coordinate j are C_j @ (digits of n) over Z_b, where the generating matrix
C_j is the Hankel matrix of the Laurent digits of q_j/P.  The interlaced net
has its own generating matrices G_k, of shape (alpha*m, m), whose rows are
the rows of C_{k*alpha}, ..., C_{k*alpha+alpha-1} interleaved, so points come
straight from G without a classical digit cube or an interlacing pass.  They
are made in blocks of R = b^r points bounded by CHUNK_BYTES: a head block of
points 0 .. R - 1 is filled once by b-adic doubling (points t b^k .. (t+1)
b^k - 1 are points 0 .. b^k - 1 plus t times column k of G), and the block
starting at point t R is the head block plus G times the digits of t R.
Memory is bounded by the block, not by N.
"""

import json
from dataclasses import dataclass

import numpy as np

from .gfpoly import (
    DigitVector,
    GfPoly,
    Modulus,
    check_prime_base,
    laurent_digits,
    poly_from_string,
    poly_to_string,
)


def index_to_poly(n: int, b: int) -> GfPoly:
    """The polynomial n(x) = sum eta_r x^r for n = sum eta_r b^r."""
    if n < 0:
        raise ValueError("point index must be nonnegative")
    check_prime_base(b)
    return GfPoly.from_int(b, n)


@dataclass(frozen=True)
class GeneratingVector:
    """Generating vector of an interlaced polynomial lattice rule.

    q holds d = alpha*s nonzero polynomials of degree < m (the candidate
    set per CBC component); alpha = 1 gives a classical rule.
    """

    modulus: Modulus
    alpha: int
    q: tuple

    def __post_init__(self):
        if self.alpha < 1:
            raise ValueError("interlacing factor must be >= 1")
        if not self.q:
            raise ValueError("generating vector must be nonempty")
        if len(self.q) % self.alpha != 0:
            raise ValueError(
                f"number of components {len(self.q)} not a multiple of alpha={self.alpha}"
            )
        for j, qj in enumerate(self.q):
            if qj.b != self.b:
                raise ValueError(f"component {j + 1}: base mismatch")
            if qj.is_zero() or qj.degree >= self.m:
                raise ValueError(
                    f"component {j + 1} must be nonzero of degree < {self.m}: {qj}"
                )
        object.__setattr__(self, "q", tuple(self.q))

    @property
    def b(self) -> int:
        return self.modulus.b

    @property
    def m(self) -> int:
        return self.modulus.m

    @property
    def d(self) -> int:
        return len(self.q)

    @property
    def s(self) -> int:
        return self.d // self.alpha

    @property
    def n_points(self) -> int:
        return self.b**self.m

    def to_json_dict(self) -> dict:
        return {
            "b": self.b,
            "m": self.m,
            "alpha": self.alpha,
            "s": self.s,
            "P": poly_to_string(self.modulus.poly),
            "q": [poly_to_string(qj) for qj in self.q],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "GeneratingVector":
        b = int(data["b"])
        modulus = Modulus(poly_from_string(b, data["P"]))
        if modulus.m != int(data["m"]):
            raise ValueError("modulus degree does not match field 'm'")
        q = tuple(poly_from_string(b, s) for s in data["q"])
        gv = cls(modulus=modulus, alpha=int(data["alpha"]), q=q)
        if gv.s != int(data["s"]):
            raise ValueError("field 's' does not match len(q)/alpha")
        return gv

    def save(self, path, metadata: dict | None = None):
        doc = self.to_json_dict()
        if metadata:
            doc["config"] = metadata
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "GeneratingVector":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


@dataclass(frozen=True)
class DigitPoint:
    """One point, coordinate-wise exact digit expansions."""

    coords: tuple

    def values(self) -> np.ndarray:
        return np.array([c.value() for c in self.coords])


# -- bulk digit generation ---------------------------------------------------

# digit rows cast to float64 at a time in digits_to_values (0.8 MB at L = 24;
# measured faster than 1 << 14, and it keeps the temporary below a chunk)
_ROWS_PER_BLOCK = 1 << 12

# digit bytes per block of points; measured faster than 1 MiB and 8 MiB
CHUNK_BYTES = 1 << 22


def _generator_matrices(gv: GeneratingVector) -> np.ndarray:
    """Generating matrices C_j of the classical net, shape (d, m, m), int64.

    C_j[l, i] is Laurent digit l + i + 1 of q_j/P (a Hankel matrix): it is
    digit l + 1 of x^i q_j/P, the digits of n q_j/P being linear in n.  By
    linearity in q_j it is sum_k q_jk u_(l+i+k+1), with u the digits of 1/P.
    """
    b, m = gv.b, gv.m
    if b >= 128:
        raise ValueError(f"uint8 digit arithmetic needs b < 128, got b={b}")
    one = GfPoly.one(b)
    u = np.array(laurent_digits(one, one, gv.modulus, 3 * m - 2).digits, dtype=np.int64)
    k, l, i = np.ogrid[:m, :m, :m]
    coeffs = np.array([qj.coeffs + (0,) * (m - len(qj.coeffs)) for qj in gv.q])
    return np.tensordot(coeffs, u[k + l + i], axes=1) % b


def interlaced_generator_matrices(gv: GeneratingVector) -> np.ndarray:
    """Generating matrices of the interlaced net, shape (s, alpha*m, m), int64.

    Row a*alpha + j of G[k] is row a of C_{k*alpha+j}: digit a+1 of block
    member j+1 lands at interlaced position j + a*alpha, as in
    interlace_digit_array.
    """
    s, alpha, m = gv.s, gv.alpha, gv.m
    C = _generator_matrices(gv)
    return C.reshape(s, alpha, m, m).transpose(0, 2, 1, 3).reshape(s, alpha * m, m)


def _fill_by_doubling(out: np.ndarray, G: np.ndarray, b: int):
    """Digits of points 0 .. len(out) - 1 into out, with out[0] = 0 given.

    Row n of out is G @ (digits of n) mod b, where G has shape (..., r) and
    len(out) = b^r: rows [t b^k, (t+1) b^k) are rows [0, b^k) plus t times
    column k of G.  The digit sums stay in uint8, so b < 128.
    """
    size = 1
    for k in range(G.shape[-1]):
        for t in range(1, b):
            step = (t * G[..., k] % b).astype(np.uint8)  # t*G passes 255 at b = 17
            dst = out[t * size : (t + 1) * size]
            # x + c < 2b <= 256, and x + c - b wraps above x + c exactly when x + c < b
            np.add(out[:size], step, out=dst)
            np.minimum(dst, dst - np.uint8(b), out=dst)
        size *= b


def classical_digit_array(gv: GeneratingVector) -> np.ndarray:
    """Digits of the classical point set, shape (N, d, m), dtype uint8.

    out[n, j] holds digits t_1..t_m of coordinate j of point n.  Kept as the
    cross-check of the interlaced path; the digit sums stay in uint8, which
    limits the base to b < 128.
    """
    C = _generator_matrices(gv)
    out = np.zeros((gv.n_points, gv.d, gv.m), dtype=np.uint8)
    _fill_by_doubling(out, C, gv.b)
    return out


def digit_chunks(gv: GeneratingVector):
    """Interlaced digits of points 0 .. N - 1, in order, in blocks of R = b^r points.

    Yields fresh (R, s, alpha*m) uint8 arrays; R is the largest power of b
    whose block fits in CHUNK_BYTES (at least 1, at most N).  The head block
    H of points 0 .. R - 1 is filled once by doubling over the low r columns
    of G; the block starting at point t R is H plus G times the digits of
    t R, which by linearity over Z_b is exact, and which carries nowhere
    because the low r digits of t R are zero.
    """
    b, m = gv.b, gv.m
    G = interlaced_generator_matrices(gv)
    r = 0
    while r < m and b ** (r + 1) * G.shape[0] * G.shape[1] <= CHUNK_BYTES:
        r += 1
    head = np.zeros((b**r, *G.shape[:2]), dtype=np.uint8)
    _fill_by_doubling(head, G[..., :r], b)
    high = G[..., r:]
    for t in range(b ** (m - r)):
        digits = np.array([t // b**k % b for k in range(m - r)], dtype=np.int64)
        chunk = head + (high @ digits % b).astype(np.uint8)
        np.minimum(chunk, chunk - np.uint8(b), out=chunk)
        yield chunk


def interlace_digit_array(classical: np.ndarray, alpha: int) -> np.ndarray:
    """Interlace blocks of alpha coordinates, (N, alpha*s, m) -> (N, s, alpha*m).

    Output digit at position j + (a-1)*alpha (1-based) is digit a of block
    member j, exactly the digit-interleaving map.  The cross-check of
    interlaced_generator_matrices.
    """
    N, d, m = classical.shape
    if d % alpha != 0:
        raise ValueError(f"dimension {d} not divisible by alpha={alpha}")
    s = d // alpha
    blocks = classical.reshape(N, s, alpha, m)
    out = np.empty((N, s, alpha * m), dtype=classical.dtype)
    for j in range(alpha):  # one strided copy per member beats a transposed copy
        out[:, :, j::alpha] = blocks[:, :, j, :]
    return out


def digits_to_values(digits: np.ndarray, b: int) -> np.ndarray:
    """Digit arrays (..., L) to floats in [0,1).

    The leading K digits, the most with b^K <= 2^53, give an exact integer
    numerator n = sum t_k b^(K-k), divided once by b^K, so the value is
    correctly rounded whenever L = K.  Longer expansions add the value of
    the remaining digits, scaled by b^-K, which keeps the error within
    about one ulp.
    """
    L = digits.shape[-1]
    K = 1
    while K < L and b ** (K + 1) <= 2**53:
        K += 1
    # every partial sum of t_k b^(K-k) is an integer below b^K <= 2^53, so the
    # float64 products and sums are exact in any order
    place = (b ** np.arange(K - 1, -1, -1, dtype=np.int64)).astype(np.float64)
    rows = digits.reshape(-1, L)
    num = np.empty(len(rows))
    for i in range(0, len(rows), _ROWS_PER_BLOCK):
        num[i : i + _ROWS_PER_BLOCK] = rows[i : i + _ROWS_PER_BLOCK, :K] @ place
    values = num.reshape(digits.shape[:-1]) / float(b**K)
    if K < L:
        values += digits_to_values(digits[..., K:], b) / float(b**K)
    return values


def lattice_points(gv: GeneratingVector) -> np.ndarray:
    """Interlaced lattice points as an (N, s) float array, the quadrature view."""
    out = np.empty((gv.n_points, gv.s))
    start = 0
    for chunk in digit_chunks(gv):
        out[start : start + len(chunk)] = digits_to_values(chunk, gv.b)
        start += len(chunk)
        del chunk  # not alive while the generator makes the next one
    return out


# -- exact-digit oracle ----------------------------------------------------


def point_for_index(gv: GeneratingVector, n: int) -> DigitPoint:
    """Single classical point straight from the Laurent-division definition.

    Slower than the bulk path; serves as its independent cross-check.
    """
    npoly = index_to_poly(n, gv.b)
    coords = tuple(laurent_digits(npoly, qj, gv.modulus, gv.m) for qj in gv.q)
    return DigitPoint(coords)


def interlace_digits(streams, alpha: int) -> DigitVector:
    """Interleave alpha digit vectors of equal precision m into one of alpha*m."""
    if len(streams) != alpha:
        raise ValueError(f"need exactly alpha={alpha} inputs, got {len(streams)}")
    m = streams[0].precision
    b = streams[0].b
    if any(s.precision != m or s.b != b for s in streams):
        raise ValueError("inputs must share base and precision")
    out = [0] * (alpha * m)
    for j, s in enumerate(streams):  # j = 0..alpha-1 for member j+1
        for a, t in enumerate(s.digits):  # a = 0..m-1 for digit a+1
            out[j + a * alpha] = t
    return DigitVector(b, tuple(out))


# -- file formats -------------------------------------------------------------


CSV_CHUNK_ROWS = 64  # rows per write: bounds the Python floats and strings alive at once


def _header(s: int) -> str:
    return ",".join(f"y{j + 1}" for j in range(s)) + "\n"


def write_points_csv(path, blocks):
    """Decimal CSV, one row per point, header y1..ys; each value is repr(float).

    blocks is an iterable of (n_i, s) value arrays written in order (pass
    [values] for one array); the header comes from the first block.
    """
    with open(path, "w") as fh:
        for i, values in enumerate(blocks):
            if i == 0:
                fh.write(_header(values.shape[1]))
            for start in range(0, len(values), CSV_CHUNK_ROWS):
                rows = values[start : start + CSV_CHUNK_ROWS].tolist()
                fh.write("".join(",".join(map(repr, row)) + "\n" for row in rows))


def write_points_digits(path, blocks, b: int):
    """Exactness-preserving format: one base-b digit string per coordinate.

    A coordinate with digits t_1..t_L is written as the string t_1 t_2 ... t_L
    (most significant fractional digit first).  blocks is an iterable of
    (n_i, s, L) digit arrays written in order (pass [digits] for one array);
    the header comes from the first block.
    """
    if b > 7:
        raise ValueError("digit format needs single-character digits (b <= 7)")
    with open(path, "wb") as fh:
        for i, digits in enumerate(blocks):
            n, s, L = digits.shape
            if i == 0:
                fh.write(_header(s).encode())
            text = np.empty((n, s, L + 1), dtype=np.uint8)
            text[..., :L] = digits
            text[..., :L] += ord("0")
            text[..., L] = ord(",")
            text[:, -1, L] = ord("\n")
            fh.write(text.data)  # the buffer itself, not a bytes copy


def read_points_digits(path, b: int) -> np.ndarray:
    """Inverse of :func:`write_points_digits`; exact round trip."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    rows = [ln.split(",") for ln in lines[1:]]
    out = np.array(
        [[[int(ch) for ch in coord] for coord in row] for row in rows], dtype=np.uint8
    )
    if out.size and out.max() >= b:
        raise ValueError(f"digit {out.max()} out of range for base {b}")
    return out
