"""Polynomial lattice point sets and digit interlacing.

A generating vector (b, m, P, q_1..q_d) defines the classical polynomial
lattice point set: point n has coordinate j equal to the first m Laurent
digits of n(x)q_j(x)/P(x).  Interlacing order alpha merges each block of
alpha classical coordinates into one coordinate with alpha*m digits,
yielding a higher-order net of b^m points in s = d/alpha dimensions.

Values are exact integer numerators over b^K, one per K-digit segment
(b^K <= 2^53), rounded as digits_to_values rounds the same digits.  With
the kernel's exponent tables, the residue n q_j mod P of a point n > 0 is
g^(exp n + exp q_j), so coordinate j over all points is a cyclic shift of
one table over the residues.  Member t < alpha of an interlacing block has
one: the numerators its digits make at their positions t + a alpha.  A
coordinate's numerator is a sum of alpha table reads (_numerator_tables),
in exponent order for lattice_points, in point order for value_chunks.

The digits themselves form a digital net: the digits of classical
coordinate j are C_j @ (digits of n) over Z_b, where the generating matrix
C_j is the Hankel matrix of the Laurent digits of q_j/P.  The interlaced net
has its own generating matrices G_k, of shape (alpha*m, m), whose rows are
the rows of C_{k*alpha}, ..., C_{k*alpha+alpha-1} interleaved, so digit
blocks (digit_chunks, the digit file format) come straight from G without a
classical digit cube or an interlacing pass.  They are made in blocks of
R = b^r points bounded by CHUNK_BYTES: a head block of points 0 .. R - 1 is
filled once by b-adic doubling (gfpoly.fill_by_doubling: points
t b^k .. (t+1) b^k - 1 are points 0 .. b^k - 1 plus t times column k of G),
and the block starting at point t R is the head block plus G times the
digits of t R.  Memory is bounded by the block, not by N.
"""

import json
import mmap
from dataclasses import dataclass

import numpy as np

from .gfpoly import (
    DigitVector,
    GfPoly,
    Modulus,
    fill_by_doubling,
    laurent_digits,
    poly_from_string,
    poly_to_string,
)
from .kernel import exponent_tables


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
        if not isinstance(data, dict):
            raise ValueError("top level must be a JSON object")
        for key in ("b", "m", "alpha", "s"):
            if type(data[key]) is not int:
                raise ValueError(f"field {key!r} must be an integer, got {data[key]!r}")
        if data["b"] > 7:  # before any primality test, which is trial division
            raise ValueError("field 'b': digit strings hold bases up to 7")
        if not isinstance(data["P"], str):
            raise ValueError(f"field 'P' must be a digit string, got {data['P']!r}")
        if not (isinstance(data["q"], list) and all(isinstance(v, str) for v in data["q"])):
            raise ValueError(f"field 'q' must be a list of digit strings, got {data['q']!r}")
        b = data["b"]
        modulus = Modulus(poly_from_string(b, data["P"]))
        if modulus.m != data["m"]:
            raise ValueError("modulus degree does not match field 'm'")
        q = tuple(poly_from_string(b, s) for s in data["q"])
        gv = cls(modulus=modulus, alpha=data["alpha"], q=q)
        if gv.s != data["s"]:
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


def classical_digit_array(gv: GeneratingVector) -> np.ndarray:
    """Digits of the classical point set, shape (N, d, m), dtype uint8.

    out[n, j] holds digits t_1..t_m of coordinate j of point n.  Kept as the
    cross-check of the interlaced path; the digit sums stay in uint8, which
    limits the base to b < 128.
    """
    C = _generator_matrices(gv)
    out = np.zeros((gv.n_points, gv.d, gv.m), dtype=np.uint8)
    fill_by_doubling(out, C, gv.b)
    return out


def _block_exponent(gv: GeneratingVector) -> int:
    """The largest r <= m with b^r points' interlaced digits in CHUNK_BYTES (or 0)."""
    r = 0
    while r < gv.m and gv.b ** (r + 1) * gv.s * gv.alpha * gv.m <= CHUNK_BYTES:
        r += 1
    return r


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
    r = _block_exponent(gv)
    head = np.zeros((b**r, *G.shape[:2]), dtype=np.uint8)
    fill_by_doubling(head, G[..., :r], b)
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


def _place_values(b: int, L: int):
    """(Ks, place): the K-digit segments of an L-digit expansion, each K the
    most with b^K <= 2^53 (at least 1), and place (L, len(Ks)) holding
    b^(K-1-i) at [digit, its segment], i its offset there.  digits @ place
    is every segment's integer numerator, exact in any summation order:
    each partial sum is an integer below b^K."""
    Ks = []
    while sum(Ks) < L:
        K = 1
        while sum(Ks) + K < L and b ** (K + 1) <= 2**53:
            K += 1
        Ks.append(K)
    place = np.zeros((L, len(Ks)))
    for k, (start, K) in enumerate(zip(np.cumsum([0] + Ks), Ks)):
        place[start : start + K, k] = b ** np.arange(K - 1, -1, -1, dtype=np.int64)
    return Ks, place


def _values(num: np.ndarray, Ks, b: int) -> np.ndarray:
    """Values from the segment numerators num[k], overwriting num.

    Each numerator is divided once by its b^K, and from the last segment
    back, the value so far is divided by b^K and added: correctly rounded
    for one segment, within about one ulp for more.
    """
    values = num[-1]
    values /= float(b ** Ks[-1])
    for k in range(len(Ks) - 2, -1, -1):
        values /= float(b ** Ks[k])
        num[k] /= float(b ** Ks[k])
        num[k] += values
        values = num[k]
    return values


def digits_to_values(digits: np.ndarray, b: int) -> np.ndarray:
    """Digit arrays (..., L) to floats in [0,1).

    One exact integer numerator per segment (_place_values), then _values:
    correctly rounded when b^L <= 2^53, within about one ulp otherwise.
    """
    L = digits.shape[-1]
    Ks, place = _place_values(b, L)
    rows = digits.reshape(-1, L)
    num = np.empty((len(Ks), len(rows)))
    for i in range(0, len(rows), _ROWS_PER_BLOCK):
        num[:, i : i + _ROWS_PER_BLOCK] = (rows[i : i + _ROWS_PER_BLOCK] @ place).T
    return _values(num.reshape(len(Ks), *digits.shape[:-1]), Ks, b)


def _numerator_tables(gv: GeneratingVector):
    """(pow_enc, exp_of, e, Ks, tables): e[k, t] is the exponent of
    q_(k alpha + t), and tables[t, i, x] the segment-i numerator of member
    t's digits at positions t + a alpha when its residue is g^x.  So point
    n > 0 has numerators sum_t tables[t, :, (exp n + e[k, t]) mod (b^m - 1)]
    in coordinate k.  The digits of r/P, for every residue r, are filled by
    b-adic doubling over the generating matrix of q = 1 and then freed.
    """
    b, m, alpha = gv.b, gv.m, gv.alpha
    _, pow_enc, exp_of = exponent_tables(gv.modulus)
    M = len(pow_enc)
    one = GeneratingVector(gv.modulus, 1, (GfPoly.one(b),))
    digits = np.zeros((M + 1, m), dtype=np.uint8)
    fill_by_doubling(digits, _generator_matrices(one)[0], b)
    Ks, place = _place_values(b, alpha * m)
    place = place.reshape(m, alpha * len(Ks))  # row a, column t: position t + a alpha
    tables = np.empty((alpha * len(Ks), M))
    residues = digits.view(np.dtype((np.void, m))).ravel()  # one item a digit row
    rows = max(1, CHUNK_BYTES // (8 * m))  # digits cast to float64 at a time
    for i in range(0, M, rows):
        block = np.take(residues, pow_enc[i : i + rows]).view(digits.dtype).reshape(-1, m)
        np.matmul(place.T, block.T, out=tables[:, i : i + rows])
    del digits, residues
    e = exp_of[[qj.to_int() for qj in gv.q]].reshape(gv.s, alpha)
    return pow_enc, exp_of, e, Ks, tables.reshape(alpha, len(Ks), M)


def lattice_points(gv: GeneratingVector) -> np.ndarray:
    """Interlaced lattice points as an (N, s) float array, the quadrature view.

    Filled in exponent order: for the points g^i, i0 <= i < i1, coordinate k
    reads slices tables[t, :, e[k, t] + i0 : e[k, t] + i1] of the doubled
    tables, and the block goes in place with one scatter.
    """
    pow_enc, _, e, Ks, tables = _numerator_tables(gv)
    tables = np.concatenate([tables, tables], axis=-1)
    out = np.empty((gv.n_points, gv.s))
    out[0] = 0.0
    R = gv.b ** _block_exponent(gv)
    for i0 in range(0, len(pow_enc), R):
        n = min(R, len(pow_enc) - i0)
        num = np.empty((len(Ks), gv.s, n))
        for k, lo in enumerate(e + i0):
            num[:, k] = tables[0, :, lo[0] : lo[0] + n]
            for t in range(1, gv.alpha):
                num[:, k] += tables[t, :, lo[t] : lo[t] + n]
        out[pow_enc[i0 : i0 + n]] = _values(num, Ks, gv.b).T
    return out


def value_chunks(gv: GeneratingVector):
    """lattice_points' values of points 0 .. N - 1, in order, as fresh
    (R, s) blocks, R as in digit_chunks, read at exponents exp_of[n] + e."""
    _, exp_of, e, Ks, tables = _numerator_tables(gv)
    R = gv.b ** _block_exponent(gv)
    for start in range(0, gv.n_points, R):
        at = exp_of[start : start + R, None] + e.T[:, None, :]  # (alpha, R, s)
        num = np.empty((len(Ks), *at.shape[1:]))
        for i in range(len(Ks)):
            np.take(tables[0, i], at[0], out=num[i], mode="wrap")
            for t in range(1, gv.alpha):
                num[i] += tables[t, i].take(at[t], mode="wrap")
        values = _values(num, Ks, gv.b)
        if start == 0:
            values[0] = 0.0  # exp_of[0] is -1: the origin has no exponent
        yield values


# -- exact-digit oracle ----------------------------------------------------


def point_for_index(gv: GeneratingVector, n: int) -> DigitPoint:
    """Single classical point straight from the Laurent-division definition.

    Slower than the bulk path; serves as its independent cross-check.
    """
    npoly = GfPoly.from_int(gv.b, n)
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


# values per write: bounds the Python floats and strings of the repr path and
# the scratch arrays of the dyadic one (about 300 bytes a value), whatever N is
CSV_CHUNK_VALUES = 1 << 12


def _header(s: int) -> str:
    return ",".join(f"y{j + 1}" for j in range(s)) + "\n"


class _DyadicFormatter:
    """repr of values k/2^L, L <= 32, by exact integer arithmetic on whole arrays.

    A value v = k/2^W (W the least multiple of 8 >= L) is D 10^-W with
    D = k 5^W, and every decimal within half a gap of v reads back as v: the
    mantissa of v is even, so ties go to v.  At scale 10^-W the half-gap is
    H = floor(5^W / 2^(53 - floor(log2 k))) < 5.6e15 on both sides (the gap
    below a power of two is half as wide, but the powers of two above 1e-4
    are their own shortest decimals).  repr is the shortest decimal in
    [D - H, D + H], nearest D, ties to an even last digit (Gay's dtoa,
    mode 0).  With B = D + H, its digits are the first W - r* digits of B,
    r* the largest r with B mod 10^r <= 2H, the last of them lowered to the
    candidate nearest D, which never borrows.  Values below 1e-4, which repr
    writes in exponent form, go through repr one by one.  The scratch arrays
    are sized for the largest block seen and reused.
    """

    def __init__(self, s: int):
        self.s = s
        self.n = 0
        self.gap_tables = {}

    def _allocate(self, n: int):
        fields = [
            ("f", (n,), np.float64),
            ("k", (n,), np.int64),
            ("exp", (n,), np.int32),
            ("flag", (n,), bool),
            ("gaps", (5, n), np.int64),
            ("limbs", (4, n), np.int64),  # base 10^8, least significant first
            ("low", (n,), np.int64),
            ("groups", (8 * n,), np.int32),
            ("digits", (8 * n,), np.uint32),
            ("text", (35 * n,), np.uint8),
            ("keep", (35 * n,), bool),
            ("out", (35 * n,), np.uint8),
            ("seps", (n,), np.uint8),
            ("digit_table", (10, 10, 10, 10, 4), np.uint8),
        ]
        sizes = [-(-np.prod(shape) * np.dtype(dtype).itemsize // 64) * 64 for _, shape, dtype in fields]
        # One anonymous mapping, outside the malloc heap: there, scratch blocks
        # placed among the ones fast_cbc and lattice_points free kept the heap
        # from shrinking after an export (peak RSS up to 16 MB higher over a
        # construct-then-export loop at spod-heavy's size).
        mapping = np.frombuffer(mmap.mmap(-1, sum(sizes)), np.uint8)
        start = 0
        for (name, shape, dtype), size in zip(fields, sizes):
            setattr(self, name, mapping[start : start + size].view(dtype)[: np.prod(shape)].reshape(shape))
            start += size
        self.n = n
        self.seps[:] = ord(",")
        self.seps[self.s - 1 :: self.s] = ord("\n")
        # "0000" .. "9999", one uint32 each, to write digits four at a time
        digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
        for place in range(4):
            self.digit_table[..., place] = digit.reshape((10,) + (1,) * (3 - place))
        self.digit_table = self.digit_table.view(np.uint32).reshape(-1)

    def _gap_table(self, W: int) -> np.ndarray:
        """Rows H, 2H, 10^r0, 10^(r0+1), W - 1 - r0 by column floor(log2 k).

        r0 = floor(log10(2H + 1)), the largest r with 10^r - 1 <= 2H.
        """
        if W not in self.gap_tables:
            cols = []
            for e in range(W):
                H = 5**W >> (53 - e)
                r0 = len(str(2 * H + 1)) - 1
                cols.append((H, 2 * H, 10**r0, 10 ** (r0 + 1), W - 1 - r0))
            self.gap_tables[W] = np.array(cols, np.int64).T.copy()
        return self.gap_tables[W]

    def format(self, rows: np.ndarray):
        """The bytes of the CSV lines of rows, as a uint8 view of the scratch
        space valid until the next call; None unless every value is k/2^L
        with 0 <= k < 2^L, L <= 32."""
        v = rows.reshape(-1)
        n = v.size
        if n == 0 or not (v.min() >= 0.0 and v.max() < 1.0):  # NaN fails too
            return None
        if n > self.n:
            self._allocate(n)
        f, k, flag = self.f[:n], self.k[:n], self.flag[:n]
        np.multiply(v, 2.0**32, out=f)
        np.copyto(k, f, casting="unsafe")
        if not np.equal(k, f, out=flag).all():
            return None
        bits = int(np.bitwise_or.reduce(k))
        L = 32 - ((bits & -bits).bit_length() - 1) if bits else 1
        W = -(-L // 8) * 8
        np.right_shift(k, 32 - W, out=k)
        nl = W // 8

        # the gap, by the binary exponent of v: floor(log2 k) = exp - 1 + W
        exp = self.exp[:n]
        np.frexp(v, out=(f, exp))
        np.add(exp, W - 1, out=exp)
        gaps = self.gaps[:, :n]
        np.take(self._gap_table(W), exp, axis=1, out=gaps, mode="clip")
        H, H2, p0, p1, last = gaps

        # B = k 5^W + H in base-10^8 limbs; k < 2^32, so no product passes 2^59
        B = self.limbs[:nl, :n]
        for j in range(nl):
            np.multiply(k, 5**W // 10 ** (8 * j) % 10**8, out=B[j])
        B[0] += H
        for j in range(nl - 1):
            np.divmod(B[j], 10**8, out=(k, B[j]))
            B[j + 1] += k

        # B as W ascii digits, four at a time
        groups = self.groups[: n * W // 4].reshape(n, W // 4)
        for j in range(nl):
            col = 2 * (nl - 1 - j)
            np.divmod(B[j], 10**4, out=(groups[:, col], groups[:, col + 1]))
        digits = self.digits[: n * W // 4].reshape(n, W // 4)
        np.take(self.digit_table, groups, out=digits, mode="clip")
        chars = digits.view(np.uint8).reshape(n, W)

        # r* is r0 + 1 where B mod 10^(r0+1) <= 2H (then also every further r
        # over a run of zero digits), else r0; 2H < 1.2e16 keeps r0 + 1 <= 17
        low = self.low[:n]  # B mod 10^17
        np.copyto(low, B[0])
        if nl > 1:
            low += B[1] * 10**8
        if nl > 2:
            low += B[2] % 10 * 10**16
        np.remainder(low, p1, out=low)
        np.less_equal(low, H2, out=flag)
        last -= flag  # column of the last digit kept

        # T = floor(B / 10^r*) is the largest candidate.  At r* = r0 + 1 it is
        # the only one (10^r* > 2H); at r0, T - q and T - q - 1 bracket D, with
        # c = T 10^r0 - D = q 10^r0 + u <= H, so the nearer of them is a candidate
        c = H - low % p0
        at = np.flatnonzero((c > 0) & ~flag)
        c, g = c[at], p0[at]
        q, u = np.divmod(c, g)
        col = last[at]
        odd = (chars[at, col] + q) % 2 == 1  # the digit of T - q - 1 is even
        lower = (u > 0) & ((2 * u > g) | ((2 * u == g) & odd))
        chars[at, col] -= (q + lower).astype(np.uint8)

        # digits kept: through column last, less its trailing zeros
        np.less(v, 1e-4, out=flag)
        special = np.flatnonzero(flag)
        ar = np.arange(n)
        starts = ar * W
        run = np.flatnonzero(chars.reshape(-1)[starts + last] == ord("0"))
        run = run[~flag[run]]  # values below 1e-4 may be all zeros; repr writes them
        while run.size:
            last[run] -= 1
            run = run[chars.reshape(-1)[starts[run] + last[run]] == ord("0")]

        # fixed-width "0." + digits slots, each cut after its separator
        width = W + 3
        text = self.text[: n * width].reshape(n, width)
        text[:, 0] = ord("0")
        text[:, 1] = ord(".")
        text[:, 2 : W + 2] = chars
        end = last + 3  # the separator's column
        for i in special:
            word = repr(float(v[i])).encode()
            text[i, : len(word)] = np.frombuffer(word, np.uint8)
            end[i] = len(word)
        text[ar, end] = self.seps[:n]
        keep = self.keep[: n * width].reshape(n, width)
        np.take(np.arange(width) <= np.arange(width)[:, None], end, axis=0, out=keep)
        out = self.out[: int(end.sum()) + n]
        return np.compress(keep.reshape(-1), text.reshape(-1), out=out)


def write_points_csv(path, blocks):
    """Decimal CSV, one row per point, header y1..ys; each value is repr(float).

    blocks is an iterable of (n_i, s) value arrays written in order (pass
    [values] for one array); the header comes from the first block.  Rows
    whose values are all k/2^L with L <= 32 (base-2 points up to alpha*m =
    32) are formatted by exact integer arithmetic (_DyadicFormatter), others
    by repr one value at a time; the bytes are the same.  The file is written
    in binary, so lines end in "\n" on every platform.
    """
    with open(path, "wb") as fh:
        for i, values in enumerate(blocks):
            s = values.shape[1]
            if i == 0:
                fh.write(_header(s).encode())
                dyadic = _DyadicFormatter(s)
            step = max(1, CSV_CHUNK_VALUES // s)
            for start in range(0, len(values), step):
                rows = values[start : start + step]
                text = dyadic.format(rows)
                if text is None:
                    text = "".join(",".join(map(repr, row)) + "\n" for row in rows.tolist()).encode()
                fh.write(text)


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

