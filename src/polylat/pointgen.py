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
one: the numerators its digits make at their positions t + a alpha.  The
digits are reads of the exponent tables too: digit 1 of r/P is r's
coefficient of x^(m-1) over P's leading one, and digit a + 1 of g^x/P is
digit 1 of x^a g^x/P = g^(x + a c)/P, c the exponent of x.  A coordinate's
numerator is a sum of alpha table reads (_numerator_tables), in exponent
order for lattice_points, in point order for value_chunks.  The exponent
tables are the kernel's memo, not rebuilt after a construction on P.

Coordinates whose tuples (q_(k alpha + 1), ..., q_(k alpha + alpha)) are
equal are equal at every point (distinct_coordinates maps each coordinate
to the first with its tuple).  The CSV export computes the distinct ones
only (value_chunks), formats each of their values once and joins the rows
through the map (write_points_csv), so a vector with repeated coordinates
costs the formatting of its distinct ones.

The digits themselves form a digital net: the digits of classical
coordinate j are C_j @ (digits of n) over Z_b, where the generating matrix
C_j is the Hankel matrix of the Laurent digits of q_j/P.  The interlaced net
has its own generating matrices G_k, of shape (alpha*m, m), whose rows are
the rows of C_{k*alpha}, ..., C_{k*alpha+alpha-1} interleaved, so the digit
file (write_points_digits) comes straight from G without a classical digit
cube or an interlacing pass.  Its rows are made in file layout, in blocks
of R = b^r points whose bytes fit in CHUNK_BYTES: a head block of points
0 .. R - 1 is filled once by b-adic doubling (gfpoly.fill_by_doubling:
points t b^k .. (t+1) b^k - 1 are points 0 .. b^k - 1 plus t times column
k of G), and the block starting at point t R is the head block plus G
times the digits of t R; one table of '0', ',' and '\\n' turns a block into
text.  Memory is bounded by the block, not by N.
"""

import json
import mmap
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

# digit (or digit-file) bytes per block of points; measured faster than
# 1 MiB and 8 MiB
CHUNK_BYTES = 1 << 22

# digit-file bytes per pass over a block: the four passes of a slice run while
# it is in cache (measured faster than whole blocks, 64 KiB and 1 MiB)
_SLICE_BYTES = 1 << 18


def _generator_matrices(gv: GeneratingVector) -> np.ndarray:
    """Generating matrices C_j of the classical net, shape (d, m, m), int64.

    C_j[l, i] is Laurent digit l + i + 1 of q_j/P (a Hankel matrix): it is
    digit l + 1 of x^i q_j/P, the digits of n q_j/P being linear in n.  By
    linearity in q_j it is sum_k q_jk u_(l+i+k+1), with u the digits of 1/P.
    """
    b, m = gv.b, gv.m
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
    if gv.b >= 128:
        raise ValueError(f"uint8 digit arithmetic needs b < 128, got b={gv.b}")
    C = _generator_matrices(gv)
    out = np.zeros((gv.n_points, gv.d, gv.m), dtype=np.uint8)
    fill_by_doubling(out, C, gv.b)
    return out


def _block_exponent(gv: GeneratingVector, point_bytes: int, budget: int) -> int:
    """The largest r <= m with b^r points of point_bytes each in budget bytes (or 0)."""
    r = 0
    while r < gv.m and gv.b ** (r + 1) * point_bytes <= budget:
        r += 1
    return r


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
    in coordinate k.  Digit a + 1 of g^x/P is top[(x + a c) mod (b^m - 1)],
    top the top digits of pow_enc times lead(P)^-1 mod b and c = exp_of[b]
    (a = 0 only, at m = 1): a chunk of digits is m slices of top, doubled.
    """
    b, m, alpha = gv.b, gv.m, gv.alpha
    _, pow_enc, exp_of = exponent_tables(gv.modulus)
    M = len(pow_enc)
    digit = np.arange(b) * pow(gv.modulus.poly.coeffs[-1], -1, b) % b  # by top coefficient
    top = np.tile(digit.astype(np.min_scalar_type(b - 1))[pow_enc // b ** (m - 1)], 2)
    shifts = np.arange(m) * (exp_of[b] if m > 1 else 0) % M
    Ks, place = _place_values(b, alpha * m)
    place = place.reshape(m, alpha * len(Ks))  # row a, column t: position t + a alpha
    tables = np.empty((alpha * len(Ks), M))
    rows = max(1, CHUNK_BYTES // (8 * m))  # digits cast to float64 at a time
    for i in range(0, M, rows):
        n = min(rows, M - i)
        np.matmul(place.T, sliding_window_view(top, n)[shifts + i], out=tables[:, i : i + n])
    e = exp_of[[qj.to_int() for qj in gv.q]].reshape(gv.s, alpha)
    return pow_enc, exp_of, e, Ks, tables.reshape(alpha, len(Ks), M)


def lattice_points(gv: GeneratingVector) -> np.ndarray:
    """Interlaced lattice points as an (N, s) float array, the quadrature view.

    Filled in exponent order: for the points g^i, i0 <= i < i1, coordinate k
    reads slices tables[t, :, e[k, t] + i0 : e[k, t] + i1] of the doubled
    tables, and the block goes in place with one scatter.  A block holds
    R = b^r exponents, R the largest power of b whose float64 numerators
    fit in half of CHUNK_BYTES (measured faster than a whole chunk), and
    every block reuses one buffer.
    """
    pow_enc, _, e, Ks, tables = _numerator_tables(gv)
    tables = np.concatenate([tables, tables], axis=-1)
    out = np.empty((gv.n_points, gv.s))
    out[0] = 0.0
    R = gv.b ** _block_exponent(gv, 8 * gv.s * len(Ks), CHUNK_BYTES // 2)
    buffer = np.empty((len(Ks), gv.s, min(R, len(pow_enc))))
    for i0 in range(0, len(pow_enc), R):
        n = min(R, len(pow_enc) - i0)
        num = buffer[..., :n]
        for k, lo in enumerate(e + i0):
            num[:, k] = tables[0, :, lo[0] : lo[0] + n]
            for t in range(1, gv.alpha):
                num[:, k] += tables[t, :, lo[t] : lo[t] + n]
        out[pow_enc[i0 : i0 + n]] = _values(num, Ks, gv.b).T
    return out


def distinct_coordinates(gv: GeneratingVector):
    """(first, columns) for the coordinate tuples (q_(k alpha + 1), ...,
    q_(k alpha + alpha)), k < s: first holds the coordinates whose tuple no
    earlier coordinate has, in order, and columns[k] is the i with tuple k
    equal to tuple first[i].  Equal tuples give equal coordinates at every
    point, so coordinate k is coordinate first[columns[k]]."""
    slot = {}
    alpha = gv.alpha
    columns = np.array([slot.setdefault(gv.q[k * alpha : (k + 1) * alpha], len(slot))
                        for k in range(gv.s)])
    return np.unique(columns, return_index=True)[1], columns


def value_chunks(gv: GeneratingVector):
    """lattice_points' values of points 0 .. N - 1 in the u distinct
    coordinates (first of distinct_coordinates), in order, as fresh (R, u)
    blocks; R = b^r is the largest power of b with R u alpha m <= CHUNK_BYTES
    (at least 1, at most N).  Point n reads the doubled tables at exponents
    exp_of[n] + e, all in [-1, 2M - 2]: -1 is the origin's, whose row is set
    to 0.
    """
    _, exp_of, e, Ks, tables = _numerator_tables(gv)
    tables = np.concatenate([tables, tables], axis=-1)
    e = e[distinct_coordinates(gv)[0]]
    R = gv.b ** _block_exponent(gv, len(e) * gv.alpha * gv.m, CHUNK_BYTES)
    for start in range(0, gv.n_points, R):
        at = exp_of[start : start + R, None] + e.T[:, None, :]  # (alpha, R, u)
        num = np.empty((len(Ks), *at.shape[1:]))
        for i in range(len(Ks)):
            np.take(tables[0, i], at[0], out=num[i])
            for t in range(1, gv.alpha):
                num[i] += tables[t, i].take(at[t])
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


# distinct values formatted at a time, and file values packed per write: bounds
# the Python floats and strings of the repr path and the scratch arrays of the
# dyadic one (about 350 bytes a value), whatever N is
CSV_CHUNK_VALUES = 1 << 12


def _header(s: int) -> str:
    return ",".join(f"y{j + 1}" for j in range(s)) + "\n"


# The gap below a power of two is half as wide as above it.  At L <= 32 these
# two are the only powers of two whose repr the symmetric gap gets wrong (the
# others, tried one by one, come out the same), so they are written as repr.
_NARROW_GAP = {v: repr(v).encode() for v in (2.0**-24, 2.0**-25)}

# "e-00" .. "e-10": the exponents of values k/2^L below 1e-4, L <= 32
_EXPONENTS = np.frombuffer(b"".join(b"e-%02d" % e for e in range(11)), np.uint8).reshape(11, 4)


class _DyadicFormatter:
    """repr of values k/2^L, L <= 32, by exact integer arithmetic on whole arrays.

    A value v = k/2^W (W the least multiple of 8 >= L) is D 10^-W with
    D = k 5^W, and every decimal within half a gap of v reads back as v: the
    mantissa of v is even, so ties go to v.  At scale 10^-W the half-gap is
    H = floor(5^W / 2^(53 - floor(log2 k))) < 5.6e15 on both sides (the gap
    below a power of two is half as wide, which changes the answer only for
    the two in _NARROW_GAP).  repr is the shortest decimal in
    [D - H, D + H], nearest D, ties to an even last digit (Gay's dtoa,
    mode 0).  With B = D + H, its digits are the first W - r* digits of B,
    r* the largest r with B mod 10^r <= 2H, the last of them lowered to the
    candidate nearest D, which never borrows.  Values below 1e-4 take the
    same digits in repr's exponent form.

    A file row has s values, of which its u distinct ones are formatted:
    value k of a row is distinct value columns[k] (distinct_coordinates).
    slots turns up to slot_rows rows of distinct values into fixed-width
    records "0.ddd" with the column where each one's separator goes; pack
    turns up to pack_rows of those rows into CSV lines, gathering the
    records through columns, or in place when columns is the identity.
    The scratch arrays live in one mapping sized for the largest call seen
    and reused.
    """

    def __init__(self, columns: np.ndarray):
        self.columns = columns
        self.s = len(columns)
        self.u = int(columns.max()) + 1
        self.slot_rows = max(1, CSV_CHUNK_VALUES // self.u)
        self.pack_rows = max(1, CSV_CHUNK_VALUES // self.s)
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
            ("base", (n,), np.int64),  # slot of each packed value, from row 0
            ("index", (n,), np.int64),
            ("gathered", (35 * n,), np.uint8),
            ("gathered_end", (n,), np.int64),
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
        self.base[:] = np.arange(n) // self.s * self.u + np.resize(self.columns, n)
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

    def slots(self, rows: np.ndarray) -> bool:
        """Format rows, at most slot_rows of u distinct values, as the records
        pack reads; False, with nothing formatted, unless every value is
        k/2^L with 0 <= k < 2^L, L <= 32."""
        v = rows.reshape(-1)
        n = v.size
        if n == 0:
            return False
        lo = v.min()
        if not (lo >= 0.0 and v.max() < 1.0):  # NaN fails too
            return False
        size = max(n, min(len(rows), self.pack_rows) * self.s)
        if size > self.n:
            self._allocate(size)
        f, k, flag = self.f[:n], self.k[:n], self.flag[:n]
        np.multiply(v, 2.0**32, out=f)
        np.copyto(k, f, casting="unsafe")
        if not np.equal(k, f, out=flag).all():
            return False
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

        # digits kept: through column last, less its trailing zeros; 0.0 keeps
        # one, and every other value a nonzero digit, so no run passes column 0
        ar = np.arange(n)
        starts = ar * W
        zeros = np.flatnonzero(v == 0.0) if lo == 0.0 else ar[:0]
        chars[zeros, 0] = ord("0")
        last[zeros] = 0
        run = np.flatnonzero(chars.reshape(-1)[starts + last] == ord("0"))
        run = run[last[run] > 0]
        while run.size:
            last[run] -= 1
            run = run[chars.reshape(-1)[starts[run] + last[run]] == ord("0")]

        # fixed-width "0." + digits slots, each cut after its separator
        width = W + 3
        text = self.text[: n * width].reshape(n, width)
        text[:, 0] = ord("0")
        text[:, 1] = ord(".")
        text[:, 2 : W + 2] = chars
        last += 3
        end = last  # the separator's column

        # below 1e-4, repr's exponent form: d.ddde-XX (de-XX for one digit),
        # the digits from the leading one, at column lead >= 4, XX = lead + 1
        if lo < 1e-4:
            np.less(v, 1e-4, out=flag)
            flag[zeros] = False
            small = np.flatnonzero(flag)
            lead = np.argmax(chars[small] != ord("0"), axis=1)
            cols = np.minimum(lead[:, None] + np.arange(W - 4), W - 1)
            mantissa = chars.reshape(-1)[cols + (small * W)[:, None]]
            text[small, 0] = mantissa[:, 0]
            text[small, 2 : W - 3] = mantissa[:, 1:]
            after = end[small] - 3 - lead  # digits after the leading one
            at = np.where(after > 0, after + 2, 1)  # the e's column
            text[small[:, None], at[:, None] + np.arange(4)] = _EXPONENTS[lead + 1]
            end[small] = at + 4
            for x, word in _NARROW_GAP.items():  # only where W >= 24
                rows = small[v[small] == x]
                if rows.size:
                    text[rows, : len(word)] = np.frombuffer(word, np.uint8)
                    end[rows] = len(word)
        self.width, self.slot_text, self.slot_end = width, text, end
        return True

    def pack(self, start: int, stop: int) -> np.ndarray:
        """The bytes of the CSV lines of rows start .. stop - 1 of the last
        slots call, at most pack_rows of them, as a uint8 view of the scratch
        space valid until the next call."""
        s, width = self.s, self.width
        n = (stop - start) * s
        if self.u == s:  # the identity: the records are the values in order
            text = self.slot_text[start * s : stop * s]
            end = self.slot_end[start * s : stop * s]
        else:
            at = np.add(self.base[:n], start * self.u, out=self.index[:n])
            text = self.gathered[: n * width].reshape(n, width)
            np.take(self.slot_text, at, axis=0, out=text, mode="clip")
            end = np.take(self.slot_end, at, out=self.gathered_end[:n], mode="clip")
        text[np.arange(n), end] = self.seps[:n]
        keep = self.keep[: n * width].reshape(n, width)
        np.take(np.arange(width) <= np.arange(width)[:, None], end, axis=0, out=keep)
        out = self.out[: int(end.sum()) + n]
        return np.compress(keep.reshape(-1), text.reshape(-1), out=out)


def write_points_csv(path, blocks, columns=None):
    """Decimal CSV, one row per point, header y1..ys; each value is repr(float).

    blocks is an iterable of (n_i, u) value arrays written in order (pass
    [values] for one array).  Column k of the file is column columns[k] of
    the blocks, as value_chunks' blocks of distinct coordinates map through
    distinct_coordinates' columns; by default (None) every column once, in
    order.  Each block value is formatted once: when all of up to
    CSV_CHUNK_VALUES of them are k/2^L with L <= 32 (base-2 points up to
    alpha*m = 32), by exact integer arithmetic (_DyadicFormatter), else by
    repr, and the rows are joined through columns, at most CSV_CHUNK_VALUES
    file values a write; the bytes are the same.  The file is written in
    binary, so lines end in "\n" on every platform.
    """
    with open(path, "wb") as fh:
        for i, values in enumerate(blocks):
            if i == 0:
                columns = np.arange(values.shape[1]) if columns is None else np.asarray(columns)
                fh.write(_header(len(columns)).encode())
                dyadic = _DyadicFormatter(columns)
            for start in range(0, len(values), dyadic.slot_rows):
                rows = values[start : start + dyadic.slot_rows]
                if dyadic.slots(rows):
                    strings = None
                else:
                    strings = np.array(list(map(repr, rows.reshape(-1).tolist())), dtype=object)
                    strings = strings.reshape(rows.shape)
                for lo in range(0, len(rows), dyadic.pack_rows):
                    hi = min(lo + dyadic.pack_rows, len(rows))
                    if strings is None:
                        fh.write(dyadic.pack(lo, hi))
                    else:
                        lines = strings[lo:hi, columns].tolist()
                        fh.write("".join(",".join(line) + "\n" for line in lines).encode())


def write_points_digits(path, gv: GeneratingVector):
    """Exactness-preserving format: one base-b digit string per coordinate.

    A coordinate with interlaced digits t_1..t_L, L = alpha*m, is written as
    the string t_1 t_2 ... t_L (most significant fractional digit first),
    header y1..ys, one row per point in point order.  Rows are made in file
    layout, (R, s, L + 1) bytes a block of R = b^r points, R the largest
    power of b whose block fits in CHUNK_BYTES (at least 1, at most N): G
    gets a zero row L, so every digit sum leaves the separator column 0.
    The head block H of points 0 .. R - 1 is filled once by doubling over
    the low r columns of G; the block starting at point t R is H plus G
    times the digits of t R mod b, which carries nowhere because the low r
    digits of t R are zero.  Adding '0' to the digit columns and ',' or
    '\\n' to the separators makes the block the file's bytes, written as
    they are.  The four passes run slice by slice, _SLICE_BYTES of rows
    each, the wrap temporary a slice; it and the block are buffers kept for
    the whole file.
    """
    b, m, s, L = gv.b, gv.m, gv.s, gv.alpha * gv.m
    if b > 7:
        raise ValueError("digit format needs single-character digits (b <= 7)")
    G = np.zeros((s, L + 1, m), dtype=np.int64)
    G[:, :L] = interlaced_generator_matrices(gv)
    r = _block_exponent(gv, s * (L + 1), CHUNK_BYTES)
    head = np.zeros((b**r, s, L + 1), dtype=np.uint8)
    fill_by_doubling(head, G[..., :r], b)
    high = G[..., r:]
    ascii = np.full((s, L + 1), ord("0"), dtype=np.uint8)
    ascii[:, L] = ord(",")
    ascii[-1, L] = ord("\n")
    rows = max(1, _SLICE_BYTES // (s * (L + 1)))
    block, wrap = np.empty_like(head), np.empty_like(head[:rows])
    with open(path, "wb") as fh:
        fh.write(_header(s).encode())
        for t in range(b ** (m - r)):
            digits = np.array([t // b**k % b for k in range(m - r)], dtype=np.int64)
            offset = (high @ digits % b).astype(np.uint8)
            for i in range(0, len(head), rows):
                part = block[i : i + rows]
                np.add(head[i : i + rows], offset, out=part)
                w = np.subtract(part, np.uint8(b), out=wrap[: len(part)])  # wraps above where < b
                np.minimum(part, w, out=part)
                part += ascii
            fh.write(block.data)  # the buffer itself, not a bytes copy

