"""The error kernel omega and FFT-accelerated candidate scoring.

The CBC search repeatedly needs, for every candidate polynomial q with
0 < deg(q) < m, the weighted sum sum_n omega(y^(n)(q)) v(n) over the
point indices n = 1..b^m-1, where y^(n)(q) is the classical lattice
coordinate generated by q.  Indexing rows by n = g^i and columns by
q = g^k for a generator g of the multiplicative group of Z_b[x]/(P)
makes the matrix entry a function of (i+k) mod (b^m-1) alone (Rader's
permutation).  One stored column c therefore describes the whole matrix:
every candidate column is a cyclic shift of c, and all candidate scores
at once are one cyclic cross-correlation with c, in O(N log N).

The correlation is shorter than b^m - 1.  lambda = g^T with
T = (b^m-1)/(b-1) has order b-1, so it is a scalar of Z_b^*, and
multiplying by a scalar keeps every degree: c has period T, and q and
lambda q have the same column.  So do the rows: every per-point quantity
of the CBC recursion, a product or sum of omega(n q_j), is constant on each
scalar class {lambda n} and lives in T + 1 class slots, b-1 times less
work and memory than one entry per point.  Slot 0 is the point n = 0, slot
1 + i the class of g^i (class_of maps a point to its slot); slot_column(q)
is omega(0), then class_column(q), the window c2[e : e + T] at
e = exp(q) mod T.  The slot methods round as a point-by-point recursion
would: point_mean sums all b^m points in natural order, exact_scores
rescores against the vector spread to natural order (each column a window
of c stored twice, no index reduced mod b^m-1), and class_scores folds
each class's b-1 points as f + f + ... + f, left to right ((b-1) f rounds
differently from b = 7 on).  multiply correlates the T folded entries
with c[:T] as a real FFT zero-padded to the smallest power of b that is at
least 2T-1 (b^m for b >= 3, 2^(m+1) for b = 2): one score per scalar
class {lambda q}, T of them.

omega itself depends only on the position of the first nonzero base-b
digit of its argument (it is constant on each scale shell).  For a nonzero
residue a of degree k < m, a(x)/P(x) = x^(k-m) (lead a / lead P) + lower
powers, so its first nonzero Laurent digit sits at position m - k: the
column is read off the exact degree of each residue, never from a digit
expansion or a floating-point log.

The exponent tables (exponent_tables: the generator, pow_enc and exp_of)
belong to the modulus alone, and they are memoized for the last modulus
only, keyed by value: OmegaMatrix (the CBC search), pointgen's
lattice_points and value_chunks (the point values and the CSV export) share
one build when they run on the same modulus, and memory holds at most one
table set.  The memoized arrays are read-only.
"""

import functools
import operator

import numpy as np

from .gfpoly import Modulus, fill_by_doubling, mul_mod_matrix, primitive_element
from .gfpoly import poly_mul_mod  # unused here; the benchmark's tracer wraps it by name


def omega_at_position(position, alpha: int, b: int) -> float:
    """omega for an argument whose first nonzero digit sits at `position`.

    position None encodes the argument 0, for which the scale factor is
    defined to vanish.
    """
    base = (b - 1.0) / (float(b) ** alpha - b)
    if position is None:
        return base
    scale = float(b) ** (-position * (alpha - 1))
    return base - scale * (float(b) ** alpha - 1.0) / (float(b) ** alpha - b)


# pointer doubling stops at blocks of this many exponents: each further
# doubling costs a gather over all b^m residues, a further block only L entries
_DOUBLING_ROWS = 1 << 8


@functools.lru_cache(maxsize=1)
def exponent_tables(modulus: Modulus):
    """(g, pow_enc, exp_of) for the smallest generator g of Z_b[x]/(P)^*.

    pow_enc[r] is the integer encoding of g^r, r < b^m - 1, and exp_of[enc]
    its exponent (exp_of[0] = -1, since zero has no discrete log).  pow_enc
    is built from step[n] = encoding of g n mod P, filled for every residue
    by b-adic doubling over mul_mod_matrix(g), by pointer doubling:
    pow_enc[L : 2L] = step[pow_enc[: L]], then step <- step o step, until
    L = _DOUBLING_ROWS; then block by block, pow_enc[i : i + L] =
    step[pow_enc[i - L : i]].

    Memoized for the last modulus only: an equal Modulus (say, one reloaded
    from a vector file) gets the same read-only arrays back, a different one
    replaces them.  OmegaMatrix and pointgen's value paths share them.
    """
    b, m = modulus.b, modulus.m
    M = b**m - 1
    generator = primitive_element(modulus)
    digits = np.zeros((M + 1, m), dtype=np.min_scalar_type(2 * b - 1))
    fill_by_doubling(digits, mul_mod_matrix(generator, modulus), b)
    step = np.zeros(M + 1, dtype=np.int64)
    for k in reversed(range(m)):  # Horner, not digits @ b^k: no int64 copy of digits
        step *= b
        step += digits[:, k]
    del digits
    pow_enc = np.ones(M, dtype=np.int64)  # g^0 = 1; the rest is overwritten
    L = 1
    while L < min(M, _DOUBLING_ROWS):
        pow_enc[L : 2 * L] = step[pow_enc[: min(L, M - L)]]
        step, L = step[step], 2 * L
    for i in range(L, M, L):  # step is now n -> g^L n
        pow_enc[i : i + L] = step[pow_enc[i - L : min(i, M - L)]]
    del step
    exp_of = np.full(M + 1, -1, dtype=np.int64)  # -1: zero has no log
    exp_of[pow_enc] = np.arange(M)
    pow_enc.flags.writeable = exp_of.flags.writeable = False
    return generator, pow_enc, exp_of


class OmegaMatrix:
    """Rader-permuted circulant form of the candidate-score matrix.

    Stores one length-(b^m - 1) column c with c[r] = omega of the residue
    g^r (also doubled, so every cyclic shift is a slice), the permutation
    between group exponents and the integer encodings of nonzero residues
    (pow_enc[r] is the encoding of g^r, exp_of[enc] its exponent;
    exp_of[0] = -1, since zero has no discrete log), and the transform of
    one period c[:T], T = (b^m-1)/(b-1), padded to fft_len, used for
    scoring.  The degrees of g^r, r < T, are kept as uint8, doubled as c
    is.  class_enc[i] is the smallest encoding of the scalar class of g^i,
    its monic member; class_of[n] is the class slot of point n (0 for
    n = 0, 1 + exp(n) mod T otherwise).  Immutable after construction;
    multiplies are pure.  pow_enc and exp_of are exponent_tables' read-only
    memo, shared with pointgen.
    """

    def __init__(self, modulus: Modulus, alpha: int):
        if alpha < 2:
            raise ValueError("order must be >= 2")
        self.modulus = modulus
        self.alpha = alpha
        self.b = modulus.b
        self.m = modulus.m
        b, m = self.b, self.m
        self.n_points = b**m
        M = self.n_points - 1
        self.size = M

        self.generator, self.pow_enc, self.exp_of = exponent_tables(modulus)

        # circulant column c[r] = omega(g^r): the leading Laurent digit of
        # g^r / P sits at position m - deg(g^r)
        deg = np.searchsorted(b ** np.arange(1, m, dtype=np.int64), self.pow_enc, side="right")
        shell_values = np.array(
            [omega_at_position(pos, alpha, b) for pos in range(1, m + 1)]
        )
        c = shell_values[m - 1 - deg]
        self._c2 = np.concatenate([c, c])
        self._c = self._c2[:M]

        # g^T is a scalar, so c has period T; zero padding one period to a
        # power of b that is >= 2T-1 keeps its correlation linear
        self.period = M // (b - 1)
        self._deg2 = np.tile(deg[: self.period].astype(np.uint8), 2)
        self.fft_len = 1
        while self.fft_len < 2 * self.period - 1:
            self.fft_len *= b
        self._fft_c = np.fft.rfft(self._c[: self.period], self.fft_len)
        self.class_of = 1 + self.exp_of % self.period
        self.class_of[0] = 0
        self.class_enc = self.pow_enc.reshape(b - 1, self.period).min(axis=0)

    def _exponent(self, q) -> int:
        enc = operator.index(q)
        if not 0 < enc <= self.size:
            raise ValueError("candidate must be nonzero of degree < m")
        return self.exp_of[enc]

    def column(self, q) -> np.ndarray:
        """omega values of the column for candidate q, indexed by n-1.

        q is an integer encoding (int or numpy integer).  Entry n-1 is
        omega(n q mod P) = c[(exp n + exp q) mod (b^m - 1)], read as the
        window c2[exp q : exp q + b^m - 1] of the doubled column at exp n:
        one slice and one gather, no modulo.
        """
        e = self._exponent(q)
        return self._c2[e : e + self.size][self.exp_of[1:]]

    def class_column(self, q) -> np.ndarray:
        """omega values of the column for candidate q, indexed by class slot - 1.

        Entry i is omega(g^i q mod P) = c[(i + exp q) mod T], the window
        c2[e : e + T] at e = exp q mod T: a view, no gather.  So
        class_column(q)[class_of[n] - 1] == column(q)[n - 1] for every n > 0.
        """
        e = self._exponent(q) % self.period
        return self._c2[e : e + self.period]

    def class_degrees(self, q) -> np.ndarray:
        """deg(g^i q mod P) for each class slot 1 + i, as uint8.

        The window of the doubled degrees at e = exp q mod T, a view, as
        class_column(q) is of c2.  class_column(q) is omega at position
        m - degree, a function of it, so class slots whose degrees agree on
        a set of columns agree on every column entry of the set.
        """
        e = self._exponent(q) % self.period
        return self._deg2[e : e + self.period]

    def slot_column(self, q) -> np.ndarray:
        """omega values of the column for candidate q in all T + 1 class slots."""
        col = np.empty(self.period + 1)
        col[0] = omega_at_position(None, self.alpha, self.b)
        col[1:] = self.class_column(q)
        return col

    def point_mean(self, x: np.ndarray) -> float:
        """Mean over all b^m points of a vector x in class slots."""
        return float(np.sum(x[self.class_of])) / self.n_points

    def class_scores(self, weight: np.ndarray) -> np.ndarray:
        """multiply of a scoring vector in class slots, folded class by class."""
        f = weight[1:]
        return self.multiply(sum([f] * (self.b - 2), f))

    def multiply(self, u: np.ndarray) -> np.ndarray:
        """The scores sum_n omega(y^(n)(q)) vec[n-1] of all scalar classes.

        u[i] is the scoring vector vec summed over the class of g^i, the
        points n = g^(tT + i), t < b-1: c[(i + tT + k) mod M] = c[(i+k) mod T],
        so those points share every column entry.  Every member of a class
        {lambda q} has the same column, so the result holds one score per
        class, T in all, in exponent order: entry i is the class of g^i,
        whose smallest encoding is class_enc[i].  One padded real-FFT
        correlation over a period; agrees with oracle.multiply_naive to
        ~1e-12 relative.
        """
        T, L = self.period, self.fft_len
        if u.shape != (T,):
            raise ValueError(f"expected vector of length {T}")
        # linear correlation lin[t] = sum_i c[i+t] u[i], negative lags at the end
        lin = np.fft.irfft(self._fft_c * np.conj(np.fft.rfft(u, L)), L)
        w = lin[:T]  # w[k] = sum_i c[(i+k) mod T] u[i] = lin[k] + lin[k-T]
        w[1:] += lin[L - T + 1 :]
        return w

    def score_exact(self, q, vec: np.ndarray) -> float:
        """Direct dot product of one candidate column with vec (tie rescoring)."""
        return float(np.dot(self.column(q), vec))

    def exact_scores(self, encodings, weight: np.ndarray) -> np.ndarray:
        """score_exact of each candidate against a vector in class slots."""
        vec = weight[self.class_of[1:]]
        return np.array([self.score_exact(int(e), vec) for e in encodings])
