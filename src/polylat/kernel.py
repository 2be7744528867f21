"""The error kernel omega and FFT-accelerated candidate scoring.

The CBC search repeatedly needs, for every candidate polynomial q with
0 < deg(q) < m, the weighted sum sum_n omega(y^(n)(q)) v(n) over the
point indices n = 1..b^m-1, where y^(n)(q) is the classical lattice
coordinate generated by q.  Indexing rows by n = g^i and columns by
q = g^k for a generator g of the multiplicative group of Z_b[x]/(P)
makes the matrix entry a function of (i+k) mod (b^m-1) alone (Rader's
permutation).  One stored column c therefore describes the whole matrix:
every candidate column is a cyclic shift of c, and all candidate scores
at once are one cyclic cross-correlation with c, computed here as a
zero-padded power-of-two real FFT in O(N log N).

omega itself depends only on the position of the first nonzero base-b
digit of its argument (it is constant on each scale shell), which is read
off exactly from the digit expansion, never from a floating-point log.
"""

import numpy as np

from .gfpoly import (
    DigitVector,
    GfPoly,
    Modulus,
    laurent_digit_matrix,
    mul_mod_matrix,
    poly_mul_mod,
    primitive_element,
)


def mu_alpha(k: int, alpha: int, b: int) -> int:
    """Sum of the alpha largest base-b digit positions of k (0 for k = 0).

    Positions count from 1 at the least significant digit.  Saturates once
    alpha reaches the number of nonzero digits.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    positions = []
    pos = 1
    while k:
        k, r = divmod(k, b)
        if r:
            positions.append(pos)
        pos += 1
    return sum(sorted(positions, reverse=True)[:alpha])


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


def omega(y: DigitVector, alpha: int) -> float:
    """The kernel omega(y) evaluated on an exact digit expansion."""
    if alpha < 2:
        raise ValueError("order must be >= 2")
    return omega_at_position(y.leading_position(), alpha, y.b)


class OmegaMatrix:
    """Rader-permuted circulant form of the candidate-score matrix.

    Stores one length-(b^m - 1) column c with c[r] = omega of the residue
    g^r, the permutation between group exponents and the integer
    encodings of nonzero residues, and the transform of c used for
    scoring.  Immutable after construction; multiplies are pure.
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

        # coefficient columns of g^0..g^(M-1), by doubling: [L, 2L) = g^L [0, L)
        self.generator = primitive_element(modulus)
        powers = np.zeros((m, M), dtype=np.int64)
        powers[0, 0] = 1
        g_L, L = self.generator, 1
        while L < M:
            n = min(L, M - L)
            powers[:, L : L + n] = (mul_mod_matrix(g_L, modulus) @ powers[:, :n]) % b
            g_L, L = poly_mul_mod(g_L, g_L, modulus), 2 * L
        self.pow_enc = b ** np.arange(m, dtype=np.int64) @ powers
        self.exp_of = np.empty(M + 1, dtype=np.int64)
        self.exp_of[self.pow_enc] = np.arange(M)

        # circulant column c[r] = omega(g^r), from the leading Laurent digit
        digits = (laurent_digit_matrix(modulus) @ powers) % b
        lead = np.argmax(digits != 0, axis=0)  # powers of g are nonzero
        shell_values = np.array(
            [omega_at_position(pos, alpha, b) for pos in range(1, m + 1)]
        )
        self._c = shell_values[lead]

        # zero padding to a power of two >= 2M-1 keeps the correlation linear
        self.fft_len = 1 << (2 * M - 2).bit_length()
        self._fft_c = np.fft.rfft(self._c, self.fft_len)

    def column(self, q) -> np.ndarray:
        """omega values of the column for candidate q, indexed by n-1.

        Entry n-1 is omega(n q mod P) = c[(exp n + exp q) mod (b^m - 1)].
        """
        if isinstance(q, int):
            q = GfPoly.from_int(self.b, q)
        if q.is_zero() or q.degree >= self.m:
            raise ValueError("candidate must be nonzero of degree < m")
        return self._c[(self.exp_of[1:] + self.exp_of[q.to_int()]) % self.size]

    def multiply(self, vec: np.ndarray) -> np.ndarray:
        """All candidate scores sum_n omega(y^(n)(q)) vec[n-1] at once.

        vec is indexed by point index n = 1..b^m-1; the result is indexed
        by candidate encoding q = 1..b^m-1 (entry q-1).  One padded real-FFT
        correlation; agrees with the dense product to ~1e-12 relative.
        """
        M = self.size
        if vec.shape != (M,):
            raise ValueError(f"expected vector of length {M}")
        u = vec[self.pow_enc - 1]  # u[i] = vec at n = g^i
        # linear correlation lin[t] = sum_i c[i+t] u[i], negative lags at the end
        lin = np.fft.irfft(self._fft_c * np.conj(np.fft.rfft(u, self.fft_len)), self.fft_len)
        w = lin[:M]  # w[k] = sum_i c[(i+k) mod M] u[i] = lin[k] + lin[k-M]
        w[1:] += lin[self.fft_len - M + 1 :]
        out = np.empty(M)
        out[self.pow_enc - 1] = w
        return out

    def multiply_naive(self, vec: np.ndarray) -> np.ndarray:
        """O(N^2) reference for the same product: per-candidate dot products."""
        M = self.size
        if vec.shape != (M,):
            raise ValueError(f"expected vector of length {M}")
        out = np.empty(M)
        for enc in range(1, M + 1):
            out[enc - 1] = float(np.dot(self.column(enc), vec))
        return out

    def dense(self) -> np.ndarray:
        """Full matrix [omega(y^(n)(q))]_{n,q}, for small-size checks only."""
        M = self.size
        out = np.empty((M, M))
        for enc in range(1, M + 1):
            out[:, enc - 1] = self.column(enc)
        return out

    def score_exact(self, q, vec: np.ndarray) -> float:
        """Direct dot product of one candidate column with vec (tie rescoring)."""
        return float(np.dot(self.column(q), vec))
