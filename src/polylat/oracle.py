"""Reference implementations the production path is checked against.

Each function computes from its definition what a production module
computes faster: Z_b[x] arithmetic coefficient by coefficient, omega
columns by long division, the score product by dot products, the search
criterion as the literal 2^d subset sum, interlaced digits block by
block from the generating matrices, and the digit file parsed character
by character.  Costs are quadratic or exponential and guarded.
run_selftest is the oracle suite of `polylat selftest`, which loads this
module inside the command; no production module imports it.
"""

import math
import time

import numpy as np

from .cbc import CbcResult, CostLog, fast_cbc, verify_bound
from .gfpoly import (
    DigitVector,
    GfPoly,
    Modulus,
    _check_same_base,
    fill_by_doubling,
    find_irreducible,
    laurent_digits,
)
from .kernel import OmegaMatrix, omega_at_position
from . import pointgen
from .pointgen import GeneratingVector, interlaced_generator_matrices
from .weights import (
    DecaySequence,
    WeightSpec,
    _block_factor,
    _fact,
    _order_poly,
    _product_order_sum,
)

# direct-criterion guard rails: 2^d subsets, table of 2^d x N products
MAX_DIRECT_DIM = 18
MAX_DIRECT_CELLS = 1 << 27


def poly_add(a: GfPoly, c: GfPoly) -> GfPoly:
    """Coefficient-wise sum mod b."""
    _check_same_base(a, c)
    n = max(len(a.coeffs), len(c.coeffs))
    ca = a.coeffs + (0,) * (n - len(a.coeffs))
    cc = c.coeffs + (0,) * (n - len(c.coeffs))
    return GfPoly(a.b, tuple((x + y) % a.b for x, y in zip(ca, cc)))


def poly_mul(a: GfPoly, c: GfPoly) -> GfPoly:
    """Product in Z_b[x]: coefficient k is sum_{i+j=k} a_i c_j mod b."""
    _check_same_base(a, c)
    out = [0] * max(len(a.coeffs) + len(c.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(c.coeffs):
            out[i + j] += x * y
    return GfPoly(a.b, tuple(v % a.b for v in out))


def poly_divmod(a: GfPoly, d: GfPoly):
    """Quotient and remainder of a by d (d nonzero), one leading term at a time."""
    _check_same_base(a, d)
    if d.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    b, n = a.b, len(d.coeffs) - 1
    inv_lead = pow(d.coeffs[-1], b - 2, b)
    rem = list(a.coeffs)
    quot = [0] * max(len(rem) - n, 0)
    for k in range(len(rem) - 1, n - 1, -1):  # cancel x^k with t x^(k-n) d
        t = rem[k] * inv_lead % b
        quot[k - n] = t
        for i, y in enumerate(d.coeffs):
            rem[k - n + i] = (rem[k - n + i] - t * y) % b
    return GfPoly(b, tuple(quot)), GfPoly(b, tuple(rem[:n]))


def truncate_digits(digits: DigitVector, m: int) -> DigitVector:
    """Keep the first m digits (the map onto the b^{-m} grid in [0,1))."""
    if digits.precision < m:
        raise ValueError(f"need at least {m} digits, have {digits.precision}")
    return DigitVector(digits.b, digits.digits[:m])


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


def leading_position(y: DigitVector):
    """1-based index of the first nonzero digit of y, or None if all are zero."""
    return next((i + 1 for i, t in enumerate(y.digits) if t), None)


def omega(y: DigitVector, alpha: int) -> float:
    """The kernel omega(y) evaluated on an exact digit expansion."""
    if alpha < 2:
        raise ValueError("order must be >= 2")
    return omega_at_position(leading_position(y), alpha, y.b)


def pure_omega_column(modulus: Modulus, q: GfPoly, alpha: int) -> np.ndarray:
    """omega of the coordinates generated by q, n = 0..b^m-1, by long division.

    Deliberately avoids the circulant machinery: each entry comes straight
    from the Laurent expansion of n(x)q(x)/P(x).
    """
    b, m = modulus.b, modulus.m
    out = np.empty(b**m)
    for n in range(b**m):
        dv = laurent_digits(GfPoly.from_int(b, n), q, modulus, m)
        out[n] = omega(dv, alpha)
    return out


def multiply_naive(matrix: OmegaMatrix, vec: np.ndarray) -> np.ndarray:
    """O(N^2) reference for OmegaMatrix.multiply: per-candidate dot products."""
    M = matrix.size
    if vec.shape != (M,):
        raise ValueError(f"expected vector of length {M}")
    out = np.empty(M)
    for enc in range(1, M + 1):
        out[enc - 1] = float(np.dot(matrix.column(enc), vec))
    return out


def block_set(v, alpha: int) -> frozenset:
    """Collapse interlaced component indices to their block indices.

    Component j of the interlaced vector belongs to block ceil(j/alpha);
    each block appears once however many of its members are present.
    """
    return frozenset((j + alpha - 1) // alpha for j in v)


def _spod_order_sum(indices, spec: WeightSpec) -> float:
    """sum over nu in {1..alpha}^u of |nu|! prod 2^delta beta^nu for u = indices.

    Convolution over coordinates of the per-coordinate order polynomials,
    then a factorial-weighted sum over the total order.
    """
    poly = np.array([1.0])
    for j in indices:
        poly = np.convolve(poly, _order_poly(j, spec))
    return float(sum(_fact(ell) * poly[ell] for ell in range(len(indices), len(poly))))


def hybrid_weight(u, spec: WeightSpec) -> float:
    """gamma_u for a block set u, with gamma_empty = 1.

    Exact factorization: product factors on u within {1..J}, one SPOD
    order sum on the rest.  J = 0 gives pure SPOD weights, J >= max(u)
    pure product weights.
    """
    u = sorted(set(u))
    if any(j < 1 for j in u):
        raise ValueError("block indices are 1-based")
    prod_part = 1.0
    spod_idx = []
    for j in u:
        if j <= spec.J:
            prod_part *= _product_order_sum(j, spec)
        else:
            spod_idx.append(j)
    spod_part = _spod_order_sum(spod_idx, spec) if spod_idx else 1.0
    return prod_part * spod_part


def interlaced_weight(v, spec: WeightSpec) -> float:
    """Weight of a set of interlaced component indices.

    Depends on v only through its block set u(v):
    (C'_{alpha,b})^{|u|} gamma_u b^{alpha(alpha-1)|u|/2}.
    """
    u = block_set(v, spec.alpha)
    if not u:
        return 1.0
    return _block_factor(spec) ** len(u) * hybrid_weight(u, spec)


def criterion_from_columns(cols, spec: WeightSpec) -> float:
    """Literal subset sum mean_n sum_{nonempty v} gamma~_v prod_{j in v} omega_j(n).

    Products over subsets are built by a one-bit-at-a-time table; the
    weight of v is looked up through its block set.
    """
    d = len(cols)
    N = len(cols[0])
    n_masks = 1 << d
    if d > MAX_DIRECT_DIM or n_masks * N > MAX_DIRECT_CELLS:
        raise ValueError(f"direct criterion infeasible for d={d}, N={N}")
    alpha = spec.alpha
    K = _block_factor(spec)
    prods = np.empty((n_masks, N))
    prods[0] = 1.0
    block_bit = [1 << (j // alpha) for j in range(d)]
    u_mask = np.zeros(n_masks, dtype=np.int64)
    gamma_by_u = {}
    total = 0.0
    for mask in range(1, n_masks):
        low = (mask & -mask).bit_length() - 1
        prev = mask ^ (1 << low)
        prods[mask] = prods[prev] * cols[low]
        um = int(u_mask[prev]) | block_bit[low]
        u_mask[mask] = um
        g = gamma_by_u.get(um)
        if g is None:
            blocks = [i + 1 for i in range(um.bit_length()) if um >> i & 1]
            g = K ** len(blocks) * hybrid_weight(blocks, spec)
            gamma_by_u[um] = g
        total += g * float(prods[mask].sum())
    return total / N


def direct_criterion(gv: GeneratingVector, spec: WeightSpec, d: int | None = None) -> float:
    """The search criterion evaluated literally over all 2^d subsets.

    Exponential in d (guard rail at d = 18); this is the reference the
    fast recursion is tested against.
    """
    if d is None:
        d = gv.d
    if not 1 <= d <= gv.d:
        raise ValueError(f"d must lie in 1..{gv.d}")
    cols = [pure_omega_column(gv.modulus, gv.q[j], spec.alpha) for j in range(d)]
    return criterion_from_columns(cols, spec)


def slow_cbc(spec: WeightSpec, m: int, s_max: int, modulus: Modulus | None = None) -> CbcResult:
    """Reference CBC: greedy argmin of the literal criterion per component.

    Same tie-breaking rule as fast_cbc (smallest candidate encoding).
    Cost grows like 2^d * b^m per step, so d = alpha*s_max is capped.
    """
    t0 = time.perf_counter()
    b, alpha = spec.b, spec.alpha
    d_total = alpha * s_max
    if d_total > 14:
        raise ValueError(f"slow reference capped at 14 components, asked for {d_total}")
    if modulus is None:
        modulus = find_irreducible(b, m)
    elif (modulus.b, modulus.m) != (b, m):
        raise ValueError(f"modulus has b={modulus.b}, m={modulus.m}; asked for b={b}, m={m}")
    N = b**m
    pure_cols = {
        enc: pure_omega_column(modulus, GfPoly.from_int(b, enc), alpha)
        for enc in range(1, N)
    }
    chosen_cols = []
    chosen = []
    e_steps = []
    for d in range(1, d_total + 1):
        if d == 1:
            enc_best = 1
            e_best = criterion_from_columns([pure_cols[1]], spec)
        else:
            e_best, enc_best = math.inf, None
            values = {}
            for enc in range(1, N):
                values[enc] = criterion_from_columns(chosen_cols + [pure_cols[enc]], spec)
                if values[enc] < e_best:
                    e_best, enc_best = values[enc], enc
            band = 1e-12 * max(1.0, abs(e_best))
            enc_best = min(enc for enc, v in values.items() if v <= e_best + band)
            e_best = values[enc_best]
        chosen.append(GfPoly.from_int(b, enc_best))
        chosen_cols.append(pure_cols[enc_best])
        e_steps.append(e_best)
    gv = GeneratingVector(modulus=modulus, alpha=alpha, q=tuple(chosen))
    return CbcResult(
        gen_vector=gv,
        criterion_per_step=e_steps,
        J=spec.J,
        timings={"total": time.perf_counter() - t0},
        cost=CostLog(n_points=N),
        spec=spec,
    )


def digit_chunks(gv: GeneratingVector):
    """Interlaced digits of points 0 .. N - 1, in order, in blocks of R = b^r points.

    Yields fresh (R, s, alpha*m) uint8 arrays; R is the largest power of b
    whose block fits in pointgen.CHUNK_BYTES (at least 1, at most N).  The
    head block H of points 0 .. R - 1 is filled once by doubling over the
    low r columns of G; the block starting at point t R is H plus G times
    the digits of t R, which by linearity over Z_b is exact, and which
    carries nowhere because the low r digits of t R are zero.  The digit
    blocks pointgen.write_points_digits turns into file rows, without the
    separators.
    """
    b, m = gv.b, gv.m
    G = interlaced_generator_matrices(gv)
    r = pointgen._block_exponent(gv, gv.s * gv.alpha * m, pointgen.CHUNK_BYTES)
    head = np.zeros((b**r, *G.shape[:2]), dtype=np.uint8)
    fill_by_doubling(head, G[..., :r], b)
    high = G[..., r:]
    for t in range(b ** (m - r)):
        digits = np.array([t // b**k % b for k in range(m - r)], dtype=np.int64)
        chunk = head + (high @ digits % b).astype(np.uint8)
        np.minimum(chunk, chunk - np.uint8(b), out=chunk)
        yield chunk


def read_points_digits(path, b: int) -> np.ndarray:
    """Inverse of pointgen.write_points_digits; exact round trip."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    rows = [ln.split(",") for ln in lines[1:]]
    out = np.array(
        [[[int(ch) for ch in coord] for coord in row] for row in rows], dtype=np.uint8
    )
    if out.size and out.max() >= b:
        raise ValueError(f"digit {out.max()} out of range for base {b}")
    return out


def run_selftest(seed: int = 2026) -> dict:
    """Oracle suite: fast-vs-slow CBC, FFT-vs-naive, direct-criterion, bounds."""
    checks = []

    def check(name: str, ok, detail: str):
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    beta = DecaySequence.power(0.4, 2.0, p=0.6)
    runs = []
    for alpha, J in [(2, 0), (2, 1), (2, 2)]:
        spec = WeightSpec(alpha=alpha, b=2, J=J, beta=beta)
        fast = fast_cbc(spec, 3, 2)
        slow = slow_cbc(spec, 3, 2)
        runs.append((spec, fast))
        same = fast.gen_vector.q == slow.gen_vector.q
        rel = max(
            abs(a - b) / max(abs(b), 1e-300)
            for a, b in zip(fast.criterion_per_step, slow.criterion_per_step)
        )
        check(f"cbc-oracle alpha={alpha} J={J}", same and rel <= 1e-9,
              f"vectors {'match' if same else 'DIFFER'}, criterion rel {rel:.2e}")

    rng = np.random.default_rng(seed)
    for b, m in [(2, 6), (3, 4)]:
        om = OmegaMatrix(find_irreducible(b, m), 2)
        worst = 0.0
        for _ in range(5):
            vec = rng.standard_normal(om.size)
            ref = multiply_naive(om, vec)
            classes = om.pow_enc.reshape(b - 1, -1) - 1
            fast = np.empty(om.size)  # vec folded per class; each score spread to every member
            fast[classes] = om.multiply(vec[classes].sum(axis=0))
            worst = max(
                worst, float(np.max(np.abs(fast - ref)) / max(np.max(np.abs(ref)), 1e-300))
            )
        check(f"fft-vs-naive b={b} m={m}", worst <= 1e-9, f"max rel {worst:.2e}")

    for spec, fast in runs[:1] + runs[-1:]:
        gv = fast.gen_vector
        worst = 0.0
        for d in range(1, gv.d + 1):
            cols = [pure_omega_column(gv.modulus, gv.q[j], spec.alpha) for j in range(d)]
            ref = criterion_from_columns(cols, spec)
            worst = max(
                worst, abs(fast.criterion_per_step[d - 1] - ref) / max(abs(ref), 1e-300)
            )
        check(f"direct-criterion J={spec.J}", worst <= 1e-9, f"max rel {worst:.2e}")

    for spec, fast in runs:
        bound = verify_bound(fast, spec)
        check(f"cbc-bound J={spec.J}", bound.ok, f"tightest lambda {bound.tightest_lambda}")
    return {"ok": all(c["ok"] for c in checks), "checks": checks}
