"""Component-by-component search for interlaced polynomial lattice rules.

The greedy search fixes one generating polynomial at a time, minimizing a
computable worst-case-error criterion over all nonzero candidates of
degree < m.  For hybrid product/SPOD weights the criterion value after
d = alpha(s-1)+t components assembles from per-point running quantities:

  product regime (block s <= J):
      Y(n)  running product over completed blocks,
      V(n)  partial product over the current block,
      criterion = mean_n [1 + G_s (V(n)-1)] Y(n) - 1,
  SPOD regime (block s > J):
      S1(n) frozen product-regime sum, U(l)(n) order-l SPOD sums,
      X(l), W assembled per block from U of the previous block,
      criterion = mean_n [S1 + S2 (1 + S1)],  S2 = S2_prev + (V-1) W.

The U update is lazy: U of block s-1 (U(l) += (V-1) X(l), and its sum
S2_prev) is finished row by row during block s's sweep, just before the
sweep overwrites X(l) from rows of U it has already finished, so each
block streams U and X once.  The final block's update would never be
read and is skipped.

Only the last factor of V depends on the candidate, so the part of the
criterion that varies with q is a single weighted column sum, computed for
all candidates at once through the Rader-permuted FFT multiply.  The
scoring vector is V*Y in the product regime and V*W*(1+S1) in the SPOD
regime (the derivative of the assembled criterion with respect to the new
factor; scoring the full assembled vector instead would add a spurious
candidate-dependent term and break agreement with the direct criterion).

slow_cbc runs the same greedy rule against the literal subset-sum
criterion and is the oracle for fast_cbc; direct_criterion is that
literal evaluation, costing 2^d and guarded accordingly.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .gfpoly import GfPoly, Modulus, find_irreducible, laurent_digits
from .kernel import OmegaMatrix, omega, omega_at_position
from .pointgen import GeneratingVector, index_to_poly
from .weights import WeightSpec, cbc_bound, hybrid_weight, _block_factor, order_weight

# direct-criterion guard rails: 2^d subsets, table of 2^d x N products
MAX_DIRECT_DIM = 18
MAX_DIRECT_CELLS = 1 << 27


@dataclass
class CostLog:
    """Operation-count bookkeeping for the cost-model checks.

    search_units: per component step, the FFT-scoring work L*log2(L) for
    the padded transform length L the kernel actually uses; constant per
    step because L depends only on b^m.
    spod_assembly_units / spod_update_units: per SPOD block, counted as
    length-N vector operations (the X/W assembly is the alpha^2(s-J)N
    part of the cost model, the U update the alpha(s-J)N part).  Block
    s's U update is applied during block s+1's sweep and recorded then;
    the final block's update is never read, so it is skipped and has no
    spod_update_units entry.
    """

    n_points: int = 0
    search_units: list = field(default_factory=list)
    spod_assembly_units: dict = field(default_factory=dict)
    spod_update_units: dict = field(default_factory=dict)


@dataclass
class CbcResult:
    """Outcome of a CBC search: the vector, per-step criterion values, costs.

    timings: wall-clock seconds by phase.  fast_cbc reports omega_matrix
    (the kernel table), product and spod_recursion (each regime's
    recursion, scoring excluded), scoring (FFT multiply, argmin and tie
    rescoring over all steps) and total; slow_cbc reports only total.
    """

    gen_vector: GeneratingVector
    criterion_per_step: list
    J: int
    timings: dict
    cost: CostLog
    spec: WeightSpec

    @property
    def d(self) -> int:
        return self.gen_vector.d

    @property
    def m(self) -> int:
        return self.gen_vector.m

    def sidecar_dict(self, bound_check=None) -> dict:
        doc = {
            "E_per_step": [float(e) for e in self.criterion_per_step],
            "J": self.J,
            "timings": dict(self.timings),
        }
        if bound_check is not None:
            doc["bound_check"] = bound_check.to_json_dict()
        return doc


class NonFiniteScoreError(ArithmeticError):
    """Candidate scores overflowed or became NaN, so a CBC step has no argmin."""

    def __init__(self, step: int, regime: str, n_bad: int, n_total: int):
        self.step = step
        self.regime = regime
        super().__init__(
            f"CBC step {step} ({regime} regime): {n_bad} of {n_total} candidate "
            "scores are not finite; the weighted recursion overflowed"
        )


def _argmin_candidate(
    scores: np.ndarray, matrix: OmegaMatrix, vec: np.ndarray, step: int, regime: str
) -> int:
    """Smallest-encoding argmin with exact rescoring of FFT-level near-ties.

    Raises NonFiniteScoreError when any score is inf or NaN: an overflowed
    scoring vector leaves no trustworthy ordering of the candidates.
    """
    finite = np.isfinite(scores)
    if not finite.all():
        raise NonFiniteScoreError(step, regime, int(np.count_nonzero(~finite)), len(scores))
    best = float(scores.min())
    band = 1e-9 * max(1.0, abs(best))
    cands = np.flatnonzero(scores <= best + band)
    if len(cands) == 1:
        return int(cands[0]) + 1
    exact = np.array([matrix.score_exact(int(e) + 1, vec) for e in cands])
    ebest = float(exact.min())
    eband = 1e-12 * max(1.0, abs(ebest))
    return int(cands[exact <= ebest + eband].min()) + 1


def fast_cbc(spec: WeightSpec, m: int, s_max: int, modulus: Modulus | None = None) -> CbcResult:
    """Fast CBC construction of an order-alpha rule in s_max dimensions.

    Searches d = alpha*s_max components; the first is fixed to the
    constant polynomial 1, every later one is the exact greedy minimizer.
    Ties break to the smallest candidate encoding, so reruns are
    bit-identical.
    """
    t0 = time.perf_counter()
    b, alpha, J = spec.b, spec.alpha, spec.J
    if s_max < 1:
        raise ValueError("need at least one dimension")
    if modulus is None:
        modulus = find_irreducible(b, m)
    timings = dict.fromkeys(("omega_matrix", "product", "spod_recursion", "scoring"), 0.0)
    t_phase = time.perf_counter()
    matrix = OmegaMatrix(modulus, alpha)
    timings["omega_matrix"] = time.perf_counter() - t_phase
    N = matrix.n_points
    omega0 = omega_at_position(None, alpha, b)
    search_unit = matrix.fft_len * (matrix.fft_len.bit_length() - 1)

    cost = CostLog(n_points=N)
    chosen = []
    e_steps = []

    def select(weight_full: np.ndarray, regime: str) -> GfPoly:
        if not chosen:
            cost.search_units.append(search_unit)
            return GfPoly.one(b)
        t_score = time.perf_counter()
        vec = weight_full[1:]
        scores = matrix.multiply(vec)
        cost.search_units.append(search_unit)
        enc = _argmin_candidate(scores, matrix, vec, len(chosen) + 1, regime)
        timings["scoring"] += time.perf_counter() - t_score
        return GfPoly.from_int(b, enc)

    def full_column(qpoly: GfPoly) -> np.ndarray:
        col = np.empty(N)
        col[0] = omega0
        col[1:] = matrix.column(qpoly)
        return col

    Y = np.ones(N)
    t_phase = time.perf_counter()
    for s in range(1, min(J, s_max) + 1):
        G_s = sum(math.factorial(nu) * order_weight(s, nu, spec) for nu in range(1, alpha + 1))
        V = np.ones(N)
        for _t in range(alpha):
            q = select(V * Y, "product")
            chosen.append(q)
            V = V * (1.0 + full_column(q))
            e_steps.append(float(np.sum((1.0 + G_s * (V - 1.0)) * Y)) / N - 1.0)
        Y = (1.0 + G_s * (V - 1.0)) * Y
    timings["product"] = time.perf_counter() - t_phase - timings["scoring"]

    S1 = Y - 1.0
    if s_max > J:
        scored = timings["scoring"]
        t_phase = time.perf_counter()
        one_plus_S1 = 1.0 + S1
        L_max = alpha * (s_max - J)
        U = np.zeros((L_max + 1, N))
        U[0] = 1.0
        X = np.zeros((L_max + 1, N))
        U_rows, X_rows = list(U), list(X)
        W = np.empty(N)
        S2_prev = np.zeros(N)
        vm1 = np.empty(N)
        row = np.empty(N)
        L_prev = 0
        for s in range(J + 1, s_max + 1):
            L = alpha * (s - J)
            gval = {nu: order_weight(s, nu, spec) for nu in range(1, alpha + 1)}
            if L_prev:
                S2_prev.fill(0.0)
                cost.spod_update_units[s - 1] = L_prev * N
            W.fill(0.0)
            # one sweep: finish U[ell] of block s-1, then overwrite X[ell] from
            # finished rows; sums run in ascending ell as separate passes would
            for ell in range(1, L + 1):
                Xr = X_rows[ell]
                if ell <= L_prev:
                    Ur = U_rows[ell]
                    np.multiply(vm1, Xr, out=row)
                    np.add(Ur, row, out=Ur)
                    np.add(S2_prev, Ur, out=S2_prev)
                np.multiply(U_rows[ell - 1], gval[1] * math.perm(ell, 1), out=Xr)
                for nu in range(2, min(alpha, ell) + 1):
                    np.multiply(U_rows[ell - nu], gval[nu] * math.perm(ell, nu), out=row)
                    np.add(Xr, row, out=Xr)
                np.add(W, Xr, out=W)
            cost.spod_assembly_units[s] = N * sum(min(alpha, ell) for ell in range(1, L + 1))
            V = np.ones(N)
            for _t in range(alpha):
                q = select(V * W * one_plus_S1, "SPOD")
                chosen.append(q)
                V = V * (1.0 + full_column(q))
                S2 = S2_prev + (V - 1.0) * W
                e_steps.append(float(np.sum(S1 + S2 * one_plus_S1)) / N)
            np.subtract(V, 1.0, out=vm1)
            L_prev = L
        timings["spod_recursion"] = time.perf_counter() - t_phase - (timings["scoring"] - scored)

    gv = GeneratingVector(modulus=modulus, alpha=alpha, q=tuple(chosen))
    timings["total"] = time.perf_counter() - t0
    return CbcResult(
        gen_vector=gv,
        criterion_per_step=e_steps,
        J=J,
        timings=timings,
        cost=cost,
        spec=spec,
    )


# -- literal criterion (the oracle) -------------------------------------------


def _pure_omega_column(modulus: Modulus, q: GfPoly, alpha: int) -> np.ndarray:
    """omega of the coordinates generated by q, n = 0..b^m-1, by long division.

    Deliberately avoids the circulant machinery: each entry comes straight
    from the Laurent expansion of n(x)q(x)/P(x).
    """
    b, m = modulus.b, modulus.m
    out = np.empty(b**m)
    for n in range(b**m):
        dv = laurent_digits(index_to_poly(n, b), q, modulus, m)
        out[n] = omega(dv, alpha)
    return out


def _criterion_from_columns(cols, spec: WeightSpec) -> float:
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
    cols = [_pure_omega_column(gv.modulus, gv.q[j], spec.alpha) for j in range(d)]
    return _criterion_from_columns(cols, spec)


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
    N = b**m
    pure_cols = {
        enc: _pure_omega_column(modulus, GfPoly.from_int(b, enc), alpha)
        for enc in range(1, N)
    }
    chosen_cols = []
    chosen = []
    e_steps = []
    for d in range(1, d_total + 1):
        if d == 1:
            enc_best = 1
            e_best = _criterion_from_columns([pure_cols[1]], spec)
        else:
            e_best, enc_best = math.inf, None
            values = {}
            for enc in range(1, N):
                values[enc] = _criterion_from_columns(chosen_cols + [pure_cols[enc]], spec)
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


# -- guaranteed bound check ----------------------------------------------------


@dataclass
class BoundCheck:
    """Criterion-versus-bound comparison over a lambda grid."""

    entries: list
    ok: bool
    tightest_lambda: float | None

    @property
    def violations(self):
        return [e for e in self.entries if not e["ok"]]

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tightest_lambda": self.tightest_lambda,
            "entries": self.entries,
        }


def default_lambda_grid(alpha: int, size: int = 10):
    """size equally spaced values in (1/alpha, 1], endpoint included."""
    lo = 1.0 / alpha
    return [lo + (1.0 - lo) * (i + 1) / size for i in range(size)]


def verify_bound(result: CbcResult, spec: WeightSpec, lambda_grid=None) -> BoundCheck:
    """Check the constructed vector's criterion against its guaranteed bound.

    The bound holds for every lambda in (1/alpha, 1]; a violation at any
    grid point signals an implementation bug, not an unlucky input.
    Divergent (infinite) bound values are flagged but count as satisfied.
    """
    if lambda_grid is None:
        lambda_grid = default_lambda_grid(spec.alpha)
    for lam in lambda_grid:
        if not 1.0 / spec.alpha < lam <= 1.0:
            raise ValueError(f"lambda {lam} outside (1/{spec.alpha}, 1]")
    e_final = float(result.criterion_per_step[-1])
    d = result.d
    entries = []
    finite = []
    for lam in lambda_grid:
        bound = cbc_bound(spec, result.m, d, lam)
        divergent = not math.isfinite(bound)
        ok = divergent or e_final <= bound * (1.0 + 1e-9) + 1e-12
        entries.append(
            {
                "lambda": float(lam),
                "criterion": e_final,
                "bound": bound,
                "ok": bool(ok),
                "divergent": bool(divergent),
            }
        )
        if not divergent:
            finite.append((bound, lam))
    tightest = min(finite)[1] if finite else None
    return BoundCheck(entries=entries, ok=all(e["ok"] for e in entries), tightest_lambda=tightest)
