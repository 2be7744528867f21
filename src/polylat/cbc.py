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

The order cap.  The SPOD weights decay, so the high-order sums U(l) die off
in l, and the top rows of a long run fall to 1e-180 and below (where
subnormal arithmetic also makes each row slower).  Every few blocks until
a cap is set, block s predicts the largest tail sum_{l > L_s} |U(l)| any
later block can hold: the recursion with |V-1| replaced by its bound over
the kernel's range is a majorant of |U|, and its adjoint, run back through
the known weights of the remaining blocks, turns |U| of block s-1 into
that bound.  Once the bound lies below 2^-64 |W| and 2^-64 |S2_prev| at
every point, K = L_s, and from then on the sweep forms only the rows
l <= K.  Those rows come out exactly as before, because row l reads rows
below l only; what is dropped is the tail of the two ascending sums W and
S2_prev.  Each capped block certifies that tail per point: A bounds
sum_{l > K} |U(l)| of the full recursion (0 when the cap is set, then
A += |V-1| xtail), and xtail bounds the skipped X rows from A and the
rows just below K.  When 2 xtail + 2^-1000 and 2 A + 2^-1000 lie below
2^-55 |W| and 2^-55 |S2_prev|, a quarter of the spacing's lower bound
2^-53 |x|, every skipped term would round away as it was added in
ascending order, so W and S2_prev, and with them every score,
argmin, tie rescoring and criterion, are bit for bit those of the full
sweep.  A failed certificate (a non-finite sum included) reruns the SPOD
regime without the cap.

Only the last factor of V depends on the candidate, so the part of the
criterion that varies with q is a single weighted column sum, computed for
all candidates at once through the Rader-permuted FFT multiply.  The
scoring vector is V*Y in the product regime and V*W*(1+S1) in the SPOD
regime (the derivative of the assembled criterion with respect to the new
factor; scoring the full assembled vector instead would add a spurious
candidate-dependent term and break agreement with the direct criterion).

The oracle for fast_cbc is polylat.oracle.slow_cbc, the same greedy rule
driven by the literal subset-sum criterion (polylat.oracle.direct_criterion).
"""

import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .gfpoly import GfPoly, Modulus, find_irreducible
from .kernel import OmegaMatrix, omega_at_position
from .pointgen import GeneratingVector
from .weights import WeightSpec, cbc_bound, order_weight


@dataclass
class CostLog:
    """Operation-count bookkeeping for the cost-model checks.

    search_units: per component step, the FFT-scoring work L*floor(log2 L)
    for the padded transform length L = 2b^m the kernel actually uses;
    constant per step because L depends only on b^m.
    spod_assembly_units / spod_update_units: per SPOD block, counted as
    length-N vector operations (the X/W assembly is the alpha^2(s-J)N
    part of the cost model, the U update the alpha(s-J)N part).  Block
    s's U update is applied during block s+1's sweep and recorded then;
    the final block's update is never read, so it is skipped and has no
    spod_update_units entry.
    Both count only the rows actually swept, so once an order cap K is set
    they stop growing with s.
    rescored: per scored step (steps 2..d; step 1 is fixed to q = 1), the
    number of candidates rescored exactly because their FFT scores lay
    within the near-tie band of the minimum, or 0 when the FFT argmin was
    unique.
    spod_order_cap: the order K above which the SPOD sweep stopped forming
    rows, or None when no cap was set.
    spod_rerun: True when a capped block failed its certificate and the
    SPOD regime ran again without a cap (spod_order_cap then names the cap
    that failed; the unit counts are those of the rerun).
    """

    n_points: int = 0
    search_units: list = field(default_factory=list)
    rescored: list = field(default_factory=list)
    spod_assembly_units: dict = field(default_factory=dict)
    spod_update_units: dict = field(default_factory=dict)
    spod_order_cap: int | None = None
    spod_rerun: bool = False


@dataclass
class CbcResult:
    """Outcome of a CBC search: the vector, per-step criterion values, costs.

    timings: wall-clock seconds by phase.  fast_cbc reports omega_matrix
    (the kernel table), product and spod_recursion (each regime's
    recursion, scoring excluded), scoring (FFT multiply, argmin and tie
    rescoring over all steps) and total; oracle.slow_cbc reports only total.
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
            "spod_order_cap": self.cost.spod_order_cap,
            "spod_rerun": self.cost.spod_rerun,
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
) -> tuple[int, int]:
    """Smallest-encoding argmin with exact rescoring of FFT-level near-ties.

    Returns (encoding, number of candidates rescored exactly; 0 when the
    FFT argmin is unique).  Raises NonFiniteScoreError when any score is
    inf or NaN: an overflowed scoring vector leaves no trustworthy ordering
    of the candidates.
    """
    finite = np.isfinite(scores)
    if not finite.all():
        raise NonFiniteScoreError(step, regime, int(np.count_nonzero(~finite)), len(scores))
    best = float(scores.min())
    band = 1e-9 * max(1.0, abs(best))
    cands = np.flatnonzero(scores <= best + band)
    if len(cands) == 1:
        return int(cands[0]) + 1, 0
    exact = np.array([matrix.score_exact(int(e) + 1, vec) for e in cands])
    ebest = float(exact.min())
    eband = 1e-12 * max(1.0, abs(ebest))
    return int(cands[exact <= ebest + eband].min()) + 1, len(cands)


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
    if s_max > J:
        # U and X each hold alpha(s-J)+1 rows of b^m doubles
        need = 2 * (alpha * (s_max - J) + 1) * b**modulus.m * 8
        if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ValueError(
                f"SPOD buffers for s={s_max}, m={modulus.m} need {need / 2**30:.1f} GiB, "
                "more than the physical memory"
            )
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

    def select(weight_full: np.ndarray, regime: str) -> int:
        cost.search_units.append(search_unit)
        if not chosen:
            chosen.append(1)
            return 1
        t_score = time.perf_counter()
        vec = weight_full[1:]
        scores = matrix.multiply(vec)
        enc, n_rescored = _argmin_candidate(scores, matrix, vec, len(chosen) + 1, regime)
        cost.rescored.append(n_rescored)
        chosen.append(enc)
        timings["scoring"] += time.perf_counter() - t_score
        return enc

    def full_column(enc: int) -> np.ndarray:
        col = np.empty(N)
        col[0] = omega0
        col[1:] = matrix.column(enc)
        return col

    Y = np.ones(N)
    t_phase = time.perf_counter()
    for s in range(1, min(J, s_max) + 1):
        G_s = sum(math.factorial(nu) * order_weight(s, nu, spec) for nu in range(1, alpha + 1))
        V = np.ones(N)
        for _t in range(alpha):
            V = V * (1.0 + full_column(select(V * Y, "product")))
            e_steps.append(float(np.sum((1.0 + G_s * (V - 1.0)) * Y)) / N - 1.0)
        Y = (1.0 + G_s * (V - 1.0)) * Y
    timings["product"] = time.perf_counter() - t_phase - timings["scoring"]

    S1 = Y - 1.0
    if s_max > J:
        scored = timings["scoring"]
        t_phase = time.perf_counter()
        n_chosen, n_scored = len(chosen), len(cost.rescored)
        try:
            e_steps += _spod_regime(spec, s_max, S1, select, full_column, cost, _CAP_MARGIN)
        except _CapTripped:
            cost.spod_rerun = True
        if cost.spod_rerun:
            # the skipped rows might have moved W or S2: rerun the regime in
            # full, outside the handler, whose traceback holds the first U and X
            del chosen[n_chosen:], cost.search_units[n_chosen:], cost.rescored[n_scored:]
            cost.spod_assembly_units.clear()
            cost.spod_update_units.clear()
            e_steps += _spod_regime(spec, s_max, S1, select, full_column, cost, 0.0)
        timings["spod_recursion"] = time.perf_counter() - t_phase - (timings["scoring"] - scored)

    q = tuple(GfPoly.from_int(b, enc) for enc in chosen)
    gv = GeneratingVector(modulus=modulus, alpha=alpha, q=q)
    timings["total"] = time.perf_counter() - t0
    return CbcResult(
        gen_vector=gv,
        criterion_per_step=e_steps,
        J=J,
        timings=timings,
        cost=cost,
        spec=spec,
    )


# Order cap of the SPOD sweep.  A cap is set once the predicted final tail is
# below _CAP_MARGIN times |W| and |S2_prev| at every point; 0 disables it.
# The certificate needs about 2^-56, and the other 8 bits leave room for W
# to shrink with the weights in later blocks.  A prediction that misses by e
# bits is repeated 1 + e // _CAP_FALL blocks later (at most 16), since the
# predicted ratio falls by about 3-9 bits a block.  _CAP_SLACK absorbs
# rounding and underflow in the bounds.
_CAP_MARGIN = 2.0**-64
_CAP_FALL = 8
_CAP_SLACK = 2.0**-1000


class _CapTripped(ArithmeticError):
    """A capped block failed its certificate: the skipped rows might matter."""


def _tail_excess(spec, s, gtab, U_rows, L_prev, W, S2_prev, margin) -> float:
    """Bits by which capping the order at L_s misses the margin (< 0: cap).

    The weights c solve the adjoint of the majorant recursion
    U[l] <- U[l] + vmax sum_nu gamma_j(nu) perm(l, nu) U[l-nu] over blocks
    j = s..s_max (gtab[j - s] holds gamma_j(1..alpha)), where vmax bounds
    |V - 1| over the kernel's range.  So T = sum_k c[k] |U_{s-1}[k]| bounds
    sum_{l > L_s} |U_{s_max}[l]|, the largest tail any later block carries,
    and the result is log2 of max_n T / (margin min(|W|, |S2_prev|)).
    """
    alpha, b = spec.alpha, spec.b
    lo, hi = 1.0 + omega_at_position(1, alpha, b), 1.0 + omega_at_position(None, alpha, b)
    vmax = max(hi**alpha - 1.0, 1.0 - lo**alpha)
    L_max = alpha * (s - spec.J + len(gtab) - 1)
    k = np.arange(L_max + 1.0)
    # rising[nu - 1][k] = perm(k + nu, nu)
    rising = [math.prod(k[: L_max + 1 - nu] + i for i in range(1, nu + 1))
              for nu in range(1, alpha + 1)]
    c = (k > alpha * (s - spec.J)).astype(float)
    N = W.size
    T, row = np.zeros(N), np.empty(N)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for gval in gtab[::-1]:
            prev = c.copy()
            for nu in range(1, alpha + 1):
                c[:-nu] += vmax * gval[nu - 1] * rising[nu - 1] * prev[nu:]
        for i in np.flatnonzero(c[: L_prev + 1]):
            np.abs(U_rows[i], out=row)
            row *= c[i]
            T += row
        ratio = float(np.max(T / np.minimum(np.abs(W), np.abs(S2_prev)))) / margin
    if ratio > 0:
        return math.log2(ratio)
    return -math.inf if ratio == 0 else math.inf


def _certify_cap(U_rows, K, A, gval, L, W, S2_prev) -> np.ndarray:
    """Per point, a bound on sum_{l in (K, L]} |X_s[l]|, the rows a capped block skips.

    gval[nu] = gamma_s(nu) and A bounds sum_{l > K} |U_{s-1}[l]|.  Row k <= K
    of U reaches X[k + nu] only, so the rows below the cap enter with
    perm(k + nu, nu) and the tail rows with at most perm(L, nu).  Raises
    _CapTripped unless W and S2_prev are finite and twice each bound lies
    below |W| 2^-55 and |S2_prev| 2^-55 (a quarter of the 2^-53 |x| that
    the spacing of a normal x exceeds), where every skipped term, added in
    ascending order, would round back to the same sum.
    """
    alpha = len(gval)
    quarter_ulp = 2.0**-55
    with np.errstate(over="ignore", invalid="ignore"):
        xtail = A * sum(g * math.perm(L, nu) for nu, g in gval.items())
        for k in range(K - alpha + 1, K + 1):
            reach = sum(gval[nu] * math.perm(k + nu, nu) for nu in range(K + 1 - k, alpha + 1))
            xtail += reach * np.abs(U_rows[k])
        ok = (
            math.isfinite(W.sum() + S2_prev.sum())
            and np.all(2.0 * xtail + _CAP_SLACK < quarter_ulp * np.abs(W))
            and np.all(2.0 * A + _CAP_SLACK < quarter_ulp * np.abs(S2_prev))
        )
    if not ok:
        raise _CapTripped
    return xtail


def _spod_regime(spec, s_max, S1, select, full_column, cost, cap_margin) -> list:
    """Blocks J+1..s_max of the search; returns their per-step criteria.

    With cap_margin > 0 the sweep may stop at an order cap K; a capped block
    whose certificate fails raises _CapTripped, and the caller reruns the
    regime with cap_margin 0.
    """
    alpha, J = spec.alpha, spec.J
    N = S1.size
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
    # gtab[s - J - 1] holds gamma_s(1..alpha)
    gtab = [[order_weight(s, nu, spec) for nu in range(1, alpha + 1)]
            for s in range(J + 1, s_max + 1)]
    e_steps = []
    L_prev = 0
    K = A = None  # once set, rows above K are never written; A bounds their U mass
    predict_at = J + 2  # block s = J + 1 has no S2_prev yet
    for s in range(J + 1, s_max + 1):
        L = alpha * (s - J)
        top = L if K is None else K
        gval = dict(enumerate(gtab[s - J - 1], start=1))
        if L_prev:
            S2_prev.fill(0.0)
            cost.spod_update_units[s - 1] = min(L_prev, top) * N
        W.fill(0.0)
        # one sweep: finish U[ell] of block s-1, then overwrite X[ell] from
        # finished rows; sums run in ascending ell as separate passes would
        for ell in range(1, top + 1):
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
        cost.spod_assembly_units[s] = N * sum(min(alpha, ell) for ell in range(1, top + 1))
        xtail = None
        if K is not None:
            xtail = _certify_cap(U_rows, K, A, gval, L, W, S2_prev)
        elif cap_margin and predict_at <= s < s_max:
            excess = _tail_excess(
                spec, s, gtab[s - J - 1 :], U_rows, L_prev, W, S2_prev, cap_margin
            )
            if excess < 0:
                K, A = L, np.zeros(N)  # block s swept every row: no tail yet
                cost.spod_order_cap = K
            else:
                predict_at = s + 1 + int(min(excess, 120.0) // _CAP_FALL)
        V = np.ones(N)
        for _t in range(alpha):
            V = V * (1.0 + full_column(select(V * W * one_plus_S1, "SPOD")))
            S2 = S2_prev + (V - 1.0) * W
            e_steps.append(float(np.sum(S1 + S2 * one_plus_S1)) / N)
        np.subtract(V, 1.0, out=vm1)
        if xtail is not None:
            A += np.abs(vm1) * xtail
        L_prev = L
    return e_steps


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
