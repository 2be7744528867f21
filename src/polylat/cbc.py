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
sweep.  A failed certificate (a non-finite W or S2_prev at any point
included) reruns the SPOD regime without the cap.

Only the last factor of V depends on the candidate, so the part of the
criterion that varies with q is a single weighted column sum, computed for
all classes {lambda q} at once through the Rader-permuted FFT multiply.  The
scoring vector is V*Y in the product regime and V*W*(1+S1) in the SPOD
regime (the derivative of the assembled criterion with respect to the new
factor; scoring the full assembled vector instead would add a spurious
candidate-dependent term and break agreement with the direct criterion).

Y, V, S1, S2 and the scoring vector are stored in the OmegaMatrix's T + 1
class slots (polylat.kernel), which also scores, rescores and averages
them.  The SPOD sweep's rows (U, X, W, S2_prev, and the cap's A and xtail)
hold fewer entries.  They depend on the SPOD blocks' V alone, and
omega(n q) on deg(n q mod P) alone, so class slots whose degrees agree on
every distinct column chosen in the SPOD regime so far hold bit-identical
rows: the sweep keeps one entry per such state class.  W and S2_prev are
gathered to slots once per block and V - 1 is read back at a slot of each
class; a block that chose a new column refines the partition in O(T),
appending the split-off classes and copying only their entries.  Gathers
copy values and the sweep is elementwise, so the cap's per-point max and
all see the same set of values, and every vector and criterion is bit for
bit that of a sweep over slots.  Repeated components keep the classes far
fewer than T + 1, and the sweep's cost scales with their number.

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
from .pointgen import GeneratingVector, distinct_coordinates
from .weights import WeightSpec, cbc_bound, order_weight


@dataclass
class CostLog:
    """Operation-count bookkeeping for the cost-model checks.

    search_units: per component step, the FFT-scoring work L*floor(log2 L)
    for the padded transform length L the kernel actually uses, the
    smallest power of b that is >= 2T-1 for the period T = (b^m-1)/(b-1);
    constant per step because L depends only on b and m.
    spod_assembly_units / spod_update_units: per SPOD block, counted as
    length-N vector operations (the X/W assembly is the alpha^2(s-J)N
    part of the cost model, the U update the alpha(s-J)N part), although
    each row the sweep touches holds only one entry per state class.  Block
    s's U update is applied during block s+1's sweep and recorded then;
    the final block's update is never read, so it is skipped and has no
    spod_update_units entry.  Both count only the rows actually swept, so
    once an order cap K is set they stop growing with s.
    rescored: per scored step (steps 2..d; step 1 is fixed to q = 1), the
    number of scalar classes {lambda q} (b-1 candidates that share one
    column) rescored exactly, one monic member each, because their FFT
    scores lay within the near-tie band of the minimum, or 0 when the band
    held a single class.
    spod_order_cap: the order K above which the SPOD sweep stopped forming
    rows, or None when no cap was set.
    spod_rerun: True when a capped block failed its certificate and the
    SPOD regime ran again without a cap (spod_order_cap then names the cap
    that failed; the unit counts are those of the rerun).
    spod_classes: the number of state classes the final block's sweep ran
    on, the distinct degree tuples of the columns chosen in the SPOD
    regime's earlier blocks (at most T + 1), or None when no block was SPOD.
    """

    n_points: int = 0
    search_units: list = field(default_factory=list)
    rescored: list = field(default_factory=list)
    spod_assembly_units: dict = field(default_factory=dict)
    spod_update_units: dict = field(default_factory=dict)
    spod_order_cap: int | None = None
    spod_rerun: bool = False
    spod_classes: int | None = None


@dataclass
class CbcResult:
    """Outcome of a CBC search: the vector, per-step criterion values, costs.

    timings: wall-clock seconds by phase.  fast_cbc reports omega_matrix
    (the kernel table), product and spod_recursion (each regime's
    recursion, scoring excluded), scoring (FFT multiply, argmin and tie
    rescoring over all steps) and total; oracle.slow_cbc reports only total.

    distinct_coordinates counts the distinct coordinate tuples of the
    vector, and repeated_coordinates lists [k, j] for each coordinate k
    whose tuple equals that of the earlier coordinate j (0-based: file
    columns y(k+1) and y(j+1)), whose points then agree in both.
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

    @property
    def distinct_coordinates(self) -> int:
        return len(distinct_coordinates(self.gen_vector)[0])

    @property
    def repeated_coordinates(self) -> list:
        first, columns = distinct_coordinates(self.gen_vector)
        return [[k, int(first[i])] for k, i in enumerate(columns) if first[i] != k]

    def sidecar_dict(self, bound_check=None) -> dict:
        doc = {
            "E_per_step": [float(e) for e in self.criterion_per_step],
            "J": self.J,
            "timings": dict(self.timings),
            "spod_order_cap": self.cost.spod_order_cap,
            "spod_rerun": self.cost.spod_rerun,
            "spod_classes": self.cost.spod_classes,
            "rescored": list(self.cost.rescored),
            "distinct_coordinates": self.distinct_coordinates,
            "repeated_coordinates": self.repeated_coordinates,
        }
        if bound_check is not None:
            doc["bound_check"] = bound_check.to_json_dict()
        return doc


class NonFiniteScoreError(ArithmeticError):
    """Class scores overflowed or became NaN, so a CBC step has no argmin."""

    def __init__(self, step: int, regime: str, n_bad: int, n_total: int):
        self.step = step
        self.regime = regime
        super().__init__(
            f"CBC step {step} ({regime} regime): {n_bad} of {n_total} candidate class "
            "scores are not finite; the weighted recursion overflowed"
        )


def _argmin_candidate(
    scores: np.ndarray, matrix: OmegaMatrix, weight: np.ndarray, step: int, regime: str
) -> tuple[int, int]:
    """Smallest-encoding argmin with exact rescoring of FFT-level near-ties.

    scores holds one FFT score per scalar class {lambda q}, as
    OmegaMatrix.class_scores returns them, and weight the scoring vector in
    class slots.  Every member of a class has the same column and so the
    same exact score; when the near-tie band holds more than one class,
    each is rescored exactly through its smallest encoding.  Returns
    (encoding, number of classes rescored exactly; 0 when the band holds
    one class).  Raises NonFiniteScoreError when any score is inf or NaN:
    an overflowed scoring vector leaves no trustworthy ordering of the
    candidates.
    """
    finite = np.isfinite(scores)
    if not finite.all():
        raise NonFiniteScoreError(step, regime, int(np.count_nonzero(~finite)), len(scores))
    best = float(scores.min())
    band = 1e-9 * max(1.0, abs(best))
    cands = matrix.class_enc[scores <= best + band]
    if len(cands) == 1:
        return int(cands[0]), 0
    exact = matrix.exact_scores(cands, weight)
    ebest = float(exact.min())
    eband = 1e-12 * max(1.0, abs(ebest))
    return int(cands[exact <= ebest + eband].min()), len(cands)


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
    elif (modulus.b, modulus.m) != (b, m):
        raise ValueError(f"modulus has b={modulus.b}, m={modulus.m}; asked for b={b}, m={m}")
    if s_max > J:
        # U and X each hold alpha(s-J)+1 rows of T+1 doubles, one per class slot
        need = 2 * (alpha * (s_max - J) + 1) * ((b**m - 1) // (b - 1) + 1) * 8
        if need > os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"):
            raise ValueError(
                f"SPOD buffers for s={s_max}, m={m} need {need / 2**30:.1f} GiB, "
                "more than the physical memory"
            )
    timings = dict.fromkeys(("omega_matrix", "product", "spod_recursion", "scoring"), 0.0)
    t_phase = time.perf_counter()
    matrix = OmegaMatrix(modulus, alpha)
    timings["omega_matrix"] = time.perf_counter() - t_phase
    slots = matrix.period + 1
    search_unit = matrix.fft_len * (matrix.fft_len.bit_length() - 1)

    cost = CostLog(n_points=matrix.n_points)
    chosen = []
    e_steps = []

    def select(weight: np.ndarray, regime: str) -> int:
        cost.search_units.append(search_unit)
        if not chosen:
            chosen.append(1)
            return 1
        t_score = time.perf_counter()
        scores = matrix.class_scores(weight)
        enc, n_rescored = _argmin_candidate(scores, matrix, weight, len(chosen) + 1, regime)
        cost.rescored.append(n_rescored)
        chosen.append(enc)
        timings["scoring"] += time.perf_counter() - t_score
        return enc

    Y = np.ones(slots)
    t_phase = time.perf_counter()
    for s in range(1, min(J, s_max) + 1):
        G_s = sum(math.factorial(nu) * order_weight(s, nu, spec) for nu in range(1, alpha + 1))
        V = np.ones(slots)
        for _t in range(alpha):
            V = V * (1.0 + matrix.slot_column(select(V * Y, "product")))
            e_steps.append(matrix.point_mean((1.0 + G_s * (V - 1.0)) * Y) - 1.0)
        Y = (1.0 + G_s * (V - 1.0)) * Y
    timings["product"] = time.perf_counter() - t_phase - timings["scoring"]

    S1 = Y - 1.0
    if s_max > J:
        scored = timings["scoring"]
        t_phase = time.perf_counter()
        n_chosen, n_scored = len(chosen), len(cost.rescored)
        try:
            e_steps += _spod_regime(spec, s_max, S1, select, matrix, cost, _CAP_MARGIN)
        except _CapTripped:
            cost.spod_rerun = True
        if cost.spod_rerun:
            # the skipped rows might have moved W or S2: rerun the regime in
            # full, outside the handler, whose traceback holds the first U and X
            del chosen[n_chosen:], cost.search_units[n_chosen:], cost.rescored[n_scored:]
            cost.spod_assembly_units.clear()
            cost.spod_update_units.clear()
            e_steps += _spod_regime(spec, s_max, S1, select, matrix, cost, 0.0)
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
            np.isfinite(W).all()
            and np.isfinite(S2_prev).all()
            and np.all(2.0 * xtail + _CAP_SLACK < quarter_ulp * np.abs(W))
            and np.all(2.0 * A + _CAP_SLACK < quarter_ulp * np.abs(S2_prev))
        )
    if not ok:
        raise _CapTripped
    return xtail


class _StateClasses:
    """The state classes the SPOD sweep runs on: a partition of the class slots.

    The sweep's rows are elementwise functions of omega at each column
    chosen in the SPOD regime, and omega(g^i q) depends only on
    deg(g^i q mod P).  So class slots whose degrees agree on every column
    refined by hold bit-identical U, X, W, S2_prev, A and xtail.  of[slot]
    is the class of a class slot, rep[c] a slot of class c; the partition
    starts as one class.
    """

    def __init__(self, matrix: OmegaMatrix):
        self.matrix = matrix
        self.of = np.zeros(matrix.period + 1, dtype=np.intp)
        self.rep = np.zeros(1, dtype=np.intp)
        self.refined = set()

    def __len__(self) -> int:
        return len(self.rep)

    def refine(self, encodings) -> np.ndarray:
        """Split the classes by the columns of encodings not refined by yet.

        Each class keeps its id for the part that holds its rep slot; the
        other parts are appended as new classes.  Returns, for each appended
        class in id order, the class it was split from, so only its entries
        need copying.  O(T) per new column, with no sort.
        """
        n0, n_codes = len(self), self.matrix.m + 1
        source = np.arange(n0)
        for enc in dict.fromkeys(encodings):
            if enc in self.refined:
                continue
            self.refined.add(enc)
            n = len(self)
            key = self.of * n_codes
            key[0] += n_codes - 1  # slot 0, the point n = 0, has no degree
            key[1:] += self.matrix.class_degrees(enc)
            moved = np.flatnonzero(key != key[self.rep][self.of])
            if not moved.size:
                continue
            # number the moved keys through a (class, degree) table: of the
            # slots that write one key, exactly one reads its own index back
            keys, order = key[moved], np.arange(moved.size)
            ids = np.empty(n * n_codes, dtype=np.intp)
            ids[keys] = order
            first = ids[keys] == order
            split = keys[first]
            ids[split] = np.arange(n, n + split.size)
            self.of[moved] = ids[keys]
            self.rep = np.concatenate([self.rep, moved[first]])
            source = np.concatenate([source, source[split // n_codes]])
        return source[n0:]


def _spod_regime(spec, s_max, S1, select, matrix, cost, cap_margin) -> list:
    """Blocks J+1..s_max of the search; returns their per-step criteria.

    S1 and the per-step quantities (V, the scoring vector, S2) hold one
    entry per class slot of matrix; the sweep's rows (U, X, W, S2_prev, A,
    xtail) hold one per state class, in the leading entries of buffers
    sized for T + 1 slots.  The unit counts stay per point.
    With cap_margin > 0 the sweep may stop at an order cap K; a capped block
    whose certificate fails raises _CapTripped, and the caller reruns the
    regime with cap_margin 0.
    """
    alpha, J = spec.alpha, spec.J
    N, slots = cost.n_points, S1.size
    one_plus_S1 = 1.0 + S1
    L_max = alpha * (s_max - J)
    U = np.zeros((L_max + 1, slots))
    U[0] = 1.0
    X = np.zeros((L_max + 1, slots))
    W, S2_prev, vm1, row = np.empty(slots), np.zeros(slots), np.empty(slots), np.empty(slots)
    A, xtail = np.zeros(slots), np.empty(slots)
    classes = _StateClasses(matrix)
    # gtab[s - J - 1] holds gamma_s(1..alpha), perm[ell][nu - 1] = perm(ell, nu)
    gtab = [[order_weight(s, nu, spec) for nu in range(1, alpha + 1)]
            for s in range(J + 1, s_max + 1)]
    perm = np.array([[math.perm(ell, nu) for nu in range(1, alpha + 1)]
                     for ell in range(L_max + 1)], dtype=float)
    e_steps = []
    L_prev = 0
    n = None
    K = None  # once set, rows above K are never written; A bounds their U mass
    capped = False  # from the block after the cap on, xtail holds each block's bound
    predict_at = J + 2  # block s = J + 1 has no S2_prev yet
    for s in range(J + 1, s_max + 1):
        if n != len(classes):
            n = len(classes)
            U_rows, X_rows = [r[:n] for r in U], [r[:n] for r in X]
            Wc, S2c, vm1c, rowc = W[:n], S2_prev[:n], vm1[:n], row[:n]
        cost.spod_classes = n
        L = alpha * (s - J)
        top = L if K is None else K
        # coef[ell][nu - 1] = gamma_s(nu) perm(ell, nu), the weight of U[ell - nu] in X[ell]
        coef = (np.array(gtab[s - J - 1]) * perm[: top + 1]).tolist()
        if L_prev:
            S2c.fill(0.0)
            cost.spod_update_units[s - 1] = min(L_prev, top) * N
        Wc.fill(0.0)
        # one sweep: finish U[ell] of block s-1, then overwrite X[ell] from
        # finished rows; sums run in ascending ell as separate passes would
        for ell in range(1, top + 1):
            Xr = X_rows[ell]
            if ell <= L_prev:
                Ur = U_rows[ell]
                np.multiply(vm1c, Xr, out=rowc)
                np.add(Ur, rowc, out=Ur)
                np.add(S2c, Ur, out=S2c)
            np.multiply(U_rows[ell - 1], coef[ell][0], out=Xr)
            for nu in range(2, min(alpha, ell) + 1):
                np.multiply(U_rows[ell - nu], coef[ell][nu - 1], out=rowc)
                np.add(Xr, rowc, out=Xr)
            np.add(Wc, Xr, out=Wc)
        a = min(alpha, top)  # sum of min(alpha, ell) over ell = 1..top
        cost.spod_assembly_units[s] = N * (a * (a + 1) // 2 + alpha * (top - a))
        if K is not None:
            gval = dict(enumerate(gtab[s - J - 1], start=1))
            xtail[:n] = _certify_cap(U_rows, K, A[:n], gval, L, Wc, S2c)
            capped = True
        elif cap_margin and predict_at <= s < s_max:
            excess = _tail_excess(spec, s, gtab[s - J - 1 :], U_rows, L_prev, Wc, S2c, cap_margin)
            if excess < 0:
                K = L  # block s swept every row: no tail yet, A stays 0
                cost.spod_order_cap = K
            else:
                predict_at = s + 1 + int(min(excess, 120.0) // _CAP_FALL)
        W_slots, S2_slots = Wc[classes.of], S2c[classes.of]
        V = np.ones(slots)
        block = []
        for _t in range(alpha):
            block.append(select(V * W_slots * one_plus_S1, "SPOD"))
            V = V * (1.0 + matrix.slot_column(block[-1]))
            S2 = S2_slots + (V - 1.0) * W_slots
            e_steps.append(matrix.point_mean(S1 + S2 * one_plus_S1))
        if s == s_max:
            break
        source = classes.refine(block)
        if source.size:
            # the appended classes take their source's finished rows: U up to
            # min(L_prev, top) (rows above are still 0) and X up to top
            live = U[1 : min(L_prev, top) + 1], X[1 : top + 1], (A, xtail)
            for rows in live:
                for r in rows:
                    r[n : n + source.size] = r[source]
        n_new = len(classes)
        np.subtract(V[classes.rep], 1.0, out=vm1[:n_new])
        if capped:
            A[:n_new] += np.abs(vm1[:n_new]) * xtail[:n_new]
        L_prev = L
    return e_steps


# -- guaranteed bound check ----------------------------------------------------


@dataclass
class BoundCheck:
    """Criterion-versus-bound comparison over a lambda grid."""

    entries: list
    ok: bool
    tightest_lambda: float | None

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "tightest_lambda": self.tightest_lambda,
            "entries": self.entries,
        }


def default_lambda_grid(alpha: int):
    """Ten equally spaced values in (1/alpha, 1], endpoint included."""
    lo = 1.0 / alpha
    return [lo + (1.0 - lo) * (i + 1) / 10 for i in range(10)]


def verify_bound(result: CbcResult, spec: WeightSpec, lambda_grid=None) -> BoundCheck:
    """Check the constructed vector's criterion against its guaranteed bound.

    The bound holds for every lambda in (1/alpha, 1]; a violation at any
    grid point signals an implementation bug, not an unlucky input.
    Divergent (infinite) bound values are flagged but count as satisfied.
    An empty grid, or a lambda outside (1/alpha, 1], raises ValueError.
    """
    lambda_grid = default_lambda_grid(spec.alpha) if lambda_grid is None else list(lambda_grid)
    if not lambda_grid:
        raise ValueError("empty lambda grid")
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
