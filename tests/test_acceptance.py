"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines; the suite is oracle-based throughout (no tabulated reference
values exist for these constructions).
"""

import math
import time

import numpy as np
import pytest

from polylat.cbc import default_lambda_grid, fast_cbc, verify_bound
from polylat.gfpoly import find_irreducible
from polylat.kernel import OmegaMatrix
from polylat.oracle import direct_criterion, multiply_naive, slow_cbc
from polylat.pointgen import classical_digit_array, lattice_points
from polylat.quad import (
    Integrand,
    convergence_study,
    product_exponential,
    qmc_apply,
    rational_spod,
    truncate_integrand,
)
from polylat.weights import DecaySequence, WeightSpec, truncation_bound

GRID_BETA = DecaySequence.power(0.4, 2.0, p=0.6)
RATE_BETA = DecaySequence.power(0.1, 2.0, p=0.55)


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def small_grid():
    """Criterion-1 grid: both constructions on every combination.

    Runs at s_max = 3; every smaller s <= 3 with J in {0, 1, s} is a
    greedy prefix of one of these runs (J = 2 included so the s = 2,
    J = s case is covered), and the per-step comparisons check exactly
    those prefixes.
    """
    t0 = time.perf_counter()
    runs = []
    for m in (3, 4, 5):
        for alpha in (2, 3):
            for J in (0, 1, 2, 3):
                spec = WeightSpec(alpha=alpha, b=2, J=J, beta=GRID_BETA)
                runs.append((spec, m, fast_cbc(spec, m, 3), slow_cbc(spec, m, 3)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def large_runs():
    """Criterion-3 larger constructions: b=2, m=10, alpha=2, s=16."""
    t0 = time.perf_counter()
    runs = []
    for J in (0, 4, 16):
        spec = WeightSpec(alpha=2, b=2, J=J, beta=GRID_BETA)
        runs.append((spec, fast_cbc(spec, 10, 16)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def rate_records():
    """Criterion-5/6 convergence studies, shared between the two tests."""
    g = product_exponential(RATE_BETA, 8, 1.0)
    spec2 = WeightSpec(alpha=2, b=2, J=8, beta=RATE_BETA)
    spec3 = WeightSpec(alpha=3, b=2, J=8, beta=RATE_BETA)
    t0 = time.perf_counter()
    rec2 = convergence_study(spec2, g, range(6, 14), mc_baseline=True, seed=2026)
    rec3 = convergence_study(spec3, g, range(6, 14))
    return rec2, rec3, time.perf_counter() - t0


def test_criterion_1_cbc_oracle_equivalence(small_grid):
    runs, elapsed = small_grid
    worst = 0.0
    mismatches = []
    for spec, m, fast, slow in runs:
        if [q.to_int() for q in fast.gen_vector.q] != [q.to_int() for q in slow.gen_vector.q]:
            mismatches.append((spec.alpha, spec.J, m))
        for a, b in zip(fast.criterion_per_step, slow.criterion_per_step):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    ok = not mismatches and worst <= 1e-9 and elapsed < 60.0
    report(
        1,
        "cbc oracle equivalence",
        ok,
        f"{len(runs)} runs, vector mismatches {mismatches}, criterion rel {worst:.2e}, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_direct_criterion_equivalence(small_grid):
    runs, _ = small_grid
    worst = 0.0
    for spec, m, fast, _slow in runs:
        for d in range(1, fast.d + 1):
            ref = direct_criterion(fast.gen_vector, spec, d)
            worst = max(
                worst,
                abs(fast.criterion_per_step[d - 1] - ref) / max(abs(ref), 1e-300),
            )
    report(2, "direct-criterion equivalence", worst <= 1e-9, f"max rel {worst:.2e}")


def test_criterion_3_theoretical_bound(small_grid, large_runs):
    runs, build_elapsed = large_runs
    t0 = time.perf_counter()
    violations = 0
    checked = 0
    for spec, _m, fast, _slow in small_grid[0]:
        chk = verify_bound(fast, spec, default_lambda_grid(spec.alpha))
        violations += sum(not e["ok"] for e in chk.entries)
        checked += len(chk.entries)
    for spec, result in runs:
        chk = verify_bound(result, spec, default_lambda_grid(spec.alpha))
        violations += sum(not e["ok"] for e in chk.entries)
        checked += len(chk.entries)
    elapsed = build_elapsed + (time.perf_counter() - t0)
    ok = violations == 0 and elapsed < 300.0
    report(
        3,
        "guaranteed criterion bound",
        ok,
        f"{checked} lambda checks, {violations} violations, {elapsed:.1f}s (< 5min)",
    )


def test_criterion_4_fft_correctness():
    rng = np.random.default_rng(404)
    worst = 0.0
    cases = [(2, m) for m in range(2, 9)] + [(3, m) for m in range(2, 6)]
    for b, m in cases:
        om = OmegaMatrix(find_irreducible(b, m), 2)
        for _ in range(20):
            vec = rng.standard_normal(om.size)
            classes = om.pow_enc.reshape(b - 1, -1) - 1
            fastv = np.empty(om.size)  # vec folded per class; each score spread to every member
            fastv[classes] = om.multiply(vec[classes].sum(axis=0))
            ref = multiply_naive(om, vec)
            worst = max(
                worst, float(np.max(np.abs(fastv - ref)) / max(np.max(np.abs(ref)), 1e-300))
            )
    report(4, "fft vs naive multiply", worst <= 1e-9, f"max rel {worst:.2e} over {len(cases)} sizes")


def test_criterion_5_convergence_rate(rate_records):
    rec2, _rec3, elapsed = rate_records
    ok = (
        rec2.slope is not None
        and rec2.slope <= -1.5
        and rec2.mc_slope is not None
        and -0.7 <= rec2.mc_slope <= -0.3
        and elapsed < 300.0
    )
    report(
        5,
        "convergence rate",
        ok,
        f"slope {rec2.slope:.3f} (<= -1.5), mc slope {rec2.mc_slope:.3f} in [-0.7,-0.3], "
        f"{elapsed:.1f}s (< 5min)",
    )


def test_criterion_6_higher_order_gain(rate_records):
    rec2, rec3, _elapsed = rate_records
    ok = rec3.slope is not None and rec3.slope <= rec2.slope + 0.3
    report(
        6,
        "higher interlacing order does not degrade",
        ok,
        f"alpha=3 slope {rec3.slope:.3f} <= alpha=2 slope {rec2.slope:.3f} + 0.3",
    )


def test_criterion_7_truncation_bound():
    t0 = time.perf_counter()
    seq = DecaySequence.power(1.0, 3.0, p=0.5)
    tail_ok = all(seq.tail(s) <= truncation_bound(seq, 0.5, s) for s in range(1, 101))

    c0 = 2.0
    g = rational_spod(seq, 8, c0)
    lipschitz = 0.5 / (c0 - sum(seq.beta(j) for j in range(1, 9))) ** 2
    trunc_ok = True
    worst_margin = math.inf
    for s_trunc in range(1, 9):
        err = abs(truncate_integrand(g, s_trunc).exact_integral - g.exact_integral)
        cap = lipschitz * truncation_bound(seq, 0.5, s_trunc) + 1e-10
        worst_margin = min(worst_margin, cap - err)
        trunc_ok = trunc_ok and err <= cap
    elapsed = time.perf_counter() - t0
    ok = tail_ok and trunc_ok and elapsed < 10.0
    report(
        7,
        "dimension-truncation bound",
        ok,
        f"tail dominated for s=1..100: {tail_ok}, integrand truncation dominated: "
        f"{trunc_ok} (min margin {worst_margin:.2e}), {elapsed:.1f}s (< 10s)",
    )


def test_criterion_8_exactness_invariants(small_grid, large_runs):
    vectors = [run[2].gen_vector for run in small_grid[0]]
    vectors += [result.gen_vector for _spec, result in large_runs[0]]
    mean_ok = True
    proj_ok = True
    for gv in vectors:
        pts = lattice_points(gv)
        one = Integrand(dimension=gv.s, family="user", evaluate=lambda y: np.ones(len(y)))
        mean_ok = mean_ok and abs(qmc_apply(pts, one) - 1.0) <= 1e-14
        if gv.n_points <= 1024:
            digits = classical_digit_array(gv)
            place = gv.b ** np.arange(gv.m - 1, -1, -1, dtype=np.int64)
            for j in range(gv.d):
                codes = sorted(digits[:, j, :].astype(np.int64) @ place)
                proj_ok = proj_ok and codes == list(range(gv.n_points))
    report(
        8,
        "exactness invariants",
        mean_ok and proj_ok,
        f"{len(vectors)} vectors: unit integrand exact {mean_ok}, "
        f"1-D projections exact permutations {proj_ok}",
    )


def test_criterion_9_cost_model(large_runs):
    search_ok = True
    update_ok = True
    details = []
    for spec, result in large_runs[0]:
        units = result.cost.search_units
        search_ok = search_ok and len(set(units)) == 1 and len(units) == result.d
        N = result.gen_vector.n_points
        for s, assembly in result.cost.spod_assembly_units.items():
            target = spec.alpha**2 * (s - spec.J) * N
            ratio = assembly / target
            update_ok = update_ok and 0.5 <= ratio <= 2.0
            details.append(round(ratio, 3))
    report(
        9,
        "cost-model bookkeeping",
        search_ok and update_ok,
        f"search constant per step: {search_ok}; spod assembly/alpha^2(s-J)N ratios "
        f"min {min(details):.3f} max {max(details):.3f}",
    )
