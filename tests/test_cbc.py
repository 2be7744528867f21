"""CBC oracles: literal criterion, fast-vs-slow agreement, recursion identities."""

import itertools
import math

import numpy as np
import pytest

from polylat import cbc
from polylat.cbc import (
    CbcResult,
    NonFiniteScoreError,
    _argmin_candidate,
    default_lambda_grid,
    fast_cbc,
    verify_bound,
)
from polylat.gfpoly import GfPoly, find_irreducible
from polylat.kernel import OmegaMatrix, omega_at_position
from polylat.oracle import (
    criterion_from_columns,
    direct_criterion,
    interlaced_weight,
    pure_omega_column,
    slow_cbc,
)
from polylat.pointgen import GeneratingVector
from polylat.weights import DecaySequence, WeightSpec, order_weight

BETA = DecaySequence.power(0.4, 2.0, p=0.6)


def spec_with(alpha=2, J=1, beta=BETA, b=2):
    return WeightSpec(alpha=alpha, b=b, J=J, beta=beta)


def random_cases(n_cases, seed):
    """Seeded (b, m, alpha, s, J, betas, p) draws for the fast-vs-slow check.

    b^m <= 81 and alpha*s <= 6 keep slow_cbc (one long division per
    candidate, 2^d subsets per criterion) to a fraction of a second a case.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n_cases):
        b = int(rng.choice([2, 3, 5]))
        m = int(rng.integers(1, max(mm for mm in range(1, 5) if b**mm <= 81) + 1))
        alpha = int(rng.integers(2, 4))
        s = int(rng.integers(1, 6 // alpha + 1))
        J = int(rng.integers(0, s + 1))
        betas = tuple(float(v) for v in rng.uniform(0.05, 1.0, size=s))
        p = float(rng.uniform(0.5, 1.0))
        cases.append((b, m, alpha, s, J, betas, p))
    return cases


RANDOM_CASES = random_cases(24, seed=2014)


def make_gv(b, m, encs, alpha):
    return GeneratingVector(
        modulus=find_irreducible(b, m),
        alpha=alpha,
        q=tuple(GfPoly.from_int(b, e) for e in encs),
    )


def criterion_combinations_order(gv, spec, d):
    """Second literal evaluation, iterating subsets in combinations order."""
    cols = [pure_omega_column(gv.modulus, gv.q[j], spec.alpha) for j in range(d)]
    total = 0.0
    for size in range(1, d + 1):
        for v in itertools.combinations(range(1, d + 1), size):
            w = interlaced_weight(v, spec)
            prod = np.ones_like(cols[0])
            for j in v:
                prod = prod * cols[j - 1]
            total += w * float(prod.sum())
    return total / len(cols[0])


class TestDirectCriterion:
    def test_zero_weights_give_zero(self):
        spec = spec_with(beta=DecaySequence.from_list([1e-300, 1e-300], p=1.0))
        gv = make_gv(2, 3, [1, 3, 5, 7], 2)
        assert direct_criterion(gv, spec) == pytest.approx(0.0, abs=1e-290)

    def test_single_component_formula(self):
        spec = spec_with(J=1)
        gv = make_gv(2, 3, [1, 1], 2)
        col = pure_omega_column(gv.modulus, gv.q[0], spec.alpha)
        want = interlaced_weight({1}, spec) * float(col.mean())
        assert direct_criterion(gv, spec, d=1) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("J", [0, 1, 2])
    def test_matches_independent_subset_order(self, J):
        spec = spec_with(J=J)
        gv = make_gv(2, 3, [1, 5, 3, 6], 2)
        for d in range(1, 5):
            a = direct_criterion(gv, spec, d)
            c = criterion_combinations_order(gv, spec, d)
            assert a == pytest.approx(c, rel=1e-12)

    def test_guard_rail(self):
        spec = spec_with()
        gv = make_gv(2, 10, list(range(1, 21)), 2)
        with pytest.raises(ValueError):
            direct_criterion(gv, spec, d=20)


class TestFastVsSlow:
    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("J", [0, 1, 2])
    def test_identical_vectors_and_criteria(self, alpha, J):
        spec = spec_with(alpha=alpha, J=J)
        fast = fast_cbc(spec, 3, 2)
        slow = slow_cbc(spec, 3, 2)
        assert [q.to_int() for q in fast.gen_vector.q] == [
            q.to_int() for q in slow.gen_vector.q
        ]
        for a, c in zip(fast.criterion_per_step, slow.criterion_per_step):
            assert a == pytest.approx(c, rel=1e-9)

    def test_first_component_is_one(self):
        for J in (0, 2):
            res = fast_cbc(spec_with(J=J), 4, 2)
            assert res.gen_vector.q[0] == GfPoly.one(2)

    def test_determinism(self):
        spec = spec_with(J=1)
        a = fast_cbc(spec, 4, 3)
        c = fast_cbc(spec, 4, 3)
        assert a.gen_vector == c.gen_vector
        assert a.criterion_per_step == c.criterion_per_step

    def test_fast_internal_criterion_matches_direct(self):
        for alpha, J in [(2, 0), (2, 1), (2, 2), (3, 1)]:
            spec = spec_with(alpha=alpha, J=J)
            fast = fast_cbc(spec, 3, 2)
            for d in range(1, fast.d + 1):
                ref = direct_criterion(fast.gen_vector, spec, d)
                assert fast.criterion_per_step[d - 1] == pytest.approx(ref, rel=1e-9)

    def test_criterion_values_positive(self):
        res = fast_cbc(spec_with(J=1), 4, 3)
        assert all(e > 0 for e in res.criterion_per_step)

    @pytest.mark.parametrize("b,m", [(3, 2), (3, 3), (5, 2)])
    def test_odd_bases(self, b, m):
        spec = spec_with(alpha=2, J=1, b=b)
        fast = fast_cbc(spec, m, 2)
        slow = slow_cbc(spec, m, 2)
        assert [q.to_int() for q in fast.gen_vector.q] == [
            q.to_int() for q in slow.gen_vector.q
        ]
        for a, c in zip(fast.criterion_per_step, slow.criterion_per_step):
            assert a == pytest.approx(c, rel=1e-9)

    def test_single_candidate_degenerate_size(self):
        # m=1 leaves one candidate (the constant polynomial) and an FFT of
        # length one; the assembled criterion must still match the oracle
        for J in (0, 2):
            spec = spec_with(J=J)
            fast = fast_cbc(spec, 1, 2)
            slow = slow_cbc(spec, 1, 2)
            assert fast.gen_vector == slow.gen_vector
            assert all(q.to_int() == 1 for q in fast.gen_vector.q)
            for d in range(1, fast.d + 1):
                ref = direct_criterion(fast.gen_vector, spec, d)
                assert fast.criterion_per_step[d - 1] == pytest.approx(ref, rel=1e-9)

    def test_single_spod_block(self):
        spec = spec_with(alpha=3, J=0)
        res = fast_cbc(spec, 4, 1)
        ref = direct_criterion(res.gen_vector, spec)
        assert res.criterion_per_step[-1] == pytest.approx(ref, rel=1e-9)

    def test_zero_tail_blocks_leave_criterion_flat(self):
        # a finite list sequence pins beta = 0 past its end: appending those
        # blocks must not change the criterion value
        short = DecaySequence.from_list([0.5, 0.25], p=1.0)
        spec = spec_with(J=5, beta=short)
        res = fast_cbc(spec, 3, 4)
        ref = direct_criterion(res.gen_vector, spec)
        assert res.criterion_per_step[-1] == pytest.approx(ref, rel=1e-9)
        e_at_two_blocks = res.criterion_per_step[2 * spec.alpha - 1]
        for e in res.criterion_per_step[2 * spec.alpha :]:
            assert e == pytest.approx(e_at_two_blocks, rel=1e-12)

    def test_unrescaled_constant_variant(self):
        # same search with the unrescaled constant: criterion scales down,
        # oracle equivalence and the bound must still hold
        spec = WeightSpec(alpha=2, b=2, J=1, beta=BETA, use_prime_constant=False)
        fast = fast_cbc(spec, 3, 2)
        slow = slow_cbc(spec, 3, 2)
        assert fast.gen_vector == slow.gen_vector
        for d in range(1, fast.d + 1):
            ref = direct_criterion(fast.gen_vector, spec, d)
            assert fast.criterion_per_step[d - 1] == pytest.approx(ref, rel=1e-9)
        assert verify_bound(fast, spec).ok
        rescaled = fast_cbc(spec_with(J=1), 3, 2)
        assert fast.criterion_per_step[0] < rescaled.criterion_per_step[0]


class TestFastVsSlowRandom:
    """Seeded differential check over bases, orders, crossovers and weights."""

    @pytest.mark.parametrize(
        "b,m,alpha,s,J,betas,p",
        RANDOM_CASES,
        ids=[f"{i}-b{c[0]}-m{c[1]}-a{c[2]}-s{c[3]}-J{c[4]}" for i, c in enumerate(RANDOM_CASES)],
    )
    def test_vectors_and_criteria_match_slow_cbc(self, b, m, alpha, s, J, betas, p):
        spec = WeightSpec(alpha=alpha, b=b, J=J, beta=DecaySequence.from_list(betas, p=p))
        fast = fast_cbc(spec, m, s)
        slow = slow_cbc(spec, m, s)
        assert [q.to_int() for q in fast.gen_vector.q] == [q.to_int() for q in slow.gen_vector.q]
        for a, c in zip(fast.criterion_per_step, slow.criterion_per_step, strict=True):
            assert a == pytest.approx(c, rel=1e-9)


class TestRecursionIdentities:
    def test_product_regime_assembly_from_raw_columns(self):
        # E_{s,t} reported by the construction must equal the display
        # mean_n [1 + G_s (prod_{i<=t}(1+omega_{s,i}) - 1)] Y_{s-1}(n) - 1
        # assembled here from scratch out of pure omega columns.
        spec = spec_with(J=3)
        res = fast_cbc(spec, 3, 3)
        gv = res.gen_vector
        alpha = spec.alpha
        cols = [pure_omega_column(gv.modulus, q, alpha) for q in gv.q]
        N = gv.n_points
        for s in range(1, 4):
            G_s = sum(
                math.factorial(nu) * order_weight(s, nu, spec)
                for nu in range(1, alpha + 1)
            )
            Y_prev = np.ones(N)
            for j in range(1, s):
                G_j = sum(
                    math.factorial(nu) * order_weight(j, nu, spec)
                    for nu in range(1, alpha + 1)
                )
                block = np.ones(N)
                for i in range(alpha):
                    block *= 1.0 + cols[(j - 1) * alpha + i]
                Y_prev *= 1.0 + G_j * (block - 1.0)
            for t in range(1, alpha + 1):
                V = np.ones(N)
                for i in range(t):
                    V *= 1.0 + cols[(s - 1) * alpha + i]
                want = float(np.mean((1.0 + G_s * (V - 1.0)) * Y_prev)) - 1.0
                got = res.criterion_per_step[(s - 1) * alpha + t - 1]
                assert got == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("alpha,extra", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_spod_order_sums_match_enumeration(self, alpha, extra):
        # U_{s,l}(n) after the last block equals the literal order-l sum
        # l! sum_{|nu|=l} prod_j gamma_j(nu_j) (prod_i (1+omega(y_{j,i})) - 1)
        J = 1
        s_max = J + extra
        spec = spec_with(alpha=alpha, J=J)
        res = fast_cbc(spec, 3, s_max)
        gv = res.gen_vector
        from polylat.kernel import OmegaMatrix

        om = OmegaMatrix(gv.modulus, alpha)
        omega0 = omega_at_position(None, alpha, 2)
        N = gv.n_points

        def block_prod(j):  # prod_i (1 + omega(y_{j,i}^(n))) over the block
            out = np.ones(N)
            for i in range(alpha):
                col = np.empty(N)
                col[0] = omega0
                col[1:] = om.column(gv.q[(j - 1) * alpha + i])
                out *= 1.0 + col
            return out

        blocks = {j: block_prod(j) for j in range(J + 1, s_max + 1)}
        L = alpha * (s_max - J)
        U_direct = {ell: np.zeros(N) for ell in range(1, L + 1)}
        spod_js = list(range(J + 1, s_max + 1))
        for nus in itertools.product(range(alpha + 1), repeat=len(spod_js)):
            ell = sum(nus)
            if ell == 0 or ell > L:
                continue
            term = np.full(N, float(math.factorial(ell)))
            for j, nu in zip(spod_js, nus):
                if nu > 0:
                    term = term * order_weight(j, nu, spec) * (blocks[j] - 1.0)
            U_direct[ell] += term

        # replay the recursion exactly as the construction does
        U = np.zeros((L + 1, N))
        U[0] = 1.0
        for s in range(J + 1, s_max + 1):
            Ls = alpha * (s - J)
            X = np.zeros((Ls + 1, N))
            for ell in range(1, Ls + 1):
                for nu in range(1, min(alpha, ell) + 1):
                    X[ell] += order_weight(s, nu, spec) * math.perm(ell, nu) * U[ell - nu]
            for ell in range(1, Ls + 1):
                U[ell] = U[ell] + (blocks[s] - 1.0) * X[ell]
        for ell in range(1, L + 1):
            assert np.allclose(U[ell], U_direct[ell], rtol=1e-9, atol=1e-12), ell


class TestVerifyBound:
    def test_constructed_vectors_satisfy_bound(self):
        for J in (0, 1, 3):
            spec = spec_with(J=J)
            res = fast_cbc(spec, 4, 3)
            check = verify_bound(res, spec)
            assert check.ok
            assert check.tightest_lambda is not None

    def test_zero_weights_zero_both_sides(self):
        spec = spec_with(beta=DecaySequence.from_list([1e-300], p=1.0), J=1)
        res = fast_cbc(spec, 3, 1)
        check = verify_bound(res, spec)
        assert check.ok

    def test_lambda_grid_validation(self):
        spec = spec_with()
        res = fast_cbc(spec, 3, 1)
        with pytest.raises(ValueError):
            verify_bound(res, spec, [0.5])

    def test_default_grid_in_range(self):
        for alpha in (2, 3, 5):
            grid = default_lambda_grid(alpha)
            assert len(grid) == 10
            assert all(1.0 / alpha < lam <= 1.0 for lam in grid)
            assert grid[-1] == 1.0


class TestNonFiniteScores:
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_argmin_rejects_non_finite_scores(self, bad):
        om = OmegaMatrix(find_irreducible(2, 3), 2)
        scores = np.arange(1.0, 8.0)
        scores[3] = bad
        with pytest.raises(NonFiniteScoreError) as exc:
            _argmin_candidate(scores, om, np.ones(7), 5, "SPOD")
        assert isinstance(exc.value, ArithmeticError)
        assert (exc.value.step, exc.value.regime) == (5, "SPOD")
        assert "step 5" in str(exc.value) and "1 of 7" in str(exc.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_spod_recursion_names_the_step(self):
        # beta_j = 3 j^-2 at alpha = 4: the SPOD scoring vector overflows in block 97
        spec = WeightSpec(alpha=4, b=2, J=0, beta=DecaySequence.power(3.0, 2.0, p=0.6))
        with pytest.raises(NonFiniteScoreError) as exc:
            fast_cbc(spec, 6, 150)
        assert (exc.value.step, exc.value.regime) == (385, "SPOD")


class TestCostLog:
    def test_product_regime_search_constant_per_step(self):
        spec = spec_with(J=4)
        res = fast_cbc(spec, 5, 4)
        assert len(res.cost.search_units) == res.d
        assert len(set(res.cost.search_units)) == 1

    def test_spod_assembly_proportional_to_block_size(self):
        spec = spec_with(J=1)
        res = fast_cbc(spec, 5, 5)
        N = res.gen_vector.n_points
        alpha = spec.alpha
        for s, units in res.cost.spod_assembly_units.items():
            target = alpha**2 * (s - spec.J) * N
            assert 0.5 * target <= units <= 2.0 * target

    def test_spod_update_skipped_for_final_block(self):
        spec = spec_with(J=1)
        s_max = 5
        res = fast_cbc(spec, 5, s_max)
        N = res.gen_vector.n_points
        assert sorted(res.cost.spod_update_units) == list(range(spec.J + 1, s_max))
        for s, units in res.cost.spod_update_units.items():
            assert units == spec.alpha * (s - spec.J) * N

    def test_counts_scale_on_a_doubling_grid(self):
        # b=2, m=4: assembly is quadratic in s-J, the search linear in s
        alpha, N = 2, 16
        totals = []
        for J, s_max in [(0, 8), (0, 16), (0, 32), (3, 11)]:
            res = fast_cbc(spec_with(J=J), 4, s_max)
            want = N * sum(min(alpha, ell) for s in range(J + 1, s_max + 1)
                           for ell in range(1, alpha * (s - J) + 1))
            assert sum(res.cost.spod_assembly_units.values()) == want
            assert len(res.cost.search_units) == alpha * s_max
            totals.append(want)
        assert totals[3] == totals[0]  # only s - J matters
        r1, r2 = totals[1] / totals[0], totals[2] / totals[1]
        assert 3.8 < r1 < r2 < 4.0

    def test_memory_note_fields_exist(self):
        res = fast_cbc(spec_with(J=0), 3, 2)
        assert res.cost.n_points == 8
        phases = {"omega_matrix", "product", "spod_recursion", "scoring", "total"}
        assert set(res.timings) == phases
        assert all(t >= 0.0 for t in res.timings.values())
        assert sum(t for k, t in res.timings.items() if k != "total") <= res.timings["total"]


class TestMemoryGuard:
    def test_refuses_spod_buffers_beyond_physical_memory(self, monkeypatch):
        monkeypatch.setattr(cbc, "OmegaMatrix", None)  # refused before the table is built
        with pytest.raises(ValueError) as exc:
            fast_cbc(spec_with(J=0), 4, 10**12)  # 2 (2e12 + 1) 16 doubles: ~466 TiB
        assert "s=1000000000000" in str(exc.value) and "m=4" in str(exc.value)
        assert "GiB" in str(exc.value)


class TestRescoredCount:
    @pytest.mark.parametrize("b,m", [(2, 5), (3, 3)])
    def test_counts_the_exact_ties_of_each_step(self, b, m):
        # the literal criterion of every candidate at every step tells which
        # steps have an exact tie and which a clear unique minimum
        spec = spec_with(J=1, b=b)
        res = fast_cbc(spec, m, 3)
        assert len(res.cost.rescored) == res.d - 1
        q = [x.to_int() for x in res.gen_vector.q]
        cols = {e: pure_omega_column(res.gen_vector.modulus, GfPoly.from_int(b, e), 2)
                for e in range(1, b**m)}
        unique_steps = 0
        for k, rescored in enumerate(res.cost.rescored, start=1):
            chosen = [cols[e] for e in q[:k]]
            vals = np.sort([criterion_from_columns(chosen + [c], spec) for c in cols.values()])
            n_ties = int(np.count_nonzero(vals <= vals[0] + 1e-12 * abs(vals[0])))
            if n_ties > 1:
                assert rescored >= n_ties, k + 1
            elif vals[1] - vals[0] > 1e-6 * abs(vals[0]):
                assert rescored == 0, k + 1
                unique_steps += 1
        if b == 2:
            assert unique_steps > 0
        else:
            # q and 2q always score alike over Z_3, so step 2 rescores a tie
            assert res.cost.rescored[0] > 1


class TestSidecar:
    def test_sidecar_schema(self):
        spec = spec_with(J=1)
        res = fast_cbc(spec, 3, 2)
        check = verify_bound(res, spec)
        doc = res.sidecar_dict(bound_check=check)
        assert set(doc) == {"E_per_step", "J", "timings", "bound_check", "spod_order_cap",
                            "spod_rerun"}
        assert doc["timings"] == res.timings
        assert len(doc["E_per_step"]) == res.d
        assert doc["bound_check"]["ok"] is True
        assert doc["spod_order_cap"] is None and doc["spod_rerun"] is False

    def test_sidecar_reports_the_order_cap(self):
        res = fast_cbc(spec_with(J=0), 3, 120)
        doc = res.sidecar_dict()
        assert doc["spod_order_cap"] == res.cost.spod_order_cap > 0
        assert doc["spod_rerun"] is False


def _outputs(res):
    return ([q.to_int() for q in res.gen_vector.q],
            [float(e).hex() for e in res.criterion_per_step])


def capped_cases(n_cases, seed):
    """Seeded (b, m, alpha, J, s, beta) draws long enough for the order cap."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n_cases):
        b, alpha = [(2, 2), (2, 3), (3, 2), (3, 3)][i % 4]
        m = int(rng.integers(3, 5)) if b == 2 else int(rng.integers(2, 4))
        J = int(rng.integers(0, 11))
        s = int(rng.integers(100, 201))
        c, theta = float(rng.uniform(0.2, 0.8)), float(rng.uniform(2.0, 3.0))
        beta = DecaySequence.power(c, theta, p=0.6)
        cases.append((b, m, alpha, J, s, beta))
    return cases


class TestOrderCap:
    """The SPOD sweep's order cap changes no bit of any vector or criterion."""

    @pytest.mark.parametrize("b,m,alpha,J,s,beta", capped_cases(6, seed=13))
    def test_capped_matches_uncapped(self, monkeypatch, b, m, alpha, J, s, beta):
        spec = WeightSpec(alpha=alpha, b=b, J=J, beta=beta)
        capped = fast_cbc(spec, m, s)
        K = capped.cost.spod_order_cap
        assert K is not None and K < alpha * (s - J) and not capped.cost.spod_rerun
        # blocks past the cap sweep K rows, whatever their order
        N = capped.gen_vector.n_points
        assert capped.cost.spod_assembly_units[s] == N * sum(min(alpha, l) for l in range(1, K + 1))
        assert capped.cost.spod_update_units[s - 1] == K * N
        monkeypatch.setattr(cbc, "_CAP_MARGIN", 0.0)
        full = fast_cbc(spec, m, s)
        assert full.cost.spod_order_cap is None
        assert _outputs(capped) == _outputs(full)

    def test_certificate_bounds_the_skipped_rows(self, monkeypatch):
        # replay the full recursion: at every capped block, A and xtail bound
        # the U and X rows the sweep never formed, point by point
        spec, alpha, s_max = spec_with(J=0), 2, 150
        seen = {}
        certify = cbc._certify_cap

        def spy(U_rows, K, A, gval, L, W, S2_prev):
            xtail = certify(U_rows, K, A, gval, L, W, S2_prev)
            seen[L // alpha] = (K, A.copy(), xtail.copy())
            return xtail

        monkeypatch.setattr(cbc, "_certify_cap", spy)
        res = fast_cbc(spec, 4, s_max)
        assert len(seen) > 50
        gv = res.gen_vector
        om = OmegaMatrix(gv.modulus, alpha)
        N = gv.n_points
        col = np.empty(N)
        col[0] = omega_at_position(None, alpha, 2)
        U = np.zeros((alpha * s_max + 1, N))
        U[0] = 1.0
        for s in range(1, s_max + 1):
            L = alpha * s
            X = np.zeros((L + 1, N))
            for ell in range(1, L + 1):
                for nu in range(1, min(alpha, ell) + 1):
                    X[ell] += order_weight(s, nu, spec) * math.perm(ell, nu) * U[ell - nu]
            if s in seen:
                K, A, xtail = seen[s]
                assert np.all(np.abs(U[K + 1 :]).sum(axis=0) <= A * (1 + 1e-12)), s
                assert np.all(np.abs(X[K + 1 :]).sum(axis=0) <= xtail * (1 + 1e-12)), s
            V = np.ones(N)
            for q in gv.q[(s - 1) * alpha : s * alpha]:
                col[1:] = om.column(q.to_int())
                V *= 1.0 + col
            U[1 : L + 1] += (V - 1.0) * X[1:]

    def test_premature_cap_reruns_without_it(self, monkeypatch):
        spec = spec_with(J=0)
        monkeypatch.setattr(cbc, "_CAP_MARGIN", 2.0**-20)
        tripped = fast_cbc(spec, 6, 150)
        assert tripped.cost.spod_order_cap is not None and tripped.cost.spod_rerun
        monkeypatch.setattr(cbc, "_CAP_MARGIN", 0.0)
        full = fast_cbc(spec, 6, 150)
        assert _outputs(tripped) == _outputs(full)
        # the rerun's counts are those of the full sweep
        assert tripped.cost.spod_assembly_units == full.cost.spod_assembly_units
        assert tripped.cost.search_units == full.cost.search_units
        assert tripped.cost.rescored == full.cost.rescored

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_cap_neither_masks_nor_moves_an_overflow(self, monkeypatch):
        # the ROADMAP repro: a cap set at block 80 (K = 320) meets a non-finite
        # W at block 97, reruns, and the uncapped run fails where it always did
        spec = WeightSpec(alpha=4, b=2, J=0, beta=DecaySequence.power(3.0, 2.0, p=0.6))
        monkeypatch.setattr(cbc, "_tail_excess", lambda _spec, s, *rest: -1.0 if s >= 80 else 1.0)
        margins, trips = [], []
        regime, certify = cbc._spod_regime, cbc._certify_cap

        def spy_regime(*args):
            margins.append(args[-1])
            return regime(*args)

        def spy_certify(U_rows, K, A, gval, L, W, S2_prev):
            try:
                return certify(U_rows, K, A, gval, L, W, S2_prev)
            except cbc._CapTripped:
                trips.append((K, L // 4, bool(np.isfinite(W).all())))
                raise

        monkeypatch.setattr(cbc, "_spod_regime", spy_regime)
        monkeypatch.setattr(cbc, "_certify_cap", spy_certify)
        with pytest.raises(NonFiniteScoreError) as exc:
            fast_cbc(spec, 6, 150)
        assert (exc.value.step, exc.value.regime) == (385, "SPOD")
        assert margins == [cbc._CAP_MARGIN, 0.0]
        assert trips == [(320, 97, False)]
