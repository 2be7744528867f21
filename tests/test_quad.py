"""Quadrature oracles: exact integrals, Laplace-quadrature reference, truncation, slopes."""

import math

import numpy as np
import pytest

from polylat import quad
from polylat.cbc import fast_cbc
from polylat.pointgen import lattice_points
from polylat.quad import (
    Integrand,
    convergence_study,
    fit_slope,
    product_exponential,
    qmc_apply,
    _rational_reference,
    rational_spod,
    truncate_integrand,
)
from polylat.weights import DecaySequence, WeightSpec, error_constant


BETA = DecaySequence.power(0.1, 2.0, p=0.55)


def constructed_points(spec, m, s):
    return lattice_points(fast_cbc(spec, m, s).gen_vector)


def rational_2d(a, b, c):
    """Integral of 1/(c - a y1 - b y2) over the unit square in closed form."""

    def G(z):
        return z * math.log(z) - z

    return (G(c) - G(c - a) - G(c - b) + G(c - a - b)) / (a * b)


class TestQmcApply:
    def test_constant_is_exact(self):
        spec = WeightSpec(alpha=2, b=2, J=4, beta=BETA)
        pts = constructed_points(spec, 6, 4)
        one = Integrand(dimension=4, family="user", evaluate=lambda y: np.ones(len(y)))
        assert abs(qmc_apply(pts, one) - 1.0) <= 1e-14

    def test_single_coordinate_linear_is_exact(self):
        from polylat.pointgen import classical_digit_array, digits_to_values

        spec = WeightSpec(alpha=2, b=2, J=4, beta=BETA)
        res = fast_cbc(spec, 6, 3)
        # classical coordinates: uniform 1-D projections -> mean (N-1)/(2N)
        classical = digits_to_values(classical_digit_array(res.gen_vector), 2)
        N = res.gen_vector.n_points
        lin = Integrand(dimension=6, family="user", evaluate=lambda y: y[:, 0])
        assert abs(qmc_apply(classical, lin) - (N - 1) / (2 * N)) <= 1e-14
        # interlaced coordinates live on the alpha*m grid: mean (B-1)/(2B)
        pts = lattice_points(res.gen_vector)
        B = 2 ** (2 * res.gen_vector.m)
        lin3 = Integrand(dimension=3, family="user", evaluate=lambda y: y[:, 0])
        assert abs(qmc_apply(pts, lin3) - (B - 1) / (2 * B)) <= 1e-14

    def test_dimension_mismatch_rejected(self):
        g = product_exponential(BETA, 3, 1.0)
        with pytest.raises(ValueError):
            qmc_apply(np.zeros((4, 2)), g)


class TestProductExponential:
    def test_degenerate_scale(self):
        g = product_exponential(BETA, 3, 0.0)
        assert g.exact_integral == 1.0
        assert np.allclose(g(np.random.default_rng(0).random((5, 3))), 1.0)

    def test_one_dimensional_value(self):
        g = product_exponential(DecaySequence.from_list([1.0], p=1.0), 1, 1.0)
        assert g.exact_integral == pytest.approx(math.e - 1.0, rel=1e-15)

    def test_two_dimensional_product(self):
        g = product_exponential(DecaySequence.from_list([1.0, math.log(2)], p=1.0), 2, 1.0)
        want = (math.e - 1.0) * (1.0 / math.log(2))
        assert g.exact_integral == pytest.approx(want, rel=1e-14)

    def test_qmc_error_below_theoretical_bound(self):
        # one-sided: measured error <= c(G) * explicit error constant.  The
        # constant is finite in double precision only for small decay scales.
        beta = DecaySequence.power(5e-7, 3.0, p=0.5)
        spec = WeightSpec(alpha=3, b=2, J=4, beta=beta)
        g = product_exponential(beta, 4, 1.0)
        pts = constructed_points(spec, 8, 4)
        err = abs(qmc_apply(pts, g) - g.exact_integral)
        c_of_g = math.exp(sum(beta.beta(j) for j in range(1, 5)))
        bound = error_constant(spec, 2**8)
        assert math.isfinite(bound)
        assert err <= c_of_g * bound


class TestRational:
    def test_one_dimensional_closed_form(self):
        seq = DecaySequence.from_list([0.5], p=1.0)
        g = rational_spod(seq, 1, 2.0)
        assert g.provenance == "closed-form"
        assert g.exact_integral == pytest.approx(math.log(2.0 / 1.5) / 0.5, rel=1e-14)

    def test_reference_agrees_with_closed_form_in_1d(self):
        got = _rational_reference(np.array([0.5]), 2.0, n=48)
        assert got == pytest.approx(math.log(2.0 / 1.5) / 0.5, rel=1e-13)

    def test_stability_under_node_doubling(self):
        seq = DecaySequence.power(1.0, 3.0, p=0.5)
        a = _rational_reference(seq.head(3), 3.0, n=48)
        c = _rational_reference(seq.head(3), 3.0, n=96)
        assert abs(a - c) <= 1e-12 * max(1.0, abs(a))

    @pytest.mark.parametrize("a0", [1.0, 0.1, 0.01, 0.001, 0.0001])
    def test_two_dimensional_closed_form(self, a0):
        c0 = a0 + 1.0
        g = rational_spod(DecaySequence.from_list([0.6, 0.4], p=1.0), 2, c0)
        assert g.provenance == "laplace-quadrature"
        assert g.exact_integral == pytest.approx(rational_2d(0.6, 0.4, c0), rel=1e-12)

    def test_spod_heavy_reference_value(self):
        # the perfbench spod-heavy integrand; value from the earlier
        # Chebyshev-cascade reference
        beta = DecaySequence.power(0.4, 2.0, p=0.6)
        g = rational_spod(beta, 200, 2.0 * max(beta.sum1(), 1.0))
        assert g.exact_integral == pytest.approx(0.6012014322096407, rel=1e-12)

    def test_zero_tail_entries_drop_out(self):
        # a list sequence is zero past its values: those coordinates are inert
        seq = DecaySequence.from_list([0.6, 0.4], p=1.0)
        padded = rational_spod(seq, 5, 1.5)
        assert padded.params["b_head"][2:] == (0.0, 0.0, 0.0)
        assert padded.exact_integral == pytest.approx(rational_2d(0.6, 0.4, 1.5), rel=1e-12)

    def test_unstable_reference_raises(self, monkeypatch):
        # one panel over the whole log-t range leaves the near-pole decay
        # under-resolved: 64 and 128 nodes disagree, and the self-check says so
        monkeypatch.setattr(quad, "REFERENCE_PANELS", 1)
        with pytest.raises(ArithmeticError, match="did not stabilize"):
            rational_spod(DecaySequence.from_list([0.6, 0.4], p=1.0), 2, 1.001)

    def test_monte_carlo_agreement(self):
        seq = DecaySequence.power(1.0, 3.0, p=0.5)
        g = rational_spod(seq, 4, 3.0)
        rng = np.random.default_rng(11)
        sample = rng.random((200000, 4))
        mc = float(np.mean(g(sample)))
        assert abs(mc - g.exact_integral) < 5e-3

    def test_pole_rejected(self):
        with pytest.raises(ValueError):
            rational_spod(DecaySequence.from_list([1.0, 1.0], p=1.0), 2, 1.5)


class TestTruncation:
    def test_full_dimension_is_identity(self):
        g = product_exponential(BETA, 4, 1.0)
        assert truncate_integrand(g, 4) is g

    def test_product_family_closed_form(self):
        beta = DecaySequence.from_list([0.5, 0.25, 0.125], p=1.0)
        g = product_exponential(beta, 3, 1.0)
        t = truncate_integrand(g, 1)
        want = (math.exp(0.5) - 1.0) / 0.5 * math.exp((0.25 + 0.125) / 2)
        assert t.exact_integral == pytest.approx(want, rel=1e-14)
        pts = np.array([[0.3]])
        assert t(pts)[0] == pytest.approx(
            math.exp(0.5 * 0.3) * math.exp((0.25 + 0.125) / 2), rel=1e-14
        )

    def test_truncation_error_decreases(self):
        beta = DecaySequence.power(0.2, 2.0, p=0.6)
        g = product_exponential(beta, 6, 1.0)
        errs = [
            abs(truncate_integrand(g, s).exact_integral - g.exact_integral)
            for s in range(1, 7)
        ]
        assert all(a >= b for a, b in zip(errs, errs[1:]))

    def test_rational_truncation_shifts_pole_offset(self):
        seq = DecaySequence.power(1.0, 3.0, p=0.5)
        g = rational_spod(seq, 4, 3.0)
        t = truncate_integrand(g, 2)
        assert t.dimension == 2
        tail = sum(seq.beta(j) for j in (3, 4))
        assert t.params["c0"] == pytest.approx(3.0 - 0.5 * tail, rel=1e-14)
        # evaluator agrees with pinning the tail at the anchor
        y = np.array([[0.2, 0.7]])
        full = np.array([[0.2, 0.7, 0.5, 0.5]])
        assert t(y)[0] == pytest.approx(g(full)[0], rel=1e-14)

    def test_user_family_pins_anchor(self):
        g = Integrand(dimension=3, family="user", evaluate=lambda y: y.sum(axis=1))
        t = truncate_integrand(g, 1)
        assert t(np.array([[0.25]]))[0] == pytest.approx(0.25 + 0.5 + 0.5)


class TestSlopes:
    def test_fit_slope_recovers_power_law(self):
        Ns = [2**m for m in range(5, 12)]
        errs = [3.0 * n**-1.7 for n in Ns]
        assert fit_slope(Ns, errs, skip=2) == pytest.approx(-1.7, abs=1e-12)

    def test_fit_slope_excludes_noise_floor(self):
        Ns = [2**m for m in range(5, 12)]
        errs = [3.0 * n**-1.7 for n in Ns[:-2]] + [1e-16, 1e-16]
        got = fit_slope(Ns, errs, skip=2)
        assert got == pytest.approx(-1.7, abs=1e-12)

    def test_fit_slope_too_few_points(self):
        assert fit_slope([8, 16], [1e-16, 1e-16], skip=0) is None

    def test_quick_convergence_run(self):
        spec = WeightSpec(alpha=2, b=2, J=4, beta=BETA)
        g = product_exponential(BETA, 4, 1.0)
        rec = convergence_study(spec, g, range(5, 10))
        assert not rec.degenerate
        assert rec.slope is not None and rec.slope < -1.0
        assert [n for _m, n, _e in rec.entries] == [2**m for m in range(5, 10)]

    def test_degenerate_integrand_flagged(self):
        spec = WeightSpec(alpha=2, b=2, J=2, beta=BETA)
        one = Integrand(
            dimension=2,
            family="user",
            evaluate=lambda y: np.ones(len(y)),
            exact_integral=1.0,
        )
        rec = convergence_study(spec, one, range(3, 7))
        assert rec.degenerate
        assert rec.slope is None

    def test_non_increasing_m_rejected(self):
        spec = WeightSpec(alpha=2, b=2, J=2, beta=BETA)
        g = product_exponential(BETA, 2, 1.0)
        with pytest.raises(ValueError):
            convergence_study(spec, g, [5, 5])

    def test_missing_reference_rejected(self):
        spec = WeightSpec(alpha=2, b=2, J=2, beta=BETA)
        g = Integrand(dimension=2, family="user", evaluate=lambda y: y[:, 0])
        with pytest.raises(ValueError):
            convergence_study(spec, g, [4, 5])

    def test_csv_roundtrip(self, tmp_path):
        spec = WeightSpec(alpha=2, b=2, J=2, beta=BETA)
        g = product_exponential(BETA, 2, 1.0)
        rec = convergence_study(spec, g, [4, 5, 6], mc_baseline=True, seed=7, mc_reps=4)
        path = tmp_path / "conv.csv"
        rec.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "m,N,error,mc_error"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert int(first[0]) == 4 and int(first[1]) == 16
        float(first[2]), float(first[3])  # parse cleanly
