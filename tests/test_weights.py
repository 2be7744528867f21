"""Weight and bound oracles: literal enumerations, Decimal series, tails."""

import decimal
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from polylat import weights
from polylat.weights import (
    DecaySequence,
    WeightSpec,
    bound_constant,
    cbc_bound,
    crossover_dimension,
    error_budget,
    error_constant,
    order_weight,
    select_rate_parameters,
    smallness_condition,
    truncation_bound,
    wce_constant,
)
from polylat.oracle import block_set, hybrid_weight, interlaced_weight

BETA = DecaySequence.power(0.4, 2.0, p=0.6)


def spec_with(alpha=2, b=2, J=1, beta=BETA, prime=True):
    return WeightSpec(alpha=alpha, b=b, J=J, beta=beta, use_prime_constant=prime)


def hybrid_weight_direct(u, spec):
    """Literal enumeration of the weight sum over all order vectors."""
    u = sorted(u)
    if not u:
        return 1.0
    total = 0.0
    for nus in itertools.product(range(1, spec.alpha + 1), repeat=len(u)):
        inside = [nu for j, nu in zip(u, nus) if j <= spec.J]
        outside = [nu for j, nu in zip(u, nus) if j > spec.J]
        term = 1.0
        for nu in inside:
            term *= math.factorial(nu)
        term *= math.factorial(sum(outside))
        for j, nu in zip(u, nus):
            term *= (2.0 if nu == spec.alpha else 1.0) * spec.beta.beta(j) ** nu
        total += term
    return total


class TestBlockSet:
    def test_hand_example(self):
        assert block_set({1, 3, 4}, 2) == frozenset({1, 2})

    def test_empty(self):
        assert block_set(set(), 2) == frozenset()

    def test_full_block(self):
        assert block_set(set(range(1, 4)), 3) == frozenset({1})


class TestWceConstant:
    def test_alpha2_base2(self):
        assert wce_constant(2, 2, rescaled=False) == pytest.approx(4.5, abs=1e-14)
        assert wce_constant(2, 2, rescaled=True) == pytest.approx(18.0, abs=1e-13)

    def test_positive(self):
        for alpha in (2, 3, 4):
            for b in (2, 3, 5):
                assert wce_constant(alpha, b) > 0


class TestOrderWeight:
    def test_spot_value(self):
        spec = spec_with(beta=DecaySequence.from_list([0.1], p=1.0))
        assert order_weight(1, 1, spec) == pytest.approx(3.6, rel=1e-13)

    def test_top_order_doubles(self):
        spec = spec_with()
        base = order_weight(1, 1, spec) / spec.beta.beta(1)
        assert order_weight(1, spec.alpha, spec) == pytest.approx(
            2.0 * base * spec.beta.beta(1) ** spec.alpha, rel=1e-13
        )

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            order_weight(1, 0, spec_with())
        with pytest.raises(ValueError):
            order_weight(1, 3, spec_with(alpha=2))


class TestHybridWeight:
    def test_empty_set_is_one(self):
        assert hybrid_weight(set(), spec_with()) == 1.0

    def test_singleton_both_regimes(self):
        beta = DecaySequence.from_list([0.1, 0.1], p=1.0)
        for J in (0, 2):  # product and SPOD singletons coincide
            spec = spec_with(J=J, beta=beta)
            want = 0.1 + 4 * 0.1**2
            assert hybrid_weight({1}, spec) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("J", [0, 1, 2, 4])
    def test_matches_direct_enumeration(self, alpha, J):
        beta = DecaySequence.from_list([0.7, 0.25, 0.1, 0.05], p=1.0)
        spec = spec_with(alpha=alpha, J=J, beta=beta)
        for size in range(1, 5):
            for u in itertools.combinations(range(1, 5), size):
                assert hybrid_weight(u, spec) == pytest.approx(
                    hybrid_weight_direct(u, spec), rel=1e-12
                )

    def test_pure_product_regime_factorizes(self):
        spec = spec_with(J=6)
        u = {1, 3, 5}
        prod = 1.0
        for j in u:
            prod *= sum(
                math.factorial(nu)
                * (2.0 if nu == spec.alpha else 1.0)
                * spec.beta.beta(j) ** nu
                for nu in range(1, spec.alpha + 1)
            )
        assert hybrid_weight(u, spec) == pytest.approx(prod, rel=1e-13)

    def test_pure_spod_regime_matches_independent_formula(self):
        # J=0: gamma_u = sum over nu of |nu|! prod 2^delta beta^nu
        for alpha in (2, 3):
            spec = spec_with(alpha=alpha, J=0, beta=DecaySequence.from_list([0.3, 0.2, 0.15, 0.1], p=1.0))
            for size in range(1, 5):
                for u in itertools.combinations(range(1, 5), size):
                    total = 0.0
                    for nus in itertools.product(range(1, alpha + 1), repeat=size):
                        term = math.factorial(sum(nus))
                        for j, nu in zip(u, nus):
                            term *= (2.0 if nu == alpha else 1.0) * spec.beta.beta(j) ** nu
                        total += term
                    assert hybrid_weight(u, spec) == pytest.approx(total, rel=1e-12)

    def test_monotone_in_each_beta(self):
        lo = spec_with(beta=DecaySequence.from_list([0.2, 0.1, 0.3], p=1.0), J=1)
        hi = spec_with(beta=DecaySequence.from_list([0.2, 0.25, 0.3], p=1.0), J=1)
        for u in [{2}, {1, 2}, {2, 3}, {1, 2, 3}]:
            assert hybrid_weight(u, hi) > hybrid_weight(u, lo)


class TestInterlacedWeight:
    def test_empty(self):
        assert interlaced_weight(set(), spec_with()) == 1.0

    def test_spot_value(self):
        spec = spec_with(beta=DecaySequence.from_list([0.1], p=1.0), J=1)
        assert interlaced_weight({1}, spec) == pytest.approx(5.04, rel=1e-12)

    def test_depends_only_on_block_set(self):
        spec = spec_with(alpha=2, J=1, beta=DecaySequence.from_list([0.3, 0.2], p=1.0))
        assert interlaced_weight({1, 2}, spec) == interlaced_weight({1}, spec)
        assert interlaced_weight({1, 3}, spec) == interlaced_weight({2, 4}, spec)
        assert interlaced_weight({1, 3, 4}, spec) == interlaced_weight({2, 3}, spec)


class TestRateParameters:
    def test_examples(self):
        assert select_rate_parameters(0.5) == (0.5, 3)
        assert select_rate_parameters(1.0) == (1.0, 2)
        assert select_rate_parameters(0.25) == (0.25, 5)

    def test_range_property(self):
        for p in np.linspace(0.05, 1.0, 40):
            lam, alpha = select_rate_parameters(float(p))
            assert 1.0 / alpha < lam <= 1.0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            select_rate_parameters(0.0)
        with pytest.raises(ValueError):
            select_rate_parameters(1.5)


def decimal_bound_constant_alpha2_b2():
    """Independent B for alpha=2, b=2, lambda=1 in Decimal arithmetic."""
    decimal.getcontext().prec = 40
    Cp = decimal.Decimal(18)  # 2^2 * 4.5, exact for b=2 (2 sin(pi/2) = 2)
    x = decimal.Decimal(1) / decimal.Decimal(2)  # (b-1)/(b^2-b)
    core = (1 + x) ** 2 - 1
    return Cp * 2 * core


class TestBoundConstant:
    def test_spot_value(self):
        assert bound_constant(2, 2, 1.0) == pytest.approx(45.0, abs=1e-12)
        assert float(decimal_bound_constant_alpha2_b2()) == pytest.approx(45.0)

    def test_decreasing_in_lambda(self):
        vals = [bound_constant(2, 2, lam) for lam in np.linspace(0.55, 1.0, 12)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_positive(self):
        for alpha in (2, 3):
            for lam in (0.6 if alpha == 2 else 0.4, 1.0):
                assert bound_constant(alpha, 3, lam) > 0

    def test_lambda_range_enforced(self):
        with pytest.raises(ValueError):
            bound_constant(2, 2, 0.5)
        with pytest.raises(ValueError):
            bound_constant(2, 2, 1.1)


class TestSmallness:
    def test_tiny_sequence_passes(self):
        spec = spec_with(beta=DecaySequence.from_list([1e-5, 1e-6], p=1.0))
        assert smallness_condition(spec) is True

    def test_divergent_fails(self):
        spec = spec_with(beta=DecaySequence.power(1.0, 1.2, p=1.0))
        # theta*p = 1.2 > 1 so p-summable, but sum beta ~ zeta(1.2) >> threshold
        assert smallness_condition(spec) is False

    def test_boundary_against_independent_B(self):
        B = float(decimal_bound_constant_alpha2_b2())
        threshold = 1.0 / (2 * 2 * max(B, 1.0))
        below = spec_with(beta=DecaySequence.from_list([threshold * 0.99], p=1.0))
        above = spec_with(beta=DecaySequence.from_list([threshold * 1.01], p=1.0))
        assert smallness_condition(below) is True
        assert smallness_condition(above) is False


def literal_cbc_bound(spec, m, d, lam):
    """2^d enumeration of the guaranteed bound, the oracle for cbc_bound."""
    x = (spec.b - 1.0) / (spec.b ** (spec.alpha * lam) - spec.b)
    total = 0.0
    for size in range(1, d + 1):
        for v in itertools.combinations(range(1, d + 1), size):
            total += interlaced_weight(v, spec) ** lam * x**size
    return (2.0 / (spec.b**m - 1.0) * total) ** (1.0 / lam)


class TestCbcBound:
    @pytest.mark.parametrize("alpha,lams", [(2, (0.55, 0.8, 1.0)), (3, (0.4, 0.7, 1.0))])
    @pytest.mark.parametrize("J", [0, 1, 3])
    def test_matches_literal_enumeration(self, alpha, lams, J):
        spec = spec_with(alpha=alpha, J=J)
        for d in (1, 2, 3, 5, 7, 12):
            for lam in lams:
                got = cbc_bound(spec, 4, d, lam)
                want = literal_cbc_bound(spec, 4, d, lam)
                assert got == pytest.approx(want, rel=1e-10)

    def test_single_block_formula(self):
        # one full block: ((2/(b^m-1)) (C' gamma_1 b^{a(a-1)/2})^lam ((1+x)^a - 1))^{1/lam}
        spec = spec_with(J=1, beta=DecaySequence.from_list([0.3], p=1.0))
        m, lam = 5, 0.8
        x = 1.0 / (2 ** (2 * lam) - 2)
        gamma1 = hybrid_weight({1}, spec)
        K = wce_constant(2, 2) * 2.0
        want = (2.0 / (2**m - 1) * (K * gamma1) ** lam * ((1 + x) ** 2 - 1)) ** (1 / lam)
        assert cbc_bound(spec, m, 2, lam) == pytest.approx(want, rel=1e-12)

    def test_zero_weights_vanish(self):
        spec = spec_with(beta=DecaySequence.from_list([1e-300, 1e-300], p=1.0), J=1)
        assert cbc_bound(spec, 4, 4, 1.0) == pytest.approx(0.0, abs=1e-250)

    def test_lambda_out_of_range(self):
        with pytest.raises(ValueError):
            cbc_bound(spec_with(), 4, 4, 0.5)

    @pytest.mark.parametrize("blocks", [22, 24])
    def test_oversized_spod_table_refused_before_allocating(self, blocks, monkeypatch):
        # at alpha=2 the table for 22 blocks is 2^22 x 45 doubles (1.5 GB),
        # the first block count over the 1 GiB cap
        def build(*_args):
            raise AssertionError("the table must not be built")

        monkeypatch.setattr(weights, "_spod_subset_table", build)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"over {blocks} blocks is too large"):
                cbc_bound(spec_with(J=0), 8, 2 * blocks, 0.8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_exactly_zero_tail_weights(self):
        # finite list sequence: blocks past its end have weight zero, which
        # exercises the log-space zero handling in the SPOD factor
        spec = spec_with(J=1, beta=DecaySequence.from_list([0.5, 0.25], p=1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lam in (0.6, 1.0):
                got = cbc_bound(spec, 3, 8, lam)
                assert got == pytest.approx(literal_cbc_bound(spec, 3, 8, lam), rel=1e-12)


def decimal_error_constant(alpha, b, beta_vals, p, n_points, terms=200):
    """Full high-precision pipeline for the explicit error constant.

    Exact for b = 2 where 2 sin(pi/b) = 2; the lambda powers are 1/p = 2.
    """
    decimal.getcontext().prec = 60
    D = decimal.Decimal
    half = D(1) / D(2)
    assert b == 2 and p == 0.5 and alpha == 3
    C = (half * (D(5) / D(3)) * D(9)) * D(2) ** alpha  # C'_{3,2} = 60
    x = D(1) / (D(2) * D(2).sqrt() - D(2))  # (b-1)/(b^{alpha*lam} - b), b^1.5 = 2 sqrt 2
    core = ((1 + x) ** 3 - 1) ** 2  # ^(1/lambda) with lambda = 1/2
    B = C * D(8) * core
    scale = 2 * max(B, D(1))
    A = scale.sqrt() * alpha * sum((D(v)).sqrt() for v in beta_vals)
    series = D(0)
    for ell in range(terms):
        fact = D(math.factorial(ell))
        series += A**ell / fact.sqrt()
    bracket = (D(math.factorial(alpha)).sqrt() * A).exp() * series
    return (D(2) / (n_points - 1)) ** 2 * bracket**2


class TestErrorConstant:
    def test_high_precision_spot_value(self):
        # scaled-down decay so the series converges within 200 terms
        beta_vals = [5e-7 * j**-3 for j in range(1, 400)]
        beta = DecaySequence.from_list(beta_vals, p=0.5)
        spec = WeightSpec(alpha=3, b=2, J=0, beta=beta)
        got = error_constant(spec, 2**10)
        want = float(decimal_error_constant(3, 2, beta_vals, 0.5, 2**10))
        assert got == pytest.approx(want, rel=1e-10)

    def test_documented_config_overflows_to_inf(self):
        # at beta_j = 0.05 j^-3 the bracket exceeds double range: flagged +inf
        spec = WeightSpec(alpha=3, b=2, J=0, beta=DecaySequence.power(0.05, 3.0, p=0.5))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert math.isinf(error_constant(spec, 2**10))

    def test_monotone_in_decay_scale(self):
        lo = WeightSpec(alpha=3, b=2, J=0, beta=DecaySequence.power(1e-7, 3.0, p=0.5))
        hi = WeightSpec(alpha=3, b=2, J=0, beta=DecaySequence.power(2e-7, 3.0, p=0.5))
        assert error_constant(hi, 2**10) > error_constant(lo, 2**10)

    def test_p_one_without_smallness_diverges(self):
        spec = spec_with(beta=DecaySequence.from_list([0.5, 0.5], p=1.0))
        with pytest.warns(UserWarning):
            assert math.isinf(error_constant(spec, 2**10))

    def test_p_one_with_smallness_finite(self):
        spec = spec_with(beta=DecaySequence.from_list([1e-6], p=1.0))
        assert math.isfinite(error_constant(spec, 2**10))


class TestCrossoverDimension:
    def test_geometric_tail(self):
        seq = DecaySequence.from_list([2.0**-j for j in range(1, 60)], p=1.0)
        # tail after s is 2^-s (up to the finite cutoff); threshold 1/4 -> J = 2
        assert crossover_dimension(seq, eps=1.0, B_hol=1.0) == 2

    def test_full_sum_below_threshold_gives_zero(self):
        seq = DecaySequence.from_list([0.01, 0.005], p=1.0)
        assert crossover_dimension(seq, eps=1.0, B_hol=1.0) == 0

    def test_plateau_scenario(self):
        plateau = [1.0] * 7 + [1e-9]
        seq = DecaySequence.from_list(plateau, p=1.0)
        assert crossover_dimension(seq, eps=0.1, B_hol=1.0) == 7

    def test_nonincreasing_in_eps(self):
        seq = DecaySequence.power(1.0, 2.0, p=0.7)
        js = [crossover_dimension(seq, eps, 1.0) for eps in (0.1, 0.3, 1.0, 3.0)]
        assert all(a >= b for a, b in zip(js, js[1:]))


class TestTruncationBound:
    def test_p_half_form(self):
        seq = DecaySequence.power(1.0, 3.0, p=0.5)
        s = 7
        want = min(1.0, 1.0) * seq.sum_power(0.5) ** 2 / s
        assert truncation_bound(seq, 0.5, s) == pytest.approx(want, rel=1e-12)

    def test_nonincreasing_in_s(self):
        seq = DecaySequence.power(0.5, 3.0, p=0.5)
        vals = [truncation_bound(seq, 0.5, s) for s in range(1, 30)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_dominates_true_tail(self):
        seq = DecaySequence.power(1.0, 3.0, p=0.5)
        for s in range(1, 101):
            assert seq.tail(s) <= truncation_bound(seq, 0.5, s)

    def test_p_range_enforced(self):
        with pytest.raises(ValueError):
            truncation_bound(DecaySequence.power(1.0, 3.0, p=0.5), 1.0, 4)


class TestTailAccuracy:
    def test_power_tail_against_dense_summation(self):
        seq = DecaySequence.power(1.0, 3.0, p=0.5)
        for s in (1, 5, 50):
            dense = float(np.sum(np.arange(s + 1, 2_000_001, dtype=np.float64) ** -3.0))
            assert seq.tail(s) == pytest.approx(dense, rel=1e-9)


class TestWeightSpecJson:
    def test_roundtrip_power(self):
        spec = spec_with(alpha=3, J=2)
        doc = spec.to_json_dict()
        assert set(doc) == {"alpha", "b", "J", "p", "beta", "use_prime_constant"}
        assert set(doc["beta"]) == {"kind", "c", "theta"}

    def test_roundtrip_list(self):
        spec = spec_with(beta=DecaySequence.from_list([0.3, 0.1], p=0.8))
        doc = spec.to_json_dict()
        assert set(doc["beta"]) == {"kind", "values"}


class TestErrorBudget:
    def test_zero(self):
        assert error_budget(0.0, 0.0, 0.0, 2.0).total == 0.0

    def test_sum_of_parts(self):
        rep = error_budget(0.1, 0.2, 0.5, 2.0)
        assert rep.total == pytest.approx(rep.truncation + rep.quadrature + rep.discretization)

    def test_galerkin_power_law(self):
        a = error_budget(0.0, 0.0, 0.5, 2.0)
        c = error_budget(0.0, 0.0, 0.25, 2.0)
        assert c.discretization == pytest.approx(a.discretization / 4.0)
