"""Kernel oracles: digit-weight values, omega shells, circulant structure, FFT."""

import numpy as np
import pytest

from polylat.cbc import _pure_omega_column
from polylat.gfpoly import DigitVector, GfPoly, find_irreducible, laurent_digits
from polylat.kernel import OmegaMatrix, mu_alpha, omega, omega_at_position
from polylat.pointgen import index_to_poly


class TestMuAlpha:
    def test_zero(self):
        assert mu_alpha(0, 2, 2) == 0

    def test_hand_values(self):
        assert mu_alpha(6, 2, 2) == 5  # binary 110: positions 3,2
        assert mu_alpha(6, 1, 2) == 3
        assert mu_alpha(5, 2, 3) == 3  # ternary 12: positions 2,1

    def test_saturation_in_alpha(self):
        for k in (1, 6, 29, 100):
            vals = [mu_alpha(k, a, 2) for a in range(1, 10)]
            assert all(x <= y for x, y in zip(vals, vals[1:]))
            rho = bin(k).count("1")
            assert vals[rho - 1 :] == [vals[rho - 1]] * (10 - rho)

    def test_additivity_composition(self):
        # mu of a set of components is the sum of scalar mu values
        ks = [3, 6, 9]
        assert sum(mu_alpha(k, 2, 2) for k in ks) == mu_alpha(3, 2, 2) + mu_alpha(
            6, 2, 2
        ) + mu_alpha(9, 2, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            mu_alpha(-1, 2, 2)


class TestOmega:
    def test_zero_argument(self):
        assert omega(DigitVector(2, (0, 0, 0)), 2) == pytest.approx(0.5)

    def test_hand_values(self):
        assert omega(DigitVector(2, (1,)), 2) == pytest.approx(-0.25)
        assert omega(DigitVector(2, (0, 1)), 2) == pytest.approx(0.125)

    @pytest.mark.parametrize("b,m,alpha", [(2, 5, 2), (2, 10, 3), (3, 4, 2)])
    def test_constant_on_scale_shells(self, b, m, alpha):
        shell = {}
        for code in range(b**m):
            digits = []
            c = code
            for _ in range(m):
                c, r = divmod(c, b)
                digits.append(r)
            dv = DigitVector(b, tuple(reversed(digits)))
            pos = dv.leading_position()
            val = omega(dv, alpha)
            if pos in shell:
                assert val == shell[pos]
            else:
                shell[pos] = val
        # one distinct value per shell plus the zero argument
        assert len(shell) == m + 1

    def test_lower_bound_at_leading_position_one(self):
        for b, alpha in [(2, 2), (2, 3), (3, 2), (5, 4)]:
            floor_val = omega_at_position(1, alpha, b)
            for pos in range(1, 12):
                assert omega_at_position(pos, alpha, b) >= floor_val
            assert omega_at_position(None, alpha, b) > floor_val


class TestOmegaColumn:
    """OmegaMatrix.column against long division and column invariants."""

    def test_matches_laurent_composition(self):
        mod = find_irreducible(2, 4)
        q = GfPoly.from_int(2, 9)
        col = OmegaMatrix(mod, 2).column(q)
        for n in range(1, 16):
            dv = laurent_digits(index_to_poly(n, 2), q, mod, 4)
            assert col[n - 1] == pytest.approx(omega(dv, 2), abs=1e-15)

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("b,m", [(2, 4), (2, 7), (3, 4), (5, 3)])
    def test_every_candidate_matches_long_division(self, b, m, alpha):
        mod = find_irreducible(b, m)
        om = OmegaMatrix(mod, alpha)
        for enc in range(1, b**m):
            q = GfPoly.from_int(b, enc)
            assert np.array_equal(om.column(q), _pure_omega_column(mod, q, alpha)[1:]), enc

    def test_rejects_zero_and_full_degree(self):
        om = OmegaMatrix(find_irreducible(3, 3), 2)
        for q in (0, GfPoly.zero(3), 27, GfPoly.from_int(3, 40)):
            with pytest.raises(ValueError):
                om.column(q)

    def test_scalar_multiple_is_permutation(self):
        # over Z_3, the columns for q and 2q list the same multiset of values
        mod = find_irreducible(3, 3)
        om = OmegaMatrix(mod, 2)
        q = GfPoly.from_int(3, 7)
        q2 = GfPoly(3, tuple((2 * c) % 3 for c in q.coeffs))
        a = sorted(om.column(q))
        c = sorted(om.column(q2))
        assert np.allclose(a, c)

    def test_entries_respect_lower_bound(self):
        mod = find_irreducible(2, 6)
        col = OmegaMatrix(mod, 3).column(GfPoly.from_int(2, 45))
        floor_val = omega_at_position(1, 3, 2)
        assert np.all(col >= floor_val - 1e-15)


class TestOmegaMatrix:
    @pytest.mark.parametrize("b,m", [(2, 4), (2, 8), (3, 4), (5, 3)])
    def test_exponent_map_is_bijection(self, b, m):
        om = OmegaMatrix(find_irreducible(b, m), 2)
        assert sorted(om.pow_enc.tolist()) == list(range(1, b**m))

    @pytest.mark.parametrize("b,m", [(2, 4), (3, 3), (2, 8)])
    def test_circulant_under_permutation(self, b, m):
        om = OmegaMatrix(find_irreducible(b, m), 2)
        dense = om.dense()
        M = om.size
        for i in range(0, M, max(1, M // 17)):
            for k in range(0, M, max(1, M // 13)):
                n_enc = om.pow_enc[i]
                q_enc = om.pow_enc[k]
                assert dense[n_enc - 1, q_enc - 1] == pytest.approx(
                    om._c[(i + k) % M], abs=1e-15
                )

    def test_multiply_zero_vector(self):
        om = OmegaMatrix(find_irreducible(2, 5), 2)
        out = om.multiply(np.zeros(om.size))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_multiply_unit_vector_reads_row(self):
        om = OmegaMatrix(find_irreducible(2, 5), 2)
        dense = om.dense()
        for n in (1, 7, 30):
            vec = np.zeros(om.size)
            vec[n - 1] = 1.0
            out = om.multiply(vec)
            assert np.allclose(out, dense[n - 1, :], atol=1e-12)

    @pytest.mark.parametrize("b,m", [(2, 4), (2, 7), (3, 4), (5, 3)])
    def test_multiply_matches_naive(self, b, m):
        om = OmegaMatrix(find_irreducible(b, m), 2)
        rng = np.random.default_rng(b * 100 + m)
        for _ in range(4):
            vec = rng.standard_normal(om.size)
            fast = om.multiply(vec)
            ref = om.multiply_naive(vec)
            assert np.max(np.abs(fast - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    def test_column_orientation_symmetric(self):
        # entry(n, q) = omega(residue of n*q) is symmetric in (n, q)
        om = OmegaMatrix(find_irreducible(2, 5), 3)
        dense = om.dense()
        assert np.allclose(dense, dense.T, atol=1e-15)
