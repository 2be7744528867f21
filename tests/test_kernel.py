"""Kernel oracles: digit-weight values, omega shells, circulant structure, FFT."""

import hashlib

import numpy as np
import pytest

from polylat import kernel
from polylat.cbc import fast_cbc
from polylat.gfpoly import (
    DigitVector,
    GfPoly,
    Modulus,
    find_irreducible,
    is_irreducible,
    laurent_digits,
    primitive_element,
)
from polylat.kernel import OmegaMatrix, exponent_tables, omega_at_position
from polylat.oracle import leading_position, mu_alpha, multiply_naive, omega, pure_omega_column
from polylat.pointgen import GeneratingVector, lattice_points
from polylat.weights import DecaySequence, WeightSpec


def random_modulus(b, m, seed):
    """Seeded uniform monic irreducible of degree m other than the smallest."""
    rng = np.random.default_rng(seed)
    while True:
        cand = GfPoly.from_int(b, int(rng.integers(b**m)) + b**m)
        if is_irreducible(cand) and cand != find_irreducible(b, m).poly:
            return Modulus(cand)


# (b, m, seed): seed None is the smallest modulus, as find_irreducible picks
# it; a seed draws a random one, as the benchmark workloads do
COLUMN_MODULI = [(2, 4, None), (2, 7, None), (3, 4, None), (5, 3, None)]
COLUMN_MODULI += [(2, 7, 0), (2, 7, 2), (3, 5, 0)]
COLUMN_IDS = [f"{b}-{m}" + ("" if seed is None else f"-seed{seed}") for b, m, seed in COLUMN_MODULI]


def random_multiply_cases(count, seed):
    """Seeded (b, m, modulus seed) draws with b^m <= 343, for multiply_naive.

    (2, 2) is left out: x^2 + x + 1 is the only irreducible quadratic over
    Z_2, so random_modulus has nothing else to draw.
    """
    rng = np.random.default_rng(seed)
    cases = []
    while len(cases) < count:
        b = int(rng.choice([2, 3, 5, 7]))
        m = int(rng.integers(1, 9))
        if b**m <= 343 and (b, m) != (2, 2):
            cases.append((b, m, int(rng.integers(1 << 16))))
    return cases


MULTIPLY_CASES = random_multiply_cases(16, seed=10)


def candidate_scores(om, vec):
    """Scores of every candidate, indexed by encoding - 1, for vec indexed by n - 1.

    vec is folded onto its scalar classes (row t of the reshape holds the
    points g^(tT + i)) for om.multiply, and each class score is spread back
    to every member of its class.
    """
    classes = om.pow_enc.reshape(om.b - 1, om.period) - 1
    out = np.empty(om.size)
    out[classes] = om.multiply(vec[classes].sum(axis=0))
    return out


# sha256 prefixes of (pow_enc, exp_of, _c2) for find_irreducible(b, m) at
# alpha = 2, recorded from the int64 coefficient-table construction
KERNEL_TABLE_DIGESTS = {
    (2, 16): ("a9c0b9735a82fc72c5287527e2930d5f", "0f41fdce3eabda40cf3cdda317cab701",
              "52e5675851e3cbf63dfd633be0a8ea9d"),
    (3, 9): ("eaabbc0a039a44145992e925cd6be0ce", "cff042d612aaaba83fa974b660d97a76",
             "c868ace79d9afa857df247547c293b36"),
    (5, 6): ("46e0e83ab73fbe9641effea57dc067f7", "8ccafc2fa90db8e686d1bb986236167a",
             "ca301a856e141b73d569c485a71073fc"),
    (7, 5): ("c69917ea67c62c00115d6d32fac2ea4e", "0e8495f64ef1daa27fdc3cc1c25326cd",
             "c634e491cfd1fdbf1dafdb60ef9d5341"),
    (131, 2): ("3492803a11602742b774ffe54e8c3951", "9da8e5f48220883bea94d293810cecd3",
               "144016d35b14d62603aba87dcfcc2e7b"),
}


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
            pos = leading_position(dv)
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
        col = OmegaMatrix(mod, 2).column(q.to_int())
        for n in range(1, 16):
            dv = laurent_digits(GfPoly.from_int(2, n), q, mod, 4)
            assert col[n - 1] == pytest.approx(omega(dv, 2), abs=1e-15)

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("b,m,seed", COLUMN_MODULI, ids=COLUMN_IDS)
    def test_every_candidate_matches_long_division(self, b, m, seed, alpha):
        mod = find_irreducible(b, m) if seed is None else random_modulus(b, m, seed)
        om = OmegaMatrix(mod, alpha)
        for enc in range(1, b**m):
            q = GfPoly.from_int(b, enc)
            assert np.array_equal(om.column(enc), pure_omega_column(mod, q, alpha)[1:]), enc

    def test_rejects_zero_and_full_degree(self):
        om = OmegaMatrix(find_irreducible(3, 3), 2)
        # 40 encodes a polynomial of degree 3 = m
        for q in (0, -1, 27, np.int64(27), 40):
            with pytest.raises(ValueError):
                om.column(q)
        # only integer encodings are taken
        for q in (GfPoly.from_int(3, 5), 5.0):
            with pytest.raises(TypeError):
                om.column(q)

    @pytest.mark.parametrize("b,m", [(2, 5), (3, 3), (5, 2)])
    def test_int_numpy_int_and_poly_give_the_same_column(self, b, m):
        om = OmegaMatrix(find_irreducible(b, m), 2)
        for enc in range(1, b**m):
            col = om.column(enc)
            assert col.tobytes() == om.column(np.int64(enc)).tobytes()
            assert col.tobytes() == om.column(GfPoly.from_int(b, enc).to_int()).tobytes()

    def test_scalar_multiple_is_permutation(self):
        # over Z_3, the columns for q and 2q list the same multiset of values
        mod = find_irreducible(3, 3)
        om = OmegaMatrix(mod, 2)
        q = GfPoly.from_int(3, 7)
        q2 = GfPoly(3, tuple((2 * c) % 3 for c in q.coeffs))
        a = sorted(om.column(q.to_int()))
        c = sorted(om.column(q2.to_int()))
        assert np.allclose(a, c)

    def test_entries_respect_lower_bound(self):
        mod = find_irreducible(2, 6)
        col = OmegaMatrix(mod, 3).column(45)
        floor_val = omega_at_position(1, 3, 2)
        assert np.all(col >= floor_val - 1e-15)


class TestOmegaMatrix:
    @pytest.mark.parametrize("b,m", [(2, 4), (2, 8), (3, 4), (5, 3)])
    def test_exponent_map_is_bijection(self, b, m):
        om = OmegaMatrix(find_irreducible(b, m), 2)
        assert sorted(om.pow_enc.tolist()) == list(range(1, b**m))
        # zero has no discrete log; every nonzero residue has exactly one
        assert om.exp_of[0] == -1
        assert sorted(om.exp_of[1:].tolist()) == list(range(om.size))
        assert np.array_equal(om.exp_of[om.pow_enc], np.arange(om.size))

    @pytest.mark.parametrize("b,m", [(2, 4), (3, 3), (2, 8)])
    def test_circulant_under_permutation(self, b, m):
        om = OmegaMatrix(find_irreducible(b, m), 2)
        M = om.size
        for i in range(0, M, max(1, M // 17)):
            for k in range(0, M, max(1, M // 13)):
                n_enc = om.pow_enc[i]
                q_enc = om.pow_enc[k]
                assert om.column(int(q_enc))[n_enc - 1] == pytest.approx(
                    om._c[(i + k) % M], abs=1e-15
                )

    def test_multiply_zero_vector(self):
        om = OmegaMatrix(find_irreducible(2, 5), 2)
        out = om.multiply(np.zeros(om.period))
        assert np.allclose(out, 0.0, atol=1e-12)

    def test_multiply_unit_vector_reads_row(self):
        om = OmegaMatrix(find_irreducible(2, 5), 2)
        for n in (1, 7, 30):
            vec = np.zeros(om.size)
            vec[n - 1] = 1.0
            out = candidate_scores(om, vec)
            assert np.allclose(out, multiply_naive(om, vec), atol=1e-12)

    @pytest.mark.parametrize(
        "b,m", [(2, 1), (2, 4), (2, 7), (3, 1), (3, 4), (5, 3), (7, 2), (11, 2), (13, 2)]
    )
    def test_multiply_matches_naive(self, b, m):
        om = OmegaMatrix(find_irreducible(b, m), 2)
        # one period T = (b^m-1)/(b-1), padded to the smallest b^k >= 2T-1:
        # length 1 at m = 1, b^m for b >= 3, 2^(m+1) for b = 2
        T = (b**m - 1) // (b - 1)
        assert om.period == T
        assert om.fft_len == (1 if m == 1 else b**m if b > 2 else 2 ** (m + 1))
        assert om.fft_len >= 2 * T - 1 and om.fft_len < b * (2 * T - 1)
        rng = np.random.default_rng(b * 100 + m)
        for _ in range(4):
            vec = rng.standard_normal(om.size)
            fast = candidate_scores(om, vec)
            ref = multiply_naive(om, vec)
            assert np.max(np.abs(fast - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("b,m", [(3, 1), (3, 4), (3, 6), (5, 1), (5, 3), (7, 2), (7, 3)])
    def test_column_has_scalar_period(self, b, m):
        # g^T is a scalar of Z_b^*, which keeps every degree, so c repeats
        # with period T and with no shorter period that divides it
        om = OmegaMatrix(find_irreducible(b, m), 2)
        T = (b**m - 1) // (b - 1)
        assert np.array_equal(om._c, np.tile(om._c[:T], b - 1))
        lam = int(om.pow_enc[T % om.size])
        assert 1 <= lam < b
        for d in range(1, T):
            if T % d == 0:
                assert not np.array_equal(om._c, np.roll(om._c, d)), d

    @pytest.mark.parametrize("b,m", [(3, 2), (3, 4), (5, 2), (5, 3), (7, 2)])
    def test_scalar_multiples_share_column_and_score(self, b, m):
        # multiply scores the class {lambda q} once, which is sound only if
        # every lambda q has the bytes of q's column and lies in q's class
        om = OmegaMatrix(find_irreducible(b, m), 2)
        T = om.period
        for enc in range(1, b**m):
            q = GfPoly.from_int(b, enc)
            col = om.column(enc).tobytes()
            for lam in range(2, b):
                lq = GfPoly(b, tuple((lam * c) % b for c in q.coeffs)).to_int()
                assert om.column(lq).tobytes() == col, (enc, lam)
                assert om.exp_of[lq] % T == om.exp_of[enc] % T, (enc, lam)

    @pytest.mark.parametrize("b,m", [(2, 5), (3, 4), (5, 3), (7, 2)])
    def test_class_enc_is_the_monic_member_of_each_class(self, b, m):
        # class i = {g^(tT + i)}: multiply returns its score at entry i, and
        # the argmin rescores it through class_enc[i]
        om = OmegaMatrix(find_irreducible(b, m), 2)
        T = om.period
        assert om.class_enc.shape == (T,) and om.multiply(np.ones(T)).shape == (T,)
        for i in range(T):
            members = om.pow_enc[i::T]
            enc = int(om.class_enc[i])
            assert enc == members.min(), i
            q = GfPoly.from_int(b, enc)
            assert q.coeffs[-1] == 1, i  # monic
            multiples = {GfPoly(b, tuple(lam * c % b for c in q.coeffs)).to_int()
                         for lam in range(1, b)}
            assert multiples == set(members.tolist()), i
            col = om.column(enc).tobytes()
            assert all(om.column(int(e)).tobytes() == col for e in members), i

    @pytest.mark.parametrize("b,m", [(2, 5), (3, 4), (5, 3), (7, 2)])
    def test_class_slots_hold_the_natural_column(self, b, m):
        # slot 0 is the point 0 and slot 1 + i the class of g^i; read through
        # class_of, the class-slot column is the natural-order column, bit for bit
        om = OmegaMatrix(find_irreducible(b, m), 2)
        T = om.period
        assert om.class_of.shape == (b**m,) and om.class_of.dtype == np.int64
        assert om.class_of[0] == 0
        for i in range(T):
            assert np.all(om.class_of[om.pow_enc[i::T]] == 1 + i), i
        for q in range(1, b**m):
            slots = om.class_column(q)
            assert slots.shape == (T,) and np.shares_memory(slots, om._c2)  # a view
            assert slots[om.class_of[1:] - 1].tobytes() == om.column(q).tobytes(), q
        for q in (0, b**m):
            with pytest.raises(ValueError):
                om.class_column(q)

    def test_multiply_takes_one_entry_per_class(self):
        om = OmegaMatrix(find_irreducible(3, 4), 2)
        with pytest.raises(ValueError, match="length 40"):
            om.multiply(np.ones(om.size))

    def test_column_orientation_symmetric(self):
        # entry(n, q) = omega(residue of n*q) is symmetric in (n, q)
        om = OmegaMatrix(find_irreducible(2, 5), 3)
        dense = np.column_stack([om.column(q) for q in range(1, om.size + 1)])
        assert np.allclose(dense, dense.T, atol=1e-15)

    @pytest.mark.parametrize("b,m,seed", MULTIPLY_CASES)
    def test_multiply_matches_naive_on_random_moduli(self, b, m, seed):
        om = OmegaMatrix(random_modulus(b, m, seed), 2)
        vec = np.random.default_rng(seed).standard_normal(om.size)
        ref = multiply_naive(om, vec)
        fast = candidate_scores(om, vec)
        assert np.max(np.abs(fast - ref)) <= 1e-9 * max(1.0, np.max(np.abs(ref)))

    @pytest.mark.parametrize("b,m", sorted(KERNEL_TABLE_DIGESTS))
    def test_tables_are_pinned(self, b, m):
        om = OmegaMatrix(find_irreducible(b, m), 2)
        assert om.pow_enc.dtype == om.exp_of.dtype == np.int64
        got = tuple(hashlib.sha256(a.tobytes()).hexdigest()[:32]
                    for a in (om.pow_enc, om.exp_of, om._c2))
        assert got == KERNEL_TABLE_DIGESTS[b, m]


def spread_to_points(om, x):
    """A class-slot vector as one value per point, n = 0 .. b^m - 1, built
    from the cosets g^(tT + i), t < b - 1, of each class, without class_of."""
    natural = np.empty(om.n_points)
    natural[0] = x[0]
    natural[om.pow_enc] = np.tile(x[1:], om.b - 1)
    return natural


class TestSlotMethods:
    """The class-slot methods against explicit natural-order constructions,
    bit for bit.  b^m stays below 10,000, under the length from which
    OpenBLAS splits one dot product across threads."""

    @pytest.fixture(params=[(2, 13), (3, 8), (5, 5), (7, 4)], ids=lambda bm: f"{bm[0]}-{bm[1]}")
    def case(self, request):
        b, m = request.param
        om = OmegaMatrix(find_irreducible(b, m), 2)
        rng = np.random.default_rng(b * 100 + m)
        weight = rng.random(om.period + 1) * 10.0 ** rng.integers(-3, 4, om.period + 1)
        encs = np.unique(np.concatenate([[1, om.size], rng.integers(1, om.size + 1, 40)]))
        return om, weight, encs

    def test_slot_column_is_the_natural_column(self, case):
        om, _, encs = case
        omega0 = omega_at_position(None, om.alpha, om.b)
        for q in encs:
            col = om.slot_column(q)
            assert col.shape == (om.period + 1,)
            want = np.concatenate([[omega0], om.column(q)])
            assert col[om.class_of].tobytes() == want.tobytes(), q
            assert spread_to_points(om, col).tobytes() == want.tobytes(), q

    def test_point_mean_sums_every_point_in_order(self, case):
        om, weight, _ = case
        want = float(np.sum(spread_to_points(om, weight))) / om.n_points
        assert om.point_mean(weight) == want

    def test_class_scores_multiply_the_coset_fold(self, case):
        om, weight, _ = case
        vec = spread_to_points(om, weight)[1:]  # entry n - 1 is point n
        cosets = om.pow_enc.reshape(om.b - 1, om.period) - 1
        fold = vec[cosets[0]]
        for coset in cosets[1:]:
            fold = fold + vec[coset]
        assert om.class_scores(weight).tobytes() == om.multiply(fold).tobytes()

    def test_exact_scores_score_the_spread_vector(self, case):
        om, weight, encs = case
        vec = spread_to_points(om, weight)[1:]
        want = [om.score_exact(int(q), vec) for q in encs]
        got = om.exact_scores(encs, weight)
        assert got.shape == (len(encs),) and got.tolist() == want


class TestExponentTableMemo:
    """exponent_tables keeps the last modulus's tables, keyed by value."""

    @pytest.fixture
    def searches(self, monkeypatch):
        """Count kernel.primitive_element calls, from an empty memo."""
        calls = []

        def counting(modulus):
            calls.append(modulus)
            return primitive_element(modulus)

        monkeypatch.setattr(kernel, "primitive_element", counting)
        exponent_tables.cache_clear()
        yield calls
        exponent_tables.cache_clear()

    def test_construct_then_points_searches_once(self, searches):
        spec = WeightSpec(alpha=2, b=2, J=1, beta=DecaySequence.power(0.4, 2.0, p=0.6))
        modulus = random_modulus(2, 7, 0)
        res = fast_cbc(spec, 7, 3, modulus=modulus)
        lattice_points(res.gen_vector)
        assert searches == [modulus]

    def test_equal_modulus_reuses_the_tables(self, searches, tmp_path):
        modulus = random_modulus(3, 4, 1)
        first = exponent_tables(modulus)
        gv = GeneratingVector(modulus, 1, (GfPoly.one(3),))
        gv.save(tmp_path / "gv.json")
        reloaded = GeneratingVector.load(tmp_path / "gv.json").modulus
        assert reloaded == modulus and reloaded is not modulus
        assert exponent_tables(reloaded) is first
        assert len(searches) == 1

    def test_other_modulus_rebuilds_the_tables(self, searches):
        smallest, drawn = find_irreducible(2, 6), random_modulus(2, 6, 0)
        first = exponent_tables(smallest)
        other = exponent_tables(drawn)
        assert searches == [smallest, drawn]
        assert not np.array_equal(other[1], first[1])
        assert exponent_tables(smallest) is not first  # only the last modulus is kept
        assert searches == [smallest, drawn, smallest]

    def test_tables_are_read_only(self):
        _, pow_enc, exp_of = exponent_tables(find_irreducible(2, 5))
        for table in (pow_enc, exp_of):
            with pytest.raises(ValueError, match="read-only"):
                table[1] = 0
