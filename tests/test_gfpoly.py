"""Field-arithmetic oracles: hand values, long division, exhaustive checks."""

import random
import time

import numpy as np
import pytest

from polylat.gfpoly import (
    DigitVector,
    GfPoly,
    Modulus,
    check_prime_base,
    find_irreducible,
    is_irreducible,
    laurent_digits,
    poly_from_string,
    poly_mul_mod,
    poly_to_string,
    primitive_element,
)
from polylat.oracle import poly_add, poly_divmod, poly_mul, truncate_digits


def P(b, *coeffs):
    return GfPoly(b, coeffs)


class TestPolyBasics:
    def test_canonical_form_strips_trailing_zeros(self):
        assert P(2, 1, 1, 0, 0).coeffs == (1, 1)
        assert P(2, 0, 0).coeffs == ()
        assert P(2).degree == float("-inf")
        assert P(3, 0, 0, 2).degree == 2

    def test_base_must_be_prime(self):
        with pytest.raises(ValueError):
            GfPoly(4, (1,))
        with pytest.raises(ValueError):
            GfPoly(1, (1,))

    @pytest.mark.parametrize("b", [2**61 - 1, 2**89 - 1, 65537])
    def test_large_base_refused_before_trial_division(self, b):
        # 2^61 - 1 and 2^89 - 1 are primes that trial division would take
        # minutes to years to confirm; 65537 is the first prime past 2^16
        start = time.perf_counter()
        with pytest.raises(ValueError, match="small prime"):
            check_prime_base(b)
        assert time.perf_counter() - start < 0.1
        assert check_prime_base(65521) == 65521  # the largest prime below 2^16

    def test_coefficients_must_be_reduced(self):
        with pytest.raises(ValueError):
            GfPoly(2, (2,))

    def test_checks_hold_on_every_call(self):
        # the base's primality is memoized; every other check runs each time
        for _ in range(2):
            assert check_prime_base(5) == 5
            for bad in (4, 5.0, True, "5"):
                with pytest.raises(ValueError, match="small prime"):
                    check_prime_base(bad)
            for coeffs in ((1, 3), (-1, 1), (0, 2, 9)):
                with pytest.raises(ValueError, match=r"coefficients must lie in 0\.\.2"):
                    GfPoly(3, coeffs)
        assert GfPoly(3, (np.int64(2), 1.0, np.uint8(0))).coeffs == (2, 1)
        assert poly_from_string(3, "0120") == GfPoly(3, (0, 2, 1))
        for bad in ("", "1a", "-1", "1 0"):
            with pytest.raises(ValueError, match="malformed polynomial digit string"):
                poly_from_string(2, bad)
        with pytest.raises(ValueError, match=r"coefficients must lie in 0\.\.1"):
            poly_from_string(2, "102")

    def test_int_encoding_roundtrip(self):
        for b in (2, 3, 5):
            for n in range(200):
                assert GfPoly.from_int(b, n).to_int() == n

    def test_string_form_constant_term_last(self):
        p = P(2, 1, 1, 1)  # x^2+x+1
        assert poly_to_string(p) == "111"
        assert poly_from_string(2, "111") == p
        assert poly_to_string(P(2, 1, 0, 1)) == "101"
        assert poly_to_string(GfPoly.zero(3)) == "0"


class TestAdd:
    def test_char2_self_cancellation(self):
        xp1 = P(2, 1, 1)
        assert poly_add(xp1, xp1).is_zero()

    def test_disjoint_supports(self):
        assert poly_add(P(2, 1, 0, 1), P(2, 0, 1)) == P(2, 1, 1, 1)

    def test_mod3_cancellation(self):
        assert poly_add(P(3, 1, 2), P(3, 2, 1)).is_zero()

    def test_base_mismatch_rejected(self):
        with pytest.raises(ValueError):
            poly_add(P(2, 1), P(3, 1))


class TestMulMod:
    def test_hand_long_division(self):
        # x * x mod (x^2+x+1) = x+1 over Z_2
        mod = Modulus(P(2, 1, 1, 1))
        assert poly_mul_mod(GfPoly.x(2), GfPoly.x(2), mod) == P(2, 1, 1)

    def test_identity_and_zero(self):
        mod = Modulus(P(2, 1, 1, 1))
        c = P(2, 1, 1)
        assert poly_mul_mod(GfPoly.one(2), c, mod) == c
        assert poly_mul_mod(GfPoly.zero(2), c, mod).is_zero()

    def test_mul_matches_schoolbook_mod5(self):
        rng = random.Random(11)
        for _ in range(50):
            a = GfPoly.from_int(5, rng.randrange(1, 5**4))
            c = GfPoly.from_int(5, rng.randrange(1, 5**4))
            prod = poly_mul(a, c)
            # evaluate both sides at a few field points
            for x in range(5):
                va = sum(co * x**i for i, co in enumerate(a.coeffs)) % 5
                vc = sum(co * x**i for i, co in enumerate(c.coeffs)) % 5
                vp = sum(co * x**i for i, co in enumerate(prod.coeffs)) % 5
                assert vp == (va * vc) % 5


def _is_irreducible_bruteforce(p):
    """Independent oracle: search for any monic divisor of degree 1..deg-1."""
    deg = int(p.degree)
    b = p.b
    for ddeg in range(1, deg):
        for low in range(b**ddeg):
            div = GfPoly.from_int(b, low + b**ddeg)
            if poly_divmod(p, div)[1].is_zero():
                return False
    return True


class TestIrreducibility:
    def test_hand_examples(self):
        assert is_irreducible(P(2, 1, 1, 1)) is True  # x^2+x+1
        assert is_irreducible(P(2, 1, 0, 1)) is False  # x^2+1 = (x+1)^2
        assert is_irreducible(GfPoly.x(2)) is True

    @pytest.mark.parametrize("b,mmax", [(2, 6), (3, 4), (5, 3)])
    def test_exhaustive_against_bruteforce(self, b, mmax):
        for m in range(1, mmax + 1):
            for low in range(b**m):
                p = GfPoly.from_int(b, low + b**m)
                assert is_irreducible(p) == _is_irreducible_bruteforce(p)

    @pytest.mark.parametrize("b,m", [(3, 6), (5, 5)])
    def test_sampled_against_bruteforce(self, b, m):
        rng = random.Random(5)
        for _ in range(40):
            p = GfPoly.from_int(b, rng.randrange(b**m, b ** (m + 1)))
            assert is_irreducible(p) == _is_irreducible_bruteforce(p)

    @pytest.mark.parametrize("b,mmax", [(3, 4), (5, 3), (7, 2)])
    def test_non_monic_against_bruteforce(self, b, mmax):
        for m in range(1, mmax + 1):
            for lead in range(2, b):
                for low in range(b**m):
                    p = GfPoly.from_int(b, low + lead * b**m)
                    assert is_irreducible(p) == _is_irreducible_bruteforce(p)

    @pytest.mark.parametrize("b,mmax", [(2, 12), (3, 7), (5, 5), (7, 4)])
    def test_counts_match_gauss_formula(self, b, mmax):
        # monic irreducibles of degree m: (1/m) sum_{d | m} mu(d) b^(m/d)
        mu = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1, 7: -1, 8: 0, 9: 0, 10: 1, 11: -1, 12: 0}
        for m in range(1, mmax + 1):
            want = sum(mu[d] * b ** (m // d) for d in range(1, m + 1) if m % d == 0) // m
            got = sum(is_irreducible(GfPoly.from_int(b, low + b**m)) for low in range(b**m))
            assert got == want, m


class TestFindIrreducible:
    def test_hand_examples(self):
        assert find_irreducible(2, 2).poly == P(2, 1, 1, 1)
        assert find_irreducible(2, 1).poly == GfPoly.x(2)
        assert find_irreducible(3, 1).poly == GfPoly.x(3)

    def test_output_is_smallest_monic_irreducible(self):
        for b, m in [(2, 3), (2, 5), (3, 3), (5, 2)]:
            mod = find_irreducible(b, m)
            assert mod.m == m
            assert mod.poly.coeffs[-1] == 1  # monic
            enc = mod.poly.to_int()
            for smaller in range(b**m, enc):
                assert not is_irreducible(GfPoly.from_int(b, smaller))

    @pytest.mark.parametrize("b,m,want", [
        (2, 12, "1000000001001"), (2, 16, "10000000000101011"),
        (2, 18, "1000000000000001001"), (2, 20, "100000000000000001001"),
        (3, 9, "1000002101"), (3, 12, "1000000000102"), (5, 8, "100000002"), (7, 6, "1000002"),
    ])
    def test_pinned_beyond_bruteforce_range(self, b, m, want):
        # recorded by trial division, a method independent of Ben-Or's test
        assert poly_to_string(find_irreducible(b, m).poly) == want


class TestLaurentDigits:
    def test_inverse_of_modulus(self):
        mod = Modulus(P(2, 1, 1, 1))
        dv = laurent_digits(GfPoly.one(2), GfPoly.one(2), mod, 5)
        assert dv.digits == (0, 1, 1, 0, 1)

    def test_x_over_modulus(self):
        mod = Modulus(P(2, 1, 1, 1))
        dv = laurent_digits(GfPoly.one(2), GfPoly.x(2), mod, 3)
        assert dv.digits == (1, 1, 0)

    def test_zero_numerator(self):
        mod = Modulus(P(2, 1, 1, 1))
        assert laurent_digits(GfPoly.zero(2), GfPoly.one(2), mod, 4).digits == (0,) * 4

    @pytest.mark.parametrize("b,m", [(2, 4), (3, 3), (5, 2)])
    def test_reconstruction(self, b, m):
        # by multiplication alone: for r = n*q of degree < m, the digits give
        # T = sum t_l x^{L-l}, the quotient of r x^L by P, so r x^L - T P has
        # degree < m
        rng = random.Random(3)
        mod = find_irreducible(b, m)
        L = 6
        x_L = GfPoly(b, (0,) * L + (1,))
        minus_one = GfPoly(b, (b - 1,))
        for _ in range(25):
            a = rng.randrange(1, m + 1)  # deg n <= a - 1, deg q <= m - a
            n = GfPoly.from_int(b, rng.randrange(0, b**a))
            q = GfPoly.from_int(b, rng.randrange(1, b ** (m - a + 1)))
            T = GfPoly(b, tuple(reversed(laurent_digits(n, q, mod, L).digits)))
            minus_TP = poly_mul(poly_mul(T, mod.poly), minus_one)
            assert poly_add(poly_mul(poly_mul(n, q), x_L), minus_TP).degree < m


class TestTruncation:
    def test_truncates_expansion(self):
        dv = DigitVector(2, (0, 1, 1, 0, 1))
        t = truncate_digits(dv, 2)
        assert t.digits == (0, 1)
        assert t.value() == 0.25

    def test_zero(self):
        assert truncate_digits(DigitVector(2, (0, 0, 0)), 2).value() == 0.0

    def test_geometric_sum(self):
        assert truncate_digits(DigitVector(2, (1, 1, 1)), 3).value() == 7 / 8

    def test_insufficient_precision_rejected(self):
        with pytest.raises(ValueError):
            truncate_digits(DigitVector(2, (1,)), 2)

    @pytest.mark.parametrize("b,m", [(2, 5), (3, 3)])
    def test_value_range(self, b, m):
        rng = random.Random(9)
        for _ in range(100):
            digits = tuple(rng.randrange(b) for _ in range(m))
            v = DigitVector(b, digits).value()
            assert 0.0 <= v <= 1.0 - b ** (-m) + 1e-15


class TestPrimitiveElement:
    def test_hand_examples(self):
        assert primitive_element(Modulus(P(2, 1, 1, 1))) == GfPoly.x(2)
        assert primitive_element(find_irreducible(2, 1)) == GfPoly.one(2)
        assert primitive_element(find_irreducible(3, 1)) == P(3, 2)

    def test_pinned_at_larger_m(self):
        # recorded with GfPoly-object powering, independent of the coefficient-list core
        assert primitive_element(find_irreducible(2, 12)) == P(2, 1, 1)
        assert primitive_element(find_irreducible(3, 9)) == GfPoly.x(3)

    @pytest.mark.parametrize("b,m", [(2, 8), (3, 5), (5, 4), (2, 12)])
    def test_powers_enumerate_all_nonzero_residues(self, b, m):
        mod = find_irreducible(b, m)
        g = primitive_element(mod)
        seen = set()
        cur = GfPoly.one(b)
        for _ in range(b**m - 1):
            seen.add(cur.to_int())
            cur = poly_mul_mod(cur, g, mod)
        assert seen == set(range(1, b**m))
