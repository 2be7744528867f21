"""Point-set oracles: per-point long division vs bulk path, interlacing."""

import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from polylat import pointgen
from polylat.gfpoly import DigitVector, GfPoly, find_irreducible, poly_to_string
from polylat.pointgen import (
    GeneratingVector,
    classical_digit_array,
    digits_to_values,
    index_to_poly,
    interlace_digit_array,
    interlace_digits,
    lattice_points,
    point_for_index,
    write_points_csv,
    write_points_digits,
)


def make_gv(b, m, encs, alpha=1):
    return GeneratingVector(
        modulus=find_irreducible(b, m),
        alpha=alpha,
        q=tuple(GfPoly.from_int(b, e) for e in encs),
    )


class TestIndexToPoly:
    def test_zero(self):
        assert index_to_poly(0, 2).is_zero()

    def test_binary_and_ternary_readoff(self):
        assert index_to_poly(5, 2) == GfPoly(2, (1, 0, 1))  # x^2+1
        assert index_to_poly(5, 3) == GfPoly(3, (2, 1))  # x+2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            index_to_poly(-1, 2)


class TestClassicalPoints:
    def test_m2_first_coordinate(self):
        gv = make_gv(2, 2, [1])
        assert tuple(classical_digit_array(gv)[1, 0]) == (0, 1)  # value 1/4
        assert point_for_index(gv, 1).coords[0].value() == 0.25

    def test_index_zero_is_origin(self):
        gv = make_gv(2, 3, [1, 5, 7])
        assert not classical_digit_array(gv)[0].any()
        assert all(c.value() == 0.0 for c in point_for_index(gv, 0).coords)

    def test_m1_half(self):
        gv = make_gv(2, 1, [1])
        assert lattice_points(gv)[1, 0] == 0.5
        assert point_for_index(gv, 1).coords[0].value() == 0.5

    @pytest.mark.parametrize(
        "b,m", [(2, 4), (3, 3), (5, 2), (7, 2), (11, 2), (17, 2)]
    )
    def test_bulk_path_matches_per_point_division(self, b, m):
        # q = b - 1 puts the digit b - 1 in column 0 of its generating matrix, so
        # the b-adic doubling forms (b - 1)^2: 256 at b = 17, past uint8
        rng = random.Random(17)
        encs = [b - 1] + [rng.randrange(1, b**m) for _ in range(5)]
        gv = make_gv(b, m, encs, alpha=3)
        arr = classical_digit_array(gv)
        for n in range(gv.n_points):
            pure = point_for_index(gv, n)
            for j in range(gv.d):
                assert tuple(arr[n, j]) == pure.coords[j].digits

    def test_base_beyond_uint8_digit_sums_rejected(self):
        with pytest.raises(ValueError, match="b < 128"):
            classical_digit_array(make_gv(131, 1, [1]))

    @pytest.mark.parametrize("b,m", [(2, 5), (2, 10), (3, 5), (5, 3)])
    def test_one_dimensional_projections_uniform(self, b, m):
        # every coordinate hits the full grid {k/b^m} exactly once
        rng = random.Random(m * b)
        encs = [rng.randrange(1, b**m) for _ in range(3)]
        gv = make_gv(b, m, encs)
        arr = classical_digit_array(gv)
        place = b ** np.arange(m - 1, -1, -1, dtype=np.int64)
        for j in range(gv.d):
            vals = sorted(arr[:, j, :].astype(np.int64) @ place)
            assert vals == list(range(b**m))


class TestInterlacing:
    def test_hand_example(self):
        a = DigitVector(2, (1, 0))  # 0.5
        c = DigitVector(2, (0, 1))  # 0.25
        out = interlace_digits([a, c], 2)
        assert out.digits == (1, 0, 0, 1)
        assert out.value() == 0.5625

    def test_zero_inputs(self):
        z = DigitVector(2, (0, 0))
        assert interlace_digits([z, z], 2).value() == 0.0

    def test_alpha_one_identity(self):
        a = DigitVector(3, (2, 1, 0))
        assert interlace_digits([a], 1).digits == a.digits

    def test_mismatched_precision_rejected(self):
        with pytest.raises(ValueError):
            interlace_digits([DigitVector(2, (1,)), DigitVector(2, (1, 0))], 2)

    @pytest.mark.parametrize("b,m,alpha", [(2, 2, 2), (2, 1, 3), (3, 2, 2)])
    def test_injective_on_digit_tuples(self, b, m, alpha):
        seen = set()
        space = list(itertools.product(range(b), repeat=m))
        for combo in itertools.product(space, repeat=alpha):
            out = interlace_digits([DigitVector(b, d) for d in combo], alpha)
            assert out.digits not in seen
            seen.add(out.digits)

    def test_alpha1_identity(self):
        gv = make_gv(2, 3, [1, 5])
        arr = classical_digit_array(gv)
        assert (interlace_digit_array(arr, 1) == arr).all()

    @staticmethod
    def check_against_scalar(b, m, encs):
        gv = make_gv(b, m, encs, alpha=2)
        arr = interlace_digit_array(classical_digit_array(gv), 2)
        assert arr.shape == (gv.n_points, gv.s, 2 * m)
        for n in range(gv.n_points):
            coords = point_for_index(gv, n).coords
            for k in range(gv.s):
                want = interlace_digits(list(coords[2 * k : 2 * k + 2]), 2)
                assert tuple(arr[n, k]) == want.digits

    def test_interlace_points_matches_scalar(self):
        self.check_against_scalar(2, 3, [1, 5])

    def test_array_interlacing_matches_object_path(self):
        self.check_against_scalar(3, 2, [1, 4, 2, 7])

    def test_dimension_not_divisible_rejected(self):
        gv = make_gv(2, 3, [1, 5])
        with pytest.raises(ValueError):
            interlace_digit_array(classical_digit_array(gv), 3)


class TestFloats:
    def test_unit_values(self):
        assert DigitVector(2, (1,)).value() == 0.5
        assert DigitVector(2, (0, 1)).value() == 0.25
        assert abs(DigitVector(3, (2,)).value() - 2 / 3) < 1e-15

    def test_grid_membership_after_interlacing(self):
        gv = make_gv(2, 3, [1, 5, 3, 7], alpha=2)
        vals = lattice_points(gv)
        grid = vals * 2 ** (gv.alpha * gv.m)
        assert np.allclose(grid, np.round(grid))
        assert np.all((vals >= 0) & (vals < 1))

    @staticmethod
    def exact_values(digits, b):
        out = []
        for row in digits.reshape(-1, digits.shape[-1]):
            num = 0
            for t in row:
                num = num * b + int(t)
            out.append(float(Fraction(num, b ** len(row))))
        return np.array(out).reshape(digits.shape[:-1])

    @pytest.mark.parametrize("b,L", [(2, 53), (3, 33), (5, 22), (3, 6)])
    def test_integer_path_is_correctly_rounded(self, b, L):
        # b^L <= 2^53: one exact numerator, one rounding
        rng = np.random.default_rng(b * L)
        digits = rng.integers(0, b, size=(40, 3, L)).astype(np.uint8)
        digits[::4, :, : L // 2] = 0  # small values, where a float sum loses most
        assert (digits_to_values(digits, b) == self.exact_values(digits, b)).all()

    def test_long_expansion_within_one_ulp(self):
        # b = 5, alpha = 3, m = 8: 5^24 > 2^53
        rng = np.random.default_rng(24)
        digits = rng.integers(0, 5, size=(400, 3, 24)).astype(np.uint8)
        digits[::4, :, :10] = 0
        want = self.exact_values(digits, 5)
        assert (np.abs(digits_to_values(digits, 5) - want) <= np.spacing(want)).all()

    def test_digits_to_values_horner_agreement(self):
        rng = np.random.default_rng(5)
        digits = rng.integers(0, 3, size=(10, 4, 6)).astype(np.uint8)
        vals = digits_to_values(digits, 3)
        for i in range(10):
            for j in range(4):
                assert abs(vals[i, j] - DigitVector(3, tuple(digits[i, j])).value()) < 1e-15


class TestGeneratingVectorIO:
    def test_json_roundtrip(self, tmp_path):
        gv = make_gv(2, 4, [1, 9, 13, 6], alpha=2)
        path = tmp_path / "vec.json"
        gv.save(path, metadata={"note": 1})
        back = GeneratingVector.load(path)
        assert back == gv
        doc = json.loads(path.read_text())
        assert set(doc) == {"b", "m", "alpha", "s", "P", "q", "config"}
        assert doc["q"] == ["1", "1001", "1101", "110"]

    def test_validation_rejects_zero_component(self):
        with pytest.raises(ValueError):
            make_gv(2, 3, [1, 0])

    def test_validation_rejects_large_degree(self):
        with pytest.raises(ValueError):
            make_gv(2, 3, [1, 8])  # encoding 8 = x^3, degree == m

    def test_csv_and_digit_formats(self, tmp_path):
        gv = make_gv(2, 3, [1, 5], alpha=2)
        digits = interlace_digit_array(classical_digit_array(gv), gv.alpha)
        vals = digits_to_values(digits, gv.b)
        csv = tmp_path / "p.csv"
        dig = tmp_path / "p.dig"
        write_points_csv(csv, vals)
        write_points_digits(dig, digits, gv.b)
        lines = csv.read_text().splitlines()
        assert lines[0] == "y1"
        assert len(lines) == gv.n_points + 1
        assert float(lines[1].split(",")[0]) == 0.0
        dlines = dig.read_text().splitlines()
        # digit rows reproduce the exact values
        for n in (1, 5):
            got = dlines[n + 1].split(",")[0]
            assert got == "".join(str(t) for t in digits[n, 0])

    def test_csv_writer_matches_per_value_repr(self, tmp_path, monkeypatch):
        monkeypatch.setattr(pointgen, "CSV_CHUNK_ROWS", 3)  # several chunks, one partial
        rng = np.random.default_rng(7)
        values = rng.random((8, 5))
        values[0] = 0.0
        values[1] = [0.5, 0.25, 0.75, 0.125, 1.0 - 2.0**-53]
        values[2, :3] = [0.1 + 0.2, 2.0**-40, 1e-300]  # 17-digit and exponent forms
        path = tmp_path / "p.csv"
        write_points_csv(path, values)
        want = "y1,y2,y3,y4,y5\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in values
        )
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("b", [2, 3])
    def test_digit_writer_matches_per_character_format(self, tmp_path, b):
        gv = make_gv(b, 3, [1, 5, 2, 7], alpha=2)
        digits = interlace_digit_array(classical_digit_array(gv), gv.alpha)
        path = tmp_path / "p.dig"
        write_points_digits(path, digits, b)
        want = ",".join(f"y{j + 1}" for j in range(gv.s)) + "\n" + "".join(
            ",".join("".join(str(int(t)) for t in coord) for coord in row) + "\n"
            for row in digits
        )
        assert path.read_bytes() == want.encode()

    def test_digit_strings_need_single_character_digits(self, tmp_path):
        with pytest.raises(ValueError, match="b <= 7"):
            write_points_digits(tmp_path / "p.dig", np.zeros((1, 1, 2), np.uint8), 11)
        with pytest.raises(ValueError, match="b <= 7"):
            poly_to_string(GfPoly(11, (1,)))

    def test_digit_format_roundtrip(self, tmp_path):
        from polylat.pointgen import read_points_digits

        gv = make_gv(3, 2, [1, 4], alpha=2)
        digits = interlace_digit_array(classical_digit_array(gv), gv.alpha)
        path = tmp_path / "p.dig"
        write_points_digits(path, digits, gv.b)
        back = read_points_digits(path, gv.b)
        assert back.shape == digits.shape
        assert (back == digits).all()
