"""Point-set oracles: per-point long division vs bulk path, interlacing."""

import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from polylat import cli, pointgen
from polylat.gfpoly import (
    DigitVector,
    GfPoly,
    Modulus,
    find_irreducible,
    laurent_digits,
    poly_to_string,
)
from polylat.kernel import exponent_tables
from polylat.pointgen import (
    GeneratingVector,
    classical_digit_array,
    digits_to_values,
    distinct_coordinates,
    interlace_digit_array,
    interlace_digits,
    lattice_points,
    point_for_index,
    value_chunks,
    write_points_csv,
    write_points_digits,
)
from polylat.oracle import digit_chunks, read_points_digits


def make_gv(b, m, encs, alpha=1, P=None):
    """P: the encoding of the modulus, or None for find_irreducible(b, m)."""
    return GeneratingVector(
        modulus=find_irreducible(b, m) if P is None else Modulus(GfPoly.from_int(b, P)),
        alpha=alpha,
        q=tuple(GfPoly.from_int(b, e) for e in encs),
    )


class TestIndexToPoly:
    """Point index n = sum eta_r b^r as the polynomial sum eta_r x^r, GfPoly.from_int."""

    def test_zero(self):
        assert GfPoly.from_int(2, 0).is_zero()

    def test_binary_and_ternary_readoff(self):
        assert GfPoly.from_int(2, 5) == GfPoly(2, (1, 0, 1))  # x^2+1
        assert GfPoly.from_int(3, 5) == GfPoly(3, (2, 1))  # x+2

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            GfPoly.from_int(2, -1)


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
        write_points_csv(csv, [vals])
        write_points_digits(dig, gv)
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
        monkeypatch.setattr(pointgen, "CSV_CHUNK_VALUES", 15)  # 3 rows a write, one partial
        rng = np.random.default_rng(7)
        values = rng.random((8, 5))
        values[0] = 0.0
        values[1] = [0.5, 0.25, 0.75, 0.125, 1.0 - 2.0**-53]
        values[2, :3] = [0.1 + 0.2, 2.0**-40, 1e-300]  # 17-digit and exponent forms
        # dyadic blocks (L = 24 and 32, with zeros, powers of two and values
        # below 1e-4), one a single row, then a repr block again
        dyadic = rng.integers(0, 2**24, size=(7, 5)) / 2.0**24
        dyadic[0] = [0.0, 2.0**-24, 3 * 2.0**-20, 0.5, 1 - 2.0**-24]
        wide = rng.integers(0, 2**32, size=(4, 5)) / 2.0**32
        blocks = [values, dyadic, wide[:1], wide[1:], values[3:]]
        path = tmp_path / "p.csv"
        write_points_csv(path, blocks)
        want = "y1,y2,y3,y4,y5\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for block in blocks for row in block
        )
        assert path.read_bytes() == want.encode()

    @pytest.mark.parametrize("b", [2, 3])
    def test_digit_writer_matches_per_character_format(self, tmp_path, b):
        gv = make_gv(b, 3, [1, 5, 2, 7], alpha=2)
        digits = interlace_digit_array(classical_digit_array(gv), gv.alpha)
        path = tmp_path / "p.dig"
        write_points_digits(path, gv)
        assert path.read_bytes() == _per_character_file(digits)

    @pytest.mark.parametrize("fmt", ["csv", "digits"])
    def test_block_writes_match_one_block(self, tmp_path, monkeypatch, fmt):
        monkeypatch.setattr(pointgen, "CSV_CHUNK_VALUES", 128)  # 64 rows a write
        gv = make_gv(3, 5, [1, 5, 2, 7], alpha=2)  # 243 points
        values = digits_to_values(interlace_digit_array(classical_digit_array(gv), gv.alpha), gv.b)
        cuts = [0, 1, 1, 70, 199, gv.n_points]  # an empty block; blocks across writes

        def write(path, blocks):
            """The file from CSV blocks, or digit blocks of that many points."""
            if fmt == "digits":
                monkeypatch.setattr(pointgen, "CHUNK_BYTES", blocks * gv.s * (gv.alpha * gv.m + 1))
                write_points_digits(path, gv)
            else:
                write_points_csv(path, blocks)
            return path.read_bytes()

        if fmt == "digits":
            whole, layouts = write(tmp_path / "one", gv.n_points), [27, 1]
        else:
            whole, layouts = write(tmp_path / "one", [values]), [
                (values[i:j] for i, j in zip(cuts, cuts[1:]))]
        for i, blocks in enumerate(layouts):
            assert write(tmp_path / f"many{i}", blocks) == whole
        assert whole.count(b"\n") == gv.n_points + 1

    def test_digit_strings_need_single_character_digits(self, tmp_path):
        path = tmp_path / "p.dig"
        with pytest.raises(ValueError, match="b <= 7"):
            write_points_digits(path, make_gv(11, 2, [1, 12], alpha=2))
        assert not path.exists()  # refused before the file is opened
        with pytest.raises(ValueError, match="b <= 7"):
            poly_to_string(GfPoly(11, (1,)))

    def test_digit_format_roundtrip(self, tmp_path):
        gv = make_gv(3, 2, [1, 4], alpha=2)
        digits = interlace_digit_array(classical_digit_array(gv), gv.alpha)
        path = tmp_path / "p.dig"
        write_points_digits(path, gv)
        back = read_points_digits(path, gv.b)
        assert back.shape == digits.shape
        assert (back == digits).all()


def _repr_bytes(values):
    return "".join(",".join(map(repr, row)) + "\n" for row in values.tolist()).encode()


class TestDyadicFormatter:
    """The exact-arithmetic CSV path, byte for byte against repr."""

    @staticmethod
    def formatted(values):
        fmt = pointgen._DyadicFormatter(np.arange(values.shape[1]))
        out = []
        for start in range(0, len(values), fmt.slot_rows):
            rows = values[start : start + fmt.slot_rows]
            assert fmt.slots(rows)
            out.append(fmt.pack(0, len(rows)).tobytes())
        return b"".join(out)

    @pytest.mark.parametrize("L", range(1, 19))
    def test_every_value_up_to_L18(self, L):
        values = (np.arange(2**L) / 2.0**L).reshape(-1, min(2**L, 8))
        assert self.formatted(values) == _repr_bytes(values)

    @pytest.mark.parametrize("L", [24, 30, 32])
    def test_seeded_samples(self, L):
        k = np.random.default_rng(L).integers(0, 2**L, size=(2500, 8))
        values = k / 2.0**L
        assert self.formatted(values) == _repr_bytes(values)

    @pytest.mark.parametrize("L", [8, 16, 20, 24, 28, 32])
    def test_edge_values(self, L):
        i = np.arange(1, L + 1)
        cut = int(2**L * 1e-4)  # 0.0 and the exponent form below 1e-4, then past it
        small = np.unique(np.clip(np.r_[0:40, cut - 40 : cut + 40], 0, None))
        k = np.concatenate([2**i - 1, 2 ** (i - 1), 2**L - i, small])
        values = (k / 2.0**L).reshape(-1, 1)
        assert self.formatted(values) == _repr_bytes(values)

    @pytest.mark.parametrize("L", [24, 32])
    def test_blocks_of_values_below_1e4(self, L):
        # repr's exponent form and 0.0: every such value at L = 24, a seeded
        # sample at L = 32, and every power of two, whose lower gap is narrower
        cut = int(2**L * 1e-4) + 1
        k = np.arange(cut) if L == 24 else np.random.default_rng(L).integers(0, cut, size=30000)
        k = np.concatenate([k, 2 ** np.arange(L)])
        values = (np.resize(k, -(-len(k) // 4) * 4) / 2.0**L).reshape(-1, 4)
        assert np.mean(values < 1e-4) > 0.99
        assert self.formatted(values) == _repr_bytes(values)

    def test_other_blocks_take_the_repr_path(self, tmp_path):
        rng = np.random.default_rng(3)
        mixed = rng.integers(0, 2**16, size=(6, 4)) / 2.0**16
        mixed[2, 1] = 1 / 3  # a base-3 value
        long = rng.integers(0, 2**34, size=(6, 4)) / 2.0**34
        long[0, 0] = 1 / 2**34  # L = 34 > 32
        for values in (mixed, long, -mixed, mixed + 1):
            assert not pointgen._DyadicFormatter(np.arange(4)).slots(values)
            write_points_csv(tmp_path / "p.csv", [values])
            assert (tmp_path / "p.csv").read_bytes() == b"y1,y2,y3,y4\n" + _repr_bytes(values)


class TestColumnMap:
    """Repeated coordinate tuples: the map to distinct ones, and the CSV
    written from the distinct columns against the expanded array."""

    @pytest.mark.parametrize("alpha,encs,first,columns", [
        (2, [1, 5, 3, 7, 1, 5, 6, 2, 3, 7, 1, 5], [0, 1, 3], [0, 1, 0, 2, 1, 0]),
        (2, [1, 5, 5, 1, 1, 6], [0, 1, 2], [0, 1, 2]),  # equal members, swapped pairs
        (3, [2, 6, 7] * 4, [0], [0, 0, 0, 0]),
        (1, [4, 4, 1, 4, 1, 3], [0, 2, 5], [0, 0, 1, 0, 1, 2]),
    ], ids=["first-appearance", "all-distinct", "all-equal", "alpha1"])
    def test_distinct_coordinates(self, alpha, encs, first, columns):
        got_first, got_columns = distinct_coordinates(make_gv(2, 3, encs, alpha))
        assert got_first.tolist() == first
        assert got_columns.tolist() == columns

    def test_value_chunks_hold_the_distinct_coordinates(self, monkeypatch):
        gv = make_gv(2, 6, [9, 40, 3, 3, 9, 40, 17, 5, 3, 3], alpha=2)
        first, columns = distinct_coordinates(gv)
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", 8 * len(first) * gv.alpha * gv.m)
        blocks = list(value_chunks(gv))
        assert [len(block) for block in blocks] == [8] * 8
        got = np.concatenate(blocks)
        want = lattice_points(gv)
        assert np.array_equal(got.view(np.int64), want[:, first].view(np.int64))
        assert np.array_equal(want.view(np.int64), got[:, columns].view(np.int64))

    @pytest.mark.parametrize("seed", range(10))
    def test_csv_through_columns_matches_the_expanded_array(self, seed, tmp_path, monkeypatch):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(pointgen, "CSV_CHUNK_VALUES", int(rng.choice([64, 100, 4096])))
        s = int(rng.choice([1, 3, 7, 40]))
        columns = rng.integers(0, rng.integers(1, s + 1), size=s)
        _, columns = np.unique(columns, return_inverse=True)  # every slot used
        u = columns.max() + 1
        rows = int(rng.integers(50, 400))  # not a multiple of CSV_CHUNK_VALUES // s
        L = int(rng.choice([10, 24, 32]))
        values = rng.integers(0, 2**L, size=(rows, u)) / 2.0**L
        values[0] = 0.0
        values[1, columns[-1]] = 2.0**-24  # the narrow-gap values, in a column
        values[2, columns[-1]] = 2.0**-25  # that repeats when u < s
        values[3, 0] = 3 * 2.0**-30  # exponent form
        cut = int(rng.integers(1, rows))
        blocks = [values[:cut], values[cut:cut], values[cut:]]
        repr_rows = rng.random((5, u))  # a block on the repr path
        for i, block in enumerate([values, repr_rows]):
            write_points_csv(tmp_path / "got.csv", blocks if i == 0 else [block], columns)
            write_points_csv(tmp_path / "want.csv", [block[:, columns]])
            want = (tmp_path / "want.csv").read_bytes()
            assert (tmp_path / "got.csv").read_bytes() == want
            assert want == ",".join(f"y{k + 1}" for k in range(s)).encode() + b"\n" + _repr_bytes(
                block[:, columns])


def _random_specs(count, seed):
    """Small (b, m, alpha, s) specs; b^m stays small enough for the oracle."""
    rng = np.random.default_rng(seed)
    specs = []
    while len(specs) < count:
        b = int(rng.choice([2, 3, 5, 7]))
        m = int(rng.integers(2, 7))
        if b**m <= 20000:
            specs.append((b, m, int(rng.integers(1, 5)), int(rng.integers(1, 4))))
    return specs


RANDOM_SPECS = _random_specs(12, seed=14)


class TestChunkedDifferential:
    """Seeded random specs: chunked interlaced digits against the per-point oracle."""

    def test_specs_cover_both_value_regimes(self):
        exact = [b ** (alpha * m) <= 2**53 for b, m, alpha, _s in RANDOM_SPECS]
        assert any(exact) and not all(exact)

    @pytest.mark.parametrize("b,m,alpha,s", RANDOM_SPECS)
    def test_chunks_match_point_for_index(self, b, m, alpha, s, monkeypatch):
        rng = np.random.default_rng([b, m, alpha, s])
        gv = make_gv(b, m, rng.integers(1, b**m, size=alpha * s).tolist(), alpha)
        L = alpha * m
        r = m - 2  # b^2 chunks of b^r points: offsets with two nonzero digits
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", b**r * s * L)
        chunks = list(digit_chunks(gv))
        assert [len(c) for c in chunks] == [b**r] * b ** (m - r)
        digits = np.concatenate(chunks)
        assert (digits == interlace_digit_array(classical_digit_array(gv), alpha)).all()

        # every chunk's first and last point, plus random ones, from long division
        starts = np.arange(0, gv.n_points, b**r)
        picks = set(starts) | set(starts + b**r - 1) | set(rng.integers(0, gv.n_points, 40))
        for n in sorted(picks):
            coords = point_for_index(gv, int(n)).coords
            for k in range(s):
                want = interlace_digits(list(coords[k * alpha : (k + 1) * alpha]), alpha)
                assert tuple(digits[n, k]) == want.digits

        # values against the exact fraction of the digit string
        strings = (digits + np.uint8(ord("0"))).reshape(-1, L).view(f"S{L}").ravel()
        want = np.array([float(Fraction(int(t, b), b**L)) for t in strings])
        got = lattice_points(gv).ravel()
        if b**L <= 2**53:
            assert (got == want).all()
        else:
            assert (np.abs(got - want) <= np.spacing(want)).all()


def _per_character_file(digits):
    """The digit file of an (N, s, L) digit array, one character at a time."""
    header = ",".join(f"y{j + 1}" for j in range(digits.shape[1])) + "\n"
    return (header + "".join(
        ",".join("".join(str(int(t)) for t in coord) for coord in row) + "\n"
        for row in digits
    )).encode()


class TestDigitFile:
    """The digit file writer against the classical digits, interlaced."""

    @pytest.mark.parametrize("blocks", ["several", "one point"])
    @pytest.mark.parametrize("b,m,alpha,s", RANDOM_SPECS)
    def test_file_matches_the_digit_oracle(self, b, m, alpha, s, blocks, tmp_path, monkeypatch):
        rng = np.random.default_rng([b, m, alpha, s, 21])
        gv = make_gv(b, m, rng.integers(1, b**m, size=alpha * s).tolist(), alpha)
        row = s * (alpha * m + 1)  # file bytes a point
        r = {"several": m - 2, "one point": 0}[blocks]
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", b**r * row)
        assert pointgen._block_exponent(gv, row, pointgen.CHUNK_BYTES) == r
        path = tmp_path / "p.dig"
        write_points_digits(path, gv)
        digits = interlace_digit_array(classical_digit_array(gv), alpha)
        assert path.read_bytes() == _per_character_file(digits)

    @pytest.mark.parametrize("b", [5, 7])
    def test_cli_round_trip(self, b, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", b * 3 * (2 * 3 + 1))  # b points a block
        rng = np.random.default_rng(b)
        gv = make_gv(b, 3, rng.integers(1, b**3, size=6).tolist(), alpha=2)
        gv.save(tmp_path / "gv.json")
        path = tmp_path / "p.dig"
        argv = ["points", "--gv", str(tmp_path / "gv.json"), "--out", str(path), "--format", "digits"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        back = read_points_digits(path, b)
        assert np.array_equal(back, interlace_digit_array(classical_digit_array(gv), 2))


def _recursive_values(digits, b):
    """The digit-to-value recursion as one function: the leading K digits,
    the most with b^K <= 2^53, as one exact numerator over b^K, plus the
    value of the rest over b^K."""
    L = digits.shape[-1]
    K = 1
    while K < L and b ** (K + 1) <= 2**53:
        K += 1
    place = (b ** np.arange(K - 1, -1, -1, dtype=np.int64)).astype(np.float64)
    values = (digits[..., :K] @ place) / float(b**K)
    if K < L:
        values += _recursive_values(digits[..., K:], b) / float(b**K)
    return values


# edge cases besides RANDOM_SPECS: alpha = 1, m = 1, both at once
EDGE_SPECS = [(2, 1, 1, 2), (3, 1, 2, 2), (7, 1, 4, 1), (5, 4, 1, 3), (2, 9, 1, 1)]

# (b, m, encoding of P) besides find_irreducible's monic moduli: x is not a
# generator modulo x^4+x^3+x^2+x+1 over Z_2 (c = 12) nor modulo x^4+x^2+2
# over Z_3 (c = 75); 2x^4+2x^2+1 is the latter's unit multiple, and the rest
# are unit multiples of find_irreducible's moduli, 3x and 3x+2 at m = 1
OTHER_MODULI = [(2, 4, 31), (3, 4, 92), (3, 4, 181), (5, 3, 262), (7, 2, 150),
                (5, 1, 15), (7, 1, 23)]

# (b, m, alpha, s, P): P is None for find_irreducible(b, m)
TABLE_SPECS = [spec + (None,) for spec in RANDOM_SPECS + EDGE_SPECS] + [
    (b, m, alpha, 2, P) for (b, m, P), alpha in zip(OTHER_MODULI, [2, 3, 2, 2, 3, 1, 2])]


class TestTopDigits:
    """Every Laurent digit of every residue is a read of one sequence."""

    @pytest.mark.parametrize("b,m,P", [(2, 5, None), (3, 3, None), (7, 1, None), (2, 1, None)]
                             + OTHER_MODULI)
    def test_residue_digits_and_generating_matrices(self, b, m, P):
        rng = np.random.default_rng([b, m, 22])
        gv = make_gv(b, m, rng.integers(1, b**m, size=3).tolist(), P=P)
        _, pow_enc, exp_of = exponent_tables(gv.modulus)
        M = len(pow_enc)
        # top[x] is digit 1 of g^x/P, c the exponent of x
        top = pow_enc // b ** (m - 1) * pow(gv.modulus.poly.coeffs[-1], -1, b) % b
        c = exp_of[b] if m > 1 else 0
        one = GfPoly.one(b)
        for x in range(M):
            residue = GfPoly.from_int(b, int(pow_enc[x]))
            want = laurent_digits(residue, one, gv.modulus, m).digits
            assert tuple(top[(x + np.arange(m) * c) % M]) == want

        # the Hankel form: C_j[l, i] = top[(e_j + (l + i) c) mod M]
        e = exp_of[[qj.to_int() for qj in gv.q]]
        l, i = np.ogrid[:m, :m]
        C = pointgen._generator_matrices(gv)
        for j in range(gv.d):
            assert np.array_equal(C[j], top[(e[j] + (l + i) * c) % M])


class TestTableValues:
    """Values from the exponent tables against the digit path, bit for bit."""

    @pytest.mark.parametrize(
        "b,m,alpha,s,P", TABLE_SPECS,
        ids=["-".join(map(str, spec[:4] if spec[4] is None else spec)) for spec in TABLE_SPECS])
    def test_values_and_csv_match_the_digit_path(self, b, m, alpha, s, P, tmp_path, capsys,
                                                 monkeypatch):
        rng = np.random.default_rng([b, m, alpha, s, 19])
        gv = make_gv(b, m, rng.integers(1, b**m, size=alpha * s).tolist(), alpha, P)
        digits = interlace_digit_array(classical_digit_array(gv), alpha)
        want = digits_to_values(digits, b)
        # value_chunks in blocks of b^(m-2) points (one point at m <= 2)
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", b ** max(m - 2, 0) * s * alpha * m)
        assert np.array_equal(want.view(np.int64), _recursive_values(digits, b).view(np.int64))
        got = lattice_points(gv)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert not got[0].view(np.int64).any()  # the origin, as +0.0

        write_points_csv(tmp_path / "want.csv", [want])
        gv.save(tmp_path / "gv.json")
        argv = ["points", "--gv", str(tmp_path / "gv.json"), "--out", str(tmp_path / "got.csv")]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    # (b, m, alpha, s): one numerator segment each, and two at b^(alpha m) = 2^64
    BLOCK_SPECS = [(2, 7, 2, 3), (3, 4, 3, 2), (5, 3, 2, 4), (2, 8, 8, 1)]

    @pytest.mark.parametrize("blocks", ["one point", "partial last", "one block"])
    @pytest.mark.parametrize("b,m,alpha,s", BLOCK_SPECS)
    def test_value_blocks_match_the_digit_chunks(self, b, m, alpha, s, blocks, monkeypatch):
        rng = np.random.default_rng([b, m, alpha, s, 20])
        gv = make_gv(b, m, rng.integers(1, b**m, size=alpha * s).tolist(), alpha)
        want = digits_to_values(np.concatenate(list(digit_chunks(gv))), b)
        segments = len(pointgen._place_values(b, alpha * m)[0])
        assert segments == (2 if b ** (alpha * m) > 2**53 else 1)
        # R = b^r exponents a block: of the b^m - 1, the last block holds R - 1
        r = {"one point": 0, "partial last": m - 2, "one block": m}[blocks]
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", 2 * b**r * s * segments * 8)
        assert pointgen._block_exponent(gv, 8 * s * segments, pointgen.CHUNK_BYTES // 2) == r
        got = lattice_points(gv)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("m", [1, 2])
    def test_base_beyond_uint8(self, m):
        # no digit array is built, so b >= 128 needs no wider digit sums
        b, alpha = 131, 2
        gv = make_gv(b, m, [1, b - 1, b**m - 1, b**m // 3], alpha)
        got = lattice_points(gv)
        for n in [0, 1, b - 1, b**m // 2, b**m - 1]:
            coords = point_for_index(gv, n).coords
            for k in range(gv.s):
                digits = interlace_digits(list(coords[k * alpha : (k + 1) * alpha]), alpha)
                value = sum(Fraction(t, b ** (i + 1)) for i, t in enumerate(digits.digits))
                assert got[n, k] == float(value)


# allocations besides the chunks: matrices, the parser, Python row strings
SLACK = 1 << 18


class TestChunkedMemory:
    def test_lattice_points_peak_is_output_plus_three_chunks(self):
        rng = random.Random(3)
        gv = make_gv(2, 16, [rng.randrange(1, 2**16) for _ in range(32)], alpha=2)
        chunk = pointgen.CHUNK_BYTES
        assert gv.n_points * gv.d * gv.m >= 8 * chunk  # each unchunked digit cube
        tracemalloc.start()
        try:
            pts = lattice_points(gv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the exponent and numerator tables, a chunk of digits cast to float64
        # and a value block
        assert peak <= pts.nbytes + 3 * chunk + SLACK

    def test_lattice_points_peak_at_spod_heavy_size(self):
        # s = 200, m = 12: the value blocks are widest here, the bound the same
        rng = random.Random(5)
        gv = make_gv(2, 12, [rng.randrange(1, 2**12) for _ in range(400)], alpha=2)
        chunk = pointgen.CHUNK_BYTES
        tracemalloc.start()
        try:
            pts = lattice_points(gv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pts.nbytes + 3 * chunk + SLACK

    @pytest.mark.parametrize("fmt", ["csv", "digits"])
    def test_cli_points_peak_is_a_few_chunks(self, tmp_path, capsys, monkeypatch, fmt):
        chunk = 1 << 14
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", chunk)
        rng = random.Random(4)
        gv = make_gv(2, 12, [rng.randrange(1, 2**12) for _ in range(32)], alpha=2)
        gv.save(tmp_path / "gv.json")
        argv = ["points", "--gv", str(tmp_path / "gv.json"), "--out", str(tmp_path / "p"),
                "--format", fmt]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        # the digit file's head, block and wrap temporary, or the CSV's tables
        # and value block, plus at most 8 bytes per digit of one chunk as
        # floats or text: below the whole float array
        bound = 11 * chunk + SLACK
        assert bound < gv.n_points * gv.s * 8
        assert peak <= bound

    def test_cli_csv_scratch_is_bounded_by_a_value_count(self, tmp_path, capsys, monkeypatch):
        # spod-heavy's size (s = 200, alpha*m = 24) at the default CHUNK_BYTES
        rng = random.Random(6)
        gv = make_gv(2, 12, [rng.randrange(1, 2**12) for _ in range(400)], alpha=2)
        _check_csv_scratch(gv, tmp_path, capsys, monkeypatch)

    def test_cli_csv_scratch_with_repeated_coordinates(self, tmp_path, capsys, monkeypatch):
        # spod-heavy's size with 6 distinct coordinate tuples: the CSV formats
        # those only, within the same bounds
        rng = random.Random(7)
        pairs = [(rng.randrange(1, 2**12), rng.randrange(1, 2**12)) for _ in range(6)]
        gv = make_gv(2, 12, [q for _ in range(200) for q in rng.choice(pairs)], alpha=2)
        assert len(distinct_coordinates(gv)[0]) == 6
        _check_csv_scratch(gv, tmp_path, capsys, monkeypatch)


def _check_csv_scratch(gv, tmp_path, capsys, monkeypatch):
    digits = next(digit_chunks(gv)).nbytes
    floats = digits // (gv.alpha * gv.m) * 8
    gv.save(tmp_path / "gv.json")
    # the scratch arrays live in an anonymous mapping, which tracemalloc
    # does not see: record their size instead
    sizes = []
    allocate = pointgen._DyadicFormatter._allocate

    def recording(fmt, n):
        sizes.append(n)
        allocate(fmt, n)

    monkeypatch.setattr(pointgen._DyadicFormatter, "_allocate", recording)
    argv = ["points", "--gv", str(tmp_path / "gv.json"), "--out", str(tmp_path / "p.csv")]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert 0 < max(sizes) <= pointgen.CSV_CHUNK_VALUES
    # the tables, the last and the next block's exponent indices (alpha
    # floats a value), numerators and values, and at most 600 bytes a value
    # of one write: below formatting a whole block at once
    bound = 4 * digits + 3 * floats + 600 * pointgen.CSV_CHUNK_VALUES + SLACK
    assert bound < 600 * floats // 8
    assert peak <= bound
