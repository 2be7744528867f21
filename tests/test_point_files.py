"""The bytes `polylat points` writes, pinned by SHA-256 digest.

Each vector is written as CSV and as digit strings, with the default block
size, with several blocks, and with one point a block; every layout must
give the same file.  The digests were recorded from the per-block writers
that formatted each block separately, so any change to how the files are
made has to reproduce them byte for byte.
"""

import hashlib

import pytest

from polylat import cli, pointgen
from polylat.gfpoly import GfPoly, find_irreducible
from polylat.pointgen import GeneratingVector

# (b, m, alpha, q encodings); vector "b2-pairs" repeats each coordinate pair
# (q_2k = q_2k+1), so its interlaced values hold digit pairs and reach below
# 1e-4, where repr switches to exponent form
VECTORS = {
    "b2-pairs": (2, 10, 2, (1, 1, 627, 627, 90, 90, 1013, 1013)),
    "b2-alpha1": (2, 6, 1, (1, 19, 44, 27, 61)),
    "b3-alpha2": (3, 5, 2, (1, 97, 200, 31, 150, 242)),
    "b5-alpha3": (5, 3, 3, (1, 48, 117, 66, 9, 101)),
    "b7-alpha4": (7, 2, 4, (1, 30, 45, 8, 17, 40, 2, 33)),
    # coordinate tuples that repeat (equal tuples give equal columns): four
    # distinct of eight with (1, 1) first and last, reaching below 1e-4; a
    # repr-path vector; one tuple in every coordinate
    "b2-repeats": (2, 10, 2, (1, 1, 627, 90, 300, 300, 627, 90, 1013, 5, 300, 300, 627, 90, 1, 1)),
    "b3-repeats": (3, 5, 2, (1, 97, 200, 31, 1, 97, 150, 242, 200, 31)),
    "b2-one-tuple": (2, 8, 3, (5, 77, 200) * 4),
    # runs of equal neighbouring coordinates: a run of six in the middle,
    # single columns, then a run of three through the last column, whose
    # tuple (1, 1) reaches below 1e-4; a repr-path vector with runs
    "b2-runs": (2, 10, 2, (1, 3) + (627, 90) * 6 + (300, 300, 1013, 5, 1, 3) + (1, 1) * 3),
    "b3-runs": (3, 5, 2, (1, 97) + (200, 31) * 3 + (150, 242) * 2),
}

DIGESTS = {
    ("b2-pairs", "csv"): "d442e8c4bfe00fee42055cd2a33c46b86b1c60c884b318dd5f6f6857d8c16637",
    ("b2-pairs", "digits"): "a328a13c89f72e01112fc120af060527d854e1ef1733214042fb24e066253a12",
    ("b2-alpha1", "csv"): "196074109ab3e5c0db1c885a571d0109910426537d364ad744d3e7b31997b596",
    ("b2-alpha1", "digits"): "a717a7fc8ddfd118da7dac23a7ccaf8dd0712f781ec6f99273516058197921c2",
    ("b3-alpha2", "csv"): "61637d1ea12531f6d1526ff84499fc885ccffa0c61953dc2909404ed95a5e8da",
    ("b3-alpha2", "digits"): "db31e17e3ec32c5572dd3cf8656e6c7b5b6d6a5542fa85947e03fca47c648290",
    ("b5-alpha3", "csv"): "c47b68ecb444d9166e6d1efb2c3ec60a6b9a1e52ba2e65b0e773db628e1e7040",
    ("b5-alpha3", "digits"): "044655922b1f22e6c5d49cd94a98658db697af2ac8bcb7c09b1e66dbcb74d175",
    ("b7-alpha4", "csv"): "18b7751258e6e6cba9a6ec07eca693b32d610b7084aac8396d367b876a5f6fbb",
    ("b7-alpha4", "digits"): "d5a081b754a8118bee6e4ae36ad77147bc7cbdeb7801fec06ed93f7399437bbb",
    ("b2-repeats", "csv"): "bfe66bb6ad4c1af42535cf20845e79f8516efbdf4e04d00b63d33087c4eb85c3",
    ("b2-repeats", "digits"): "442f6c1c10c2bc0e9b1f09d625e69d26b0ee3dfbe4462f7dd9331579e1a11bbb",
    ("b3-repeats", "csv"): "cf618c55a3e6d1a036c3187b0b8182629866f19d102a90698e8de6320c36b66e",
    ("b3-repeats", "digits"): "05bfbafc67cd8c22e845f5c41ee7d0f7f866da4adfddc588a034e802d016fafe",
    ("b2-one-tuple", "csv"): "5061d9cd09a45771f2e259bf7bd1fdf53bfe3de6bd557eb78294de52df724fde",
    ("b2-one-tuple", "digits"): "603dde2fcde247651749abd8df77852960a13c8abc5fcb13876b80c5e376649a",
    ("b2-runs", "csv"): "b96359755748d7fa2246d4652d9011aeed2744ed616bfa116a55587883fd9909",
    ("b2-runs", "digits"): "1e553398cb9dc636885d3414853db6680bfb0ba2d30f2dc44fde38c7b68e81c2",
    ("b3-runs", "csv"): "39e2c9eaad52d597a4d22706aa695ab15fc9ca908d7a0cf43aeb9ae8179967c3",
    ("b3-runs", "digits"): "0a93271dfd6c1e6e5edc61ce1b7488b6d166ae9c548a84fea894fe436feccc0c",
}


def _vector(name):
    b, m, alpha, encs = VECTORS[name]
    q = tuple(GfPoly.from_int(b, e) for e in encs)
    return GeneratingVector(modulus=find_irreducible(b, m), alpha=alpha, q=q)


@pytest.mark.parametrize("blocks", ["default", "several", "one point"])
@pytest.mark.parametrize("fmt", ["csv", "digits"])
@pytest.mark.parametrize("name", sorted(VECTORS))
def test_point_file_digest(name, fmt, blocks, tmp_path, capsys, monkeypatch):
    gv = _vector(name)
    if blocks == "several":  # b^2 blocks, or b^3 with a separator byte a coordinate
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", gv.n_points * gv.s * gv.alpha * gv.m // gv.b**2)
    elif blocks == "one point":
        monkeypatch.setattr(pointgen, "CHUNK_BYTES", 1)
    gv.save(tmp_path / "gv.json")
    out = tmp_path / f"points.{fmt}"
    argv = ["points", "--gv", str(tmp_path / "gv.json"), "--out", str(out), "--format", fmt]
    assert cli.main(argv) == 0
    capsys.readouterr()
    data = out.read_bytes()
    assert data.count(b"\n") == gv.n_points + 1
    assert hashlib.sha256(data).hexdigest() == DIGESTS[name, fmt]


def test_pairs_vector_reaches_exponent_form(tmp_path, capsys):
    gv = _vector("b2-pairs")
    gv.save(tmp_path / "gv.json")
    out = tmp_path / "points.csv"
    assert cli.main(["points", "--gv", str(tmp_path / "gv.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    assert "e-05" in text and "e-06" in text


def test_repeats_vector_reaches_exponent_form(tmp_path, capsys):
    gv = _vector("b2-repeats")
    gv.save(tmp_path / "gv.json")
    out = tmp_path / "points.csv"
    assert cli.main(["points", "--gv", str(tmp_path / "gv.json"), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert any("e-" in row[0] and row[0] == row[-1] for row in rows)
