"""Golden vectors: fast_cbc output pinned bit for bit across kernel rewrites.

Each case (b, m, alpha, J, s) uses beta_j = 0.4 j^-2, p = 0.6 and covers
the SPOD-only (J = 0), hybrid and product-only (J >= s) regimes.  The
generating vector is pinned in digit-string form and every per-step
criterion value as float.hex, so any change in the search order, the
tie rescoring or the criterion recursion shows up here.
"""

import pytest

from polylat.cbc import fast_cbc
from polylat.gfpoly import poly_to_string
from polylat.weights import DecaySequence, WeightSpec

BETA = DecaySequence.power(0.4, 2.0, p=0.6)

GOLDEN = {
    (2, 6, 2, 0, 5): (
        ["1", "101001", "110110", "110110", "110110", "110110", "110110", "110110", "110110",
         "110110"],
        ["0x1.2b851eb852000p-8", "0x1.06147ae147b40p-5", "0x1.ed8fd21ff2e40p+0",
         "0x1.5898649eecbf9p+2", "0x1.43493eff885c7p+5", "0x1.7d409682ceb1cp+6",
         "0x1.c00fcac53acd8p+8", "0x1.f23a7a7443ad4p+9", "0x1.caf54b4156a37p+11",
         "0x1.e6ecf745d905cp+12"],
    ),
    (2, 8, 2, 3, 6): (
        ["1", "11000100", "1111111", "110111", "11010011", "10001010", "11010011", "11010011",
         "10001010", "11010011", "11010011", "11010011"],
        ["0x1.2b851eb858000p-12", "0x1.3e3d70a3d8000p-9", "0x1.15065bc01a300p-4",
         "0x1.e8900cded28c0p-3", "0x1.a8697010461b8p-1", "0x1.d66c56e405e90p+0",
         "0x1.929dd3c4be90ep+1", "0x1.49b4cdee6f3e6p+2", "0x1.08699e061a474p+3",
         "0x1.9fce107496968p+3", "0x1.43614ae7faac2p+4", "0x1.f19ffe688a622p+4"],
    ),
    (2, 7, 3, 5, 4): (
        ["1", "1101001", "101110", "111100", "11110", "11110", "100010", "100010", "100010",
         "11110", "11110", "11110"],
        ["0x1.dc28f5c3c0000p-15", "0x1.ed851eb838000p-12", "0x1.f54a4962fc000p-9",
         "0x1.fd77d408ab910p-1", "0x1.5570749552dc0p+1", "0x1.67a7927f914c0p+2",
         "0x1.018aecbb4de60p+6", "0x1.0de9ca01bd6e0p+7", "0x1.b7f22c94d2c80p+7",
         "0x1.838c40ad9e2c8p+9", "0x1.62e6a74fc3cc4p+10", "0x1.0f3fa6ff6985cp+11"],
    ),
    (2, 10, 3, 2, 5): (
        ["1", "1100100000", "10100010", "1010010100", "1010101011", "110100100", "1111011110",
         "1111011110", "1111011110", "1111011110", "1111011110", "1111011110", "1111011110",
         "1111011110", "1111011110"],
        ["0x1.dc28fa0000000p-24", "0x1.44e1474000000p-20", "0x1.7dd1afc800000p-16",
         "0x1.1291ba813a000p-7", "0x1.6bc913efee400p-5", "0x1.ed08c59f1c800p-4",
         "0x1.b0e458a1d11e0p+1", "0x1.e9889081f44c0p+2", "0x1.a22cabe18ce80p+3",
         "0x1.c0fb4c382a3a0p+6", "0x1.c611d6ced54c0p+7", "0x1.689affee05f10p+8",
         "0x1.eb482238c7dc0p+10", "0x1.e55aeccd98940p+11", "0x1.81603cca5e090p+12"],
    ),
    (3, 4, 2, 0, 4): (
        ["1", "1010", "1020", "1020", "1020", "1020", "1020", "1020"],
        ["0x1.8d1011886fcd7p-9", "0x1.244845cb8bf62p-6", "0x1.69b69b236fd9bp+0",
         "0x1.c04b5d614ed65p+1", "0x1.9ac34a5d9f8a1p+4", "0x1.c127f00a0136dp+5",
         "0x1.0eea47ca3fce9p+8", "0x1.1aa48e7e3754fp+9"],
    ),
    (3, 5, 3, 2, 4): (
        ["1", "10101", "12002", "10222", "11020", "12101", "1121", "1121", "1121", "1121",
         "1121", "1121"],
        ["0x1.6f23a2dd40000p-17", "0x1.3c92946064000p-14", "0x1.16f53496fa800p-11",
         "0x1.221bf194eca44p-2", "0x1.9ad7f0c8fbd1ap-1", "0x1.b06796b96c4bep+0",
         "0x1.baf0e7015c06ep+5", "0x1.c492ad69b36b5p+6", "0x1.5eeac8e42a342p+7",
         "0x1.2eaeefba93fc5p+10", "0x1.2666b26c7b0e1p+11", "0x1.c45b7751d43b4p+11"],
    ),
    (3, 6, 2, 6, 5): (
        ["1", "101000", "120120", "112121", "102001", "121100", "100011", "100011", "100210",
         "100011"],
        ["0x1.39ba85f330000p-15", "0x1.2ca815b41b000p-12", "0x1.23d447f6d1d00p-7",
         "0x1.1c22c4ee3a460p-5", "0x1.6af43f98c0490p-3", "0x1.ac9bcbf1631f4p-2",
         "0x1.9c3d0e044639ap-1", "0x1.5b5835c58b8c0p+0", "0x1.f59d820d9b6b8p+0",
         "0x1.644b30df78dedp+1"],
    ),
    (3, 7, 2, 4, 8): (
        ["1", "1010000", "1122111", "120221", "11000", "1200210", "1000101", "1101220", "11102",
         "1112022", "1220012", "1101220", "1112022", "1112022", "1112022", "1112022"],
        ["0x1.16deaff000000p-18", "0x1.2a3c5fbaa8000p-15", "0x1.63f10016b8400p-10",
         "0x1.8a8d8a22fe000p-8", "0x1.1cc87ca2b96a0p-5", "0x1.94a3784f21bc0p-4",
         "0x1.c95fa3f3505d8p-3", "0x1.aead42a59e5b8p-2", "0x1.4cf72637a6ccep-1",
         "0x1.f148b91a774adp-1", "0x1.6ae5d89f26fc6p+0", "0x1.0304f8737fd9ap+1",
         "0x1.6bd8439d3a1ffp+1", "0x1.f8918a7985e8dp+1", "0x1.5a36884572122p+2",
         "0x1.d7d4d464c71c4p+2"],
    ),
    (5, 3, 2, 1, 4): (
        ["1", "100", "110", "110", "110", "110", "110", "110"],
        ["0x1.3697aed439600p-9", "0x1.8a73d65a54e00p-7", "0x1.23506b3492a43p-1",
         "0x1.6f8757c76ab25p+0", "0x1.190ea14bcc6bap+4", "0x1.2695bd010afc3p+5",
         "0x1.699351e6e3845p+7", "0x1.63669e4ae3590p+8"],
    ),
    (5, 3, 3, 0, 3): (
        ["1", "100", "110", "121", "121", "121", "121", "121", "121"],
        ["0x1.f14d91c5c49bap-13", "0x1.3765023b65e35p-10", "0x1.d3fbd5f3adb23p-9",
         "0x1.ad07bdf813c4ep+4", "0x1.b8fd02c736087p+5", "0x1.53f78f711ac44p+6",
         "0x1.a30b169b32a7fp+13", "0x1.aaabc293abceap+14", "0x1.4691e167f5fb4p+15"],
    ),
    (5, 4, 2, 9, 4): (
        ["1", "1010", "1100", "1321", "1021", "1021", "1021", "1021"],
        ["0x1.8d8ef442bc000p-14", "0x1.2c28172317800p-11", "0x1.18d01b366d5c0p-5",
         "0x1.9e4b33604f610p-4", "0x1.c1a161a1f090ap-1", "0x1.e2e75a76f6e14p+0",
         "0x1.328b7dac9faa1p+2", "0x1.0a8aac36a340dp+3"],
    ),
}

@pytest.mark.parametrize("case", sorted(GOLDEN), ids=lambda c: "b{}-m{}-a{}-J{}-s{}".format(*c))
def test_fast_cbc_matches_golden(case):
    b, m, alpha, J, s = case
    q_expected, e_expected = GOLDEN[case]
    res = fast_cbc(WeightSpec(alpha=alpha, b=b, J=J, beta=BETA), m, s)
    assert [poly_to_string(q) for q in res.gen_vector.q] == q_expected
    assert [float(e).hex() for e in res.criterion_per_step] == e_expected
