"""From polynomial arithmetic to higher-order lattice points.

Walks the whole generation pipeline at a size small enough to print:
pick an irreducible modulus over Z_2, expand n(x)q(x)/P(x) into base-b
digits, truncate, interlace two classical coordinates into one
higher-order coordinate, and show that every one-dimensional projection
of the classical point set is a perfect permutation of the b^m grid.
"""

import numpy as np

from polylat import (
    GeneratingVector,
    GfPoly,
    classical_digit_array,
    digit_chunks,
    find_irreducible,
    interlace_digit_array,
    digits_to_values,
    laurent_digits,
    lattice_points,
    poly_to_string,
)
from polylat.oracle import truncate_digits

b, m = 2, 4
mod = find_irreducible(b, m)
print(f"smallest irreducible modulus of degree {m} over Z_{b}: {poly_to_string(mod.poly)}")

one = GfPoly.one(b)
dv = laurent_digits(one, one, mod, 8)
print(f"Laurent digits of 1/P to depth 8: {dv.digits}")
print(f"truncated to {m} digits: {truncate_digits(dv, m).digits} "
      f"(value {truncate_digits(dv, m).value()})")

# a 2-dimensional interlaced rule needs alpha * s = 4 generating polynomials
gv = GeneratingVector(
    modulus=mod,
    alpha=2,
    q=tuple(GfPoly.from_int(b, e) for e in (1, 9, 13, 6)),
)
print(f"\ngenerating vector (alpha={gv.alpha}, s={gv.s}): "
      f"{[poly_to_string(q) for q in gv.q]}")

classical = classical_digit_array(gv)
print(f"classical digit array shape (N, d, m) = {classical.shape}")

# each classical coordinate visits every grid point k/b^m exactly once
place = b ** np.arange(m - 1, -1, -1, dtype=np.int64)
for j in range(gv.d):
    codes = sorted(classical[:, j, :].astype(np.int64) @ place)
    assert codes == list(range(b**m))
print("every 1-D projection is a permutation of {0, 1/16, ..., 15/16}: confirmed")

interlaced = interlace_digit_array(classical, gv.alpha)
points = digits_to_values(interlaced, b)
print(f"\ninterlaced points live on the 2^{gv.alpha * m} grid; first four points:")
for row in points[:4]:
    print(f"  ({row[0]:.8f}, {row[1]:.8f})")

# the interlaced net has its own generating matrices: no classical digits needed
assert (np.concatenate(list(digit_chunks(gv))) == interlaced).all()
assert np.allclose(points, lattice_points(gv))
print("bulk generator agrees with the step-by-step pipeline")
