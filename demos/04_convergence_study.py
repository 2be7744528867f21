"""Empirical convergence of constructed rules on the built-in integrands.

Runs the full loop (construct, generate, integrate) over a range of N for
the product-exponential family, comparing interlacing orders 2 and 3 and
a seeded Monte Carlo baseline, then repeats at a smaller size for the
rational family whose reference value comes from a one-dimensional
Laplace-transform quadrature.
"""

from polylat import (
    DecaySequence,
    WeightSpec,
    convergence_study,
    product_exponential,
    rational_spod,
)

beta = DecaySequence.power(0.1, 2.0, p=0.55)
g = product_exponential(beta, 8, 1.0)
print(f"product-exponential, s=8, exact integral {g.exact_integral:.12f}")

for alpha in (2, 3):
    spec = WeightSpec(alpha=alpha, b=2, J=8, beta=beta)
    rec = convergence_study(spec, g, range(6, 14), mc_baseline=(alpha == 2), seed=2026)
    print(f"\nalpha = {alpha}:")
    print("    m     N       error" + ("        mc rms" if rec.mc_entries else ""))
    mc = {mm: e for mm, _n, e in rec.mc_entries}
    for mm, n, err in rec.entries:
        line = f"  {mm:3d} {n:6d}   {err:.3e}"
        if mc:
            line += f"   {mc[mm]:.3e}"
        print(line)
    line = f"  fitted slope: {rec.slope:.3f}"
    if rec.mc_slope is not None:
        line += f"   (Monte Carlo baseline: {rec.mc_slope:.3f})"
    print(line)

seq = DecaySequence.power(1.0, 3.0, p=0.5)
gr = rational_spod(seq, 4, 3.0)
print(f"\nrational family, s=4, reference integral {gr.exact_integral:.12f} "
      f"({gr.provenance})")
# SPOD weights carry the dimension-robust guarantee but their |nu|! factors
# inflate the criterion's constants; at practical N the product-weighted
# search often finds faster-converging vectors for the same integrand.
for J, label in ((0, "SPOD weights (J=0)"), (4, "product weights (J=s)")):
    spec = WeightSpec(alpha=2, b=2, J=J, beta=DecaySequence.power(0.55, 3.0, p=0.5))
    rec = convergence_study(spec, gr, range(5, 13))
    print(f"  {label}: slope {rec.slope:.3f}; last error {rec.entries[-1][2]:.3e}")
