"""Interlaced polynomial lattice rules with a fast hybrid-weight CBC search.

Construction of higher-order quasi-Monte Carlo rules over a prime base:
exact Z_b[x] arithmetic, classical polynomial lattice point sets, digit
interlacing, hybrid product/SPOD weights with their error-bound
calculators, the FFT-accelerated component-by-component search, and
convergence studies on built-in integrand families.  The package exports
the names the demos and the README use; everything else is reached
through its module (polylat.gfpoly, polylat.cbc, ...), and the reference
implementations through polylat.oracle.
"""

from .gfpoly import GfPoly, find_irreducible, laurent_digits, poly_to_string
from .pointgen import (
    GeneratingVector,
    classical_digit_array,
    digits_to_values,
    interlace_digit_array,
    lattice_points,
)
from .weights import (
    DecaySequence,
    WeightSpec,
    bound_constant,
    cbc_bound,
    crossover_dimension,
    error_budget,
    error_constant,
    select_rate_parameters,
    smallness_condition,
    truncation_bound,
)
from .cbc import fast_cbc, verify_bound
from .quad import convergence_study, product_exponential, qmc_apply, rational_spod

__version__ = "0.1.0"
