"""Interlaced polynomial lattice rules with a fast hybrid-weight CBC search.

Construction of higher-order quasi-Monte Carlo rules over a prime base:
exact Z_b[x] arithmetic, classical polynomial lattice point sets, digit
interlacing, hybrid product/SPOD weights with their error-bound
calculators, the FFT-accelerated component-by-component search, and
convergence studies on built-in integrand families.
"""

from .gfpoly import (
    DigitVector,
    GfPoly,
    Modulus,
    find_irreducible,
    is_irreducible,
    is_prime,
    laurent_digits,
    poly_add,
    poly_from_string,
    poly_mul,
    poly_mul_mod,
    poly_to_string,
    primitive_element,
)
from .pointgen import (
    DigitPoint,
    GeneratingVector,
    classical_digit_array,
    digit_chunks,
    digits_to_values,
    index_to_poly,
    interlace_digit_array,
    interlace_digits,
    interlaced_generator_matrices,
    lattice_points,
    point_for_index,
    read_points_digits,
    write_points_csv,
    write_points_digits,
)
from .weights import (
    DecaySequence,
    ErrorBudget,
    WeightSpec,
    bound_constant,
    cbc_bound,
    crossover_dimension,
    error_budget,
    error_constant,
    order_weight,
    select_rate_parameters,
    smallness_condition,
    truncation_bound,
    wce_constant,
)
from .kernel import OmegaMatrix
from .cbc import (
    BoundCheck,
    CbcResult,
    CostLog,
    default_lambda_grid,
    fast_cbc,
    verify_bound,
)
from .quad import (
    ConvergenceRecord,
    Integrand,
    convergence_study,
    fit_slope,
    product_exponential,
    qmc_apply,
    rational_spod,
    truncate_integrand,
)

__version__ = "0.1.0"
