"""starprod: star products of linear codes over finite fields.

Exact rational evaluation of the closed-form counts, expectations and
bounds governing the dimension of star (Schur) products of random linear
codes; reproducible Monte Carlo estimation of the same quantities; and
exhaustive brute-force oracles that pin both down at small parameters.
"""

from .apps import CsstReport, PirReport, SdmmReport, csst_envelope, pir_rate_bounds, sdmm_thresholds
from .codes import (
    LinearCode,
    code_from_matrix,
    dual,
    intersection_dim,
    is_degenerate,
    is_mds,
    is_subcode,
    min_distance,
    project,
    star_lower_bound_dual_distance,
    star_lower_bound_mds,
    star_product,
    support,
)
from .exact import (
    Params,
    RandomModel,
    StarDimBound,
    binom,
    count_subspaces_with_support,
    count_zero_diag_rank,
    count_zero_diag_rank_zerocols,
    expected_intersection_dim,
    expected_kernel_size,
    expected_star_dim_mds,
    full_dim_probability_bound,
    full_dim_probability_bound_exponent,
    kernel_conjecture_value,
    kernel_limit_value,
    qbinom,
    star_dim_lower_bound,
    zeros_of_form,
)
from .fields import FieldSpec, field_from_order, field_make
from .matrices import (
    Mat,
    format_matrix,
    load_matrix,
    mat_mul,
    parse_matrix,
    rank,
    rank_many,
    right_kernel_basis,
    rref,
    save_matrix,
)
from .oracle import (
    EnumBudget,
    ZeroDiagCounts,
    count_zero_diag_oracle,
    enumerate_subspaces,
    enumerate_systematic,
    exact_expected_intersection,
    exact_expected_kernel,
    exact_expected_star_dim,
    exact_expected_star_dim_fixed,
    monomial_invariance_check,
)
from .sampling import (
    Estimate,
    TableRow,
    TABLE1_CSV_HEADER,
    TABLE1_GRID,
    mc_full_dim_frequency,
    mc_intersection_dim,
    mc_kernel_size,
    mc_star_dim,
    reproduce_table1,
    sample_code,
)

__version__ = "1.0.0"
