"""Design-based inference for 2^K factorial experiments.

Construct factorial-effect estimands under arbitrary coherent weighting
schemes, estimate them by moment estimators or location-shifted
factor-based least squares with robust covariance, and validate the exact
numeric identities between the two routes by enumeration and Monte Carlo
over complete randomizations.
"""

__version__ = "0.2.0"

from .core import (
    AssignmentTable,
    CellMoments,
    FactorSpec,
    cell_index,
    cell_summary,
    default_spec,
    enumerate_subsets,
    enumerate_treatments,
    ingest_csv,
)
from .weighting import (
    ShiftVector,
    WeightingScheme,
    empirical_scheme,
    equal_scheme,
    from_joint,
    is_product,
    pi_cross,
    product_scheme,
)
from .contrasts import (
    ContrastMatrix,
    conditional_effect_row,
    contrast_matrix,
    true_effects,
)
from .estimation import (
    InferenceReport,
    effect_estimates,
    moment_estimates,
)
from .regression import (
    DesignMatrix,
    FitResult,
    ModelSpec,
    OmittedTermAlgebra,
    additive_spec,
    build_design,
    ols_fit,
    omitted_algebra,
    saturated_fit,
    saturated_spec,
    treatment_based_fit,
    unsaturated_fit,
    verify_omitted_relation,
    wls_fit,
)
from .simulate import (
    DesignSizes,
    PotentialOutcomeTable,
    SimReport,
    compare_saturated_unsaturated,
    draw_assignment,
    enumerate_assignments,
    exact_expectations,
    make_constant_effects_population,
    make_no_three_way_population,
    monte_carlo,
    observe,
)
from .verify import run_identity_suite, suite_passed
from . import errors
