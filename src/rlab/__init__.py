"""Computable rearrangement-invariant spaces, Rademacher sums and projections,
weighted-space predicates, and certified block counterexample construction."""

from .dyadic import (
    SignMatrix,
    StepFunction,
    chi_prefix,
    hadamard_select,
    indicator,
    level_cap,
    make_step,
    rademacher,
    rademacher_sum,
    sign_matrix,
    single_negative_select,
)
from .phi import (
    ExpPowerOrlicz,
    LogPowerPhi,
    PowerOrlicz,
    PowerPhi,
    ProductPhi,
    TabulatedConcave,
    TildePhi,
)
from .rearrangement import (
    DistributionFn,
    decreasing_rearrangement,
    distribution,
    equimeasurable,
)
from .spaces import (
    ExpLp,
    Linfty,
    Lorentz,
    Lp,
    Marcinkiewicz,
    OrliczSpace,
    SpaceSpec,
    contains_loghalf,
    delta2_check,
    dilation_indices,
    dual_space,
    fundamental,
    norm,
    parse_space,
    psi_from_phi,
    sym_kernel_norm,
)
from .weighted import Weight, admissible, holder_check, parse_weight, weighted_norm
from .projections import (
    CoeffSeq,
    NormBracket,
    coefficients,
    equivalence_constants,
    khintchine_check,
    multiplicator_norm,
    project,
    projection_norm,
    theorem_predicates,
    weighted_project,
)
from . import counterexample
from .reports import Report, compare_reports

__version__ = "0.1.0"
