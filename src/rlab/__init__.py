"""Computable rearrangement-invariant spaces, Rademacher sums and projections,
weighted-space predicates, and certified block counterexample construction."""

from .dyadic import (
    LEVEL_CAP,
    StepFunction,
    chi_prefix,
    hadamard_select,
    indicator,
    make_step,
    rademacher,
    rademacher_sum,
    single_negative_select,
)
from .phi import (
    ExpPowerOrlicz,
    LogPowerPhi,
    PowerOrlicz,
    PowerPhi,
    TildePhi,
)
from .rearrangement import decreasing_rearrangement, distribution, equimeasurable
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
    norm,
    parse_space,
    sym_kernel_report,
)
from .weighted import Weight, holder_check, parse_weight, weighted_norm
from .projections import (
    NormBracket,
    coefficients,
    equivalence_constants,
    khintchine_check,
    multiplicator_norm,
    project,
    projection_norm,
    theorem_predicates,
)
from . import counterexample
from .reports import Report, compare_reports

__version__ = "0.1.0"
