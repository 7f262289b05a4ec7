"""Certified bounds for Lipschitz widths, entropy numbers, and Kolmogorov
widths of finite samplings of compact sets."""

__version__ = "0.1.0"

from .spaces import (
    DimensionMismatch,
    FiniteSet,
    NormedSpace,
    PointSet,
    PreconditionError,
    RadiusBound,
    diameter,
    lp_space,
    radius_upper,
    step_space,
)
from .covering import (
    CoveringResult,
    EntropyEstimate,
    PackingResult,
    SandwichAudit,
    greedy_packing,
    inner_entropy,
    minimal_inner_covering,
    sandwich_audit,
)
from .lipmaps import (
    AffineBallMap,
    BoundViolation,
    BumpSum,
    CubeAllocation,
    LipschitzMap,
    SequenceBumpSum,
    allocate_dyadic_cubes,
    build_entropy_map,
    build_sequence_bump_map,
)
from .widths import (
    TransferReport,
    WidthCertificate,
    carl_transfer_check,
    fixed_width_upper,
    kolmogorov_comparison,
    kolmogorov_upper,
    width_lower_certified,
    width_upper_from_entropy,
)
from . import case_studies, relunet
