"""Exact plethysm ray analysis and 1-D polytope representability decisions."""

from .decider import (
    Certificate,
    DecisionOutcome,
    decide_homogeneous_1d,
    decide_inhomogeneous_1d,
    replay_certificate,
)
from .intervals import (
    NotPeriodic,
    PointFamily,
    ShiftedIntervalFamily,
    count,
    count_point,
    periodic_count_qp,
    verify_sum_decomposition,
)
from .partitions import Partition, SignedWeight, scale
from .plethysm import inner_monomial_contents, plethysm_multiplicity, weight_count
from .quasipoly import (
    FitFailure,
    QuasiPolynomial,
    fit,
    leading_coefficient,
    phi_reference,
    reciprocity_violations,
)
from .rays import (
    RaySpec,
    discover_quasipoly,
    extract_quasipoly,
    interior_ray_check,
    sample_ray,
    verify_theorem_ray,
)

__version__ = "0.1.0"

__all__ = [
    "Partition",
    "SignedWeight",
    "scale",
    "inner_monomial_contents",
    "plethysm_multiplicity",
    "weight_count",
    "QuasiPolynomial",
    "FitFailure",
    "fit",
    "phi_reference",
    "leading_coefficient",
    "reciprocity_violations",
    "ShiftedIntervalFamily",
    "PointFamily",
    "NotPeriodic",
    "count",
    "count_point",
    "periodic_count_qp",
    "verify_sum_decomposition",
    "RaySpec",
    "sample_ray",
    "extract_quasipoly",
    "discover_quasipoly",
    "verify_theorem_ray",
    "interior_ray_check",
    "DecisionOutcome",
    "Certificate",
    "decide_inhomogeneous_1d",
    "decide_homogeneous_1d",
    "replay_certificate",
    "__version__",
]
