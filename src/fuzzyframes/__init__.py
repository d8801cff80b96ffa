"""fuzzyframes: frame and K-frame certificates for fuzzy inner product models.

The package realizes two concrete membership profiles over finite-dimensional
real or complex spaces, computes optimal frame / K-frame bounds spectrally,
builds atomic coefficient systems, transports certificates through operator
closures, and derives perturbation-stable bounds.  See README.md for the CLI
and the problem-file schema.
"""

__version__ = "1.19.0"

from .fuzzy_space import BaseSpace, FuzzyModel, check_fip_axioms
from .operator_algebra import (
    FactorizationResult,
    spectral_norm,
)
from .frame_core import (
    BoundCertificate,
    FrameFamily,
    classical_frame_operator,
    frame_sum,
    optimal_frame_bounds,
    optimal_kframe_bounds,
    restricted_inverse_check,
    synthesis_matrix,
    verify_bounds,
)
from .frame_transforms import (
    DerivedBound,
    combine,
    operator_transfer,
    transform_family,
)
from .perturbation import (
    check_operator_perturbation,
    derive_family_perturbed_bounds,
    derive_operator_perturbed_bounds,
)

__all__ = [
    "__version__",
    "BaseSpace",
    "FuzzyModel",
    "check_fip_axioms",
    "FactorizationResult",
    "spectral_norm",
    "BoundCertificate",
    "FrameFamily",
    "classical_frame_operator",
    "frame_sum",
    "optimal_frame_bounds",
    "optimal_kframe_bounds",
    "restricted_inverse_check",
    "synthesis_matrix",
    "verify_bounds",
    "DerivedBound",
    "combine",
    "operator_transfer",
    "transform_family",
    "check_operator_perturbation",
    "derive_family_perturbed_bounds",
    "derive_operator_perturbed_bounds",
]
