"""Frame engine: synthesis/analysis operators, spectral bound certificates,
atomic systems, restricted invertibility, and dual reconstruction.

A finite family {f_i} in a fuzzy model has synthesis matrix F with the f_i
as columns and classical frame operator S_c = F F*.  At level a the frame
operator materializes as scale(a) * S_c, and the frame sum carries either
one power of scale(a) (the ``once`` convention, which matches the worked
arithmetic of the source material and makes every certificate independent
of the level) or two (the ``squared`` convention, the literal reading of
|<f, f_i>_a|^2).  Certificates record which convention produced them.

Optimal constants are computed spectrally:

* ordinary frame bounds are the extreme eigenvalues of S_c;
* the optimal K-frame lower bound is the largest A with S_c - A K K* still
  positive semidefinite, evaluated through the pencil of (S_c, K K*) with
  kernel directions accounted for (A = 0 exactly when some f with K*f != 0
  has zero frame sum).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .fuzzy_space import FuzzyModel, check_alpha
from .operator_algebra import (
    PSD_TOL,
    RELATIVE_RANK_TOL,
    MatrixLike,
    RangeInclusionError,
    as_matrix,
    douglas_range_inclusion,
    pencil_inf,
    pseudo_inverse,
    psd_order_check,
    range_basis,
    spectral_norm,
)

__all__ = [
    "CONVENTIONS",
    "TIGHT_TOL",
    "SingularFrameOperatorError",
    "FrameFamily",
    "BoundCertificate",
    "BoundCheck",
    "VerificationResult",
    "AtomicCoefficients",
    "EquivalenceReport",
    "SandwichReport",
    "ReconstructionResult",
    "synthesis_matrix",
    "analysis_apply",
    "classical_frame_operator",
    "frame_operator",
    "frame_sum",
    "optimal_frame_bounds",
    "optimal_kframe_bounds",
    "verify_bounds",
    "rescale_to_parseval",
    "atomic_system_from_operator",
    "atomic_coefficients",
    "atomic_system_equivalence_check",
    "restricted_inverse_check",
    "reconstruct",
    "reconstruction_residual",
]

CONVENTIONS = ("once", "squared")

#: |A - B| <= TIGHT_TOL * max(1, B) counts as a tight certificate
TIGHT_TOL = 1e-9

DEFAULT_ALPHAS = (0.1, 0.5, 0.9)


class SingularFrameOperatorError(Exception):
    """Raised when an operation needs an invertible frame operator.

    Carries a unit kernel witness of the classical frame operator.
    """

    def __init__(self, message: str, witness: np.ndarray):
        super().__init__(message)
        self.witness = witness


def _check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


def _alpha_independent(model: FuzzyModel, convention: str) -> bool:
    """Whether certificates hold at every level: one scale power cancels,
    and the crisp profile has scale 1."""
    return convention == "once" or model.profile == "crisp"


@dataclass(frozen=True)
class FrameFamily:
    """Ordered finite family of vectors in a fuzzy model.

    ``vectors`` is stored row-wise: vectors[i] is f_i.
    """

    vectors: np.ndarray
    model: FuzzyModel

    def __post_init__(self) -> None:
        v = np.atleast_2d(np.asarray(self.vectors, dtype=self.model.space.dtype))
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError(f"family must be a nonempty list of vectors, got {v.shape}")
        if v.shape[1] != self.model.space.dimension:
            raise ValueError(
                f"vectors of length {v.shape[1]} do not live in a space of "
                f"dimension {self.model.space.dimension}"
            )
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]

    def scaled(self, factor: float) -> "FrameFamily":
        return FrameFamily(factor * self.vectors, self.model)


def synthesis_matrix(family: FrameFamily) -> np.ndarray:
    """n x m matrix with f_i as the i-th column; maps coefficients to sums."""
    return family.vectors.T.copy()


def analysis_apply(family: FrameFamily, f, alpha: float) -> np.ndarray:
    """Level analysis coefficients {<f, f_i>_a} = scale(a) * F* f."""
    fvec = family.model.check_vector(f)
    coeffs = family.vectors.conj() @ fvec
    return family.model.scale(alpha) * coeffs


def classical_frame_operator(family: FrameFamily) -> np.ndarray:
    """S_c = F F*, Hermitian positive semidefinite.

    Entries so large that S_c overflows (about 1e154 and up) raise a
    ValueError instead of feeding inf or NaN into later decisions.
    """
    F = family.vectors.T
    with np.errstate(over="ignore", invalid="ignore"):
        s = F @ F.conj().T
        s = 0.5 * (s + s.conj().T)
    if not np.isfinite(s).all():
        raise ValueError("frame operator S_c = F F* overflows: entries too large")
    return s


def frame_operator(family: FrameFamily, alpha: float) -> np.ndarray:
    """Level frame operator scale(a) * S_c."""
    return family.model.scale(alpha) * classical_frame_operator(family)


def frame_sum(
    family: FrameFamily, f, alpha: float, convention: str = "once"
) -> float:
    """Middle term of the frame inequality at level a.

    ``once``: scale(a) * sum |<f, f_i>|^2, ``squared``: scale(a)^2 * same.
    """
    _check_convention(convention)
    fvec = family.model.check_vector(f)
    base = float(np.sum(np.abs(family.vectors.conj() @ fvec) ** 2))
    s = family.model.scale(alpha)
    return (s if convention == "once" else s * s) * base


@dataclass(frozen=True)
class BoundCertificate:
    """Verdict for a Bessel / frame / K-frame claim.

    ``A`` bounds the frame sum from below against ||K* f||_a^2 (or
    ||f||_a^2 when there is no operator), ``B`` from above against
    ||f||_a^2.  ``A = 0`` is the "not a (K-)frame" state and comes with a
    lower witness; ``A = inf`` marks a vacuous lower inequality (K = 0).
    For K-frames ``tight`` means S_c is proportional to K K* (frame sum a
    constant multiple of ||K* f||_a^2) and ``parseval`` that the constant
    is 1; for ordinary frames these coincide with A = B (= 1).
    """

    kind: str  # "bessel" | "frame" | "k_frame" | "tight" | "parseval"
    A: float
    B: float
    alpha_independent: bool
    convention: str = "once"
    witness_lower: Optional[np.ndarray] = None
    witness_upper: Optional[np.ndarray] = None
    tight: bool = False
    parseval: bool = False

    @property
    def is_frame(self) -> bool:
        return self.A > 0.0


def _unit(v: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if v is None:
        return None
    n = np.linalg.norm(v)
    return v if n == 0 else v / n


def optimal_frame_bounds(
    family: FrameFamily, convention: str = "once"
) -> BoundCertificate:
    """Tightest constants A, B with A ||f||_a^2 <= frame sum <= B ||f||_a^2.

    These are the extreme eigenvalues of S_c; witnesses are the extreme
    eigenvectors.  A = 0 (kernel vector witness) means the family spans a
    proper subspace and is merely a Bessel family.
    """
    _check_convention(convention)
    s = classical_frame_operator(family)
    w, v = np.linalg.eigh(s)
    a = float(w[0])
    b = float(w[-1])
    if a < RELATIVE_RANK_TOL * max(b, 1.0):
        a = 0.0
    kind = "frame" if a > 0.0 else "bessel"
    tight = a > 0.0 and abs(a - b) <= TIGHT_TOL * max(1.0, b)
    parseval = tight and abs(a - 1.0) <= TIGHT_TOL
    if parseval:
        kind = "parseval"
    elif tight:
        kind = "tight"
    return BoundCertificate(
        kind=kind,
        A=a,
        B=b,
        alpha_independent=_alpha_independent(family.model, convention),
        convention=convention,
        witness_lower=_unit(v[:, 0]),
        witness_upper=_unit(v[:, -1]),
        tight=tight,
        parseval=parseval,
    )


def optimal_kframe_bounds(
    family: FrameFamily, K: MatrixLike, convention: str = "once"
) -> BoundCertificate:
    """Optimal K-frame constants: B = lambda_max(S_c), A = max{A : S_c >= A K K*}.

    A = 0 (with witness) when some f with K*f != 0 has zero frame sum; a
    zero operator makes the lower inequality vacuous and A is reported as
    +inf ("unconstrained").
    """
    _check_convention(convention)
    k = as_matrix(K)
    n = family.dimension
    if k.shape != (n, n):
        raise ValueError(f"operator of shape {k.shape} does not act on dimension {n}")
    s = classical_frame_operator(family)
    gram = k @ k.conj().T

    w, v = np.linalg.eigh(s)
    b = float(w[-1])
    upper_witness = _unit(v[:, -1])

    low = pencil_inf(s, gram)
    a = low.value
    tight = False
    parseval = False
    if math.isfinite(a) and a > 0.0:
        residual = spectral_norm(s - a * gram)
        tight = residual <= TIGHT_TOL * (1.0 + b)
        parseval = tight and abs(a - 1.0) <= TIGHT_TOL
    return BoundCertificate(
        kind="k_frame",
        A=a,
        B=b,
        alpha_independent=_alpha_independent(family.model, convention),
        convention=convention,
        witness_lower=_unit(low.witness),
        witness_upper=upper_witness,
        tight=tight,
        parseval=parseval,
    )


@dataclass(frozen=True)
class BoundCheck:
    alpha: float
    side: str  # "lower" | "upper"
    ok: bool
    margin: float
    witness: Optional[np.ndarray] = None


@dataclass(frozen=True)
class VerificationResult:
    passed: bool
    checks: tuple[BoundCheck, ...]

    def first_failure(self) -> Optional[BoundCheck]:
        for c in self.checks:
            if not c.ok:
                return c
        return None


def verify_bounds(
    family: FrameFamily,
    A: float,
    B: float,
    K: Optional[MatrixLike] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    convention: str = "once",
    tol: float = PSD_TOL,
) -> VerificationResult:
    """Check A ||K* f||_a^2 <= frame sum <= B ||f||_a^2 as matrix inequalities.

    K = None is the ordinary frame inequality.  Each requested level is
    checked after cancelling the common scale power; under ``once`` the two
    inequalities are the level-free S_c >= A K K* and B I >= S_c, under
    ``squared`` the frame-sum side keeps one extra power of scale(a).
    Levels with the same extra factor (all of them under ``once`` or the
    crisp profile) share one pair of PSD checks but are each listed.
    The first failing level yields the eigen-witness.
    """
    _check_convention(convention)
    if not (A >= 0.0 or math.isinf(A)) or B < 0.0:
        raise ValueError("bounds must be nonnegative")
    s = classical_frame_operator(family)
    n = family.dimension
    eye = np.eye(n)
    gram = eye if K is None else (lambda k: k @ k.conj().T)(as_matrix(K))

    checks: list[BoundCheck] = []
    passed = True
    decided: dict[float, tuple] = {}  # extra factor -> (lower, upper) outcomes
    for alpha in alphas:
        extra = 1.0 if convention == "once" else family.model.scale(alpha)
        if extra not in decided:
            s_eff = extra * s
            if math.isinf(A):  # vacuous lower inequality (zero operator)
                lower = (True, None, math.inf)
            else:
                lower = psd_order_check(A * gram, s_eff, tol)
            decided[extra] = (lower, psd_order_check(s_eff, B * eye, tol))
        (ok_lo, wit_lo, margin_lo), (ok_up, wit_up, margin_up) = decided[extra]
        checks.append(BoundCheck(alpha, "lower", ok_lo, margin_lo, _unit(wit_lo)))
        checks.append(BoundCheck(alpha, "upper", ok_up, margin_up, _unit(wit_up)))
        passed = passed and ok_lo and ok_up
    return VerificationResult(passed=passed, checks=tuple(checks))


def rescale_to_parseval(
    family: FrameFamily,
    certificate: BoundCertificate,
    K: Optional[MatrixLike] = None,
) -> tuple[FrameFamily, BoundCertificate]:
    """Scale a tight family by 1/sqrt(A) so the tight constant becomes 1.

    For ordinary tight frames the rescaled certificate is Parseval
    (A = B = 1); for tight K-frames the rescaled frame sum equals
    ||K* f||_a^2 exactly.  Requires a tight certificate with A > 0.
    """
    if not (certificate.tight or certificate.kind in ("tight", "parseval")):
        raise ValueError("rescaling requires a tight certificate")
    if not (math.isfinite(certificate.A) and certificate.A > 0.0):
        raise ValueError(f"degenerate tight bound A={certificate.A}")
    scaled = family.scaled(1.0 / math.sqrt(certificate.A))
    if K is None:
        new_cert = optimal_frame_bounds(scaled, certificate.convention)
    else:
        new_cert = optimal_kframe_bounds(scaled, K, certificate.convention)
    return scaled, new_cert


def atomic_system_from_operator(
    model: FuzzyModel, K: MatrixLike, convention: str = "once"
) -> tuple[FrameFamily, BoundCertificate]:
    """Canonical coefficient system {K e_i} for an operator K.

    Its synthesis matrix is K itself, so the frame sum equals
    ||K* f||_a^2 identically: a Parseval K-frame with (A, B) = (1, ||K||^2)
    and the lower inequality an equality.
    """
    k = as_matrix(K)
    n = model.space.dimension
    if k.shape != (n, n):
        raise ValueError(f"operator of shape {k.shape} does not act on dimension {n}")
    family = FrameFamily(k.T, model)
    norm2 = spectral_norm(k) ** 2
    return family, BoundCertificate(
        kind="k_frame",
        A=1.0,
        B=norm2,
        alpha_independent=_alpha_independent(model, convention),
        convention=convention,
        tight=True,
        parseval=True,
    )


@dataclass(frozen=True)
class AtomicCoefficients:
    beta: np.ndarray
    C: float
    residual: float
    norm_bound_ok: bool


def atomic_coefficients(
    family: FrameFamily, K: MatrixLike, f, tol: float = PSD_TOL
) -> AtomicCoefficients:
    """Minimal-norm coefficients with K f = sum beta_i f_i.

    beta = F^dagger K f, and C = ||F^dagger K|| bounds ||beta|| <= C ||f||
    (coefficient space carries the crisp norm, so C is level-free).
    Requires range(K) inside range(F); otherwise the family is not an
    atomic system for K and a RangeInclusionError carries the residual.
    """
    k = as_matrix(K)
    F = synthesis_matrix(family)
    included, residual = douglas_range_inclusion(k, F, tol)
    if not included:
        raise RangeInclusionError("not an atomic system for K", residual)
    fvec = family.model.check_vector(f)
    solve = pseudo_inverse(F).dagger
    beta = solve @ (k @ fvec)
    C = spectral_norm(solve @ k)
    rec_residual = float(np.linalg.norm(k @ fvec - F @ beta))
    norm_ok = float(np.linalg.norm(beta)) <= C * float(np.linalg.norm(fvec)) + tol
    return AtomicCoefficients(beta=beta, C=C, residual=rec_residual, norm_bound_ok=norm_ok)


@dataclass(frozen=True)
class EquivalenceReport:
    """Both routes of the atomic-system characterization, side by side."""

    certificate: BoundCertificate
    kframe_holds: bool
    atomic_holds: bool
    C: Optional[float]
    projection_residual: float
    consistent: bool
    lower_bound_ok: bool
    #: ||K - F F^dagger K||, the worst residual of K f = sum beta_i f_i
    #: over unit f; None when range(K) escapes range(F).  Rounding alone
    #: leaves up to about n * eps * ||F|| * C = n * eps * sqrt(B) * C.
    reconstruction_residual: Optional[float]


def atomic_system_equivalence_check(
    family: FrameFamily, K: MatrixLike, tol: float = PSD_TOL
) -> EquivalenceReport:
    """Check that the K-frame certificate and the coefficient construction
    succeed or fail together, and that A_opt >= 1/C^2 when both succeed."""
    k = as_matrix(K)
    cert = optimal_kframe_bounds(family, k)
    kframe_holds = cert.A > 0.0  # +inf (K = 0) counts as holding
    F = synthesis_matrix(family)
    included, residual = douglas_range_inclusion(k, F, tol)
    C: Optional[float] = None
    rec_residual: Optional[float] = None
    lower_ok = True
    if included:
        coefficients = pseudo_inverse(F).dagger @ k
        C = spectral_norm(coefficients)
        rec_residual = spectral_norm(k - F @ coefficients)
        if C > 0.0 and math.isfinite(cert.A):
            lower_ok = cert.A >= 1.0 / (C * C) - tol
    return EquivalenceReport(
        certificate=cert,
        kframe_holds=kframe_holds,
        atomic_holds=included,
        C=C,
        projection_residual=residual,
        consistent=kframe_holds == included,
        lower_bound_ok=lower_ok,
        reconstruction_residual=rec_residual,
    )


@dataclass(frozen=True)
class SandwichReport:
    injective: bool
    dagger_norm: float
    max_violation_forward: float
    max_violation_inverse: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.injective
            and self.max_violation_forward <= self.tol
            and self.max_violation_inverse <= self.tol
        )


def restricted_inverse_check(
    family: FrameFamily,
    K: MatrixLike,
    certificate: Optional[BoundCertificate] = None,
    tol: float = 1e-9,
) -> SandwichReport:
    """Invertibility of S_c on range(K) and the two sandwich inequalities.

    For f in range(K):          A ||K+||^-2 ||f||^2 <= <S_c f, f> <= B ||f||^2
    For f in S_c(range(K)):     B^-1 ||f||^2 <= <S_r^-1 f, f> <= A^-1 ||K+||^2 ||f||^2

    with S_r the restriction of S_c to range(K) and K+ the pseudo-inverse.
    Level scalings cancel pairwise, so the checks are classical.  With Q an
    orthonormal basis of range(K) and f = S_c u for unit u in range(K), each
    violation is an extreme eigenvalue of a compression Q* M Q: M = S_c for
    the first line, S_c^2 / B - S_c and S_c - (||K+||^2 / A) S_c^2 for the
    second.  The slack tol * (1 + <S_c u, u>), resp. tol * (1 + ||S_c u||^2),
    is subtracted from each violation.
    """
    k = as_matrix(K)
    cert = certificate or optimal_kframe_bounds(family, k)
    if not (math.isfinite(cert.A) and cert.A > 0.0):
        raise ValueError("not applicable: family is not a K-frame (lower bound 0)")
    s = classical_frame_operator(family)
    q = range_basis(k)
    if q.shape[1] == 0:
        raise ValueError("operator K is zero; restriction is empty")

    def compressed_spectrum(m: np.ndarray) -> np.ndarray:
        c = q.conj().T @ m @ q
        return np.linalg.eigvalsh(0.5 * (c + c.conj().T))

    cw = compressed_spectrum(s)
    injective = bool(cw[0] > RELATIVE_RANK_TOL * max(float(cw[-1]), 1.0))
    dagger_norm = spectral_norm(pseudo_inverse(k).dagger)
    a, b = cert.A, cert.B
    low, high = float(cw[0]), float(cw[-1])
    worst_fwd = max(
        a / dagger_norm**2 - low - tol * (1.0 + abs(low)),
        high - b - tol * (1.0 + abs(high)),
    )
    worst_inv = -math.inf
    if injective:
        s2 = s @ s
        worst_inv = max(
            float(compressed_spectrum((1.0 / b - tol) * s2 - s)[-1]),
            float(compressed_spectrum(s - (dagger_norm**2 / a + tol) * s2)[-1]),
        ) - tol
    return SandwichReport(
        injective=injective,
        dagger_norm=dagger_norm,
        max_violation_forward=worst_fwd,
        max_violation_inverse=worst_inv,
        tol=tol,
    )


@dataclass(frozen=True)
class ReconstructionResult:
    alpha: float
    via_dual_coefficients: np.ndarray
    via_dual_vectors: np.ndarray
    residual_dual_coefficients: float
    residual_dual_vectors: float


def _canonical_dual(family: FrameFamily) -> tuple[np.ndarray, np.ndarray, float]:
    """(F, S_c^-1 F, cond(S_c)): the synthesis matrix, the canonical dual
    vectors as columns and the condition number of S_c.  A singular S_c
    raises with a unit kernel witness."""
    s = classical_frame_operator(family)
    w, v = np.linalg.eigh(s)
    if w[0] <= RELATIVE_RANK_TOL * max(float(w[-1]), 1.0):
        raise SingularFrameOperatorError(
            "frame operator is singular; no dual reconstruction", _unit(v[:, 0])
        )
    F = synthesis_matrix(family)
    return F, np.linalg.solve(s, F), float(w[-1] / w[0])


def reconstruct(family: FrameFamily, f, alpha: float) -> ReconstructionResult:
    """Both dual expansions of f through the inverse frame operator.

    f = sum <f, S^-1 f_i>_a f_i   and   f = sum <f, f_i>_a S^-1 f_i.

    S^-1 at level a carries scale(a)^-1, so the level scalings cancel and
    both reconstructions are level-independent.  A rank-deficient S_c means
    the frame operator is not invertible; the error names a kernel witness.
    """
    a = check_alpha(alpha)
    fvec = family.model.check_vector(f)
    F, dual, _ = _canonical_dual(family)
    coeffs_dual = dual.conj().T @ fvec  # <f, S^-1 f_i>, scale cancelled
    recon1 = F @ coeffs_dual
    coeffs_plain = F.conj().T @ fvec
    recon2 = dual @ coeffs_plain
    return ReconstructionResult(
        alpha=a,
        via_dual_coefficients=recon1,
        via_dual_vectors=recon2,
        residual_dual_coefficients=float(np.linalg.norm(recon1 - fvec)),
        residual_dual_vectors=float(np.linalg.norm(recon2 - fvec)),
    )


def reconstruction_residual(family: FrameFamily) -> tuple[float, float]:
    """Worst residual of both dual expansions over unit f, at every level,
    and the condition number of S_c.

    The two expansions apply F (S^-1 F)* and S^-1 F F*, which are adjoints
    of each other, so both worst residuals equal ||F (S^-1 F)* - I||.  In
    floating point that residual is only known up to about n * eps *
    cond(S_c) (n the dimension), so a tolerance on it must include that
    term.  Raises SingularFrameOperatorError as :func:`reconstruct` does.
    """
    F, dual, cond = _canonical_dual(family)
    return spectral_norm(F @ dual.conj().T - np.eye(F.shape[0])), cond
