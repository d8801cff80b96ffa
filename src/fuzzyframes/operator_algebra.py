"""Dense operator layer: adjoints, PSD order, range tests, factorization.

All spectral work is done through Hermitian eigendecompositions and SVDs of
small dense matrices (desk scale, n <= 64).  Majorization statements of the
form P <= lam^2 Q are decided through generalized Rayleigh quotients of the
pencil (P, Q) restricted to the range of Q, which is exactly where the
quotient is defined; directions in the kernel of Q are admissible only when
they are also annihilated by P.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .fuzzy_space import BaseSpace, FuzzyModel, check_alpha

__all__ = [
    "RELATIVE_RANK_TOL",
    "PSD_TOL",
    "RangeInclusionError",
    "LinearOperator",
    "FactorizationResult",
    "PseudoInverseResult",
    "PencilExtremum",
    "as_matrix",
    "adjoint",
    "spectral_norm",
    "alpha_operator_norm",
    "hermitian_part",
    "psd_order_check",
    "range_basis",
    "pseudo_inverse",
    "douglas_range_inclusion",
    "douglas_lambda",
    "douglas_factorize",
    "pencil_sup",
    "pencil_inf",
]

#: singular values below this fraction of the largest count as zero
RELATIVE_RANK_TOL = 1e-10

#: default slack for positive-semidefinite order decisions
PSD_TOL = 1e-9

MatrixLike = Union[np.ndarray, "LinearOperator"]


class RangeInclusionError(Exception):
    """Raised when a range-inclusion hypothesis fails.

    Carries the residual of projecting the offending operator onto the
    orthogonal complement of the target range.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (projection residual {residual:.3e})")
        self.residual = residual


@dataclass(frozen=True)
class LinearOperator:
    """Dense matrix acting between two finite-dimensional spaces."""

    matrix: np.ndarray
    domain: Optional[BaseSpace] = None
    codomain: Optional[BaseSpace] = None

    def __post_init__(self) -> None:
        m = np.atleast_2d(np.asarray(self.matrix))
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
        m = m.astype(np.complex128 if np.iscomplexobj(m) else np.float64)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        rows, cols = m.shape
        field = "complex" if np.iscomplexobj(m) else "real"
        if self.domain is None:
            object.__setattr__(self, "domain", BaseSpace(cols, field))
        elif self.domain.dimension != cols:
            raise ValueError(f"domain dimension {self.domain.dimension} != {cols}")
        if self.codomain is None:
            object.__setattr__(self, "codomain", BaseSpace(rows, field))
        elif self.codomain.dimension != rows:
            raise ValueError(f"codomain dimension {self.codomain.dimension} != {rows}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def adjoint(self) -> "LinearOperator":
        return LinearOperator(self.matrix.conj().T, self.codomain, self.domain)

    def norm(self) -> float:
        return spectral_norm(self.matrix)

    def __matmul__(self, other: MatrixLike) -> "LinearOperator":
        return LinearOperator(self.matrix @ as_matrix(other))

    def apply(self, x) -> np.ndarray:
        return self.matrix @ np.asarray(x)


def as_matrix(T: MatrixLike) -> np.ndarray:
    """Coerce an operator or array-like to a 2-D ndarray."""
    if isinstance(T, LinearOperator):
        return T.matrix
    m = np.atleast_2d(np.asarray(T))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


def adjoint(T: MatrixLike) -> np.ndarray:
    """Conjugate transpose; satisfies <x, T y>_a = <T* x, y>_a at all levels."""
    return as_matrix(T).conj().T


def spectral_norm(T: MatrixLike) -> float:
    m = as_matrix(T)
    if not np.any(m):
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def alpha_operator_norm(
    T: MatrixLike,
    alpha: float,
    domain_model: Optional[FuzzyModel] = None,
    codomain_model: Optional[FuzzyModel] = None,
) -> float:
    """Level operator norm sup_{beta <= alpha} sup_x ||Tx||_beta / ||x||_beta.

    With matching profiles on both sides the per-level ratio is the largest
    singular value for every beta, so the sup is level-independent.  A crisp
    domain feeding a scaled codomain picks up the factor sqrt(scale(alpha))
    (the per-level factor increases, so the sup sits at beta = alpha).  The
    opposite mix diverges as beta -> 0 and the norm is infinite.
    """
    a = check_alpha(alpha)
    sigma = spectral_norm(T)
    dom = domain_model.profile if domain_model is not None else None
    cod = codomain_model.profile if codomain_model is not None else None
    if dom == cod or dom is None or cod is None:
        return sigma
    if dom == "crisp" and cod == "scaled":
        return math.sqrt(a / (1.0 - a)) * sigma
    return math.inf


def hermitian_part(P: MatrixLike, warn_tol: float = 1e-8) -> np.ndarray:
    """Symmetrize; Frobenius asymmetry beyond warn_tol (relative) warns."""
    m = as_matrix(P)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    h = 0.5 * (m + m.conj().T)
    skew = np.linalg.norm(m - h)
    if skew > warn_tol * (1.0 + np.linalg.norm(h)):
        warnings.warn(
            f"matrix symmetrized, asymmetry {skew:.3e}", RuntimeWarning, stacklevel=2
        )
    return h


def psd_order_check(
    P: MatrixLike, Q: MatrixLike, tol: float = PSD_TOL
) -> tuple[bool, Optional[np.ndarray], float]:
    """Decide P <= Q in the positive-semidefinite order.

    Returns (ok, witness, lambda_min) where the witness is the unit
    eigenvector minimizing <(Q - P) f, f> whenever the order fails.  The
    slack is scale-aware: lambda_min >= -tol * (1 + ||Q - P||).
    """
    diff = hermitian_part(Q) - hermitian_part(P)
    w, v = np.linalg.eigh(diff)
    lam_min = float(w[0])
    slack = tol * (1.0 + float(np.abs(w).max(initial=0.0)))
    if lam_min >= -slack:
        return True, None, lam_min
    return False, v[:, 0], lam_min


def range_basis(T: MatrixLike, rtol: float = RELATIVE_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of range(T) as columns, via SVD with relative cutoff."""
    m = as_matrix(T)
    if not np.any(m):
        return np.zeros((m.shape[0], 0), dtype=m.dtype)
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    rank = int(np.sum(s > rtol * s[0]))
    return u[:, :rank]


@dataclass(frozen=True)
class PseudoInverseResult:
    dagger: np.ndarray
    rank: int
    range_projector: np.ndarray


def pseudo_inverse(T: MatrixLike, rtol: float = RELATIVE_RANK_TOL) -> PseudoInverseResult:
    """Moore-Penrose inverse with numerical rank and the range projector.

    T @ dagger acts as the identity on range(T); closed range is automatic
    in finite dimension.
    """
    u, s, vt = np.linalg.svd(as_matrix(T), full_matrices=False)
    large = s > rtol * s.max(initial=0.0)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=large)
    dagger = vt.conj().T @ (inv[:, None] * u.conj().T)
    u = u[:, large]
    projector = u @ u.conj().T
    return PseudoInverseResult(dagger=dagger, rank=u.shape[1], range_projector=projector)


def douglas_range_inclusion(
    M: MatrixLike, N: MatrixLike, tol: float = PSD_TOL
) -> tuple[bool, float]:
    """Test range(M) subseteq range(N) by projection residual.

    Returns (included, residual) with residual = ||(I - N N^dagger) M||
    measured relative to ||M||.
    """
    m = as_matrix(M)
    n = as_matrix(N)
    if m.shape[0] != n.shape[0]:
        raise ValueError(f"codomain mismatch: {m.shape} vs {n.shape}")
    u = range_basis(n)
    proj = np.eye(n.shape[0], dtype=np.result_type(m, n)) - u @ u.conj().T
    scale = spectral_norm(m)
    if scale == 0.0:
        return True, 0.0
    residual = spectral_norm(proj @ m) / scale
    return residual <= tol, float(residual)


@dataclass(frozen=True)
class PencilExtremum:
    value: float
    witness: Optional[np.ndarray]


def pencil_sup(
    P: MatrixLike, Q: MatrixLike, rtol: float = RELATIVE_RANK_TOL
) -> PencilExtremum:
    """sup of <Pf,f> / <Qf,f> over all f with <Qf,f> > 0 (P, Q Hermitian PSD).

    The sup is +inf exactly when some kernel direction of Q carries positive
    P-energy; otherwise it is attained on range(Q), where the quotient is the
    Rayleigh quotient of P compressed by Q^{-1/2}.  Both parts come from one
    eigendecomposition of Q.  Q = 0 yields -inf (empty domain).
    """
    p = hermitian_part(P)
    q = hermitian_part(Q)
    w, v = np.linalg.eigh(q)
    top = float(w.max(initial=0.0))
    kernel = v[:, w <= rtol * top] if top > 0.0 else v
    if kernel.shape[1] > 0:
        c = hermitian_part(kernel.conj().T @ p @ kernel, warn_tol=1e-6)
        cw, cv = np.linalg.eigh(c)
        p_scale = float(np.abs(np.linalg.eigvalsh(p)).max(initial=0.0))
        if float(cw[-1]) > rtol * max(1.0, p_scale):
            f = kernel @ cv[:, -1]
            return PencilExtremum(math.inf, f / np.linalg.norm(f))
    if top <= 0.0:
        return PencilExtremum(-math.inf, None)
    keep = w > rtol * top
    inv_sqrt = v[:, keep] / np.sqrt(w[keep])
    c = hermitian_part(inv_sqrt.conj().T @ p @ inv_sqrt, warn_tol=1e-6)
    cw, cv = np.linalg.eigh(c)
    f = inv_sqrt @ cv[:, -1]
    return PencilExtremum(max(float(cw[-1]), 0.0), f / np.linalg.norm(f))


def pencil_inf(
    P: MatrixLike, Q: MatrixLike, rtol: float = RELATIVE_RANK_TOL
) -> PencilExtremum:
    """inf of <Pf,f> / <Qf,f> over all f with <Qf,f> > 0 (P, Q Hermitian PSD).

    Directions outside range(Q) lower the quotient only through the P-energy
    they remove, so the infimum equals max{A : P - A Q is PSD}; it is found
    by swapping the roles of the forms: inf = 1 / sup(Q / P), with inf = 0
    when some f has <Pf,f> = 0 < <Qf,f> and +inf when Q = 0.
    """
    opposite = pencil_sup(Q, P, rtol)
    if math.isinf(opposite.value):
        if opposite.value > 0:  # some f with Pf = 0 but Q-energy: quotient 0
            return PencilExtremum(0.0, opposite.witness)
        return PencilExtremum(math.inf, None)  # Q = 0: no admissible f
    if opposite.value <= 0.0:
        return PencilExtremum(math.inf, None)
    return PencilExtremum(1.0 / opposite.value, opposite.witness)


def _pencil_lambda(m: np.ndarray, n: np.ndarray) -> float:
    """Minimal lam >= 0 with m m* <= lam^2 n n*, given range(m) in range(n)."""
    sup = pencil_sup(m @ m.conj().T, n @ n.conj().T)
    if math.isinf(sup.value):
        if sup.value < 0:  # N = 0 forces M = 0; any lam works
            return 0.0
        raise RangeInclusionError("no finite majorization constant", math.inf)
    return math.sqrt(max(sup.value, 0.0))


def douglas_lambda(
    M: MatrixLike, N: MatrixLike, tol: float = PSD_TOL
) -> float:
    """Minimal lam >= 0 with M M* <= lam^2 N N*.

    Requires range(M) subseteq range(N); without it no finite lam exists and
    a RangeInclusionError is raised.
    """
    included, residual = douglas_range_inclusion(M, N, tol)
    if not included:
        raise RangeInclusionError("range(M) is not contained in range(N)", residual)
    return _pencil_lambda(as_matrix(M), as_matrix(N))


@dataclass(frozen=True)
class FactorizationResult:
    lam: float
    W: np.ndarray
    residual: float
    #: ||(I - N N^dagger) M|| / ||M|| from the range-inclusion test
    projection_residual: float


def douglas_factorize(
    M: MatrixLike, N: MatrixLike, tol: float = PSD_TOL
) -> FactorizationResult:
    """Solve M = N W with the minimal-norm W = N^dagger M.

    Range inclusion is a hypothesis; its failure raises RangeInclusionError
    carrying the projection residual.  An included range whose pencil still
    has no finite majorization constant raises with residual +inf.
    """
    included, projection = douglas_range_inclusion(M, N, tol)
    if not included:
        raise RangeInclusionError("cannot factor through N", projection)
    m = as_matrix(M)
    n = as_matrix(N)
    w = pseudo_inverse(n).dagger @ m
    return FactorizationResult(
        lam=_pencil_lambda(m, n),
        W=w,
        residual=float(spectral_norm(n @ w - m)),
        projection_residual=projection,
    )
