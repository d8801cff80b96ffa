"""Dense operator layer: PSD order, range tests, factorization.

All spectral work is done through Hermitian eigendecompositions, QR, SVD
and Cholesky factorizations of small dense matrices (desk scale, n <= 64).
A majorization question is answered from the factor N, never from Gram
matrices of both sides (Douglas's lemma): when range(M) is inside range(N),
the smallest lam with M M* <= lam^2 N N* is ||N^dagger M||.  One helper,
_douglas, reads it from the left singular pairs (u, s) of N: the inclusion
residual, the coordinates s^-1 u* M of N^dagger M and lam^2 with its
witness; every range inclusion and K-frame bound goes through it.  One
factorization, douglas_factorize, solves M = N W from it with its residual
and pass decision: the ``douglas`` command reads it, and so does every
atomic system, which is M = K against N = F.

Ranks follow one relative rule, read from singular values only: one at or
below RELATIVE_RANK_TOL times the largest counts as zero, so rescaling an
input never changes a rank decision.

Every tolerance decision follows one rule, :func:`within_tolerance`: an
excess passes when it is at most tol times the size of the operands it
compares, with no absolute floor, so scaling the inputs by c scales both
sides alike and never changes a verdict.

An order decision P <= Q is certified by one Cholesky factorization of
Q - P shifted by half its slack; no eigenvalue is computed for a pass.  Only
when that factorization fails does one eigh of Q - P decide, and its bottom
eigenvector is the witness of a failure.

Range safety is a precondition: operands come at unit scale, their largest
entry in [1/2, 1), where nothing here leaves the double range (``cli_io``
scales each by a power of two).  Off it a call can raise or fail, but
:func:`within_tolerance` never passes a NaN.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .fuzzy_space import FuzzyModel, check_alpha

__all__ = [
    "RELATIVE_RANK_TOL",
    "EPS",
    "PSD_TOL",
    "CHOLESKY_TOL_FACTOR",
    "RangeInclusionError",
    "FactorizationResult",
    "as_matrix",
    "spectral_norm",
    "alpha_operator_norm",
    "within_tolerance",
    "douglas_factorize",
]

#: singular values at or below this fraction of the largest count as zero;
#: no rank is read from eigenvalues of a Gram matrix, which square the ratio
RELATIVE_RANK_TOL = 1e-10

#: float64 unit roundoff; rounding allowances are multiples of n * EPS
EPS = float(np.finfo(np.float64).eps)

#: default relative tolerance of every decision (see within_tolerance)
PSD_TOL = 1e-9

#: an order decision tries its Cholesky certificate only when tol is at least
#: this multiple of n * EPS (n the dimension).  A factorization that succeeds
#: has backward error at most n (n + 1) eps times the largest diagonal entry
#: (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10).  The
#: diagonal of Q - P + shift I is at most 2 scale + shift = 2 scale (1 +
#: tol / 4) for the scale max(max|diag P|, max|diag Q|), so the error is at
#: most 2 n (n + 1) eps scale (1 + tol / 4); at tol = CHOLESKY_TOL_FACTOR n
#: eps that stays under a quarter of the slack tol * scale up to n = 510,
#: and larger tol only widens the margin.  Below the cutoff eigh decides
#: alone.
CHOLESKY_TOL_FACTOR = 4096.0


class RangeInclusionError(Exception):
    """Raised when a range-inclusion hypothesis fails.

    Carries the residual of projecting the offending operator onto the
    orthogonal complement of the target range.
    """

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (projection residual {residual:.3e})")
        self.residual = residual


def as_matrix(T: np.ndarray) -> np.ndarray:
    """Coerce an array-like to a 2-D ndarray."""
    m = np.atleast_2d(np.asarray(T))
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    return m


def spectral_norm(T: np.ndarray) -> float:
    m = as_matrix(T)
    if not np.any(m):
        return 0.0
    return float(np.linalg.svd(m, compute_uv=False)[0])


def alpha_operator_norm(
    T: np.ndarray,
    alpha: float,
    domain_model: Optional[FuzzyModel] = None,
    codomain_model: Optional[FuzzyModel] = None,
) -> float:
    """Level operator norm sup_{beta <= alpha} sup_x ||Tx||_beta / ||x||_beta.

    States the norm of a strongly fuzzy bounded operator, the bound every K
    and transfer operator of the paper carries.

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


def within_tolerance(excess: float, tol: float, scale: float) -> bool:
    """The one tolerance rule: excess <= tol * scale, with scale the size of
    the operands being compared and no absolute floor.  A NaN excess, or a
    scale that is not finite, never passes."""
    return math.isfinite(scale) and bool(excess <= tol * scale)


def _finite(what: str, compute):
    """compute(), or an OverflowError naming ``what`` when any entry of it is
    inf or NaN, with numpy's floating-point warnings silenced meanwhile.  A
    Python float that raises instead (x**2 past the range, x / 0.0) counts
    as inf.  Only quantities that unit scale does not bound need it."""
    with np.errstate(all="ignore"):
        try:
            value = compute()
        except ArithmeticError:
            value = math.inf
    # math.isfinite decides a Python float about 50 times faster than numpy
    finite = math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()
    if not finite:
        raise OverflowError(f"{what} overflows a double")
    return value


def _ldexp(x: np.ndarray, power: int) -> np.ndarray:
    """x 2^power entry by entry, a complex x part by part: exact unless an
    entry leaves the normal range (inf past it, with no warning).  Only a
    positive power can overflow, so only it enters np.errstate."""
    x = np.ascontiguousarray(x)
    if power <= 0:
        return np.ldexp(x.view(np.float64), power).view(x.dtype)
    with np.errstate(over="ignore"):
        return np.ldexp(x.view(np.float64), power).view(x.dtype)


def _unit_scale(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(2^-e x, e), e the exponent of x's largest part (0 for x = 0); exact
    but for entries 2^1022 and more below the largest."""
    e = math.frexp(float(np.abs(np.ascontiguousarray(x).view(np.float64)).max(initial=0.0)))[1]
    return _ldexp(x, -e), e


def _gram(T: np.ndarray) -> np.ndarray:
    """T T*, symmetrized."""
    m = as_matrix(T)
    g = m @ m.conj().T
    return 0.5 * (g + g.conj().T)


def _order_decision(
    diff: np.ndarray, tol: float, scale: float
) -> tuple[bool, Optional[np.ndarray], Optional[float]]:
    """Decide diff >= 0 up to the slack tol * scale, for a Hermitian diff =
    Q - P and scale the size of P and Q: the callers pass max(max|diag P|,
    max|diag Q|), which is O(n), overflows no double and, for PSD sides,
    lies within a factor n of max(||P||, ||Q||).

    The certificate: when Cholesky factors diff + shift I, with shift half the
    slack, the order holds (see CHOLESKY_TOL_FACTOR) and (True, None, None) is
    returned.  Otherwise the eigenvalues of one eigh decide: lambda_min passes
    within_tolerance(-lambda_min, tol, scale), with the bottom eigenvector as
    the witness of a failure.  A shifted matrix that is not finite, or a
    factor that is not, leaves the decision to eigh; a scale that is not
    finite never passes.
    """
    n = diff.shape[0]
    if tol >= CHOLESKY_TOL_FACTOR * n * EPS:
        with np.errstate(over="ignore", invalid="ignore"):
            shifted = diff + (0.5 * tol * scale) * np.eye(n)
        if np.isfinite(shifted).all():
            try:
                factor = np.linalg.cholesky(shifted)
            except np.linalg.LinAlgError:
                pass
            else:
                # the factorization reports no error for a NaN it makes
                # itself (a multiplier overflowing against a tiny pivot); such
                # a NaN runs down its column into the last pivot
                if np.isfinite(factor[-1, -1]):
                    return True, None, None
    w, v = np.linalg.eigh(diff)
    lam_min = float(w[0])
    if within_tolerance(-lam_min, tol, scale):
        return True, None, lam_min
    return False, v[:, 0], lam_min


def _rank(s: np.ndarray) -> int:
    """Numerical rank from singular values s in descending order."""
    return int(np.sum(s > RELATIVE_RANK_TOL * s[0])) if len(s) else 0


def _coordinates(
    M: np.ndarray, u: np.ndarray, tol: float
) -> tuple[bool, float, np.ndarray, Optional[np.ndarray]]:
    """(included, residual, z, outside) for M against the orthonormal
    columns of u: z = u* M, outside = M - u z, residual = ||outside||_F /
    ||M||_F and included = within_tolerance(||outside||_F, tol, ||M||_F).
    When u spans the whole space nothing is computed outside: (True, 0.0,
    z, None)."""
    z = u.conj().T @ M
    if u.shape[1] == M.shape[0]:
        return True, 0.0, z, None
    outside = M - u @ z
    excess, scale = float(np.linalg.norm(outside)), float(np.linalg.norm(M))
    residual = excess / scale if scale > 0.0 else 0.0
    return within_tolerance(excess, tol, scale), residual, z, outside


class _Douglas(NamedTuple):
    """Douglas's lemma for M against N, as _douglas reads it.

    ``included`` and ``residual`` decide range(M) inside range(N) (see
    _coordinates).  With the inclusion, ``z`` = s_r^-1 u_r* M are the
    coordinates of N^dagger M = V_r z (V_r the right singular vectors of N
    kept by the rank cut) and ``sq`` the ascending eigenvalues of z z*.
    Without it z is None and sq is empty.
    """

    included: bool
    residual: float
    z: Optional[np.ndarray]
    sq: np.ndarray
    #: the witness with the inclusion, else the part of M outside range(N)
    found: Optional[np.ndarray]

    @property
    def sup(self) -> float:
        """||N^dagger M||^2, the sup of ||M* f||^2 / ||N* f||^2 over N* f
        != 0; +inf without the inclusion."""
        if not self.included:
            return math.inf
        return float(self.sq[-1]) if len(self.sq) else 0.0

    @property
    def witness(self) -> Optional[np.ndarray]:
        """A unit f attaining sup: u_r s_r^-1 y for the top eigenvector y of
        z z*, None for M = 0.  Without the inclusion, the f outside range(N)
        with the largest ||M* f||, from one SVD run at each access."""
        if self.included:
            return self.found
        return np.linalg.svd(self.found)[0][:, 0]


def _douglas(M: np.ndarray, u: np.ndarray, s: np.ndarray, tol: float) -> _Douglas:
    """Douglas's lemma (Douglas 1966) for M against N, from the left
    singular pairs (u, s) of N, s descending, cut by _rank.  One eigh of
    z z* gives sup and the witness; at unit scale s_r >= s_1
    RELATIVE_RANK_TOL >= 5e-11 keeps z z* in range."""
    r = _rank(s)
    u, s = u[:, :r], s[:r]
    included, residual, z, outside = _coordinates(M, u, tol)
    if not included:
        return _Douglas(False, residual, None, np.empty(0), outside)
    z = z / s[:, None]
    sq, vecs = np.linalg.eigh(_gram(z))
    if not len(sq) or sq[-1] <= 0.0:
        return _Douglas(True, residual, z, sq, None)
    # u s^-1 y scaled by s_min: no entry exceeds |y|
    f = u @ (vecs[:, -1] * (s[-1] / s))
    return _Douglas(True, residual, z, sq, f / np.linalg.norm(f))


class FactorizationResult(NamedTuple):
    lam: float
    W: np.ndarray
    #: ||N W - M||_F
    residual: float
    #: ||(I - N N^dagger) M||_F / ||M||_F from the range-inclusion test
    projection_residual: float
    #: residual within tol of ||M||_F once rounding's n eps ||N|| lam is allowed
    passed: bool


def _factorize(
    M: np.ndarray, N: np.ndarray, tol: float
) -> tuple[_Douglas, np.ndarray, np.ndarray, Optional[FactorizationResult]]:
    """Douglas's lemma for M against N from one thin SVD of N: the
    _Douglas, the left singular pairs (u, s) of N, and M = N W when
    range(M) lies in range(N) (else None)."""
    m, n = as_matrix(M), as_matrix(N)
    if m.shape[0] != n.shape[0]:
        raise ValueError(f"codomain mismatch: {m.shape} vs {n.shape}")
    u, s, vh = np.linalg.svd(n, full_matrices=False)
    d = _douglas(m, u, s, tol)
    if not d.included:
        return d, u, s, None
    w = vh[: len(d.z)].conj().T @ d.z  # N^dagger M = V_r z
    lam = math.sqrt(d.sup)
    residual = float(np.linalg.norm(n @ w - m))
    # rounding leaves about n eps ||N|| ||W|| (n the dimension)
    rounding = len(m) * EPS * (float(s[0]) if len(s) else 0.0) * lam
    passed = within_tolerance(residual - rounding, tol, float(np.linalg.norm(m)))
    return d, u, s, FactorizationResult(lam, w, residual, d.residual, passed)


def douglas_factorize(
    M: np.ndarray, N: np.ndarray, tol: float = PSD_TOL
) -> FactorizationResult:
    """Solve M = N W with the minimal-norm W = N^dagger M; lam = ||W||, the
    minimal lam >= 0 with M M* <= lam^2 N N*.

    One SVD of N feeds _douglas: W = V_r z and lam = ||z||.  Range
    inclusion is a hypothesis; its failure raises RangeInclusionError
    carrying the projection residual.
    """
    d, _, _, result = _factorize(M, N, tol)
    if result is None:
        raise RangeInclusionError("range(M) is not contained in range(N)", d.residual)
    return result
