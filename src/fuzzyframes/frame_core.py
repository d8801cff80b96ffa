"""Frame engine: synthesis operators, spectral bound certificates and
the invertibility of the frame operator on range(K).

A finite family {f_i} in a fuzzy model has synthesis matrix F with the f_i
as columns and classical frame operator S_c = F F*.  At level a the frame
operator materializes as scale(a) * S_c, and the frame sum carries either
one power of scale(a) (the ``once`` convention, which matches the worked
arithmetic of the source material and makes every certificate independent
of the level) or two (the ``squared`` convention, the literal reading of
|<f, f_i>_a|^2).  A and B do not depend on the convention; reports label it.

Optimal constants come from one rank-cut SVD of the synthesis matrix F,
never from an eigendecomposition of S_c, which squares its condition number;
``_optimal_bounds`` builds every certificate from the singular pairs of F:

* ordinary frame bounds are sigma_min(F)^2 and sigma_max(F)^2, with A = 0
  below full row rank;
* the optimal K-frame lower bound, the largest A with S_c - A K K* still
  positive semidefinite, is 1 / ||F^dagger K||^2 when range(K) lies inside
  range(F) and 0 otherwise (Douglas's lemma): a K-frame is exactly an
  atomic system for K.

An atomic system is a Douglas factorization: the family is one for K
exactly when K = F W for a bounded W.  This module has no routine of its
own for it: the ``atomic`` command reads the factorization and the
certificate from one SVD of F (``operator_algebra._factorize(K, F)``).
The coefficients of K f = sum beta_i f_i are beta = W f for W = F^dagger K,
with ||beta|| <= C ||f|| for C = ||W|| = 1 / sqrt(A); a range(K) outside
range(F) is the result A = 0, not an exception.

Operands are expected at unit scale (see ``operator_algebra``).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .fuzzy_space import FuzzyModel
from .operator_algebra import (
    PSD_TOL,
    _Douglas,
    _douglas,
    _gram,
    _order_decision,
    _rank,
    as_matrix,
    within_tolerance,
)

__all__ = [
    "CONVENTIONS",
    "TIGHT_TOL",
    "FrameFamily",
    "BoundCertificate",
    "BoundCheck",
    "VerificationResult",
    "SandwichReport",
    "synthesis_matrix",
    "classical_frame_operator",
    "frame_sum",
    "optimal_frame_bounds",
    "optimal_kframe_bounds",
    "verify_bounds",
    "restricted_inverse_check",
]

CONVENTIONS = ("once", "squared")

#: relative tightness: |A - B| <= TIGHT_TOL * B for a frame, the same
#: agreement of the singular values of F^dagger K for a K-frame
TIGHT_TOL = 1e-9

DEFAULT_ALPHAS = (0.1, 0.5, 0.9)

#: dimension from which a family of more vectors than that is reduced by QR
#: before its SVD; below it one SVD of F is faster (see _synthesis_svd)
QR_REDUCTION_DIMENSION = 16


def _check_convention(convention: str) -> str:
    if convention not in CONVENTIONS:
        raise ValueError(f"convention must be one of {CONVENTIONS}, got {convention!r}")
    return convention


class _Family(NamedTuple):
    vectors: np.ndarray
    model: FuzzyModel


class FrameFamily(_Family):
    """Ordered finite family of vectors in a fuzzy model.

    ``vectors`` is stored row-wise: vectors[i] is f_i.
    """

    __slots__ = ()

    def __new__(cls, vectors: np.ndarray, model: FuzzyModel):
        v = np.atleast_2d(np.asarray(vectors, dtype=model.space.dtype))
        if v.ndim != 2 or v.shape[0] < 1:
            raise ValueError(f"family must be a nonempty list of vectors, got {v.shape}")
        if v.shape[1] != model.space.dimension:
            raise ValueError(
                f"vectors of length {v.shape[1]} do not live in a space of "
                f"dimension {model.space.dimension}"
            )
        v = v.copy()
        v.setflags(write=False)
        return tuple.__new__(cls, (v, model))

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def synthesis_matrix(family: FrameFamily) -> np.ndarray:
    """n x m matrix with f_i as the i-th column; maps coefficients to sums."""
    return family.vectors.T.copy()


def classical_frame_operator(family: FrameFamily) -> np.ndarray:
    """S_c = F F*, Hermitian positive semidefinite."""
    return _gram(family.vectors.T)


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


class BoundCertificate(NamedTuple):
    """Optimal constants of a Bessel / frame / K-frame claim, as the SVD of
    F decides them.

    ``A`` bounds the frame sum from below against ||K* f||_a^2 (or
    ||f||_a^2 when there is no operator, ``kframe`` false), ``B`` from
    above against ||f||_a^2.  ``A = 0`` is the "not a (K-)frame" state and
    comes with a lower witness; ``A = inf`` marks a vacuous lower
    inequality (K = 0).  For K-frames ``tight`` means S_c is proportional
    to K K* (frame sum a constant multiple of ||K* f||_a^2); for ordinary
    frames it means A = B.

    The kind is read from the fields: ``k_frame`` for a K-frame; otherwise
    ``parseval`` or ``tight`` when tight, ``frame`` when A > 0 and
    ``bessel`` when A = 0.  ``parseval`` is tight with |A - 1| <= TIGHT_TOL,
    so both follow the A held: after ``_replace(A=...)`` they are decided
    for the new A.
    """

    A: float
    B: float
    kframe: bool
    tight: bool = False
    witness_lower: Optional[np.ndarray] = None
    witness_upper: Optional[np.ndarray] = None

    @property
    def parseval(self) -> bool:
        return self.tight and abs(self.A - 1.0) <= TIGHT_TOL

    @property
    def kind(self) -> str:
        if self.kframe:
            return "k_frame"
        if self.tight:
            return "parseval" if self.parseval else "tight"
        return "frame" if self.A > 0.0 else "bessel"


def _unit(v: Optional[np.ndarray]) -> Optional[np.ndarray]:
    if v is None:
        return None
    n = np.linalg.norm(v)
    return v if n == 0 else v / n


def _synthesis_svd(family: FrameFamily) -> tuple[np.ndarray, np.ndarray]:
    """(u, s) of the synthesis matrix F, u square: S_c = u diag(s^2) u*.

    From QR_REDUCTION_DIMENSION on, more vectors than the dimension are
    reduced first: F* = Q R gives F = R* Q*, with the left singular pairs of
    the square R*.  That saves flops only where a QR and an SVD of R* cost
    less than one SVD of F: for m = 2n vectors on one BLAS thread the one
    SVD is faster up to n = 12 and slower from n = 24 (real and complex).
    A smaller wide family takes that one SVD, thin, which leaves u square.
    """
    f = family.vectors.T
    if f.shape[1] > f.shape[0] >= QR_REDUCTION_DIMENSION:
        f = np.linalg.qr(family.vectors.conj(), mode="r").conj().T
    u, s, _ = np.linalg.svd(f, full_matrices=f.shape[1] <= f.shape[0])
    return u, s


def optimal_frame_bounds(family: FrameFamily) -> BoundCertificate:
    """Tightest constants A, B with A ||f||_a^2 <= frame sum <= B ||f||_a^2.

    These are sigma_min(F)^2 and sigma_max(F)^2; witnesses are the extreme
    left singular vectors.  A = 0 (kernel vector witness) means the family
    spans a proper subspace and is merely a Bessel family.
    """
    return _optimal_bounds(family, None, *_synthesis_svd(family))


def optimal_kframe_bounds(
    family: FrameFamily, K: np.ndarray, tol: float = PSD_TOL
) -> BoundCertificate:
    """Optimal K-frame constants: B = sigma_max(F)^2, A = max{A : S_c >= A K K*}.

    A = 1 / ||F^dagger K||^2 when range(K) lies inside range(F) (decided
    within tol), else 0 with the f outside range(F) maximizing ||K* f|| as
    witness; a zero operator makes the lower inequality vacuous and A is
    +inf.
    """
    return _optimal_bounds(family, K, *_synthesis_svd(family), tol)


def _operator_on(K: np.ndarray, n: int) -> np.ndarray:
    """K as an n x n matrix; another shape raises ValueError."""
    k = as_matrix(K)
    if k.shape != (n, n):
        raise ValueError(f"operator of shape {k.shape} does not act on dimension {n}")
    return k


def _optimal_bounds(
    family: FrameFamily,
    K: Optional[np.ndarray],
    u: np.ndarray,
    s: np.ndarray,
    tol: float = PSD_TOL,
    d: Optional[_Douglas] = None,
) -> BoundCertificate:
    """optimal_kframe_bounds, or optimal_frame_bounds when K is None, from the
    left singular pairs (u, s) of F, with d Douglas's lemma for K against F
    if the caller has it.  u must be square only when K is None: a K-frame
    reads u[:, :r] and u[:, 0], so a thin u serves it.  A K-frame is tight
    when S_c = A K K*, W W* = I / A: the r = rank F singular values of W agree."""
    b = float(s[0]) ** 2
    if K is None:
        a = float(s[-1]) ** 2 if _rank(s) == family.dimension else 0.0
        tight = a > 0.0 and abs(a - b) <= TIGHT_TOL * b
        witness = u[:, -1]
    else:
        k = _operator_on(K, family.dimension)
        d = _douglas(k, u, s, tol) if d is None else d
        if not d.included:  # some f with K*f != 0 has zero frame sum
            a = 0.0
        elif not k.any():  # K = 0: the lower inequality is vacuous
            a = math.inf
        else:
            a = 1.0 / d.sup
        tight = 0.0 < a < math.inf and float(d.sq[0]) >= (1.0 - TIGHT_TOL) * float(d.sq[-1])
        witness = d.witness
    return BoundCertificate(a, b, K is not None, tight, witness, u[:, 0])


class BoundCheck(NamedTuple):
    alpha: float
    side: str  # "lower" | "upper"
    ok: bool
    #: smallest eigenvalue of the difference; None for a pass certified
    #: without eigenvalues
    margin: Optional[float]
    witness: Optional[np.ndarray] = None


class VerificationResult(NamedTuple):
    passed: bool
    checks: tuple[BoundCheck, ...]


def verify_bounds(
    family: FrameFamily,
    A: float,
    B: float,
    K: Optional[np.ndarray] = None,
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
    The first failing level yields the eigen-witness.  Each check allows
    the slack tol * max(max|diag P|, max|diag Q|) for its sides P <= Q.
    A = inf is the vacuous bound of K = 0 and a ValueError for any other K;
    B = inf or NaN is always a ValueError.
    """
    _check_convention(convention)
    if not A >= 0.0 or B < 0.0:
        raise ValueError("bounds must be nonnegative")
    if not B < math.inf:  # a NaN or infinite B would reach eigh
        raise ValueError(f"the upper bound B must be finite and nonnegative, got {B}")
    if A == math.inf and (K is None or np.any(K)):
        raise ValueError("A = inf is the vacuous lower bound of K = 0 only")
    s = classical_frame_operator(family)
    n = family.dimension
    eye = np.eye(n)
    gram = eye if K is None else _gram(K)
    # max|diag| of each side scales its check (see _order_decision)
    s_top, g_top = (float(np.abs(m.diagonal()).max()) for m in (s, gram))

    checks: list[BoundCheck] = []
    passed = True
    decided: dict[float, tuple] = {}  # extra factor -> (lower, upper) outcomes
    for alpha in alphas:
        extra = 1.0 if convention == "once" else family.model.scale(alpha)
        if extra not in decided:
            s_eff = s if extra == 1.0 else extra * s
            # both differences are Hermitian as built: no symmetrizing
            if A == math.inf:  # vacuous lower inequality (zero operator)
                lower = (True, None, math.inf)
            else:
                lower = _order_decision(s_eff - A * gram, tol, max(extra * s_top, A * g_top))
            upper = B * eye - s_eff
            decided[extra] = (lower, _order_decision(upper, tol, max(extra * s_top, B)))
        (ok_lo, wit_lo, margin_lo), (ok_up, wit_up, margin_up) = decided[extra]
        checks.append(BoundCheck(alpha, "lower", ok_lo, margin_lo, _unit(wit_lo)))
        checks.append(BoundCheck(alpha, "upper", ok_up, margin_up, _unit(wit_up)))
        passed = passed and ok_lo and ok_up
    return VerificationResult(passed=passed, checks=tuple(checks))


class SandwichReport(NamedTuple):
    injective: bool
    dagger_norm: float
    #: the largest excess of a side of each sandwich line over the other
    max_violation_forward: float
    max_violation_inverse: float
    #: injective, and each inequality within tol of the size of its sides
    passed: bool


def restricted_inverse_check(
    family: FrameFamily,
    K: np.ndarray,
    certificate: Optional[BoundCertificate] = None,
    tol: float = PSD_TOL,
) -> SandwichReport:
    """Invertibility of S_c on range(K) and the two sandwich inequalities.

    States the theorem that the frame operator of a K-frame is invertible
    on range(K), with the bounds of its inverse there.
    For f in range(K):          A ||K+||^-2 ||f||^2 <= <S_c f, f> <= B ||f||^2
    For f in S_c(range(K)):     B^-1 ||f||^2 <= <S_r^-1 f, f> <= A^-1 ||K+||^2 ||f||^2

    with S_r the restriction of S_c to range(K), K+ the pseudo-inverse and
    (A, B) the certificate, by default the optimal K-frame pair.  Level
    scalings cancel pairwise, so the checks are classical.

    Every decision reads singular values; S_c is never formed.  With Q the
    left singular vectors of K kept by the rank cut (r of them) and G = Q* F
    = U Sigma V*, unit u = Q x runs over range(K) and <S_c u, u> = ||G* x||^2:
    S_c is injective there when G has rank r, and the first line reads
    sigma_r(G)^2 and sigma_1(G)^2.  With w = G* x, which runs over range(V_r),
    f = S_c u has <S_r^-1 f, f> = ||w||^2 and ||f||^2 = ||F w||^2, so the
    second line is sigma_1(F V_r)^2 <= B and sigma_r(F V_r)^2 >= A ||K+||^-2.
    Each excess passes within_tolerance of the larger of its constant and
    the top squared singular value of the same matrix.
    """
    k = as_matrix(K)
    cert = optimal_kframe_bounds(family, k, tol) if certificate is None else certificate
    q, k_sv, _ = np.linalg.svd(k)
    r = _rank(k_sv)
    if r == 0 or not 0.0 < cert.A < math.inf:
        raise ValueError("not applicable: K is zero or the family is not a K-frame (lower bound 0)")
    dagger_norm = 1.0 / float(k_sv[r - 1])  # ||K+||: K's smallest kept singular value
    a, b = cert.A / dagger_norm**2, cert.B

    def excesses(s: np.ndarray) -> list[tuple[float, float]]:
        """(excess, scale) of a <= sigma_r^2 and sigma_1^2 <= b, for the
        singular values s of a matrix of r columns or rows (0 past its rank)."""
        low, high = (float(s[r - 1]) if len(s) == r else 0.0) ** 2, float(s[0]) ** 2
        return [(a - low, max(a, high)), (high - b, max(high, b))]

    _, g, vh = np.linalg.svd(q[:, :r].conj().T @ family.vectors.T, full_matrices=False)
    injective = _rank(g) == r
    forward = excesses(g)
    inverse = []
    if injective:
        inverse = excesses(np.linalg.svd(family.vectors.T @ vh.conj().T, compute_uv=False))
    passed = injective and all(within_tolerance(x, tol, sc) for x, sc in forward + inverse)
    return SandwichReport(
        injective=injective,
        dagger_norm=dagger_norm,
        max_violation_forward=max(x for x, _ in forward),
        max_violation_inverse=max((x for x, _ in inverse), default=-math.inf),
        passed=passed,
    )
