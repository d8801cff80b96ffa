"""Stability of K-frame certificates under operator and family perturbation.

The operator hypothesis

    ||(K1* - K2*) f||_a <= lam1 ||K1* f||_a + lam2 ||K2* f||_a

is positively homogeneous in the common level factor sqrt(scale(a)), so it
holds at one level exactly when it holds classically; the same applies to
the family hypothesis with frame sums on both sides.  Both are decided by
linear algebra.  With A = K1 K1*, B = K2 K2*, C = D D* and D = K1 - K2,
weighted Cauchy-Schwarz gives

    (lam1 x + lam2 y)^2 = min over t in (0, 1) of lam1^2 x^2 / t + lam2^2 y^2 / (1 - t),

so the operator hypothesis holds exactly when

    Q_t = (lam1^2 / t) A + (lam2^2 / (1 - t)) B - C

is positive semidefinite for every t in (0, 1) (Casazza and Christensen,
J. Fourier Anal. Appl. 3, 1997).  The family hypothesis is the supremum
of the difference energy ||D* f||^2 against each frame sum, ||F^dagger D||^2
by Douglas's lemma, read from one SVD of each synthesis matrix.

Operands are expected at unit scale (see ``operator_algebra``); only lam1^2
in Q_t and the ratio of two families' scales in M can leave the range.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

from .frame_core import FrameFamily, _synthesis_svd
from .frame_transforms import DerivedBound
from .operator_algebra import (
    PSD_TOL,
    _douglas,
    _finite,
    _gram,
    _ldexp,
    as_matrix,
    within_tolerance,
)

__all__ = [
    "PerturbationReport",
    "FamilyPerturbation",
    "check_operator_perturbation",
    "derive_operator_perturbed_bounds",
    "derive_family_perturbed_bounds",
]

#: Bisection depth cap of the scan over t.  The PSD slack absorbs the
#: second-order gap between an interval's corner test and Q_t once the
#: interval is narrow enough, so bisection ends by itself: after 13-19
#: halvings at a t where Q_t is singular (equality in the hypothesis) on
#: 3x3 and 64x64 instances.  Only a smallest eigenvalue of Q_t sitting just
#: above -slack can need more; an interval 2^-MAX_DEPTH wide that is still
#: undecided has passed Q_t at both ends and is accepted.
MAX_DEPTH = 30


class PerturbationReport(NamedTuple):
    max_violation: float
    verified: bool
    method: str  # "spectral" | "scan"
    witness: Optional[np.ndarray]


def _corner(lo: float, hi: float) -> tuple[float, float]:
    """Meeting point (x, y) of the tangents at t = lo and t = hi to the
    convex curve (x, y) = (1/t, 1/(1 - t)), whose tangent at t = s is the
    line s^2 x + (1 - s)^2 y = 1."""
    d = lo + hi - 2.0 * lo * hi
    return (2.0 - lo - hi) / d, (lo + hi) / d


def check_operator_perturbation(
    K1: np.ndarray,
    K2: np.ndarray,
    lambda1: float,
    lambda2: float,
    tol: float = PSD_TOL,
) -> PerturbationReport:
    """Decide ||(K1-K2)* f|| <= lam1 ||K1* f|| + lam2 ||K2* f|| for all f.

    Q_t is affine in (x, y) = (1/t, 1/(1-t)), and the curve these trace is
    convex, so the arc between t = lo and t = hi lies in the triangle of its
    two end points and the meeting point of their tangents (the _corner).
    Q_t >= 0 at both ends and at the corner therefore proves every t in
    [lo, hi]; at t = 0 or 1 the end point is at infinity in the direction
    of A or B, both PSD, so it needs no test.

    The corner of [0, 1] is (1, 1): the single test lam1^2 A + lam2^2 B -
    C >= 0, which proves the hypothesis when it passes and, when lam1 = 0
    or lam2 = 0, is also the infimum of Q_t and decides alone (method
    ``spectral``).  Otherwise (method ``scan``) a failing interval is
    halved: Q_t failing at its midpoint refutes the hypothesis exactly,
    and each half whose corner fails is halved again, at most MAX_DEPTH
    times.

    Every test shares one slack, tol * (lam1^2 |A| + lam2^2 |B| + |C|)
    (Frobenius norms), the size of the operands of the test at (1, 1):
    Q_t passes when within_tolerance(-lambda_min(Q_t), tol, that size).
    There is no absolute floor, so scaling K1 and K2 changes no verdict.
    ``max_violation`` is the violation functional ||D* f|| - lam1 ||K1* f||
    - lam2 ||K2* f|| at the extremal vector: the bottom eigenvector, over
    every test run, with the largest violation.
    A refutation reports it as the witness, which violates the hypothesis:
    the bottom eigenvector f of a failing Q_t already has
    ||D* f||^2 > (lam1 ||K1* f|| + lam2 ||K2* f||)^2.
    """
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ValueError("perturbation constants must be nonnegative")
    if lambda2 >= 1.0:
        raise ValueError("lambda2 must be < 1")
    k1 = as_matrix(K1)
    k2 = as_matrix(K2)
    if k1.shape != k2.shape or k1.shape[0] != k1.shape[1]:
        raise ValueError("operators must be square and share a space")
    delta = k1 - k2
    a, b, c = _gram(k1), _gram(k2), _gram(delta)
    l1, l2 = lambda1 * lambda1, lambda2 * lambda2
    what = "Q_t = (lambda1^2/t) A + (lambda2^2/(1-t)) B - C or its slack"
    scale = float(
        _finite(what, lambda: l1 * np.linalg.norm(a) + l2 * np.linalg.norm(b) + np.linalg.norm(c))
    )

    def violation(f: np.ndarray) -> float:
        return float(
            np.linalg.norm(delta.conj().T @ f)
            - lambda1 * np.linalg.norm(k1.conj().T @ f)
            - lambda2 * np.linalg.norm(k2.conj().T @ f)
        )

    worst, extremal = -math.inf, None

    def holds(x: float, y: float) -> bool:
        """lam1^2 x A + lam2^2 y B - C >= 0 within the slack."""
        nonlocal worst, extremal
        q = _finite(what, lambda: (l1 * x) * a + (l2 * y) * b - c)
        w, v = np.linalg.eigh(0.5 * (q + q.conj().T))
        value = violation(v[:, 0])
        if value > worst:
            worst, extremal = value, v[:, 0]
        return within_tolerance(-float(w[0]), tol, scale)

    verified, method = holds(1.0, 1.0), "spectral"
    if not verified and lambda1 > 0.0 and lambda2 > 0.0:
        method = "scan"
        verified = True
        stack = [(0.0, 1.0)]  # intervals whose corner test failed
        while stack:
            lo, hi = stack.pop()
            mid = 0.5 * (lo + hi)
            if not holds(1.0 / mid, 1.0 / (1.0 - mid)):
                verified = False
                break
            if hi - lo > 2.0**-MAX_DEPTH:
                stack += [(s, e) for s, e in ((lo, mid), (mid, hi)) if not holds(*_corner(s, e))]
    return PerturbationReport(
        max_violation=worst,
        verified=verified,
        method=method,
        witness=None if verified else extremal,
    )


def derive_operator_perturbed_bounds(
    A: float, B: float, lambda1: float, lambda2: float
) -> DerivedBound:
    """Bounds transferred to the perturbed operator once the hypothesis holds:

        A' = A ((1 - lam2) / (1 + lam1))^2,    B' = B.

    verify_bounds of the pair against K2 checks them.
    """
    if lambda2 >= 1.0:
        raise ValueError("lambda2 must be < 1")
    if lambda1 < 0.0 or lambda2 < 0.0:
        raise ValueError("perturbation constants must be nonnegative")
    return DerivedBound(A * ((1.0 - lambda2) / (1.0 + lambda1)) ** 2, B)


class FamilyPerturbation(NamedTuple):
    M: float
    finite: bool
    witness: Optional[np.ndarray]
    stronger_than_hypothesis: bool  # M <= 1, below the stated M > 1 regime

    @property
    def report(self) -> str:
        if not self.finite:
            return "no finite constant: some f has positive difference sum with zero frame sum"
        note = " (stronger than the M > 1 hypothesis)" if self.stronger_than_hypothesis else ""
        return f"minimal M = {self.M:.12g}{note}"


def _family_constant(
    F: FrameFamily, G: FrameFamily, shift: int, tol: float
) -> tuple[FamilyPerturbation, tuple[np.ndarray, np.ndarray]]:
    """perturb-family's M, the minimal M with sum |<f, f_i - g_i>_a|^2 <=
    M min(frame sums of 2^shift F and G), with range inclusion decided
    within tol, and the left singular pairs of F.

    With D the synthesis matrix of the difference family, M is
    max(||F^dagger D||^2, ||G^dagger D||^2), +inf exactly when range(D)
    escapes range(F) or range(G).  D is formed at the larger scale; each
    side reads Douglas's lemma against its own family, as
    ||(2^e F)^+ D||^2 = 4^-e ||F^+ D||^2 holds exactly."""
    if F.size != G.size or F.dimension != G.dimension:
        raise ValueError("families must have equal lengths and spaces")
    top = max(shift, 0)
    d = (_ldexp(F.vectors, shift - top) - _ldexp(G.vectors, -top)).T
    svd_f = _synthesis_svd(F)
    value, side = -1.0, None
    for svd, power in ((svd_f, 2 * (top - shift)), (_synthesis_svd(G), 2 * top)):
        s = _douglas(d, *svd, tol)
        sup = _finite("the constant M", lambda: math.ldexp(s.sup, power)) if s.included else s.sup
        if sup > value:  # F's on a tie
            value, side = sup, s
    witness = side.witness
    if value == math.inf:
        return FamilyPerturbation(math.inf, False, witness, False), svd_f
    return FamilyPerturbation(value, True, witness, value <= 1.0), svd_f


def derive_family_perturbed_bounds(A: float, B: float, M: float) -> DerivedBound:
    """Bounds carried by the perturbed family under a finite constant M:

        A' = A / (sqrt(M) + 1)^2,    B' = B (sqrt(M) + 1)^2.

    verify_bounds of the pair against the perturbed family checks them.
    """
    if not math.isfinite(M) or M < 0.0:
        raise ValueError(f"finite nonnegative M required, got {M}")
    factor = (math.sqrt(M) + 1.0) ** 2
    return DerivedBound(A / factor, B * factor)

