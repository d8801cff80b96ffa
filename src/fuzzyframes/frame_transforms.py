"""Closure operations: combining the operators of a K-frame and transporting
a family by an operator.

Every derived bound produced here is validated through
:func:`fuzzyframes.frame_core.verify_bounds` before being reported.

The constants of :func:`combine` differ from the ones the paper quotes.
Its sum constant [max(|a|^2, |b|^2) (1/A1 + 1/A2)]^-1 for a K1 + b K2
fails already for K1 = K2 and a = b = 1 on a tight K-frame, where it gives
A/2 and A/4 is optimal.  The constant used instead, 1 / (|a| / sqrt(A1) +
|b| / sqrt(A2))^2, gives A/4 there, is never below the quoted one with its
factor 4 restored, and depends on each term a K only, not on how it is
split between scalar and operator.  The paper's product statement assumes
one common pair (A, B) for both operators; the product K1 K2 needs K1's
lower bound only.  B' = sigma_max(F)^2 is the upper bound of every K-frame
of the family, common to every operator.

Operands are expected at unit scale (see ``operator_algebra``).
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .frame_core import (
    DEFAULT_ALPHAS,
    BoundCertificate,
    FrameFamily,
    VerificationResult,
    optimal_kframe_bounds,
    synthesis_matrix,
    _optimal_bounds,
    _synthesis_svd,
    verify_bounds,
)
from .operator_algebra import (
    PSD_TOL,
    _gram,
    _rank,
    _unit_scale,
    as_matrix,
    douglas_factorize,
    spectral_norm,
    within_tolerance,
)

__all__ = [
    "VARIANTS",
    "DerivedBound",
    "CombinationResult",
    "TransformResult",
    "TransferResult",
    "combine",
    "transform_family",
    "operator_transfer",
]

#: the two transports of transform_family
VARIANTS = ("invertible", "coisometry")


class DerivedBound(NamedTuple):
    """Bound constants produced by a closure formula.

    K-frame bounds may have A > B (the lower inequality is against
    ||K* f||^2, the upper against ||f||^2), so no order is imposed; every
    derived pair is checked by verify_bounds instead.
    """

    A: float
    B: float


class CombinationResult(NamedTuple):
    operator: np.ndarray
    derived: DerivedBound
    verification: VerificationResult
    #: the optimal K-frame certificate of 2^-exponent operator, the combined
    #: operator held at unit scale
    optimal: BoundCertificate
    exponent: int
    #: A' / A_opt for the optimal A_opt of the combined operator, at most
    #: 1 + tol; None when A_opt is 0 or inf.  Reported, never decided on.
    ratio: Optional[float]


def _kframe_cert(family: FrameFamily, K: np.ndarray, tol: float) -> BoundCertificate:
    out = optimal_kframe_bounds(family, K, tol=tol)
    if not (out.A > 0.0):
        raise ValueError("family is not a K-frame for the supplied operator")
    return out


def combine(
    family: FrameFamily,
    operators: Sequence[np.ndarray],
    coefficients: Optional[Sequence[complex]] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    convention: str = "once",
    tol: float = PSD_TOL,
) -> CombinationResult:
    """Certify the family for sum_j a_j K_j (coefficients given) or for the
    product K_1 K_2 ... K_n as written (coefficients None).

    States the paper's closure of K-frames under scalar combinations and
    products (Gavruta, Frames for operators, ACHA 32, 2012).  With A_j the
    optimal lower bound of K_j and B = sigma_max(F)^2 the upper bound of
    every K-frame of the family:

        sum:      A' = 1 / (sum_{a_j != 0} |a_j| / sqrt(A_j))^2,
        product:  A' = A_1 / prod_{j > 1} ||K_j||^2,        B' = B.

    The sum follows from ||(sum a_j K_j)* f|| <= sum |a_j| ||K_j* f|| and
    ||K_j* f|| <= (frame sum / A_j)^(1/2); it does not change when a term
    a_j K_j is written as (a_j t)(K_j / t), and by Cauchy-Schwarz it is at
    least 1 / ((sum |a_j|^2) (sum_{a_j != 0} 1 / A_j)).  The product
    follows from ||(K_1 ... K_n)* f|| <= prod_{j > 1} ||K_j|| ||K_1* f||,
    which needs K_1's certificate only.  A K_j whose certificate the rule
    needs and whose bound is 0 raises ValueError naming it.  One SVD of F
    gives every certificate and the optimal one of the combined operator,
    which is reported next to the derived pair.
    """
    mats = [as_matrix(K) for K in operators]
    if not mats:
        raise ValueError("need at least one operator")
    if coefficients is not None and len(coefficients) != len(mats):
        raise ValueError("one coefficient per operator required")
    needed = [0] if coefficients is None else [j for j, a in enumerate(coefficients) if a != 0]
    svd = _synthesis_svd(family)
    certs = [_optimal_bounds(family, mats[j], *svd, tol) for j in needed]
    for j, c in zip(needed, certs):
        if not c.A > 0.0:
            raise ValueError(f"family is not a K-frame for K{j + 1}: its optimal lower bound is 0")
    if coefficients is None:
        op = mats[0]
        for k in mats[1:]:
            op = op @ k
        norms = math.prod(spectral_norm(k) ** 2 for k in mats[1:])
        lower = certs[0].A / norms if norms > 0.0 else math.inf
    else:
        op = sum(a * k for a, k in zip(coefficients, mats))
        root = sum(abs(coefficients[j]) / math.sqrt(c.A) for j, c in zip(needed, certs))
        lower = 1.0 / root**2 if root > 0.0 else math.inf  # op = 0 when root = 0
    upper = float(svd[1][0]) ** 2
    verification = verify_bounds(family, lower, upper, op, alphas, convention, tol)
    held, e = _unit_scale(op)  # a sum may cancel far below unit scale
    optimal = _optimal_bounds(family, held, *svd, tol)
    ratio = math.ldexp(lower, 2 * e) / optimal.A if 0.0 < optimal.A < math.inf else None
    return CombinationResult(op, DerivedBound(lower, upper), verification, optimal, e, ratio)


class TransformResult(NamedTuple):
    family: FrameFamily
    derived: DerivedBound
    verification: VerificationResult
    variant: str


def transform_family(
    family: FrameFamily,
    T: np.ndarray,
    K: np.ndarray,
    variant: str = "invertible",
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    convention: str = "once",
    tol: float = PSD_TOL,
) -> TransformResult:
    """Transport a K-frame to {T f_i} by an operator commuting with K.

    invertible variant:  bounds (A ||T^-1||^-2, B ||T||^2), T full rank;
    coisometry variant:  bounds (A, B ||T||^2) with T T* = I.

    Commutation T K = K T is a hypothesis; its failure is an error.  It and
    T T* = I are decided in Frobenius norms, against ||T||_F ||K||_F and
    max(||T T*||_F, ||I||_F).
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    t = as_matrix(T)
    k = as_matrix(K)
    sv = np.linalg.svd(t, compute_uv=False)  # ||T||, invertibility and ||T^-1||
    norm_t = float(sv[0])
    comm = float(np.linalg.norm(t @ k - k @ t))
    scale = float(np.linalg.norm(t) * np.linalg.norm(k))
    if not within_tolerance(comm, tol, scale):
        raise ValueError(f"T and K do not commute (relative residual {comm / scale:.3e})")
    c = _kframe_cert(family, k, tol)

    if variant == "invertible":
        if _rank(sv) < len(sv):
            raise ValueError("transform operator is not invertible")
        inv_norm = 1.0 / float(sv[-1])
        lower = c.A / inv_norm**2
    else:
        gram = _gram(t)
        res = float(np.linalg.norm(gram - np.eye(gram.shape[0])))
        if not within_tolerance(res, tol, max(float(np.linalg.norm(gram)), math.sqrt(len(gram)))):
            raise ValueError(f"T T* is not the identity (residual {res:.3e})")
        lower = c.A
    upper = c.B * norm_t**2

    moved = FrameFamily((t @ synthesis_matrix(family)).T, family.model)
    derived = DerivedBound(lower, upper)
    verification = verify_bounds(moved, lower, upper, k, alphas, convention, tol)
    return TransformResult(moved, derived, verification, variant)


class TransferResult(NamedTuple):
    lam: float
    derived: DerivedBound
    verification: VerificationResult


def operator_transfer(
    family: FrameFamily,
    K: np.ndarray,
    T: np.ndarray,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    convention: str = "once",
    tol: float = PSD_TOL,
) -> TransferResult:
    """Transfer a K-frame certificate to the operator T when R(T) <= R(K).

    T T* <= lam^2 K K* with lam from the factorization gives the lower
    bound A / lam^2 (vacuous when T = 0); range escape is a hypothesis
    violation and raises RangeInclusionError.
    """
    k = as_matrix(K)
    t = as_matrix(T)
    c = _kframe_cert(family, k, tol)
    lam = douglas_factorize(t, k, tol).lam  # raises RangeInclusionError on escape
    lower = c.A / lam**2 if lam > 0.0 else math.inf
    derived = DerivedBound(lower, c.B)
    verification = verify_bounds(family, lower, c.B, t, alphas, convention, tol)
    return TransferResult(lam, derived, verification)

