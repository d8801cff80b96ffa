"""Closure operations: combining the operators of a K-frame, transporting a
family by an operator, and certifying frames from factorizations.

Every derived bound produced here is validated through
:func:`fuzzyframes.frame_core.verify_bounds` before being reported, except
the bound of :func:`build_family`, which comes next to the optimal one.

Two derived constants deviate from their sources, which contain arithmetic
slips (the quoted constants fail on equal-operator instances; see the
docstrings of :func:`combine_scalar` and :func:`combine_many`).  The
corrected constants keep the same structure and pass verification.

Operands are expected at unit scale (see ``operator_algebra``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .frame_core import (
    DEFAULT_ALPHAS,
    BoundCertificate,
    FrameFamily,
    VerificationResult,
    optimal_frame_bounds,
    optimal_kframe_bounds,
    synthesis_matrix,
    _alpha_independent,
    verify_bounds,
)
from .operator_algebra import (
    PSD_TOL,
    RELATIVE_RANK_TOL,
    _gram,
    as_matrix,
    douglas_lambda,
    spectral_norm,
    within_tolerance,
)

__all__ = [
    "DerivedBound",
    "CombinationResult",
    "BesselPairResult",
    "TransformResult",
    "TransferResult",
    "BuiltFamily",
    "combine_scalar",
    "combine_product",
    "combine_many",
    "bessel_pair_kframe",
    "transform_family",
    "operator_transfer",
    "build_family",
]

@dataclass(frozen=True)
class DerivedBound:
    """Bound constants produced by a closure formula from source bounds.

    K-frame bounds may have A > B (the lower inequality is against
    ||K* f||^2, the upper against ||f||^2), so no order is imposed; every
    derived pair is checked by verify_bounds instead.
    """

    source_bounds: tuple[tuple[float, float], ...]
    formula_tag: str
    A: float
    B: float


@dataclass(frozen=True)
class CombinationResult:
    operator: np.ndarray
    derived: DerivedBound
    verification: VerificationResult
    common_bounds_substituted: bool = False


def _kframe_cert(
    family: FrameFamily, K: np.ndarray, cert: Optional[BoundCertificate], tol: float
) -> BoundCertificate:
    out = cert if cert is not None else optimal_kframe_bounds(family, K, tol=tol)
    if not (out.A > 0.0):
        raise ValueError("family is not a K-frame for the supplied operator")
    return out


def combine_scalar(
    family: FrameFamily,
    K1: np.ndarray,
    K2: np.ndarray,
    a: complex,
    b: complex,
    cert1: Optional[BoundCertificate] = None,
    cert2: Optional[BoundCertificate] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    convention: str = "once",
    tol: float = PSD_TOL,
) -> CombinationResult:
    """Certify the family for the combination a K1 + b K2.

    States the paper's closure of K-frames under scalar combinations.
    Derived constants:

        A' = [ 4 max(|a|^2, |b|^2) (1/A1 + 1/A2) ]^-1,     B' = (B1 + B2) / 2.

    The lower constant follows from the triangle inequality and
    (|a| x + |b| y)^2 <= 4 max(|a|^2, |b|^2) max(x, y)^2; dropping the
    factor 4 (as the source statement does) fails already for
    K1 = K2 and a = b = 1 on a tight K-frame.
    """
    if a == 0 and b == 0:
        raise ValueError("scalar pair (a, b) must not both vanish")
    k1 = as_matrix(K1)
    k2 = as_matrix(K2)
    c1 = _kframe_cert(family, k1, cert1, tol)
    c2 = _kframe_cert(family, k2, cert2, tol)
    a1, b1 = c1.A, c1.B
    a2, b2 = c2.A, c2.B
    lower = 1.0 / (4.0 * max(abs(a) ** 2, abs(b) ** 2) * (1.0 / a1 + 1.0 / a2))
    upper = 0.5 * (b1 + b2)
    op = a * k1 + b * k2
    derived = DerivedBound(((a1, b1), (a2, b2)), "scalar-pair", lower, upper)
    verification = verify_bounds(family, lower, upper, op, alphas, convention, tol)
    return CombinationResult(op, derived, verification)


def combine_product(
    family: FrameFamily,
    K1: np.ndarray,
    K2: np.ndarray,
    cert1: Optional[BoundCertificate] = None,
    cert2: Optional[BoundCertificate] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    convention: str = "once",
    tol: float = PSD_TOL,
) -> CombinationResult:
    """Certify the family for the product K1 K2.

    States the paper's closure of K-frames under the product of operators.
    ||(K1 K2)* f|| <= ||K2|| ||K1* f|| gives A' = A1 / ||K2||^2, B' = B1.
    A zero K2 makes the lower inequality vacuous (A' = inf).
    """
    k1 = as_matrix(K1)
    k2 = as_matrix(K2)
    c1 = _kframe_cert(family, k1, cert1, tol)
    c2 = _kframe_cert(family, k2, cert2, tol)
    norm2 = spectral_norm(k2) ** 2
    lower = c1.A / norm2 if norm2 > 0.0 else math.inf
    derived = DerivedBound(
        ((c1.A, c1.B), (c2.A, c2.B)), "product-pair", lower, c1.B
    )
    op = k1 @ k2
    verification = verify_bounds(family, lower, c1.B, op, alphas, convention, tol)
    return CombinationResult(op, derived, verification)


def combine_many(
    family: FrameFamily,
    operators: Sequence[np.ndarray],
    coefficients: Optional[Sequence[complex]] = None,
    certs: Optional[Sequence[BoundCertificate]] = None,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    convention: str = "once",
    tol: float = PSD_TOL,
) -> CombinationResult:
    """n-ary closure: sum a_j K_j (coefficients given) or the composition of
    the K_j applied in list order (coefficients absent).

    States both closures of the paper for n operators.
    The hypothesis wants one common pair (A, B) for every operator; when the
    individual certificates differ, the weakest common pair
    (min A_j, max B_j) is substituted and flagged.

    Derived constants with n operators:

        sum:      A' = A / (n^2 max_j |a_j|^2),          B' = B
        product:  A' = A / prod_{j<n} ||K_j||^2,         B' = B

    (The sum constant needs n^2, not the quoted n: for two copies of the
    same operator with unit coefficients the quoted constant already fails
    on a tight K-frame.  The product is the composition K_n ... K_1, the
    order for which the quoted constant is the valid one.)
    """
    mats = [as_matrix(K) for K in operators]
    if not mats:
        raise ValueError("need at least one operator")
    if certs is None:
        certs = [optimal_kframe_bounds(family, k, tol=tol) for k in mats]
    if len(certs) != len(mats):
        raise ValueError("one certificate per operator required")
    for c in certs:
        if not c.A > 0.0:
            raise ValueError("family is not a K-frame for every supplied operator")
    a_common = min(c.A for c in certs)
    b_common = max(c.B for c in certs)
    substituted = not all(
        (c.A == a_common or within_tolerance(c.A - a_common, tol, c.A))  # A = inf: K = 0
        and within_tolerance(b_common - c.B, tol, b_common)
        for c in certs
    )
    sources = tuple((c.A, c.B) for c in certs)
    n = len(mats)

    if coefficients is not None:
        coeff = [complex(c) for c in coefficients]
        if len(coeff) != n:
            raise ValueError("one coefficient per operator required")
        if all(c == 0 for c in coeff):
            raise ValueError("coefficients must not all vanish")
        top = max(abs(c) ** 2 for c in coeff)
        lower = a_common / (n * n * top)
        op = sum(c * k for c, k in zip(coeff, mats))
        tag = "scalar-combination"
    else:
        op = mats[0]
        for k in mats[1:]:
            op = k @ op  # composition in list order: K_n ... K_1
        norms = [spectral_norm(k) ** 2 for k in mats[:-1]]
        denom = math.prod(norms)
        lower = a_common / denom if denom > 0.0 else math.inf
        tag = "operator-product"

    derived = DerivedBound(sources, tag, lower, b_common)
    verification = verify_bounds(family, lower, b_common, op, alphas, convention, tol)
    return CombinationResult(op, derived, verification, substituted)


@dataclass(frozen=True)
class BesselPairResult:
    operator: np.ndarray
    factorization_residual: float
    certificate: BoundCertificate
    derived: DerivedBound
    verification: VerificationResult


def bessel_pair_kframe(
    F: FrameFamily,
    G: FrameFamily,
    K: np.ndarray,
    alphas: Sequence[float] = DEFAULT_ALPHAS,
    convention: str = "once",
    tol: float = PSD_TOL,
) -> BesselPairResult:
    """Certify F as a K-frame from the factorization T_F T_G* = K.

    States the construction of K-frames from a pair of Bessel sequences.
    With Bessel bounds C for F and D for G, the factorization forces the
    lower bound 1/D for F (swap the arguments for the twin statement with
    1/C).  A failed factorization identity is an error with the residual.
    """
    k = as_matrix(K)
    tf = synthesis_matrix(F)
    tg = synthesis_matrix(G)
    if tf.shape[1] != tg.shape[1]:
        raise ValueError("families must share a coefficient space")
    bessel_f = optimal_frame_bounds(F, convention)
    bessel_g = optimal_frame_bounds(G, convention)
    residual = float(np.linalg.norm(tf @ tg.conj().T - k))
    # ||T_F||_F ||T_G||_F bounds the size of T_F T_G*
    if not within_tolerance(residual, tol, float(np.linalg.norm(tf) * np.linalg.norm(tg))):
        raise ValueError(
            f"synthesis factorization does not reproduce K (residual {residual:.3e})"
        )
    lower = 1.0 / bessel_g.B
    derived = DerivedBound(
        ((bessel_f.A, bessel_f.B), (bessel_g.A, bessel_g.B)),
        "bessel-pair",
        lower,
        bessel_f.B,
    )
    verification = verify_bounds(F, lower, bessel_f.B, k, alphas, convention, tol)
    certificate = BoundCertificate(
        kind="k_frame",
        A=lower,
        B=bessel_f.B,
        alpha_independent=_alpha_independent(F.model, convention),
        convention=convention,
    )
    return BesselPairResult(k, residual, certificate, derived, verification)


@dataclass(frozen=True)
class TransformResult:
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
    if variant not in ("invertible", "coisometry"):
        raise ValueError(f"unknown variant {variant!r}")
    t = as_matrix(T)
    k = as_matrix(K)
    sv = np.linalg.svd(t, compute_uv=False)  # ||T||, invertibility and ||T^-1||
    norm_t = float(sv[0])
    comm = float(np.linalg.norm(t @ k - k @ t))
    scale = float(np.linalg.norm(t) * np.linalg.norm(k))
    if not within_tolerance(comm, tol, scale):
        raise ValueError(f"T and K do not commute (relative residual {comm / scale:.3e})")
    c = _kframe_cert(family, k, None, tol)

    if variant == "invertible":
        if sv[-1] <= RELATIVE_RANK_TOL * sv[0]:
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
    derived = DerivedBound(((c.A, c.B),), f"{variant}-transform", lower, upper)
    verification = verify_bounds(moved, lower, upper, k, alphas, convention, tol)
    return TransformResult(moved, derived, verification, variant)


@dataclass(frozen=True)
class TransferResult:
    lam: float
    derived: DerivedBound
    verification: VerificationResult


def operator_transfer(
    family: FrameFamily,
    K: np.ndarray,
    T: np.ndarray,
    cert: Optional[BoundCertificate] = None,
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
    c = _kframe_cert(family, k, cert, tol)
    lam = douglas_lambda(t, k, tol)  # raises RangeInclusionError on escape
    lower = c.A / lam**2 if lam > 0.0 else math.inf
    derived = DerivedBound(((c.A, c.B),), "range-transfer", lower, c.B)
    verification = verify_bounds(family, lower, c.B, t, alphas, convention, tol)
    return TransferResult(lam, derived, verification)


@dataclass(frozen=True)
class BuiltFamily:
    family: FrameFamily
    certificate: BoundCertificate
    inclusion_holds: bool
    lam: Optional[float]
    derived_lower: Optional[float]


def build_family(
    model, T: np.ndarray, K: np.ndarray, tol: float = PSD_TOL
) -> BuiltFamily:
    """Inverse direction: family = columns of T, certified as a K-frame when
    range(K) <= range(T), with lower bound 1/lam^2 from K K* <= lam^2 T T*.
    States the characterization of K-frames as images T e_i with R(K) <= R(T).
    The family's synthesis operator is T, so its optimal K-frame bound is
    that lower bound, A = 1 / ||T^+ K||^2, and 0 exactly without inclusion."""
    family = FrameFamily(as_matrix(T).T, model)
    cert = optimal_kframe_bounds(family, K, tol=tol)
    if cert.A == 0.0:
        return BuiltFamily(family, cert, False, lam=None, derived_lower=None)
    return BuiltFamily(family, cert, True, lam=1.0 / math.sqrt(cert.A), derived_lower=cert.A)
