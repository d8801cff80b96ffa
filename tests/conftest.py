"""Shared fixtures and independent search oracles for the test suite.

The sphere-search helpers evaluate quadratic-form quotients directly on
seeded unit-sphere samples and polish the best candidate by projected
gradient steps; they never touch an eigensolver, so they stay independent
of the spectral code paths they are used to check.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from fuzzyframes import BaseSpace, FrameFamily, FuzzyModel


# ---------------------------------------------------------------------------
# Random instances


def rand_vector(rng: np.random.Generator, n: int, field: str = "real") -> np.ndarray:
    v = rng.standard_normal(n)
    if field == "complex":
        v = v + 1j * rng.standard_normal(n)
    return v


def rand_matrix(rng: np.random.Generator, rows: int, cols: int, field: str = "real") -> np.ndarray:
    m = rng.standard_normal((rows, cols))
    if field == "complex":
        m = m + 1j * rng.standard_normal((rows, cols))
    return m


def rand_family(
    rng: np.random.Generator, n: int, m: int, field: str = "real", profile: str = "scaled"
) -> FrameFamily:
    """Random m-vector family in dimension n; full rank with m >= n (a.s.)."""
    model = FuzzyModel(BaseSpace(n, field), profile)
    return FrameFamily(rand_matrix(rng, m, n, field), model)


def rand_kframe_instance(
    rng: np.random.Generator, n: int, m: int, field: str = "real", profile: str = "scaled"
) -> tuple[FrameFamily, np.ndarray]:
    """Family plus an operator K = F W, so range(K) <= range(F) by construction."""
    family = rand_family(rng, n, m, field, profile)
    w = rand_matrix(rng, m, n, field)
    K = family.vectors.T @ w
    return family, K


def rand_deficient_instance(
    rng: np.random.Generator, n: int, m: int, field: str = "real", profile: str = "scaled"
) -> tuple[FrameFamily, np.ndarray]:
    """Family spanning a proper subspace plus a full-rank K escaping it."""
    model = FuzzyModel(BaseSpace(n, field), profile)
    vectors = rand_matrix(rng, m, n, field)
    vectors[:, -1] = 0.0  # family misses the last coordinate direction
    K = rand_matrix(rng, n, n, field) + n * np.eye(n)
    return FrameFamily(vectors, model), K


# ---------------------------------------------------------------------------
# Sphere-search oracles


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    return x / norms


def _forms(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.real(np.einsum("ij,ij->i", x.conj(), x @ s.T))


def sphere_quotient_extremum(
    P: np.ndarray,
    Q: np.ndarray,
    rng: np.random.Generator,
    samples: int = 100_000,
    mode: str = "max",
    polish: int = 300,
) -> float:
    """Extremum of <Pf,f> / <Qf,f> by seeded sampling plus gradient polish."""
    assert mode in ("max", "min")
    n = P.shape[0]
    complex_field = bool(np.iscomplexobj(P) or np.iscomplexobj(Q))
    x = rng.standard_normal((samples, n))
    if complex_field:
        x = x + 1j * rng.standard_normal((samples, n))
    x = _unit_rows(x)
    qp = _forms(x, P)
    qq = _forms(x, Q)
    mask = qq > 1e-10 * max(float(qq.max()), 1e-300)
    ratios = qp[mask] / qq[mask]
    pick = int(np.argmax(ratios)) if mode == "max" else int(np.argmin(ratios))
    f = x[mask][pick]
    sign = 1.0 if mode == "max" else -1.0

    def value(v: np.ndarray) -> float:
        den = float(np.real(np.vdot(v, Q @ v)))
        if den <= 0.0:
            return -np.inf
        return sign * float(np.real(np.vdot(v, P @ v))) / den

    best = value(f)
    step = 0.1
    for _ in range(polish):
        den = float(np.real(np.vdot(f, Q @ f)))
        r = float(np.real(np.vdot(f, P @ f))) / den
        g = sign * 2.0 * (P @ f - r * (Q @ f)) / den
        g = g - np.vdot(f, g) * f
        gn = np.linalg.norm(g)
        if gn < 1e-15:
            break
        cand = f + step * g / gn
        cand = cand / np.linalg.norm(cand)
        cv = value(cand)
        if cv > best:
            f, best = cand, cv
            step = min(step * 1.5, 1.0)
        else:
            step *= 0.5
            if step < 1e-13:
                break
    return sign * best


def operator_norm_sampled(
    T: np.ndarray, rng: np.random.Generator, samples: int = 10_000, polish: int = 300
) -> float:
    """Largest ratio ||Tx|| / ||x|| found by sampling plus polish."""
    gram = T.conj().T @ T
    value = sphere_quotient_extremum(gram, np.eye(T.shape[1]), rng, samples, "max", polish)
    return float(np.sqrt(max(value, 0.0)))


def sphere_violation_max(
    K1: np.ndarray,
    K2: np.ndarray,
    lambda1: float,
    lambda2: float,
    rng: np.random.Generator,
    samples: int = 10_000,
    polish: int = 100,
) -> tuple[float, np.ndarray]:
    """Largest ||(K1-K2)* f|| - lam1 ||K1* f|| - lam2 ||K2* f|| over unit f,
    by seeded sampling plus gradient polish; returns (value, f)."""
    n = K1.shape[0]
    delta = K1 - K2
    x = rng.standard_normal((samples, n))
    if np.iscomplexobj(K1) or np.iscomplexobj(K2):
        x = x + 1j * rng.standard_normal((samples, n))
    x = _unit_rows(x)

    def values(rows: np.ndarray) -> np.ndarray:
        return (
            np.linalg.norm(rows @ delta.conj(), axis=1)
            - lambda1 * np.linalg.norm(rows @ K1.conj(), axis=1)
            - lambda2 * np.linalg.norm(rows @ K2.conj(), axis=1)
        )

    f = x[int(np.argmax(values(x)))]
    best = float(values(f[None, :])[0])
    step = 0.1
    for _ in range(polish):
        g = np.zeros_like(f)
        for coef, m in ((1.0, delta), (-lambda1, K1), (-lambda2, K2)):
            image = m.conj().T @ f
            norm = np.linalg.norm(image)
            if norm > 1e-14:
                g = g + coef * (m @ image) / norm
        g = g - np.vdot(f, g) * f
        gn = np.linalg.norm(g)
        if gn < 1e-15:
            break
        cand = f + step * g / gn
        cand = cand / np.linalg.norm(cand)
        cv = float(values(cand[None, :])[0])
        if cv > best:
            f, best = cand, cv
            step = min(step * 1.5, 1.0)
        else:
            step *= 0.5
            if step < 1e-13:
                break
    return best, f


# ---------------------------------------------------------------------------
# The two worked instances used throughout


@pytest.fixture
def c3_instance():
    """Rank-deficient C^3 instance: family {2e1, e2/sqrt2, e2/sqrt2}."""
    model = FuzzyModel(BaseSpace(3, "complex"), "scaled")
    family = FrameFamily(
        np.array(
            [[2, 0, 0], [0, 2**-0.5, 0], [0, 2**-0.5, 0]], dtype=complex
        ),
        model,
    )
    K = np.array([[1, 1, 1], [0, -1, 1], [0, 0, 0]], dtype=complex)
    return {"model": model, "family": family, "K": K}


@pytest.fixture
def r3_instance():
    """Full-rank R^3 instance: family {(1,1,1), (1,-1,-1), (0,1,-2)}."""
    model = FuzzyModel(BaseSpace(3, "real"), "scaled")
    family = FrameFamily(
        np.array([[1.0, 1, 1], [1, -1, -1], [0, 1, -2]]), model
    )
    K = np.array([[1.0, 1, 0], [0, 0, 1], [0, 0, 0]])
    return {"model": model, "family": family, "K": K}


# ---------------------------------------------------------------------------
# Decomposition counter

LINALG_DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "pinv", "solve")


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counter of the numpy.linalg decompositions made during the test.

    The package calls them as ``np.linalg.<name>``, so patching the module
    attributes sees every call; ``sum(linalg_calls.values())`` is the total.
    """
    calls: Counter = Counter()
    for name in LINALG_DECOMPOSITIONS:

        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls
