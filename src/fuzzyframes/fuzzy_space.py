"""Concrete fuzzy inner product models on finite-dimensional spaces.

Two membership profiles are supported.  The ``scaled`` profile is induced
by a classical inner product through

    mu(x, y, t) = |t| / (|t| + ||x|| ||y||)   for real t > ||x|| ||y||,
    mu(x, y, t) = 0                           otherwise,

and carries level norms ||x||_a = sqrt(a / (1 - a)) * ||x||.  The ``crisp``
profile is the 0/1 indicator mu = [t > ||x|| ||y||], whose level norms all
equal the classical norm.  Level inner products follow the same rule:
<x, y>_a = scale(a) * <x, y> with scale(a) = a/(1-a) or 1.

Every operation here is a pure function of immutable values.  The
membership, the level scale and the level norm broadcast over arrays of
vectors and values, so the axiom check evaluates all its samples at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "PROFILES",
    "MAX_SAMPLES",
    "MAX_DIMENSION",
    "BaseSpace",
    "FuzzyModel",
    "AxiomResult",
    "AxiomReport",
    "check_alpha",
    "check_fip_axioms",
]

PROFILES = ("scaled", "crisp")

#: imaginary part below this (relative) threshold counts as a positive real
IMAG_TOL = 1e-12

#: largest sample budget of the axiom check, ten times the default of 1000;
#: at n = 64 over the complex field one samples x n draw is then 10 MB
MAX_SAMPLES = 10_000

#: largest dimension, the largest n for which operator_algebra's Cholesky
#: certificate is proved (see CHOLESKY_TOL_FACTOR); there, with MAX_SAMPLES
#: complex samples, one draw is 82 MB and the axiom check peaks near 1.1 GB
#: (tracemalloc at n = 17 and 51, extrapolated linearly; real takes half)
MAX_DIMENSION = 510

def check_alpha(alpha):
    """Validate a level value, or an array of them, each strictly inside (0, 1).

    A single level comes back as a Python float, an array as a float array.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if not ((0.0 < a) & (a < 1.0)).all():
        raise ValueError(f"level must satisfy 0 < alpha < 1, got {alpha!r}")
    return float(a) if a.ndim == 0 else a


@dataclass(frozen=True)
class BaseSpace:
    """Finite-dimensional coefficient space over the real or complex field."""

    dimension: int
    field: str = "real"  # "real" | "complex"

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        if self.field not in ("real", "complex"):
            raise ValueError(f"field must be 'real' or 'complex', got {self.field!r}")

    @property
    def dtype(self) -> np.dtype:
        return np.dtype(np.complex128 if self.field == "complex" else np.float64)

    def vector(self, entries: Sequence[complex]) -> np.ndarray:
        """Coerce entries to a validated vector of this space."""
        x = np.asarray(entries, dtype=self.dtype)
        if x.shape != (self.dimension,):
            raise ValueError(
                f"expected vector of length {self.dimension}, got shape {x.shape}"
            )
        return x

    def vectors(self, entries) -> np.ndarray:
        """Coerce entries to an array of vectors of this space, shape (..., n)."""
        x = np.asarray(entries, dtype=self.dtype)
        if x.shape[-1:] != (self.dimension,):
            raise ValueError(
                f"expected vectors of length {self.dimension}, got shape {x.shape}"
            )
        return x


@dataclass(frozen=True)
class FuzzyModel:
    """A base space together with one of the two membership profiles."""

    space: BaseSpace
    profile: str = "scaled"  # "scaled" | "crisp"

    def __post_init__(self) -> None:
        if self.profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {self.profile!r}")

    def scale(self, alpha):
        """Level scaling factor: a/(1-a) for scaled, 1 for crisp.

        Takes one level (giving a float) or an array of levels.
        """
        a = check_alpha(alpha)
        if self.profile == "scaled":
            return a / (1.0 - a)
        return 1.0

    def check_vector(self, x) -> np.ndarray:
        return self.space.vector(x)

    def mu(self, x, y, t):
        """Membership of t as a value for the inner product of x and y.

        Vanishes off the positive real axis and at or below the product of
        the classical norms; above that threshold the scaled profile takes
        |t| / (|t| + ||x|| ||y||) and the crisp profile takes 1.

        Broadcasts: x and y have shape (..., n) and t, real or complex, has
        shape (...).  One pair of vectors with a scalar t gives a float.
        """
        nx = np.linalg.norm(self.space.vectors(x), axis=-1)
        cut = nx * (nx if y is x else np.linalg.norm(self.space.vectors(y), axis=-1))
        t = np.asarray(t)
        tv = t.real
        above = tv > cut  # cut >= 0, so t is also positive here
        if np.iscomplexobj(t):
            above &= np.abs(t.imag) <= IMAG_TOL * np.maximum(1.0, np.abs(t))
        if self.profile == "scaled":
            value = np.divide(tv, tv + cut, out=np.zeros(above.shape), where=above)
        else:
            value = above.astype(np.float64)
        return float(value) if value.ndim == 0 else value

    def alpha_norm(self, x, alpha):
        """Closed-form level norm sqrt(scale(alpha)) * ||x||.

        Broadcasts like ``mu``: x of shape (..., n), alpha of shape (...).
        A negative or non-finite level scale leaves the level norm undefined
        and raises ValueError.
        """
        x = self.space.vectors(x)
        scale = np.asarray(self.scale(alpha), dtype=np.float64)
        if not (np.isfinite(scale) & (scale >= 0.0)).all():
            raise ValueError(f"level norm undefined: level scale {scale!r}")
        value = np.sqrt(scale) * np.linalg.norm(x, axis=-1)
        return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# Axiom checking


@dataclass(frozen=True)
class AxiomResult:
    axiom: str
    passed: bool
    violations: int = 0
    witness: Optional[str] = None


@dataclass(frozen=True)
class AxiomReport:
    profile: str
    sample_count: int
    seed: int
    results: tuple[AxiomResult, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


class _AxiomDraws(NamedTuple):
    """The random points of an axiom check, one row or entry per sample."""

    x: np.ndarray  # samples x n, in the space's field
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray  # complex
    t: np.ndarray  # complex
    tpos: np.ndarray  # uniform on [0.05, 8)
    spos: np.ndarray  # uniform on [0.05, 8)
    a: np.ndarray  # the FIP9 level, uniform on [0.02, 0.98)


def _axiom_draws(rng: np.random.Generator, space: BaseSpace, count: int) -> _AxiomDraws:
    """Draw every sample of the axiom check at once, in a fixed order."""

    def vectors() -> np.ndarray:
        v = rng.standard_normal((count, space.dimension))
        if space.field == "complex":
            v = v + 1j * rng.standard_normal((count, space.dimension))
        return v

    def complex_scalars() -> np.ndarray:
        return rng.standard_normal(count) + 1j * rng.standard_normal(count)

    return _AxiomDraws(
        x=vectors(),
        y=vectors(),
        z=vectors(),
        s=complex_scalars(),
        t=complex_scalars(),
        tpos=rng.uniform(0.05, 8.0, count),
        spos=rng.uniform(0.05, 8.0, count),
        a=rng.uniform(0.02, 0.98, count),
    )


def _axiom_result(name: str, checks, witness, per_sample: bool = False) -> AxiomResult:
    """Fold the violation masks of one axiom's sub-checks into its result.

    ``checks`` lists one boolean mask over the samples per sub-check.  Each
    firing sub-check counts, or with ``per_sample`` each sample with any
    firing sub-check counts once.  ``witness(k, j)`` describes the earliest
    violating sample k through the first sub-check j that fires there.
    """
    hits = np.stack(checks)
    hit_samples = hits.any(axis=0)
    count = int(hit_samples.sum() if per_sample else hits.sum())
    if count == 0:
        return AxiomResult(name, True)
    k = int(np.argmax(hit_samples))
    j = int(np.argmax(hits[:, k]))
    return AxiomResult(name, False, count, f"sample {k}: {witness(k, j)}")


def check_fip_axioms(
    model: FuzzyModel, sample_count: int = 1000, seed: int = 0
) -> AxiomReport:
    """Evaluate the inner-product membership axioms at seeded sample points.

    Checked at every sample of random vectors and scalars:

    * FIP1  superadditivity of memberships under vector addition
    * FIP2  product bound mu(x, y, |st|) >= min of the diagonal values
    * FIP3  conjugate symmetry mu(x, y, t) = mu(y, x, conj t)
    * FIP4  homogeneity mu(cx, y, t) = mu(x, y, t/|c|)
    * FIP5  zero membership off the positive real axis
    * FIP6  membership 1 at every t > 0 exactly for the zero vector
    * FIP7  monotonicity in t and limit 1 as t grows
    * FIP8  strictly positive diagonal membership at all t > 0 forces x = 0
    * FIP9  parallelogram law of the induced level norms (the pointwise
      min-form of this axiom is unsatisfiable for either profile, so the
      level-norm identity it exists to guarantee is what gets checked)

    All samples are drawn at once and each axiom is one whole-array
    expression over ``model.mu``.  FIP3 and FIP5 count a sample once, FIP6
    and FIP7 count each of their two sub-checks.  Violations are collected
    into the report, never raised; the witness names the first violating
    sample.
    """
    if not 1 <= sample_count <= MAX_SAMPLES:
        raise ValueError(f"sample_count must lie in [1, {MAX_SAMPLES}], got {sample_count}")
    space = model.space
    x, y, z, s, t, tpos, spos, a = _axiom_draws(
        np.random.default_rng(seed), space, sample_count
    )
    mu = model.mu
    eq_tol = 1e-9
    abs_s, abs_t = np.abs(s), np.abs(t)
    nx = np.linalg.norm(x, axis=-1)
    nonzero = nx > 1e-9
    zero = np.zeros(space.dimension)

    # FIP1 at nonnegative arguments |t|, |s|
    lhs1 = mu(x + y, z, abs_t + abs_s)
    rhs1 = np.minimum(mu(x, z, abs_t), mu(y, z, abs_s))
    fip1 = _axiom_result(
        "FIP1",
        [lhs1 < rhs1 - eq_tol],
        lambda k, j: f"mu(x+y)={float(lhs1[k]):.6g} < min={float(rhs1[k]):.6g}",
    )

    # FIP2
    lhs2 = mu(x, y, np.abs(s * t))
    rhs2 = np.minimum(mu(x, x, abs_s**2), mu(y, y, abs_t**2))
    fip2 = _axiom_result(
        "FIP2",
        [lhs2 < rhs2 - eq_tol],
        lambda k, j: f"mu(x,y,|st|)={float(lhs2[k]):.6g} < min={float(rhs2[k]):.6g}",
    )

    # FIP3 at a complex argument and at a positive real one
    fip3 = _axiom_result(
        "FIP3",
        [np.abs(mu(x, y, targ) - mu(y, x, np.conj(targ))) > eq_tol for targ in (t, tpos)],
        lambda k, j: f"asymmetric at t={(t[k], tpos[k])[j].item()!r}",
        per_sample=True,
    )

    # FIP4 with a nonzero scalar from the model's field
    c = s if space.field == "complex" else np.where(s.real == 0.0, 1.0, s.real)
    abs_c = np.abs(c)
    scalable = abs_c > 1e-6
    mismatch = np.abs(
        mu(c[:, None] * x, y, tpos) - mu(x, y, tpos / np.where(scalable, abs_c, 1.0))
    )
    fip4 = _axiom_result(
        "FIP4",
        [scalable & (mismatch > eq_tol)],
        lambda k, j: f"scaling mismatch at c={c[k].item()!r}",
    )

    # FIP5: vanishing off R+
    fip5 = _axiom_result(
        "FIP5",
        [mu(x, x, bad) != 0.0 for bad in (-tpos, tpos * 1j, -tpos + spos * 1j)],
        lambda k, j: "mu(x,x,{!r}) != 0".format(
            (-float(tpos[k]), complex(0.0, tpos[k]), complex(-tpos[k], spos[k]))[j]
        ),
        per_sample=True,
    )

    # FIP6: the zero vector has full membership, nonzero vectors do not
    fip6 = _axiom_result(
        "FIP6",
        [
            np.abs(mu(zero, zero, tpos) - 1.0) > eq_tol,
            nonzero & (np.abs(mu(x, x, 0.5 * nx * nx) - 1.0) <= eq_tol),
        ],
        lambda k, j: (
            f"mu(0,0,{float(tpos[k]):.4g}) != 1",
            "nonzero x with full membership",
        )[j],
    )

    # FIP7: monotone in t, limit 1
    t_lo, t_hi = np.minimum(tpos, spos), np.maximum(tpos, spos)
    limit = mu(x, x, 1e12 * (1.0 + nx * nx))
    fip7 = _axiom_result(
        "FIP7",
        [mu(x, x, t_lo) > mu(x, x, t_hi) + eq_tol, limit < 1.0 - 1e-6],
        lambda k, j: (
            f"not monotone on [{float(t_lo[k]):.4g},{float(t_hi[k]):.4g}]",
            f"limit at large t is {float(limit[k]):.6g}",
        )[j],
    )

    # FIP8: positive diagonal membership at all t>0 only for x = 0; the probe
    # N(x, nx/2) = mu(x, x, nx^2/4) lies below the cut
    probe_t = 0.5 * nx
    fip8 = _axiom_result(
        "FIP8",
        [nonzero & (mu(x, x, probe_t * probe_t) > 0.0)],
        lambda k, j: "positive membership below threshold",
    )

    # FIP9 via the parallelogram identity of the level norms; a sample whose
    # level norm is undefined (negative or non-finite scale, or a square
    # that overflows) is a violation
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.broadcast_to(model.scale(a), a.shape)
        defined = np.isfinite(scale) & (scale >= 0.0)
        squares = np.full((4, sample_count), np.inf)
        if defined.any():
            xd, yd = x[defined], y[defined]
            pairs = np.stack((xd + yd, xd - yd, xd, yd))
            squares[:, defined] = model.alpha_norm(pairs, a[defined]) ** 2
        undefined = ~np.isfinite(squares).all(axis=0)
        lhs9 = squares[0] + squares[1]
        rhs9 = 2.0 * squares[2] + 2.0 * squares[3]
        residual = lhs9 - rhs9
        bad9 = undefined | ~np.isfinite(lhs9) | (
            np.abs(residual) > 1e-8 * np.maximum(1.0, np.abs(rhs9))
        )
    fip9 = _axiom_result(
        "FIP9",
        [bad9],
        lambda k, j: (
            f"level norm undefined at alpha={float(a[k]):.3g}"
            if undefined[k]
            else f"parallelogram residual {float(residual[k]):.3g}"
        ),
    )

    results = (fip1, fip2, fip3, fip4, fip5, fip6, fip7, fip8, fip9)
    return AxiomReport(
        profile=model.profile,
        sample_count=sample_count,
        seed=seed,
        results=results,
    )
