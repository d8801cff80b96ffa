"""Concrete fuzzy inner product models on finite-dimensional spaces.

Two membership profiles are supported.  Both define the membership of t as
a value for the inner product of x and y through c = ||x|| ||y|| alone,
mu(x, y, t) = phi(c, t).  The ``scaled`` profile is induced by a classical
inner product through

    phi(c, t) = |t| / (|t| + c)   for real t > c,
    phi(c, t) = 0                 otherwise,

and carries level norms ||x||_a = sqrt(a / (1 - a)) * ||x||.  The ``crisp``
profile is the 0/1 indicator phi = [t > c], whose level norms all equal the
classical norm.  Level inner products follow the same rule:
<x, y>_a = scale(a) * <x, y> with scale(a) = a/(1-a) or 1.

Every operation here is a pure function of immutable values.  The
membership, the level scale and the level norm broadcast over arrays of
vectors and values.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "FIELDS",
    "PROFILES",
    "MAX_DIMENSION",
    "REDUCTIONS",
    "BaseSpace",
    "FuzzyModel",
    "AxiomResult",
    "AxiomReport",
    "check_alpha",
    "check_fip_axioms",
]

FIELDS = ("real", "complex")
PROFILES = ("scaled", "crisp")

#: a complex t with |Im t| <= IMAG_TOL |t| counts as a positive real
IMAG_TOL = 1e-12

#: largest dimension, the largest n for which operator_algebra's Cholesky
#: certificate is proved (see CHOLESKY_TOL_FACTOR)
MAX_DIMENSION = 510


def _phi(profile: str, c, t):
    """The membership phi(c, t) of the value t, real or complex, where
    c = ||x|| ||y|| >= 0; broadcasts over arrays of c and t."""
    t = np.asarray(t)
    tv = t.real
    above = tv > c  # c >= 0, so t is also positive here
    if np.iscomplexobj(t):
        above &= np.abs(t.imag) <= IMAG_TOL * np.abs(t)
    if profile == "scaled":
        return np.divide(tv, tv + c, out=np.zeros(above.shape), where=above)
    return above.astype(np.float64)


def _level_scale(profile: str, a):
    """scale(a) = a/(1-a) for scaled, 1 for crisp, at levels a in (0, 1)."""
    return a / (1.0 - a) if profile == "scaled" else 1.0


def check_alpha(alpha):
    """Validate a level value, or an array of them, each strictly inside (0, 1).

    A single level comes back as a Python float, an array as a float array.
    """
    a = np.asarray(alpha, dtype=np.float64)
    if not ((0.0 < a) & (a < 1.0)).all():
        raise ValueError(f"level must satisfy 0 < alpha < 1, got {alpha!r}")
    return float(a) if a.ndim == 0 else a


# Records are NamedTuples, which need no generated code at import; a record
# that validates its fields is a subclass that checks them in __new__ and
# builds the tuple directly.
class _Space(NamedTuple):
    dimension: int
    field: str  # "real" | "complex"


class BaseSpace(_Space):
    """Finite-dimensional coefficient space over the real or complex field."""

    __slots__ = ()

    def __new__(cls, dimension: int, field: str = "real"):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if field not in FIELDS:
            raise ValueError(f"field must be {' or '.join(map(repr, FIELDS))}, got {field!r}")
        return tuple.__new__(cls, (dimension, field))

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


class _Model(NamedTuple):
    space: BaseSpace
    profile: str  # "scaled" | "crisp"


class FuzzyModel(_Model):
    """A base space together with one of the two membership profiles."""

    __slots__ = ()

    def __new__(cls, space: BaseSpace, profile: str = "scaled"):
        if profile not in PROFILES:
            raise ValueError(f"profile must be one of {PROFILES}, got {profile!r}")
        return tuple.__new__(cls, (space, profile))

    def scale(self, alpha):
        """Level scaling factor: a/(1-a) for scaled, 1 for crisp.

        Takes one level (giving a float) or an array of levels.
        """
        return _level_scale(self.profile, check_alpha(alpha))

    def check_vector(self, x) -> np.ndarray:
        return self.space.vector(x)

    def mu(self, x, y, t):
        """Membership phi(||x|| ||y||, t) of t as a value for the inner
        product of x and y.

        Vanishes off the positive real axis and at or below the product of
        the classical norms; above that threshold the scaled profile takes
        |t| / (|t| + ||x|| ||y||) and the crisp profile takes 1.

        Broadcasts: x and y have shape (..., n) and t, real or complex, has
        shape (...).  One pair of vectors with a scalar t gives a float.
        """
        nx = np.linalg.norm(self.space.vectors(x), axis=-1)
        cut = nx * (nx if y is x else np.linalg.norm(self.space.vectors(y), axis=-1))
        value = _phi(self.profile, cut, t)
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
            raise ValueError(f"level norm undefined: level scale {scale}")
        value = np.sqrt(scale) * np.linalg.norm(x, axis=-1)
        return float(value) if value.ndim == 0 else value


# ---------------------------------------------------------------------------
# Axiom checking


#: FIP1-FIP9, each reduced to a statement about phi(c, t) that holds for
#: both profiles and implies the axiom
REDUCTIONS = {
    "FIP1": "phi(a + b, t + s) >= min(phi(a, t), phi(b, s)) and phi falls in c, "
    "where a = ||x|| ||z||, b = ||y|| ||z|| and ||x + y|| ||z|| <= a + b",
    "FIP2": "phi(sqrt(p q), sqrt(u v)) >= min(phi(p, u), phi(q, v)): phi falls in "
    "c / t, and sqrt(p q / (u v)) <= max(p / u, q / v)",
    "FIP3": "phi(c, conj t) = phi(c, t), and c = ||x|| ||y|| is symmetric in x and y",
    "FIP4": "phi(|a| c, t) = phi(c, t / |a|) for a != 0: phi depends on c / t alone",
    "FIP5": "phi(c, t) = 0 unless t is real and t > c >= 0",
    "FIP6": "phi(0, t) = 1 for every t > 0, and phi(c, c / 2) = 0 for c > 0",
    "FIP7": "phi(c, t) does not fall as t grows, and tends to 1",
    "FIP8": "phi(c, t) = 0 for 0 < t <= c, so only c = 0 is positive at every t > 0",
    "FIP9": "||x||_a^2 = scale(a) ||x||^2 with scale(a) = a / (1 - a) (scaled) or 1 "
    "(crisp), so the level norms keep the parallelogram law of ||.||",
}

#: the norms of x and y at the critical points: 0 and powers of two, so
#: that every product c = ||x|| ||y|| is exact
_NORMS = (0.0, 0.5, 1.0, 4.0)

#: the levels at which FIP9 reads the level norm
_LEVELS = (0.25, 0.5, 0.75)


class AxiomResult(NamedTuple):
    axiom: str
    statement: str
    passed: bool
    witness: Optional[str] = None


class AxiomReport(NamedTuple):
    profile: str
    results: tuple[AxiomResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _first_mismatch(got, want) -> Optional[int]:
    """The first index where got differs from want (NaN always does)."""
    bad = np.flatnonzero(~(got == want))
    return int(bad[0]) if bad.size else None


@functools.cache
def _critical_table():
    """What check_fip_axioms compares against, built once per process on
    first use: the critical points ``nx, ny, t`` (flat, one entry per
    point), phi at them by profile, the levels _LEVELS and sqrt(scale(a))
    at them by profile.  Every array is read-only, so a model that writes
    into its arguments raises ValueError and cannot change the table for
    the next check."""
    nx, ny = (g.reshape(-1, 1) for g in np.meshgrid(_NORMS, _NORMS))
    c = nx * ny
    above = 2.0 * c + 1.0
    t = np.hstack(np.broadcast_arrays(
        -1.0, 0.0, c, np.nextafter(c, -np.inf), np.nextafter(c, np.inf), above,
        1e12 * (1.0 + c), above * (1.0 + 1.0j), above * (1.0 + 0.5j * IMAG_TOL),
        2.0**-60 * (1.0 + 1.0j),
    ))
    nx, ny, c, t = (a.ravel() for a in np.broadcast_arrays(nx, ny, c, t))
    levels = np.array(_LEVELS)
    phi = {p: _phi(p, c, t) for p in PROFILES}
    norm = {
        p: np.sqrt(np.broadcast_to(_level_scale(p, levels), levels.shape)) for p in PROFILES
    }
    for a in (nx, ny, t, levels, *phi.values(), *norm.values()):
        a.setflags(write=False)
    return nx, ny, t, phi, levels, norm


def check_fip_axioms(model: FuzzyModel) -> AxiomReport:
    """Decide the inner-product membership axioms FIP1-FIP9 of the model.

    Each axiom reduces to a statement about phi (REDUCTIONS), which is its
    proof; what is left to decide is whether the model implements phi.
    FIP1-FIP8 pass iff one broadcast call of ``model.mu`` equals phi exactly
    at the critical points: every pair of norms from _NORMS in both orders,
    x along the first axis (phase 1j over the complex field) and y along the
    last, each with t at -1, 0, c and one ulp either side of it, 2c + 1,
    1e12 (1 + c), 2c + 1 moved off the real axis by more than IMAG_TOL
    and by less, and 2^-60 (1 + 1j), off the axis below |t| = 1.  FIP9
    passes iff ``model.alpha_norm`` of a unit vector is sqrt(scale(a))
    exactly at the levels _LEVELS, with the profile's scale(a).  A failing
    axiom's witness is the first point that disagrees.  The points and
    both profiles' values at them come from _critical_table.
    """
    nx, ny, t, phi, levels, norm = _critical_table()
    space = model.space
    x = np.zeros((t.size, space.dimension), dtype=space.dtype)
    y = np.zeros_like(x)
    x[:, 0] = nx * (1j if space.field == "complex" else 1.0)
    y[:, -1] = ny
    got = np.broadcast_to(model.mu(x, y, t), t.shape)
    want = phi[model.profile]
    k = _first_mismatch(got, want)
    mu_witness = None
    if k is not None:
        tk = complex(t[k])
        shown = repr(tk.real) if tk.imag == 0.0 else repr(tk)
        mu_witness = (
            f"mu = {float(got[k]):.6g}, not phi = {want[k]:.6g}, "
            f"at ||x|| = {nx[k]:g}, ||y|| = {ny[k]:g}, t = {shown}"
        )

    want = norm[model.profile]
    unit = x[-1] / nx[-1]  # the first axis, with its phase
    norm_witness = None
    try:
        got = np.broadcast_to(model.alpha_norm(unit, levels), levels.shape)
    except ValueError as exc:  # a negative or non-finite level scale
        norm_witness = str(exc)
    else:
        k = _first_mismatch(got, want)
        if k is not None:
            norm_witness = f"||e||_a = {float(got[k]):.6g}, not {want[k]:.6g}, at a = {levels[k]:g}"

    results = []
    for axiom, statement in REDUCTIONS.items():
        witness = norm_witness if axiom == "FIP9" else mu_witness
        results.append(AxiomResult(axiom, statement, witness is None, witness))
    return AxiomReport(model.profile, tuple(results))
