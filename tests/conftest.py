"""Shared fixtures and independent oracles for the test suite.

The level-norm oracles recover the closed forms of ``FuzzyModel`` from the
membership function: a bisection of its level sets and the polarization
identity.

The sphere-search helpers evaluate quadratic-form quotients directly on
seeded unit-sphere samples and polish the best candidate by projected
gradient steps; they never touch an eigensolver, so they stay independent
of the spectral code paths they are used to check.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter
from itertools import chain
from typing import Any, NamedTuple, Optional

import numpy as np
import pytest

from fuzzyframes import BaseSpace, FrameFamily, FuzzyModel
from fuzzyframes.cli_io import _fmt, parse_problem, run_command
from fuzzyframes.fuzzy_space import check_alpha
from fuzzyframes.operator_algebra import PSD_TOL, _order_decision


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
# Problems run through the commands


def problem_entries(m: np.ndarray, field: str) -> list:
    """A matrix as problem-file rows, complex entries as [re, im] pairs."""
    if field == "real":
        return np.real(m).tolist()
    return [[[z.real, z.imag] for z in row] for row in np.asarray(m, dtype=complex).tolist()]


def run_problem(command: str, family: FrameFamily, **fields) -> tuple[dict, int]:
    """The report body and exit code of ``command`` on the problem of family,
    in its model, and fields.  A family or matrix field (family_g,
    operator_K, operator_T) is written as rows, any other field as given."""
    field = family.model.space.field
    data = {
        "dimension": family.dimension,
        "field": field,
        "profile": family.model.profile,
        "family": problem_entries(family.vectors, field),
    }
    for key, value in fields.items():
        if isinstance(value, FrameFamily):
            value = value.vectors
        data[key] = problem_entries(value, field) if isinstance(value, np.ndarray) else value
    report, code = run_command(command, parse_problem(data))
    assert "body" in report, report.get("error")
    return report["body"], code


def bessel_pair_check(F: FrameFamily, G: FrameFamily) -> tuple[dict, int]:
    """The Bessel-pair construction of K-frames (Gavruta, Frames for
    operators, ACHA 32, 2012) decided by the commands: ``bounds`` on G and
    on F gives their Bessel bounds D and B, then ``check-kframe`` decides F
    for K = T_F T_G* with the bounds [1/D, B].  Returns the report body and
    exit code of check-kframe."""
    K = F.vectors.T @ G.vectors.conj()
    D = run_problem("bounds", G)[0]["optimal_frame"]["B"]
    B = run_problem("bounds", F)[0]["optimal_frame"]["B"]
    return run_problem("check-kframe", F, operator_K=K, bounds=[1.0 / D, B])


# ---------------------------------------------------------------------------
# Order oracle


def order_holds(P: np.ndarray, Q: np.ndarray, tol: float = 1e-9) -> bool:
    """P <= Q in the positive-semidefinite order, up to tol times the larger
    spectral norm of the sides: the smallest eigenvalue of the symmetrized
    Q - P from one eigvalsh.  No Cholesky step and no diagonal scale, so it
    shares no code with the order decision it checks."""
    diff = np.asarray(Q) - np.asarray(P)
    lam_min = float(np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))[0])
    return lam_min >= -tol * max(np.linalg.norm(P, 2), np.linalg.norm(Q, 2))


def decide_order(P: np.ndarray, Q: np.ndarray, tol: float = PSD_TOL) -> tuple:
    """The package's order decision P <= Q: _order_decision of Q - P for the
    symmetrized sides, against their larger max|diag|, the scale
    verify_bounds passes."""
    p, q = (0.5 * m + 0.5 * m.conj().T for m in (np.asarray(P), np.asarray(Q)))
    scale = max(float(np.abs(m.diagonal()).max(initial=0.0)) for m in (p, q))
    return _order_decision(q - p, tol, scale)


# ---------------------------------------------------------------------------
# Level-norm oracles

#: absolute tolerance and iteration cap of the level-set bisection
BISECT_TOL = 1e-10
BISECT_MAX_ITER = 200


def norm_membership(model: FuzzyModel, x, t: float) -> float:
    """Fuzzy norm N(x, t) = mu(x, x, t^2) for t > 0, else 0."""
    t = float(t)
    if t <= 0.0:
        return 0.0
    return model.mu(x, x, t * t)


def level_membership(model: FuzzyModel, x, t: float) -> float:
    """Smooth branch of the norm membership used by the level-set solver.

    For the scaled profile this is t^2 / (t^2 + ||x||^2) on t > 0, i.e.
    the expression whose alpha level set gives sqrt(a/(1-a)) ||x||.  The
    printed membership clips values at or below the norm threshold to 0,
    which would freeze the level norm at ||x|| for alpha < 1/2 and
    contradict the closed form, so the solver bisects this branch
    instead.  For the crisp profile the indicator is already consistent
    and is used as is.
    """
    x = model.check_vector(x)
    t = float(t)
    if t <= 0.0:
        return 0.0
    nx = float(np.linalg.norm(x))
    if model.profile == "scaled":
        return t * t / (t * t + nx * nx)
    return 1.0 if t > nx else 0.0


def alpha_inner(model: FuzzyModel, x, y, alpha: float):
    """Level inner product scale(alpha) * <x, y>.

    Linear in the first argument, conjugate-linear in the second.
    """
    x = model.check_vector(x)
    y = model.check_vector(y)
    value = model.scale(alpha) * np.vdot(y, x)
    if model.space.field == "real":
        return float(value.real) if np.iscomplexobj(value) else float(value)
    return complex(value)


def alpha_norm_bisect(
    model: FuzzyModel,
    x,
    alpha: float,
    tol: float = BISECT_TOL,
    max_iter: int = BISECT_MAX_ITER,
) -> float:
    """Level norm via bisection of inf{t > 0 : level_membership >= alpha}.

    Independent cross-check of ``FuzzyModel.alpha_norm``; the level
    function is nondecreasing in t so plain bisection applies.
    """
    x = model.check_vector(x)
    a = check_alpha(alpha)
    if not np.any(x):
        return 0.0

    nx = float(np.linalg.norm(x))
    lo = 0.0
    hi = max(nx, 1.0)
    while level_membership(model, x, hi) < a:
        hi *= 2.0
        if hi > 1e30:
            raise ArithmeticError("level membership never reaches alpha")
    for _ in range(max_iter):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if level_membership(model, x, mid) >= a:
            hi = mid
        else:
            lo = mid
    return hi


def alpha_inner_polarization(model: FuzzyModel, x, y, alpha: float):
    """Level inner product recovered from level norms via polarization.

    Real field:      (||x+y||^2 - ||x-y||^2) / 4
    Complex field:   + i (||x+iy||^2 - ||x-iy||^2) / 4
    """
    x = model.check_vector(x)
    y = model.check_vector(y)
    np2 = model.alpha_norm(x + y, alpha) ** 2
    nm2 = model.alpha_norm(x - y, alpha) ** 2
    real_part = 0.25 * (np2 - nm2)
    if model.space.field == "real":
        return real_part
    ni2 = model.alpha_norm(x + 1j * y, alpha) ** 2
    nj2 = model.alpha_norm(x - 1j * y, alpha) ** 2
    return complex(real_part, 0.25 * (ni2 - nj2))


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
# Sampling oracle of the axiom check


class AxiomDraws(NamedTuple):
    """The random points of the sampling oracle, one row or entry per sample."""

    x: np.ndarray  # samples x n, in the space's field
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray  # complex
    t: np.ndarray  # complex
    tpos: np.ndarray  # uniform on [0.05, 8)
    spos: np.ndarray  # uniform on [0.05, 8)
    a: np.ndarray  # the FIP9 level, uniform on [0.02, 0.98)


def axiom_draws(rng: np.random.Generator, space: BaseSpace, count: int) -> AxiomDraws:
    """Draw every sample of the oracle at once, in a fixed order."""

    def vectors() -> np.ndarray:
        v = rng.standard_normal((count, space.dimension))
        if space.field == "complex":
            v = v + 1j * rng.standard_normal((count, space.dimension))
        return v

    def complex_scalars() -> np.ndarray:
        return rng.standard_normal(count) + 1j * rng.standard_normal(count)

    return AxiomDraws(
        x=vectors(),
        y=vectors(),
        z=vectors(),
        s=complex_scalars(),
        t=complex_scalars(),
        tpos=rng.uniform(0.05, 8.0, count),
        spos=rng.uniform(0.05, 8.0, count),
        a=rng.uniform(0.02, 0.98, count),
    )


def fip_axioms_oracle(model: FuzzyModel, sample_count: int, seed: int) -> dict[str, str]:
    """The axioms FIP1-FIP9 evaluated on the model itself, by a per-sample
    loop of scalar membership calls at seeded random points.

    Returns each violated axiom with its first violating sample.  It knows
    nothing of the scalar reduction, so the decision of check_fip_axioms
    must fail at least every axiom it fails.
    """
    space = model.space
    d = axiom_draws(np.random.default_rng(seed), space, sample_count)
    eq_tol = 1e-9
    witnesses: dict[str, str] = {}
    record = witnesses.setdefault  # the first violating sample of each axiom
    zero = np.zeros(space.dimension, dtype=space.dtype)
    for k in range(sample_count):
        x, y, z = d.x[k], d.y[k], d.z[k]
        s, t = complex(d.s[k]), complex(d.t[k])
        tpos, spos = float(d.tpos[k]), float(d.spos[k])

        lhs = model.mu(x + y, z, abs(t) + abs(s))
        rhs = min(model.mu(x, z, abs(t)), model.mu(y, z, abs(s)))
        if lhs < rhs - eq_tol:
            record("FIP1", f"sample {k}: mu(x+y)={lhs:.6g} < min={rhs:.6g}")

        lhs = model.mu(x, y, abs(s * t))
        rhs = min(model.mu(x, x, abs(s) ** 2), model.mu(y, y, abs(t) ** 2))
        if lhs < rhs - eq_tol:
            record("FIP2", f"sample {k}: mu(x,y,|st|)={lhs:.6g} < min={rhs:.6g}")

        for targ in (t, tpos):
            conj = complex(targ).conjugate()
            if abs(model.mu(x, y, targ) - model.mu(y, x, conj)) > eq_tol:
                record("FIP3", f"sample {k}: asymmetric at t={targ!r}")
                break

        c = s if space.field == "complex" else float(s.real) or 1.0
        if abs(c) > 1e-6:
            if abs(model.mu(c * x, y, tpos) - model.mu(x, y, tpos / abs(c))) > eq_tol:
                record("FIP4", f"sample {k}: scaling mismatch at c={c!r}")

        for bad in (-tpos, complex(0.0, tpos), complex(-tpos, spos)):
            if model.mu(x, x, bad) != 0.0:
                record("FIP5", f"sample {k}: mu(x,x,{bad!r}) != 0")
                break

        if abs(model.mu(zero, zero, tpos) - 1.0) > eq_tol:
            record("FIP6", f"sample {k}: mu(0,0,{tpos:.4g}) != 1")
        nx = float(np.linalg.norm(x))
        if nx > 1e-9:
            probe = 0.5 * nx * nx
            if abs(model.mu(x, x, probe) - 1.0) <= eq_tol:
                record("FIP6", f"sample {k}: nonzero x with full membership")

        t_lo, t_hi = sorted((tpos, spos))
        if model.mu(x, x, t_lo) > model.mu(x, x, t_hi) + eq_tol:
            record("FIP7", f"sample {k}: not monotone on [{t_lo:.4g},{t_hi:.4g}]")
        big = 1e12 * (1.0 + nx * nx)
        if model.mu(x, x, big) < 1.0 - 1e-6:
            record("FIP7", f"sample {k}: limit at large t is {model.mu(x, x, big):.6g}")

        if nx > 1e-9:
            probe_t = 0.5 * nx
            if model.mu(x, x, probe_t * probe_t) > 0.0:
                record("FIP8", f"sample {k}: positive membership below threshold")

        a = float(d.a[k])
        try:
            lhs = model.alpha_norm(x + y, a) ** 2 + model.alpha_norm(x - y, a) ** 2
            rhs = 2.0 * model.alpha_norm(x, a) ** 2 + 2.0 * model.alpha_norm(y, a) ** 2
            bad = not math.isfinite(lhs) or abs(lhs - rhs) > 1e-8 * max(1.0, abs(rhs))
            note = f"sample {k}: parallelogram residual {lhs - rhs:.3g}" if bad else ""
        except (ValueError, ArithmeticError):
            bad = True
            note = f"sample {k}: level norm undefined at alpha={a:.3g}"
        if bad:
            record("FIP9", note)

    return witnesses


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

LINALG_DECOMPOSITIONS = ("eigh", "eigvalsh", "svd", "pinv", "solve", "cholesky", "qr")


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


# ---------------------------------------------------------------------------
# Reference whole-array parser


def reference_whole_array(
    entries: Any, shape: tuple[int, ...], field_name: str
) -> Optional[np.ndarray]:
    """The whole-array parser of version 1.6.0: one nested ``np.array`` call,
    a dtype and shape check, and a scan of the flattened lists for bools.
    None where the per-entry parser has to decide."""
    try:
        arr = np.array(entries)
    except ValueError:  # ragged nesting
        return None
    if arr.dtype.kind not in "fi":
        return None
    pairs = arr.shape == shape + (2,)
    if not (pairs or arr.shape == shape):
        return None
    if arr.dtype.kind == "f" and not np.isfinite(arr).all():
        return None
    flat = entries
    for _ in range(arr.ndim - 1):
        flat = chain.from_iterable(flat)
    if bool in map(type, flat):
        return None
    if not pairs:
        return arr.astype(np.complex128 if field_name == "complex" else np.float64)
    if field_name == "real":
        return None if arr[..., 1].any() else arr[..., 0].astype(np.float64)
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128).reshape(shape)


# ---------------------------------------------------------------------------
# Reference serializer


def _canon(obj: Any) -> Any:
    """obj as plain JSON values: numbers rounded by _fmt, complex values as
    [re, im], arrays as lists (a 0-d array as its scalar), dict keys as str,
    which must not coincide."""
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, complex):
        return [_fmt(obj.real), _fmt(obj.imag)]
    if isinstance(obj, np.floating):
        return _fmt(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.complexfloating):
        return [_fmt(float(obj.real)), _fmt(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        return _canon(obj.tolist())
    if isinstance(obj, dict):
        out = {str(k): _canon(v) for k, v in sorted(obj.items())}
        if len(out) < len(obj):
            raise TypeError("dict keys whose str coincide")
        return out
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_canonical_json(obj: Any) -> str:
    """The serializer of version 1.6.0, with a 0-d array written as its
    scalar and coinciding keys an error: a walk that makes plain JSON
    values, then the standard library encoder.  canonical_json must print
    the same text wherever this one prints any."""
    return json.dumps(_canon(obj), sort_keys=True, indent=2, ensure_ascii=True)


# ---------------------------------------------------------------------------
# Reference digest


def reference_digest(problem) -> str:
    """``input.digest`` as the README words it, with hashlib and struct
    alone: the compact sorted JSON of the scalar fields, floats written by
    repr, then per array a header line and each unit-scale double packed
    little-endian, -0.0 as 0.0."""

    def exact(x: float) -> float:
        return x + 0.0

    scalars = {
        "dimension": problem.dimension,
        "field": problem.field,
        "profile": problem.profile,
        "alphas": [exact(a) for a in problem.alphas],
        "bounds": [exact(b) for b in problem.bounds] if problem.bounds else None,
        "convention": problem.convention,
        "tolerance": exact(problem.tolerance),
        "command": problem.command,
        "lambda1": exact(problem.lambda1),
        "lambda2": exact(problem.lambda2),
        "variant": problem.variant,
        "claims": [{"kind": c["kind"], "value": exact(c["value"])} for c in problem.claims],
    }
    h = hashlib.sha256(json.dumps(scalars, sort_keys=True, separators=(",", ":")).encode())
    names = ["family", "family_g", "operator_K", "operator_T", "coefficients"]
    arrays = [(name, getattr(problem, name), problem.exponents[name]) for name in names]
    for i, c in enumerate(problem.claims):
        arrays.append((f"claims[{i}].vector", c["vector"], c["exponent"]))
    for name, arr, e in arrays:
        if arr is None:
            continue
        h.update(("\n%s[%s] 2^%d\n" % (name, ", ".join(map(str, arr.shape)), e)).encode())
        for z in arr.ravel().tolist():
            for x in (z.real, z.imag) if problem.field == "complex" else (z,):
                h.update(struct.pack("<d", exact(x)))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Problem files scaled by powers of two


#: the operand each problem-file array belongs to: F, K or T
OPERAND_OF = {"family": "F", "family_g": "F", "operator_K": "K", "operator_T": "T"}


def constant_powers(data: dict) -> dict:
    """The powers (pF, pK, pT) of every reported constant of the problem:
    under F -> 2^kF F (with G), K -> 2^kK K and T -> 2^kT T it scales by
    2^(pF kF + pK kK + pT kT).  A lower bound is against ||K* f||^2 and an
    upper one against ||f||^2; a transform's derived pair belongs to the
    moved family T F, perturb-operator's to K2, which is T, and combine's
    lower bounds to the combined operator: a K1 + b K2 with K1 = K and
    K2 = T scaled together, or the product K T."""
    command = data.get("command", "bounds")
    combined = (2, -2, -2) if command == "combine" and data.get("coefficients") is None else (2, -2, 0)
    if command == "transform" and data.get("variant"):
        derived = {"derived.A": (2, -2, 2), "derived.B": (2, 0, 2)}
    elif command in ("transform", "perturb-operator"):
        derived = {"derived.A": (2, 0, -2), "derived.B": (2, 0, 0)}
    else:
        derived = {"derived.A": combined, "derived.B": (2, 0, 0)}
    return {
        "optimal_frame.A": (2, 0, 0),
        "optimal_frame.B": (2, 0, 0),
        "optimal_kframe.A": combined,
        "optimal_kframe.B": (2, 0, 0),
        "requested.A": (2, -2, 0) if command == "check-kframe" else (2, 0, 0),
        "requested.B": (2, 0, 0),
        "certificate.A": (2, -2, 0),
        "certificate.B": (2, 0, 0),
        "coefficient_norm_constant": (-1, 1, 0),
        "lambda": (0, -1, 1),
        "M": (0, 0, 0),
        "dagger_norm": (0, -1, 0),
        "max_violation": (0, 1, 0),
        "max_violation_forward": (2, 0, 0),
        "max_violation_inverse": (2, 0, 0),
        "factorization_residual": (0, 0, 1),
        "ratio": (0, 0, 0),
        **derived,
    }


def _power(powers: tuple, shifts: dict) -> int:
    return sum(p * shifts.get(op, 0) for p, op in zip(powers, "FKT"))


def _ldexp_entries(x, k: int):
    """A problem-file number, vector or matrix (numbers or [re, im] pairs)
    times 2^k."""
    return [_ldexp_entries(e, k) for e in x] if isinstance(x, list) else math.ldexp(x, k)


def scale_operands(data: dict, shifts: dict) -> dict:
    """The problem with F and G times 2^shifts["F"], K times 2^shifts["K"]
    and T times 2^shifts["T"] (absent keys 0), and the requested bounds of
    check-frame and check-kframe and the claimed frame sums scaled to
    match."""
    out = json.loads(json.dumps(data))
    for key, op in OPERAND_OF.items():
        if out.get(key) is not None:
            out[key] = _ldexp_entries(out[key], shifts.get(op, 0))
    powers = constant_powers(data)
    if out.get("bounds") is not None and out.get("command") in ("check-frame", "check-kframe"):
        a, b = out["bounds"]
        out["bounds"] = [
            math.ldexp(a, _power(powers["requested.A"], shifts)),
            math.ldexp(b, _power(powers["requested.B"], shifts)),
        ]
    for claim in out.get("claims", {}).get("frame_sum", []):
        claim["value"] = math.ldexp(claim["value"], 2 * shifts.get("F", 0))
    return out


def _numbers(x):
    """The numbers of a problem-file entry, flattened."""
    if isinstance(x, list):
        for e in x:
            yield from _numbers(e)
    else:
        yield x


def report_constants(body: dict, powers: dict, prefix: str = ""):
    """(path, value) of every float in the report body named in powers."""
    for key, value in body.items():
        if isinstance(value, dict):
            yield from report_constants(value, powers, f"{prefix}{key}.")
        elif f"{prefix}{key}" in powers and isinstance(value, float):
            yield f"{prefix}{key}", value


#: frexp exponents of the normal doubles
NORMAL_EXPONENTS = (-1021, 1024)


def exact_shift_range(data: dict, body: dict, group: str) -> tuple[int, int]:
    """The k for which scale_operands(data, {op: k for op in group}) is
    exact and its report's constants are those of ``body`` times their
    powers of two, exactly: every nonzero entry, scaled bound, claimed sum
    and reported constant stays a normal double."""
    shifts = {op: 1 for op in group}
    powers = constant_powers(data)
    items = [
        (x, shifts.get(op, 0))
        for key, op in OPERAND_OF.items()
        if data.get(key) is not None
        for x in _numbers(data[key])
    ]
    if data.get("bounds") is not None and data.get("command") in ("check-frame", "check-kframe"):
        items += zip(data["bounds"], (_power(powers[f"requested.{s}"], shifts) for s in "AB"))
    claims = data.get("claims", {}).get("frame_sum", [])
    items += [(c["value"], 2 * shifts.get("F", 0)) for c in claims]
    items += [(v, _power(powers[path], shifts)) for path, v in report_constants(body, powers)]
    lo, hi = -(2**11), 2**11  # past 2^11 every nonzero double leaves the range
    for x, p in items:
        if p == 0 or x == 0.0 or not math.isfinite(x):
            continue
        e = math.frexp(x)[1]
        ends = sorted(((NORMAL_EXPONENTS[0] - e) / p, (NORMAL_EXPONENTS[1] - e) / p))
        lo, hi = max(lo, math.ceil(ends[0])), min(hi, math.floor(ends[1]))
    return lo, hi


def report_outcome(report: dict) -> tuple:
    claims = tuple(c["agrees"] for c in report.get("body", {}).get("claims", []))
    return report["verdict"], report["exit_code"], claims


def assert_scaled_report(base: dict, scaled: dict, data: dict, shifts: dict) -> None:
    """``scaled`` is the report of scale_operands(data, shifts) and ``base``
    that of data: the same verdict, exit code and claim outcomes, and every
    constant scaled by its power of two, exactly."""
    assert report_outcome(scaled) == report_outcome(base)
    powers = constant_powers(data)
    scaled_constants = dict(report_constants(scaled.get("body", {}), powers))
    for path, value in report_constants(base.get("body", {}), powers):
        power = _power(powers[path], shifts)
        expected = math.ldexp(value, power) if math.isfinite(value) else value
        assert scaled_constants[path] == expected, path
