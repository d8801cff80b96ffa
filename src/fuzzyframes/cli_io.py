"""Batch command-line interface: JSON problem files in, deterministic
certificate reports out.

Reports are canonical: keys sorted, numbers printed to 12 significant
digits, complex scalars as [re, im] pairs, witnesses normalized to unit
norm.  Identical (file, seed, version) triples produce byte-identical
reports at any parallelism level.

Exit codes: 0 verdict pass, 1 mathematical negative (fail or
not_applicable, with witness where one exists), 2 input or usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import chain
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from . import __version__
from .fuzzy_space import BaseSpace, FuzzyModel, check_fip_axioms
from .operator_algebra import RangeInclusionError, douglas_factorize
from .frame_core import (
    DEFAULT_ALPHAS,
    BoundCertificate,
    FrameFamily,
    SingularFrameOperatorError,
    VerificationResult,
    _unit,
    atomic_system_equivalence_check,
    frame_sum,
    optimal_frame_bounds,
    optimal_kframe_bounds,
    reconstruction_residual,
    verify_bounds,
)
from .frame_transforms import operator_transfer, transform_family
from .perturbation import (
    check_operator_perturbation,
    derive_family_perturbed_bounds,
    derive_operator_perturbed_bounds,
    family_perturbation_constant,
)

__all__ = [
    "TOOL_NAME",
    "TOOL_VERSION",
    "EXIT_PASS",
    "EXIT_FAIL",
    "EXIT_ERROR",
    "COMMANDS",
    "ProblemError",
    "Problem",
    "parse_problem",
    "canonical_json",
    "run_command",
    "run_file",
    "batch",
    "main",
]

TOOL_NAME = "fuzzyframes"
TOOL_VERSION = __version__

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2

#: float64 unit roundoff; residual verdicts allow n * EPS * (conditioning)
EPS = float(np.finfo(np.float64).eps)


class ProblemError(Exception):
    """Malformed problem file or unusable command arguments."""


# ---------------------------------------------------------------------------
# Problem files


@dataclass(frozen=True)
class Problem:
    dimension: int
    field: str
    profile: str
    family: np.ndarray
    family_g: Optional[np.ndarray] = None
    operator_K: Optional[np.ndarray] = None
    operator_T: Optional[np.ndarray] = None
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    bounds: Optional[tuple[float, float]] = None
    convention: str = "once"
    seed: int = 0
    tolerance: float = 1e-9
    command: str = "bounds"
    lambda1: float = 0.0
    lambda2: float = 0.0
    variant: Optional[str] = None
    samples: int = 1000
    claims: tuple[dict, ...] = field(default_factory=tuple)

    @property
    def model(self) -> FuzzyModel:
        return FuzzyModel(BaseSpace(self.dimension, self.field), self.profile)

    def frame_family(self) -> FrameFamily:
        return FrameFamily(self.family, self.model)

    def second_family(self) -> FrameFamily:
        if self.family_g is None:
            raise ProblemError("this command needs a second family 'family_g'")
        return FrameFamily(self.family_g, self.model)

    def need_K(self) -> np.ndarray:
        if self.operator_K is None:
            raise ProblemError("this command needs 'operator_K'")
        return self.operator_K

    def need_T(self) -> np.ndarray:
        if self.operator_T is None:
            raise ProblemError("this command needs 'operator_T'")
        return self.operator_T


def _real(value: Any, what: str) -> float:
    """A finite JSON number (bool excluded) as a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemError(f"{what} must be a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ProblemError(f"{what} must be finite, got {value!r}")
    return x


def _tolerance(value: Any, what: str) -> float:
    tolerance = _real(value, what)
    if not tolerance > 0.0:
        raise ProblemError(f"{what} must be positive")
    return tolerance


def _integer(value: Any, what: str) -> int:
    """A JSON integer (bool excluded; an integral float such as 3.0 is accepted)."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ProblemError(f"{what} must be an integer, got {value!r}")


def _parse_scalar(value: Any, where: str) -> complex:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return complex(_real(value, where), 0.0)
    if (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    ):
        return complex(_real(value[0], where), _real(value[1], where))
    raise ProblemError(f"{where}: scalar must be a number or [re, im], got {value!r}")


def _parse_vector_entries(entries: Any, dim: int, field_name: str, where: str) -> np.ndarray:
    if not isinstance(entries, (list, tuple)):
        raise ProblemError(f"{where}: expected a vector, got {type(entries).__name__}")
    vals = [_parse_scalar(v, where) for v in entries]
    if len(vals) != dim:
        raise ProblemError(f"{where}: expected length {dim}, got {len(vals)}")
    arr = np.array(vals, dtype=np.complex128)
    if field_name == "real":
        if np.any(np.abs(arr.imag) > 0.0):
            raise ProblemError(f"{where}: complex entries in a real problem")
        return arr.real.astype(np.float64)
    return arr


def _parse_matrix_entries(
    rows: Any, shape: tuple[int, int], field_name: str, where: str
) -> np.ndarray:
    if not isinstance(rows, (list, tuple)) or not rows:
        raise ProblemError(f"{where}: expected a nonempty matrix")
    if len(rows) != shape[0]:
        raise ProblemError(f"{where}: expected {shape[0]} rows, got {len(rows)}")
    parsed = [
        _parse_vector_entries(r, shape[1], field_name, f"{where}[{i}]")
        for i, r in enumerate(rows)
    ]
    return np.vstack(parsed)


def _whole_array(entries: Any, shape: tuple[int, ...], field_name: str) -> Optional[np.ndarray]:
    """Parse a vector or matrix with one numpy call, or None if it needs the
    per-entry parser: mixed numbers and pairs, or anything invalid, whose
    precise error message the per-entry parser gives."""
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
    # numpy reads true/false as 1/0, so look for bools among the numbers
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


def _parse_vector(entries: Any, dim: int, field_name: str, where: str) -> np.ndarray:
    arr = _whole_array(entries, (dim,), field_name)
    return _parse_vector_entries(entries, dim, field_name, where) if arr is None else arr


def _parse_matrix(rows: Any, shape: tuple[int, int], field_name: str, where: str) -> np.ndarray:
    arr = _whole_array(rows, shape, field_name)
    return _parse_matrix_entries(rows, shape, field_name, where) if arr is None else arr


def parse_problem(data: Any) -> Problem:
    """Validate a decoded problem file into a Problem value."""
    if not isinstance(data, dict):
        raise ProblemError("problem file must be a JSON object")
    if data.get("schema", 1) != 1:
        raise ProblemError(f"unsupported schema {data.get('schema')!r}")

    dim = _integer(data.get("dimension"), "'dimension'")
    if dim < 1:
        raise ProblemError("'dimension' must be >= 1")
    fieldname = data.get("field", "real")
    if fieldname not in ("real", "complex"):
        raise ProblemError(f"'field' must be 'real' or 'complex', got {fieldname!r}")
    profile = data.get("profile", "scaled")
    if profile not in ("scaled", "crisp"):
        raise ProblemError(f"'profile' must be 'scaled' or 'crisp', got {profile!r}")

    if "family" not in data or not isinstance(data["family"], list) or not data["family"]:
        raise ProblemError("'family' must be a nonempty list of vectors")
    family = _parse_matrix(data["family"], (len(data["family"]), dim), fieldname, "family")

    family_g = None
    if data.get("family_g") is not None:
        fg = data["family_g"]
        if not isinstance(fg, list):
            raise ProblemError("'family_g' must be a nonempty list of vectors")
        family_g = _parse_matrix(fg, (len(fg), dim), fieldname, "family_g")

    def matrix_field(key: str) -> Optional[np.ndarray]:
        if data.get(key) is None:
            return None
        return _parse_matrix(data[key], (dim, dim), fieldname, key)

    operator_K = matrix_field("operator_K")
    operator_T = matrix_field("operator_T")

    alphas = data.get("alphas", list(DEFAULT_ALPHAS))
    if not isinstance(alphas, list) or not alphas:
        raise ProblemError("'alphas' must be a nonempty list")
    alphas = tuple(_real(a, "'alphas' entries") for a in alphas)
    for a in alphas:
        if not 0.0 < a < 1.0:
            raise ProblemError(f"'alphas' entries must lie in (0, 1), got {a!r}")

    bounds = None
    if data.get("bounds") is not None:
        b = data["bounds"]
        if not isinstance(b, (list, tuple)) or len(b) != 2:
            raise ProblemError("'bounds' must be [A, B]")
        bounds = (_real(b[0], "'bounds' A"), _real(b[1], "'bounds' B"))
        if bounds[0] < 0.0 or bounds[1] < bounds[0]:
            raise ProblemError("'bounds' must satisfy 0 <= A <= B")

    convention = data.get("convention", "once")
    if convention not in ("once", "squared"):
        raise ProblemError(f"'convention' must be 'once' or 'squared', got {convention!r}")

    tolerance = _tolerance(data.get("tolerance", 1e-9), "'tolerance'")

    command = data.get("command", "bounds")
    if not isinstance(command, str) or command not in COMMANDS:
        raise ProblemError(f"unknown command {command!r}")

    variant = data.get("variant")
    if variant is not None and variant not in ("invertible", "coisometry"):
        raise ProblemError(f"'variant' must be 'invertible' or 'coisometry', got {variant!r}")

    claims_raw = data.get("claims", {})
    claims: list[dict] = []
    if claims_raw:
        if not isinstance(claims_raw, dict):
            raise ProblemError("'claims' must be an object")
        frame_sums = claims_raw.get("frame_sum", [])
        if not isinstance(frame_sums, list):
            raise ProblemError("'claims.frame_sum' must be a list")
        for entry in frame_sums:
            if not isinstance(entry, dict) or "vector" not in entry or "value" not in entry:
                raise ProblemError("frame_sum claims need 'vector' and 'value'")
            vec = _parse_vector(entry["vector"], dim, fieldname, "claims.frame_sum.vector")
            value = _real(entry["value"], "claims.frame_sum.value")
            claims.append({"kind": "frame_sum", "vector": vec, "value": value})

    return Problem(
        dimension=dim,
        field=fieldname,
        profile=profile,
        family=family,
        family_g=family_g,
        operator_K=operator_K,
        operator_T=operator_T,
        alphas=alphas,
        bounds=bounds,
        convention=convention,
        seed=_integer(data.get("seed", 0), "'seed'"),
        tolerance=tolerance,
        command=command,
        lambda1=_real(data.get("lambda1", 0.0), "'lambda1'"),
        lambda2=_real(data.get("lambda2", 0.0), "'lambda2'"),
        variant=variant,
        samples=_integer(data.get("samples", 1000), "'samples'"),
        claims=tuple(claims),
    )


# ---------------------------------------------------------------------------
# Canonical serialization


def _fmt(x: float) -> Any:
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    v = float(f"{x:.12g}")
    return 0.0 if v == 0.0 else v


def _canon(obj: Any) -> Any:
    if obj is None or isinstance(obj, (bool, str, int)):
        return obj
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, complex):
        return [_fmt(obj.real), _fmt(obj.imag)]
    if isinstance(obj, (np.floating,)):
        return _fmt(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.complexfloating):
        return [_fmt(float(obj.real)), _fmt(float(obj.imag))]
    if isinstance(obj, np.ndarray):
        return [_canon(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _canon(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [_canon(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    return json.dumps(_canon(obj), sort_keys=True, indent=2, ensure_ascii=True)


def _round_significant(x: np.ndarray, digits: int = 12) -> np.ndarray:
    """x rounded to `digits` significant decimal digits, -0.0 made 0.0."""
    mag = np.abs(x)
    exponent = np.floor(np.log10(mag, out=np.zeros_like(mag), where=mag > 0.0))
    # 10**(digits - 1 - exponent) overflows for subnormal x: apply it in two halves
    shift = digits - 1 - exponent
    half = np.floor(shift / 2)
    s1, s2 = 10.0**half, 10.0 ** (shift - half)
    rounded = np.round(x * s1 * s2) / s2 / s1
    rounded[rounded == 0.0] = 0.0
    return rounded


def problem_digest(problem: Problem) -> str:
    """Digest of the parsed problem, stable under reformatting.

    SHA-256 over the canonical JSON of the scalar fields, then for each
    array its name, its shape and the little-endian float64 bytes of its
    real and imaginary parts rounded to 12 significant digits.
    """
    scalars = {
        "dimension": problem.dimension,
        "field": problem.field,
        "profile": problem.profile,
        "alphas": list(problem.alphas),
        "bounds": list(problem.bounds) if problem.bounds else None,
        "convention": problem.convention,
        "seed": problem.seed,
        "tolerance": problem.tolerance,
        "command": problem.command,
        "lambda1": problem.lambda1,
        "lambda2": problem.lambda2,
        "variant": problem.variant,
        "samples": problem.samples,
        "claims": [{"kind": c["kind"], "value": c["value"]} for c in problem.claims],
    }
    arrays = {
        "family": problem.family,
        "family_g": problem.family_g,
        "operator_K": problem.operator_K,
        "operator_T": problem.operator_T,
    }
    for i, c in enumerate(problem.claims):
        arrays[f"claims[{i}].vector"] = c["vector"]
    h = hashlib.sha256(json.dumps(_canon(scalars), sort_keys=True, separators=(",", ":")).encode())
    for name, arr in arrays.items():
        if arr is None:
            continue
        h.update(f"\n{name}{list(arr.shape)}\n".encode())
        for part in (arr.real, arr.imag):
            h.update(_round_significant(part).astype("<f8").tobytes())
    return h.hexdigest()


def _cert_dict(cert: BoundCertificate) -> dict:
    return {
        "kind": cert.kind,
        "A": cert.A,
        "B": cert.B,
        "alpha_independent": cert.alpha_independent,
        "convention": cert.convention,
        "tight": cert.tight,
        "parseval": cert.parseval,
        "witness_lower": _unit(cert.witness_lower),
        "witness_upper": _unit(cert.witness_upper),
    }


def _verification_dict(res: VerificationResult) -> dict:
    return {
        "passed": res.passed,
        "checks_run": len(res.checks),
        "failures": [
            {
                "alpha": c.alpha,
                "side": c.side,
                "margin": c.margin,
                "witness": _unit(c.witness),
            }
            for c in res.checks
            if not c.ok
        ],
    }


# ---------------------------------------------------------------------------
# Command handlers: each returns (verdict, body)


def _cmd_bounds(p: Problem) -> tuple[str, dict]:
    family = p.frame_family()
    body: dict = {"optimal_frame": _cert_dict(optimal_frame_bounds(family, p.convention))}
    if p.operator_K is not None:
        body["optimal_kframe"] = _cert_dict(
            optimal_kframe_bounds(family, p.operator_K, p.convention)
        )
    return "pass", body


def _cmd_check_frame(p: Problem) -> tuple[str, dict]:
    family = p.frame_family()
    cert = optimal_frame_bounds(family, p.convention)
    A, B = p.bounds if p.bounds is not None else (cert.A, cert.B)
    if A == 0.0 and p.bounds is None:
        return "fail", {
            "optimal_frame": _cert_dict(cert),
            "reason": "family is not a frame: optimal lower bound is 0",
        }
    res = verify_bounds(family, A, B, None, p.alphas, p.convention, p.tolerance)
    body = {
        "requested": {"A": A, "B": B},
        "optimal_frame": _cert_dict(cert),
        "verification": _verification_dict(res),
    }
    return ("pass" if res.passed else "fail"), body


def _cmd_check_kframe(p: Problem) -> tuple[str, dict]:
    family = p.frame_family()
    K = p.need_K()
    cert = optimal_kframe_bounds(family, K, p.convention)
    A, B = p.bounds if p.bounds is not None else (cert.A, cert.B)
    if p.bounds is None and cert.A == 0.0:
        return "fail", {
            "optimal_kframe": _cert_dict(cert),
            "reason": "not a K-frame: some f with K*f != 0 has zero frame sum",
        }
    res = verify_bounds(family, A, B, K, p.alphas, p.convention, p.tolerance)
    body = {
        "requested": {"A": A, "B": B},
        "optimal_kframe": _cert_dict(cert),
        "verification": _verification_dict(res),
    }
    return ("pass" if res.passed else "fail"), body


def _cmd_atomic(p: Problem) -> tuple[str, dict]:
    family = p.frame_family()
    K = p.need_K()
    report = atomic_system_equivalence_check(family, K, p.tolerance)
    body: dict = {
        "certificate": _cert_dict(report.certificate),
        "kframe_holds": report.kframe_holds,
        "atomic_holds": report.atomic_holds,
        "equivalence_consistent": report.consistent,
        "projection_residual": report.projection_residual,
        "coefficient_norm_constant": report.C,
        "lower_bound_consistent": report.lower_bound_ok,
    }
    if not report.atomic_holds:
        return "fail", body
    residual = report.reconstruction_residual
    body["max_reconstruction_residual"] = residual
    # rounding allows n eps ||F|| ||F^dagger K|| on top of the tolerance
    limit = p.tolerance + p.dimension * EPS * math.sqrt(report.certificate.B) * report.C
    ok = report.consistent and report.lower_bound_ok and residual <= limit
    return ("pass" if ok else "fail"), body


def _cmd_transform(p: Problem) -> tuple[str, dict]:
    family = p.frame_family()
    K = p.need_K()
    T = p.need_T()
    if p.variant is not None:
        try:
            result = transform_family(
                family, T, K, p.variant, None, p.alphas, p.convention, p.tolerance
            )
        except ValueError as exc:
            return "fail", {"reason": str(exc)}
        body = {
            "variant": result.variant,
            "derived": {"A": result.derived.A, "B": result.derived.B},
            "verification": _verification_dict(result.verification),
            "transformed_family": result.family.vectors,
        }
        return ("pass" if result.verification.passed else "fail"), body
    try:
        result = operator_transfer(family, K, T, None, p.alphas, p.convention, p.tolerance)
    except RangeInclusionError as exc:
        return "fail", {
            "reason": "hypothesis violated: range(T) is not contained in range(K)",
            "projection_residual": exc.residual,
        }
    except ValueError as exc:
        return "fail", {"reason": str(exc)}
    body = {
        "lambda": result.lam,
        "derived": {"A": result.derived.A, "B": result.derived.B},
        "verification": _verification_dict(result.verification),
    }
    return ("pass" if result.verification.passed else "fail"), body


def _cmd_perturb_operator(p: Problem) -> tuple[str, dict]:
    K1 = p.need_K()
    K2 = p.need_T()
    report = check_operator_perturbation(K1, K2, p.lambda1, p.lambda2, p.tolerance)
    body: dict = {
        "constants": {"lambda1": p.lambda1, "lambda2": p.lambda2},
        "max_violation": report.max_violation,
        "method": report.method,
        "hypothesis_verified": report.verified,
        "witness": _unit(report.witness),
    }
    if not report.verified:
        return "fail", body
    family = p.frame_family()
    cert = optimal_kframe_bounds(family, K1, p.convention)
    if cert.A > 0.0 and math.isfinite(cert.A):
        derived = derive_operator_perturbed_bounds(
            cert.A, cert.B, p.lambda1, p.lambda2, family, K2,
            p.alphas, p.convention, p.tolerance,
        )
        body["derived"] = {"A": derived.A, "B": derived.B}
        body["verification"] = _verification_dict(derived.verification)
        return ("pass" if derived.verification.passed else "fail"), body
    body["note"] = "family carries no positive K1-frame bound to transfer"
    return "pass", body


def _cmd_perturb_family(p: Problem) -> tuple[str, dict]:
    F = p.frame_family()
    G = p.second_family()
    constant = family_perturbation_constant(F, G)
    body: dict = {
        "M": constant.M,
        "finite": constant.finite,
        "stronger_than_hypothesis": constant.stronger_than_hypothesis,
        "witness": _unit(constant.witness),
        "note": constant.report,
    }
    if not constant.finite:
        return "fail", body
    if p.operator_K is not None:
        cert = optimal_kframe_bounds(F, p.operator_K, p.convention)
    else:
        cert = optimal_frame_bounds(F, p.convention)
    if not (cert.A > 0.0 and math.isfinite(cert.A)):
        body["note"] = "source family carries no positive lower bound to transfer"
        return "fail", body
    derived = derive_family_perturbed_bounds(
        cert.A, cert.B, constant.M, p.operator_K, G, p.alphas, p.convention, p.tolerance
    )
    body["derived"] = {"A": derived.A, "B": derived.B}
    body["verification"] = _verification_dict(derived.verification)
    return ("pass" if derived.verification.passed else "fail"), body


def _cmd_reconstruct(p: Problem) -> tuple[str, dict]:
    try:
        worst, cond = reconstruction_residual(p.frame_family())
    except SingularFrameOperatorError as exc:
        return "not_applicable", {
            "reason": "frame operator is singular; no dual reconstruction",
            "witness": _unit(exc.witness),
        }
    body = {"max_residual": worst, "alphas": list(p.alphas)}
    # rounding allows n eps cond(S_c) on top of the tolerance
    ok = worst <= p.tolerance + p.dimension * EPS * cond
    return ("pass" if ok else "fail"), body


def _cmd_douglas(p: Problem) -> tuple[str, dict]:
    M = p.need_T()
    N = p.need_K()
    try:
        result = douglas_factorize(M, N, p.tolerance)
    except RangeInclusionError as exc:
        if math.isinf(exc.residual):  # no finite majorization constant: exit 2
            raise
        return "fail", {"inclusion": False, "projection_residual": exc.residual}
    body = {
        "inclusion": True,
        "projection_residual": result.projection_residual,
        "lambda": result.lam,
        "factor_W": result.W,
        "factorization_residual": result.residual,
    }
    return ("pass" if result.residual <= p.tolerance * 10 else "fail"), body


def _cmd_axioms(p: Problem) -> tuple[str, dict]:
    report = check_fip_axioms(p.model, p.samples, p.seed)
    body = {
        "profile": report.profile,
        "samples": p.samples,
        "all_passed": report.all_passed,
        "results": [
            {
                "axiom": r.axiom,
                "passed": r.passed,
                "violations": r.violations,
                "witness": r.witness,
            }
            for r in report.results
        ],
    }
    return ("pass" if report.all_passed else "fail"), body


COMMANDS: dict[str, Callable[[Problem], tuple[str, dict]]] = {
    "bounds": _cmd_bounds,
    "check-frame": _cmd_check_frame,
    "check-kframe": _cmd_check_kframe,
    "atomic": _cmd_atomic,
    "transform": _cmd_transform,
    "perturb-operator": _cmd_perturb_operator,
    "perturb-family": _cmd_perturb_family,
    "reconstruct": _cmd_reconstruct,
    "douglas": _cmd_douglas,
    "axioms": _cmd_axioms,
}

_VERDICT_EXIT = {"pass": EXIT_PASS, "fail": EXIT_FAIL, "not_applicable": EXIT_FAIL}


def _check_claims(p: Problem) -> tuple[list[str], list[dict]]:
    """Recompute claimed quantities; mismatches become erratum notes."""
    notes: list[str] = []
    details: list[dict] = []
    family = p.frame_family()
    for claim in p.claims:
        if claim["kind"] != "frame_sum":
            continue
        # Base value at unit scale; the level value is base * scale(alpha)
        # under the 'once' convention.
        base = frame_sum(family, claim["vector"], 0.5, "once") / family.model.scale(0.5)
        claimed = claim["value"]
        agrees = abs(base - claimed) <= p.tolerance * (1.0 + abs(base))
        details.append(
            {
                "kind": "frame_sum",
                "claimed": claimed,
                "recomputed_unit_scale": base,
                "agrees": agrees,
            }
        )
        if not agrees:
            notes.append(
                f"claimed frame sum {claimed:.12g} but recomputation gives "
                f"{base:.12g} * scale(alpha); the claimed value is an erratum"
            )
    return notes, details


def run_command(command: str, problem: Problem, path: str = "<memory>") -> tuple[dict, int]:
    """Execute one command against a parsed problem; returns (report, exit)."""
    if command not in COMMANDS:
        raise ProblemError(f"unknown command {command!r}")
    report: dict = {
        "schema": 1,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "command": {
            "name": command,
            "alphas": list(problem.alphas),
            "convention": problem.convention,
            "seed": problem.seed,
            "tolerance": problem.tolerance,
        },
        "input": {"path": str(path), "digest": problem_digest(problem)},
        "erratum_notes": [],
    }
    try:
        verdict, body = COMMANDS[command](problem)
    except ProblemError:
        raise
    except (ValueError, RangeInclusionError) as exc:
        report["verdict"] = "error"
        report["error"] = str(exc)
        report["exit_code"] = EXIT_ERROR
        return report, EXIT_ERROR

    if problem.claims:
        notes, claim_details = _check_claims(problem)
        report["erratum_notes"] = notes
        body["claims"] = claim_details
        if notes:
            # A failed claim downgrades the verdict: the report documents the
            # recomputation and asserts nothing beyond it.
            verdict = "not_applicable"

    report["verdict"] = verdict
    report["body"] = body
    report["exit_code"] = _VERDICT_EXIT[verdict]
    return report, report["exit_code"]


def run_file(
    path: Path,
    command: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> tuple[dict, int]:
    """Load, validate, and execute one problem file."""
    try:
        raw = json.loads(Path(path).read_text())
    except FileNotFoundError:
        return _error_report(path, f"no such file: {path}"), EXIT_ERROR
    except json.JSONDecodeError as exc:
        return _error_report(path, f"malformed JSON: {exc}"), EXIT_ERROR
    try:
        problem = parse_problem(raw)
        if overrides:
            problem = _apply_overrides(problem, overrides)
        cmd = command or problem.command
        return run_command(cmd, problem, str(path))
    except ProblemError as exc:
        return _error_report(path, str(exc)), EXIT_ERROR


def _apply_overrides(problem: Problem, overrides: dict) -> Problem:
    clean = {k: v for k, v in overrides.items() if v is not None}
    if "alphas" in clean:
        for a in clean["alphas"]:
            if not 0.0 < a < 1.0:
                raise ProblemError(f"alpha override {a} outside (0, 1)")
        clean["alphas"] = tuple(clean["alphas"])
    if "tolerance" in clean:
        clean["tolerance"] = _tolerance(clean["tolerance"], "tolerance override")
    return replace(problem, **clean)


def _error_report(path, message: str) -> dict:
    return {
        "schema": 1,
        "tool": {"name": TOOL_NAME, "version": TOOL_VERSION},
        "input": {"path": str(path)},
        "verdict": "error",
        "error": message,
        "exit_code": EXIT_ERROR,
        "erratum_notes": [],
    }


# ---------------------------------------------------------------------------
# Batch


def batch(paths: Sequence[Path], parallelism: int = 1) -> tuple[dict, int]:
    """Run every file (each with its embedded command) and summarize.

    Per-file results are independent of execution order and parallelism;
    the summary lists files in the given order.  Empty input is an error.
    """
    files = [Path(p) for p in paths]
    if not files:
        return {"summary": {"error": "no problem files"}, "reports": []}, EXIT_ERROR
    if parallelism < 1:
        raise ProblemError("parallelism must be >= 1")
    if parallelism == 1:
        results = [run_file(f) for f in files]
    else:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(run_file, files))
    reports = [r for r, _ in results]
    codes = [c for _, c in results]
    counts = {"pass": 0, "fail": 0, "not_applicable": 0, "error": 0}
    erratum_files = 0
    for r in reports:
        counts[r["verdict"]] += 1
        if r.get("erratum_notes"):
            erratum_files += 1
    summary = {
        "files": len(files),
        "counts": counts,
        "erratum_flagged": erratum_files,
        "exit_code": max(codes),
    }
    return {"summary": summary, "reports": reports}, max(codes)


# ---------------------------------------------------------------------------
# Entry point


def _format_text(report: dict) -> str:
    lines = [f"verdict: {report.get('verdict')}"]
    if "error" in report:
        lines.append(f"error: {report['error']}")
    for note in report.get("erratum_notes", []):
        lines.append(f"erratum: {note}")
    body = report.get("body", {})
    for key in sorted(body):
        value = body[key]
        if isinstance(value, (str, bool, int, float)):
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Frame and K-frame certificates for fuzzy inner product models.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--alpha", help="comma-separated levels in (0,1)")
        sp.add_argument("--convention", choices=["once", "squared"])
        sp.add_argument("--seed", type=int)
        sp.add_argument("--tol", type=float)
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--format", choices=["json", "text"], default="json")

    for name in COMMANDS:
        sp = sub.add_parser(name, help=f"run the {name} check on one problem file")
        sp.add_argument("file", type=Path)
        add_common(sp)

    bp = sub.add_parser("batch", help="run a directory or list of problem files")
    bp.add_argument("paths", nargs="+", type=Path)
    bp.add_argument("--parallel", type=int, default=1)
    bp.add_argument("--out")
    bp.add_argument("--format", choices=["json", "text"], default="json")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0

    if args.subcommand == "batch":
        files: list[Path] = []
        for p in args.paths:
            if p.is_dir():
                files.extend(sorted(p.glob("*.json")))
            else:
                files.append(p)
        try:
            result, code = batch(files, args.parallel)
        except ProblemError as exc:
            _emit(canonical_json({"verdict": "error", "error": str(exc)}) + "\n", args.out)
            return EXIT_ERROR
        if args.format == "text":
            s = result["summary"]
            text = (
                f"files: {s.get('files', 0)}  pass: {s['counts']['pass']}  "
                f"fail: {s['counts']['fail']}  "
                f"not_applicable: {s['counts']['not_applicable']}  "
                f"error: {s['counts']['error']}  "
                f"erratum-flagged: {s['erratum_flagged']}\n"
                if "counts" in s
                else f"error: {s.get('error')}\n"
            )
            _emit(text, args.out)
        else:
            _emit(canonical_json(result) + "\n", args.out)
        return code

    overrides: dict = {
        "convention": args.convention,
        "seed": args.seed,
        "tolerance": args.tol,
    }
    if args.alpha:
        try:
            overrides["alphas"] = [float(a) for a in args.alpha.split(",") if a]
        except ValueError:
            _emit(
                canonical_json({"verdict": "error", "error": "bad --alpha list"}) + "\n",
                args.out,
            )
            return EXIT_ERROR
    report, code = run_file(args.file, args.subcommand, overrides)
    if args.format == "text":
        _emit(_format_text(report), args.out)
    else:
        _emit(canonical_json(report) + "\n", args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
