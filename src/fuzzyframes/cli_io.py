"""Batch command-line interface: JSON problem files in, deterministic
certificate reports out.

Reports are canonical: keys sorted, numbers printed to 12 significant
digits, complex scalars as [re, im] pairs, witnesses normalized to unit
norm.  Identical (file, version) pairs produce byte-identical reports at
any parallelism level.

Exit codes: 0 verdict pass, 1 mathematical negative (fail or
not_applicable, with witness where one exists), 2 input or usage error.

Every problem is decided at unit scale (see parse_problem and _scaled): a
reported bound or operator past the double range is an input error naming it,
except an optimal constant of check-frame or check-kframe with the file's
bounds, which is null.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import re
import sys
from array import array
from itertools import chain
from json.encoder import encode_basestring_ascii as _string
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence

import numpy as np
import orjson

from . import __version__
from .fuzzy_space import FIELDS, MAX_DIMENSION, PROFILES, BaseSpace, FuzzyModel, check_fip_axioms
from .operator_algebra import PSD_TOL, RangeInclusionError, douglas_factorize
from .operator_algebra import _factorize, _ldexp, _unit_scale, within_tolerance
from .frame_core import (
    CONVENTIONS,
    DEFAULT_ALPHAS,
    BoundCertificate,
    FrameFamily,
    VerificationResult,
    _optimal_bounds,
    _synthesis_svd,
    _unit,
    frame_sum,
    optimal_frame_bounds,
    optimal_kframe_bounds,
    restricted_inverse_check,
    synthesis_matrix,
    verify_bounds,
)
from .frame_transforms import VARIANTS, combine, operator_transfer, transform_family
from .perturbation import (
    _family_constant,
    check_operator_perturbation,
    derive_family_perturbed_bounds,
    derive_operator_perturbed_bounds,
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


class ProblemError(Exception):
    """Malformed problem file or unusable command arguments."""


# ---------------------------------------------------------------------------
# Problem files


#: the array operands of a problem file
OPERANDS = ("family", "family_g", "operator_K", "operator_T", "coefficients")


class Problem(NamedTuple):
    """A validated problem file.  Each array operand X, and each claim
    vector, is held at unit scale, 2^-e X with e = exponents[name] (the
    claim's "exponent"): its largest real or imaginary part is in [1/2, 1)."""

    dimension: int
    field: str
    profile: str
    family: np.ndarray
    exponents: dict[str, int]
    family_g: Optional[np.ndarray] = None
    operator_K: Optional[np.ndarray] = None
    operator_T: Optional[np.ndarray] = None
    #: the scalars (a, b) of combine's a K + b T
    coefficients: Optional[np.ndarray] = None
    alphas: tuple[float, ...] = DEFAULT_ALPHAS
    bounds: Optional[tuple[float, float]] = None
    convention: str = "once"
    tolerance: float = PSD_TOL
    command: str = "bounds"
    lambda1: float = 0.0
    lambda2: float = 0.0
    variant: Optional[str] = None
    claims: tuple[dict, ...] = ()

    @property
    def model(self) -> FuzzyModel:
        return FuzzyModel(BaseSpace(self.dimension, self.field), self.profile)

    def frame_family(self) -> FrameFamily:
        return FrameFamily(self.family, self.model)

    def need(self, name: str) -> np.ndarray:
        """The operand ``name``, which the command cannot do without."""
        if getattr(self, name) is None:
            what = "a second family 'family_g'" if name == "family_g" else f"'{name}'"
            raise ProblemError(f"this command needs {what}")
        return getattr(self, name)


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


def _integer(value: Any, what: str) -> int:
    """A JSON integer (bool excluded) or an integral number such as 3.0."""
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


#: leaves past which _doubles, whose 0/1 gate has a fixed cost, beats the type pass
WHOLE_ARRAY_GATED = 128


def _doubles(numbers: Sequence) -> np.ndarray:
    """numbers as doubles, or TypeError for one that is no int or float:
    array('d') raises it for each decoded JSON value but a bool, which lands
    on 0.0 or 1.0, so only an array holding either gets the type pass."""
    flat = np.frombuffer(array("d", numbers))
    if ((flat == 0.0) | (flat == 1.0)).any() and not set(map(type, numbers)) <= {float, int}:
        raise TypeError("a bool where a number belongs")
    return flat


def _whole_array(
    entries: Any, shape: tuple[int, ...], field_name: str
) -> Optional[tuple[np.ndarray, int]]:
    """Parse a vector or matrix from one flat list of its numbers into
    _unit_scale's (2^-e x, e), or None if it needs the per-entry parser:
    mixed numbers and pairs, or anything invalid, whose precise error
    message the per-entry parser gives.

    Each nesting level must be lists of the expected length, and the leaves
    numbers (bool is not int here) or [re, im] pairs of numbers.  The first
    leaf says which: among pairs, a number has no parts, and any other leaf
    of length 2 that decoded JSON holds (a string, an object, a list of
    lists) has parts other than numbers."""
    level = [entries]
    for size in shape:
        if set(map(type, level)) != {list} or set(map(len, level)) != {size}:
            return None
        level = list(chain.from_iterable(level))
    pairs = type(level[0]) is list
    try:
        if len(level) <= WHOLE_ARRAY_GATED:
            numbers = list(chain.from_iterable(level)) if pairs else level
            if pairs and set(map(len, level)) != {2} or not set(map(type, numbers)) <= {float, int}:
                return None
            flat = np.array(numbers, dtype=np.float64)
        elif pairs:
            real, imag = zip(*level, strict=True)  # ValueError unless all have two parts
            flat = np.column_stack((_doubles(real), _doubles(imag)))
        else:
            flat = _doubles(level)
    except (TypeError, ValueError, OverflowError):  # not numbers, or an int past the range
        return None
    # a nan or inf carries through the max, which also gives the exponent; a
    # real problem's imaginary parts are read before scaling can flush one to 0
    top = float(np.abs(flat).max())
    if not math.isfinite(top) or pairs and field_name == "real" and flat.reshape(-1, 2)[:, 1].any():
        return None
    e = math.frexp(top)[1]
    np.ldexp(flat, -e, out=flat)
    if not pairs:
        flat = flat.reshape(shape)
        return (flat.astype(np.complex128) if field_name == "complex" else flat), e
    flat = flat.reshape(shape + (2,))
    if field_name == "real":
        return flat[..., 0].copy(), e
    return flat.view(np.complex128).reshape(shape), e


def _parse_vector(entries: Any, dim: int, field_name: str, where: str) -> tuple[np.ndarray, int]:
    """The vector at unit scale and its exponent (see _unit_scale)."""
    parsed = _whole_array(entries, (dim,), field_name)
    return parsed or _unit_scale(_parse_vector_entries(entries, dim, field_name, where))


def _parse_matrix(
    rows: Any, shape: tuple[int, int], field_name: str, where: str
) -> tuple[np.ndarray, int]:
    """The matrix at unit scale and its exponent (see _unit_scale)."""
    parsed = _whole_array(rows, shape, field_name)
    return parsed or _unit_scale(_parse_matrix_entries(rows, shape, field_name, where))


def _one_of(value: Any, choices: tuple, key: str) -> Any:
    """value, which must be one of the choices of the entry ``key``."""
    if value not in choices:
        raise ProblemError(f"'{key}' must be {' or '.join(map(repr, choices))}, got {value!r}")
    return value


def parse_problem(data: Any) -> Problem:
    """Validate a decoded problem file into a Problem at unit scale."""
    if not isinstance(data, dict):
        raise ProblemError("problem file must be a JSON object")
    if data.get("schema", 1) != 1:
        raise ProblemError(f"unsupported schema {data.get('schema')!r}")

    dim = _integer(data.get("dimension"), "'dimension'")
    if not 1 <= dim <= MAX_DIMENSION:
        raise ProblemError(f"'dimension' must lie in [1, {MAX_DIMENSION}], got {dim}")
    fieldname = _one_of(data.get("field", "real"), FIELDS, "field")
    profile = _one_of(data.get("profile", "scaled"), PROFILES, "profile")

    if "family" not in data or not isinstance(data["family"], list) or not data["family"]:
        raise ProblemError("'family' must be a nonempty list of vectors")
    family = _parse_matrix(data["family"], (len(data["family"]), dim), fieldname, "family")

    family_g = None
    if data.get("family_g") is not None:
        fg = data["family_g"]
        if not isinstance(fg, list):
            raise ProblemError("'family_g' must be a nonempty list of vectors")
        family_g = _parse_matrix(fg, (len(fg), dim), fieldname, "family_g")

    def matrix_field(key: str) -> Optional[tuple[np.ndarray, int]]:
        if data.get(key) is None:
            return None
        return _parse_matrix(data[key], (dim, dim), fieldname, key)

    operator_K = matrix_field("operator_K")
    operator_T = matrix_field("operator_T")
    coefficients = None
    if data.get("coefficients") is not None:
        coefficients = _parse_vector(data["coefficients"], 2, fieldname, "coefficients")

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
        # no order between A and B: a K-frame may have A > B (see DerivedBound)
        bounds = (_real(b[0], "'bounds' A"), _real(b[1], "'bounds' B"))
        if bounds[0] < 0.0 or bounds[1] < 0.0:
            raise ProblemError("'bounds' must satisfy A >= 0 and B >= 0")

    convention = _one_of(data.get("convention", "once"), CONVENTIONS, "convention")

    tolerance = _real(data.get("tolerance", PSD_TOL), "'tolerance'")
    if not tolerance > 0.0:
        raise ProblemError("'tolerance' must be positive")

    command = data.get("command", "bounds")
    if not isinstance(command, str) or command not in COMMANDS:
        raise ProblemError(f"unknown command {command!r}")

    variant = data.get("variant")
    if variant is not None:
        _one_of(variant, VARIANTS, "variant")

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
            vec, e = _parse_vector(entry["vector"], dim, fieldname, "claims.frame_sum.vector")
            value = _real(entry["value"], "claims.frame_sum.value")
            claims.append({"kind": "frame_sum", "vector": vec, "exponent": e, "value": value})

    operands, exponents = {}, {}
    for name, x in zip(OPERANDS, (family, family_g, operator_K, operator_T, coefficients)):
        operands[name], exponents[name] = x or (None, 0)
    return Problem(
        dimension=dim,
        field=fieldname,
        profile=profile,
        exponents=exponents,
        **operands,
        alphas=alphas,
        bounds=bounds,
        convention=convention,
        tolerance=tolerance,
        command=command,
        lambda1=_real(data.get("lambda1", 0.0), "'lambda1'"),
        lambda2=_real(data.get("lambda2", 0.0), "'lambda2'"),
        variant=variant,
        claims=tuple(claims),
    )


# ---------------------------------------------------------------------------
# Canonical serialization


def _fmt(x: float) -> Any:
    """x rounded to 12 significant digits, -0.0 made 0.0; nan and inf as
    the strings "nan", "inf" and "-inf"."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    v = float(f"{x:.12g}")
    return 0.0 if v == 0.0 else v


#: exponents that '.12g' writes in e-notation and float.__repr__ positionally
_POSITIONAL_EXPONENTS = frozenset(("e+12", "e+13", "e+14", "e+15"))


def _num(x: float) -> str:
    """The JSON text of _fmt(x).

    Twelve significant digits round-trip through a double, so '.12g' writes
    the digits float.__repr__ writes for the rounded value.  The exceptions
    go through _fmt: exponents 12 to 15, which repr writes positionally;
    exponents -308 and below, where 12 digits need not round-trip through a
    subnormal; integral values, which repr ends in '.0'; -0, nan and inf.
    """
    s = f"{x:.12g}"
    if "e" in s:
        if s[-4:] not in _POSITIONAL_EXPONENTS and (s[-5:-3] != "e-" or s[-3:] < "308"):
            return s
    elif "." in s:
        return s
    v = _fmt(x)
    return _string(v) if type(v) is str else float.__repr__(v)


def _pair(z: complex, nl: str) -> str:
    inner = nl + "  "
    return f"[{inner}{_num(z.real)},{inner}{_num(z.imag)}{nl}]"


def _floats(a: np.ndarray, nl: str) -> str:
    inner = nl + "  "
    return "[" + inner + ("," + inner).join(map(_num, a.tolist())) + nl + "]"


def _complexes(a: np.ndarray, nl: str) -> str:
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([_pair(z, inner) for z in a.tolist()]) + nl + "]"


#: 1-D writers of the array dtypes reports hold, float64 and complex128
_ROW_WRITERS = {"d": _floats, "D": _complexes}


def _array(a: np.ndarray, nl: str) -> str:
    """Nonempty float64 and complex128 vectors, and matrices row by row;
    any other array (0-d, empty, another dtype) through tolist(), written
    as the generic path writes it: a 0-d array as its scalar."""
    row = _ROW_WRITERS.get(a.dtype.char)
    if row is not None and a.size:
        if a.ndim == 1:
            return row(a, nl)
        if a.ndim == 2:
            inner = nl + "  "
            return "[" + inner + ("," + inner).join([row(r, inner) for r in a]) + nl + "]"
    return _text(a.tolist(), nl)


def _list(items: Sequence, nl: str) -> str:
    if not items:
        return "[]"
    inner = nl + "  "
    return "[" + inner + ("," + inner).join([_text(v, inner) for v in items]) + nl + "]"


def _object(obj: dict, nl: str) -> str:
    if not obj:
        return "{}"
    inner = nl + "  "
    keys = sorted(obj)
    if set(map(type, keys)) != {str}:
        obj = {str(k): obj[k] for k in keys}
        if len(obj) < len(keys):
            raise TypeError("dict keys whose str coincide")
        keys = sorted(obj)
    members = [f"{_string(k)}: {_text(obj[k], inner)}" for k in keys]
    return "{" + inner + ("," + inner).join(members) + nl + "}"


def _text(obj: Any, nl: str) -> str:
    """obj as canonical JSON; nl is the line break and indentation of its line.

    The exact types reports hold come first; subclasses and numpy scalars
    follow in the order of the isinstance tests that decide them.
    """
    t = type(obj)
    if t is float:
        return _num(obj)
    if t is str:
        return _string(obj)
    if t is dict:
        return _object(obj, nl)
    if t is np.ndarray:
        return _array(obj, nl)
    if t is list or t is tuple:
        return _list(obj, nl)
    if obj is None:
        return "null"
    if t is bool or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return _string(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _num(obj)
    if isinstance(obj, complex):
        return _pair(obj, nl)
    if isinstance(obj, np.floating):
        return _num(float(obj))
    if isinstance(obj, np.integer):
        return int.__repr__(int(obj))
    if isinstance(obj, np.complexfloating):
        return _pair(complex(obj), nl)
    if isinstance(obj, np.ndarray):
        return _text(obj.tolist(), nl)
    if isinstance(obj, dict):
        return _object(obj, nl)
    if isinstance(obj, (list, tuple)):
        return _list(obj, nl)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """The canonical report text of obj, written in one pass.

    It is the text json.dumps(sort_keys=True, indent=2, ensure_ascii=True)
    prints once every number is rounded by _fmt, dict keys are made strings
    with str and complex values are [re, im] pairs.  A 0-d array is written
    as its scalar; dict keys whose str coincide raise TypeError.
    """
    return _text(obj, "\n")


#: the compact sorted JSON of the digest's scalars; json writes floats by repr
_SCALAR_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def problem_digest(problem: Problem) -> str:
    """Digest of the problem as parsed: two files share it exactly when they
    parse to the same Problem.

    SHA-256 over the compact JSON, keys sorted, of the scalar fields, every
    float written exactly (repr), then for each array its name, its shape,
    its exponent and the little-endian bytes of its unit-scale values
    (complex ones as re, im pairs).  -0.0 counts as 0.0 throughout.
    """
    # alphas and tolerance are positive; the other floats may be -0.0
    scalars = {
        "dimension": problem.dimension,
        "field": problem.field,
        "profile": problem.profile,
        "alphas": list(problem.alphas),
        "bounds": [b + 0.0 for b in problem.bounds] if problem.bounds else None,
        "convention": problem.convention,
        "tolerance": problem.tolerance,
        "command": problem.command,
        "lambda1": problem.lambda1 + 0.0,
        "lambda2": problem.lambda2 + 0.0,
        "variant": problem.variant,
        "claims": [{"kind": c["kind"], "value": c["value"] + 0.0} for c in problem.claims],
    }
    arrays = {name: (getattr(problem, name), problem.exponents[name]) for name in OPERANDS}
    for i, c in enumerate(problem.claims):
        arrays[f"claims[{i}].vector"] = (c["vector"], c["exponent"])
    h = hashlib.sha256(_SCALAR_JSON.encode(scalars).encode())
    for name, (arr, e) in arrays.items():
        if arr is None:
            continue
        h.update(f"\n{name}{list(arr.shape)} 2^{e}\n".encode())
        h.update((arr + 0.0).astype(arr.dtype.newbyteorder("<"), order="C", copy=False))
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Command handlers: each returns (verdict, body), from operands held at unit
# scale by the exponents f of F, g of G, k of K and t of T; the maps below
# move every constant between the scales


#: the largest exponent a requested constant keeps at unit scale
BOUND_EXPONENT = 1000


def _scaled(x, power: int, what: Optional[str]):
    """x 2^power, correctly rounded, for a float or an array.  A margin or
    residual (``what`` None) saturates to +-inf; a bound or operator past
    the double range, or rounding to 0, raises OverflowError naming it."""
    if isinstance(x, np.ndarray):
        y = _ldexp(x, power)
        if what is not None and not np.isfinite(y).all():
            raise OverflowError(f"{what} overflows a double")
        return y
    try:
        y = math.ldexp(x, power)
    except OverflowError:
        y = math.copysign(math.inf, x)
    if what is not None and (y == 0.0 != x or math.isinf(y) and math.isfinite(x)):
        raise OverflowError(f"{what} {'underflows' if y == 0.0 else 'overflows'} a double")
    return y


def _cert_dict(
    p: Problem, cert: BoundCertificate, power_A: int, power_B: int, null: bool = False
) -> dict:
    """The certificate at the caller's scale, A = cert.A 2^power_A and B =
    cert.B 2^power_B, where Parseval (A = 1) is decided, labelled with the
    problem's convention.  A constant past the double range raises
    OverflowError, or with ``null`` is None."""

    def scaled(x: float, power: int, what: str) -> Optional[float]:
        try:
            return _scaled(x, power, what)
        except OverflowError:
            if null:
                return None
            raise

    lower = "1 / ||F^+ K||^2" if cert.kind == "k_frame" else "lambda_min(S_c) = sigma_min(F)^2"
    B = scaled(cert.B, power_B, "the upper bound B = ||S_c|| = sigma_max(F)^2")
    A = scaled(cert.A, power_A, f"the lower bound A = {lower}")
    # kind and parseval follow A at this scale; an A out of range is not 1
    cert = cert._replace(A=math.inf if A is None else A)
    return {
        "kind": cert.kind,
        "A": A,
        "B": B,
        # one scale power cancels under once, and the crisp profile has scale 1
        "alpha_independent": p.convention == "once" or p.profile == "crisp",
        "convention": p.convention,
        "tight": cert.tight,
        "parseval": cert.parseval,
        "witness_lower": _unit(cert.witness_lower),
        "witness_upper": _unit(cert.witness_upper),
    }


def _derived(formula: str, A: float, power_A: int, B: float, power_B: int) -> dict:
    """A derived pair at the caller's scale, A 2^power_A and B 2^power_B."""
    return {
        "A": _scaled(A, power_A, f"the derived lower bound {formula}"),
        "B": _scaled(B, power_B, "the derived upper bound B'"),
    }


def _verification_dict(res: VerificationResult, power: int, left_out: int) -> dict:
    """The verification, failing margins scaled by 2^power (lower ones 2^left_out more)."""
    return {
        "passed": res.passed,
        "checks_run": len(res.checks),
        "failures": [
            {
                "alpha": c.alpha,
                "side": c.side,
                "margin": _scaled(c.margin, power + (left_out if c.side == "lower" else 0), None),
                "witness": _unit(c.witness),
            }
            for c in res.checks
            if not c.ok
        ],
    }


def _verify(p: Problem, family: FrameFamily, e: int, bounds: tuple, K, k: int) -> tuple[bool, dict]:
    """verify_bounds of A = a 2^pa and B = b 2^pb, ((a, pa), (b, pb)) = bounds,
    for F held at 2^-e and K at 2^-k.  At unit scale each keeps an exponent
    of at most BOUND_EXPONENT: a held A dwarfs S_c, so its check and margin
    are A K K*'s, linear in A; a held B exceeds ||S_c||.  A zero family holds
    A at 2^-BOUND_EXPONENT or more, as its check is linear in A; otherwise
    max diag S_c >= 1/4, and an A that rounds lies below the slack."""
    floor = -math.inf if family.vectors.any() else -BOUND_EXPONENT
    unit = []
    for (x, power), shift in zip(bounds, (2 * k - 2 * e, -2 * e)):
        ex = math.frexp(x)[1] + power + shift if x else 0
        held = min(max(ex, floor), BOUND_EXPONENT)
        unit.append((_scaled(x, power + shift + held - ex, None), ex - held))
    (A, left_out), (B, _) = unit
    res = verify_bounds(family, A, B, K, p.alphas, p.convention, p.tolerance)
    return res.passed, _verification_dict(res, 2 * e, left_out)


def _cmd_bounds(p: Problem) -> tuple[str, dict]:
    family = p.frame_family()
    f, k = p.exponents["family"], p.exponents["operator_K"]
    svd = _synthesis_svd(family)  # one SVD of F for both certificates
    frame = _optimal_bounds(family, None, *svd)
    body = {"optimal_frame": _cert_dict(p, frame, 2 * f, 2 * f)}
    if p.operator_K is not None:
        kframe = _optimal_bounds(family, p.operator_K, *svd, p.tolerance)
        body["optimal_kframe"] = _cert_dict(p, kframe, 2 * f - 2 * k, 2 * f)
    return "pass", body


def _check_bounds(p: Problem, key: str, K: Optional[np.ndarray], reason: str) -> tuple[str, dict]:
    """check-frame (K None) and check-kframe of the file's bounds, or else
    of the optimal ones.  With the file's bounds an optimal constant past
    the double range is reported as null: verify_bounds decides alone."""
    family = p.frame_family()
    f, k = p.exponents["family"], 0 if K is None else p.exponents["operator_K"]
    if K is None:
        cert = optimal_frame_bounds(family)
    else:
        cert = optimal_kframe_bounds(family, K, p.tolerance)
    optimal = _cert_dict(p, cert, 2 * f - 2 * k, 2 * f, null=p.bounds is not None)
    if p.bounds is None and cert.A == 0.0:
        return "fail", {key: optimal, "reason": reason}
    if p.bounds is None:  # the optimal pair, verified exactly at unit scale
        A, B, bounds = optimal["A"], optimal["B"], ((cert.A, 2 * f - 2 * k), (cert.B, 2 * f))
    else:
        A, B, bounds = *p.bounds, ((p.bounds[0], 0), (p.bounds[1], 0))
    passed, verification = _verify(p, family, f, bounds, K, k)
    body = {"requested": {"A": A, "B": B}, key: optimal, "verification": verification}
    return ("pass" if passed else "fail"), body


def _cmd_check_frame(p: Problem) -> tuple[str, dict]:
    reason = "family is not a frame: optimal lower bound is 0"
    return _check_bounds(p, "optimal_frame", None, reason)


def _cmd_check_kframe(p: Problem) -> tuple[str, dict]:
    reason = "not a K-frame: some f with K*f != 0 has zero frame sum"
    return _check_bounds(p, "optimal_kframe", p.need("operator_K"), reason)


def _cmd_atomic(p: Problem) -> tuple[str, dict]:
    """douglas with M = K and N = F: the family is an atomic system for K
    exactly when K = F W, and the K-frame certificate, A = 1 / ||W||^2,
    comes from the same lemma and SVD of F.  It decides and labels under
    once whatever the problem asks, a known fault (README, ``atomic``)."""
    p = p._replace(convention="once")
    family = p.frame_family()
    K = p.need("operator_K")
    f, k = p.exponents["family"], p.exponents["operator_K"]
    d, u, s, factor = _factorize(K, synthesis_matrix(family), p.tolerance)
    cert = _optimal_bounds(family, K, u, s, p.tolerance, d)
    body: dict = {
        "certificate": _cert_dict(p, cert, 2 * f - 2 * k, 2 * f),
        "atomic_holds": d.included,
        "projection_residual": d.residual,
        "coefficient_norm_constant": (
            None if factor is None else _scaled(factor.lam, k - f, "the constant C")
        ),
    }
    if factor is None:
        return "fail", body
    body["reconstruction_residual"] = _scaled(factor.residual, k, None)
    # verify_bounds of (1 / C^2, B) checks the certificate independently
    verification = verify_bounds(family, cert.A, cert.B, K, p.alphas, p.convention, p.tolerance)
    body["verification"] = _verification_dict(verification, 2 * f, 0)
    return ("pass" if factor.passed and verification.passed else "fail"), body


def _cmd_transform(p: Problem) -> tuple[str, dict]:
    family = p.frame_family()
    K, T = p.need("operator_K"), p.need("operator_T")
    f, k, t = (p.exponents[name] for name in ("family", "operator_K", "operator_T"))
    if p.variant is not None:
        # ||T|| = 1 for a co-isometry: T T* = I is decided at the file's scale,
        # held within 2^+-64, past which T T* - I is T T* or I to the last bit
        held = min(max(t, -64), 64)
        T, t = (_ldexp(T, held), t - held) if p.variant == "coisometry" else (T, t)
        try:
            result = transform_family(family, T, K, p.variant, p.alphas, p.convention, p.tolerance)
        except ValueError as exc:
            return "fail", {"reason": str(exc)}
        moved = 2 * (t + f)  # the moved family T F is held at 2^-(t + f)
        body = {
            "variant": result.variant,
            "derived": _derived("A", result.derived.A, moved - 2 * k, result.derived.B, moved),
            "verification": _verification_dict(result.verification, moved, 0),
            "transformed_family": _scaled(result.family.vectors, t + f, "the transformed family"),
        }
        return ("pass" if result.verification.passed else "fail"), body
    try:
        result = operator_transfer(family, K, T, p.alphas, p.convention, p.tolerance)
    except RangeInclusionError as exc:
        return "fail", {
            "reason": "hypothesis violated: range(T) is not contained in range(K)",
            "projection_residual": exc.residual,
        }
    except ValueError as exc:
        return "fail", {"reason": str(exc)}
    body = {
        "lambda": _scaled(result.lam, t - k, "lambda = ||K^+ T||"),
        "derived": _derived("A / lambda^2", result.derived.A, 2 * (f - t), result.derived.B, 2 * f),
        "verification": _verification_dict(result.verification, 2 * f, 0),
    }
    return ("pass" if result.verification.passed else "fail"), body


def _cmd_combine(p: Problem) -> tuple[str, dict]:
    family = p.frame_family()
    K1, K2 = p.need("operator_K"), p.need("operator_T")
    f, k1, k2 = (p.exponents[name] for name in ("family", "operator_K", "operator_T"))
    a = p.coefficients
    if a is None:  # K1 K2 is 2^top times the product of the held operands
        operation, formula, top = "product", "A1 / ||K2||^2", k1 + k2
    else:
        # a_j K_j = 2^top a_j' K_j with the largest |a_j'| in [1/2, 1): top is
        # the largest exponent of a term, and the sum rule does not change
        # when a term's power of two moves from K_j to a_j
        c = p.exponents["coefficients"]
        top = max((c + k + math.frexp(abs(x))[1] for x, k in zip(a, (k1, k2)) if x), default=0)
        a = [_ldexp(a[j : j + 1], c + k - top)[0] for j, k in enumerate((k1, k2))]
        operation, formula = "sum", "1 / (|a| / sqrt(A1) + |b| / sqrt(A2))^2"
    try:
        result = combine(family, [K1, K2], a, p.alphas, p.convention, p.tolerance)
    except ValueError as exc:
        return "fail", {"operation": operation, "reason": str(exc)}
    e = result.exponent  # the combined operator is held at 2^-(top + e)
    body = {
        "operation": operation,
        "derived": _derived(formula, result.derived.A, 2 * (f - top), result.derived.B, 2 * f),
        "verification": _verification_dict(result.verification, 2 * f, 0),
        "optimal_kframe": _cert_dict(p, result.optimal, 2 * (f - top - e), 2 * f, null=True),
        "ratio": result.ratio,
    }
    return ("pass" if result.verification.passed else "fail"), body


def _cmd_perturb_operator(p: Problem) -> tuple[str, dict]:
    K1, K2 = p.need("operator_K"), p.need("operator_T")
    k1, k2 = p.exponents["operator_K"], p.exponents["operator_T"]
    top = max(k1, k2)  # D = K1 - K2 is formed at the larger scale
    report = check_operator_perturbation(
        _ldexp(K1, k1 - top), _ldexp(K2, k2 - top), p.lambda1, p.lambda2, p.tolerance
    )
    body: dict = {
        "constants": {"lambda1": p.lambda1, "lambda2": p.lambda2},
        "max_violation": _scaled(report.max_violation, top, None),
        "method": report.method,
        "hypothesis_verified": report.verified,
        "witness": _unit(report.witness),
    }
    if not report.verified:
        return "fail", body
    family = p.frame_family()
    f = p.exponents["family"]
    cert = optimal_kframe_bounds(family, K1, p.tolerance)
    if cert.A > 0.0 and math.isfinite(cert.A):
        derived = derive_operator_perturbed_bounds(cert.A, cert.B, p.lambda1, p.lambda2)
        bounds = ((derived.A, 2 * f - 2 * k1), (derived.B, 2 * f))
        passed, body["verification"] = _verify(p, family, f, bounds, K2, k2)
        body["derived"] = _derived("A ((1 - lambda2) / (1 + lambda1))^2", *bounds[0], *bounds[1])
        return ("pass" if passed else "fail"), body
    body["note"] = "family carries no positive K1-frame bound to transfer"
    return "pass", body


def _cmd_perturb_family(p: Problem) -> tuple[str, dict]:
    F = p.frame_family()
    G = FrameFamily(p.need("family_g"), p.model)
    f, g, k = (p.exponents[name] for name in ("family", "family_g", "operator_K"))
    constant, svd_f = _family_constant(F, G, f - g, p.tolerance)
    body: dict = {
        "M": constant.M,
        "finite": constant.finite,
        "stronger_than_hypothesis": constant.stronger_than_hypothesis,
        "witness": _unit(constant.witness),
        "note": constant.report,
    }
    if not constant.finite:
        return "fail", body
    cert = _optimal_bounds(F, p.operator_K, *svd_f, p.tolerance)
    if not (cert.A > 0.0 and math.isfinite(cert.A)):
        body["note"] = "source family carries no positive lower bound to transfer"
        return "fail", body
    # (sqrt(M) + 1)^2 < 2^1024 keeps A' and B' exact for A 2^500 and B 2^-500
    a, b = math.ldexp(cert.A, 500), math.ldexp(cert.B, -500)
    derived = derive_family_perturbed_bounds(a, b, constant.M)
    bounds = ((derived.A, 2 * f - 2 * k - 500), (derived.B, 2 * f + 500))
    passed, body["verification"] = _verify(p, G, g, bounds, p.operator_K, k)
    body["derived"] = _derived("A / (sqrt(M) + 1)^2", *bounds[0], *bounds[1])
    return ("pass" if passed else "fail"), body


def _cmd_reconstruct(p: Problem) -> tuple[str, dict]:
    """S_c is invertible on range(K), K = I without operator_K, within the
    sandwich bounds of the optimal K-frame pair (restricted_inverse_check)."""
    family = p.frame_family()
    K = np.eye(p.dimension) if p.operator_K is None else p.operator_K
    f, k = p.exponents["family"], p.exponents["operator_K"]
    cert = optimal_kframe_bounds(family, K, p.tolerance)
    if cert.A == 0.0:
        return "not_applicable", {
            "reason": "not a K-frame: some f with K*f != 0 has zero frame sum",
            "witness": _unit(cert.witness_lower),
        }
    if cert.A == math.inf:
        return "not_applicable", {"reason": "operator K is zero; range(K) is empty"}
    report = restricted_inverse_check(family, K, cert, p.tolerance)
    body = {
        "injective": report.injective,
        "dagger_norm": _scaled(report.dagger_norm, -k, "||K^+||"),
        # the excesses are in units of S_c, held at 2^-2f
        "max_violation_forward": _scaled(report.max_violation_forward, 2 * f, None),
        "max_violation_inverse": _scaled(report.max_violation_inverse, 2 * f, None),
    }
    return ("pass" if report.passed else "fail"), body


def _cmd_douglas(p: Problem) -> tuple[str, dict]:
    M = p.need("operator_T")
    N = p.need("operator_K")
    t, k = p.exponents["operator_T"], p.exponents["operator_K"]
    try:
        result = douglas_factorize(M, N, p.tolerance)
    except RangeInclusionError as exc:
        return "fail", {"inclusion": False, "projection_residual": exc.residual}
    W = _scaled(result.W, t - k, "the factor W = N^+ M")
    body = {
        "inclusion": True,
        "projection_residual": result.projection_residual,
        "lambda": _scaled(result.lam, t - k, "lambda = ||N^+ M||"),
        "factor_W": W,
        "factorization_residual": _scaled(result.residual, t, None),
    }
    return ("pass" if result.passed else "fail"), body


def _cmd_axioms(p: Problem) -> tuple[str, dict]:
    report = check_fip_axioms(p.model)
    body = {
        "profile": report.profile,
        "method": "reduction",
        "all_passed": report.all_passed,
        "results": [
            {"axiom": r.axiom, "statement": r.statement, "passed": r.passed, "witness": r.witness}
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
    "combine": _cmd_combine,
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
    for claim in p.claims:  # parse_problem reads frame_sum claims only
        # Base value at level scale 1; the level value is base * scale(alpha)
        # under the 'once' convention.  The sum is read at the operands'
        # unit scale, 2^-power times the file's.
        power = 2 * (p.exponents["family"] + claim["exponent"])
        unit = frame_sum(family, claim["vector"], 0.5, "once") / family.model.scale(0.5)
        claimed = claim["value"]
        # |0 - c| <= tol |c| at every scale of c: a zero sum takes the claim as is
        held = claimed if unit == 0.0 else _scaled(claimed, -power, None)
        agrees = within_tolerance(abs(unit - held), p.tolerance, max(abs(unit), abs(held)))
        base = _scaled(unit, power, None)
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
            "tolerance": problem.tolerance,
        },
        "input": {"path": str(path), "digest": problem_digest(problem)},
        "erratum_notes": [],
    }
    try:
        verdict, body = COMMANDS[command](problem)
    except (ValueError, ArithmeticError) as exc:
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


#: deepest nesting handed to orjson, which builds nested values recursively on
#: the C stack: a file nested about 10**5 levels deep crashes the process.
#: Text with at most this many [ and { bytes cannot nest deeper.
ORJSON_MAX_DEPTH = 256

_NOT_STRUCTURE = bytes(sorted(set(range(256)).difference(b'[]{}"')))
_ESCAPE = re.compile(rb"\\.", re.S)
_STRING = re.compile(rb'"[^"]*"')
_DEPTH_STEP = bytes.maketrans(b'[{]}"', b"\x01\x01\xff\xff\x00")


def _nesting_depth(data: bytes, structure: Optional[bytes] = None) -> int:
    """How deep arrays and objects nest in JSON text, counted from the
    brackets outside strings; exact for valid JSON.  ``structure`` is
    ``data.translate(None, _NOT_STRUCTURE)`` when the caller has it."""
    if b"\\" in data:
        structure = _ESCAPE.sub(b"", data).translate(None, _NOT_STRUCTURE)
    elif structure is None:
        structure = data.translate(None, _NOT_STRUCTURE)
    steps = np.frombuffer(_STRING.sub(b"", structure).translate(_DEPTH_STEP), np.int8)
    return int(steps.cumsum().max(initial=0))


def _decode(data: bytes) -> Any:
    """Decode a problem file with orjson.  What orjson rejects, and anything
    nested deeper than ORJSON_MAX_DEPTH, goes to the stdlib decoder: it reads
    NaN and Infinity literals (for parse_problem to reject by field name),
    numbers past the double range, a UTF-8 byte order mark and UTF-16 or
    UTF-32 text, and words every other error.  The depth is at most the
    count of [ and { bytes (brackets in strings only add to it), so text
    within ORJSON_MAX_DEPTH of them goes to orjson unscanned."""
    structure = data.translate(None, _NOT_STRUCTURE)
    if (
        structure.count(b"[") + structure.count(b"{") <= ORJSON_MAX_DEPTH
        or _nesting_depth(data, structure) <= ORJSON_MAX_DEPTH
    ):
        try:
            return orjson.loads(data)
        except orjson.JSONDecodeError:
            pass
    return json.loads(data)


def run_file(
    path: Path,
    command: Optional[str] = None,
    overrides: Optional[dict] = None,
) -> tuple[dict, int]:
    """Load, validate, and execute one problem file.  ``overrides`` (the
    command-line options; None values are ignored) replace the file's
    entries before parse_problem validates them.

    The cyclic collector is paused meanwhile: the decoded tree holds no
    cycles and stays reachable until this returns, so a pass set off by
    building it could free nothing.  Only a call that found the collector
    on turns it off and back on, so that threads of ``batch`` never leave
    it off; a cycle made meanwhile goes at the next pass after."""
    paused = gc.isenabled()
    if paused:
        gc.disable()
    try:
        try:
            with open(path, "rb") as file:
                raw = _decode(file.read())
        except FileNotFoundError:
            return _error_report(path, f"no such file: {path}"), EXIT_ERROR
        except OSError as exc:
            return _error_report(path, f"cannot read {path}: {exc.strerror or exc}"), EXIT_ERROR
        except (ValueError, RecursionError) as exc:  # JSON, text encoding or nesting depth
            return _error_report(path, f"malformed JSON: {exc}"), EXIT_ERROR
        if overrides and isinstance(raw, dict):
            raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
        try:
            problem = parse_problem(raw)
            cmd = command or problem.command
            return run_command(cmd, problem, str(path))
        except ProblemError as exc:
            return _error_report(path, str(exc)), EXIT_ERROR
    finally:
        if paused:
            gc.enable()


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
        # imported only here: it pulls in logging, traceback and queue, which
        # every single-file run would otherwise pay for at start-up
        from concurrent.futures import ThreadPoolExecutor

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
    """The verdict, the error or erratum notes and each scalar of the body,
    a number as the JSON report writes it (_fmt), a string unquoted."""
    lines = [f"verdict: {report.get('verdict')}"]
    if "error" in report:
        lines.append(f"error: {report['error']}")
    for note in report.get("erratum_notes", []):
        lines.append(f"erratum: {note}")
    body = report.get("body", {})
    for key in sorted(body):
        value = body[key]
        if isinstance(value, float):
            lines.append(f"{key}: {_fmt(value)}")
        elif isinstance(value, (str, bool, int)):
            lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _emit(text: str, out: Optional[str], code: int) -> int:
    """Write text to the file out, or to stdout; returns code, or EXIT_ERROR
    with one line on stderr when out cannot be written."""
    if not out:
        sys.stdout.write(text)
        return code
    try:
        Path(out).write_text(text)
    except OSError as exc:
        sys.stderr.write(f"{TOOL_NAME}: cannot write {out}: {exc.strerror or exc}\n")
        return EXIT_ERROR
    return code


def _levels(text: str) -> list[float]:
    """The numbers of --alpha, for parse_problem to check as 'alphas'."""
    return [float(a) for a in text.split(",") if a]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Frame and K-frame certificates for fuzzy inner product models.",
    )
    parser.add_argument(
        "command",
        choices=[*COMMANDS, "batch"],
        metavar="command",
        help=f"{', '.join(COMMANDS)} on one file, or batch: each file's own command",
    )
    parser.add_argument("paths", nargs="+", type=Path, help="the file; for batch, files or directories")
    parser.add_argument("--alpha", type=_levels, help="comma-separated levels in (0,1)")
    parser.add_argument("--convention", choices=CONVENTIONS)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--out", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=["json", "text"], default="json")
    parser.add_argument("--parallel", type=int, help="batch only: files run at once (default 1)")

    try:
        args = parser.parse_args(argv)
        # batch runs each file with its own entries; a check runs one file
        if args.command == "batch":
            for name in ("alpha", "convention", "tol"):
                if getattr(args, name) is not None:
                    parser.error(f"--{name} does not apply to batch")
        elif len(args.paths) > 1:
            parser.error(f"{args.command} takes one problem file")
        elif args.parallel is not None:
            parser.error("--parallel applies to batch only")
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else 0

    if args.command == "batch":
        files: list[Path] = []
        for p in args.paths:
            if p.is_dir():
                files.extend(sorted(p.glob("*.json")))
            else:
                files.append(p)
        try:
            result, code = batch(files, 1 if args.parallel is None else args.parallel)
        except ProblemError as exc:
            error = canonical_json({"verdict": "error", "error": str(exc)})
            return _emit(error + "\n", args.out, EXIT_ERROR)
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
        else:
            text = canonical_json(result) + "\n"
        return _emit(text, args.out, code)

    overrides = {
        "alphas": args.alpha,
        "convention": args.convention,
        "tolerance": args.tol,
    }
    report, code = run_file(args.paths[0], args.command, overrides)
    text = _format_text(report) if args.format == "text" else canonical_json(report) + "\n"
    return _emit(text, args.out, code)


if __name__ == "__main__":
    sys.exit(main())
