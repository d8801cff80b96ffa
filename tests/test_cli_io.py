"""cli_io: problem parsing, command dispatch, determinism, exit codes."""

import gc
import importlib
import inspect
import itertools
import json
import math
import os
import re
import subprocess
import sys
from decimal import Context, Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fuzzyframes
from conftest import (
    _ldexp_entries,
    assert_scaled_report,
    problem_entries,
    rand_family,
    reference_canonical_json,
    reference_digest,
    reference_whole_array,
    run_problem,
    scale_operands,
)
from fuzzyframes import BaseSpace, FrameFamily, FuzzyModel, cli_io, frame_transforms, optimal_kframe_bounds
from fuzzyframes.frame_core import synthesis_matrix
from fuzzyframes.fuzzy_space import MAX_DIMENSION, PROFILES
from fuzzyframes.operator_algebra import RELATIVE_RANK_TOL, _unit_scale
from fuzzyframes.cli_io import (
    COMMANDS,
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    TOOL_VERSION,
    WHOLE_ARRAY_GATED,
    ProblemError,
    _decode,
    _error_report,
    _fmt,
    _nesting_depth,
    _num,
    _parse_matrix,
    _parse_matrix_entries,
    _parse_vector,
    _parse_vector_entries,
    _whole_array,
    batch,
    canonical_json,
    main,
    parse_problem,
    problem_digest,
    run_command,
    run_file,
)

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "fuzzyframes" / "corpus"
C3_FILE = CORPUS / "c3_rank_deficient_kframe.json"
R3_FILE = CORPUS / "r3_full_rank_kframe.json"
CLAIM_FILE = CORPUS / "r3_zero_sum_claim.json"
R3_K = np.array(json.loads(R3_FILE.read_text())["operator_K"], dtype=float)


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def test_version_agrees_everywhere():
    pyproject = (ROOT / "pyproject.toml").read_text()
    project = re.search(r'^version = "([^"]+)"$', pyproject, re.M)
    readme_text = (ROOT / "README.md").read_text()
    readme = re.search(r"`tool.version` in every report, is (\S+?)\.\s", readme_text)
    assert project and readme
    versions = {project[1], fuzzyframes.__version__, TOOL_VERSION, readme[1]}
    assert len(versions) == 1, versions


def _declared_dependencies() -> list[str]:
    # tomllib needs Python 3.11 and the project supports 3.10, so read the list by regex
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = re.search(r"^dependencies = \[(.*?)\]$", pyproject, re.M | re.S)
    assert declared
    return re.findall(r'"([A-Za-z0-9_.-]+)', declared[1])


@pytest.mark.parametrize("name", _declared_dependencies())
def test_declared_dependency_imports(name):
    importlib.import_module(name.replace("-", "_"))


def test_orjson_is_declared():
    assert "orjson" in _declared_dependencies()


class TestParsing:
    def test_corpus_files_parse(self):
        for path in sorted(CORPUS.glob("*.json")):
            problem = parse_problem(load(path))
            assert problem.dimension == 3

    def test_complex_entries_as_pairs(self):
        data = load(C3_FILE)
        data["family"][0] = [[2, 0], [0, 0], [0, 0]]
        problem = parse_problem(data)  # held at unit scale, 2^-2 F
        assert problem.family[0, 0] * 2.0 ** problem.exponents["family"] == 2.0 + 0.0j

    def test_complex_entry_in_real_problem_rejected(self):
        data = load(R3_FILE)
        data["family"][0][0] = [1, 2]
        with pytest.raises(ProblemError, match="complex"):
            parse_problem(data)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"dimension": 0},
            {"field": "quaternion"},
            {"profile": "other"},
            {"family": []},
            {"alphas": [0.0, 0.5]},
            {"bounds": [1, -1]},
            {"convention": "twice"},
            {"tolerance": -1.0},
            {"command": "explode"},
            {"schema": 2},
            {"dimension": "abc"},
            {"tolerance": "x"},
            {"dimension": None},
            {"lambda1": [1]},
            {"dimension": 3.5},
            {"dimension": True},
            {"dimension": 2.7},
            {"dimension": float(2**64)},
            {"alphas": [True]},
            {"command": ["bounds"]},
            {"family_g": 5},
            {"claims": {"frame_sum": 3}},
            {"bounds": [-1, 1]},
        ],
    )
    def test_invalid_fields_rejected(self, mutation):
        data = load(R3_FILE)
        data.update(mutation)
        with pytest.raises(ProblemError):
            parse_problem(data)

    def test_operator_shape_must_match(self):
        data = load(R3_FILE)
        data["operator_K"] = [[1, 0], [0, 1]]
        with pytest.raises(ProblemError):
            parse_problem(data)

    @pytest.mark.parametrize(
        "mutation",
        [
            {"bounds": [1, math.inf]},
            {"tolerance": math.nan},
            {"lambda1": math.inf},
            {"lambda2": -math.inf},
            {"alphas": [0.5, math.nan]},
            {"claims": {"frame_sum": [{"vector": [0, 0, 1], "value": math.nan}]}},
            {"claims": {"frame_sum": [{"vector": [0, 0, math.inf], "value": 0.0}]}},
            {"family": [[1, 1, 1], [1, math.nan, -1], [0, 1, -2]]},
            {"family": [[1, 1, 1], [1, -1, -1], [0, 1, [-2, math.nan]]]},
            {"operator_K": [[1, 1, 0], [0, 0, 1], [0, 0, 1e400]]},
            {"operator_K": [[1, 1, 0], [0, 0, 1], [0, 0, 10**400]]},
        ],
    )
    def test_non_finite_numbers_rejected(self, mutation, tmp_path):
        data = load(R3_FILE)
        data.update(mutation)
        path = tmp_path / "nonfinite.json"
        path.write_text(json.dumps(data))  # writes NaN / Infinity literals
        report, code = run_file(path)
        assert code == EXIT_ERROR and report["verdict"] == "error"
        assert "finite" in report["error"]

    def test_integer_literals_up_to_2_to_64_are_exact(self, tmp_path):
        # read as the integer in the file, which the range check names
        data = load(R3_FILE)
        data["dimension"] = 2**63 - 1
        path = tmp_path / "dimension.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_ERROR
        assert report["error"] == "'dimension' must lie in [1, 510], got 9223372036854775807"

    def test_integer_literal_past_2_to_64_is_rejected(self, tmp_path):
        # the decoder reads it as the double 2**64, outside the dimension range
        data = load(R3_FILE)
        data["dimension"] = 2**64 + 1
        path = tmp_path / "dimension.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_ERROR
        assert report["error"] == "'dimension' must lie in [1, 510], got 18446744073709551616"

    @pytest.mark.parametrize("key, value", [("dimension", 3.0)])
    def test_integral_float_accepted_up_to_2_to_53(self, key, value, tmp_path):
        data = load(R3_FILE)
        data[key] = value
        assert getattr(parse_problem(data), key) == value
        path = tmp_path / "dimension.json"
        path.write_text(json.dumps(data))
        assert run_file(path)[1] == EXIT_PASS

    @pytest.mark.parametrize("value", [2.7, True])
    def test_dimension_must_be_an_integer(self, value, tmp_path):
        data = load(R3_FILE)
        data["dimension"] = value
        path = tmp_path / "dimension.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_ERROR
        assert report["error"] == f"'dimension' must be an integer, got {value!r}"

    def test_keys_the_schema_does_not_name_are_ignored(self, tmp_path):
        data = load(R3_FILE)
        data["command"] = "axioms"
        texts = []
        for extra in [{}, {"seed": 7, "samples": 150}, {"seed": "abc", "other": [1]}]:
            path = tmp_path / "axioms.json"
            path.write_text(json.dumps({**data, **extra}))
            report, code = run_file(path)
            assert code == EXIT_PASS and "seed" not in report["command"]
            texts.append(canonical_json(report))
        assert texts[0] == texts[1] == texts[2]

    def test_digest_stable_under_reformatting(self):
        data = load(R3_FILE)
        a = problem_digest(parse_problem(data))
        reformatted = json.loads(json.dumps(data, indent=7))
        b = problem_digest(parse_problem(reformatted))
        assert a == b

    def test_digest_same_for_numbers_and_zero_imaginary_pairs(self):
        data = load(C3_FILE)  # complex problem written with plain numbers
        paired = json.loads(json.dumps(data))
        for key in ("family", "operator_K"):
            paired[key] = [[[x, 0] for x in row] for row in data[key]]
        signed_zero = json.loads(json.dumps(data))
        signed_zero["operator_K"][2] = [-0.0, -0.0, -0.0]
        digest = problem_digest(parse_problem(data))
        assert problem_digest(parse_problem(paired)) == digest
        assert problem_digest(parse_problem(signed_zero)) == digest

    @pytest.mark.parametrize(
        "path, digest",
        [
            (R3_FILE, "fd66bc065c4a0c9e7480de3bf2d5ce445a1c7549b3b3be046725a42b1031f78e"),
            (C3_FILE, "c88cec11d63b33c61efd65e56847372efb82bca0d24cadf114b16a5a5fa38601"),
        ],
        ids=["r3", "c3"],
    )
    def test_digest_pinned_by_reference(self, path, digest):
        # pinned from reference_digest; the same value the CI step checks
        problem = parse_problem(load(path))
        assert reference_digest(problem) == digest
        assert problem_digest(problem) == digest

    def test_digest_resolves_every_parsed_double(self):
        data = load(R3_FILE)
        digest = problem_digest(parse_problem(data))
        for value in (-2.00001, -2.0000000000001, float(np.nextafter(-2.0, 0.0))):
            changed = json.loads(json.dumps(data))
            changed["family"][2][2] = value
            assert problem_digest(parse_problem(changed)) != digest

    def test_digest_matches_reference_on_corpus_and_workloads(self, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "bench"))
        workloads = importlib.import_module("workloads")
        texts = [path.read_text() for path in sorted(CORPUS.glob("*.json"))]
        assert len(texts) == 5
        for workload in workloads.WORKLOADS:
            for seed in (1, 2, 3):
                texts += [text for _, text in workloads.build(workload, seed, CORPUS)]
        for text in texts:
            problem = parse_problem(json.loads(text))
            assert problem_digest(problem) == reference_digest(problem)

    def test_canonical_json_idempotent(self):
        report, _ = run_file(R3_FILE)
        once = canonical_json(report)
        twice = canonical_json(json.loads(once))
        assert once == twice


def test_benchmark_trace_hooks_exist(monkeypatch):
    # bench/spans.py looks each traced name up with getattr: a renamed
    # function would stop every traced benchmark run
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    spans = importlib.import_module("spans")
    for name in spans.CLI_STAGES:
        fn = getattr(cli_io, name, None)
        assert inspect.isfunction(fn) and fn.__module__ == cli_io.__name__, name
    for short in spans.COMPUTE_MODULES:
        module = importlib.import_module(f"fuzzyframes.{short}")
        assert [name for name in module.__all__ if not hasattr(module, name)] == [], short


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**62), 2**62),
)
# valid numbers that numpy does not hold as int64 or float64
WIDE_INTEGERS = st.sampled_from(
    [2**63, 2**63 + 1, 2**64 - 1, 2**64, 2**64 + 1, -(2**63) - 1, -(2**64), 10**30, 2**1023]
)
# "12", the two-key object and the list of lists have length 2, as a pair has:
# _whole_array tells them apart by what they flatten to
BAD_SCALARS = st.sampled_from(
    [True, False, None, "1", "12", math.nan, math.inf, -math.inf, 10**400, [1], [1, 2, 3], {},
     {"a": 1, "b": 2}, [[1, 2], [3, 4]]]
)


@st.composite
def entry_lists(draw):
    """A matrix or vector in the problem-file encoding, with one optional defect.

    Returns (entries, shape, field, uniform): entries are all numbers, all
    [re, im] pairs or a mix, then possibly a wide integer, or a bool, string,
    null, non-finite or malformed entry, a ragged row, a wrong length or a
    missing row; uniform says there is neither a mix nor a defect.  Half the
    cases are past WHOLE_ARRAY_GATED (up to 130 x 64, or a vector of 300):
    there a few drawn entries repeat, and the defect lands anywhere.
    """
    field = draw(st.sampled_from(["real", "complex"]))
    form = draw(st.sampled_from(["scalar", "pair", "mixed"]))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))

    def entry():
        if form == "scalar" or (form == "mixed" and draw(st.booleans())):
            return draw(NUMBERS)
        imag = draw(st.one_of(st.sampled_from([0, 0.0, -0.0]), NUMBERS))
        return [draw(NUMBERS), imag]

    leaf = entry
    if draw(st.booleans()):
        if len(shape) == 1:
            shape = (draw(st.integers(WHOLE_ARRAY_GATED + 1, 300)),)
        else:
            cols = draw(st.integers(1, 64))
            shape = (draw(st.integers(WHOLE_ARRAY_GATED // cols + 1, 130)), cols)
        drawn = itertools.cycle([entry() for _ in range(draw(st.integers(1, 5)))])

        def leaf():
            e = next(drawn)
            return list(e) if isinstance(e, list) else e

    def vector(n):
        return [leaf() for _ in range(n)]

    entries = vector(shape[0]) if len(shape) == 1 else [vector(shape[1]) for _ in range(shape[0])]
    defect = draw(
        st.sampled_from([None, "wide", "bool", "scalar", "component", "ragged", "long", "short"])
    )
    row = entries if len(shape) == 1 else draw(st.sampled_from(entries))
    i = draw(st.integers(0, len(row) - 1))
    if defect in ("wide", "bool"):
        # in place of a number, so that the nesting stays uniform
        value = draw(WIDE_INTEGERS if defect == "wide" else st.booleans())
        if isinstance(row[i], list):
            row[i][draw(st.integers(0, 1))] = value
        else:
            row[i] = value
    elif defect == "scalar":
        row[i] = draw(BAD_SCALARS)
    elif defect == "component" and isinstance(row[i], list):
        row[i][draw(st.integers(0, 1))] = draw(BAD_SCALARS)
    elif defect == "ragged":
        row.pop()
    elif defect == "long":
        entries.append(draw(NUMBERS) if len(shape) == 1 else vector(shape[1]))
    elif defect == "short":
        entries.pop()
    return entries, shape, field, form != "mixed" and defect is None


def _at_unit_scale(parsed):
    """dtype, shape, bytes and exponent of a parse at unit scale: parsed is
    (2^-e x, e), or an array x that _unit_scale scales."""
    arr, e = parsed if isinstance(parsed, tuple) else _unit_scale(parsed)
    return arr.dtype, arr.shape, arr.tobytes(), e


def _outcome(parse, *args):
    try:
        parsed = parse(*args)
    except ProblemError:
        return None
    return _at_unit_scale(parsed)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(entry_lists())
# an imaginary part that scaling by 2^-64 flushes to 0 still makes the
# real problem complex
@example(([[2**63, 5e-324]], (1,), "real", False))
def test_whole_array_parse_agrees_with_per_entry_parse(case):
    entries, shape, field, uniform = case
    if len(shape) == 1:
        fast, reference = _parse_vector, _parse_vector_entries
        args = (entries, shape[0], field, "v")
    else:
        fast, reference = _parse_matrix, _parse_matrix_entries
        args = (entries, shape, field, "m")
    expected = _outcome(reference, *args)
    assert _outcome(fast, *args) == expected
    if expected is not None and uniform:
        got = _whole_array(entries, shape, field)
        assert got is not None and _at_unit_scale(got) == expected


def _leaves(entries):
    if isinstance(entries, list):
        for e in entries:
            yield from _leaves(e)
    else:
        yield entries


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(entry_lists())
def test_flat_parser_matches_nested_reference(case):
    entries, shape, field, _ = case
    expected = reference_whole_array(entries, shape, field)
    got = _whole_array(entries, shape, field)
    if got is not None:
        assert got[0].flags.c_contiguous
        got = _at_unit_scale(got)
    if expected is not None:
        assert got == _at_unit_scale(expected)
    elif got is not None:
        # the nested array holds an integer past int64 as uint64 or object and
        # leaves it to the per-entry parser; the flat list converts it exactly
        # as that parser does
        assert any(type(x) is int and not -(2**63) <= x < 2**63 for x in _leaves(entries))
        if len(shape) == 1:
            assert got == _outcome(_parse_vector_entries, entries, shape[0], field, "v")
        else:
            assert got == _outcome(_parse_matrix_entries, entries, shape, field, "m")


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("bad", [None, True, False])
def test_gated_parse_of_integer_identity(bad):
    # 64 x 64 is past WHOLE_ARRAY_GATED, and every entry lands on 0.0 or 1.0:
    # the type pass runs, and only it can tell a bool from the integer
    K = _identity(64)
    if bad is not None:
        K[17][17 if bad else 40] = bad
    data = {"dimension": 64, "family": _identity(64), "operator_K": K}
    if bad is None:
        expected = _outcome(_parse_matrix_entries, K, (64, 64), "real", "K")
        assert _at_unit_scale(_whole_array(K, (64, 64), "real")) == expected
        assert _outcome(_parse_matrix, K, (64, 64), "real", "K") == expected
        assert np.array_equal(parse_problem(data).operator_K, 0.5 * np.eye(64))
        return
    assert _whole_array(K, (64, 64), "real") is None
    with pytest.raises(ProblemError) as raised:
        parse_problem(data)
    assert str(raised.value) == f"operator_K[17]: scalar must be a number or [re, im], got {bad}"


@pytest.mark.parametrize("bad", [True, False, 0.5, "leaf3", "leaf1"])
@pytest.mark.parametrize("part", [0, 1])
def test_gated_parse_of_complex_family(bad, part):
    # 128 x 64 pairs whose parts avoid 0 and 1: a bool alone sets off the
    # type pass; a leaf of three parts or one has no [re, im] split
    family = np.random.default_rng(part).uniform(2.0, 3.0, (128, 64, 2)).tolist()
    if bad == "leaf3":
        family[70][5].insert(part, 2.5)
    elif bad == "leaf1":
        family[70][5].pop(part)
    else:
        family[70][5][part] = bad
    shape = (128, 64)
    fast = _outcome(_parse_matrix, family, shape, "complex", "family")
    assert fast == _outcome(_parse_matrix_entries, family, shape, "complex", "family")
    assert (fast is None) == (bad != 0.5)
    got = _whole_array(family, shape, "complex")
    assert (got is None) == (bad != 0.5)
    if got is not None:
        assert _at_unit_scale(got) == fast
    if fast is None:
        with pytest.raises(ProblemError, match=r"^family\[70\]: scalar must be a number or \[re, im\]"):
            parse_problem({"dimension": 64, "field": "complex", "family": family})


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "true"])
@pytest.mark.parametrize("pairs", [False, True])
@pytest.mark.parametrize("rows", [4, 64])
def test_nonfinite_or_bool_literal_gets_the_per_entry_message(literal, pairs, rows):
    # the standard library decodes NaN and Infinity; 4 x 3 leaves are within
    # WHOLE_ARRAY_GATED, 64 x 3 past it.  The one max that gives the exponent
    # carries a nan or inf through, and a bool fails the type pass, so the
    # per-entry parser decides and words the error
    field = "complex" if pairs else "real"
    family = np.random.default_rng(rows).uniform(2.0, 3.0, (rows, 3, 2) if pairs else (rows, 3))
    family = family.tolist()
    if pairs:
        family[2][1][1] = "LITERAL"
    else:
        family[2][1] = "LITERAL"
    text = json.dumps({"dimension": 3, "field": field, "family": family})
    data = json.loads(text.replace('"LITERAL"', literal))
    assert _whole_array(data["family"], (rows, 3), field) is None
    with pytest.raises(ProblemError) as reference:
        _parse_matrix_entries(data["family"], (rows, 3), field, "family")
    with pytest.raises(ProblemError) as raised:
        parse_problem(data)
    assert str(raised.value) == str(reference.value)
    if literal == "true":
        assert str(raised.value).startswith("family[2]: scalar must be a number or [re, im], got ")
    else:
        assert str(raised.value).startswith("family[2] must be finite, got ")


# Number literals that stress a float decoder: 17-25 digit mantissas, exact
# midpoints between adjacent doubles, subnormals, the ends of the double range
# and integers up to 2**63
SPECIAL_LITERALS = st.sampled_from(
    [
        "2.2250738585072011e-308",
        "2.2250738585072014e-308",
        "4.9406564584124654e-324",
        "2.4703282292062327e-324",
        "2.4703282292062328e-324",
        "1e-320",
        "1e308",
        "-1e308",
        "1.7976931348623157e308",
        "1.7976931348623158e308",
        "9007199254740993",
        "9007199254740993.0",
        "-0.0",
        "-0",
    ]
)


@st.composite
def long_mantissas(draw):
    digits = draw(st.text("0123456789", min_size=17, max_size=25))
    exponent = draw(st.one_of(st.integers(-5, 5), st.integers(-330, 310)))
    return f"{draw(st.sampled_from(['', '-']))}{digits[0]}.{digits[1:]}e{exponent}"


@st.composite
def halfway_literals(draw):
    """The exact decimal midpoint of a double and the next one up."""
    x = draw(st.floats(min_value=0.0, max_value=1.7976931348623155e308))
    with localcontext(Context(prec=1000)):
        mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
    return f"{draw(st.sampled_from(['', '-']))}{mid:E}"


LITERALS = st.one_of(
    long_mantissas(),
    halfway_literals(),
    SPECIAL_LITERALS,
    st.integers(-(2**63), 2**63).map(str),
)
MATRIX_KEYS = ("family", "family_g", "operator_K", "operator_T")
SCALAR_KEYS = ("lambda1", "lambda2", "tolerance")


@st.composite
def adversarial_problem_texts(draw):
    """A corpus problem, run as any command, with some of its numbers
    replaced by literals drawn from LITERALS, as JSON text."""
    data = load(draw(st.sampled_from([C3_FILE, R3_FILE, CLAIM_FILE])))
    data.update(
        command=draw(st.sampled_from(sorted(COMMANDS))),
        operator_T=json.loads(json.dumps(data["operator_K"])),
        family_g=json.loads(json.dumps(data["family"])),
    )
    literals = {}
    for k in range(draw(st.integers(1, 6))):
        key = draw(st.sampled_from([*MATRIX_KEYS, *MATRIX_KEYS, *SCALAR_KEYS, "bounds"]))
        placeholder = f"@{k}@"
        literals[placeholder] = draw(LITERALS)
        if key in MATRIX_KEYS:
            row = draw(st.sampled_from(data[key]))
            j = draw(st.integers(0, len(row) - 1))
            if data["field"] == "complex" and draw(st.booleans()):
                literals[placeholder + "im"] = draw(LITERALS)
                row[j] = [placeholder, placeholder + "im"]
            else:
                row[j] = placeholder
        elif key in SCALAR_KEYS:
            data[key] = placeholder
        else:
            data.setdefault("bounds", [0.5, 8.0])[draw(st.integers(0, 1))] = placeholder
    text = json.dumps(data, indent=1)
    for placeholder, literal in literals.items():
        text = text.replace(f'"{placeholder}"', literal)
    return text


def _stdlib_run(text: str, path: Path) -> tuple[dict, int]:
    """The stdlib decoder followed by parse_problem and run_command."""
    try:
        problem = parse_problem(json.loads(text))
        return run_command(problem.command, problem, str(path))
    except ProblemError as exc:
        return _error_report(path, str(exc)), EXIT_ERROR


def _run_outcome(run, *args):
    # extreme numbers can still raise in the compute layers (a RuntimeWarning,
    # an error here); such a defect must show the same way on both paths
    try:
        report, code = run(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    return canonical_json(report), code


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(adversarial_problem_texts(), st.sampled_from(["utf-8", "utf-8-sig", "utf-16"]))
def test_decoded_reports_match_stdlib_decoder(tmp_path_factory, text, encoding):
    path = tmp_path_factory.getbasetemp() / "adversarial.json"
    path.write_bytes(text.encode(encoding))
    assert _run_outcome(run_file, path) == _run_outcome(_stdlib_run, text, path)


# ---------------------------------------------------------------------------
# The input digest: the parsed problem, whatever its spelling

#: entries and scalars of the digest problems: zeros, integers and fractions,
#: none so far below its operand's largest that the unit scale rounds it
DIGEST_NUMBERS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -3.0, 0.1, 2.0**40]),
    st.floats(-1e6, 1e6).filter(lambda x: x == 0.0 or abs(x) > 1e-100),
)
DIGEST_ARRAYS = ("family", "family_g", "operator_K", "operator_T", "coefficients")


@st.composite
def digest_problems(draw):
    """A real or complex problem file with every operand, claim vectors and
    every float scalar, as Python values; a complex entry is an [re, im] pair."""
    field = draw(st.sampled_from(["real", "complex"]))
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def entry():
        if field == "complex":
            return [draw(DIGEST_NUMBERS), draw(DIGEST_NUMBERS)]
        return draw(DIGEST_NUMBERS)

    def vector(size):
        return [entry() for _ in range(size)]

    return {
        "dimension": n,
        "field": field,
        "profile": draw(st.sampled_from(["scaled", "crisp"])),
        "convention": draw(st.sampled_from(["once", "squared"])),
        "family": [vector(n) for _ in range(m)],
        "family_g": [vector(n) for _ in range(m)],
        "operator_K": [vector(n) for _ in range(n)],
        "operator_T": [vector(n) for _ in range(n)],
        "coefficients": vector(2),
        "alphas": draw(st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3)),
        "bounds": [draw(st.floats(0.0, 1e6)), draw(st.floats(0.0, 1e6))],
        "tolerance": draw(st.floats(1e-12, 1e-3)),
        "lambda1": draw(DIGEST_NUMBERS),
        "lambda2": draw(DIGEST_NUMBERS),
        "claims": {
            "frame_sum": [{"vector": vector(n), "value": draw(DIGEST_NUMBERS)} for _ in range(2)]
        },
    }


#: where the arrays of a digest problem sit
ARRAY_PATHS = [(key,) for key in DIGEST_ARRAYS] + [
    ("claims", "frame_sum", i, "vector") for i in (0, 1)
]


def _float_paths(obj, path=()):
    """The path of every float under obj."""
    for key, value in obj.items() if isinstance(obj, dict) else enumerate(obj):
        if isinstance(value, float):
            yield path + (key,)
        elif isinstance(value, (dict, list)):
            yield from _float_paths(value, path + (key,))


def _get(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _in_array(path) -> bool:
    return any(path[: len(a)] == a for a in ARRAY_PATHS)


def _respelled(data: dict, rnd) -> dict:
    """data with a real entry x written as [x, 0] and a complex [x, 0] as x,
    each with probability 1/2."""
    data = json.loads(json.dumps(data))
    for path in ARRAY_PATHS:
        array = _get(data, path)
        for row in array if path[0] in MATRIX_KEYS else [array]:
            for j, z in enumerate(row):
                if rnd.random() < 0.5:
                    continue
                if isinstance(z, float):
                    row[j] = [z, 0.0]
                elif z[1] == 0.0:
                    row[j] = z[0]
    return data


def _number_text(x: float, rnd) -> str:
    """One of the JSON spellings of the double x."""
    if x == 0.0:
        return rnd.choice(["0", "-0", "0.0", "-0.0", "0e7", "-0.0E-3"])
    sign, digits, exponent = Decimal(repr(x)).as_tuple()
    mantissa = "-" * sign + "".join(map(str, digits))
    forms = [repr(x), f"{mantissa}e{exponent}", f"{mantissa}E{exponent:+d}"]
    if x.is_integer():
        forms.append(str(int(x)))
    return rnd.choice(forms)


def _json_text(obj, rnd) -> str:
    """obj as JSON text with random whitespace, key order and number spellings."""
    sep = rnd.choice([",", ", ", ",\n  ", " ,\n\t"])
    if isinstance(obj, dict):
        keys = list(obj)
        rnd.shuffle(keys)
        items = (f"{json.dumps(k)}:{rnd.choice(['', ' '])}{_json_text(obj[k], rnd)}" for k in keys)
        return "{" + sep.join(items) + "}"
    if isinstance(obj, list):
        return "[" + sep.join(_json_text(v, rnd) for v in obj) + "]"
    if isinstance(obj, float):
        return _number_text(obj, rnd)
    return json.dumps(obj)


def _digest_of(text: bytes) -> str:
    return problem_digest(parse_problem(_decode(text)))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(digest_problems(), st.randoms(use_true_random=False), st.data())
def test_digest_is_the_parsed_problem(data, rnd, choices):
    digest = _digest_of(json.dumps(data).encode())
    # re-indentation, key order, integer and exponent spellings, [x, 0]
    # pairs and -0.0, through orjson and through the stdlib decoder
    text = _json_text(_respelled(data, rnd), rnd).encode()
    assert _digest_of(text) == digest
    assert _digest_of(b"\xef\xbb\xbf" + text) == digest

    # one ulp of a float scalar or of a nonzero entry part changes it (an ulp
    # of a zero entry is subnormal, which the unit scale may round to 0)
    paths = [p for p in _float_paths(data) if not _in_array(p) or _get(data, p)]
    path = choices.draw(st.sampled_from(paths))
    moved = json.loads(json.dumps(data))
    _get(moved, path[:-1])[path[-1]] = float(np.nextafter(_get(data, path), math.inf))
    assert _digest_of(json.dumps(moved).encode()) != digest

    # doubling a nonzero array changes its exponent alone, and the digest
    nonzero = [
        a for a in ARRAY_PATHS if any(_get(data, a + p) for p in _float_paths(_get(data, a)))
    ]
    assume(nonzero)
    array = choices.draw(st.sampled_from(nonzero))
    doubled = json.loads(json.dumps(data))
    for p in _float_paths(_get(doubled, array)):
        _get(doubled, array + p[:-1])[p[-1]] *= 2.0
    assert _digest_of(json.dumps(doubled).encode()) != digest


# ---------------------------------------------------------------------------
# Canonical serialization against the two-pass reference

SWEEP_MANTISSAS = ("1", "1.5", "9.99999999999", "9.999999999995", "1.23456789012345")
# every decimal exponent a double reaches, both signs: 0.0 and inf at the ends
SWEEP = [
    sign * float(f"{m}e{e}") for e in range(-324, 309) for m in SWEEP_MANTISSAS for sign in (1, -1)
]

DOUBLES = st.one_of(
    st.floats(),  # the whole range: subnormals, +-0.0, nan and +-inf included
    st.sampled_from(
        [5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0,
         math.nan, math.inf, -math.inf, 1e-5, 1e-4, 1e12, 1e15, 1e16]
    ),
    # around the places where '.12g' and repr change notation
    st.builds(
        lambda m, e: m * 10.0**e,
        st.floats(0.9, 10.1),
        st.sampled_from([-6, -5, -4, 11, 12, 13, 14, 15, 16, -308, -309, -315, -323]),
    ),
    # 12-digit ties: a 13th significant digit of 5 and nothing after it
    st.builds(lambda d, e: float(f"{d}5e{e}"), st.integers(10**11, 10**12 - 1), st.integers(-335, 296)),
    st.integers(-(10**17), 10**17).map(float),  # integral values
)
NUMPY_SCALARS = st.one_of(
    DOUBLES.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.floats(width=16).map(np.float16),
    st.builds(complex, DOUBLES, DOUBLES).map(np.complex128),
    st.complex_numbers(width=64).map(np.complex64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.integers(0, 2**64 - 1).map(np.uint64),
    st.integers(-128, 127).map(np.int8),
    st.booleans().map(np.bool_),
)
ARRAY_ELEMENTS = {
    np.float64: DOUBLES,
    np.float32: st.floats(width=32),
    np.complex128: st.builds(complex, DOUBLES, DOUBLES),
    np.complex64: st.complex_numbers(width=64),
    np.bool_: st.booleans(),
    np.int64: st.integers(-(2**63), 2**63 - 1),
}
ARRAYS = st.sampled_from(list(ARRAY_ELEMENTS)).flatmap(
    lambda dtype: hnp.arrays(
        dtype,
        st.integers(0, 9).flatmap(
            lambda k: st.sampled_from([(), (0,), (0, 2), (3, 0)])  # 0-d and empty, 1 in 10
            if k == 5
            else hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=6)
        ),
        elements=ARRAY_ELEMENTS[dtype],
    )
)
TEXTS = st.one_of(
    st.text(st.characters(exclude_categories=()), max_size=8),  # lone surrogates included
    st.sampled_from(["", "\x7f", "\x00\x1f\n\t\"\\", "caf\u00e9 \u65e5\u672c", "\ud800", "a\udfff"]),
)
UNSUPPORTED = st.sampled_from(
    [b"bytes", {1, 2}, frozenset(), object(), np.array(["2020-01-01"], dtype="datetime64[D]")]
)
SCALARS = st.one_of(
    DOUBLES,
    NUMPY_SCALARS,
    TEXTS,
    st.builds(complex, DOUBLES, DOUBLES),
    st.integers(-(2**64) - 1, 2**64 + 1),
    st.sampled_from([2**64, -(2**64) - 1, 10**30, None, True, False]),
)
REPORT_LEAVES = st.one_of(ARRAYS, SCALARS)  # witnesses and matrices as often as scalars


def _trees(leaves):
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            # str keys, int keys (sorted as their text) or both (unsortable)
            st.dictionaries(st.one_of(TEXTS, st.integers(-20, 20)), children, max_size=4),
        ),
        max_leaves=16,
    )


def _serialized(serialize, obj):
    try:
        return serialize(obj)
    except TypeError:
        return TypeError


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.dictionaries(TEXTS, _trees(REPORT_LEAVES), max_size=6),  # report-shaped
        _trees(REPORT_LEAVES),
        _trees(st.one_of(REPORT_LEAVES, UNSUPPORTED)),
    )
)
def test_canonical_json_matches_reference(tree):
    assert _serialized(canonical_json, tree) == _serialized(reference_canonical_json, tree)


def test_canonical_json_exponent_sweep():
    assert canonical_json(SWEEP) == reference_canonical_json(SWEEP)
    for x in SWEEP:
        assert canonical_json(x) == reference_canonical_json(x)


@pytest.mark.parametrize("dtype", list(ARRAY_ELEMENTS))
@pytest.mark.parametrize("shape", [(), (0,), (0, 2), (3, 0), (1,), (2, 1)])
def test_canonical_json_edge_arrays(dtype, shape):
    a = np.ones(shape, dtype=dtype)
    tree = {"array": a, "rows": [a, {"deeper": a}]}
    assert _serialized(canonical_json, tree) == _serialized(reference_canonical_json, tree)


def test_canonical_json_zero_d_arrays_and_coinciding_keys():
    # a 0-d array is written as its scalar, a string one as its string; keys
    # whose str coincide are an error, not a value silently dropped
    assert canonical_json(np.array(1.5)) == "1.5"
    assert canonical_json(np.array("ab")) == '"ab"'
    assert canonical_json({"z": np.array(1 + 2j)}) == canonical_json({"z": 1 + 2j})
    assert canonical_json([np.array(True), np.array(3)]) == canonical_json([True, 3])
    with pytest.raises(TypeError, match="coincide"):
        canonical_json({0.1: 1, np.float32(0.1): 2})


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 5),
    field=st.sampled_from(["real", "complex"]),
    rank=st.integers(0, 5),
    inside=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_atomic_is_douglas_of_k_against_f(n, field, rank, inside, seed):
    # atomic on a square family and K reads the factorization K = F W that
    # douglas reads for operator_T = K and operator_K = F, the family's
    # synthesis matrix (the family transposed)
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if field == "complex" else x

    r = min(rank, n)
    F = gauss(n, r) @ gauss(r, n)
    K = F @ gauss(n, n) if inside else gauss(n, n)  # K = 0 when F = 0 and inside
    base = {"dimension": n, "field": field}
    atomic, atomic_code = run_command(
        "atomic", parse_problem({**base, "family": problem_entries(F.T, field),
                                 "operator_K": problem_entries(K, field)})
    )
    douglas, douglas_code = run_command(
        "douglas", parse_problem({**base, "family": problem_entries(F.T, field),
                                  "operator_K": problem_entries(F, field),
                                  "operator_T": problem_entries(K, field)})
    )
    a, d = atomic["body"], douglas["body"]
    assert a["atomic_holds"] is d["inclusion"]
    assert a["projection_residual"] == d["projection_residual"]
    if a["atomic_holds"]:
        assert a["coefficient_norm_constant"] == d["lambda"]
        assert a["reconstruction_residual"] == d["factorization_residual"]
    else:  # A = 0, no constant and nothing to verify
        assert atomic_code == EXIT_FAIL and a["certificate"]["A"] == 0.0
        assert a["coefficient_norm_constant"] is None
        assert "verification" not in a and "reconstruction_residual" not in a
    if atomic_code == EXIT_PASS:
        assert douglas_code == EXIT_PASS


def test_number_text_is_repr_of_rounded_value():
    # _fmt is the one rounding rule; _num is only its text
    for x in SWEEP:
        if math.isfinite(x):
            assert _num(x) == float.__repr__(_fmt(x))


@pytest.mark.parametrize("command", COMMANDS)
def test_main_prints_reference_text(command, capsys):
    for path in sorted(CORPUS.glob("*.json")):
        report, code = run_file(path, command)
        assert main([command, str(path)]) == code
        assert capsys.readouterr().out == reference_canonical_json(report) + "\n"


def test_batch_out_is_reference_text(tmp_path):
    target = tmp_path / "batch.json"
    code = main(["batch", str(CORPUS), "--out", str(target)])
    result, expected_code = batch(sorted(CORPUS.glob("*.json")))
    assert code == expected_code
    assert target.read_text() == reference_canonical_json(result) + "\n"


def test_batch_carries_no_state_between_axioms_files(tmp_path):
    paths = []
    for n in (1, 3, MAX_DIMENSION):
        for field in ("real", "complex"):
            for profile in PROFILES:
                path = tmp_path / f"axioms_{n}_{field}_{profile}.json"
                data = {"command": "axioms", "dimension": n, "field": field,
                        "profile": profile, "family": [[1.0] + [0.0] * (n - 1)]}
                path.write_text(json.dumps(data))
                paths.append(path)
    single = {path: canonical_json(run_file(path)[0]) for path in paths}
    assert all('"all_passed": true' in text for text in single.values())
    for order in (paths, paths[::-1]):
        result, code = batch(order)
        assert code == EXIT_PASS
        assert [canonical_json(r) for r in result["reports"]] == [single[p] for p in order]


class TestCommands:
    def test_bounds_on_full_rank_instance(self):
        report, code = run_file(R3_FILE, command="bounds")
        assert code == EXIT_PASS
        frame = report["body"]["optimal_frame"]
        kframe = report["body"]["optimal_kframe"]
        assert frame["A"] == pytest.approx(2.0) and frame["B"] == pytest.approx(6.0)
        assert kframe["A"] == pytest.approx(1.0) and kframe["B"] == pytest.approx(6.0)

    def test_check_frame_full_rank_passes(self):
        report, code = run_file(R3_FILE, command="check-frame")
        assert code == EXIT_PASS
        assert report["body"]["verification"]["passed"]

    def test_check_frame_rank_deficient_fails(self, tmp_path):
        data = load(C3_FILE)
        data.pop("bounds")  # fall back to the optimal certificate, A = 0
        path = tmp_path / "flat.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command="check-frame")
        assert code == EXIT_FAIL
        assert "not a frame" in report["body"]["reason"]

    def test_check_kframe_stated_bounds_pass(self):
        report, code = run_file(C3_FILE, command="check-kframe")
        assert code == EXIT_PASS
        assert report["verdict"] == "pass"
        assert report["body"]["optimal_kframe"]["A"] == pytest.approx(0.5)

    def test_reconstruct_singular_not_applicable(self, tmp_path):
        # S_c is singular: without operator_K (K = I) there is a kernel
        # witness, direction e3; on range(K) of the file's K it is invertible
        data = load(C3_FILE)
        del data["operator_K"]
        path = tmp_path / "c3_without_k.json"
        path.write_text(json.dumps(data))
        raw, code = run_file(path, command="reconstruct")
        report = json.loads(canonical_json(raw))
        assert code == EXIT_FAIL
        assert report["verdict"] == "not_applicable"
        witness = np.array(report["body"]["witness"])  # rows are [re, im]
        assert np.hypot(*witness[2]) == pytest.approx(1.0)  # direction e3
        report, code = run_file(C3_FILE, command="reconstruct")
        assert code == EXIT_PASS and report["body"]["injective"]
        assert report["body"]["dagger_norm"] == pytest.approx(2**-0.5)

    def test_reconstruct_full_rank_passes(self):
        report, code = run_file(R3_FILE, command="reconstruct")
        assert code == EXIT_PASS
        body = report["body"]
        assert sorted(body) == ["dagger_norm", "injective", "max_violation_forward", "max_violation_inverse"]
        # range(K) = span(e1, e2), where S_c = diag(2, 3): <S_c u, u> and
        # ||S_c u||^2 / <S_c u, u> lie in [2, 3], A ||K+||^-2 = 1 and B = 6
        assert body["injective"] and body["dagger_norm"] == pytest.approx(1.0)
        assert body["max_violation_forward"] == pytest.approx(-1.0)
        assert body["max_violation_inverse"] == pytest.approx(-1.0)

    def test_reconstruct_zero_operator_not_applicable(self, tmp_path):
        data = load(R3_FILE)
        data["operator_K"] = np.zeros((3, 3)).tolist()
        path = tmp_path / "zero_k.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command="reconstruct")
        assert code == EXIT_FAIL and report["verdict"] == "not_applicable"
        assert "range(K) is empty" in report["body"]["reason"]

    def test_claim_file_flags_erratum(self):
        report, code = run_file(CLAIM_FILE)
        assert code == EXIT_FAIL
        assert report["verdict"] == "not_applicable"
        assert len(report["erratum_notes"]) == 1
        claim = report["body"]["claims"][0]
        assert claim["recomputed_unit_scale"] == pytest.approx(6.0)
        assert not claim["agrees"]

    def test_failed_bound_check_carries_replayable_witness(self, tmp_path):
        data = load(C3_FILE)
        data["bounds"] = [0.6, 4.0]
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(data))
        raw, code = run_file(path, command="check-kframe")
        report = json.loads(canonical_json(raw))
        assert code == EXIT_FAIL and report["verdict"] == "fail"
        failure = report["body"]["verification"]["failures"][0]
        w = np.array([complex(re, im) for re, im in failure["witness"]])
        from fuzzyframes import frame_sum, FrameFamily, FuzzyModel, BaseSpace

        model = FuzzyModel(BaseSpace(3, "complex"), "scaled")
        fam = FrameFamily(np.array(data["family"], dtype=complex), model)
        K = np.array(data["operator_K"], dtype=complex)
        lhs = 0.6 * model.scale(0.5) * np.linalg.norm(K.conj().T @ w) ** 2
        assert lhs > frame_sum(fam, w, 0.5) + 1e-12

    def test_kframe_bounds_with_a_above_b_pass(self, tmp_path):
        # K = I / 10 on the standard basis of R^2: ||K* f||^2 = ||f||^2 / 100,
        # so the optimal K-frame pair (100, 1) has A > B
        data = {
            "command": "check-kframe",
            "dimension": 2,
            "family": [[1.0, 0.0], [0.0, 1.0]],
            "operator_K": [[0.1, 0.0], [0.0, 0.1]],
            "bounds": [100, 1],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS and report["verdict"] == "pass"
        assert report["body"]["requested"] == {"A": 100.0, "B": 1.0}
        assert report["body"]["optimal_kframe"]["A"] == pytest.approx(100.0)

    def test_frame_bounds_with_a_above_b_fail_with_witness(self, tmp_path):
        # S_c = diag(2, 3, 6): A = 2 holds, B = 1 fails along e3
        data = load(R3_FILE)
        data.update(command="check-frame", bounds=[2, 1])
        path = tmp_path / "crossed.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_FAIL and report["verdict"] == "fail"
        failures = report["body"]["verification"]["failures"]
        assert failures and {c["side"] for c in failures} == {"upper"}
        assert abs(failures[0]["witness"][2]) == pytest.approx(1.0)

    def test_douglas_command(self, tmp_path):
        data = load(R3_FILE)
        K = np.array(data["operator_K"], dtype=float)
        data["operator_T"] = (0.5 * K).tolist()
        data["command"] = "douglas"
        path = tmp_path / "douglas.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        assert report["body"]["lambda"] == pytest.approx(0.5)

    def test_axioms_command(self, tmp_path):
        data = load(R3_FILE)
        data["command"] = "axioms"
        path = tmp_path / "axioms.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        body = report["body"]
        assert body["all_passed"] and body["method"] == "reduction"
        assert [r["axiom"] for r in body["results"]] == [f"FIP{j}" for j in range(1, 10)]
        assert all(r["statement"] and r["witness"] is None for r in body["results"])
        assert main(["axioms", str(path), "--seed", "1"]) == EXIT_ERROR

    def test_atomic_command(self, tmp_path):
        data = load(C3_FILE)
        data["command"] = "atomic"
        path = tmp_path / "atomic.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        body = report["body"]
        assert body["atomic_holds"] and "kframe_holds" not in body
        assert body["verification"]["passed"]

    def test_perturb_operator_command(self, tmp_path):
        data = load(R3_FILE)
        K = np.array(data["operator_K"], dtype=float)
        data["operator_T"] = (0.9 * K).tolist()
        data["command"] = "perturb-operator"
        data["lambda1"] = 0.1
        data["lambda2"] = 0.0
        path = tmp_path / "perturb.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        assert report["body"]["hypothesis_verified"]
        assert report["body"]["verification"]["passed"]

    def test_perturb_operator_lambda2_positive_serializes(self, tmp_path):
        # ||0.1 K* f|| <= 0.05 ||K* f|| + 0.06 ||0.9 K* f||, decided by the scan
        data = load(R3_FILE)
        K = np.array(data["operator_K"], dtype=float)
        data["operator_T"] = (0.9 * K).tolist()
        data["command"] = "perturb-operator"
        data["lambda1"] = 0.05
        data["lambda2"] = 0.06
        path = tmp_path / "perturb.json"
        path.write_text(json.dumps(data))
        raw, code = run_file(path)
        body = json.loads(canonical_json(raw))["body"]
        assert code == EXIT_PASS
        assert body["hypothesis_verified"] is True and body["method"] == "scan"
        assert canonical_json({"flag": np.bool_(True)}) == canonical_json({"flag": True})
        target = tmp_path / "batch.json"
        assert main(["batch", str(path), str(C3_FILE), "--out", str(target)]) == EXIT_PASS
        reports = json.loads(target.read_text())["reports"]
        assert [r["verdict"] for r in reports] == ["pass", "pass"]

    def test_transform_kframe_with_lower_bound_above_upper(self, tmp_path):
        # K = I/2 on the standard basis: A = 4 > B = 1; T = 2I moves them
        # to (16, 4), which verify_bounds confirms
        eye = np.eye(3)
        data = {
            "schema": 1,
            "command": "transform",
            "dimension": 3,
            "family": eye.tolist(),
            "operator_K": (0.5 * eye).tolist(),
            "operator_T": (2.0 * eye).tolist(),
            "variant": "invertible",
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS and report["verdict"] == "pass"
        assert report["body"]["derived"]["A"] == pytest.approx(16.0)
        assert report["body"]["derived"]["B"] == pytest.approx(4.0)

    def test_perturb_family_command(self, tmp_path):
        data = load(R3_FILE)
        fam = np.array(data["family"], dtype=float)
        rng = np.random.default_rng(0)
        data["family_g"] = (fam + 0.05 * rng.standard_normal(fam.shape)).tolist()
        data["command"] = "perturb-family"
        path = tmp_path / "perturb_family.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        assert report["body"]["finite"]
        assert report["body"]["verification"]["passed"]

    @pytest.mark.parametrize("with_k", [True, False])
    def test_perturb_family_decomposes_s_f_once(self, tmp_path, monkeypatch, with_k):
        data = load(R3_FILE)
        fam = np.array(data["family"], dtype=float)
        data["family_g"] = (fam + 0.05 * np.random.default_rng(0).standard_normal(fam.shape)).tolist()
        data["command"] = "perturb-family"
        if not with_k:
            del data["operator_K"]
        path = tmp_path / "perturb_family.json"
        path.write_text(json.dumps(data))
        # S_F = F F* is decomposed through the SVD of F (or a QR of F*)
        f = synthesis_matrix(parse_problem(data).frame_family())
        decomposed = []
        for name in ("qr", "svd"):

            def recording(a, *args, _fn=getattr(np.linalg, name), **kwargs):
                decomposed.append(np.array(a))
                return _fn(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        report, code = run_file(path)
        assert code == EXIT_PASS and report["body"]["finite"] and "derived" in report["body"]
        assert sum(np.array_equal(a, f) or np.array_equal(a, f.conj().T) for a in decomposed) == 1

    def test_transform_command_hypothesis_violation(self, tmp_path):
        data = load(R3_FILE)
        data["operator_T"] = np.eye(3).tolist()  # range escapes range(K)
        data["command"] = "transform"
        path = tmp_path / "transform.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_FAIL
        assert "hypothesis violated" in report["body"]["reason"]

    def test_transform_command_variant(self, tmp_path):
        data = load(R3_FILE)
        data["operator_T"] = (2.0 * np.eye(3)).tolist()  # commutes with K
        data["command"] = "transform"
        data["variant"] = "invertible"
        path = tmp_path / "variant.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        assert report["body"]["variant"] == "invertible"
        assert report["body"]["verification"]["passed"]

    def test_douglas_tests_range_inclusion_once(self, tmp_path, monkeypatch):
        data = load(R3_FILE)
        data["command"] = "douglas"
        K = parse_problem(data).operator_K  # N as the SVD reads it, at unit scale
        svd = np.linalg.svd
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(np.array_equal(a, K))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        for T, verdict in ((0.5 * K, "pass"), (np.eye(3), "fail")):  # e3 escapes K
            data["operator_T"] = T.tolist()
            path = tmp_path / f"douglas-{verdict}.json"
            path.write_text(json.dumps(data))
            calls.clear()
            report, _ = run_file(path)
            assert report["verdict"] == verdict
            assert report["body"]["inclusion"] is (verdict == "pass")
            assert sum(calls) == 1  # one SVD of N feeds inclusion, W and lambda

    def test_check_kframe_corpus_decomposition_budget(self, linalg_calls):
        # the SVD of F, the eigenvalues of W W* for W = F^+ K, and one
        # Cholesky certificate per passing order check
        report, code = run_file(R3_FILE, command="check-kframe")
        assert code == EXIT_PASS
        assert dict(linalg_calls) == {"svd": 1, "eigh": 1, "cholesky": 2}

    def test_bounds_with_k_decomposes_s_c_once(self, linalg_calls):
        # one SVD of F for both certificates and eigh(W W*) for the K-frame
        # bound
        report, code = run_file(R3_FILE, command="bounds")
        assert code == EXIT_PASS and "optimal_kframe" in report["body"]
        assert dict(linalg_calls) == {"svd": 1, "eigh": 1}

    def test_invertible_transform_one_svd_of_t(self, tmp_path, linalg_calls):
        # the SVD of T gives ||T||, invertibility and ||T^-1||; the other SVD
        # is F's in the K-frame bounds (the commutation test is Frobenius)
        data = load(R3_FILE)
        data.update(command="transform", variant="invertible", operator_T=np.eye(3).tolist())
        path = tmp_path / "transform.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        assert linalg_calls["svd"] == 2

    @pytest.mark.parametrize("variant", ["invertible", "coisometry"])
    def test_transform_variant_decomposition_budget(self, variant, tmp_path, linalg_calls):
        # the SVD of T and the SVD of F; the hypothesis tests are Frobenius
        data = load(R3_FILE)
        data.update(command="transform", variant=variant, operator_T=np.eye(3).tolist())
        path = tmp_path / "transform.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS and report["body"]["variant"] == variant
        assert linalg_calls["svd"] == 2

    def test_douglas_decomposition_budget(self, tmp_path, linalg_calls):
        # the SVD of N and eigh(W W*) for lambda; the residual is Frobenius
        data = load(R3_FILE)
        data["operator_T"] = (0.5 * R3_K).tolist()
        path = tmp_path / "douglas.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command="douglas")
        assert code == EXIT_PASS
        assert dict(linalg_calls) == {"svd": 1, "eigh": 1}

    def test_douglas_escape_decomposition_budget(self, tmp_path, linalg_calls):
        # e3 escapes range(K): the SVD of N decides, and the report prints no
        # witness, so none is computed
        data = load(R3_FILE)
        data["operator_T"] = np.eye(3).tolist()
        path = tmp_path / "douglas.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command="douglas")
        assert code == EXIT_FAIL and report["body"]["inclusion"] is False
        assert dict(linalg_calls) == {"svd": 1}

    def test_perturb_family_decomposition_budget(self, linalg_calls):
        # one SVD of each family serves M and the source frame bound, one
        # eigh of W W* per family for M, and one Cholesky certificate per
        # passing order check of the derived pair
        rng = np.random.default_rng(35)
        F, G = rand_family(rng, 3, 5), rand_family(rng, 3, 5)
        body, code = run_problem("perturb-family", F, family_g=G)
        assert code == EXIT_PASS and body["verification"]["passed"]
        assert dict(linalg_calls) == {"svd": 2, "eigh": 2, "cholesky": 2}

    def test_perturb_operator_decomposition_budget(self, linalg_calls):
        # K near I against operator_T = I: one eigh of Q_t at the corner
        # (1, 1) decides the hypothesis, the SVD of F and eigh(W W*) give the
        # K-frame bound, and one Cholesky certifies each side of the pair
        rng = np.random.default_rng(36)
        fam = rand_family(rng, 3, 5)
        K = np.eye(3) + 0.02 * rng.standard_normal((3, 3))
        body, code = run_problem(
            "perturb-operator", fam, operator_K=K, operator_T=np.eye(3), lambda1=0.1, lambda2=0.05
        )
        assert code == EXIT_PASS and body["method"] == "spectral"
        assert dict(linalg_calls) == {"svd": 1, "eigh": 2, "cholesky": 2}

    @pytest.mark.parametrize("path, verdict", [(R3_FILE, "pass"), (C3_FILE, "not_applicable")])
    def test_reconstruct_decomposition_budget(self, path, verdict, linalg_calls):
        # the SVD of F and one eigh give the K-frame pair, the SVDs of K,
        # Q* F and F V_r the sandwich; S_c is never formed, decomposed or
        # solved.  Without operator_K the singular c3 stops at A = 0, whose
        # witness takes one more SVD
        data = load(path)
        if verdict == "not_applicable":
            del data["operator_K"]
        report, _ = run_command("reconstruct", parse_problem(data))
        assert report["verdict"] == verdict
        assert set(linalg_calls) <= {"svd", "eigh"}
        assert linalg_calls["svd"] <= 4 and linalg_calls["eigh"] <= 1

    @pytest.mark.parametrize(
        "ratio, power",
        [(r, p) for r in (1e-7, 1e-9, 1e-11) for p in (-40, 0, 40)] + [(s, None) for s in (1e-5, 1e-6, 1e-8)],
    )
    def test_reconstruct_and_bounds_share_the_rank_rule(self, ratio, power):
        # singular values 2^power (1, ratio) along rotated axes, as three
        # vectors, or (power None) the 4 x 8 family of _ill_conditioned with
        # sigma(F) from 1 down to ratio; each without operator_K, with a full
        # rank K and with one of rank n / 2.  reconstruct passes, injective,
        # exactly when bounds finds A > 0, and is not_applicable otherwise
        # with bounds' lower witness
        if power is None:
            data = self._ill_conditioned("bounds", ratio)
        else:
            rotation = np.array([[0.6, -0.8], [0.8, 0.6]])
            f = 2.0**power * rotation @ np.diag([1.0, ratio]) @ np.array([[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]])
            data = {"dimension": 2, "family": f.T.tolist()}
        n = data["dimension"]
        rng = np.random.default_rng(29)
        half = rng.standard_normal((n, n // 2)) @ rng.standard_normal((n // 2, n))
        for K in (None, rng.standard_normal((n, n)), half):
            problem = parse_problem(data if K is None else {**data, "operator_K": K.tolist()})
            bounds, _ = run_command("bounds", problem)
            reconstruct, code = run_command("reconstruct", problem)
            cert = bounds["body"]["optimal_frame" if K is None else "optimal_kframe"]
            if K is None:
                assert (cert["kind"] == "bessel") == (ratio < RELATIVE_RANK_TOL)
            if cert["A"] > 0.0:
                assert code == EXIT_PASS and reconstruct["verdict"] == "pass"
                assert reconstruct["body"]["injective"]
            else:
                assert reconstruct["verdict"] == "not_applicable"
                overlap = abs(np.vdot(cert["witness_lower"], reconstruct["body"]["witness"]))
                assert overlap == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "N, M, lam",
        [
            # N = diag(1, 1e-7, 1): lambda = ||N^+ M|| = M_22 / 1e-7
            (np.diag([1.0, 1e-7, 1.0]), np.diag([1.0, 5e-7, 1.0]), 5.0),
            (np.diag([1.0, 1e-7, 1.0]), np.diag([1.0, 1e-3, 1.0]), 1e4),
            # the residual of N W = M grows with ||N|| ||W||
            (1e8 * R3_K, 1e8 * R3_K, 1.0),
            (1e154 * R3_K, 1e154 * R3_K, 1.0),
        ],
    )
    def test_douglas_lambda(self, N, M, lam, tmp_path):
        data = load(R3_FILE)
        data["operator_K"] = N.tolist()
        data["operator_T"] = M.tolist()
        path = tmp_path / "douglas.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command="douglas")
        assert code == EXIT_PASS and report["verdict"] == "pass"
        assert report["body"]["lambda"] == pytest.approx(lam, rel=1e-9)

    @pytest.mark.parametrize(
        "command", ["bounds", "check-kframe", "atomic", "transform", "perturb-operator"]
    )
    def test_overflowing_operator_gram_is_input_error(self, command, tmp_path, recwarn):
        # K K* overflows a double, and the problem is decided at unit scale:
        # with K = 1e200 K0 the reported lower bound, near 1e-400, leaves
        # the range and is named; with F = 2^100 F0 and K = 2^512 K0 it
        # stays a double, and the report is that of F0 and K0.  The optimal
        # bounds are asked for: requested ones are decided whatever the
        # range of the optimal ones
        data = load(R3_FILE)
        data.update(command=command, lambda1=1.0, bounds=None)  # K2 = K1 / 2 meets the hypothesis
        K = 1e200 * R3_K
        data["operator_K"] = K.tolist()
        data["operator_T"] = (0.5 * K).tolist()
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_ERROR and report["verdict"] == "error"
        assert "bound A" in report["error"] and "underflows" in report["error"]
        data.update(operator_K=R3_K.tolist(), operator_T=(0.5 * R3_K).tolist())
        shifts = {"F": 100, "K": 512, "T": 512}
        scaled = scale_operands(data, shifts)
        base = run_command(command, parse_problem(data))[0]
        assert_scaled_report(base, run_command(command, parse_problem(scaled))[0], data, shifts)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "bounds, verdict",
        [
            ([1e308, 1.5e308], "fail"),
            # B I - S_c shifted by half its slack overflows: eigh decides
            ([1.0, 1.7976931348623157e308], "pass"),
            ([1.7e308, 1.7e308], "fail"),
        ],
    )
    def test_bounds_near_double_range(self, bounds, verdict, tmp_path, recwarn):
        data = load(R3_FILE)
        data["bounds"] = bounds
        path = tmp_path / "huge-bounds.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command="check-frame")
        assert report["verdict"] == verdict
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_atomic_probe_one_route(self, linalg_calls):
        # synthesis singular values 1 down to 1e-6 and K = 100 I: the K-frame
        # bound and the coefficient constant come from the same SVD of F
        data = self._ill_conditioned("atomic", 1e-6, operator_K=(100.0 * np.eye(4)).tolist())
        problem = parse_problem(data)
        linalg_calls.clear()  # the QR factors that built the family
        report, code = run_command("atomic", problem)
        assert sum(linalg_calls.values()) <= 4
        body = report["body"]
        assert code == EXIT_PASS and report["verdict"] == "pass"
        assert body["atomic_holds"]
        assert body["verification"]["passed"]
        F, K = np.array(data["family"]).T, np.array(data["operator_K"])
        expected = 1.0 / np.linalg.norm(np.linalg.pinv(F) @ K, 2) ** 2
        assert body["certificate"]["A"] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("path", [R3_FILE, C3_FILE])
    def test_atomic_corpus_decomposition_budget(self, path, linalg_calls):
        # the SVD of F, eigh(W W*) and the two Cholesky certificates of the
        # verify_bounds check of (1 / C^2, B)
        report, code = run_file(path, command="atomic")
        assert code == EXIT_PASS and report["body"]["verification"]["passed"]
        assert sum(linalg_calls.values()) <= 4

    @pytest.mark.parametrize("path", [R3_FILE, C3_FILE])
    def test_atomic_and_douglas_read_one_svd(self, path, monkeypatch, linalg_calls):
        # atomic is douglas with M = K and N = F: one SVD of F, never the
        # QR-reduced SVD of the other K-frame commands; douglas takes one of N
        def refused(family):
            raise AssertionError("atomic reads the SVD of its factorization")

        monkeypatch.setattr(fuzzyframes.cli_io, "_synthesis_svd", refused)
        monkeypatch.setattr(fuzzyframes.frame_core, "_synthesis_svd", refused)
        report, code = run_file(path, command="atomic")
        assert code == EXIT_PASS and report["body"]["atomic_holds"]
        assert linalg_calls["svd"] == 1
        linalg_calls.clear()
        data = load(path)
        report, code = run_command("douglas", parse_problem({**data, "operator_T": data["operator_K"]}))
        assert code == EXIT_PASS and report["body"]["lambda"] == pytest.approx(1.0)
        assert linalg_calls["svd"] == 1

    def test_overflowing_commutator_is_input_error(self, tmp_path, recwarn):
        # T K - K T overflowed; at unit scale T = K commutes, and what leaves
        # the range is the derived B' = ||T||^2 = 2.6e400
        big = [[1e200, 1e200], [0.0, 1e200]]
        data = {"command": "transform", "dimension": 2, "family": [[1.0, 0.0], [0.0, 1.0]],
                "operator_K": big, "operator_T": big, "variant": "invertible"}
        path = tmp_path / "commutator.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_ERROR and report["verdict"] == "error"
        assert "derived upper bound" in report["error"] and "overflows" in report["error"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "command", ["bounds", "check-frame", "check-kframe", "reconstruct"]
    )
    def test_rank_rules_are_scale_invariant(self, command, tmp_path):
        # the corpus frame scaled by 3e-6: S_c = 9e-12 * S_c, A = 1.8e-11
        data = load(R3_FILE)
        data["family"] = (3e-6 * np.array(data["family"], dtype=float)).tolist()
        data["operator_K"] = np.eye(3).tolist()
        del data["bounds"]
        path = tmp_path / "small.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command=command)
        assert code == EXIT_PASS and report["verdict"] == "pass"
        for key in ("optimal_frame", "optimal_kframe"):
            if key in report["body"]:
                assert report["body"][key]["A"] == pytest.approx(1.8e-11, rel=1e-9)
                # B = 5.4e-11: not tight, with no absolute floor on |A - B|
                assert not report["body"][key]["tight"]
        if "optimal_frame" in report["body"]:
            assert report["body"]["optimal_frame"]["kind"] == "frame"

    @staticmethod
    def _ill_conditioned(command: str, smallest: float, **extra) -> dict:
        """4-dimensional frame of 8 vectors, synthesis singular values
        geometric from 1 down to ``smallest`` (cond(S_c) = smallest^-2)."""
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        w, _ = np.linalg.qr(rng.standard_normal((8, 4)))
        F = u @ np.diag(np.geomspace(1.0, smallest, 4)) @ w.T
        return {"command": command, "dimension": 4, "field": "real",
                "profile": "scaled", "family": F.T.tolist(), **extra}

    def test_ill_conditioned_reconstruct_passes(self):
        # cond(S_c) = 1e16, yet the sandwich reads singular values of F, so
        # both lines hold to rounding against B = 1
        problem = parse_problem(self._ill_conditioned("reconstruct", 1e-8))
        report, code = run_command("reconstruct", problem)
        assert code == EXIT_PASS and report["body"]["injective"]
        for key in ("max_violation_forward", "max_violation_inverse"):
            assert abs(report["body"][key]) <= 1e-14

    def test_ill_conditioned_atomic_passes(self):
        # residual > tolerance 1e-9, inside n eps sqrt(B) C = 8.9e-8
        K = (1e4 * np.eye(4)).tolist()
        problem = parse_problem(self._ill_conditioned("atomic", 1e-4, operator_K=K))
        report, code = run_command("atomic", problem)
        assert report["body"]["reconstruction_residual"] > problem.tolerance
        assert code == EXIT_PASS

    @pytest.mark.parametrize(
        "command", ["bounds", "check-frame", "check-kframe", "reconstruct", "transform"]
    )
    def test_overflowing_frame_operator_is_input_error(self, command, tmp_path):
        # S_c = F F* overflows, and so does a reported bound of each command
        # that reports one (the optimal bounds, as none are requested);
        # reconstruct reports none and is decided as F 2^-512
        data = load(R3_FILE)
        data["bounds"] = None
        data["family"] = [[1e154, 1e154, 0.0], [1e154, -1e154, 0.0], [0.0, 0.0, 1.0]]
        data["operator_T"] = (0.5 * np.array(data["operator_K"])).tolist()
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command=command)
        if command == "reconstruct":
            data.update(command=command, family=np.ldexp(data["family"], -512).tolist())
            base = run_command(command, parse_problem(data))[0]
            assert_scaled_report(base, report, data, {"F": 512})
            return
        assert code == EXIT_ERROR and report["verdict"] == "error"
        assert "bound" in report["error"] and "overflows" in report["error"]

    @pytest.mark.parametrize(
        "data, quantity",
        [
            # A = 1e-72 and lambda = 1e-297, so lambda^2 underflows to 0
            ({"command": "transform", "family": [[1e117]], "operator_K": [[1e153]],
              "operator_T": [[1e-144]]}, "A / lambda^2"),
            # W = N^+ M = 1e600
            ({"command": "douglas", "family": [[1.0]], "operator_K": [[1e-300]],
              "operator_T": [[1e300]]}, "W = N^+ M"),
            # ||F^+ K||^2 = 1e-340 underflows to 0 although K is not zero
            ({"command": "check-kframe", "family": [[1e100]], "operator_K": [[1e-70]]},
             "1 / ||F^+ K||^2"),
        ],
    )
    def test_overflowing_derived_quantity_is_input_error(self, data, quantity, tmp_path, recwarn):
        path = tmp_path / "probe.json"
        path.write_text(json.dumps({"dimension": 1, **data}))
        report, code = run_file(path)
        assert code == EXIT_ERROR and report["verdict"] == "error"
        assert quantity in report["error"] and "overflows" in report["error"]
        assert "nan" not in canonical_json(report)
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    def test_convention_override_flows_through(self, capsys):
        code = main(["bounds", str(R3_FILE), "--convention", "squared"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["command"]["convention"] == "squared"
        assert report["body"]["optimal_frame"]["alpha_independent"] is False

    def test_atomic_decides_under_once_whatever_the_convention(self, capsys):
        # a known fault, pinned until the benchmark's atomic-pass files stop
        # planting pass under both conventions: atomic's certificate and
        # verification are the once ones, and only command.convention echoes
        # the request
        reports = {}
        for convention in ("once", "squared"):
            assert main(["atomic", str(C3_FILE), "--convention", convention]) == EXIT_PASS
            reports[convention] = json.loads(capsys.readouterr().out)
        assert reports["squared"]["command"]["convention"] == "squared"
        assert reports["squared"]["body"]["certificate"]["convention"] == "once"
        assert reports["squared"]["body"] == reports["once"]["body"]
        # check-kframe honours the request: the file's bounds fail at levels
        # 0.1 and 0.9 under squared
        assert main(["check-kframe", str(C3_FILE), "--convention", "squared"]) == EXIT_FAIL
        kframe = json.loads(capsys.readouterr().out)["body"]
        assert kframe["optimal_kframe"]["convention"] == "squared"

    @pytest.mark.parametrize(
        "command, name, keys",
        [
            ("bounds", "r3_full_rank_kframe.json", ("optimal_frame", "optimal_kframe")),
            ("check-frame", "r3_full_rank_kframe.json", ("optimal_frame",)),
            ("check-kframe", "r3_full_rank_kframe.json", ("optimal_kframe",)),
            ("combine", "r3_combine_sum.json", ("optimal_kframe",)),
            ("atomic", "c3_rank_deficient_kframe.json", ("certificate",)),
        ],
    )
    def test_certificate_labels_follow_the_problem(self, command, name, keys, tmp_path, capsys):
        # the labels are the problem's, not the certificate's: convention is
        # the request (once for atomic), and the bounds hold at every level
        # under once or on the crisp profile
        for profile in ("scaled", "crisp"):
            path = tmp_path / f"{profile}.json"
            path.write_text(json.dumps({**load(CORPUS / name), "profile": profile}))
            for convention in ("once", "squared"):
                main([command, str(path), "--convention", convention])
                body = json.loads(capsys.readouterr().out)["body"]
                labelled = "once" if command == "atomic" else convention
                for key in keys:
                    assert body[key]["convention"] == labelled
                    expected = labelled == "once" or profile == "crisp"
                    assert body[key]["alpha_independent"] is expected

    def test_missing_operator_is_usage_error(self, tmp_path):
        data = load(R3_FILE)
        data.pop("operator_K")
        data["command"] = "check-kframe"
        path = tmp_path / "missing.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_ERROR
        assert report["verdict"] == "error"


class TestErrors:
    def test_missing_file(self):
        report, code = run_file(Path("/nonexistent/x.json"))
        assert code == EXIT_ERROR and report["verdict"] == "error"

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        report, code = run_file(path)
        assert code == EXIT_ERROR
        assert "malformed JSON" in report["error"]

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"field": "réel"}'.encode("latin-1"))
        report, code = run_file(path)
        assert code == EXIT_ERROR and "malformed JSON" in report["error"]

    @pytest.mark.parametrize("levels", [100_000, 1_000_000])
    def test_deeply_nested_json(self, levels, tmp_path):
        # a million levels would overflow the C stack inside orjson
        path = tmp_path / "deep.json"
        path.write_text('{"dimension": ' + "[" * levels + "]" * levels + "}")
        report, code = run_file(path)
        assert code == EXIT_ERROR and "malformed JSON" in report["error"]

    @pytest.mark.parametrize(
        "text, depth",
        [
            ("", 0),
            ("3", 0),
            ("[[1], {}]", 2),
            ('{"a": "]]]]", "b": [[[]]]}', 4),
            ('{"a": "[[[[", "b": []}', 2),
            ('{"a": "\\"]]]", "b": [[[]]]}', 4),
            ('{"a": "\\\\", "b": [[[]]]}', 4),
        ],
    )
    def test_nesting_depth_ignores_strings(self, text, depth):
        assert _nesting_depth(text.encode()) == depth

    @pytest.mark.parametrize(
        "text, scanned, decoder",
        [
            ("[" * 256 + "]" * 256, False, "orjson"),
            ('{"a": ' + "[" * 255 + "]" * 255 + "}", False, "orjson"),
            ("[" * 257 + "]" * 257, True, "json"),
            ('{"a": ' + "[" * 256 + "]" * 256 + "}", True, "json"),
            ("[" + "[]," * 300 + "{}]", True, "orjson"),
            ('["' + "[{" * 200 + '"]', True, "orjson"),
            ('["\\"' + "[" * 300 + '\\"", "\\\\"]', True, "orjson"),
        ],
    )
    def test_orjson_guard_at_its_bound(self, text, scanned, decoder, monkeypatch):
        # at most ORJSON_MAX_DEPTH = 256 opening brackets cannot nest deeper
        # and skip the scan; orjson never sees a text nested 257 deep
        expected = json.loads(text)
        calls = []

        def spy(name, fn):
            def wrapped(*args):
                calls.append(name)
                return fn(*args)

            return wrapped

        monkeypatch.setattr(cli_io.orjson, "loads", spy("orjson", cli_io.orjson.loads))
        monkeypatch.setattr(cli_io.json, "loads", spy("json", cli_io.json.loads))
        monkeypatch.setattr(cli_io, "_nesting_depth", spy("scan", cli_io._nesting_depth))
        assert _decode(text.encode()) == expected
        assert calls == (["scan"] if scanned else []) + [decoder]

    @given(
        st.recursive(
            st.none() | st.integers() | st.text(alphabet='[]{}"\\a'),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(st.text(alphabet='[]{}"\\a'), inner, max_size=3),
            max_leaves=20,
        )
    )
    def test_bracket_count_bounds_nesting_depth(self, value):
        # brackets in strings and escaped quotes only ever overcount
        def depth(v):
            items = v.values() if isinstance(v, dict) else v if isinstance(v, list) else ()
            return isinstance(v, (dict, list)) + max(map(depth, items), default=0)

        data = json.dumps(value).encode()
        assert _nesting_depth(data) == depth(value) <= data.count(b"[") + data.count(b"{")

    def test_directory_named_json(self, tmp_path):
        (tmp_path / "x.json").mkdir()
        report, code = run_file(tmp_path / "x.json")
        assert code == EXIT_ERROR and "cannot read" in report["error"]
        (tmp_path / "r3.json").write_bytes(R3_FILE.read_bytes())
        target = tmp_path / "batch.json"
        assert main(["batch", str(tmp_path), "--out", str(target)]) == EXIT_ERROR
        reports = json.loads(target.read_text())["reports"]
        assert [r["verdict"] for r in reports] == ["pass", "error"]

    @pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16", "utf-32"])
    def test_byte_order_marked_files_are_read(self, encoding, tmp_path):
        path = tmp_path / "marked.json"
        path.write_bytes(R3_FILE.read_text().encode(encoding))
        report, code = run_file(path)
        expected, _ = run_file(R3_FILE)
        expected["input"]["path"] = str(path)
        assert code == EXIT_PASS and canonical_json(report) == canonical_json(expected)

    def test_huge_requested_bound_is_checked_without_overflow(self, tmp_path):
        # B I with B = 1e308 was symmetrized as 0.5 (Q + Q*), which overflows
        data = load(R3_FILE)
        data.update(command="check-frame", bounds=[1, 1e308])
        path = tmp_path / "huge-bound.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS and report["body"]["verification"]["passed"]

    def test_overflowing_q_t_is_named(self, tmp_path):
        data = load(R3_FILE)
        data.update(
            command="perturb-operator",
            lambda1=1.7976931348623157e308,
            operator_T=data["operator_K"],
        )
        path = tmp_path / "huge-lambda.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_ERROR and "Q_t" in report["error"]

    def test_arithmetic_error_in_command_is_input_error(self, monkeypatch):
        def divide(_problem):
            return 1.0 / 0.0

        monkeypatch.setitem(COMMANDS, "bounds", divide)
        report, code = run_command("bounds", parse_problem(load(R3_FILE)))
        assert code == EXIT_ERROR and report["verdict"] == "error"

    def test_unknown_command_via_run_command(self):
        problem = parse_problem(load(R3_FILE))
        with pytest.raises(ProblemError):
            run_command("explode", problem)


SUM_FILE = CORPUS / "r3_combine_sum.json"
PRODUCT_FILE = CORPUS / "r3_combine_product.json"


class TestCombineCommand:
    def test_corpus_sum_and_product(self):
        # A1 = 1 for K and A2 = 1 / ||F^+ T||^2 for T = diag(1, 2, 1)
        a2 = optimal_kframe_bounds(
            FrameFamily(np.array(load(R3_FILE)["family"], float), FuzzyModel(BaseSpace(3))),
            np.diag([1.0, 2.0, 1.0]),
        ).A
        for path, operation, A in (
            (SUM_FILE, "sum", 1.0 / (1.0 + 0.5 / math.sqrt(a2)) ** 2),
            (PRODUCT_FILE, "product", 0.25),  # A1 / ||T||^2
        ):
            report, code = run_file(path)
            body = report["body"]
            assert code == EXIT_PASS and body["operation"] == operation
            assert body["derived"] == {"A": pytest.approx(A, rel=1e-11), "B": pytest.approx(6.0)}
            assert body["verification"]["passed"]
            optimal = body["optimal_kframe"]["A"]
            assert A <= optimal and body["ratio"] == pytest.approx(A / optimal, rel=1e-11)

    @pytest.mark.parametrize(
        "path, shifts",
        [
            (SUM_FILE, {"family": 300, "operator_K": -400, "operator_T": -400, "coefficients": 200}),
            (SUM_FILE, {"family": -200, "operator_K": 500, "operator_T": 500, "coefficients": -600}),
            (PRODUCT_FILE, {"family": 100, "operator_K": -300, "operator_T": 250}),
            (PRODUCT_FILE, {"family": -100, "operator_K": 200, "operator_T": 200}),
        ],
    )
    def test_constants_scale_with_the_operands(self, path, shifts):
        # the problem is decided at unit scale: scaling F, the pair K, T of a
        # sum, each factor of a product, or the coefficients by powers of two
        # scales A' and A_opt by 2^(2f - 2 (combined operator)) and B' by 4^f
        data = load(path)
        base, code = run_file(path)
        scaled = dict(data)
        for key, k in shifts.items():
            scaled[key] = _ldexp_entries(data[key], k)
        report, scaled_code = run_command("combine", parse_problem(scaled))
        operator = shifts["operator_K"] + (
            shifts["coefficients"] if "coefficients" in data else shifts["operator_T"]
        )
        power_A, power_B = 2 * shifts["family"] - 2 * operator, 2 * shifts["family"]
        one, two = base["body"], report["body"]
        assert scaled_code == code and two["verification"] == one["verification"]
        assert two["ratio"] == one["ratio"]
        assert two["derived"]["A"] == math.ldexp(one["derived"]["A"], power_A)
        assert two["derived"]["B"] == math.ldexp(one["derived"]["B"], power_B)
        assert two["optimal_kframe"]["A"] == math.ldexp(one["optimal_kframe"]["A"], power_A)

    def test_certificate_of_zero_fails_naming_the_operator(self):
        # the family misses e3; K = I escapes its range, T = diag(1, 1, 0) does not
        data = {"command": "combine", "dimension": 3, "family": [[1, 0, 0], [0, 1, 0]],
                "operator_K": np.eye(3).tolist(), "operator_T": np.diag([1.0, 1.0, 0.0]).tolist()}
        report, code = run_command("combine", parse_problem(data))
        assert code == EXIT_FAIL and "K1" in report["body"]["reason"]
        # the sum needs K1's certificate only when its coefficient is nonzero
        report, code = run_command("combine", parse_problem({**data, "coefficients": [0, 3]}))
        assert code == EXIT_PASS and report["body"]["derived"]["A"] == pytest.approx(1.0 / 9.0)
        swapped = {**data, "operator_K": data["operator_T"], "operator_T": data["operator_K"]}
        report, code = run_command("combine", parse_problem({**swapped, "coefficients": [1, 1]}))
        assert code == EXIT_FAIL and "K2" in report["body"]["reason"]
        # the product K1 K2 needs K1's certificate only
        report, code = run_command("combine", parse_problem(swapped))
        assert code == EXIT_PASS and report["body"]["derived"]["A"] == pytest.approx(1.0)

    @pytest.mark.parametrize("path", [SUM_FILE, PRODUCT_FILE])
    def test_one_svd_of_f_per_run(self, path, monkeypatch):
        calls = []
        svd = frame_transforms._synthesis_svd
        monkeypatch.setattr(frame_transforms, "_synthesis_svd", lambda f: calls.append(f) or svd(f))
        assert run_file(path)[1] == EXIT_PASS and len(calls) == 1

    @pytest.mark.parametrize(
        "coefficients, message",
        [([1], "expected length 2"), ([1, 2, 3], "expected length 2"), ([[1, 1], 0], "complex entries"),
         ([True, 1], "scalar must be"), ("ab", "expected a vector"), ([1, 1e999], "finite")],
    )
    def test_invalid_coefficients_rejected(self, coefficients, message):
        data = {**load(SUM_FILE), "coefficients": coefficients}
        with pytest.raises(ProblemError, match=message):
            parse_problem(data)

    def test_complex_coefficients_and_other_commands(self):
        data = {**load(C3_FILE), "command": "combine"}
        data["operator_T"] = data["operator_K"]
        report, code = run_command("combine", parse_problem({**data, "coefficients": [[0, 1], 2]}))
        assert code == EXIT_PASS and report["body"]["operation"] == "sum"
        # only combine reads the coefficients; they enter the digest
        plain, _ = run_command("check-kframe", parse_problem(data))
        both, _ = run_command("check-kframe", parse_problem({**data, "coefficients": [1, 2]}))
        assert plain["input"]["digest"] != both["input"]["digest"]
        plain["input"] = both["input"]
        assert canonical_json(plain) == canonical_json(both)

    def test_sum_does_not_depend_on_the_split_of_a_term(self):
        # a K + b T = (2^-300 a)(2^300 K) + (2^500 b)(2^-500 T): one operator,
        # one report body, although the file's numbers differ
        data = load(SUM_FILE)
        base, _ = run_file(SUM_FILE)
        (a, b), split = data["coefficients"], dict(data)
        split["operator_K"] = _ldexp_entries(data["operator_K"], 300)
        split["operator_T"] = _ldexp_entries(data["operator_T"], -500)
        split["coefficients"] = [math.ldexp(a, -300), math.ldexp(b, 500)]
        report, _ = run_command("combine", parse_problem(split))
        assert canonical_json(report["body"]) == canonical_json(base["body"])


class TestBatch:
    def test_corpus_summary(self):
        result, code = batch(sorted(CORPUS.glob("*.json")))
        assert code == EXIT_FAIL  # the claim file is a mathematical negative
        counts = result["summary"]["counts"]
        assert counts["pass"] == 4
        assert counts["not_applicable"] == 1
        assert result["summary"]["erratum_flagged"] == 1

    def test_empty_input_is_error(self):
        result, code = batch([])
        assert code == EXIT_ERROR

    def test_parallelism_levels_byte_identical(self):
        files = sorted(CORPUS.glob("*.json"))
        serial, _ = batch(files, parallelism=1)
        parallel, _ = batch(files, parallelism=8)
        assert canonical_json(serial) == canonical_json(parallel)

    def test_bad_file_among_corpus_files(self, tmp_path):
        data = load(R3_FILE)
        data["tolerance"] = "abc"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        files = [*sorted(CORPUS.glob("*.json")), bad]
        target = tmp_path / "batch.json"
        assert main(["batch", *map(str, files), "--out", str(target)]) == EXIT_ERROR
        reports = json.loads(target.read_text())["reports"]
        verdicts = [r["verdict"] for r in reports]
        assert verdicts == ["pass"] * 4 + ["not_applicable", "error"]
        assert reports[-1]["exit_code"] == EXIT_ERROR and "'tolerance'" in reports[-1]["error"]

    def test_repeated_runs_byte_identical(self):
        files = sorted(CORPUS.glob("*.json"))
        one, _ = batch(files, parallelism=4)
        two, _ = batch(files, parallelism=4)
        assert canonical_json(one) == canonical_json(two)


def _raising_run_command(*args, **kwargs):
    raise RuntimeError(f"collector on inside run_file: {gc.isenabled()}")


def _pause_case(case: str, tmp_path: Path, monkeypatch) -> Path:
    """A file that takes run_file out through the exit path ``case``."""
    if case == "raises":
        monkeypatch.setattr(cli_io, "run_command", _raising_run_command)
    if case in ("report", "raises"):
        return R3_FILE
    path = tmp_path / f"{case}.json"  # "missing" is never written
    if case == "directory":
        path.mkdir()
    elif case == "malformed":
        path.write_text("{not json")
    elif case == "deep":
        path.write_text('{"dimension": ' + "[" * 100_000 + "]" * 100_000 + "}")
    elif case == "problem_error":
        path.write_text(json.dumps({**load(R3_FILE), "tolerance": "abc"}))
    return path


@pytest.fixture
def collector_restored():
    yield
    gc.enable()


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize(
        "case, verdict",
        [("report", "pass"), ("missing", "error"), ("directory", "error"), ("malformed", "error"),
         ("deep", "error"), ("problem_error", "error"), ("raises", None)],
    )
    def test_collector_state_restored_on_every_exit(
        self, case, verdict, enabled, tmp_path, monkeypatch, collector_restored
    ):
        path = _pause_case(case, tmp_path, monkeypatch)
        (gc.enable if enabled else gc.disable)()
        if verdict is None:
            with pytest.raises(RuntimeError, match="collector on inside run_file: False"):
                run_file(path)
        else:
            assert run_file(path)[0]["verdict"] == verdict
        assert gc.isenabled() is enabled

    def test_no_collection_inside_run_file(self, tmp_path):
        rng = np.random.default_rng(64)
        family = rng.standard_normal((128, 64, 2))
        path = tmp_path / "c64.json"
        path.write_text(json.dumps({"dimension": 64, "field": "complex", "family": family.tolist()}))
        starts = []

        def count(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        gc.collect()
        gc.callbacks.append(count)
        try:
            # the control: decoding the file's 8k pairs with the collector on
            # sets off passes
            tree = _decode(path.read_bytes())
            assert starts
            del tree
            gc.collect()
            starts.clear()
            report, code = run_file(path)
            inside = len(starts)
        finally:
            gc.callbacks.remove(count)
        assert code == EXIT_PASS and report["body"]["optimal_frame"]["A"] > 0
        assert inside == 0
        assert gc.isenabled()

    def test_parallel_batch_leaves_the_collector_on(self):
        paths = sorted(CORPUS.glob("*.json"))
        result, code = batch(paths, 1)
        serial = canonical_json(result), code
        for _ in range(5):
            result, code = batch(paths, 2)
            assert gc.isenabled()
            assert (canonical_json(result), code) == serial


class TestMain:
    def test_main_check_kframe(self, capsys):
        code = main(["check-kframe", str(C3_FILE)])
        out = capsys.readouterr().out
        assert code == EXIT_PASS
        assert json.loads(out)["verdict"] == "pass"

    def test_main_alpha_override(self, capsys):
        code = main(["check-kframe", str(C3_FILE), "--alpha", "0.25,0.75"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["command"]["alphas"] == [0.25, 0.75]

    def test_main_text_format(self, capsys):
        code = main(["bounds", str(CLAIM_FILE), "--format", "text"])
        out = capsys.readouterr().out
        assert code == EXIT_FAIL
        assert "erratum" in out

    def test_main_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["bounds", str(R3_FILE), "--out", str(target)])
        assert code == EXIT_PASS
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["verdict"] == "pass"

    def test_main_batch_directory(self, capsys):
        code = main(["batch", str(CORPUS), "--format", "text"])
        out = capsys.readouterr().out
        assert code == EXIT_FAIL
        assert "pass: 4" in out and "erratum-flagged: 1" in out

    def test_main_bad_alpha_list(self, capsys):
        # a word is a usage error, as it is for --tol; a number outside (0, 1)
        # gets the message of a file's 'alphas' from parse_problem
        code = main(["bounds", str(R3_FILE), "--alpha", "0.1,zebra"])
        captured = capsys.readouterr()
        assert code == EXIT_ERROR and captured.out == "" and "--alpha" in captured.err
        code = main(["bounds", str(R3_FILE), "--alpha", "0.1,1.5"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERROR
        assert report["error"] == "'alphas' entries must lie in (0, 1), got 1.5"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_main_bad_tolerance(self, tol, capsys):
        # the messages a file's 'tolerance' gets from parse_problem
        code = main(["bounds", str(R3_FILE), "--tol", tol])
        report = json.loads(capsys.readouterr().out)
        finite = tol in ("-1", "0")
        message = "must be positive" if finite else f"must be finite, got {tol}"
        assert code == EXIT_ERROR and report["error"] == f"'tolerance' {message}"

    @pytest.mark.parametrize("levels", [",", ""])
    def test_main_empty_alpha_list_is_input_error(self, levels, tmp_path, capsys):
        # the orthonormal basis of R^2 has A = B = 1, so bounds [5, 6] fail;
        # an empty level list must not turn that into a pass with no check
        path = tmp_path / "basis.json"
        path.write_text(json.dumps({"command": "check-frame", "dimension": 2,
                                    "family": [[1.0, 0.0], [0.0, 1.0]], "bounds": [5, 6]}))
        assert main(["check-frame", str(path)]) == EXIT_FAIL
        capsys.readouterr()
        code = main(["check-frame", str(path), "--alpha", levels])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERROR and report["error"] == "'alphas' must be a nonempty list"

    def test_exit_codes_match_verdicts(self):
        for path, expected in ((C3_FILE, "pass"), (CLAIM_FILE, "not_applicable")):
            report, code = run_file(path)
            assert report["verdict"] == expected
            assert code == report["exit_code"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["batch", "{corpus}", "--alpha", "0.5"],
            ["batch", "{corpus}", "--tol", "1e-9"],
            ["bounds", "{r3}", "{c3}"],
            ["bounds", "{r3}", "--parallel", "2"],
            ["frame-check", "{r3}"],
            ["bounds"],
        ],
    )
    def test_usage_errors(self, argv, capsys):
        # a file command takes one file and no --parallel; batch runs each
        # file with its own entries, so it takes no --alpha, --convention or --tol
        paths = {"corpus": CORPUS, "r3": R3_FILE, "c3": C3_FILE}
        assert main([a.format(**paths) for a in argv]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == "" and "usage:" in captured.err

    @pytest.mark.parametrize("command", ["bounds", "batch"])
    @pytest.mark.parametrize("target", ["missing/report.json", "."])
    def test_unwritable_out_is_an_input_error(self, command, target, tmp_path, capsys):
        # exit 1 is a mathematical negative: a report that cannot be written
        # (a missing directory, or a directory) is exit 2 with one stderr line
        out = tmp_path / target
        source = R3_FILE if command == "bounds" else CORPUS
        assert main([command, str(source), "--out", str(out)]) == EXIT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"fuzzyframes: cannot write {out}: ")
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err

    def test_text_format_prints_the_json_values(self, capsys):
        # every corpus file under every command: each scalar of the body, the
        # error and the erratum notes print as the JSON report has them, a
        # number with the same 12 significant digits, a string unquoted
        seen = {"float": 0, "error": 0, "erratum": 0}
        for path in sorted(CORPUS.glob("*.json")):
            for command in COMMANDS:
                code = main([command, str(path)])
                raw = capsys.readouterr().out
                report = json.loads(raw)
                assert main([command, str(path), "--format", "text"]) == code
                lines = capsys.readouterr().out.splitlines()
                expected = [f"verdict: {report['verdict']}"]
                if "error" in report:
                    expected.append(f"error: {report['error']}")
                    seen["error"] += 1
                expected += [f"erratum: {note}" for note in report["erratum_notes"]]
                seen["erratum"] += len(report["erratum_notes"])
                for key, value in sorted(report.get("body", {}).items()):
                    if isinstance(value, float):
                        # the JSON token itself, not only the same double
                        assert f'"{key}": {value!r}' in raw
                        seen["float"] += 1
                    if isinstance(value, (str, bool, int, float)):
                        expected.append(f"{key}: {value}")
                assert lines == expected, (path.name, command)
        assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize(
        "command, entries, message",
        [
            ("bounds", [1.0], "problem file must be a JSON object"),
            ("bounds", {"field": "quaternion"},
             "'field' must be 'real' or 'complex', got 'quaternion'"),
            ("bounds", {"profile": "sharp"}, "'profile' must be 'scaled' or 'crisp', got 'sharp'"),
            ("bounds", {"bounds": [1.0]}, "'bounds' must be [A, B]"),
            ("bounds", {"bounds": 1.0}, "'bounds' must be [A, B]"),
            ("bounds", {"convention": "cubed"},
             "'convention' must be 'once' or 'squared', got 'cubed'"),
            ("transform", {"variant": "unitary"},
             "'variant' must be 'invertible' or 'coisometry', got 'unitary'"),
            ("bounds", {"claims": [1]}, "'claims' must be an object"),
            ("bounds", {"claims": {"frame_sum": [{"value": 1.0}]}},
             "frame_sum claims need 'vector' and 'value'"),
            ("bounds", {"claims": {"frame_sum": [{"vector": [1.0, 0.0, 0.0]}]}},
             "frame_sum claims need 'vector' and 'value'"),
            ("bounds", {"claims": {"frame_sum": [[1.0, 0.0, 0.0]]}},
             "frame_sum claims need 'vector' and 'value'"),
            ("batch --parallel 0", {}, "parallelism must be >= 1"),
        ],
    )
    def test_input_guards_exit_2_with_their_message(
        self, command, entries, message, tmp_path, capsys
    ):
        # each guard of parse_problem, and batch's --parallel, on the R3 file
        # with the given entries replaced
        data = {**load(R3_FILE), **entries} if isinstance(entries, dict) else entries
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        name, *options = command.split()
        assert main([name, str(path), *options]) == EXIT_ERROR
        assert json.loads(capsys.readouterr().out)["error"] == message

    def test_help(self, capsys):
        assert main(["--help"]) == EXIT_PASS
        assert "batch" in capsys.readouterr().out

    def test_batch_parallel_out(self, tmp_path):
        # the traced benchmark run calls batch with --out and --parallel 2
        target = tmp_path / "batch.json"
        assert main(["batch", str(CORPUS), "--out", str(target), "--parallel", "2"]) == EXIT_FAIL
        result, code = batch(sorted(CORPUS.glob("*.json")))
        assert target.read_text() == canonical_json(result) + "\n"


@pytest.mark.parametrize("command", ["bounds", "check-frame"])
def test_kind_is_decided_at_the_file_scale(command, tmp_path):
    # I_2 and 2 I_2 are both held as I_2 / 4 at unit scale: A = 1 (parseval)
    # or A = 4 (tight) is read only after the constant is mapped back
    for x, kind, A in ((1.0, "parseval", 1.0), (2.0, "tight", 4.0)):
        path = tmp_path / f"{x}.json"
        path.write_text(json.dumps({"dimension": 2, "family": [[x, 0.0], [0.0, x]]}))
        report, code = run_file(path, command)
        frame = report["body"]["optimal_frame"]
        assert code == EXIT_PASS
        assert (frame["kind"], frame["parseval"], frame["A"], frame["B"]) == (kind, A == 1.0, A, A)


def test_import_leaves_dataclasses_out_and_records_are_frozen():
    # a fresh interpreter: every CLI call pays for what importing cli_io loads
    src = ROOT / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = (
        "import sys, fuzzyframes.cli_io as m; from fuzzyframes.fuzzy_space import _critical_table;"
        " print(m.__file__, 'dataclasses' in sys.modules, _critical_table.cache_info().currsize)"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    file, loaded, tables = out.stdout.split()
    assert Path(file).resolve().parent == (src / "fuzzyframes").resolve()
    assert loaded == "False"
    assert tables == "0"  # the axioms table is built on first use, not at import
    records = 0
    for short in ("fuzzy_space", "operator_algebra", "frame_core", "frame_transforms",
                  "perturbation", "cli_io"):
        module = importlib.import_module(f"fuzzyframes.{short}")
        for name in module.__all__:
            cls = getattr(module, name)
            if not isinstance(cls, type) or issubclass(cls, Exception):
                continue
            assert issubclass(cls, tuple) and cls._fields, name
            record = tuple.__new__(cls, [None] * len(cls._fields))
            for field in cls._fields:
                with pytest.raises(AttributeError):
                    setattr(record, field, 0)
            records += 1
    assert records == 17  # and operator_algebra._Douglas, which is private
