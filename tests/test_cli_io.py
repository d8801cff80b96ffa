"""cli_io: problem parsing, command dispatch, determinism, exit codes."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyframes.cli_io import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    ProblemError,
    _parse_matrix,
    _parse_matrix_entries,
    _parse_vector,
    _parse_vector_entries,
    _round_significant,
    _whole_array,
    batch,
    canonical_json,
    main,
    parse_problem,
    problem_digest,
    run_command,
    run_file,
)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "fuzzyframes" / "corpus"
C3_FILE = CORPUS / "c3_rank_deficient_kframe.json"
R3_FILE = CORPUS / "r3_full_rank_kframe.json"
CLAIM_FILE = CORPUS / "r3_zero_sum_claim.json"


def load(path: Path) -> dict:
    return json.loads(path.read_text())


class TestParsing:
    def test_corpus_files_parse(self):
        for path in sorted(CORPUS.glob("*.json")):
            problem = parse_problem(load(path))
            assert problem.dimension == 3

    def test_complex_entries_as_pairs(self):
        data = load(C3_FILE)
        data["family"][0] = [[2, 0], [0, 0], [0, 0]]
        problem = parse_problem(data)
        assert problem.family[0, 0] == 2.0 + 0.0j

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
            {"bounds": [3, 1]},
            {"convention": "twice"},
            {"tolerance": -1.0},
            {"command": "explode"},
            {"schema": 2},
            {"seed": "abc"},
            {"tolerance": "x"},
            {"samples": None},
            {"lambda1": [1]},
            {"dimension": 3.5},
            {"dimension": True},
            {"seed": 2.7},
            {"seed": True},
            {"command": ["bounds"]},
            {"family_g": 5},
            {"claims": {"frame_sum": 3}},
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

    def test_digest_resolves_twelve_significant_digits(self):
        data = load(R3_FILE)
        digest = problem_digest(parse_problem(data))
        sixth = json.loads(json.dumps(data))
        sixth["family"][2][2] = -2.00001
        assert problem_digest(parse_problem(sixth)) != digest
        fourteenth = json.loads(json.dumps(data))
        fourteenth["family"][2][2] = -2.0000000000001
        assert problem_digest(parse_problem(fourteenth)) == digest

    def test_round_significant_matches_decimal_formatting(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(2000) * 10.0 ** rng.integers(-320, 308, 2000)
        x = np.concatenate([x, [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1000.0, 0.1]])
        reference = np.array([float(f"{v:.12g}") for v in x])
        rounded = _round_significant(x)
        assert np.all(np.isfinite(rounded))
        # scaled double arithmetic may land one unit of the 12th digit away
        assert np.all(np.abs(rounded - reference) <= 1e-11 * np.abs(reference))
        assert not np.signbit(rounded[x == 0.0]).any()

    def test_canonical_json_idempotent(self):
        report, _ = run_file(R3_FILE)
        once = canonical_json(report)
        twice = canonical_json(json.loads(once))
        assert once == twice


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**62), 2**62),
)
# valid numbers that numpy does not hold as int64 or float64
WIDE_INTEGERS = st.sampled_from([2**63, 2**63 + 1, 2**64, -(2**63) - 1, 10**30])
BAD_SCALARS = st.sampled_from(
    [True, False, None, "1", math.nan, math.inf, -math.inf, 10**400, [1], [1, 2, 3], {}]
)


@st.composite
def entry_lists(draw):
    """A matrix or vector in the problem-file encoding, with one optional defect.

    Returns (entries, shape, field, uniform): entries are all numbers, all
    [re, im] pairs or a mix, then possibly a wide integer, or a bool, string,
    null, non-finite or malformed entry, a ragged row, a wrong length or a
    missing row; uniform says there is neither a mix nor a defect.
    """
    field = draw(st.sampled_from(["real", "complex"]))
    form = draw(st.sampled_from(["scalar", "pair", "mixed"]))
    shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=2)))

    def entry():
        if form == "scalar" or (form == "mixed" and draw(st.booleans())):
            return draw(NUMBERS)
        imag = draw(st.one_of(st.sampled_from([0, 0.0, -0.0]), NUMBERS))
        return [draw(NUMBERS), imag]

    def vector(n):
        return [entry() for _ in range(n)]

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


def _outcome(parse, *args):
    try:
        arr = parse(*args)
    except ProblemError:
        return None
    return arr.dtype, arr.shape, arr.tobytes()


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(entry_lists())
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
        assert _whole_array(entries, shape, field) is not None


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

    def test_reconstruct_singular_not_applicable(self):
        raw, code = run_file(C3_FILE, command="reconstruct")
        report = json.loads(canonical_json(raw))
        assert code == EXIT_FAIL
        assert report["verdict"] == "not_applicable"
        witness = np.array(report["body"]["witness"])  # rows are [re, im]
        assert np.hypot(*witness[2]) == pytest.approx(1.0)  # direction e3

    def test_reconstruct_full_rank_passes(self):
        report, code = run_file(R3_FILE, command="reconstruct")
        assert code == EXIT_PASS
        assert report["body"]["max_residual"] <= 1e-9

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
        data["samples"] = 200
        path = tmp_path / "axioms.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        assert report["body"]["all_passed"]

    def test_atomic_command(self, tmp_path):
        data = load(C3_FILE)
        data["command"] = "atomic"
        path = tmp_path / "atomic.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path)
        assert code == EXIT_PASS
        assert report["body"]["equivalence_consistent"]

    def test_perturb_operator_command(self, tmp_path):
        data = load(R3_FILE)
        K = np.array(data["operator_K"], dtype=float)
        data["operator_T"] = (0.9 * K).tolist()
        data["command"] = "perturb-operator"
        data["lambda1"] = 0.1
        data["lambda2"] = 0.0
        data["samples"] = 500
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
        from fuzzyframes import operator_algebra

        calls = []
        inclusion = operator_algebra.douglas_range_inclusion

        def counted(*args, **kwargs):
            calls.append(args)
            return inclusion(*args, **kwargs)

        monkeypatch.setattr(operator_algebra, "douglas_range_inclusion", counted)
        data = load(R3_FILE)
        data["command"] = "douglas"
        K = np.array(data["operator_K"], dtype=float)
        for T, verdict in ((0.5 * K, "pass"), (np.eye(3), "fail")):  # e3 escapes K
            data["operator_T"] = T.tolist()
            path = tmp_path / f"douglas-{verdict}.json"
            path.write_text(json.dumps(data))
            calls.clear()
            report, _ = run_file(path)
            assert report["verdict"] == verdict
            assert report["body"]["inclusion"] is (verdict == "pass")
            assert len(calls) == 1

    def test_check_kframe_corpus_decomposition_budget(self, linalg_calls):
        report, code = run_file(R3_FILE, command="check-kframe")
        assert code == EXIT_PASS
        assert sum(linalg_calls.values()) <= 6

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
        # exact residual ~1.8e-9 > tolerance 1e-9, inside n eps cond = 8.9e-8
        problem = parse_problem(self._ill_conditioned("reconstruct", 1e-4))
        report, code = run_command("reconstruct", problem)
        assert report["body"]["max_residual"] > problem.tolerance
        assert code == EXIT_PASS

    def test_ill_conditioned_atomic_passes(self):
        # residual > tolerance 1e-9, inside n eps sqrt(B) C = 8.9e-8
        K = (1e4 * np.eye(4)).tolist()
        problem = parse_problem(self._ill_conditioned("atomic", 1e-4, operator_K=K))
        report, code = run_command("atomic", problem)
        assert report["body"]["max_reconstruction_residual"] > problem.tolerance
        assert code == EXIT_PASS

    @pytest.mark.parametrize(
        "command", ["bounds", "check-frame", "check-kframe", "reconstruct"]
    )
    def test_overflowing_frame_operator_is_input_error(self, command, tmp_path):
        data = load(R3_FILE)
        data["family"] = [[1e154, 1e154, 0.0], [1e154, -1e154, 0.0], [0.0, 0.0, 1.0]]
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        report, code = run_file(path, command=command)
        assert code == EXIT_ERROR and report["verdict"] == "error"
        assert "overflows" in report["error"]

    def test_convention_override_flows_through(self, capsys):
        code = main(["bounds", str(R3_FILE), "--convention", "squared"])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_PASS
        assert report["command"]["convention"] == "squared"
        assert report["body"]["optimal_frame"]["alpha_independent"] is False

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

    def test_unknown_command_via_run_command(self):
        problem = parse_problem(load(R3_FILE))
        with pytest.raises(ProblemError):
            run_command("explode", problem)


class TestBatch:
    def test_corpus_summary(self):
        result, code = batch(sorted(CORPUS.glob("*.json")))
        assert code == EXIT_FAIL  # the claim file is a mathematical negative
        counts = result["summary"]["counts"]
        assert counts["pass"] == 2
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
        data["seed"] = "abc"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        files = [*sorted(CORPUS.glob("*.json")), bad]
        target = tmp_path / "batch.json"
        assert main(["batch", *map(str, files), "--out", str(target)]) == EXIT_ERROR
        reports = json.loads(target.read_text())["reports"]
        verdicts = [r["verdict"] for r in reports]
        assert verdicts == ["pass", "pass", "not_applicable", "error"]
        assert reports[-1]["exit_code"] == EXIT_ERROR and "'seed'" in reports[-1]["error"]

    def test_repeated_runs_byte_identical(self):
        files = sorted(CORPUS.glob("*.json"))
        one, _ = batch(files, parallelism=4)
        two, _ = batch(files, parallelism=4)
        assert canonical_json(one) == canonical_json(two)


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
        assert "pass: 2" in out and "erratum-flagged: 1" in out

    def test_main_bad_alpha_list(self, capsys):
        code = main(["bounds", str(R3_FILE), "--alpha", "0.1,zebra"])
        assert code == EXIT_ERROR

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
    def test_main_bad_tolerance(self, tol, capsys):
        code = main(["bounds", str(R3_FILE), "--tol", tol])
        report = json.loads(capsys.readouterr().out)
        assert code == EXIT_ERROR and "tolerance" in report["error"]

    def test_exit_codes_match_verdicts(self):
        for path, expected in ((C3_FILE, "pass"), (CLAIM_FILE, "not_applicable")):
            report, code = run_file(path)
            assert report["verdict"] == expected
            assert code == report["exit_code"]
