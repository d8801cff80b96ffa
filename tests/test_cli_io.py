"""cli_io: problem parsing, command dispatch, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest

from fuzzyframes.cli_io import (
    EXIT_ERROR,
    EXIT_FAIL,
    EXIT_PASS,
    ProblemError,
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

    def test_digest_stable_under_reformatting(self):
        data = load(R3_FILE)
        a = problem_digest(parse_problem(data))
        reformatted = json.loads(json.dumps(data, indent=7))
        b = problem_digest(parse_problem(reformatted))
        assert a == b

    def test_canonical_json_idempotent(self):
        report, _ = run_file(R3_FILE)
        once = canonical_json(report)
        twice = canonical_json(json.loads(once))
        assert once == twice


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

    def test_exit_codes_match_verdicts(self):
        for path, expected in ((C3_FILE, "pass"), (CLAIM_FILE, "not_applicable")):
            report, code = run_file(path)
            assert report["verdict"] == expected
            assert code == report["exit_code"]
