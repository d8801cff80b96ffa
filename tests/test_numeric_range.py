"""Quantities at the edge of the double range: a quantity that leaves it
gives exit 2 with an error naming it, every other run a finite report, and
no run warns or prints "nan"."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyframes.cli_io import (
    COMMANDS,
    EXIT_ERROR,
    EXIT_PASS,
    ProblemError,
    canonical_json,
    parse_problem,
    run_command,
    run_file,
)
from fuzzyframes.fuzzy_space import MAX_DIMENSION
from fuzzyframes.operator_algebra import _frobenius

#: every command that reads a matrix
MATRIX_COMMANDS = tuple(c for c in COMMANDS if c != "axioms")


def _run(data: dict) -> tuple[dict, int]:
    problem = parse_problem(data)
    return run_command(problem.command, problem)


class TestReproducers:
    def test_underflowing_upper_bound_is_input_error(self):
        # B = sigma_max(F)^2 = 1.4e-483 rounds to 0, which made the file
        # pass with B = 0 < A = 2.1e21 and a zero witness
        data = {"command": "check-kframe", "dimension": 1,
                "family": [[3.687741894893741e-242]], "operator_K": [[-7.979424254207418e-253]]}
        for command in ("check-kframe", "bounds"):
            report, code = _run({**data, "command": command})
            assert code == EXIT_ERROR and "S_c" in report["error"]

    def test_underflowing_lower_frame_bound_is_input_error(self):
        # sigma_min / sigma_max = 1e-8, a frame, but A = sigma_min(F)^2 =
        # 1e-326 rounds to 0, which reported kind bessel and A = 0 with exit 0
        data = {"dimension": 2, "family": [[1e-155, 0.0], [0.0, 1e-163]]}
        for command in ("bounds", "check-frame"):
            report, code = _run({**data, "command": command})
            assert code == EXIT_ERROR and "S_c" in report["error"]
            assert "sigma_min(F)^2" in report["error"]

    def test_overflowing_derived_lower_bound_is_input_error(self):
        # A sigma_min(T)^2 = 1e100 * 1e300 is inf for K != 0, which passed as
        # the vacuous bound of K = 0 and printed "A": "inf" with exit 0
        data = {"command": "transform", "dimension": 1, "family": [[1e-100]],
                "operator_K": [[1e-150]], "operator_T": [[1e150]], "variant": "invertible"}
        report, code = _run(data)
        assert code == EXIT_ERROR and "lower bound A" in report["error"]
        # the vacuous A = inf stays: K = 0, and lambda = 0 (T = 0) in a transfer
        for vacuous in ({"operator_K": [[0.0]]}, {"operator_T": [[0.0]], "variant": None}):
            report, code = _run({**data, **vacuous})
            assert code == EXIT_PASS and report["body"]["derived"]["A"] == math.inf

    def test_douglas_witness_is_a_unit_vector(self):
        # W = diag(1, 2): the witness u s^-1 y is e2 / 1e-155, whose norm
        # overflowed and zeroed the printed witness
        data = {"command": "check-kframe", "dimension": 2,
                "family": [[1e-150, 0.0], [0.0, 1e-155]],
                "operator_K": [[1e-150, 0.0], [0.0, 2e-155]]}
        report, code = _run(data)
        cert = report["body"]["optimal_kframe"]
        assert code == EXIT_PASS and cert["A"] == pytest.approx(0.25, rel=1e-12)
        assert np.abs(cert["witness_lower"]) == pytest.approx([0.0, 1.0])

    def test_overflowing_lower_side_is_input_error(self):
        # A K K* = 1e200 K K* overflows; the lower check printed margin nan
        data = {"command": "check-kframe", "dimension": 2, "family": [[1, 0], [0, 1]],
                "operator_K": [[1e100, 1e100], [0, 1e100]], "bounds": [1e200, 2], "alphas": [0.5]}
        report, code = _run(data)
        assert code == EXIT_ERROR and "A K K*" in report["error"]
        assert "nan" not in canonical_json(report)

    def test_overflowing_level_frame_operator_is_input_error(self):
        # scale(0.99) S_c = 99 * 2.25e306 under the squared convention
        data = {"command": "check-frame", "dimension": 1, "family": [[1.5e153]],
                "convention": "squared", "alphas": [0.99]}
        report, code = _run(data)
        assert code == EXIT_ERROR and "scale(a) S_c" in report["error"]

    def test_overflowing_derived_upper_bound_is_input_error(self):
        # M = 4, so B' = B (sqrt(M) + 1)^2 = 9 * 4.9e307 is inf, and B I had
        # NaN off its diagonal
        data = {"command": "perturb-family", "dimension": 1,
                "family": [[7e153]], "family_g": [[-7e153]]}
        report, code = _run(data)
        assert code == EXIT_ERROR and "B I" in report["error"]

    @pytest.mark.parametrize(
        "operator_K, operator_T",
        [
            ([[1]], [[[3e-320, 4e-320]]]),
            # a rank-deficient N, whose inclusion test divides by ||M||_F
            ([[1, 0], [0, 0]], [[[3e-320, 4e-320], [0, 0]], [[0, 0], [0, 0]]]),
        ],
    )
    def test_complex_subnormal_douglas_passes(self, operator_K, operator_T):
        n = len(operator_K)
        data = {"command": "douglas", "dimension": n, "field": "complex",
                "family": np.eye(n).tolist(), "operator_K": operator_K, "operator_T": operator_T}
        report, code = _run(data)
        assert code == EXIT_PASS and report["body"]["inclusion"]
        assert report["body"]["factorization_residual"] == 0.0

    def test_frobenius_of_a_complex_subnormal(self):
        assert _frobenius(np.array([[3e-310 + 4e-310j]])) == pytest.approx(5e-310)
        assert _frobenius(np.array([[3.0, 4.0]])) == 5.0


class TestDimensionCap:
    def test_dimension_past_the_cap_is_rejected_at_parse_time(self):
        data = {"command": "bounds", "dimension": MAX_DIMENSION + 1,
                "family": [[0.0] * (MAX_DIMENSION + 1)]}
        with pytest.raises(ProblemError, match=str(MAX_DIMENSION)):
            parse_problem(data)

    def test_dimension_at_the_cap_runs(self):
        data = {"command": "bounds", "dimension": MAX_DIMENSION,
                "family": [[1.0] + [0.0] * (MAX_DIMENSION - 1)]}
        report, code = _run(data)
        assert code == EXIT_PASS and report["body"]["optimal_frame"]["B"] == 1.0


def _fuzz_problem(command: str, seed: int) -> dict:
    """n = 1..4, 1..6 vectors, every entry 0 with probability 0.15 and
    otherwise +-10^U(-323, 300); random bounds, lambdas and variant."""
    rng = np.random.default_rng(seed)
    n, m = int(rng.integers(1, 5)), int(rng.integers(1, 7))
    field = str(rng.choice(["real", "complex"]))

    def reals(shape) -> np.ndarray:
        x = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-323, 300, shape)
        x[rng.random(shape) < 0.15] = 0.0
        return x

    def entries(shape) -> list:
        if field == "real":
            return reals(shape).tolist()
        return np.stack([reals(shape), reals(shape)], axis=-1).tolist()

    data = {
        "command": command,
        "dimension": n,
        "field": field,
        "profile": str(rng.choice(["scaled", "crisp"])),
        "convention": str(rng.choice(["once", "squared"])),
        "family": entries((m, n)),
        "family_g": entries((m, n)),
        "operator_K": entries((n, n)),
        "operator_T": entries((n, n)),
        "lambda1": float(rng.uniform(0.0, 2.0)),
        "lambda2": float(rng.uniform(0.0, 1.2)),
        "variant": [None, "invertible", "coisometry"][int(rng.integers(3))],
    }
    if rng.random() < 0.5:
        data["bounds"] = np.abs(reals(2)).tolist()
    return data


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(command=st.sampled_from(MATRIX_COMMANDS), seed=st.integers(0, 2**32 - 1))
def test_no_run_warns_or_prints_nan(fuzz_dir, command, seed):
    path = fuzz_dir / "fuzz.json"
    path.write_text(json.dumps(_fuzz_problem(command, seed)))
    report, code = run_file(path)
    assert code in (0, 1, 2) and report["exit_code"] == code
    assert '"nan"' not in canonical_json(report)
