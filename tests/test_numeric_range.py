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
    EXIT_FAIL,
    EXIT_PASS,
    ProblemError,
    canonical_json,
    parse_problem,
    run_command,
    run_file,
)
from conftest import assert_scaled_report, scale_operands
from fuzzyframes.fuzzy_space import MAX_DIMENSION

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

    def test_overflowing_lower_side_fails_with_a_unit_witness(self):
        # A K K* = 1e200 K K* overflows (the lower check printed margin nan,
        # then exit 2); its margin -1e200 ||K||^2 rounds to -inf
        data = {"command": "check-kframe", "dimension": 2, "family": [[1, 0], [0, 1]],
                "operator_K": [[1e100, 1e100], [0, 1e100]], "bounds": [1e200, 2], "alphas": [0.5]}
        report, code = _run(data)
        (failure,) = report["body"]["verification"]["failures"]
        assert code == EXIT_FAIL and failure["side"] == "lower" and failure["margin"] == -math.inf
        assert np.linalg.norm(failure["witness"]) == pytest.approx(1.0)
        assert "nan" not in canonical_json(report)

    def test_level_frame_operator_past_the_range_is_rescaled(self):
        # scale(0.99) S_c = 99 * 2.25e306 under the squared convention
        # overflowed (exit 2); the file is the in-range one times 2^500
        data = {"command": "check-frame", "dimension": 1, "family": [[1.5e153 * 2.0**-500]],
                "convention": "squared", "alphas": [0.99]}
        scaled = scale_operands(data, {"F": 500})
        assert scaled["family"] == [[1.5e153]]
        assert_scaled_report(_run(data)[0], _run(scaled)[0], data, {"F": 500})

    def test_overflowing_derived_upper_bound_is_input_error(self):
        # M = 4, so B' = B (sqrt(M) + 1)^2 = 9 * 4.9e307 is inf, and B I had
        # NaN off its diagonal
        data = {"command": "perturb-family", "dimension": 1,
                "family": [[7e153]], "family_g": [[-7e153]]}
        report, code = _run(data)
        assert code == EXIT_ERROR and "derived upper bound" in report["error"]

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


class TestUnitScale:
    """Every problem is decided on operands normalized to unit scale, and
    a requested bound that leaves the double range there is decided at
    the boundary."""

    X = 1.766632777287572e-160

    def test_subnormal_frame_operator_fails(self):
        # fl(x^2) is subnormal and 6.8e-6 relative above sigma_min(F)^2 = x^2:
        # formed as F F*, S_c lost the digits that show it, and the file passed
        x2 = self.X * self.X
        data = {"command": "check-frame", "dimension": 2,
                "family": [[self.X, 0.0], [0.0, self.X]], "bounds": [x2, 4 * x2]}
        report, code = _run(data)
        assert code == EXIT_FAIL and report["verdict"] == "fail"
        # the same file scaled exactly by 2^300 and its bounds by 2^600
        report, code = _run(scale_operands(data, {"F": 300}))
        assert code == EXIT_FAIL and report["verdict"] == "fail"

    @pytest.mark.parametrize("k", [1e-300, 1.0])
    def test_zero_family_fails_every_positive_lower_bound(self, k):
        # S_c - A K K* = -A K K* < 0; A = 1e-10 at K's unit scale, 1e-610,
        # rounded to 0, which passed
        data = {"command": "check-kframe", "dimension": 1, "family": [[0.0]],
                "operator_K": [[k]], "bounds": [1e-10, 1]}
        report, code = _run(data)
        failures = report["body"]["verification"]["failures"]
        assert code == EXIT_FAIL and report["verdict"] == "fail"
        assert {c["side"] for c in failures} == {"lower"}
        assert all(c["witness"] == [1.0] for c in failures)

    def test_underflowing_requested_lower_bound_lies_below_the_slack(self):
        # A = 1e-300 at unit scale is 1e-300 2^-1002, below every double;
        # S_c has max diagonal 1/4 there, and A far below its slack passes
        # although F is singular
        data = {"command": "check-frame", "dimension": 2,
                "family": [[2.0**500, 0.0], [0.0, 0.0]], "bounds": [1e-300, 2.0**1001]}
        report, code = _run(data)
        assert code == EXIT_PASS and report["body"]["optimal_frame"]["A"] == 0.0

    @pytest.mark.parametrize(
        "command, f, bounds", [("check-kframe", 1e-300, [1e10, 1.0]), ("check-frame", 1e-200, [1.0, 2.0])]
    )
    def test_requested_bounds_are_decided_past_the_range_of_the_optimal_ones(self, command, f, bounds):
        # A and B, 1e-600 or 1e-400, underflow a double and are reported as
        # null; they made the run an input error although the requested
        # lower bound fails
        data = {"command": command, "dimension": 2, "family": [[f, 0.0], [0.0, f]],
                "operator_K": [[1.0, 0.0], [0.0, 1.0]], "bounds": bounds}
        report, code = _run(data)
        body = json.loads(canonical_json(report))["body"]
        optimal = body["optimal_kframe" if command == "check-kframe" else "optimal_frame"]
        assert code == EXIT_FAIL and report["verdict"] == "fail"
        assert optimal["A"] is None and optimal["B"] is None and not optimal["parseval"]
        assert {c["side"] for c in body["verification"]["failures"]} == {"lower"}
        report, code = _run({**data, "bounds": None})
        assert code == EXIT_ERROR and "underflows" in report["error"]

    @pytest.mark.parametrize("command", ["check-frame", "check-kframe"])
    def test_overflowing_requested_lower_bound_fails(self, command):
        # F = 2^-500 I: A = 8 is 8 2^1000 or more at unit scale, past the
        # exponent held there; the lower check fails with margin ~ -8
        f = 2.0**-500
        data = {"command": command, "dimension": 2, "family": [[f, 0.0], [0.0, f]],
                "operator_K": [[1.0, 0.0], [0.0, 1.0]], "bounds": [8.0, 1.0]}
        report, code = _run(data)
        failures = report["body"]["verification"]["failures"]
        assert code == EXIT_FAIL and {c["side"] for c in failures} == {"lower"}
        assert all(c["margin"] == -8.0 for c in failures)
        assert all(np.linalg.norm(c["witness"]) == pytest.approx(1.0) for c in failures)
        if command == "check-kframe":  # K = 0: the lower inequality is vacuous
            report, code = _run({**data, "operator_K": [[0.0, 0.0], [0.0, 0.0]]})
            assert code == EXIT_PASS

    def test_commuting_operators_past_the_range_commute(self):
        # T K = K T = 0, but ||T||_F ||K||_F overflowed and the commutation
        # test failed with residual 0; T is singular
        data = {"command": "transform", "variant": "invertible", "dimension": 2,
                "family": [[1.0, 0.0], [0.0, 1.0]], "operator_K": [[1e200, 0.0], [0.0, 0.0]],
                "operator_T": [[0.0, 0.0], [0.0, 1e200]]}
        report, code = _run(data)
        assert code == EXIT_FAIL
        assert report["body"]["reason"] == "transform operator is not invertible"

    @pytest.mark.parametrize("t", [2.0**60, 1e200, 1e-200])
    def test_coisometry_far_from_unit_scale_fails(self, t):
        # T = t I with T T* far from I; T T* = 1e400 overflowed (exit 2).  T
        # is taken at the file's scale, held within 2^+-64
        data = {"command": "transform", "variant": "coisometry", "dimension": 2,
                "family": [[1.0, 0.0], [0.0, 1.0]], "operator_K": [[1.0, 0.0], [0.0, 1.0]],
                "operator_T": [[t, 0.0], [0.0, t]]}
        report, code = _run(data)
        assert code == EXIT_FAIL and report["body"]["reason"].startswith("T T* is not the identity")
        report, code = _run({**data, "operator_T": data["operator_K"]})
        assert code == EXIT_PASS and report["body"]["derived"] == {"A": 1.0, "B": 1.0}

    def test_invertible_transform_past_the_range_is_the_rescaled_one(self):
        # the commutator of T and K overflowed (exit 2); K = 2^600 K0 and T =
        # 2^450 T0 for an in-range pair, and A = 1e-400 * 1e306 = 1e-94
        data = {"command": "transform", "variant": "invertible", "dimension": 2,
                "family": [[1.0, 0.0], [0.0, 1.0]],
                "operator_K": [[math.ldexp(1e200, -600), 0.0], [0.0, 0.0]],
                "operator_T": [[math.ldexp(1e153, -450), 0.0], [0.0, math.ldexp(2e153, -450)]]}
        shifts = {"K": 600, "T": 450}
        scaled = scale_operands(data, shifts)
        assert scaled["operator_K"][0][0] == 1e200 and scaled["operator_T"][1][1] == 2e153
        report, code = _run(scaled)
        assert code == EXIT_PASS
        assert report["body"]["derived"]["A"] == pytest.approx(1e-94, rel=1e-12)
        assert report["body"]["derived"]["B"] == pytest.approx(4e306, rel=1e-12)
        assert_scaled_report(_run(data)[0], report, data, shifts)

    @pytest.mark.parametrize("f", [0, -2])
    def test_derived_upper_bound_past_unit_range_is_mapped(self, f):
        # G = 2^511 F gives M = (2^511 - 1)^2 and B' = B 4^511, which is inf
        # at unit scale (B = 18): the verification read B = inf and printed
        # "inf".  Taken out at the file's scale, B' = 18 4^(511 + f) overflows
        # for F at 0.75 and is G's own B for F at 0.75 / 4
        fam = [[0.75, 0.0], [0.0, 0.75]] * 32
        data = {"command": "perturb-family", "dimension": 2,
                "family": (np.ldexp(fam, f)).tolist(), "family_g": np.ldexp(fam, 511 + f).tolist()}
        report, code = _run(data)
        if f == 0:
            assert code == EXIT_ERROR
            assert report["error"] == "the derived upper bound B' overflows a double"
        else:
            assert code == EXIT_PASS and "nan" not in canonical_json(report)
            assert report["body"]["derived"]["B"] == pytest.approx(math.ldexp(18.0, 1018), rel=1e-12)

    def test_claim_below_the_held_exponent_agrees(self):
        # the claimed sum |<v, f>|^2 = 1e-305 lies below 2^-1000 at unit scale,
        # and holding it there made a correct claim an erratum
        data = {"command": "bounds", "dimension": 2, "family": [[0.75, 0.0]],
                "claims": {"frame_sum": [{"vector": [4.2163e-153, 0.75],
                                          "value": (4.2163e-153 * 0.75) ** 2}]}}
        report, code = _run(data)
        assert code == EXIT_PASS and report["erratum_notes"] == []
        assert report["body"]["claims"][0]["agrees"]

    def test_perturbation_constant_past_the_range_is_named(self):
        # G = 1e-600 F: M = ||G^+ D||^2, near 1e1200, reads the ratio of the
        # two families' scales and is no double
        data = {"command": "perturb-family", "dimension": 1,
                "family": [[1e300]], "family_g": [[1e-300]]}
        report, code = _run(data)
        assert code == EXIT_ERROR and report["error"] == "the constant M overflows a double"


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
    otherwise +-10^U(-323, 300); random bounds, lambdas, variant and
    coefficients."""
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
    if rng.random() < 0.5:  # combine's sum; without it, its product
        data["coefficients"] = entries((2,))
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
