"""The one tolerance rule: every decision compares an excess with the file's
``tolerance`` times the size of its operands, so verdicts do not depend on
the units of the input."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_scaled_report, exact_shift_range, scale_operands
from fuzzyframes.cli_io import EXIT_FAIL, EXIT_PASS, parse_problem, run_command

ROOT = Path(__file__).resolve().parents[1]
R3 = json.loads((ROOT / "src" / "fuzzyframes" / "corpus" / "r3_full_rank_kframe.json").read_text())

#: a complex 2-dimensional family of 4 vectors and a rank-1 K; S_c - A K K*
#: cancels at the optimal A, so ||S_c - A K K*|| is far below ||S_c||
RANKDEF_KFRAME = {
    "command": "check-kframe",
    "dimension": 2,
    "field": "complex",
    "family": [
        [[0.09530834058060311, -0.004104703356765521], [-0.03474004708692591, 0.0020920356615931196]],
        [[-0.8450278655607982, 0.3386438492305207], [0.30612788701188903, -0.12880055887616965]],
        [[0.37981894105288183, 0.14026008791010686], [-0.1394219870038631, -0.04879251027260477]],
        [[0.9378589945369903, 0.7711687591788745], [-0.34691560068508637, -0.2754469337567324]],
    ],
    "operator_K": [
        [[-1.2369066597930964, 0.5587398626232591], [0.4546736993395224, -0.1960929845235484]],
        [[0.4477001884171383, -0.21153054801067833], [-0.16462781270167512, 0.07436625934918019]],
    ],
}


def _run(data: dict) -> tuple[dict, int]:
    problem = parse_problem(data)
    return run_command(problem.command, problem)


def _scaled(x, c: float):
    return [_scaled(e, c) for e in x] if isinstance(x, list) else x * c


class TestProbes:
    def test_wrong_bounds_of_a_small_frame_fail(self):
        # the corpus frame scaled by 3e-6 has A = 1.8e-11 and B = 5.4e-11
        data = {**R3, "command": "check-frame", "bounds": [1e-10, 1e-10]}
        data["family"] = _scaled(R3["family"], 3e-6)
        report, code = _run(data)
        assert code == EXIT_FAIL
        failures = report["body"]["verification"]["failures"]
        assert failures and {c["side"] for c in failures} == {"lower"}

    def test_large_kframe_passes_its_own_optimal_bound(self):
        data = dict(RANKDEF_KFRAME, family=_scaled(RANKDEF_KFRAME["family"], 2.0**40))
        report, code = _run(data)
        assert code == EXIT_PASS and report["body"]["verification"]["passed"]
        assert report["body"]["optimal_kframe"]["A"] > 0.0

    @pytest.mark.parametrize("command", ["atomic", "check-kframe"])
    def test_file_tolerance_reaches_the_kframe_bound(self, command):
        # range(K) escapes span(e1, e2) by 3e-7 / sqrt(2) (relative), inside
        # the file's tolerance 1e-6 but not inside the default 1e-9
        data = {
            "command": command,
            "dimension": 3,
            "family": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]],
            "operator_K": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3e-7]],
            "tolerance": 1e-6,
        }
        report, code = _run(data)
        cert = report["body"].get("certificate") or report["body"]["optimal_kframe"]
        assert code == EXIT_PASS and cert["A"] == 1.0


# ---------------------------------------------------------------------------
# Scale covariance: each group of operands scaled by its own power of two,
# F with G, K alone, T alone, and K with T where both sides of a hypothesis
# hold them; the constants scale by the powers of conftest.constant_powers

KINDS = [
    "bounds",
    "check-frame",
    "check-kframe",
    "atomic",
    "transfer",
    "invertible",
    "coisometry",
    "perturb-operator",
    "perturb-family",
    "reconstruct",
    "douglas",
    "kframe-K",
    "combine-sum",
    "combine-product",
]

#: the operand groups scaled together: T alone would break T T* = I, and
#: the perturbation hypothesis and a K + b T are homogeneous in K and T
#: together only
GROUPS = {
    "coisometry": ("F", "K"),
    "perturb-operator": ("F", "KT"),
    "combine-sum": ("F", "KT"),
    "combine-product": ("F", "K", "T"),
    "douglas": ("K", "T"),
    "transfer": ("F", "K", "T"),
    "invertible": ("F", "K", "T"),
}


def _entries(x: np.ndarray) -> list:
    """Entries as a problem file writes them: numbers or [re, im] pairs."""
    if np.iscomplexobj(x):
        return np.stack([x.real, x.imag], axis=-1).tolist()
    return x.tolist()


def _problem(kind: str, seed: int) -> dict:
    """A random problem of the given kind at n = 2..4, real or complex."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    field = str(rng.choice(["real", "complex"]))

    def mat(rows: int, cols: int) -> np.ndarray:
        m = rng.standard_normal((rows, cols))
        return m + 1j * rng.standard_normal((rows, cols)) if field == "complex" else m

    def low_rank(rows: int, cols: int) -> np.ndarray:
        r = int(rng.integers(1, min(rows, cols) + 1))
        return mat(rows, r) @ mat(r, cols)

    m = n + int(rng.integers(0, 3))
    vectors = low_rank(m, n) if rng.random() < 0.3 else mat(m, n)
    K = low_rank(n, n)
    data = {
        "command": kind,
        "dimension": n,
        "field": field,
        "profile": str(rng.choice(["scaled", "crisp"])),
        "convention": str(rng.choice(["once", "squared"])),
        "family": _entries(vectors),
    }
    if kind == "bounds":
        v = mat(1, n)[0]
        exact = float(np.sum(np.abs(vectors.conj() @ v) ** 2))
        value = exact if rng.random() < 0.5 else exact * (1.0 + 1e-6)
        data.update(operator_K=_entries(K), claims={"frame_sum": [{"vector": _entries(v), "value": value}]})
    elif kind == "check-frame":
        s = np.linalg.svd(vectors.T, compute_uv=False)
        shift = rng.choice([-1e-6, -1e-12, 0.0, 1e-12, 1e-6], size=2)
        a, b = s[-1] ** 2 * (1.0 + shift[0]), s[0] ** 2 * (1.0 + shift[1])
        if rng.random() < 0.7:
            data["bounds"] = [a, b]
    elif kind in ("check-kframe", "atomic"):
        data["operator_K"] = _entries(K)
    elif kind == "transfer":
        T = K @ mat(n, n) if rng.random() < 0.7 else mat(n, n)
        data.update(command="transform", operator_K=_entries(K), operator_T=_entries(T))
    elif kind in ("invertible", "coisometry"):
        u = np.linalg.qr(mat(n, n))[0]
        d = rng.standard_normal(n)
        t = np.sign(d) if kind == "coisometry" else d
        K = (u * rng.standard_normal(n)) @ u.conj().T
        T = (u * t) @ u.conj().T
        data.update(command="transform", variant=kind, operator_K=_entries(K), operator_T=_entries(T))
    elif kind == "perturb-operator":
        K1 = mat(n, n)
        K2 = K1 + rng.uniform(0.01, 1.0) * mat(n, n)
        data.update(
            operator_K=_entries(K1),
            operator_T=_entries(K2),
            lambda1=float(rng.uniform(0.0, 1.5)),
            lambda2=float(rng.choice([0.0, rng.uniform(0.0, 0.9)])),
        )
    elif kind == "perturb-family":
        data["family_g"] = _entries(vectors + rng.uniform(0.01, 0.5) * mat(m, n))
        if rng.random() < 0.5:
            data["operator_K"] = _entries(K)
    elif kind == "reconstruct" and rng.random() < 0.5:
        data["operator_K"] = _entries(K)
    elif kind == "douglas":
        M = K @ mat(n, n) if rng.random() < 0.7 else mat(n, n)
        data.update(operator_K=_entries(K), operator_T=_entries(M))
    elif kind in ("combine-sum", "combine-product"):
        data.update(command="combine", operator_K=_entries(K), operator_T=_entries(low_rank(n, n)))
        if kind == "combine-sum":  # b = 0 drops K2's certificate from the rule
            a, b = rng.standard_normal(), rng.choice([0.0, rng.standard_normal()])
            data["coefficients"] = [float(a), float(b)]
    elif kind == "kframe-K":
        # bounds around the optimal pair, which may have A > B
        data.update(command="check-kframe", operator_K=_entries(K))
        optimal = _run(data)[0]["body"]["optimal_kframe"]
        shift = rng.choice([-1e-6, -1e-12, 0.0, 1e-12, 1e-6], size=2)
        data["bounds"] = [float(optimal[side] * (1.0 + d)) for side, d in zip("AB", shift)]
    return data


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1), draw=st.data())
def test_verdicts_and_constants_are_scale_covariant(kind, seed, draw):
    data = _problem(kind, seed)
    base, _ = _run(data)
    groups = GROUPS.get(kind, ("F", "K"))
    group = draw.draw(st.sampled_from([g for g in groups if g != "K" or "operator_K" in data]))
    # a scaled file that rounds states a different problem: k ranges over
    # every shift for which it, and the report it implies, are exact
    k = draw.draw(st.integers(*exact_shift_range(data, base.get("body", {}), group)))
    shifts = {op: k for op in group}
    scaled, _ = _run(scale_operands(data, shifts))
    assert_scaled_report(base, scaled, data, shifts)
