"""perturbation: hypothesis checks, derived stability bounds, equivalence."""

import math

import numpy as np
import pytest

from fuzzyframes import (
    BaseSpace,
    FrameFamily,
    FuzzyModel,
    check_operator_perturbation,
    classical_frame_operator,
    derive_family_perturbed_bounds,
    derive_operator_perturbed_bounds,
    frame_sum,
    optimal_kframe_bounds,
    verify_bounds,
)
from fuzzyframes.operator_algebra import PSD_TOL
from fuzzyframes.perturbation import _family_constant
from conftest import (
    rand_family,
    rand_kframe_instance,
    rand_matrix,
    run_problem,
    sphere_quotient_extremum,
    sphere_violation_max,
)


def violation(K1, K2, lambda1, lambda2, f):
    """||(K1-K2)* f|| - lam1 ||K1* f|| - lam2 ||K2* f||."""
    return (
        np.linalg.norm((K1 - K2).conj().T @ f)
        - lambda1 * np.linalg.norm(K1.conj().T @ f)
        - lambda2 * np.linalg.norm(K2.conj().T @ f)
    )


class TestOperatorHypothesis:
    def test_identical_operators(self):
        rng = np.random.default_rng(3)
        K = rand_matrix(rng, 3, 3)
        report = check_operator_perturbation(K, K, 0.0, 0.0)
        assert report.verified
        assert report.method == "spectral"

    def test_shrunk_operator_exact_constants(self):
        rng = np.random.default_rng(5)
        K1 = rand_matrix(rng, 4, 4, "complex")
        K2 = 0.9 * K1
        report = check_operator_perturbation(K1, K2, 0.1, 0.0)
        assert report.verified
        assert report.method == "spectral"

    def test_undersized_constants_reported_with_witness(self):
        rng = np.random.default_rng(7)
        K1 = np.eye(3)
        bump = np.zeros((3, 3))
        bump[0, 0] = 1.0
        K2 = K1 + 0.8 * bump
        report = check_operator_perturbation(K1, K2, 0.01, 0.01)
        assert not report.verified
        assert report.max_violation > 0
        w = report.witness
        lhs = np.linalg.norm((K1 - K2).conj().T @ w)
        rhs = 0.01 * np.linalg.norm(K1.conj().T @ w) + 0.01 * np.linalg.norm(K2.conj().T @ w)
        assert lhs > rhs

    def test_scan_agrees_with_sphere_search(self):
        rng = np.random.default_rng(2025)
        verdicts = []
        for k in range(120):
            n = 2 + k % 5
            field = "complex" if k % 2 else "real"
            K1 = rand_matrix(rng, n, n, field)
            K2 = K1 + rng.uniform(0.1, 0.8) * rand_matrix(rng, n, n, field)
            lam1, lam2 = rng.uniform(0.2, 1.5), rng.uniform(0.05, 0.95)
            report = check_operator_perturbation(K1, K2, lam1, lam2)
            brute, _ = sphere_violation_max(K1, K2, lam1, lam2, rng)
            assert type(report.verified) is bool
            assert report.verified == (brute <= 1e-9)
            if not report.verified:
                value = violation(K1, K2, lam1, lam2, report.witness)
                assert value > 0
                assert report.max_violation == pytest.approx(value)
            verdicts.append((report.verified, report.method))
        assert verdicts.count((True, "scan")) >= 20
        assert verdicts.count((False, "scan")) >= 20

    def test_scan_decides_tight_constants(self):
        # ||D* f|| = 0.5 ||f|| = 0.25 ||K1* f|| + 0.5 ||K2* f|| for every f,
        # with equality at t = 1/2, which the single test does not reach
        K1, K2 = np.eye(3), 0.5 * np.eye(3)
        tight = check_operator_perturbation(K1, K2, 0.25, 0.5)
        assert tight.verified and tight.method == "scan"
        short = check_operator_perturbation(K1, K2, 0.25, 0.499)
        assert not short.verified and short.method == "scan"
        assert violation(K1, K2, 0.25, 0.499, short.witness) > 0

    def test_parameter_domain(self):
        K = np.eye(2)
        with pytest.raises(ValueError):
            check_operator_perturbation(K, K, -0.1, 0.0)
        with pytest.raises(ValueError):
            check_operator_perturbation(K, K, 0.0, 1.0)


class TestOperatorDerivedBounds:
    def test_zero_constants_keep_bounds(self):
        out = derive_operator_perturbed_bounds(2.0, 6.0, 0.0, 0.0)
        assert out.A == pytest.approx(2.0) and out.B == pytest.approx(6.0)

    def test_formula_value(self):
        out = derive_operator_perturbed_bounds(1.0, 1.0, 1.0, 0.5)
        assert out.A == pytest.approx(1.0 / 16.0)

    def test_r3_shrunk_operator_verifies(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        K2 = 0.9 * K
        hyp = check_operator_perturbation(K, K2, 0.1, 0.0)
        assert hyp.verified
        out = derive_operator_perturbed_bounds(cert.A, cert.B, 0.1, 0.0)
        assert out.A == pytest.approx(cert.A / 1.21)
        assert verify_bounds(fam, out.A, out.B, K2).passed

    def test_monotone_in_constants(self):
        grid = np.linspace(0.0, 0.9, 7)
        values1 = [derive_operator_perturbed_bounds(1.0, 2.0, l1, 0.2).A for l1 in grid]
        values2 = [derive_operator_perturbed_bounds(1.0, 2.0, 0.2, l2).A for l2 in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values1, values1[1:]))
        assert all(b <= a + 1e-15 for a, b in zip(values2, values2[1:]))

    def test_lambda2_domain(self):
        with pytest.raises(ValueError):
            derive_operator_perturbed_bounds(1.0, 2.0, 0.0, 1.0)


class TestFamilyConstant:
    """The minimal M of the family hypothesis, perturb-family's ``M``."""

    def test_identical_families_give_zero(self):
        rng = np.random.default_rng(11)
        fam = rand_family(rng, 3, 5)
        body, _ = run_problem("perturb-family", fam, family_g=fam)
        assert body["M"] == pytest.approx(0.0, abs=1e-12)
        assert body["stronger_than_hypothesis"]

    def test_doubled_family(self):
        rng = np.random.default_rng(13)
        fam = rand_family(rng, 3, 5)
        doubled = FrameFamily(2.0 * fam.vectors, fam.model)
        body, _ = run_problem("perturb-family", fam, family_g=doubled)
        assert body["M"] == pytest.approx(1.0, rel=1e-9)

    def test_small_perturbation_of_r3_family(self, r3_instance):
        rng = np.random.default_rng(17)
        fam = r3_instance["family"]
        moved = FrameFamily(fam.vectors + 0.05 * rng.standard_normal((3, 3)), fam.model)
        body, _ = run_problem("perturb-family", fam, family_g=moved)
        assert body["finite"] and body["M"] < 0.1
        # hypothesis holds pointwise at M + 1e-9 on sampled vectors
        for _ in range(200):
            f = rng.standard_normal(3)
            diff = frame_sum(FrameFamily(fam.vectors - moved.vectors, fam.model), f, 0.5)
            lhs = min(frame_sum(fam, f, 0.5), frame_sum(moved, f, 0.5))
            assert diff <= (body["M"] + 1e-9) * lhs + 1e-12

    def test_infinite_when_kernel_escapes(self):
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        F = FrameFamily(np.array([[1.0, 0.0]]), model)  # frame sum misses e2
        G = FrameFamily(np.array([[1.0, 1.0]]), model)
        body, code = run_problem("perturb-family", F, family_g=G)
        assert code == 1 and not body["finite"] and math.isinf(body["M"])
        assert body["witness"] is not None

    def test_matches_sphere_search(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 4):
            F = rand_family(rng, n, n + 2)
            G = FrameFamily(F.vectors + 0.3 * rng.standard_normal(F.vectors.shape), F.model)
            body, _ = run_problem("perturb-family", F, family_g=G)
            s_delta = classical_frame_operator(
                FrameFamily(F.vectors - G.vectors, F.model)
            )
            brute = max(
                sphere_quotient_extremum(s_delta, classical_frame_operator(F), rng, 100_000),
                sphere_quotient_extremum(s_delta, classical_frame_operator(G), rng, 100_000),
            )
            assert body["M"] == pytest.approx(brute, rel=1e-4)

    def test_length_mismatch(self):
        rng = np.random.default_rng(23)
        with pytest.raises(ValueError, match="equal lengths"):
            _family_constant(rand_family(rng, 3, 4), rand_family(rng, 3, 5), 0, PSD_TOL)


class TestFamilyDerivedBounds:
    def test_zero_constant_keeps_bounds(self):
        out = derive_family_perturbed_bounds(2.0, 6.0, 0.0)
        assert out.A == pytest.approx(2.0) and out.B == pytest.approx(6.0)

    def test_unit_constant_quarters(self):
        out = derive_family_perturbed_bounds(2.0, 6.0, 1.0)
        assert out.A == pytest.approx(0.5) and out.B == pytest.approx(24.0)

    def test_perturbed_r3_family_verifies(self, r3_instance):
        rng = np.random.default_rng(29)
        fam, K = r3_instance["family"], r3_instance["K"]
        moved = FrameFamily(fam.vectors + 0.05 * rng.standard_normal((3, 3)), fam.model)
        cert = optimal_kframe_bounds(fam, K)
        body, code = run_problem("perturb-family", fam, family_g=moved, operator_K=K)
        out = derive_family_perturbed_bounds(cert.A, cert.B, body["M"])
        assert verify_bounds(moved, out.A, out.B, K).passed
        assert code == 0 and body["verification"]["passed"]
        assert body["derived"]["A"] == pytest.approx(out.A, rel=1e-12)

    def test_monotone_in_m(self):
        grid = np.linspace(0.0, 4.0, 9)
        values = [derive_family_perturbed_bounds(1.0, 2.0, m).A for m in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_infinite_m_rejected(self):
        with pytest.raises(ValueError):
            derive_family_perturbed_bounds(1.0, 2.0, math.inf)


def frame_bounds(family: FrameFamily) -> tuple[float, float]:
    """The optimal frame bounds (A, B) of the bounds command."""
    body, _ = run_problem("bounds", family)
    return body["optimal_frame"]["A"], body["optimal_frame"]["B"]


class TestFrameEquivalence:
    """Any two frames, with bounds (A, B) and (C, D), are perturbations of
    each other at M = max((1 + sqrt(B/C))^2, (1 + sqrt(D/A))^2): M is at
    least perturb-family's minimal M."""

    def test_identical_bases(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        basis = FrameFamily(np.eye(3), model)
        (a, b), (c, d) = frame_bounds(basis), frame_bounds(basis)
        m = max((1.0 + math.sqrt(b / c)) ** 2, (1.0 + math.sqrt(d / a)) ** 2)
        assert m == pytest.approx(4.0)
        body, _ = run_problem("perturb-family", basis, family_g=basis)
        assert body["M"] == 0.0  # difference family vanishes

    def test_scaled_basis_pair(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        basis = FrameFamily(np.eye(3), model)
        doubled = FrameFamily(2.0 * np.eye(3), model)
        (a, b), (c, d) = frame_bounds(basis), frame_bounds(doubled)
        m = max((1.0 + math.sqrt(b / c)) ** 2, (1.0 + math.sqrt(d / a)) ** 2)
        assert m == pytest.approx(9.0)
        body, _ = run_problem("perturb-family", basis, family_g=doubled)
        assert body["M"] == pytest.approx(1.0) and body["M"] <= m

    def test_random_frame_pairs(self):
        rng = np.random.default_rng(31)
        for k in range(10):
            field = "complex" if k % 2 else "real"
            F = rand_family(rng, 4, 6, field)
            G = rand_family(rng, 4, 6, field)
            (a, b), (c, d) = frame_bounds(F), frame_bounds(G)
            m = max((1.0 + math.sqrt(b / c)) ** 2, (1.0 + math.sqrt(d / a)) ** 2)
            body, _ = run_problem("perturb-family", F, family_g=G)
            assert body["M"] <= m * (1.0 + 1e-9)

    def test_minimal_constant_matches_sphere_search(self):
        rng = np.random.default_rng(33)
        for k in range(6):
            field = "complex" if k % 2 else "real"
            F = rand_family(rng, 3, 5, field)
            G = rand_family(rng, 3, 5, field)
            (a, b), (c, d) = frame_bounds(F), frame_bounds(G)
            m = max((1.0 + math.sqrt(b / c)) ** 2, (1.0 + math.sqrt(d / a)) ** 2)
            body, _ = run_problem("perturb-family", F, family_g=G)
            s_delta = classical_frame_operator(FrameFamily(F.vectors - G.vectors, F.model))
            brute = max(
                sphere_quotient_extremum(s_delta, classical_frame_operator(F), rng, 20_000),
                sphere_quotient_extremum(s_delta, classical_frame_operator(G), rng, 20_000),
            )
            assert body["M"] == pytest.approx(brute, rel=1e-4)
            assert brute <= m


class TestIdentityPerturbation:
    """A K-frame for K near I is a frame: perturb-operator with operator_T = I
    decides ||K* f - f|| <= lam1 ||K* f|| + lam2 ||f|| and verifies the
    frame pair A ((1 - lam2) / (1 + lam1))^2, B."""

    def test_identity_with_zero_constants(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        basis = FrameFamily(np.eye(3), model)
        body, code = run_problem("perturb-operator", basis, operator_K=np.eye(3),
                                 operator_T=np.eye(3))
        assert code == 0 and body["hypothesis_verified"]
        assert body["derived"]["A"] == pytest.approx(1.0)
        assert body["verification"]["passed"]

    def test_slightly_inflated_identity(self):
        rng = np.random.default_rng(37)
        fam = rand_family(rng, 3, 5)
        body, code = run_problem("perturb-operator", fam, operator_K=1.05 * np.eye(3),
                                 operator_T=np.eye(3), lambda2=0.05)
        assert code == 0 and body["hypothesis_verified"]
        assert "derived" in body
        assert body["verification"]["passed"]

    def test_singular_operator_fails_near_kernel(self, c3_instance):
        fam, K = c3_instance["family"], c3_instance["K"]
        body, code = run_problem("perturb-operator", fam, operator_K=K,
                                 operator_T=np.eye(3), lambda1=0.1, lambda2=0.1)
        assert code == 1 and not body["hypothesis_verified"]
        w = body["witness"]
        # violation concentrates where K* annihilates f
        lhs = np.linalg.norm(K.conj().T @ w - w)
        rhs = 0.1 * np.linalg.norm(K.conj().T @ w) + 0.1 * np.linalg.norm(w)
        assert lhs > rhs


class TestSymmetryCorollary:
    def test_two_sided_hypothesis_aligns_verdicts(self):
        # when the two-sided bound holds with constants below one, the two
        # operators certify together or fail together
        rng = np.random.default_rng(41)
        agreements = 0
        for k in range(100):
            if k % 2:
                fam, K1 = rand_kframe_instance(rng, 3, 5)
            else:
                model = FuzzyModel(BaseSpace(3, "real"), "scaled")
                vectors = rng.standard_normal((5, 3))
                vectors[:, -1] = 0.0
                fam = FrameFamily(vectors, model)
                K1 = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
            c = rng.uniform(0.6, 1.0)
            K2 = c * K1  # ||(K1-K2)* f|| = (1-c) ||K1* f||, constants below 1
            a1 = optimal_kframe_bounds(fam, K1).A
            a2 = optimal_kframe_bounds(fam, K2).A
            assert (a1 > 0) == (a2 > 0)
            agreements += 1
        assert agreements == 100


class TestValidityChain:
    def test_verified_hypotheses_yield_verified_bounds(self):
        rng = np.random.default_rng(43)
        for k in range(200):
            field = "complex" if k % 2 else "real"
            fam, K1 = rand_kframe_instance(rng, 3, 5, field)
            cert = optimal_kframe_bounds(fam, K1)
            if not (cert.A > 0 and math.isfinite(cert.A)):
                continue
            eps = rng.uniform(0.01, 0.3)
            K2 = (1.0 - eps) * K1
            hyp = check_operator_perturbation(K1, K2, eps, 0.0)
            assert hyp.verified
            out = derive_operator_perturbed_bounds(cert.A, cert.B, eps, 0.0)
            assert verify_bounds(fam, out.A, out.B, K2).passed
