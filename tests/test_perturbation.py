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
    family_perturbation_constant,
    frame_equivalence_constant,
    frame_sum,
    identity_perturbation_check,
    optimal_kframe_bounds,
    verify_bounds,
)
from conftest import (
    rand_family,
    rand_kframe_instance,
    rand_matrix,
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
    def test_identical_families_give_zero(self):
        rng = np.random.default_rng(11)
        fam = rand_family(rng, 3, 5)
        out = family_perturbation_constant(fam, fam)
        assert out.M == pytest.approx(0.0, abs=1e-12)
        assert out.stronger_than_hypothesis

    def test_doubled_family(self):
        rng = np.random.default_rng(13)
        fam = rand_family(rng, 3, 5)
        doubled = FrameFamily(2.0 * fam.vectors, fam.model)
        out = family_perturbation_constant(fam, doubled)
        assert out.M == pytest.approx(1.0, rel=1e-9)

    def test_small_perturbation_of_r3_family(self, r3_instance):
        rng = np.random.default_rng(17)
        fam = r3_instance["family"]
        moved = FrameFamily(fam.vectors + 0.05 * rng.standard_normal((3, 3)), fam.model)
        out = family_perturbation_constant(fam, moved)
        assert out.finite and out.M < 0.1
        # hypothesis holds pointwise at M + 1e-9 on sampled vectors
        for _ in range(200):
            f = rng.standard_normal(3)
            diff = frame_sum(FrameFamily(fam.vectors - moved.vectors, fam.model), f, 0.5)
            lhs = min(frame_sum(fam, f, 0.5), frame_sum(moved, f, 0.5))
            assert diff <= (out.M + 1e-9) * lhs + 1e-12

    def test_infinite_when_kernel_escapes(self):
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        F = FrameFamily(np.array([[1.0, 0.0]]), model)  # frame sum misses e2
        G = FrameFamily(np.array([[1.0, 1.0]]), model)
        out = family_perturbation_constant(F, G)
        assert not out.finite and math.isinf(out.M)
        assert out.witness is not None

    def test_matches_sphere_search(self):
        rng = np.random.default_rng(19)
        for n in (2, 3, 4):
            F = rand_family(rng, n, n + 2)
            G = FrameFamily(F.vectors + 0.3 * rng.standard_normal(F.vectors.shape), F.model)
            out = family_perturbation_constant(F, G)
            s_delta = classical_frame_operator(
                FrameFamily(F.vectors - G.vectors, F.model)
            )
            brute = max(
                sphere_quotient_extremum(s_delta, classical_frame_operator(F), rng, 100_000),
                sphere_quotient_extremum(s_delta, classical_frame_operator(G), rng, 100_000),
            )
            assert out.M == pytest.approx(brute, rel=1e-4)

    def test_length_mismatch(self):
        rng = np.random.default_rng(23)
        with pytest.raises(ValueError):
            family_perturbation_constant(rand_family(rng, 3, 4), rand_family(rng, 3, 5))


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
        m = family_perturbation_constant(fam, moved)
        out = derive_family_perturbed_bounds(cert.A, cert.B, m.M)
        assert verify_bounds(moved, out.A, out.B, K).passed

    def test_monotone_in_m(self):
        grid = np.linspace(0.0, 4.0, 9)
        values = [derive_family_perturbed_bounds(1.0, 2.0, m).A for m in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))

    def test_infinite_m_rejected(self):
        with pytest.raises(ValueError):
            derive_family_perturbed_bounds(1.0, 2.0, math.inf)


class TestFrameEquivalence:
    def test_identical_bases(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        basis = FrameFamily(np.eye(3), model)
        out = frame_equivalence_constant(basis, basis)
        assert out.M == pytest.approx(4.0)
        assert out.verified  # difference family vanishes

    def test_scaled_basis_pair(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        basis = FrameFamily(np.eye(3), model)
        doubled = FrameFamily(2.0 * np.eye(3), model)
        out = frame_equivalence_constant(basis, doubled)
        assert out.M == pytest.approx(9.0)
        assert out.verified

    def test_random_frame_pairs(self):
        rng = np.random.default_rng(31)
        for k in range(10):
            field = "complex" if k % 2 else "real"
            F = rand_family(rng, 4, 6, field)
            G = rand_family(rng, 4, 6, field)
            out = frame_equivalence_constant(F, G)
            assert out.verified

    def test_minimal_constant_matches_sphere_search(self):
        rng = np.random.default_rng(33)
        for k in range(6):
            field = "complex" if k % 2 else "real"
            F = rand_family(rng, 3, 5, field)
            G = rand_family(rng, 3, 5, field)
            out = frame_equivalence_constant(F, G)
            s_delta = classical_frame_operator(FrameFamily(F.vectors - G.vectors, F.model))
            brute = max(
                sphere_quotient_extremum(s_delta, classical_frame_operator(F), rng, 20_000),
                sphere_quotient_extremum(s_delta, classical_frame_operator(G), rng, 20_000),
            )
            assert out.minimal_M == pytest.approx(brute, rel=1e-4)
            assert out.verified == (brute <= out.M)

    def test_decomposes_each_family_once(self, linalg_calls):
        # one SVD of each synthesis matrix (n = 3 is below the QR reduction)
        # serves both frame bounds and the minimal constant; one eigh of W W*
        # per family
        rng = np.random.default_rng(35)
        F = rand_family(rng, 3, 5)
        G = rand_family(rng, 3, 5)
        linalg_calls.clear()
        assert frame_equivalence_constant(F, G).verified
        assert dict(linalg_calls) == {"svd": 2, "eigh": 2}

    def test_requires_frames(self):
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        flat = FrameFamily(np.array([[1.0, 0.0], [2.0, 0.0]]), model)
        full = FrameFamily(np.eye(2), model)
        with pytest.raises(ValueError, match="frames"):
            frame_equivalence_constant(flat, full)


class TestIdentityPerturbation:
    def test_identity_with_zero_constants(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        basis = FrameFamily(np.eye(3), model)
        out = identity_perturbation_check(np.eye(3), 0.0, 0.0, basis)
        assert out.hypothesis.verified
        assert out.derived.A == pytest.approx(1.0)
        assert out.verification.passed

    def test_slightly_inflated_identity(self):
        rng = np.random.default_rng(37)
        fam = rand_family(rng, 3, 5)
        K = 1.05 * np.eye(3)
        out = identity_perturbation_check(K, 0.0, 0.05, fam)
        assert out.hypothesis.verified
        assert out.derived is not None
        assert out.verification.passed

    def test_singular_operator_fails_near_kernel(self, c3_instance):
        fam, K = c3_instance["family"], c3_instance["K"]
        out = identity_perturbation_check(K, 0.1, 0.1, fam)
        assert not out.hypothesis.verified
        w = out.hypothesis.witness
        # violation concentrates where K* annihilates f
        lhs = np.linalg.norm(K.conj().T @ w - w)
        rhs = 0.1 * np.linalg.norm(K.conj().T @ w) + 0.1 * np.linalg.norm(w)
        assert lhs > rhs

    def test_constant_domain(self):
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        basis = FrameFamily(np.eye(2), model)
        with pytest.raises(ValueError):
            identity_perturbation_check(np.eye(2), 1.0, 0.0, basis)


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
