"""frame_transforms: closure formulas and their verification coupling."""

import math

import numpy as np
import pytest

from fuzzyframes import (
    BaseSpace,
    FrameFamily,
    FuzzyModel,
    RangeInclusionError,
    atomic_system_equivalence_check,
    bessel_pair_kframe,
    build_family,
    combine_many,
    combine_product,
    combine_scalar,
    douglas_factorize,
    douglas_lambda,
    operator_transfer,
    optimal_kframe_bounds,
    synthesis_matrix,
    transform_family,
    verify_bounds,
)
from conftest import rand_family, rand_kframe_instance, rand_matrix


def diag_family(entries, field="real", profile="scaled"):
    n = len(entries)
    model = FuzzyModel(BaseSpace(n, field), profile)
    return FrameFamily(np.diag(np.asarray(entries, dtype=model.space.dtype)), model)


class TestCombineScalar:
    def test_halved_pair_of_equal_operators(self):
        rng = np.random.default_rng(3)
        fam, K = rand_kframe_instance(rng, 3, 5)
        cert = optimal_kframe_bounds(fam, K)
        result = combine_scalar(fam, K, K, 0.5, 0.5)
        # operator collapses back to K; derived lower is A/2 by the formula
        assert np.allclose(result.operator, K)
        assert result.derived.A == pytest.approx(cert.A / 2.0, rel=1e-9)
        assert result.derived.B == pytest.approx(cert.B)
        assert result.verification.passed

    def test_degenerate_coefficient_still_valid(self):
        rng = np.random.default_rng(5)
        fam, K1 = rand_kframe_instance(rng, 3, 5)
        K2 = rand_matrix(rng, 3, 3) @ K1  # shares the range, stays a K-frame
        result = combine_scalar(fam, K1, K2, 1.0, 0.0)
        assert np.allclose(result.operator, K1)
        assert result.verification.passed
        # reduction is never stronger than the direct certificate
        direct = optimal_kframe_bounds(fam, K1)
        assert result.derived.A <= direct.A + 1e-9

    def test_r3_instance_with_identity(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        result = combine_scalar(fam, K, np.eye(3), 1.0, 1.0)
        assert result.verification.passed

    def test_zero_pair_rejected(self, r3_instance):
        with pytest.raises(ValueError):
            combine_scalar(r3_instance["family"], r3_instance["K"], np.eye(3), 0.0, 0.0)

    def test_tight_equal_pair_boundary(self):
        # equal operators, unit coefficients, Parseval system: any constant
        # above 1/4 fails for the operator 2K, so the max form without the
        # factor 4 (which gives 1/2) is invalid; the corrected 1/8 verifies
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        K = np.diag([1.0, 0.5, 0.25])
        fam = FrameFamily(K.T, model)  # frame sum = ||K* f||^2
        result = combine_scalar(fam, K, K, 1.0, 1.0)
        assert result.verification.passed
        assert result.derived.A == pytest.approx(1.0 / 8.0)
        uncorrected = 0.5  # [max(|a|^2,|b|^2) (1/A1 + 1/A2)]^-1 with A = 1
        assert not verify_bounds(fam, uncorrected, result.derived.B, 2.0 * K, [0.5]).passed


class TestCombineProduct:
    def test_identity_second_factor(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = combine_product(fam, K, np.eye(3))
        assert result.derived.A == pytest.approx(cert.A)
        assert result.verification.passed

    def test_scaled_identity(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = combine_product(fam, K, 2.0 * np.eye(3))
        assert result.derived.A == pytest.approx(cert.A / 4.0)
        assert result.verification.passed

    def test_random_pairs_verify(self):
        rng = np.random.default_rng(7)
        for k in range(30):
            field = "complex" if k % 2 else "real"
            fam, K1 = rand_kframe_instance(rng, 3, 5, field)
            K2 = rand_matrix(rng, 3, 3, field) @ K1
            result = combine_product(fam, K1, K2)
            assert result.verification.passed


class TestCombineMany:
    def test_single_operator_collapse(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = combine_many(fam, [K], coefficients=[2.0])
        assert result.derived.A == pytest.approx(cert.A / 4.0)  # A / |a|^2
        assert result.verification.passed

    def test_two_equal_operators_unit_coefficients(self):
        rng = np.random.default_rng(11)
        fam, K = rand_kframe_instance(rng, 3, 5)
        cert = optimal_kframe_bounds(fam, K)
        result = combine_many(fam, [K, K], coefficients=[1.0, 1.0])
        assert np.allclose(result.operator, 2.0 * K)
        assert result.derived.A == pytest.approx(cert.A / 4.0, rel=1e-9)
        assert result.verification.passed

    def test_product_of_commuting_diagonals(self):
        rng = np.random.default_rng(13)
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        fam = FrameFamily(rng.standard_normal((5, 3)), model)
        ops = [np.diag(rng.uniform(0.5, 2.0, size=3)) for _ in range(3)]
        result = combine_many(fam, ops)
        assert result.verification.passed
        # composition applies the operators in list order
        assert np.allclose(result.operator, ops[2] @ ops[1] @ ops[0])

    def test_differing_bounds_flagged(self):
        rng = np.random.default_rng(17)
        fam, K1 = rand_kframe_instance(rng, 3, 5)
        K2 = 3.0 * K1
        result = combine_many(fam, [K1, K2], coefficients=[1.0, 1.0])
        assert result.common_bounds_substituted
        assert result.verification.passed


class TestBesselPair:
    def test_standard_basis_identity(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        basis = FrameFamily(np.eye(3), model)
        result = bessel_pair_kframe(basis, basis, np.eye(3))
        assert result.certificate.A == pytest.approx(1.0)
        assert result.verification.passed

    def test_reciprocal_diagonal_pair(self):
        F = diag_family([2.0, 1.0])
        G = diag_family([0.5, 1.0])
        result = bessel_pair_kframe(F, G, np.eye(2))
        assert result.factorization_residual <= 1e-12
        assert result.certificate.A == pytest.approx(1.0)  # D = 1
        assert result.verification.passed

    def test_seeded_construction(self):
        rng = np.random.default_rng(19)
        for k in range(20):
            field = "complex" if k % 2 else "real"
            F = rand_family(rng, 3, 5, field)
            G = rand_family(rng, 3, 5, field)
            K = F.vectors.T @ G.vectors.conj()  # T_F T_G* by construction
            result = bessel_pair_kframe(F, G, K)
            assert result.verification.passed

    def test_failed_factorization_raises(self):
        F = diag_family([2.0, 1.0])
        G = diag_family([0.5, 1.0])
        with pytest.raises(ValueError, match="factorization"):
            bessel_pair_kframe(F, G, np.diag([5.0, 5.0]))


class TestTransformFamily:
    def test_doubling_scales_bounds_by_four(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = transform_family(fam, 2.0 * np.eye(3), K, "invertible")
        assert result.derived.A == pytest.approx(4.0 * cert.A)
        assert result.derived.B == pytest.approx(4.0 * cert.B)
        assert result.verification.passed
        # direct scaling oracle: the moved family is {2 f_i}
        assert np.allclose(result.family.vectors, 2.0 * fam.vectors)

    def test_identity_keeps_bounds(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = transform_family(fam, np.eye(3), K, "invertible")
        assert result.derived.A == pytest.approx(cert.A)
        assert result.derived.B == pytest.approx(cert.B)

    def test_unitary_preserves_optimal_bounds(self):
        rng = np.random.default_rng(23)
        fam, _ = rand_kframe_instance(rng, 3, 5)
        K = np.diag(rng.uniform(0.2, 2.0, size=3))
        theta = 0.7
        # rotation in the first two coordinates commutes with equal diagonals
        K[1, 1] = K[0, 0]
        T = np.array(
            [
                [math.cos(theta), -math.sin(theta), 0.0],
                [math.sin(theta), math.cos(theta), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        before = optimal_kframe_bounds(fam, K)
        result = transform_family(fam, T, K, "invertible")
        after = optimal_kframe_bounds(result.family, K)
        assert after.A == pytest.approx(before.A, rel=1e-10)
        assert after.B == pytest.approx(before.B, rel=1e-10)

    def test_coisometry_variant(self):
        rng = np.random.default_rng(29)
        fam, _ = rand_kframe_instance(rng, 3, 5)
        K = np.eye(3) * 1.5
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        result = transform_family(fam, q, K, "coisometry")
        assert result.verification.passed
        assert result.derived.A == pytest.approx(optimal_kframe_bounds(fam, K).A)

    def test_commutation_hypothesis_enforced(self):
        rng = np.random.default_rng(31)
        fam, _ = rand_kframe_instance(rng, 3, 5)
        K = np.diag([1.0, 2.0, 3.0])
        T = rand_matrix(rng, 3, 3) + 3.0 * np.eye(3)
        with pytest.raises(ValueError, match="commute"):
            transform_family(fam, T, K, "invertible")

    def test_singular_transform_rejected(self, r3_instance):
        T = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="invertible"):
            transform_family(r3_instance["family"], T, np.eye(3), "invertible")


class TestOperatorTransfer:
    def test_transfer_to_self(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = operator_transfer(fam, K, K)
        assert result.lam == pytest.approx(1.0)
        assert result.derived.A == pytest.approx(cert.A)
        assert result.verification.passed

    def test_transfer_to_half(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = operator_transfer(fam, K, 0.5 * K)
        assert result.lam == pytest.approx(0.5)
        assert result.derived.A == pytest.approx(4.0 * cert.A)
        assert result.verification.passed

    def test_c3_projector_transfer(self, c3_instance):
        fam, K = c3_instance["family"], c3_instance["K"]
        T = np.zeros((3, 3), dtype=complex)
        T[0, 0] = 1.0  # projector onto e1, whose range sits inside range(K)
        result = operator_transfer(fam, K, T)
        assert result.verification.passed

    def test_range_escape_is_hypothesis_violation(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        T = np.eye(3)  # full range, strictly larger than range(K)
        with pytest.raises(RangeInclusionError):
            operator_transfer(fam, K, T)

    def test_derived_bound_is_valid_but_possibly_loose(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            fam, K = rand_kframe_instance(rng, 4, 6)
            w = rand_matrix(rng, 4, 4)
            T = K @ w  # range(T) <= range(K)
            result = operator_transfer(fam, K, T)
            assert result.verification.passed
            optimal = optimal_kframe_bounds(fam, T)
            if math.isfinite(result.derived.A) and math.isfinite(optimal.A):
                assert result.derived.A <= optimal.A + 1e-9


def synthesis_inclusion(family: FrameFamily, K: np.ndarray) -> bool:
    """range(K) inside the range of the synthesis matrix, by Douglas's
    factorization K = F W."""
    try:
        douglas_factorize(K, synthesis_matrix(family))
    except RangeInclusionError:
        return False
    return True


class TestSynthesisCharacterization:
    """A family is a K-frame exactly when range(K) lies in the range of its
    synthesis matrix; the atomic report decides the K-frame side."""

    def test_c3_equivalence_confirmed(self, c3_instance):
        fam, K = c3_instance["family"], c3_instance["K"]
        report = atomic_system_equivalence_check(fam, K)
        assert synthesis_inclusion(fam, K) and report.atomic_holds
        assert report.certificate.A == pytest.approx(0.5, abs=1e-9)

    def test_missing_direction_fails_both_sides(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        fam = FrameFamily(np.array([[1.0, 0, 0], [0, 1, 0]]), model)
        report = atomic_system_equivalence_check(fam, np.eye(3))
        assert not synthesis_inclusion(fam, np.eye(3)) and not report.atomic_holds
        assert report.certificate.A == 0.0

    def test_equivalence_coupling_random(self):
        rng = np.random.default_rng(41)
        for k in range(200):
            if k % 2:
                fam, K = rand_kframe_instance(rng, 4, 6)
            else:
                model = FuzzyModel(BaseSpace(4, "real"), "scaled")
                vectors = rng.standard_normal((6, 4))
                vectors[:, -1] = 0.0
                fam = FrameFamily(vectors, model)
                K = rng.standard_normal((4, 4)) + 4.0 * np.eye(4)
            report = atomic_system_equivalence_check(fam, K)
            assert synthesis_inclusion(fam, K) == report.atomic_holds
            assert report.atomic_holds == (k % 2 == 1)

    def test_build_family_from_construction(self):
        rng = np.random.default_rng(43)
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        for _ in range(10):
            T = rng.standard_normal((3, 5))
            K = T @ rng.standard_normal((5, 3))  # range(K) <= range(T)
            built = build_family(model, T, K)
            assert built.inclusion_holds
            assert built.certificate.A > 0.0
            assert built.derived_lower is not None
            assert built.derived_lower <= built.certificate.A + 1e-9
            # one decomposition of T: the derived bound is the certificate's
            assert built.derived_lower == built.certificate.A
            assert built.lam == pytest.approx(douglas_lambda(K, T), rel=1e-12)
        # range(I) escapes a rank-2 T: no inclusion, A = 0
        T = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))
        built = build_family(model, T, np.eye(3))
        assert not built.inclusion_holds and built.certificate.A == 0.0
        assert built.lam is None and built.derived_lower is None
