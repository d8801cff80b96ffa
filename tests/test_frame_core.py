"""frame_core: operators, certificates, atomic systems, reconstruction."""

import math

import numpy as np
import pytest

from fuzzyframes import (
    BaseSpace,
    FrameFamily,
    FuzzyModel,
    RangeInclusionError,
    SingularFrameOperatorError,
    analysis_apply,
    atomic_coefficients,
    atomic_system_equivalence_check,
    atomic_system_from_operator,
    classical_frame_operator,
    frame_operator,
    frame_sum,
    optimal_frame_bounds,
    optimal_kframe_bounds,
    pseudo_inverse,
    psd_order_check,
    reconstruct,
    rescale_to_parseval,
    restricted_inverse_check,
    spectral_norm,
    synthesis_matrix,
    verify_bounds,
)
from conftest import (
    rand_family,
    rand_kframe_instance,
    rand_matrix,
    rand_vector,
    sphere_quotient_extremum,
)

REAL3 = FuzzyModel(BaseSpace(3, "real"), "scaled")


def standard_basis_family(n=3, field="real", profile="scaled"):
    model = FuzzyModel(BaseSpace(n, field), profile)
    return FrameFamily(np.eye(n, dtype=model.space.dtype), model)


class TestSynthesisAnalysis:
    def test_standard_basis_synthesis(self):
        fam = standard_basis_family()
        assert np.array_equal(synthesis_matrix(fam), np.eye(3))

    def test_c3_synthesis_columns(self, c3_instance):
        F = synthesis_matrix(c3_instance["family"])
        s = 2**-0.5
        assert np.allclose(F[:, 0], [2, 0, 0])
        assert np.allclose(F[:, 1], [0, s, 0])
        assert np.allclose(F[:, 2], [0, s, 0])

    def test_coefficient_application(self, r3_instance):
        F = synthesis_matrix(r3_instance["family"])
        assert np.allclose(F @ np.array([0.0, 1.0, 0.0]), [1.0, -1.0, -1.0])

    def test_analysis_midpoint(self, r3_instance):
        coeffs = analysis_apply(r3_instance["family"], np.array([1.0, 0, 0]), 0.5)
        assert np.allclose(coeffs, [1.0, 1.0, 0.0])

    def test_analysis_scale_four(self, r3_instance):
        coeffs = analysis_apply(r3_instance["family"], np.array([1.0, 0, 0]), 0.8)
        assert np.allclose(coeffs, [4.0, 4.0, 0.0])

    def test_analysis_zero_vector(self, r3_instance):
        assert np.allclose(analysis_apply(r3_instance["family"], np.zeros(3), 0.5), 0.0)


class TestFrameOperator:
    def test_r3_midpoint_diagonal(self, r3_instance):
        assert np.allclose(frame_operator(r3_instance["family"], 0.5), np.diag([2.0, 3, 6]))

    def test_c3_midpoint_diagonal(self, c3_instance):
        assert np.allclose(frame_operator(c3_instance["family"], 0.5), np.diag([4.0, 1, 0]))

    def test_zero_family(self):
        fam = FrameFamily(np.zeros((1, 3)), REAL3)
        assert np.allclose(frame_operator(fam, 0.5), np.zeros((3, 3)))

    def test_scale_relation(self):
        rng = np.random.default_rng(3)
        fam = rand_family(rng, 3, 5)
        base = classical_frame_operator(fam)
        for a in (0.2, 0.5, 0.77):
            assert np.allclose(frame_operator(fam, a), fam.model.scale(a) * base)


class TestFrameSum:
    def test_r3_value(self, r3_instance):
        assert frame_sum(r3_instance["family"], np.array([1.0, 1, 1]), 0.5) == pytest.approx(11.0)

    def test_c3_value(self, c3_instance):
        f = np.array([0, 1, 0], dtype=complex)
        assert frame_sum(c3_instance["family"], f, 0.5) == pytest.approx(1.0)

    def test_zero_vector(self, r3_instance):
        assert frame_sum(r3_instance["family"], np.zeros(3), 0.5) == 0.0

    def test_squared_convention(self, r3_instance):
        fam = r3_instance["family"]
        f = np.array([1.0, 1, 1])
        once = frame_sum(fam, f, 0.8, "once")
        squared = frame_sum(fam, f, 0.8, "squared")
        assert squared == pytest.approx(4.0 * once)  # one extra power of scale(0.8)

    def test_pairing_consistency(self):
        rng = np.random.default_rng(5)
        fam = rand_family(rng, 4, 6, "complex")
        for _ in range(20):
            f = rand_vector(rng, 4, "complex")
            a = float(rng.uniform(0.05, 0.95))
            pairing = float(np.real(np.vdot(f, frame_operator(fam, a) @ f)))
            assert frame_sum(fam, f, a) == pytest.approx(pairing, rel=1e-10)


class TestOptimalBounds:
    def test_r3_frame_bounds(self, r3_instance):
        cert = optimal_frame_bounds(r3_instance["family"])
        assert cert.A == pytest.approx(2.0)
        assert cert.B == pytest.approx(6.0)
        assert cert.kind == "frame" and cert.alpha_independent

    def test_standard_basis_parseval(self):
        cert = optimal_frame_bounds(standard_basis_family(4))
        assert cert.kind == "parseval"
        assert cert.A == pytest.approx(1.0) and cert.B == pytest.approx(1.0)

    def test_c3_not_a_frame(self, c3_instance):
        cert = optimal_frame_bounds(c3_instance["family"])
        assert cert.A == 0.0 and cert.B == pytest.approx(4.0)
        assert cert.kind == "bessel"
        assert abs(cert.witness_lower[2]) == pytest.approx(1.0)

    def test_c3_kframe_bounds(self, c3_instance):
        cert = optimal_kframe_bounds(c3_instance["family"], c3_instance["K"])
        assert cert.A == pytest.approx(0.5, abs=1e-10)
        assert cert.B == pytest.approx(4.0)

    def test_r3_kframe_bounds(self, r3_instance):
        cert = optimal_kframe_bounds(r3_instance["family"], r3_instance["K"])
        assert cert.A == pytest.approx(1.0)
        assert cert.B == pytest.approx(6.0)

    def test_zero_operator_unconstrained(self, r3_instance):
        cert = optimal_kframe_bounds(r3_instance["family"], np.zeros((3, 3)))
        assert math.isinf(cert.A)

    def test_psd_coupling_both_directions(self):
        rng = np.random.default_rng(7)
        for k in range(40):
            field = "complex" if k % 2 else "real"
            if k % 3:
                fam, K = rand_kframe_instance(rng, 4, 6, field)
            else:
                fam = rand_family(rng, 4, 6, field)
                fam = FrameFamily(
                    np.concatenate([fam.vectors[:, :3], np.zeros((6, 1))], axis=1),
                    fam.model,
                )
                K = rand_matrix(rng, 4, 4, field) + 4 * np.eye(4)
            cert = optimal_kframe_bounds(fam, K)
            s = classical_frame_operator(fam)
            gram = np.asarray(K) @ np.asarray(K).conj().T
            if cert.A > 0.0 and math.isfinite(cert.A):
                ok, _, _ = psd_order_check(cert.A * gram, s)
                assert ok
            else:
                ok, _, _ = psd_order_check(1e-6 * gram, s)
                assert not ok  # no positive multiple fits under S_c

    def test_noncommuting_lower_bound_matches_search(self):
        # S_c and K K* share no eigenbasis here; the optimal constant must
        # still be the largest A with S_c - A K K* PSD, which the sphere
        # search recovers as the infimum of the quotient
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        fam = FrameFamily(np.array([[1.0, 1.0], [0.0, 1.0]]), model)
        K = np.array([[1.0, 0.0], [0.0, 0.0]])
        cert = optimal_kframe_bounds(fam, K)
        ok, _, _ = psd_order_check(cert.A * (K @ K.T), classical_frame_operator(fam))
        assert ok
        ok, _, _ = psd_order_check(
            1.05 * cert.A * (K @ K.T), classical_frame_operator(fam)
        )
        assert not ok  # the constant is maximal
        rng = np.random.default_rng(99)
        brute = sphere_quotient_extremum(
            classical_frame_operator(fam), K @ K.T, rng, samples=50_000, mode="min"
        )
        assert cert.A == pytest.approx(brute, rel=1e-6)

    def test_brute_force_equivalence_small_dims(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            fam = rand_family(rng, n, n + 2)
            cert = optimal_frame_bounds(fam)
            s = classical_frame_operator(fam)
            eye = np.eye(n)
            low = sphere_quotient_extremum(s, eye, rng, samples=100_000, mode="min")
            high = sphere_quotient_extremum(s, eye, rng, samples=100_000, mode="max")
            assert low == pytest.approx(cert.A, rel=1e-4)
            assert high == pytest.approx(cert.B, rel=1e-4)

    def test_alpha_invariance_of_certificates(self):
        rng = np.random.default_rng(13)
        fam, K = rand_kframe_instance(rng, 3, 5)
        cert = optimal_kframe_bounds(fam, K)
        for a in np.linspace(0.05, 0.95, 20):
            res = verify_bounds(fam, cert.A * (1 - 1e-9), cert.B * (1 + 1e-9), K, [a])
            assert res.passed


class TestVerifyBounds:
    def test_c3_stated_bounds_pass(self, c3_instance):
        res = verify_bounds(
            c3_instance["family"], 1.0 / 3.0, 4.0, c3_instance["K"], [0.1, 0.5, 0.9]
        )
        assert res.passed

    def test_c3_too_large_lower_fails_at_e2(self, c3_instance):
        res = verify_bounds(c3_instance["family"], 0.6, 4.0, c3_instance["K"], [0.5])
        assert not res.passed
        failure = res.first_failure()
        assert failure.side == "lower"
        assert abs(failure.witness[1]) == pytest.approx(1.0, abs=1e-8)

    def test_trivial_bounds_pass(self):
        rng = np.random.default_rng(17)
        fam = rand_family(rng, 3, 4)
        assert verify_bounds(fam, 0.0, 1e6, None, [0.3]).passed

    def test_fail_witness_replays(self, c3_instance):
        fam, K = c3_instance["family"], c3_instance["K"]
        res = verify_bounds(fam, 0.6, 4.0, K, [0.5])
        w = res.first_failure().witness
        lhs = 0.6 * np.linalg.norm(K.conj().T @ w) ** 2
        assert lhs > frame_sum(fam, w, 0.5) + 1e-12

    def test_squared_convention_level_dependence(self):
        rng = np.random.default_rng(19)
        fam = rand_family(rng, 3, 5)
        cert = optimal_frame_bounds(fam)
        # under the squared convention the frame sum gains scale(a) > 1
        res = verify_bounds(fam, cert.A, cert.B, None, [0.9], "squared")
        assert not res.passed

    @pytest.mark.parametrize(
        "convention, profile, pairs_for_five",
        [("once", "scaled", 1), ("squared", "crisp", 1), ("squared", "scaled", 5)],
    )
    def test_each_distinct_inequality_checked_once(
        self, linalg_calls, convention, profile, pairs_for_five
    ):
        rng = np.random.default_rng(23)
        model = FuzzyModel(BaseSpace(3, "complex"), profile)
        fam = FrameFamily(rand_matrix(rng, 5, 3, "complex"), model)
        K = rand_matrix(rng, 3, 3, "complex")
        one = verify_bounds(fam, 0.01, 1e3, K, [0.5], convention)
        calls_one = sum(linalg_calls.values())
        linalg_calls.clear()
        alphas = [0.1, 0.3, 0.5, 0.7, 0.9]
        five = verify_bounds(fam, 0.01, 1e3, K, alphas, convention)
        assert calls_one == 2
        assert sum(linalg_calls.values()) == 2 * pairs_for_five
        assert [(c.alpha, c.side) for c in five.checks] == [
            (a, side) for a in alphas for side in ("lower", "upper")
        ]
        assert one.checks[0].margin == five.checks[4].margin


class TestRescale:
    def test_tight_family_rescales_to_parseval(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        fam = FrameFamily(2.0 * np.eye(3), model)  # tight with bound 4
        cert = optimal_frame_bounds(fam)
        assert cert.kind == "tight" and cert.A == pytest.approx(4.0)
        scaled, new_cert = rescale_to_parseval(fam, cert)
        assert new_cert.kind == "parseval"
        assert np.allclose(scaled.vectors, np.eye(3))

    def test_already_parseval_unchanged(self):
        fam = standard_basis_family()
        cert = optimal_frame_bounds(fam)
        scaled, new_cert = rescale_to_parseval(fam, cert)
        assert np.allclose(scaled.vectors, fam.vectors)
        assert new_cert.parseval

    def test_non_tight_rejected(self, r3_instance):
        cert = optimal_frame_bounds(r3_instance["family"])
        with pytest.raises(ValueError, match="tight"):
            rescale_to_parseval(r3_instance["family"], cert)

    def test_degenerate_tight_bound_rejected(self):
        from fuzzyframes import BoundCertificate

        fam = standard_basis_family()
        broken = BoundCertificate(
            kind="tight", A=0.0, B=0.0, alpha_independent=True, tight=True
        )
        with pytest.raises(ValueError, match="degenerate"):
            rescale_to_parseval(fam, broken)

    def test_tight_kframe_rescale(self):
        rng = np.random.default_rng(23)
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        K = rand_matrix(rng, 3, 3)
        fam = FrameFamily(3.0 * K.T, model)  # frame sum = 9 ||K* f||^2
        cert = optimal_kframe_bounds(fam, K)
        assert cert.tight and cert.A == pytest.approx(9.0)
        scaled, new_cert = rescale_to_parseval(fam, cert, K)
        assert new_cert.parseval and new_cert.A == pytest.approx(1.0)


class TestAtomicSystem:
    def test_identity_gives_standard_basis(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        fam, cert = atomic_system_from_operator(model, np.eye(3))
        assert np.allclose(fam.vectors, np.eye(3))
        assert cert.parseval and cert.A == 1.0 and cert.B == pytest.approx(1.0)

    def test_c3_operator_canonical_family(self, c3_instance):
        fam, cert = atomic_system_from_operator(c3_instance["model"], c3_instance["K"])
        assert np.allclose(fam.vectors, [[1, 0, 0], [1, -1, 0], [1, 1, 0]])
        # frame sum = 3|f1|^2 + 2|f2|^2 = ||K* f||^2
        rng = np.random.default_rng(29)
        K = c3_instance["K"]
        for _ in range(20):
            f = rand_vector(rng, 3, "complex")
            a = float(rng.uniform(0.05, 0.95))
            expected = c3_instance["model"].scale(a) * np.linalg.norm(K.conj().T @ f) ** 2
            assert frame_sum(fam, f, a) == pytest.approx(expected, rel=1e-12)

    def test_random_identity_oracle(self):
        rng = np.random.default_rng(31)
        for k in range(20):
            field = "complex" if k % 2 else "real"
            model = FuzzyModel(BaseSpace(4, field), "scaled")
            K = rand_matrix(rng, 4, 4, field)
            fam, cert = atomic_system_from_operator(model, K)
            f = rand_vector(rng, 4, field)
            lhs = frame_sum(fam, f, 0.5)
            rhs = np.linalg.norm(K.conj().T @ f) ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
            assert cert.B == pytest.approx(spectral_norm(K) ** 2)


class TestAtomicCoefficients:
    def test_identity_basis(self):
        fam = standard_basis_family()
        result = atomic_coefficients(fam, np.eye(3), np.array([1.0, 2, 3]))
        assert np.allclose(result.beta, [1.0, 2, 3])
        assert result.C == pytest.approx(1.0)
        assert result.norm_bound_ok

    def test_r3_solves_for_e1(self, r3_instance):
        result = atomic_coefficients(
            r3_instance["family"], r3_instance["K"], np.array([1.0, 0, 0])
        )
        assert result.residual <= 1e-10

    def test_c3_solves_for_e3(self, c3_instance):
        f = np.array([0, 0, 1], dtype=complex)
        result = atomic_coefficients(c3_instance["family"], c3_instance["K"], f)
        F = synthesis_matrix(c3_instance["family"])
        assert np.allclose(F @ result.beta, [1, 1, 0])  # K e3 = e1 + e2
        assert result.residual <= 1e-10

    def test_range_deficit_raises(self):
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        fam = FrameFamily(np.array([[1.0, 0.0]]), model)
        with pytest.raises(RangeInclusionError, match="atomic"):
            atomic_coefficients(fam, np.eye(2), np.array([0.0, 1.0]))


class TestEquivalence:
    def test_c3_both_hold(self, c3_instance):
        report = atomic_system_equivalence_check(c3_instance["family"], c3_instance["K"])
        assert report.kframe_holds and report.atomic_holds and report.consistent
        assert 1.0 / report.C**2 <= 0.5 + 1e-9
        assert report.lower_bound_ok

    def test_single_vector_no_atomic_system(self):
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        fam = FrameFamily(np.array([[1.0, 0.0]]), model)
        report = atomic_system_equivalence_check(fam, np.eye(2))
        assert not report.kframe_holds and not report.atomic_holds
        assert report.consistent

    def test_canonical_family_holds_with_unit_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            model = FuzzyModel(BaseSpace(3, "real"), "scaled")
            K = rand_matrix(rng, 3, 3)
            fam, _ = atomic_system_from_operator(model, K)
            report = atomic_system_equivalence_check(fam, K)
            assert report.kframe_holds and report.atomic_holds
            assert report.certificate.A == pytest.approx(1.0, rel=1e-9)


class TestRestrictedInverse:
    def test_c3_sandwich(self, c3_instance):
        report = restricted_inverse_check(c3_instance["family"], c3_instance["K"])
        assert report.injective
        assert report.passed
        assert report.dagger_norm == pytest.approx(2**-0.5, rel=1e-9)

    def test_invertible_operator_reduction(self):
        rng = np.random.default_rng(41)
        fam = rand_family(rng, 3, 5)
        K = rand_matrix(rng, 3, 3) + 3.0 * np.eye(3)
        report = restricted_inverse_check(fam, K)
        assert report.injective and report.passed

    def test_random_instances_no_violations(self):
        rng = np.random.default_rng(43)
        for k in range(10):
            field = "complex" if k % 2 else "real"
            fam, K = rand_kframe_instance(rng, 4, 6, field)
            report = restricted_inverse_check(fam, K)
            assert report.passed

    def test_not_applicable_without_lower_bound(self, c3_instance):
        fam = c3_instance["family"]
        with pytest.raises(ValueError, match="not applicable"):
            restricted_inverse_check(fam, np.eye(3, dtype=complex))

    def test_matches_sphere_search(self):
        # u = K w runs over range(K), so extremes over unit u in range(K)
        # are quotient extremes of the pencil (K* M K, K* K)
        from fuzzyframes import BoundCertificate

        rng = np.random.default_rng(45)
        tol = 1e-9
        verdicts = []
        for k in range(4):
            field = "complex" if k % 2 else "real"
            fam = rand_family(rng, 4, 6, field)
            K = rand_matrix(rng, 4, 2, field) @ rand_matrix(rng, 2, 4, field)
            s = classical_frame_operator(fam)
            gram = K.conj().T @ K

            def extreme(m, mode):
                return sphere_quotient_extremum(K.conj().T @ m @ K, gram, rng, 20_000, mode)

            dagger2 = 1.0 / extreme(K @ K.conj().T, "min")
            low, high = extreme(s, "min"), extreme(s, "max")
            opt = optimal_kframe_bounds(fam, K)
            # the optimal pair passes; the lower side fails above low ||K+||^2,
            # the upper side below high
            for a, b in ((opt.A, opt.B), (1.1 * low * dagger2, opt.B), (opt.A, 0.9 * high)):
                cert = BoundCertificate(kind="k_frame", A=a, B=b, alpha_independent=True)
                report = restricted_inverse_check(fam, K, cert, tol)
                forward = max(
                    a / dagger2 - low - tol * (1.0 + abs(low)),
                    high - b - tol * (1.0 + abs(high)),
                )
                inverse = max(
                    extreme((1.0 / b - tol) * s @ s - s, "max"),
                    extreme(s - (dagger2 / a + tol) * s @ s, "max"),
                ) - tol
                assert report.dagger_norm**2 == pytest.approx(dagger2, rel=1e-6)
                assert report.max_violation_forward == pytest.approx(forward, rel=1e-6, abs=1e-8)
                assert report.max_violation_inverse == pytest.approx(inverse, rel=1e-6, abs=1e-8)
                assert report.passed == (report.injective and max(forward, inverse) <= tol)
                verdicts.append(report.passed)
        assert verdicts == [True, False, False] * 4


class TestReconstruct:
    def test_r3_random_vectors_all_levels(self, r3_instance):
        rng = np.random.default_rng(47)
        for a in (0.2, 0.5, 0.9):
            for _ in range(10):
                f = rand_vector(rng, 3)
                result = reconstruct(r3_instance["family"], f, a)
                assert result.residual_dual_coefficients <= 1e-9
                assert result.residual_dual_vectors <= 1e-9

    def test_standard_basis_exact(self):
        fam = standard_basis_family()
        result = reconstruct(fam, np.array([1.0, -2.0, 0.5]), 0.4)
        assert result.residual_dual_coefficients == pytest.approx(0.0, abs=1e-14)

    def test_c3_singular_raises_with_witness(self, c3_instance):
        with pytest.raises(SingularFrameOperatorError) as err:
            reconstruct(c3_instance["family"], np.array([1.0, 0, 0], dtype=complex), 0.5)
        assert abs(err.value.witness[2]) == pytest.approx(1.0)


class TestTheoremBridges:
    def test_every_frame_is_a_kframe(self):
        # lower bound A / ||K||^2 always verifies for a frame
        rng = np.random.default_rng(53)
        for k in range(30):
            field = "complex" if k % 2 else "real"
            fam = rand_family(rng, 4, 7, field)
            K = rand_matrix(rng, 4, 4, field)
            cert = optimal_frame_bounds(fam)
            derived = cert.A / spectral_norm(K) ** 2
            res = verify_bounds(fam, derived, cert.B, K, [0.5])
            assert res.passed

    def test_kframe_is_frame_on_operator_range(self):
        # restricting to range(K): lower bound A / ||K+||^2 on a range basis
        rng = np.random.default_rng(59)
        for _ in range(15):
            fam, K = rand_kframe_instance(rng, 4, 6)
            cert = optimal_kframe_bounds(fam, K)
            if not (cert.A > 0 and math.isfinite(cert.A)):
                continue
            dagger_norm = spectral_norm(pseudo_inverse(K).dagger)
            bound = cert.A / dagger_norm**2
            from fuzzyframes.operator_algebra import range_basis

            basis = range_basis(K)
            s = classical_frame_operator(fam)
            for col in basis.T:
                lhs = bound * np.linalg.norm(col) ** 2
                rhs = float(np.real(np.vdot(col, s @ col)))
                assert lhs <= rhs + 1e-9


class TestFamilyValidation:
    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            FrameFamily(np.zeros((0, 3)), REAL3)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            FrameFamily(np.ones((2, 4)), REAL3)

    def test_vectors_are_immutable(self):
        fam = standard_basis_family()
        with pytest.raises(ValueError):
            fam.vectors[0, 0] = 5.0
