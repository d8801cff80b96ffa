"""frame_transforms: closure formulas and their verification coupling."""

import math

import numpy as np
import pytest

from fuzzyframes import (
    BaseSpace,
    FrameFamily,
    FuzzyModel,
    RangeInclusionError,
    combine,
    douglas_factorize,
    operator_transfer,
    optimal_kframe_bounds,
    synthesis_matrix,
    transform_family,
    verify_bounds,
)
from fuzzyframes import frame_transforms
from conftest import (
    bessel_pair_check,
    rand_family,
    rand_kframe_instance,
    rand_matrix,
    rand_vector,
    run_problem,
)


REAL2 = FuzzyModel(BaseSpace(2, "real"), "scaled")


def diag_family(entries, field="real", profile="scaled"):
    n = len(entries)
    model = FuzzyModel(BaseSpace(n, field), profile)
    return FrameFamily(np.diag(np.asarray(entries, dtype=model.space.dtype)), model)


class TestCombineScalar:
    """combine's sum rule, A' = 1 / (sum_{a_j != 0} |a_j| / sqrt(A_j))^2."""

    def test_halved_pair_of_equal_operators(self):
        rng = np.random.default_rng(3)
        fam, K = rand_kframe_instance(rng, 3, 5)
        cert = optimal_kframe_bounds(fam, K)
        result = combine(fam, [K, K], [0.5, 0.5])
        # operator collapses back to K, and so does the bound: A' = A
        assert np.allclose(result.operator, K)
        assert result.derived.A == pytest.approx(cert.A, rel=1e-9)
        assert result.derived.B == pytest.approx(cert.B)
        assert result.verification.passed
        assert result.ratio == pytest.approx(1.0, rel=1e-9)

    def test_degenerate_coefficient_still_valid(self):
        rng = np.random.default_rng(5)
        fam, K1 = rand_kframe_instance(rng, 3, 5)
        # a zero coefficient needs no certificate: K2 escapes range(F)
        K2 = np.eye(3)
        fam = FrameFamily(fam.vectors * [1.0, 1.0, 0.0], fam.model)
        K1 = K1 * [[1.0], [1.0], [0.0]]
        assert optimal_kframe_bounds(fam, K2).A == 0.0
        result = combine(fam, [K1, K2], [1.0, 0.0])
        assert np.allclose(result.operator, K1)
        assert result.verification.passed
        direct = optimal_kframe_bounds(fam, K1)
        assert result.derived.A == pytest.approx(direct.A, rel=1e-9)

    def test_r3_instance_with_identity(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        result = combine(fam, [K, np.eye(3)], [1.0, 1.0])
        assert result.verification.passed

    def test_zero_pair_is_vacuous(self, r3_instance):
        # 0 K + 0 I = 0: the lower inequality is vacuous, A' = A_opt = inf
        result = combine(r3_instance["family"], [r3_instance["K"], np.eye(3)], [0.0, 0.0])
        assert not result.operator.any() and result.verification.passed
        assert result.derived.A == math.inf and result.optimal.A == math.inf
        assert result.ratio is None

    def test_tight_equal_pair_boundary(self):
        # equal operators, unit coefficients, Parseval system: any constant
        # above 1/4 fails for the operator 2K, so the quoted
        # [max(|a|^2, |b|^2) (1/A1 + 1/A2)]^-1 = 1/2 is invalid; the sum rule
        # gives 1/4, the optimal constant
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        K = np.diag([1.0, 0.5, 0.25])
        fam = FrameFamily(K.T, model)  # frame sum = ||K* f||^2
        result = combine(fam, [K, K], [1.0, 1.0])
        assert result.verification.passed
        assert result.derived.A == pytest.approx(1.0 / 4.0)
        assert result.ratio == pytest.approx(1.0)
        quoted = 0.5
        assert not verify_bounds(fam, quoted, result.derived.B, 2.0 * K, [0.5]).passed


class TestCombineProduct:
    """combine's product rule, A' = A_1 / prod_{j > 1} ||K_j||^2 for K_1 K_2 ... K_n."""

    def test_identity_second_factor(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = combine(fam, [K, np.eye(3)])
        assert result.derived.A == pytest.approx(cert.A)
        assert result.verification.passed

    def test_scaled_identity(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = combine(fam, [K, 2.0 * np.eye(3)])
        assert result.derived.A == pytest.approx(cert.A / 4.0)
        assert result.verification.passed

    def test_random_pairs_verify(self):
        rng = np.random.default_rng(7)
        for k in range(30):
            field = "complex" if k % 2 else "real"
            fam, K1 = rand_kframe_instance(rng, 3, 5, field)
            K2 = rand_matrix(rng, 3, 3, field) @ K1
            result = combine(fam, [K1, K2])
            assert np.allclose(result.operator, K1 @ K2)
            assert result.verification.passed


class TestCombineMany:
    def test_single_operator_collapse(self, r3_instance):
        fam, K = r3_instance["family"], r3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        result = combine(fam, [K], [2.0])
        assert result.derived.A == pytest.approx(cert.A / 4.0)  # A / |a|^2
        assert result.verification.passed

    def test_two_equal_operators_unit_coefficients(self):
        rng = np.random.default_rng(11)
        fam, K = rand_kframe_instance(rng, 3, 5)
        cert = optimal_kframe_bounds(fam, K)
        result = combine(fam, [K, K], [1.0, 1.0])
        assert np.allclose(result.operator, 2.0 * K)
        assert result.derived.A == pytest.approx(cert.A / 4.0, rel=1e-9)
        assert result.verification.passed

    def test_product_of_commuting_diagonals(self):
        rng = np.random.default_rng(13)
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        fam = FrameFamily(rng.standard_normal((5, 3)), model)
        ops = [np.diag(rng.uniform(0.5, 2.0, size=3)) for _ in range(3)]
        result = combine(fam, ops)
        assert result.verification.passed
        # the product is taken as written, K_1 K_2 K_3
        assert np.allclose(result.operator, ops[0] @ ops[1] @ ops[2])

    def test_differing_bounds_enter_the_sum(self):
        rng = np.random.default_rng(17)
        fam, K1 = rand_kframe_instance(rng, 3, 5)
        A = optimal_kframe_bounds(fam, K1).A
        # K1 + 3 K1 = 4 K1 with A2 = A / 9: A' = 1 / (1 / sqrt(A) + 3 / sqrt(A))^2
        # = A / 16, the optimal bound; the Cauchy-Schwarz form gives A / 20
        result = combine(fam, [K1, 3.0 * K1], [1.0, 1.0])
        assert result.derived.A == pytest.approx(A / 16.0, rel=1e-9)
        assert result.ratio == pytest.approx(1.0, rel=1e-9)
        assert result.verification.passed
        # a term's split between scalar and operator does not matter
        split = combine(fam, [K1, K1], [1.0, 3.0])
        assert split.derived.A == pytest.approx(result.derived.A, rel=1e-12)


class TestCombine:
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_derived_bound_below_optimal_and_above_the_replaced_rules(self, field):
        rng = np.random.default_rng(53 if field == "real" else 59)
        tol = 1e-9
        for _ in range(100):
            n = int(rng.integers(2, 6))
            fam, K1 = rand_kframe_instance(rng, n, n + int(rng.integers(0, 4)), field)
            K2 = K1 @ rand_matrix(rng, n, n, field) if rng.random() < 0.5 else rand_matrix(rng, n, n, field)
            a, b = rand_vector(rng, 2, field)
            A1, A2 = (optimal_kframe_bounds(fam, k).A for k in (K1, K2))
            top = max(abs(a) ** 2, abs(b) ** 2)
            for coefficients in ([a, b], None):
                result = combine(fam, [K1, K2], coefficients, tol=tol)
                optimal = optimal_kframe_bounds(fam, result.operator, tol=tol)
                assert result.verification.passed
                assert result.derived.A <= optimal.A * (1.0 + tol)
                assert result.ratio == pytest.approx(result.derived.A / optimal.A, rel=1e-9)
            # the sum rule is never below its Cauchy-Schwarz form, nor below
            # the two rules it replaces
            result = combine(fam, [K1, K2], [a, b], tol=tol)
            cauchy_schwarz = 1.0 / ((abs(a) ** 2 + abs(b) ** 2) * (1.0 / A1 + 1.0 / A2))
            scalar_rule = 1.0 / (4.0 * top * (1.0 / A1 + 1.0 / A2))
            common_rule = min(A1, A2) / (4.0 * top)
            assert result.derived.A >= cauchy_schwarz * (1.0 - 1e-12)
            assert cauchy_schwarz >= max(scalar_rule, common_rule) * (1.0 - 1e-12)

    def test_one_svd_of_f_for_any_number_of_operators(self, r3_instance, monkeypatch):
        calls = []
        svd = frame_transforms._synthesis_svd
        monkeypatch.setattr(frame_transforms, "_synthesis_svd", lambda f: calls.append(f) or svd(f))
        fam, K = r3_instance["family"], r3_instance["K"]
        for ops in ([K], [K, np.eye(3)], [K, np.eye(3), 2.0 * K, K.T]):
            for coefficients in (None, [1.0] * len(ops)):
                calls.clear()
                combine(fam, ops, coefficients)
                assert len(calls) == 1

    def test_needed_certificate_of_zero_is_named(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        fam = FrameFamily(np.eye(3)[:2], model)  # misses e3
        inside, outside = np.diag([1.0, 1.0, 0.0]), np.eye(3)
        with pytest.raises(ValueError, match="K2"):
            combine(fam, [inside, outside], [1.0, 1.0])
        with pytest.raises(ValueError, match="K1"):
            combine(fam, [outside, inside])
        # the product K1 K2 needs K1's certificate only
        result = combine(fam, [inside, outside])
        assert result.verification.passed and result.derived.A == pytest.approx(1.0)


class TestBesselPair:
    """A Bessel pair F, G with T_F T_G* = K makes F a K-frame with lower
    bound 1/D, D the Bessel bound of G, decided by bounds and check-kframe."""

    def test_standard_basis_identity(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        basis = FrameFamily(np.eye(3), model)
        body, code = bessel_pair_check(basis, basis)  # K = I
        assert body["requested"]["A"] == pytest.approx(1.0)
        assert code == 0 and body["verification"]["passed"]

    def test_reciprocal_diagonal_pair(self):
        F = diag_family([2.0, 1.0])
        G = diag_family([0.5, 1.0])
        body, code = bessel_pair_check(F, G)  # K = T_F T_G* = I
        assert body["requested"]["A"] == pytest.approx(1.0)  # D = 1
        assert code == 0 and body["verification"]["passed"]

    def test_seeded_construction(self):
        rng = np.random.default_rng(19)
        for k in range(20):
            field = "complex" if k % 2 else "real"
            F = rand_family(rng, 3, 5, field)
            G = rand_family(rng, 3, 5, field)
            assert bessel_pair_check(F, G)[1] == 0

    @pytest.mark.parametrize("c", [2.0**-500, 1e-100, 1.0, 1e80, 2.0**500])
    def test_decided_at_every_scale(self, c, recwarn):
        # F = c {e1, e2, e1 + e2}, G = c {(1, 0.5), (0, 1), (0.5, 1)}: K and
        # D scale by c^2 and 1/D by c^-2, all doubles, and each is decided
        # at unit scale with no floating-point warning
        F = FrameFamily(c * np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), REAL2)
        G = FrameFamily(c * np.array([[1.0, 0.5], [0.0, 1.0], [0.5, 1.0]]), REAL2)
        body, code = bessel_pair_check(F, G)
        assert code == 0 and body["verification"]["passed"]
        assert body["requested"]["A"] <= body["optimal_kframe"]["A"]
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


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
    synthesis matrix; the optimal K-frame bound decides the K-frame side."""

    def test_c3_equivalence_confirmed(self, c3_instance):
        fam, K = c3_instance["family"], c3_instance["K"]
        cert = optimal_kframe_bounds(fam, K)
        assert synthesis_inclusion(fam, K) and cert.A > 0.0
        assert cert.A == pytest.approx(0.5, abs=1e-9)

    def test_missing_direction_fails_both_sides(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        fam = FrameFamily(np.array([[1.0, 0, 0], [0, 1, 0]]), model)
        cert = optimal_kframe_bounds(fam, np.eye(3))
        assert not synthesis_inclusion(fam, np.eye(3)) and cert.A == 0.0

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
            kframe = optimal_kframe_bounds(fam, K).A > 0.0
            assert synthesis_inclusion(fam, K) == kframe
            assert kframe == (k % 2 == 1)

    def test_build_family_from_construction(self):
        # the K-frames are the families T e_i of T's columns with
        # range(K) <= range(T), which check-kframe decides
        rng = np.random.default_rng(43)
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        for _ in range(10):
            T = rng.standard_normal((3, 5))
            K = T @ rng.standard_normal((5, 3))  # range(K) <= range(T)
            family = FrameFamily(T.T, model)
            body, code = run_problem("check-kframe", family, operator_K=K)
            assert synthesis_inclusion(family, K) and code == 0
            # the optimal bound is 1 / lam^2 for lam = ||T^+ K||
            lam = douglas_factorize(K, T).lam
            assert 1.0 / math.sqrt(body["optimal_kframe"]["A"]) == pytest.approx(lam, rel=1e-12)
        # range(I) escapes a rank-2 T: no inclusion, A = 0
        T = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))
        family = FrameFamily(T.T, model)
        body, code = run_problem("check-kframe", family, operator_K=np.eye(3))
        assert not synthesis_inclusion(family, np.eye(3))
        assert code == 1 and body["optimal_kframe"]["A"] == 0.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda fam: verify_bounds(fam, -1.0, 1.0), "bounds must be nonnegative"),
        (lambda fam: verify_bounds(fam, math.nan, 1.0), "bounds must be nonnegative"),
        (lambda fam: verify_bounds(fam, 1.0, -1.0), "bounds must be nonnegative"),
        (lambda fam: verify_bounds(fam, math.inf, 1.0),
         "A = inf is the vacuous lower bound of K = 0 only"),
        (lambda fam: verify_bounds(fam, math.inf, 1.0, np.eye(2)),
         "A = inf is the vacuous lower bound of K = 0 only"),
        (lambda fam: combine(fam, []), "need at least one operator"),
        (lambda fam: combine(fam, [np.eye(2)], [1.0, 2.0]),
         "one coefficient per operator required"),
        (lambda fam: transform_family(fam, np.eye(2), np.eye(2), "unitary"),
         "unknown variant 'unitary'"),
        (lambda fam: BaseSpace(2, "quaternion"),
         "field must be 'real' or 'complex', got 'quaternion'"),
    ],
)
def test_library_guards_raise_value_error(call, message):
    # the guards of verify_bounds, combine, transform_family and BaseSpace,
    # each on the orthonormal basis of R^2, which passes every other check
    with pytest.raises(ValueError) as exc:
        call(diag_family([1.0, 1.0]))
    assert str(exc.value) == message
