"""operator_algebra: adjoints, PSD order, Douglas suite, pseudo-inverse."""

import math
import warnings

import numpy as np
import pytest

from fuzzyframes import (
    BaseSpace,
    FuzzyModel,
    LinearOperator,
    RangeInclusionError,
    adjoint,
    alpha_inner,
    alpha_operator_norm,
    douglas_factorize,
    douglas_lambda,
    douglas_range_inclusion,
    pencil_inf,
    pencil_sup,
    pseudo_inverse,
    psd_order_check,
    spectral_norm,
)
from conftest import operator_norm_sampled, rand_matrix, rand_vector


class TestAdjoint:
    def test_real_symmetric_fixed(self):
        t = np.diag([2.0, 3.0, 6.0])
        assert np.array_equal(adjoint(t), t)

    def test_complex_conjugate_transpose(self):
        t = np.array([[0.0, 1.0j], [0.0, 0.0]])
        expected = np.array([[0.0, 0.0], [-1.0j, 0.0]])
        assert np.allclose(adjoint(t), expected)

    def test_level_pairing_identity(self):
        # <x, T y>_a = <T* x, y>_a across sampled levels
        rng = np.random.default_rng(3)
        model = FuzzyModel(BaseSpace(4, "complex"), "scaled")
        t = rand_matrix(rng, 4, 4, "complex")
        ta = adjoint(t)
        worst = 0.0
        for _ in range(50):
            x = rand_vector(rng, 4, "complex")
            y = rand_vector(rng, 4, "complex")
            a = float(rng.uniform(0.05, 0.95))
            lhs = alpha_inner(model, x, t @ y, a)
            rhs = alpha_inner(model, ta @ x, y, a)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10 * 100

    def test_algebra(self):
        rng = np.random.default_rng(5)
        t1 = rand_matrix(rng, 3, 3, "complex")
        t2 = rand_matrix(rng, 3, 3, "complex")
        lam = 1.5 - 0.5j
        assert np.allclose(adjoint(adjoint(t1)), t1)
        assert np.allclose(adjoint(t1 + t2), adjoint(t1) + adjoint(t2))
        assert np.allclose(adjoint(lam * t1), np.conj(lam) * adjoint(t1))


class TestOperatorNorm:
    def test_diagonal(self):
        for a in (0.1, 0.5, 0.9):
            assert alpha_operator_norm(np.diag([2.0, 3.0, 6.0]), a) == pytest.approx(6.0)

    def test_identity_isometry(self):
        assert alpha_operator_norm(np.eye(5), 0.3) == pytest.approx(1.0)

    def test_constant_across_levels(self):
        rng = np.random.default_rng(7)
        t = rand_matrix(rng, 4, 4, "complex")
        values = [alpha_operator_norm(t, a) for a in np.linspace(0.05, 0.95, 20)]
        assert max(values) - min(values) <= 1e-12

    def test_monte_carlo_sandwich(self):
        rng = np.random.default_rng(9)
        t = rand_matrix(rng, 4, 4)
        computed = alpha_operator_norm(t, 0.5)
        sampled = operator_norm_sampled(t, rng, samples=10_000)
        assert sampled <= computed <= sampled * (1.0 + 1e-6)

    def test_mixed_profiles(self):
        crisp = FuzzyModel(BaseSpace(3, "real"), "crisp")
        scaled = FuzzyModel(BaseSpace(3, "real"), "scaled")
        t = np.diag([2.0, 1.0, 0.5])
        # crisp domain into scaled codomain picks up sqrt(scale)
        val = alpha_operator_norm(t, 0.8, domain_model=crisp, codomain_model=scaled)
        assert val == pytest.approx(2.0 * 2.0)  # sqrt(4) * sigma_max
        # scaled domain into crisp codomain diverges at small levels
        assert math.isinf(
            alpha_operator_norm(t, 0.8, domain_model=scaled, codomain_model=crisp)
        )


class TestPsdOrder:
    def test_zero_below_psd(self):
        ok, witness, _ = psd_order_check(np.zeros((2, 2)), np.diag([1.0, 2.0]))
        assert ok and witness is None

    def test_failure_with_witness(self):
        ok, witness, lam = psd_order_check(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
        assert not ok
        assert lam == pytest.approx(-1.0)
        assert abs(witness[1]) == pytest.approx(1.0)  # direction e2

    def test_equal_matrices_boundary(self):
        p = np.array([[2.0, 1.0], [1.0, 2.0]])
        ok, _, _ = psd_order_check(p, p)
        assert ok

    def test_reflexive_and_antisymmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rand_matrix(rng, 3, 3, "complex")
            p = m @ m.conj().T
            assert psd_order_check(p, p)[0]
            q = p + rng.uniform(0.1, 1.0) * np.eye(3)
            below, _, _ = psd_order_check(p, q)
            above, _, _ = psd_order_check(q, p)
            assert below and not above

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            psd_order_check(np.ones((2, 3)), np.ones((2, 3)))


class TestSymmetrizationWarning:
    def test_non_hermitian_input_warns(self):
        p = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.warns(RuntimeWarning, match="symmetrized"):
            psd_order_check(p, 3.0 * np.eye(2))
        with pytest.warns(RuntimeWarning, match="symmetrized"):
            pencil_sup(p, np.eye(2))

    def test_hermitian_input_is_silent(self):
        m = rand_matrix(np.random.default_rng(5), 3, 3, "complex")
        p = m + m.conj().T
        q = m @ m.conj().T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psd_order_check(p, q)
            pencil_sup(q, q + np.eye(3))


class TestDecompositionCounts:
    def test_psd_order_check_one_eigh(self, linalg_calls):
        m = rand_matrix(np.random.default_rng(6), 4, 4, "complex")
        psd_order_check(m @ m.conj().T, 2.0 * np.eye(4))
        assert dict(linalg_calls) == {"eigh": 1}

    def test_pencil_sup_kernel_test_only_with_kernel(self, linalg_calls):
        p = np.diag([4.0, 1.0, 0.0])
        pencil_sup(p, np.diag([3.0, 2.0, 1.0]))  # invertible Q: no kernel
        assert dict(linalg_calls) == {"eigh": 2}
        linalg_calls.clear()
        ext = pencil_sup(p, np.diag([3.0, 2.0, 0.0]))  # kernel in ker P
        assert dict(linalg_calls) == {"eigh": 3, "eigvalsh": 1}
        assert ext.value == pytest.approx(4.0 / 3.0)

    def test_pseudo_inverse_one_svd_matches_pinv(self, linalg_calls):
        t = rand_matrix(np.random.default_rng(7), 4, 2, "complex")
        t = t @ rand_matrix(np.random.default_rng(8), 2, 5, "complex")  # rank 2
        result = pseudo_inverse(t)
        assert dict(linalg_calls) == {"svd": 1}
        assert result.rank == 2
        assert np.allclose(result.dagger, np.linalg.pinv(t, rcond=1e-10), atol=1e-12)


class TestDouglas:
    def test_inclusion_of_self(self):
        n = np.diag([1.0, 2.0])
        assert douglas_range_inclusion(n, n)[0]

    def test_disjoint_ranges(self):
        included, residual = douglas_range_inclusion(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        assert not included and residual > 0.5

    def test_lambda_scaling(self):
        rng = np.random.default_rng(13)
        n = rand_matrix(rng, 3, 3)
        assert douglas_lambda(2.0 * n, n) == pytest.approx(2.0)
        assert douglas_lambda(n, n) == pytest.approx(1.0)

    def test_lambda_bounded_by_factor_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rand_matrix(rng, 4, 4) + 4.0 * np.eye(4)
            w = rand_matrix(rng, 4, 4)
            lam = douglas_lambda(n @ w, n)
            sigma = spectral_norm(w)
            assert lam <= sigma * (1.0 + 1e-9)
            ok, _, _ = psd_order_check(
                (n @ w) @ (n @ w).conj().T,
                (lam * (1.0 + 1e-9)) ** 2 * (n @ n.conj().T),
            )
            assert ok

    def test_factorize_full_rank_identity(self):
        rng = np.random.default_rng(19)
        n = rand_matrix(rng, 3, 3) + 3.0 * np.eye(3)
        result = douglas_factorize(n, n)
        assert np.allclose(result.W, np.eye(3), atol=1e-9)

    def test_factorize_diagonal(self):
        result = douglas_factorize(np.diag([0.5, 0.0]), np.diag([1.0, 0.0]))
        assert np.allclose(result.W, np.diag([0.5, 0.0]), atol=1e-12)

    def test_factor_recovery_injective(self):
        rng = np.random.default_rng(23)
        for field in ("real", "complex"):
            n = rand_matrix(rng, 4, 4, field) + 4.0 * np.eye(4)
            w0 = rand_matrix(rng, 4, 4, field)
            result = douglas_factorize(n @ w0, n)
            assert np.allclose(result.W, w0, atol=1e-9)
            assert result.residual <= 1e-9

    def test_equivalence_loop(self):
        rng = np.random.default_rng(29)
        for k in range(50):
            field = "complex" if k % 2 else "real"
            n = rand_matrix(rng, 4, 3, field)
            w = rand_matrix(rng, 3, 3, field)
            m = n @ w
            included, _ = douglas_range_inclusion(m, n)
            assert included
            lam = douglas_lambda(m, n)
            assert math.isfinite(lam)
            assert douglas_factorize(m, n).residual <= 1e-9

    def test_violation_raises(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = rand_matrix(rng, 4, 4)
            n[:, 3] = 0.0
            n[3, :] = 0.0  # range misses e4
            m = rand_matrix(rng, 4, 4) + 4.0 * np.eye(4)
            included, residual = douglas_range_inclusion(m, n)
            assert not included and residual > 0
            with pytest.raises(RangeInclusionError):
                douglas_lambda(m, n)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            douglas_range_inclusion(np.ones((3, 2)), np.ones((2, 2)))


class TestPseudoInverse:
    def test_diagonal_support_inversion(self):
        result = pseudo_inverse(np.diag([2.0, 0.0]))
        assert np.allclose(result.dagger, np.diag([0.5, 0.0]))
        assert result.rank == 1

    def test_invertible_matches_inverse(self):
        rng = np.random.default_rng(37)
        t = rand_matrix(rng, 4, 4) + 4.0 * np.eye(4)
        result = pseudo_inverse(t)
        assert spectral_norm(result.dagger @ t - np.eye(4)) <= 1e-10

    def test_penrose_identities_rank_deficient(self):
        rng = np.random.default_rng(41)
        for k in range(50):
            field = "complex" if k % 2 else "real"
            rank = rng.integers(1, 4)
            t = rand_matrix(rng, 4, rank, field) @ rand_matrix(rng, rank, 5, field)
            d = pseudo_inverse(t).dagger
            assert spectral_norm(t @ d @ t - t) <= 1e-9
            assert spectral_norm(d @ t @ d - d) <= 1e-9
            assert spectral_norm(t @ d - (t @ d).conj().T) <= 1e-9
            assert spectral_norm(d @ t - (d @ t).conj().T) <= 1e-9

    def test_identity_on_range(self):
        rng = np.random.default_rng(43)
        t = rand_matrix(rng, 4, 2) @ rand_matrix(rng, 2, 4)
        result = pseudo_inverse(t)
        basis = result.range_projector @ rand_matrix(rng, 4, 4)
        assert spectral_norm(t @ result.dagger @ basis - basis) <= 1e-9

    def test_adjoint_commutes_with_dagger(self):
        rng = np.random.default_rng(47)
        t = rand_matrix(rng, 3, 5, "complex")
        lhs = pseudo_inverse(t.conj().T).dagger
        rhs = pseudo_inverse(t).dagger.conj().T
        assert spectral_norm(lhs - rhs) <= 1e-10


class TestPencils:
    def test_sup_diagonal(self):
        ext = pencil_sup(np.diag([4.0, 1.0, 0.0]), np.diag([3.0, 2.0, 1.0]))
        assert ext.value == pytest.approx(4.0 / 3.0)

    def test_sup_infinite_on_kernel_escape(self):
        ext = pencil_sup(np.diag([1.0, 1.0]), np.diag([1.0, 0.0]))
        assert math.isinf(ext.value)
        assert abs(ext.witness[1]) == pytest.approx(1.0)

    def test_inf_kernel_aware(self):
        # restricted quotient alone would give 1; the true best constant is 1/2
        p = np.array([[1.0, 1.0], [1.0, 2.0]])
        q = np.diag([1.0, 0.0])
        ext = pencil_inf(p, q)
        assert ext.value == pytest.approx(0.5, rel=1e-9)
        ok, _, _ = psd_order_check(ext.value * q, p)
        assert ok

    def test_inf_zero_when_kernel_escapes(self):
        p = np.array([[1.0, 1.0], [1.0, 1.0]])  # kernel direction (1,-1)
        q = np.diag([1.0, 1.0])
        assert pencil_inf(p, q).value == pytest.approx(0.0)

    def test_inf_unconstrained_for_zero_denominator(self):
        assert math.isinf(pencil_inf(np.diag([1.0, 2.0]), np.zeros((2, 2))).value)


class TestLinearOperator:
    def test_shape_and_spaces(self):
        op = LinearOperator(np.ones((2, 3)))
        assert op.shape == (2, 3)
        assert op.domain.dimension == 3
        assert op.codomain.dimension == 2

    def test_adjoint_swaps_spaces(self):
        op = LinearOperator(np.array([[1.0, 2.0, 3.0]]))
        assert op.adjoint().shape == (3, 1)
        assert op.adjoint().domain.dimension == 1

    def test_space_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LinearOperator(np.ones((2, 2)), domain=BaseSpace(3, "real"))

    def test_matmul_and_apply(self):
        a = LinearOperator(np.diag([1.0, 2.0]))
        b = LinearOperator(np.diag([3.0, 4.0]))
        assert np.allclose((a @ b).matrix, np.diag([3.0, 8.0]))
        assert np.allclose(a.apply([1.0, 1.0]), [1.0, 2.0])
