"""operator_algebra: level adjoint, PSD order, Douglas suite."""

import math
import warnings

import numpy as np
import pytest

from fuzzyframes import (
    BaseSpace,
    FrameFamily,
    FuzzyModel,
    RangeInclusionError,
    alpha_operator_norm,
    douglas_factorize,
    optimal_kframe_bounds,
    spectral_norm,
)
from fuzzyframes.operator_algebra import (
    CHOLESKY_TOL_FACTOR,
    PSD_TOL,
    _ldexp,
    _order_decision,
)
from fuzzyframes.perturbation import _family_constant
from conftest import (
    alpha_inner,
    decide_order,
    operator_norm_sampled,
    order_holds,
    rand_matrix,
    rand_vector,
    run_problem,
)


class TestAdjoint:
    def test_level_pairing_identity(self):
        # <x, T y>_a = <T* x, y>_a across sampled levels: the conjugate
        # transpose, which every K* of the package is, is the level adjoint
        rng = np.random.default_rng(3)
        model = FuzzyModel(BaseSpace(4, "complex"), "scaled")
        t = rand_matrix(rng, 4, 4, "complex")
        ta = t.conj().T
        worst = 0.0
        for _ in range(50):
            x = rand_vector(rng, 4, "complex")
            y = rand_vector(rng, 4, "complex")
            a = float(rng.uniform(0.05, 0.95))
            lhs = alpha_inner(model, x, t @ y, a)
            rhs = alpha_inner(model, ta @ x, y, a)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10 * 100


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
        ok, witness, _ = decide_order(np.zeros((2, 2)), np.diag([1.0, 2.0]))
        assert ok and witness is None

    def test_failure_with_witness(self):
        ok, witness, lam = decide_order(np.diag([1.0, 2.0]), np.diag([2.0, 1.0]))
        assert not ok
        assert lam == pytest.approx(-1.0)
        assert abs(witness[1]) == pytest.approx(1.0)  # direction e2

    def test_equal_matrices_boundary(self):
        p = np.array([[2.0, 1.0], [1.0, 2.0]])
        ok, _, _ = decide_order(p, p)
        assert ok

    def test_reflexive_and_antisymmetric(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            m = rand_matrix(rng, 3, 3, "complex")
            p = m @ m.conj().T
            assert decide_order(p, p)[0]
            q = p + rng.uniform(0.1, 1.0) * np.eye(3)
            below, _, _ = decide_order(p, q)
            above, _, _ = decide_order(q, p)
            assert below and not above

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            _order_decision(np.zeros((2, 3)), PSD_TOL, 1.0)

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_verdict_matches_eigh_at_slack_boundary(self, field):
        # Q - P has its smallest eigenvalue above zero, inside the shift of
        # the Cholesky certificate, or just inside or just outside the
        # slack, at tolerances on both sides of the certificate's cutoff;
        # every verdict must be eigh's, and a failure must report eigh's
        # margin and witness
        rng = np.random.default_rng(23)
        eps = np.finfo(np.float64).eps
        routes = set()
        for _ in range(300):
            n = int(rng.integers(2, 65))
            cutoff = CHOLESKY_TOL_FACTOR * n * eps
            tol = rng.choice([1e-9, 4.0 * cutoff, 0.25 * cutoff])
            scale = 10.0 ** rng.uniform(-6, 6)
            u = np.linalg.qr(rand_matrix(rng, n, n, field))[0]
            d = scale * rng.uniform(0.1, 1.0, n)
            m = scale * rand_matrix(rng, n, n, field)
            p = m + m.conj().T
            # the slack is tol times the largest |diagonal entry| of either
            # side; setting d[0] moves that scale by a relative O(tol) only
            size = np.abs(np.concatenate([p.diagonal(), (p + (u * d) @ u.conj().T).diagonal()]))
            offset = rng.choice([-1.5, -0.9, -0.5, -0.01, 0.01, 0.5])
            d[0] = -(1.0 + offset) * tol * size.max()
            q = p + (u * d) @ u.conj().T
            hp, hq = (0.5 * m + 0.5 * m.conj().T for m in (p, q))
            w, v = np.linalg.eigh(hq - hp)
            slack = tol * max(np.abs(hp.diagonal()).max(), np.abs(hq.diagonal()).max())
            expected_ok = w[0] >= -slack
            ok, witness, margin = decide_order(p, q, tol)
            assert ok == expected_ok
            if not ok:
                assert margin == float(w[0])
                assert np.array_equal(witness, v[:, 0])
            certified = margin is None
            assert not certified or tol >= cutoff
            routes.add((ok, certified))
        # certified passes, passes decided by eigh, failures
        assert routes == {(True, True), (True, False), (False, False)}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [(0, 0), (2, 0)])
    def test_non_finite_difference_never_passes(self, bad, entry):
        # the scale is tried both non-finite (as max|diag| is for a bad
        # diagonal entry) and finite
        for sign in (1.0, -1.0):
            diff = sign * 5.0 * np.eye(3)
            diff[entry] = diff[entry[::-1]] = bad
            for scale in (abs(diff[entry]), 5.0):
                try:
                    ok, _, _ = _order_decision(diff, PSD_TOL, scale)
                except np.linalg.LinAlgError:
                    ok = False
                assert not ok

    @pytest.mark.parametrize("scale", [math.nan, math.inf])
    def test_non_finite_scale_never_passes(self, scale):
        # a finite, positive definite difference still fails: no slack is known
        ok, witness, margin = _order_decision(5.0 * np.eye(3), PSD_TOL, scale)
        assert not ok and witness is not None and margin == 5.0

    def test_nan_made_inside_the_factorization_never_passes(self, linalg_calls):
        # Q - P is finite, but the shifted first pivot is 2^-82, so the
        # multiplier 1e300 / 2^-41 overflows and a NaN reaches the last
        # pivot without LAPACK reporting it; eigh must decide
        q = np.array([[-1e-9 + 2.0**-82, 0.0, 1e300], [0.0, 1.0, 0.0], [1e300, 0.0, 1.0]])
        ok, witness, margin = decide_order(np.zeros((3, 3)), q)
        assert not ok and witness is not None and margin == pytest.approx(-1e300)
        assert dict(linalg_calls) == {"cholesky": 1, "eigh": 1}

    def test_certificate_skipped_below_cutoff(self, linalg_calls):
        n = 4
        p, q = np.zeros((n, n)), np.eye(n)
        cutoff = CHOLESKY_TOL_FACTOR * n * np.finfo(np.float64).eps
        ok, _, margin = decide_order(p, q, 0.5 * cutoff)
        assert ok and margin == 1.0
        assert dict(linalg_calls) == {"eigh": 1}


def family_with_synthesis(F: np.ndarray) -> FrameFamily:
    """The family whose synthesis matrix is F (columns are the vectors)."""
    F = np.asarray(F)
    field = "complex" if np.iscomplexobj(F) else "real"
    return FrameFamily(F.T, FuzzyModel(BaseSpace(F.shape[0], field), "scaled"))


class TestSymmetrizationWarning:
    def test_hermitian_input_is_silent(self):
        # the order decision raises no floating-point warning of its own
        m = rand_matrix(np.random.default_rng(5), 3, 3, "complex")
        p = m + m.conj().T
        q = m @ m.conj().T
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            decide_order(p, q)

    def test_non_hermitian_factors_are_silent(self):
        # the majorization routes take factors, which nothing symmetrizes
        rng = np.random.default_rng(5)
        m = rand_matrix(rng, 3, 3, "complex")
        n = rand_matrix(rng, 3, 3, "complex") + 3.0 * np.eye(3)
        family = family_with_synthesis(n)
        other = family_with_synthesis(n + 0.1 * m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            douglas_factorize(m, n)
            optimal_kframe_bounds(family, m)
            _family_constant(family, other, 0, PSD_TOL)  # perturb-family's M


class TestLdexp:
    # entries of few significant bits: the smallest, 3 2^-30, is still
    # exact at 2^-1044 (3 2^-1074), so scaling back up recovers x
    X = np.array([[1.0, -0.75, 0.0], [-0.0, 2.0**-20, 3.0 * 2.0**-30]])

    @pytest.mark.parametrize("power", [0, -1, -60, -1022, -1044])
    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_non_positive_power_is_exact_and_silent(self, power, field):
        x = self.X if field == "real" else self.X - 1j * self.X[::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = _ldexp(x, power)
        assert y.dtype == x.dtype
        for part in (np.real, np.imag):
            assert np.array_equal(part(y), np.ldexp(part(x), power))
        assert np.array_equal(_ldexp(y, -power), x)

    def test_below_the_subnormal_range_rounds_as_np_ldexp(self):
        x = np.array([1.0 + 2.0**-52, 1.5, -2.5]) * (1 + 1j)
        y = _ldexp(x, -1074)
        for part in (np.real, np.imag):
            assert np.array_equal(part(y), np.ldexp(part(x), -1074))
        assert np.array_equal(y.real, [2.0**-1074, 2.0**-1073, -(2.0**-1073)])

    def test_positive_power_past_the_range_is_inf_without_warning(self):
        x = np.array([1.0, -1.5 + 2.0j, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = _ldexp(x, 1024)
        assert np.array_equal(y, [complex(math.inf, 0.0), complex(-math.inf, math.inf), 0.0])


class TestDecompositionCounts:
    def test_order_decision_one_eigh(self, linalg_calls):
        # a pass is certified by one Cholesky factorization; a failure adds
        # one eigh for its margin and witness
        m = rand_matrix(np.random.default_rng(6), 4, 4, "complex")
        ok, witness, margin = decide_order(m @ m.conj().T, 100.0 * np.eye(4))
        assert ok and witness is None and margin is None
        assert dict(linalg_calls) == {"cholesky": 1}
        linalg_calls.clear()
        ok, witness, _ = decide_order(m @ m.conj().T, 2.0 * np.eye(4))
        assert not ok and witness is not None
        assert dict(linalg_calls) == {"cholesky": 1, "eigh": 1}

    def test_kframe_kernel_test_only_with_kernel(self, linalg_calls):
        # one SVD of F and eigh(W W*) for W = F^+ K; the eigenvalues of W W*
        # also decide the tight test
        k = np.diag([2.0, 1.0, 0.0])
        full = family_with_synthesis(np.diag(np.sqrt([3.0, 2.0, 1.0])))
        cert = optimal_kframe_bounds(full, k)  # full row rank: no kernel
        assert dict(linalg_calls) == {"svd": 1, "eigh": 1}
        assert cert.A == pytest.approx(3.0 / 4.0)
        assert not cert.tight
        linalg_calls.clear()
        # kernel e3 of S_c lies in ker K*: the inclusion residual is a
        # Frobenius norm, so the kernel adds no decomposition
        deficient = family_with_synthesis(np.diag(np.sqrt([3.0, 2.0, 0.0])))
        cert = optimal_kframe_bounds(deficient, k)
        assert dict(linalg_calls) == {"svd": 1, "eigh": 1}
        assert cert.A == pytest.approx(3.0 / 4.0)

    def test_douglas_factorize_one_svd_of_n(self, linalg_calls):
        # SVD of N, then eigh(W W*) for lambda = ||W||; the residual
        # ||N W - M||_F needs no decomposition, and N has full row rank, so
        # no inclusion residual is computed
        rng = np.random.default_rng(9)
        n = rand_matrix(rng, 4, 4) + 4.0 * np.eye(4)
        douglas_factorize(rand_matrix(rng, 4, 4), n)
        assert dict(linalg_calls) == {"svd": 1, "eigh": 1}


class TestDouglas:
    def test_inclusion_of_self(self):
        n = np.diag([1.0, 2.0])
        assert douglas_factorize(n, n).projection_residual == 0.0

    def test_disjoint_ranges(self):
        with pytest.raises(RangeInclusionError) as err:
            douglas_factorize(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))
        assert err.value.residual > 0.5

    def test_lambda_scaling(self):
        rng = np.random.default_rng(13)
        n = rand_matrix(rng, 3, 3)
        assert douglas_factorize(2.0 * n, n).lam == pytest.approx(2.0)
        assert douglas_factorize(n, n).lam == pytest.approx(1.0)

    def test_lambda_bounded_by_factor_norm(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = rand_matrix(rng, 4, 4) + 4.0 * np.eye(4)
            w = rand_matrix(rng, 4, 4)
            lam = douglas_factorize(n @ w, n).lam
            sigma = spectral_norm(w)
            assert lam <= sigma * (1.0 + 1e-9)
            assert order_holds(
                (n @ w) @ (n @ w).conj().T, (lam * (1.0 + 1e-9)) ** 2 * (n @ n.conj().T)
            )

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
            factor = douglas_factorize(m, n)
            assert math.isfinite(factor.lam)
            assert factor.residual <= 1e-9

    def test_violation_raises(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = rand_matrix(rng, 4, 4)
            n[:, 3] = 0.0
            n[3, :] = 0.0  # range misses e4
            m = rand_matrix(rng, 4, 4) + 4.0 * np.eye(4)
            with pytest.raises(RangeInclusionError) as err:
                douglas_factorize(m, n)
            assert err.value.residual > 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            douglas_factorize(np.ones((3, 2)), np.ones((2, 2)))


class TestPencils:
    """Extremes of the pencil sup ||M* f||^2 / <S f, f>, read from the factor M
    through the public routes: Douglas's lam^2 against S = N N*, 1 / A
    against S_c = F F*, and the family constant against S_F, S_G."""

    def test_sup_diagonal(self):
        # M M* = diag(4, 1, 0) against diag(3, 2, 1): sup 4/3
        m = np.diag([2.0, 1.0, 0.0])
        n = np.diag(np.sqrt([3.0, 2.0, 1.0]))
        assert douglas_factorize(m, n).lam ** 2 == pytest.approx(4.0 / 3.0)
        assert optimal_kframe_bounds(family_with_synthesis(n), m).A == pytest.approx(3.0 / 4.0)
        # difference synthesis m: sup 4/3 against S_F = diag(3, 2, 1), and
        # 4 / (2 - sqrt 3)^2 against S_G = diag((sqrt 3 - 2)^2, (sqrt 2 - 1)^2, 1)
        body, _ = run_problem(
            "perturb-family", family_with_synthesis(n), family_g=family_with_synthesis(n - m)
        )
        assert body["M"] == pytest.approx(4.0 / (2.0 - math.sqrt(3.0)) ** 2)

    def test_sup_infinite_on_kernel_escape(self):
        # M M* = I against diag(1, 0): e2 carries energy in the kernel
        n = np.diag([1.0, 0.0])
        cert = optimal_kframe_bounds(family_with_synthesis(n), np.eye(2))
        assert cert.A == 0.0
        assert abs(cert.witness_lower[1]) == pytest.approx(1.0)
        with pytest.raises(RangeInclusionError):
            douglas_factorize(np.eye(2), n)
        body, code = run_problem(
            "perturb-family", family_with_synthesis(n), family_g=family_with_synthesis(np.eye(2))
        )
        assert code == 1 and not body["finite"] and body["M"] == math.inf
        assert abs(body["witness"][1]) == pytest.approx(1.0)

    def test_inf_kernel_aware(self):
        # S_c = [[1, 1], [1, 2]] against K K* = diag(1, 0): the quotient
        # restricted to range(K) alone would give 1; the best constant is 1/2
        s = np.array([[1.0, 1.0], [1.0, 2.0]])
        family = family_with_synthesis(np.linalg.cholesky(s))
        k = np.diag([1.0, 0.0])
        a = optimal_kframe_bounds(family, k).A
        assert a == pytest.approx(0.5, rel=1e-9)
        assert order_holds(a * k @ k.T, s)

    def test_inf_zero_when_kernel_escapes(self):
        # S_c = [[1, 1], [1, 1]] has kernel direction (1, -1); K = I
        family = family_with_synthesis(np.array([[1.0], [1.0]]))
        cert = optimal_kframe_bounds(family, np.eye(2))
        assert cert.A == pytest.approx(0.0)
        assert abs(cert.witness_lower @ np.array([1.0, 1.0])) <= 1e-12

    def test_inf_unconstrained_for_zero_denominator(self):
        family = family_with_synthesis(np.diag(np.sqrt([1.0, 2.0])))
        assert math.isinf(optimal_kframe_bounds(family, np.zeros((2, 2))).A)
