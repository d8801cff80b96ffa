"""fuzzy_space: memberships, level norms and inner products, axiom checks."""

import math
import re

import numpy as np
import pytest

from fuzzyframes import (
    BaseSpace,
    FrameFamily,
    FuzzyModel,
    check_fip_axioms,
    optimal_frame_bounds,
    verify_bounds,
)
from fuzzyframes.fuzzy_space import IMAG_TOL, PROFILES, REDUCTIONS, _critical_table
from conftest import (
    alpha_inner,
    alpha_inner_polarization,
    alpha_norm_bisect,
    fip_axioms_oracle,
    norm_membership,
    rand_vector,
    run_problem,
)

SCALED_R2 = FuzzyModel(BaseSpace(2, "real"), "scaled")
SCALED_R3 = FuzzyModel(BaseSpace(3, "real"), "scaled")
CRISP_R3 = FuzzyModel(BaseSpace(3, "real"), "crisp")


class TestMembership:
    def test_scaled_value_above_threshold(self):
        # ||x|| ||y|| = 12, t = 24 -> 24 / (24 + 12)
        x, y = np.array([3.0, 0.0]), np.array([0.0, 4.0])
        assert SCALED_R2.mu(x, y, 24.0) == pytest.approx(2.0 / 3.0)

    def test_boundary_is_zero(self):
        x, y = np.array([3.0, 0.0]), np.array([0.0, 4.0])
        assert SCALED_R2.mu(x, y, 12.0) == 0.0

    @pytest.mark.parametrize("model", [SCALED_R2, FuzzyModel(BaseSpace(2, "real"), "crisp")])
    def test_vanishes_off_positive_reals(self, model):
        x = np.array([1.0, 2.0])
        assert model.mu(x, x, -5.0) == 0.0
        assert model.mu(x, x, 2.0 + 1.0j) == 0.0

    @pytest.mark.parametrize("profile", PROFILES)
    def test_off_axis_rule_is_relative_at_every_scale(self, profile):
        # |Im t| <= IMAG_TOL |t| with no floor: a nearly imaginary t counts
        # as real at no scale, a nearly real one at every scale (FIP4)
        model = FuzzyModel(BaseSpace(2, "complex"), profile)
        z = np.zeros(2)
        for k in range(-300, 301, 20):
            assert model.mu(z, z, 10.0**k * (1e-6 + 1.0j)) == 0.0
            assert model.mu(z, z, 10.0**k * (1.0 + 0.5j * IMAG_TOL)) == 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            SCALED_R2.mu(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0]), 5.0)

    def test_crisp_indicator(self):
        model = FuzzyModel(BaseSpace(2, "real"), "crisp")
        x = np.array([3.0, 4.0])
        assert model.mu(x, x, 26.0) == 1.0
        assert model.mu(x, x, 25.0) == 0.0

    def test_monotone_in_t_on_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rand_vector(rng, 3)
            t = sorted(rng.uniform(0.01, 30.0, size=2))
            assert SCALED_R3.mu(x, x, t[0]) <= SCALED_R3.mu(x, x, t[1]) + 1e-12


class TestFuzzyNorm:
    def test_scaled_value(self):
        assert norm_membership(SCALED_R2, np.array([3.0, 4.0]), 10.0) == pytest.approx(0.8)

    def test_zero_vector_full_membership(self):
        for model in (SCALED_R3, CRISP_R3):
            assert norm_membership(model, np.zeros(3), 0.001) == 1.0

    def test_nonpositive_t(self):
        assert norm_membership(SCALED_R2, np.array([1.0, 1.0]), -1.0) == 0.0
        assert norm_membership(SCALED_R2, np.array([1.0, 1.0]), 0.0) == 0.0


class TestAlphaNorm:
    def test_midpoint_scale_is_one(self):
        assert SCALED_R3.alpha_norm(np.array([3.0, 4.0, 0.0]), 0.5) == pytest.approx(5.0)

    def test_scale_four(self):
        # scale(0.8) = 4, so the level norm doubles
        assert SCALED_R3.alpha_norm(np.array([3.0, 4.0, 0.0]), 0.8) == pytest.approx(10.0)

    def test_crisp_level_free(self):
        for a in (0.05, 0.5, 0.95):
            assert CRISP_R3.alpha_norm(np.array([3.0, 4.0, 0.0]), a) == pytest.approx(5.0)

    def test_bisection_agrees_with_closed_form(self):
        rng = np.random.default_rng(11)
        for model in (SCALED_R3, CRISP_R3):
            for _ in range(100):
                x = rand_vector(rng, 3)
                a = float(rng.uniform(0.02, 0.98))
                closed = model.alpha_norm(x, a)
                assert alpha_norm_bisect(model, x, a) == pytest.approx(closed, abs=1e-9)

    def test_monotone_in_alpha(self):
        rng = np.random.default_rng(13)
        grid = np.linspace(0.05, 0.95, 19)
        for model in (SCALED_R3, CRISP_R3):
            x = rand_vector(rng, 3)
            values = [model.alpha_norm(x, a) for a in grid]
            assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_ratio_level_invariance(self):
        rng = np.random.default_rng(17)
        for model in (SCALED_R3, CRISP_R3):
            x, y = rand_vector(rng, 3), rand_vector(rng, 3)
            base = model.alpha_norm(x, 0.5) / model.alpha_norm(y, 0.5)
            for a in (0.07, 0.31, 0.62, 0.93):
                ratio = model.alpha_norm(x, a) / model.alpha_norm(y, a)
                assert ratio == pytest.approx(base, rel=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            SCALED_R3.alpha_norm(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            SCALED_R3.alpha_norm(np.zeros(3), 0.0)


class TestAlphaInner:
    def test_orthogonality_survives_scaling(self):
        for a in (0.1, 0.5, 0.9):
            assert alpha_inner(SCALED_R2, np.array([1.0, 0.0]), np.array([0.0, 1.0]), a) == 0.0

    def test_midpoint_dot_product(self):
        v = alpha_inner(SCALED_R2, np.array([1.0, 2.0]), np.array([3.0, 4.0]), 0.5)
        assert v == pytest.approx(11.0)

    def test_self_pairing_is_squared_norm(self):
        rng = np.random.default_rng(23)
        for model in (SCALED_R3, CRISP_R3):
            for _ in range(20):
                x = rand_vector(rng, 3)
                a = float(rng.uniform(0.05, 0.95))
                assert alpha_inner(model, x, x, a) == pytest.approx(
                    model.alpha_norm(x, a) ** 2, rel=1e-12
                )

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_polarization_agrees(self, field):
        rng = np.random.default_rng(29)
        model = FuzzyModel(BaseSpace(4, field), "scaled")
        for _ in range(100):
            x = rand_vector(rng, 4, field)
            y = rand_vector(rng, 4, field)
            a = float(rng.uniform(0.05, 0.95))
            direct = alpha_inner(model, x, y, a)
            polar = alpha_inner_polarization(model, x, y, a)
            assert abs(direct - polar) <= 1e-8 * max(1.0, abs(direct))

    def test_conjugate_linearity_in_second_slot(self):
        model = FuzzyModel(BaseSpace(2, "complex"), "scaled")
        x = np.array([1.0 + 2.0j, -1.0j])
        y = np.array([0.5, 1.0 + 1.0j])
        lam = 0.7 - 1.3j
        lhs = alpha_inner(model, x, lam * y, 0.5)
        rhs = np.conj(lam) * alpha_inner(model, x, y, 0.5)
        assert lhs == pytest.approx(rhs)


class TestAxioms:
    @pytest.mark.parametrize("profile", ["scaled", "crisp"])
    def test_profiles_pass(self, profile):
        report = check_fip_axioms(FuzzyModel(BaseSpace(3, "complex"), profile))
        assert report.all_passed, [r.axiom for r in report.results if not r.passed]

    @pytest.mark.parametrize("profile", PROFILES)
    def test_profiles_pass_in_every_small_space(self, profile):
        for field in ("real", "complex"):
            for n in range(1, 6):
                assert check_fip_axioms(FuzzyModel(BaseSpace(n, field), profile)).all_passed

    @pytest.mark.parametrize("profile", PROFILES)
    def test_sampling_oracle_passes_the_profiles(self, profile):
        model = FuzzyModel(BaseSpace(3, "complex"), profile)
        for seed in range(10):
            assert fip_axioms_oracle(model, 1000, seed) == {}

    def test_each_axiom_reports_its_reduction(self, monkeypatch):
        def no_draws(*args, **kwargs):
            raise AssertionError("the axiom check draws no random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_draws)
        report = check_fip_axioms(SCALED_R3)
        assert [r.axiom for r in report.results] == [f"FIP{j}" for j in range(1, 10)]
        assert [r.statement for r in report.results] == list(REDUCTIONS.values())
        assert report == check_fip_axioms(SCALED_R3)

    def test_corrupted_profile_reports_fip5_fip6(self):
        class Corrupted(FuzzyModel):
            # negative level scaling with the membership shifted below zero
            def scale(self, alpha):
                return -1.0

            def mu(self, x, y, t):
                return super().mu(x, y, t) - 1.0

        model = Corrupted(BaseSpace(3, "real"), "scaled")
        report = check_fip_axioms(model)
        failed = {r.axiom for r in report.results if not r.passed}
        assert "FIP5" in failed and "FIP6" in failed


class Asymmetric(FuzzyModel):
    """Threshold ||x||^2 ||y|| / 10: not conjugate symmetric (FIP3, at
    positive reals only) and not superadditive (FIP1)."""

    def mu(self, x, y, t):
        x = np.asarray(x)
        return super().mu(0.1 * np.linalg.norm(x, axis=-1, keepdims=True) * x, y, t)


class Decaying(FuzzyModel):
    """Membership m (1 - m): decreasing in t with limit 0, so FIP7 fails."""

    def mu(self, x, y, t):
        m = super().mu(x, y, t)
        return m * (1.0 - m)


class Shifted(FuzzyModel):
    """Membership shifted below zero and a negative level scale."""

    def scale(self, alpha):
        return -1.0

    def mu(self, x, y, t):
        return super().mu(x, y, t) - 1.0


class Closed(FuzzyModel):
    """Membership 1/2 at the threshold t = ||x|| ||y|| itself."""

    def mu(self, x, y, t):
        c = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
        return np.where(np.asarray(t).real == c, 0.5, super().mu(x, y, t))


class RealPart(FuzzyModel):
    """Reads the real part of t only, so t off the real axis counts."""

    def mu(self, x, y, t):
        return super().mu(x, y, np.asarray(t).real)


class Floored(FuzzyModel):
    """Counts t as real when |Im t| <= IMAG_TOL max(1, |t|), an absolute
    bound below |t| = 1, so 2^-60 (1 + 1j) counts."""

    def mu(self, x, y, t):
        t = np.asarray(t)
        real = np.abs(t.imag) <= IMAG_TOL * np.maximum(1.0, np.abs(t))
        return super().mu(x, y, np.where(real, t.real, t))


class TestWholeArrayAxioms:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("cls", [FuzzyModel, Asymmetric, Decaying, Shifted])
    def test_matches_scalar_oracle(self, cls, profile, field, n):
        # the decision fails every axiom the sampling oracle fails, and passes
        # the built-in profiles, which the oracle passes too
        model = cls(BaseSpace(n, field), profile)
        report = check_fip_axioms(model)
        failed = {r.axiom for r in report.results if not r.passed}
        assert set(fip_axioms_oracle(model, 100, seed=n)) <= failed
        assert (failed == set()) == (cls is FuzzyModel)
        for r in report.results:
            assert r.witness is None or "np." not in r.witness

    def test_corrupted_models_fail_their_axioms(self):
        space = BaseSpace(3, "complex")
        mu_axioms = {f"FIP{j}" for j in range(1, 9)}
        for model in (Asymmetric(space, "scaled"), Decaying(space, "crisp")):
            report = check_fip_axioms(model)
            assert {r.axiom for r in report.results if not r.passed} == mu_axioms
            assert len({r.witness for r in report.results[:8]}) == 1
            assert re.fullmatch(
                r"mu = \S+, not phi = \S+, at \|\|x\|\| = \S+, \|\|y\|\| = \S+, t = \S+",
                report.results[0].witness,
            )
        # the crisp m (1 - m) vanishes everywhere: the first point above the
        # threshold is the first to disagree, one ulp above c = 0
        decay = check_fip_axioms(Decaying(space, "crisp")).results[0]
        assert decay.witness == "mu = 0, not phi = 1, at ||x|| = 0, ||y|| = 0, t = 5e-324"
        shifted = check_fip_axioms(Shifted(space, "scaled")).results[8]
        assert shifted.witness == "level norm undefined: level scale -1.0"

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_boundary_and_off_axis_faults_are_caught(self, field):
        space = BaseSpace(2, field)
        closed = check_fip_axioms(Closed(space, "scaled")).results[0].witness
        assert closed == "mu = 0.5, not phi = 0, at ||x|| = 0, ||y|| = 0, t = 0.0"
        off_axis = check_fip_axioms(RealPart(space, "crisp")).results[4].witness
        assert off_axis == "mu = 1, not phi = 0, at ||x|| = 0, ||y|| = 0, t = (1+1j)"
        assert check_fip_axioms(RealPart(space, "crisp")).results[8].passed
        floored = check_fip_axioms(Floored(space, "scaled")).results
        assert [r.passed for r in floored] == [False] * 8 + [True]
        assert floored[4].witness == (
            "mu = 1, not phi = 0, at ||x|| = 0, ||y|| = 0, t = (8.673617379884035e-19+8.673617379884035e-19j)"
        )

    def test_level_scale_fault_fails_fip9_only(self):
        class Quadrupled(FuzzyModel):
            def scale(self, alpha):
                return 4.0 * super().scale(alpha)

        report = check_fip_axioms(Quadrupled(BaseSpace(2, "complex"), "crisp"))
        assert [r.axiom for r in report.results if not r.passed] == ["FIP9"]
        assert report.results[8].witness == "||e||_a = 2, not 1, at a = 0.25"


class Overwriting(FuzzyModel):
    """Writes into its t argument before computing the membership."""

    def mu(self, x, y, t):
        np.asarray(t)[...] = 0.0
        return super().mu(x, y, t)


FIELDS_AND_PROFILES = [(field, profile) for field in ("real", "complex") for profile in PROFILES]


class TestCriticalTable:
    def test_every_cached_array_is_read_only(self):
        nx, ny, t, phi, levels, norm = _critical_table()
        arrays = [nx, ny, t, levels, *phi.values(), *norm.values()]
        assert sorted(phi) == sorted(norm) == sorted(PROFILES)
        assert all(isinstance(a, np.ndarray) and not a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("field, profile", FIELDS_AND_PROFILES)
    def test_a_model_cannot_poison_the_table(self, field, profile):
        space = BaseSpace(3, field)
        before = check_fip_axioms(FuzzyModel(space, profile))
        with pytest.raises(ValueError, match="read-only"):
            check_fip_axioms(Overwriting(space, profile))
        after = check_fip_axioms(FuzzyModel(space, profile))
        assert after.all_passed and after == before

    def test_nothing_is_rebuilt_per_call(self, monkeypatch):
        models = [FuzzyModel(BaseSpace(3, f), profile) for f, profile in FIELDS_AND_PROFILES]
        warm = [check_fip_axioms(model) for model in models]

        def rebuilt(*args, **kwargs):
            raise AssertionError("the critical-point table is built once per process")

        for name in ("meshgrid", "broadcast_arrays", "hstack", "nextafter"):
            monkeypatch.setattr(np, name, rebuilt)
        assert [check_fip_axioms(model) for model in models] == warm
        assert _critical_table.cache_info().currsize == 1


class TestBroadcastMembership:
    def test_rows_agree_with_single_calls(self):
        rng = np.random.default_rng(37)
        model = FuzzyModel(BaseSpace(3, "complex"), "scaled")
        x = rng.standard_normal((20, 3)) + 1j * rng.standard_normal((20, 3))
        y = rng.standard_normal((20, 3))
        t = rng.uniform(0.0, 30.0, 20) + np.where(np.arange(20) % 4 == 0, 0.5j, 0.0)
        rows = model.mu(x, y, t)
        assert rows.shape == (20,)
        assert list(rows) == [model.mu(x[k], y[k], t[k]) for k in range(20)]
        assert type(model.mu(x[0], y[0], 25.0)) is float

    def test_alpha_norm_broadcasts_and_rejects_undefined_scale(self):
        x = np.array([[3.0, 4.0, 0.0], [0.0, 0.0, 2.0]])
        assert SCALED_R3.alpha_norm(x, np.array([0.5, 0.8])) == pytest.approx([5.0, 4.0])
        with pytest.raises(ValueError, match="undefined"):
            Shifted(BaseSpace(3, "real"), "scaled").alpha_norm(x[0], 0.5)


class TestOrthonormality:
    """<e_i, e_j>_a = delta_ij says that {e_i} is a Parseval frame at level
    a in the literal reading of the frame sum, sum |<f, e_i>_a|^2 against
    ||f||_a^2 (the ``squared`` convention), and that f = sum <f, e_k> e_k."""

    def test_crisp_standard_basis_all_levels(self):
        fam = FrameFamily(np.eye(3), CRISP_R3)
        assert optimal_frame_bounds(fam).parseval
        assert verify_bounds(fam, 1.0, 1.0, None, [0.1, 0.5, 0.9], "squared").passed

    def test_scaled_basis_at_midpoint(self):
        fam = FrameFamily(np.eye(3), SCALED_R3)
        assert verify_bounds(fam, 1.0, 1.0, None, [0.5], "squared").passed

    def test_scaled_basis_fails_off_midpoint(self):
        # <e_1, e_1>_0.8 = scale(0.8) = 4, so the frame sum is 4 ||f||_a^2
        fam = FrameFamily(np.eye(3), SCALED_R3)
        checks = verify_bounds(fam, 1.0, 1.0, None, [0.8], "squared").checks
        failure = next(c for c in checks if not c.ok)
        assert failure.side == "upper" and failure.margin == pytest.approx(1.0 - 4.0)

    def test_expansion_standard_basis(self):
        # S_c = I: invertible, with both sandwich lines met exactly
        body, code = run_problem("reconstruct", FrameFamily(np.eye(3), CRISP_R3))
        assert code == 0 and body["injective"]
        assert body["max_violation_forward"] == body["max_violation_inverse"] == 0.0

    def test_expansion_rotated_basis(self):
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        basis = q.T  # rows are an orthonormal basis
        x = rand_vector(rng, 3)
        body, code = run_problem("reconstruct", FrameFamily(basis, CRISP_R3))
        assert code == 0 and body["injective"]
        # independent oracle: accumulate the expansion term by term
        recon = sum((e @ x) * e for e in basis)
        assert np.linalg.norm(recon - x) <= 1e-9


def test_scale_profile_values():
    assert SCALED_R3.scale(0.8) == pytest.approx(4.0)
    assert SCALED_R3.scale(0.5) == pytest.approx(1.0)
    assert CRISP_R3.scale(0.9) == 1.0
    assert math.isclose(SCALED_R3.scale(0.1), 1.0 / 9.0)
