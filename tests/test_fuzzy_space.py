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
    reconstruction_residual,
    verify_bounds,
)
from fuzzyframes.fuzzy_space import MAX_SAMPLES, PROFILES
from conftest import (
    alpha_inner,
    alpha_inner_polarization,
    alpha_norm_bisect,
    fip_axioms_oracle,
    norm_membership,
    rand_vector,
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
        model = FuzzyModel(BaseSpace(3, "complex"), profile)
        report = check_fip_axioms(model, sample_count=1000, seed=0)
        assert report.all_passed, [r.axiom for r in report.results if not r.passed]

    def test_corrupted_profile_reports_fip5_fip6(self):
        class Corrupted(FuzzyModel):
            # negative level scaling with the membership shifted below zero
            def scale(self, alpha):
                return -1.0

            def mu(self, x, y, t):
                return super().mu(x, y, t) - 1.0

        model = Corrupted(BaseSpace(3, "real"), "scaled")
        report = check_fip_axioms(model, sample_count=200, seed=1)
        failed = {r.axiom for r in report.results if not r.passed}
        assert "FIP5" in failed and "FIP6" in failed

    def test_sample_count_validation(self):
        with pytest.raises(ValueError):
            check_fip_axioms(SCALED_R3, sample_count=0)
        with pytest.raises(ValueError):
            check_fip_axioms(SCALED_R3, sample_count=MAX_SAMPLES + 1)


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


class TestWholeArrayAxioms:
    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("cls", [FuzzyModel, Asymmetric, Decaying, Shifted])
    def test_matches_scalar_oracle(self, cls, profile, field, n):
        model = cls(BaseSpace(n, field), profile)
        report = check_fip_axioms(model, sample_count=100, seed=n)
        assert report == fip_axioms_oracle(model, 100, seed=n)
        for r in report.results:
            assert r.witness is None or "np." not in r.witness

    def test_corrupted_models_fail_their_axioms(self):
        space = BaseSpace(3, "complex")
        asym = check_fip_axioms(Asymmetric(space, "scaled"), 200, seed=3)
        assert {"FIP1", "FIP3"} <= {r.axiom for r in asym.results if not r.passed}
        # complex t lies off the axis, where both sides vanish: the positive
        # real sub-check is the first to fire
        fip3 = asym.results[2]
        assert re.fullmatch(r"sample \d+: asymmetric at t=[\d.e+-]+", fip3.witness)
        decay = check_fip_axioms(Decaying(space, "crisp"), 200, seed=3)
        fip7 = decay.results[6]
        # the crisp m (1 - m) vanishes everywhere: only the limit sub-check fires
        assert fip7.witness == "sample 0: limit at large t is 0"
        assert fip7.violations == 200
        shifted = check_fip_axioms(Shifted(space, "scaled"), 50, seed=3)
        assert shifted.results[8].witness.startswith("sample 0: level norm undefined")

    def test_first_sub_check_wins_at_the_earliest_sample(self):
        # both FIP7 sub-checks fire at sample 0; each firing counts and the
        # witness is the first sub-check's
        report = check_fip_axioms(Decaying(BaseSpace(2, "real"), "scaled"), 300, seed=5)
        fip7 = report.results[6]
        assert fip7.violations > 300
        assert fip7.witness.startswith("sample 0: not monotone on [")


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
        cert = optimal_frame_bounds(FrameFamily(np.eye(3), CRISP_R3), "squared")
        assert cert.parseval and cert.alpha_independent

    def test_scaled_basis_at_midpoint(self):
        fam = FrameFamily(np.eye(3), SCALED_R3)
        assert verify_bounds(fam, 1.0, 1.0, None, [0.5], "squared").passed

    def test_scaled_basis_fails_off_midpoint(self):
        # <e_1, e_1>_0.8 = scale(0.8) = 4, so the frame sum is 4 ||f||_a^2
        fam = FrameFamily(np.eye(3), SCALED_R3)
        assert not optimal_frame_bounds(fam, "squared").alpha_independent
        checks = verify_bounds(fam, 1.0, 1.0, None, [0.8], "squared").checks
        failure = next(c for c in checks if not c.ok)
        assert failure.side == "upper" and failure.margin == pytest.approx(1.0 - 4.0)

    def test_expansion_standard_basis(self):
        worst, cond = reconstruction_residual(FrameFamily(np.eye(3), CRISP_R3))
        assert worst == pytest.approx(0.0, abs=1e-12) and cond == 1.0

    def test_expansion_rotated_basis(self):
        rng = np.random.default_rng(31)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        basis = q.T  # rows are an orthonormal basis
        x = rand_vector(rng, 3)
        assert reconstruction_residual(FrameFamily(basis, CRISP_R3))[0] <= 1e-9
        # independent oracle: accumulate the expansion term by term
        recon = sum((e @ x) * e for e in basis)
        assert np.linalg.norm(recon - x) <= 1e-9


def test_scale_profile_values():
    assert SCALED_R3.scale(0.8) == pytest.approx(4.0)
    assert SCALED_R3.scale(0.5) == pytest.approx(1.0)
    assert CRISP_R3.scale(0.9) == 1.0
    assert math.isclose(SCALED_R3.scale(0.1), 1.0 / 9.0)
