"""frame_core: operators, certificates, atomic systems, restricted invertibility."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuzzyframes import (
    BaseSpace,
    BoundCertificate,
    FrameFamily,
    FuzzyModel,
    classical_frame_operator,
    frame_sum,
    optimal_frame_bounds,
    optimal_kframe_bounds,
    restricted_inverse_check,
    spectral_norm,
    synthesis_matrix,
    verify_bounds,
)
from fuzzyframes import frame_core
from fuzzyframes.frame_core import QR_REDUCTION_DIMENSION, _optimal_bounds, _synthesis_svd
from fuzzyframes.operator_algebra import RELATIVE_RANK_TOL, _gram, _rank
from conftest import (
    decide_order,
    factorize,
    order_holds,
    rand_family,
    rand_kframe_instance,
    rand_matrix,
    rand_vector,
    run_problem,
    sphere_quotient_extremum,
)

REAL3 = FuzzyModel(BaseSpace(3, "real"), "scaled")


def standard_basis_family(n=3, field="real", profile="scaled"):
    model = FuzzyModel(BaseSpace(n, field), profile)
    return FrameFamily(np.eye(n, dtype=model.space.dtype), model)


def range_basis(K):
    """Orthonormal basis of range(K): the left singular vectors whose
    singular values pass the package's relative rank cutoff."""
    u, s, _ = np.linalg.svd(K)
    return u[:, : int(np.sum(s > RELATIVE_RANK_TOL * s[0]))]


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

    # the level analysis coefficients <f, f_i>_a = scale(a) <f, f_i> are the
    # terms of the frame sum in its literal (squared) reading
    def test_analysis_midpoint(self, r3_instance):
        # coefficients of e1 at a = 0.5: (1, 1, 0)
        assert frame_sum(r3_instance["family"], np.array([1.0, 0, 0]), 0.5, "squared") == 2.0

    def test_analysis_scale_four(self, r3_instance):
        # coefficients of e1 at a = 0.8: (4, 4, 0)
        assert frame_sum(r3_instance["family"], np.array([1.0, 0, 0]), 0.8, "squared") == (
            pytest.approx(32.0)
        )

    def test_analysis_zero_vector(self, r3_instance):
        assert frame_sum(r3_instance["family"], np.zeros(3), 0.5, "squared") == 0.0


class TestFrameOperator:
    """The level frame operator S_a = T_a T_a* is scale(a) S_c; scale(0.5) = 1."""

    def test_r3_midpoint_diagonal(self, r3_instance):
        fam = r3_instance["family"]
        assert fam.model.scale(0.5) == 1.0
        assert np.allclose(classical_frame_operator(fam), np.diag([2.0, 3, 6]))

    def test_c3_midpoint_diagonal(self, c3_instance):
        fam = c3_instance["family"]
        assert fam.model.scale(0.5) == 1.0
        assert np.allclose(classical_frame_operator(fam), np.diag([4.0, 1, 0]))

    def test_zero_family(self):
        fam = FrameFamily(np.zeros((1, 3)), REAL3)
        assert np.allclose(classical_frame_operator(fam), np.zeros((3, 3)))

    def test_scale_relation(self):
        # S_a is the sum of the level rank-one terms scale(a) f_i f_i*
        rng = np.random.default_rng(3)
        fam = rand_family(rng, 3, 5)
        for a in (0.2, 0.5, 0.77):
            s = fam.model.scale(a)
            terms = sum(s * np.outer(v, v.conj()) for v in fam.vectors)
            assert np.allclose(s * classical_frame_operator(fam), terms)


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
            s_a = fam.model.scale(a) * classical_frame_operator(fam)
            pairing = float(np.real(np.vdot(f, s_a @ f)))
            assert frame_sum(fam, f, a) == pytest.approx(pairing, rel=1e-10)


class TestOptimalBounds:
    def test_r3_frame_bounds(self, r3_instance):
        cert = optimal_frame_bounds(r3_instance["family"])
        assert cert.A == pytest.approx(2.0)
        assert cert.B == pytest.approx(6.0)
        assert cert.kind == "frame" and not cert.kframe

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
                assert order_holds(cert.A * gram, s)
            else:
                assert not order_holds(1e-6 * gram, s)  # no positive multiple fits under S_c

    def test_noncommuting_lower_bound_matches_search(self):
        # S_c and K K* share no eigenbasis here; the optimal constant must
        # still be the largest A with S_c - A K K* PSD, which the sphere
        # search recovers as the infimum of the quotient
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        fam = FrameFamily(np.array([[1.0, 1.0], [0.0, 1.0]]), model)
        K = np.array([[1.0, 0.0], [0.0, 0.0]])
        cert = optimal_kframe_bounds(fam, K)
        assert order_holds(cert.A * (K @ K.T), classical_frame_operator(fam))
        # the constant is maximal
        assert not order_holds(1.05 * cert.A * (K @ K.T), classical_frame_operator(fam))
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


class TestSynthesisSVD:
    """Below QR_REDUCTION_DIMENSION a wide family takes one SVD of F, from it
    a QR of F* and an SVD of R*: both decide the same."""

    @pytest.mark.parametrize("field", ["real", "complex"])
    @pytest.mark.parametrize("n", [3, QR_REDUCTION_DIMENSION - 1, QR_REDUCTION_DIMENSION])
    @pytest.mark.parametrize("shape", ["narrow", "square", "wide"])
    @pytest.mark.parametrize("near_cutoff", [False, True])
    def test_paths_agree(self, monkeypatch, linalg_calls, field, n, shape, near_cutoff):
        rng = np.random.default_rng(n)
        m = {"narrow": n - 1, "square": n, "wide": 2 * n}[shape]
        r = min(m, n)
        # F = U diag(sigma) W*; near the cutoff the last singular value sits
        # a factor 4 below RELATIVE_RANK_TOL sigma_max and is cut
        sigma = np.geomspace(1.0, 0.1, r)
        if near_cutoff:
            sigma[-1] = RELATIVE_RANK_TOL / 4
        U = np.linalg.qr(rand_matrix(rng, n, n, field))[0]
        W = np.linalg.qr(rand_matrix(rng, m, r, field))[0]
        model = FuzzyModel(BaseSpace(n, field), "scaled")
        family = FrameFamily(((U[:, :r] * sigma) @ W.conj().T).T, model)
        kept = r - near_cutoff
        K = U[:, :kept] @ rand_matrix(rng, kept, n, field)  # range(K) in the kept range(F)

        linalg_calls.clear()
        here = _synthesis_svd(family)
        reduced = m > n >= QR_REDUCTION_DIMENSION
        assert dict(linalg_calls) == ({"qr": 1, "svd": 1} if reduced else {"svd": 1})
        # the other side of the constant: QR from n = 1 on, or never
        monkeypatch.setattr(frame_core, "QR_REDUCTION_DIMENSION", n + 1 if reduced else 1)
        there = _synthesis_svd(family)

        for u, s in (here, there):
            assert u.shape == (n, n)
            assert _rank(s) == kept
        assert np.abs(here[1] - there[1]).max() <= 1e-12 * here[1][0]
        for K_or_none in (None, K):
            a, b = (_optimal_bounds(family, K_or_none, *svd) for svd in (here, there))
            assert a.kind == b.kind
            assert a.A == pytest.approx(b.A, rel=1e-12, abs=0.0)
            assert a.B == pytest.approx(b.B, rel=1e-12, abs=0.0)
        assert a.A > 0.0  # the K-frame lower bound is read, not vacuous


class TestCertificateKind:
    AS = (0.0, 0.5, 1.0, 1.0 + 2e-9, math.inf)
    #: the kind of an ordinary certificate at each A of AS, without and with tight
    FRAME_KINDS = {
        False: ("bessel", "frame", "frame", "frame", "frame"),
        True: ("tight", "tight", "parseval", "tight", "tight"),
    }

    @pytest.mark.parametrize("tight", [False, True])
    @pytest.mark.parametrize("kframe", [False, True])
    def test_kind_table(self, kframe, tight):
        from fuzzyframes import BoundCertificate

        for a, frame_kind in zip(self.AS, self.FRAME_KINDS[tight]):
            cert = BoundCertificate(a, 2.0, kframe, tight)
            assert cert.kind == ("k_frame" if kframe else frame_kind)
            assert cert.parseval == (tight and a == 1.0)

    def test_kind_follows_a_replaced_bound(self):
        from fuzzyframes import BoundCertificate

        tight = BoundCertificate(0.5, 0.5, kframe=False, tight=True)
        assert (tight.kind, tight.parseval) == ("tight", False)
        assert (tight._replace(A=1.0).kind, tight._replace(A=1.0).parseval) == ("parseval", True)
        assert tight._replace(A=1.0 + 2e-9).kind == "tight"
        frame = BoundCertificate(0.5, 2.0, kframe=False)
        assert frame._replace(A=0.0).kind == "bessel"
        assert frame._replace(A=math.inf).kind == "frame"
        kframe = BoundCertificate(1.0, 2.0, kframe=True, tight=True)
        assert kframe.parseval and kframe._replace(A=0.0).kind == "k_frame"
        assert not kframe._replace(A=0.5).parseval


class TestVerifyBounds:
    def test_c3_stated_bounds_pass(self, c3_instance):
        res = verify_bounds(
            c3_instance["family"], 1.0 / 3.0, 4.0, c3_instance["K"], [0.1, 0.5, 0.9]
        )
        assert res.passed

    def test_c3_too_large_lower_fails_at_e2(self, c3_instance):
        res = verify_bounds(c3_instance["family"], 0.6, 4.0, c3_instance["K"], [0.5])
        assert not res.passed
        failure = next(c for c in res.checks if not c.ok)
        assert failure.side == "lower"
        assert abs(failure.witness[1]) == pytest.approx(1.0, abs=1e-8)

    def test_trivial_bounds_pass(self):
        rng = np.random.default_rng(17)
        fam = rand_family(rng, 3, 4)
        assert verify_bounds(fam, 0.0, 1e6, None, [0.3]).passed

    def test_fail_witness_replays(self, c3_instance):
        fam, K = c3_instance["family"], c3_instance["K"]
        res = verify_bounds(fam, 0.6, 4.0, K, [0.5])
        w = next(c for c in res.checks if not c.ok).witness
        lhs = 0.6 * np.linalg.norm(K.conj().T @ w) ** 2
        assert lhs > frame_sum(fam, w, 0.5) + 1e-12

    @pytest.mark.parametrize("field", ["real", "complex"])
    def test_checks_match_symmetrizing_order_check(self, field):
        # verify_bounds decides S_c - A K K* and B I - S_c without
        # symmetrizing them again; verdict, margin and witness must be those
        # of the order decision on the symmetrized sides, bit for bit
        rng = np.random.default_rng(29)
        for _ in range(40):
            n = int(rng.integers(2, 17))
            model = FuzzyModel(BaseSpace(n, field), "scaled")
            fam = FrameFamily(rand_matrix(rng, 2 * n, n, field), model)
            K = rand_matrix(rng, n, n, field)
            s = classical_frame_operator(fam)
            gram = _gram(K)
            A, B = 10.0 ** rng.uniform(-3, 1), 10.0 ** rng.uniform(0.5, 2.5)
            lower, upper = verify_bounds(fam, A, B, K, [0.5]).checks
            for check, (p, q) in (
                (lower, (A * gram, s)),
                (upper, (s, B * np.eye(n))),
            ):
                ok, witness, margin = decide_order(p, q)
                assert check.ok == ok and check.margin == margin
                if not ok:
                    assert np.array_equal(check.witness, witness / np.linalg.norm(witness))

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
        assert calls_one == 2  # two certified passes: one Cholesky each
        assert dict(linalg_calls) == {"cholesky": 2 * pairs_for_five}
        assert [(c.alpha, c.side) for c in five.checks] == [
            (a, side) for a in alphas for side in ("lower", "upper")
        ]
        assert one.checks[0].margin is None and five.checks[4].margin is None


class TestTightIsRelative:
    """Tight and Parseval decisions carry no absolute floor: a tight family
    stays tight, and a non-tight one non-tight, at any scale."""

    @pytest.mark.parametrize("scale", [3e-6, 2.0**-40, 2.0**40])
    def test_non_tight_family_at_scale(self, r3_instance, scale):
        fam = FrameFamily(scale * r3_instance["family"].vectors, r3_instance["model"])
        frame = optimal_frame_bounds(fam)
        assert frame.kind == "frame" and not frame.tight and not frame.parseval
        assert frame.A == pytest.approx(2.0 * scale**2, rel=1e-12)
        kframe = optimal_kframe_bounds(fam, np.eye(3))
        assert not kframe.tight and not kframe.parseval
        assert kframe.A == pytest.approx(2.0 * scale**2, rel=1e-12)

    @pytest.mark.parametrize("scale", [3e-6, 2.0**-40, 2.0**40])
    def test_tight_family_at_scale(self, scale):
        rng = np.random.default_rng(29)
        K = rand_matrix(rng, 3, 3, "complex")
        fam = FrameFamily(scale * K.T, FuzzyModel(BaseSpace(3, "complex"), "scaled"))
        kframe = optimal_kframe_bounds(fam, K)  # frame sum = scale^2 ||K* f||^2
        assert kframe.tight and kframe.A == pytest.approx(scale**2, rel=1e-9)
        assert not kframe.parseval
        frame = optimal_frame_bounds(FrameFamily(scale * np.eye(3), REAL3))
        assert frame.kind == "tight" and frame.tight and not frame.parseval


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    n=st.integers(1, 8),
    extra=st.integers(-3, 8),
    field=st.sampled_from(["real", "complex"]),
    seed=st.integers(0, 2**32 - 1),
    in_range=st.booleans(),
)
def test_factor_route_bounds_pass_verify_bounds(n, extra, field, seed, in_range):
    # columns scaled by 10^U(-3, 3); K either inside range(F) or random
    rng = np.random.default_rng(seed)
    m = max(1, n + extra)
    F = rand_matrix(rng, n, m, field) * 10.0 ** rng.uniform(-3.0, 3.0, m)
    K = F @ rand_matrix(rng, m, n, field) if in_range else rand_matrix(rng, n, n, field)
    fam = FrameFamily(F.T, FuzzyModel(BaseSpace(n, field), "scaled"))
    for cert, op in ((optimal_frame_bounds(fam), None), (optimal_kframe_bounds(fam, K), K)):
        if 0.0 < cert.A < math.inf:
            assert verify_bounds(fam, cert.A, cert.B, op).passed


class TestRescale:
    """Scaling a tight family by 1/sqrt(A) makes its certificate Parseval;
    no scaling makes a non-tight family Parseval."""

    def test_tight_family_rescales_to_parseval(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        fam = FrameFamily(2.0 * np.eye(3), model)  # tight with bound 4
        cert = optimal_frame_bounds(fam)
        assert cert.kind == "tight" and cert.A == pytest.approx(4.0)
        scaled = FrameFamily(fam.vectors / math.sqrt(cert.A), fam.model)
        assert optimal_frame_bounds(scaled).kind == "parseval"
        assert np.allclose(scaled.vectors, np.eye(3))

    def test_already_parseval_unchanged(self):
        fam = standard_basis_family()
        cert = optimal_frame_bounds(fam)
        scaled = FrameFamily(fam.vectors / math.sqrt(cert.A), fam.model)
        assert np.array_equal(scaled.vectors, fam.vectors)
        new_cert = optimal_frame_bounds(scaled)
        assert cert.parseval and (new_cert.A, new_cert.B) == (cert.A, cert.B)

    def test_non_tight_rejected(self, r3_instance):
        fam = r3_instance["family"]
        for bound in (optimal_frame_bounds(fam).A, optimal_frame_bounds(fam).B):
            cert = optimal_frame_bounds(FrameFamily(fam.vectors / math.sqrt(bound), fam.model))
            assert cert.kind == "frame" and not cert.tight and not cert.parseval

    def test_tight_kframe_rescale(self):
        rng = np.random.default_rng(23)
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        K = rand_matrix(rng, 3, 3)
        fam = FrameFamily(3.0 * K.T, model)  # frame sum = 9 ||K* f||^2
        cert = optimal_kframe_bounds(fam, K)
        assert cert.tight and cert.A == pytest.approx(9.0)
        new_cert = optimal_kframe_bounds(FrameFamily(fam.vectors / math.sqrt(cert.A), model), K)
        assert new_cert.parseval and new_cert.A == pytest.approx(1.0)


class TestAtomicSystem:
    """Every bounded K has the atomic system {K e_i}, K's columns: atomic
    decides it a Parseval K-frame with B = ||K||^2."""

    def test_identity_gives_standard_basis(self):
        model = FuzzyModel(BaseSpace(3, "real"), "scaled")
        body, code = run_problem("atomic", FrameFamily(np.eye(3).T, model), operator_K=np.eye(3))
        cert = body["certificate"]
        assert code == 0 and body["atomic_holds"]
        assert cert["parseval"] and cert["A"] == pytest.approx(1.0, rel=1e-12)
        assert cert["B"] == pytest.approx(1.0)

    def test_c3_operator_canonical_family(self, c3_instance):
        K = c3_instance["K"]
        fam = FrameFamily(K.T, c3_instance["model"])
        assert np.allclose(fam.vectors, [[1, 0, 0], [1, -1, 0], [1, 1, 0]])
        body, code = run_problem("atomic", fam, operator_K=K)
        assert code == 0 and body["certificate"]["parseval"]
        assert body["certificate"]["B"] == pytest.approx(3.0)  # ||K||^2
        # frame sum = 3|f1|^2 + 2|f2|^2 = ||K* f||^2
        rng = np.random.default_rng(29)
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
            fam = FrameFamily(K.T, model)
            f = rand_vector(rng, 4, field)
            lhs = frame_sum(fam, f, 0.5)
            rhs = np.linalg.norm(K.conj().T @ f) ** 2
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)
            body, code = run_problem("atomic", fam, operator_K=K)
            assert code == 0 and body["certificate"]["A"] == pytest.approx(1.0, rel=1e-12)
            assert body["certificate"]["B"] == pytest.approx(spectral_norm(K) ** 2)


class TestAtomicCoefficients:
    """The coefficients beta = W f with K f = sum beta_i f_i come from the
    factorization K = F W of _factorize(K, F), which atomic runs; its
    C = ||W|| bounds ||beta|| <= C ||f||."""

    def test_identity_basis(self):
        fam = standard_basis_family()
        factor = factorize(np.eye(3), synthesis_matrix(fam))[1]
        f = np.array([1.0, 2, 3])
        assert np.allclose(factor.W @ f, [1.0, 2, 3])
        body, code = run_problem("atomic", fam, operator_K=np.eye(3))
        assert code == 0 and body["coefficient_norm_constant"] == pytest.approx(1.0)
        assert body["coefficient_norm_constant"] == factor.lam

    def test_r3_solves_for_e1(self, r3_instance):
        F, K = synthesis_matrix(r3_instance["family"]), r3_instance["K"]
        f = np.array([1.0, 0, 0])
        beta = factorize(K, F)[1].W @ f
        assert np.linalg.norm(K @ f - F @ beta) <= 1e-10

    def test_c3_solves_for_e3(self, c3_instance):
        F, K = synthesis_matrix(c3_instance["family"]), c3_instance["K"]
        f = np.array([0, 0, 1], dtype=complex)
        factor = factorize(K, F)[1]
        beta = factor.W @ f
        assert np.allclose(F @ beta, [1, 1, 0])  # K e3 = e1 + e2
        assert np.linalg.norm(K @ f - F @ beta) <= 1e-10
        assert np.linalg.norm(beta) <= factor.lam * np.linalg.norm(f) * (1 + 1e-12)

    def test_range_deficit_is_a_result(self):
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        fam = FrameFamily(np.array([[1.0, 0.0]]), model)
        d, factor = factorize(np.eye(2), synthesis_matrix(fam))
        assert factor is None and not d.included
        body, code = run_problem("atomic", fam, operator_K=np.eye(2))
        assert code == 1 and not body["atomic_holds"]
        assert body["coefficient_norm_constant"] is None
        assert body["projection_residual"] == d.residual > 0.5


class TestEquivalence:
    """An atomic system for K is the factorization K = F W of
    _factorize(K, F), and its constant C = ||W|| is 1 / sqrt(A) for the
    optimal K-frame bound A."""

    def test_c3_both_hold(self, c3_instance):
        fam, K = c3_instance["family"], c3_instance["K"]
        factor = factorize(K, synthesis_matrix(fam))[1]
        cert = optimal_kframe_bounds(fam, K)
        assert factor.passed
        assert 1.0 / factor.lam**2 == pytest.approx(cert.A, rel=1e-12)
        assert 1.0 / factor.lam**2 <= 0.5 + 1e-9
        assert verify_bounds(fam, cert.A, cert.B, K).passed

    def test_single_vector_no_atomic_system(self):
        model = FuzzyModel(BaseSpace(2, "real"), "scaled")
        fam = FrameFamily(np.array([[1.0, 0.0]]), model)
        assert factorize(np.eye(2), synthesis_matrix(fam))[1] is None
        assert optimal_kframe_bounds(fam, np.eye(2)).A == 0.0

    def test_canonical_family_holds_with_unit_bound(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            model = FuzzyModel(BaseSpace(3, "real"), "scaled")
            K = rand_matrix(rng, 3, 3)
            fam = FrameFamily(K.T, model)  # {K e_i}
            assert factorize(K, synthesis_matrix(fam))[1].lam == pytest.approx(1.0, rel=1e-9)
            assert optimal_kframe_bounds(fam, K).A == pytest.approx(1.0, rel=1e-9)


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
        # u = K w runs over range(K), so extremes over u in range(K) are
        # quotient extremes of pencils (K* P K, K* Q K): <S_c u, u> / ||u||^2
        # for the first line, ||S_c u||^2 / <S_c u, u> for the second
        from fuzzyframes import BoundCertificate

        rng = np.random.default_rng(45)
        tol = 1e-9
        verdicts = []
        for k in range(4):
            field = "complex" if k % 2 else "real"
            fam = rand_family(rng, 4, 6, field)
            K = rand_matrix(rng, 4, 2, field) @ rand_matrix(rng, 2, 4, field)
            s = classical_frame_operator(fam)

            def extreme(p, q, mode):
                return sphere_quotient_extremum(K.conj().T @ p @ K, K.conj().T @ q @ K, rng, 20_000, mode)

            eye = np.eye(4)
            dagger2 = 1.0 / extreme(K @ K.conj().T, eye, "min")
            low, high = extreme(s, eye, "min"), extreme(s, eye, "max")
            inv_low, inv_high = extreme(s @ s, s, "min"), extreme(s @ s, s, "max")
            opt = optimal_kframe_bounds(fam, K)
            # the optimal pair passes; the lower side fails above low ||K+||^2,
            # the upper side below high
            for a, b in ((opt.A, opt.B), (1.1 * low * dagger2, opt.B), (opt.A, 0.9 * high)):
                cert = BoundCertificate(a, b, kframe=True)
                report = restricted_inverse_check(fam, K, cert, tol)
                # (excess, the larger of its constant and the top of its quotient)
                a_k = a / dagger2
                sides = [
                    (a_k - low, max(a_k, high)),
                    (high - b, max(high, b)),
                    (inv_high - b, max(inv_high, b)),
                    (a_k - inv_low, max(a_k, inv_high)),
                ]
                forward = max(e for e, _ in sides[:2])
                inverse = max(e for e, _ in sides[2:])
                assert report.dagger_norm**2 == pytest.approx(dagger2, rel=1e-6)
                assert report.max_violation_forward == pytest.approx(forward, rel=1e-6, abs=1e-8)
                assert report.max_violation_inverse == pytest.approx(inverse, rel=1e-6, abs=1e-8)
                expected = all(e <= tol * size for e, size in sides)
                assert report.passed == (report.injective and expected)
                verdicts.append(report.passed)
        assert verdicts == [True, False, False] * 4


class TestRestrictedInverseScale:
    """reconstruct decides at unit scale: scaling the family by c, or K by
    k, changes no verdict, scales ||K+|| by 1 / k and the excesses, which
    are in units of S_c, by c^2."""

    SANDWICH = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # S_c = [[2, 1], [1, 2]]

    def report(self, c, k, K=np.eye(2)):
        fam = FrameFamily(c * self.SANDWICH, FuzzyModel(BaseSpace(2, "real"), "scaled"))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            return run_problem("reconstruct", fam, operator_K=k * K)

    @pytest.mark.parametrize(
        "c, k", [(1e-100, 1.0), (1e-160, 1.0), (1e80, 1.0), (1e160, 1.0), (1.0, 1e-150), (1.0, 1e150)]
    )
    def test_verdict_at_every_scale(self, c, k):
        (base, base_code), (scaled, code) = self.report(1.0, 1.0), self.report(c, k)
        assert base_code == code == 0 and base["injective"] and scaled["injective"]
        assert scaled["dagger_norm"] == pytest.approx(base["dagger_norm"] / k, rel=1e-12)

    @pytest.mark.parametrize("c, k", [(1e-100, 1.0), (1e80, 1.0), (1.0, 1e-150), (1.0, 1e150)])
    def test_certificate_at_every_scale(self, c, k):
        # K = e1 e1*: the optimal pair is (3/2, 3), ||K+|| = 1, <S_c e1, e1> =
        # 2 and ||S_c e1||^2 / <S_c e1, e1> = 5/2, so each line has excess -1/2
        K = np.diag([1.0, 0.0])
        (base, base_code), (scaled, code) = self.report(1.0, 1.0, K), self.report(c, k, K)
        assert base_code == code == 0
        for key in ("max_violation_forward", "max_violation_inverse"):
            assert base[key] == pytest.approx(-0.5, rel=1e-12)
            assert scaled[key] == pytest.approx(c**2 * base[key], rel=1e-9)


class TestScaleInvariantRankRules:
    """Rank decisions are relative, so rescaling the family or K changes none."""

    @pytest.mark.parametrize("scale", [3e-6, 1.0, 1e6])
    def test_frame_dual_and_restriction(self, r3_instance, scale):
        fam = FrameFamily(scale * r3_instance["family"].vectors, r3_instance["model"])
        assert optimal_frame_bounds(fam).A == pytest.approx(2.0 * scale**2, rel=1e-9)
        body, code = run_problem("reconstruct", fam)  # S_c invertible
        assert code == 0 and body["injective"]
        report = restricted_inverse_check(fam, np.eye(3))
        assert report.injective and report.passed

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_kernel_escape(self, scale):
        # the family spans e1, e2; K = scale * I reaches e3
        fam = FrameFamily(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]), REAL3)
        cert = optimal_kframe_bounds(fam, scale * np.eye(3))
        assert cert.A == 0.0
        assert abs(cert.witness_lower[2]) == pytest.approx(1.0)


class TestReconstruct:
    def test_r3_random_vectors_all_levels(self, r3_instance):
        # the level scalings cancel in both dual expansions, so the invertible
        # S_c that reconstruct certifies reconstructs every f at every level;
        # sampled f through an independent inverse
        fam = r3_instance["family"]
        body, code = run_problem("reconstruct", fam)
        assert code == 0 and body["injective"] and body["dagger_norm"] == 1.0
        F = synthesis_matrix(fam)
        for a in (0.2, 0.5, 0.9):
            s = fam.model.scale(a)
            dual = np.linalg.inv(s * classical_frame_operator(fam)) @ F
            rng = np.random.default_rng(47)
            for _ in range(10):
                f = rand_vector(rng, 3)
                via_coefficients = F @ (s * (dual.conj().T @ f))
                via_vectors = dual @ (s * (F.conj().T @ f))
                for recon in (via_coefficients, via_vectors):
                    assert np.linalg.norm(recon - f) <= 1e-9 * np.linalg.norm(f)

    def test_standard_basis_exact(self):
        body, code = run_problem("reconstruct", standard_basis_family())
        assert code == 0 and body["injective"]
        assert body["max_violation_forward"] == body["max_violation_inverse"] == 0.0

    def test_c3_singular_raises_with_witness(self, c3_instance):
        # S_c is singular: without operator_K reconstruct is not_applicable
        # with the kernel witness e3
        body, code = run_problem("reconstruct", c3_instance["family"])
        assert code == 1 and "not a K-frame" in body["reason"]
        assert abs(body["witness"][2]) == pytest.approx(1.0)


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
            dagger_norm = spectral_norm(np.linalg.pinv(K, rcond=RELATIVE_RANK_TOL))
            bound = cert.A / dagger_norm**2
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
