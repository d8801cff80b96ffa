"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single [PASS]/[FAIL] line (visible with ``pytest -s``)
before asserting, so a full run reads as a checklist.  Worked-instance
values are pinned numerically; property criteria run their stated number
of seeded instances against independent oracles.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from fuzzyframes import (
    BaseSpace,
    FrameFamily,
    FuzzyModel,
    RangeInclusionError,
    check_fip_axioms,
    check_operator_perturbation,
    classical_frame_operator,
    derive_family_perturbed_bounds,
    derive_operator_perturbed_bounds,
    douglas_factorize,
    frame_sum,
    optimal_frame_bounds,
    optimal_kframe_bounds,
    spectral_norm,
    synthesis_matrix,
    verify_bounds,
)
from fuzzyframes.frame_transforms import combine, operator_transfer, transform_family
from fuzzyframes.cli_io import batch, canonical_json, run_file
from conftest import (
    alpha_inner,
    alpha_inner_polarization,
    alpha_norm_bisect,
    bessel_pair_check,
    order_holds,
    rand_deficient_instance,
    rand_family,
    rand_kframe_instance,
    rand_matrix,
    rand_vector,
    run_problem,
    sphere_quotient_extremum,
)

CORPUS = Path(__file__).resolve().parents[1] / "src" / "fuzzyframes" / "corpus"
C3_FILE = CORPUS / "c3_rank_deficient_kframe.json"
R3_FILE = CORPUS / "r3_full_rank_kframe.json"
CLAIM_FILE = CORPUS / "r3_zero_sum_claim.json"

ALPHAS = (0.1, 0.5, 0.9)


def criterion(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {description}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def c3_family():
    model = FuzzyModel(BaseSpace(3, "complex"), "scaled")
    vectors = np.array([[2, 0, 0], [0, 2**-0.5, 0], [0, 2**-0.5, 0]], dtype=complex)
    return FrameFamily(vectors, model)


def c3_operator():
    return np.array([[1, 1, 1], [0, -1, 1], [0, 0, 0]], dtype=complex)


def r3_family():
    model = FuzzyModel(BaseSpace(3, "real"), "scaled")
    return FrameFamily(np.array([[1.0, 1, 1], [1, -1, -1], [0, 1, -2]]), model)


def r3_operator():
    return np.array([[1.0, 1, 0], [0, 0, 1], [0, 0, 0]])


def test_criterion_01_rank_deficient_c3_reproduction():
    fam, K = c3_family(), c3_operator()
    ok = True

    report, code = run_file(C3_FILE, command="check-kframe")
    ok &= code == 0 and report["verdict"] == "pass"

    for a in ALPHAS:
        s = a / (1.0 - a)
        expected = np.diag([4.0 * s, s, 0.0])
        level_op = fam.model.scale(a) * classical_frame_operator(fam)  # S_a
        ok &= float(np.abs(level_op - expected).max()) <= 1e-12

    sc = classical_frame_operator(fam)
    ok &= np.linalg.matrix_rank(sc) == 2

    # S_c is singular: not invertible on the whole space (K = I), with the
    # kernel witness e3, but invertible on range(K) for the file's K
    rec, code = run_problem("reconstruct", fam)
    ok &= code == 1 and abs(abs(rec["witness"][2]) - 1.0) <= 1e-9
    report, code = run_file(C3_FILE, command="reconstruct")
    ok &= code == 0 and report["body"]["injective"]

    cert = optimal_kframe_bounds(fam, K)
    ok &= abs(cert.A - 0.5) <= 1e-10

    criterion(1, "rank-deficient C^3 instance reproduced (1/3, 4; diag(4s,s,0); rank 2; A_opt = 1/2; "
                 "S_c invertible on range(K))", ok)


def test_criterion_02_full_rank_r3_reproduction():
    fam, K = r3_family(), r3_operator()
    ok = True

    ok &= abs(frame_sum(fam, np.array([1.0, 1, 1]), 0.5) - 11.0) <= 1e-12

    fcert = optimal_frame_bounds(fam)
    ok &= abs(fcert.A - 2.0) <= 1e-9 and abs(fcert.B - 6.0) <= 1e-9

    kcert = optimal_kframe_bounds(fam, K)
    ok &= abs(kcert.A - 1.0) <= 1e-9 and abs(kcert.B - 6.0) <= 1e-9
    ok &= verify_bounds(fam, 1.0, 6.0, K, ALPHAS).passed

    for a in ALPHAS:
        s = a / (1.0 - a)
        op = fam.model.scale(a) * classical_frame_operator(fam)  # S_a
        ok &= np.allclose(op, np.diag([2 * s, 3 * s, 6 * s]), atol=1e-12)
        det = np.linalg.det(op)
        ok &= abs(det - 36.0 * s**3) <= 1e-9 * abs(36.0 * s**3)
        inverse = np.linalg.inv(op)
        expected = ((1.0 - a) / (36.0 * a)) * np.diag([18.0, 12.0, 6.0])
        ok &= np.allclose(inverse, expected, rtol=1e-9)

    # S_c is invertible within its sandwich bounds, so both dual
    # expansions reconstruct every f at every level
    rec, code = run_problem("reconstruct", fam)
    ok &= code == 0 and rec["injective"]

    criterion(2, "full-rank R^3 instance reproduced (sum 11; (2,6); (1,6); det 36 s^3; S_c invertible)", ok)


def test_criterion_03_zero_sum_claim_erratum():
    fam = r3_family()
    e3 = np.array([0.0, 0.0, 1.0])
    ok = True
    for a in (0.2, 0.5, 0.8):
        s = a / (1.0 - a)
        ok &= abs(frame_sum(fam, e3, a) - 6.0 * s) <= 1e-12 * 6.0 * s

    report, code = run_file(CLAIM_FILE)
    ok &= code == 1
    ok &= report["verdict"] == "not_applicable"  # no assertion is made
    ok &= len(report["erratum_notes"]) == 1
    ok &= "erratum" in report["erratum_notes"][0]

    criterion(3, "claimed zero frame sum recomputes to 6 scale(a); erratum note, no verdict", ok)


def test_criterion_04_level_independence():
    rng = np.random.default_rng(4)
    levels = np.linspace(0.045, 0.955, 20)
    worst_dev = 0.0
    verdicts_ok = True
    for k in range(100):
        field = "complex" if k % 2 else "real"
        fam, K = rand_kframe_instance(rng, 4, 6, field)
        cert = optimal_kframe_bounds(fam, K)
        a_ref, b_ref = cert.A, cert.B
        pass_ref = fail_ref = None
        for a in levels:
            s = fam.model.scale(a)
            level_op = s * classical_frame_operator(fam)  # S_a
            # level constant: largest A with scale(a) S_c >= A scale(a) K K*
            root = math.sqrt(s)
            a_level = optimal_kframe_bounds(FrameFamily(root * fam.vectors, fam.model), root * K).A
            b_level = float(np.linalg.eigvalsh(level_op)[-1]) / s
            if math.isfinite(a_ref) and a_ref > 0:
                worst_dev = max(worst_dev, abs(a_level - a_ref) / a_ref)
            worst_dev = max(worst_dev, abs(b_level - b_ref) / b_ref)
            good = verify_bounds(fam, a_ref * (1 - 1e-8), b_ref * (1 + 1e-8), K, [a]).passed
            bad = verify_bounds(fam, a_ref * 1.5, b_ref, K, [a]).passed
            if pass_ref is None:
                pass_ref, fail_ref = good, bad
            verdicts_ok &= good == pass_ref and bad == fail_ref
        verdicts_ok &= pass_ref is True and fail_ref is False
    ok = worst_dev <= 1e-10 and verdicts_ok
    criterion(4, "bounds and verdicts identical across 20 levels x 100 instances", ok,
              f"max relative deviation {worst_dev:.3e}")


def test_criterion_05_atomic_equivalence():
    # atomic decides K = F W; its factorization is douglas_factorize(K, F),
    # whose W gives the coefficients beta = W f of K f = sum beta_i f_i
    rng = np.random.default_rng(5)
    ok = True
    for k in range(200):
        field = "complex" if k % 2 else "real"
        fam, K = rand_kframe_instance(rng, 4, 6, field)
        f = rand_vector(rng, 4, field)
        body, code = run_problem("atomic", fam, operator_K=K)
        ok &= code == 0 and body["atomic_holds"]
        C, A = body["coefficient_norm_constant"], body["certificate"]["A"]
        F = synthesis_matrix(fam)
        factor = douglas_factorize(K, F)
        ok &= abs(factor.lam - C) <= 1e-12 * C
        beta = factor.W @ f
        ok &= np.linalg.norm(K @ f - F @ beta) <= 1e-9
        ok &= np.linalg.norm(beta) <= C * np.linalg.norm(f) + 1e-9
        if C > 0 and math.isfinite(A):
            ok &= 1.0 / C**2 <= A + 1e-9
    for k in range(50):
        field = "complex" if k % 2 else "real"
        fam, K = rand_deficient_instance(rng, 4, 6, field)
        body, code = run_problem("atomic", fam, operator_K=K)
        ok &= code == 1 and not body["atomic_holds"] and body["certificate"]["A"] == 0.0
        ok &= body["coefficient_norm_constant"] is None
        try:
            douglas_factorize(K, synthesis_matrix(fam))
            ok = False  # the coefficient construction must fail with the certificate
        except RangeInclusionError:
            pass
    criterion(5, "atomic-system equivalence on 200 + 50 seeded instances", ok)


def test_criterion_06_canonical_atomic_system():
    # the family {K e_i} of K's columns, decided by atomic
    rng = np.random.default_rng(6)
    ok = True
    for k in range(100):
        field = "complex" if k % 2 else "real"
        model = FuzzyModel(BaseSpace(4, field), "scaled")
        K = rand_matrix(rng, 4, 4, field)
        fam = FrameFamily(K.T, model)
        f = rand_vector(rng, 4, field)
        a = float(rng.uniform(0.05, 0.95))
        lhs = frame_sum(fam, f, a)
        rhs = model.scale(a) * float(np.linalg.norm(K.conj().T @ f) ** 2)
        ok &= abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        body, code = run_problem("atomic", fam, operator_K=K)
        cert = body["certificate"]
        ok &= code == 0 and body["atomic_holds"] and cert["tight"] and cert["parseval"]
        ok &= abs(cert["A"] - 1.0) <= 1e-12
        ok &= abs(cert["B"] - spectral_norm(K) ** 2) <= 1e-9 * max(1.0, cert["B"])
    criterion(6, "canonical system {K e_i}: frame sum equals ||K* f||_a^2, bounds (1, ||K||^2)", ok)


def test_criterion_07_douglas_suite():
    rng = np.random.default_rng(7)
    ok = True
    for k in range(200):
        field = "complex" if k % 2 else "real"
        n = rand_matrix(rng, 4, 3, field)
        w = rand_matrix(rng, 3, 3, field)
        m = n @ w
        try:
            factor = douglas_factorize(m, n)
        except RangeInclusionError:
            ok = False
            continue
        ok &= factor.residual <= 1e-9 and factor.passed
        lam = factor.lam
        ok &= math.isfinite(lam)
        ok &= order_holds(m @ m.conj().T, (lam * (1 + 1e-9)) ** 2 * (n @ n.conj().T))
    for k in range(50):
        field = "complex" if k % 2 else "real"
        n = rand_matrix(rng, 4, 4, field)
        n[:, 3] = 0.0
        n[3, :] = 0.0
        m = rand_matrix(rng, 4, 4, field) + 4.0 * np.eye(4)
        try:
            douglas_factorize(m, n)
            ok = False
        except RangeInclusionError:
            pass
    criterion(7, "Douglas suite: factorization (200) and range escape (50)", ok)


def test_criterion_08_closure_theorems():
    rng = np.random.default_rng(8)
    violations = 0
    for k in range(200):
        field = "complex" if k % 2 else "real"
        fam, K1 = rand_kframe_instance(rng, 3, 5, field)
        K2 = rand_matrix(rng, 3, 3, field) @ K1  # second K-frame operator
        scalars = rng.standard_normal(2)

        if not combine(fam, [K1, K2], list(scalars)).verification.passed:
            violations += 1
        if not combine(fam, [K1, K2]).verification.passed:
            violations += 1

        diag = np.diag(rng.uniform(0.3, 2.0, size=3)).astype(K1.dtype)
        kd = np.diag(rng.uniform(0.3, 2.0, size=3)).astype(K1.dtype)
        if not transform_family(fam, diag, kd, "invertible").verification.passed:
            violations += 1

        T = K1 @ rand_matrix(rng, 3, 3, field)
        if not operator_transfer(fam, K1, T).verification.passed:
            violations += 1

        # bounds on G and fam, then check-kframe for K = T_F T_G* on [1/D, B]
        if bessel_pair_check(fam, rand_family(rng, 3, 5, field))[1] != 0:
            violations += 1
    criterion(8, "closure theorems: 200 seeded instances per operation, zero violations", violations == 0,
              f"{violations} violations")


def test_criterion_09_perturbation_suite():
    rng = np.random.default_rng(9)
    ok = True

    # operator case on a shrinking grid
    for eps in (0.01, 0.05, 0.1):
        fam, K1 = rand_kframe_instance(rng, 4, 6)
        K2 = (1.0 - eps) * K1
        hyp = check_operator_perturbation(K1, K2, eps, 0.0)
        ok &= hyp.verified
        cert = optimal_kframe_bounds(fam, K1)
        out = derive_operator_perturbed_bounds(cert.A, cert.B, eps, 0.0)
        ok &= out.A == pytest.approx(cert.A / (1 + eps) ** 2)
        ok &= verify_bounds(fam, out.A, out.B, K2).passed

    # family case: perturb-family's constant matches brute-force sphere search
    for n in (2, 3, 4):
        F = rand_family(rng, n, n + 2)
        G = FrameFamily(F.vectors + 0.25 * rng.standard_normal(F.vectors.shape), F.model)
        body, code = run_problem("perturb-family", F, family_g=G)
        s_delta = classical_frame_operator(FrameFamily(F.vectors - G.vectors, F.model))
        brute = max(
            sphere_quotient_extremum(s_delta, classical_frame_operator(F), rng, 100_000),
            sphere_quotient_extremum(s_delta, classical_frame_operator(G), rng, 100_000),
        )
        ok &= abs(body["M"] - brute) <= 1e-4 * max(1.0, abs(brute))
        cert = optimal_frame_bounds(F)
        out = derive_family_perturbed_bounds(cert.A, cert.B, body["M"])
        ok &= verify_bounds(G, out.A, out.B).passed
        ok &= code == 0 and body["verification"]["passed"]

    # two-frame case: M = max((1 + sqrt(B/C))^2, (1 + sqrt(D/A))^2) from the
    # bounds of F, (A, B), and of G, (C, D), is at least perturb-family's M
    for k in range(50):
        field = "complex" if k % 2 else "real"
        F = rand_family(rng, 4, 6, field)
        G = rand_family(rng, 4, 6, field)
        (a, b), (c, d) = (
            (body["optimal_frame"]["A"], body["optimal_frame"]["B"])
            for body, _ in (run_problem("bounds", F), run_problem("bounds", G))
        )
        m = max((1.0 + math.sqrt(b / c)) ** 2, (1.0 + math.sqrt(d / a)) ** 2)
        ok &= run_problem("perturb-family", F, family_g=G)[0]["M"] <= m * (1.0 + 1e-9)

    criterion(9, "perturbation suite: operator grid, family constant vs search, two-frame M", ok)


def test_criterion_10_fuzzy_space_numerics():
    rng = np.random.default_rng(10)
    ok = True
    scaled = FuzzyModel(BaseSpace(4, "real"), "scaled")
    crisp = FuzzyModel(BaseSpace(4, "real"), "crisp")
    for _ in range(100):
        model = scaled if rng.uniform() < 0.5 else crisp
        x = rand_vector(rng, 4)
        a = float(rng.uniform(0.02, 0.98))
        ok &= abs(model.alpha_norm(x, a) - alpha_norm_bisect(model, x, a)) <= 1e-9
    for field in ("real", "complex"):
        model = FuzzyModel(BaseSpace(4, field), "scaled")
        for _ in range(50):
            x = rand_vector(rng, 4, field)
            y = rand_vector(rng, 4, field)
            a = float(rng.uniform(0.05, 0.95))
            direct = alpha_inner(model, x, y, a)
            polar = alpha_inner_polarization(model, x, y, a)
            ok &= abs(direct - polar) <= 1e-8 * max(1.0, abs(direct))
    for profile in ("scaled", "crisp"):
        report = check_fip_axioms(FuzzyModel(BaseSpace(3, "complex"), profile))
        ok &= report.all_passed
    criterion(10, "level-norm bisection, polarization, and axiom checks at stated tolerances", ok)


def test_criterion_11_cli_determinism():
    files = sorted(CORPUS.glob("*.json"))
    first, code1 = batch(files, parallelism=1)
    second, code2 = batch(files, parallelism=8)
    third, code3 = batch(files, parallelism=1)
    ok = canonical_json(first) == canonical_json(second) == canonical_json(third)
    ok &= code1 == code2 == code3
    counts = first["summary"]["counts"]
    ok &= counts["pass"] == 4 and first["summary"]["erratum_flagged"] == 1
    for report in first["reports"]:
        ok &= report["exit_code"] == (0 if report["verdict"] == "pass" else 1)
    criterion(11, "corpus reports byte-identical across runs and parallelism; exits match", ok)
