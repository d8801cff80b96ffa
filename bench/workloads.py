"""Seeded problem files for the three benchmark workloads.

Every generated instance is built from an explicit spectral construction,
so the verdict the CLI must reach is planted from the mathematics, never
copied from the program's output.  With a random unitary U (orthogonal in
the real field) every family and operator is diagonal in the same basis:

    family synthesis F = U diag(sigma) W*   (W: m x n, orthonormal columns)
    frame operator   S = F F* = U diag(sigma^2) U*
    operators        K = U diag(k) U*,  T = U diag(t) U*

so the optimal constants are closed forms in sigma, k and t:

    frame bounds     A = min sigma^2, B = max sigma^2
    K-frame lower    A = min over k_i != 0 of sigma_i^2 / |k_i|^2
                     (0 when some sigma_i = 0 has k_i != 0)

and each command's verdict follows from the theorem it implements.  The
headline constants a report must carry are recomputed independently with
``numpy.linalg.eigvalsh`` from the exact matrices written to the file and
cross-checked against the closed forms when the file is generated.

Only the numbers depend on the seed.  Which commands, dimensions, fields,
profiles, conventions and level lists appear is a fixed schedule, so the
work per pass is the same for every seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

WORKLOADS = ("dense-n64", "mixed-small", "sampled")

#: relative cutoff below which an eigenvalue counts as zero (the CLI's own
#: documented rank tolerance is the same 1e-10)
RANK_TOL = 1e-10

#: decisions whose two sides differ by less than this (relative) are
#: redrawn; equal sides (an optimal bound checked against itself) are kept
BOUNDARY_GAP = 1e-6

ALPHA_LISTS = (
    (0.5,),
    (0.1, 0.9),
    (0.1, 0.5, 0.9),
    (0.2, 0.4, 0.6, 0.8),
    (0.1, 0.3, 0.5, 0.7, 0.9),
)


class Retry(Exception):
    """The drawn instance sits too close to a decision boundary."""


@dataclass
class Case:
    """One problem file with the verdict and headline constants it must produce."""

    name: str
    command: str
    dimension: int
    verdict: str
    #: body key -> (A, B) that the report's body[key] must carry
    headline: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Independent recomputation (eigvalsh on the exact file matrices)


def _psd_pinv_sqrt(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R, N): Q^{+1/2} restricted to range(Q) as R (n x r), kernel basis N."""
    w, v = np.linalg.eigh(0.5 * (q + q.conj().T))
    keep = w > RANK_TOL * max(float(w[-1]), 1.0)
    return v[:, keep] / np.sqrt(w[keep]), v[:, ~keep]


def pencil_sup(p: np.ndarray, q: np.ndarray) -> float:
    """sup <Pf,f>/<Qf,f> for PSD P, Q: inf when ker Q carries P-energy."""
    r, kernel = _psd_pinv_sqrt(q)
    scale = max(float(np.abs(np.linalg.eigvalsh(p)).max()), 1.0)
    if kernel.shape[1] and np.linalg.eigvalsh(kernel.conj().T @ p @ kernel)[-1] > 1e-8 * scale:
        return math.inf
    if r.shape[1] == 0:
        return 0.0
    return max(float(np.linalg.eigvalsh(r.conj().T @ p @ r)[-1]), 0.0)


def frame_bounds(s: np.ndarray) -> tuple[float, float]:
    w = np.linalg.eigvalsh(s)
    a = float(w[0]) if w[0] > RANK_TOL * max(float(w[-1]), 1.0) else 0.0
    return a, float(w[-1])


def kframe_lower(s: np.ndarray, k: np.ndarray) -> float:
    """max{A : S - A K K* is PSD} = 1 / sup <KK*f,f>/<Sf,f>."""
    sup = pencil_sup(k @ k.conj().T, s)
    return 0.0 if math.isinf(sup) else (math.inf if sup == 0.0 else 1.0 / sup)


def _frame_op(rows: np.ndarray) -> np.ndarray:
    f = rows.T
    return f @ f.conj().T


def _close(x: float, y: float, rel: float = 1e-7) -> bool:
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel * max(abs(x), abs(y)) + 1e-12


# ---------------------------------------------------------------------------
# Spectral constructions


class Space:
    """One drawn instance: dimension, field, level setup and a random basis."""

    def __init__(self, rng, n, field_name, profile, convention, alphas):
        self.rng = rng
        self.n = n
        self.field = field_name
        self.complex = field_name == "complex"
        self.profile = profile
        self.convention = convention
        self.alphas = alphas
        self.U = self._orthonormal(n, n)

    def _gauss(self, *shape):
        z = self.rng.standard_normal(shape)
        if self.complex:
            z = z + 1j * self.rng.standard_normal(shape)
        return z

    def _orthonormal(self, rows, cols):
        q, r = np.linalg.qr(self._gauss(rows, cols))
        d = np.diagonal(r)
        return q * (d / np.abs(d))

    def mags(self, lo, hi, size=None):
        return self.rng.uniform(lo, hi, size or self.n)

    def phases(self, size=None):
        size = size or self.n
        if self.complex:
            return np.exp(2j * np.pi * self.rng.uniform(0.0, 1.0, size))
        return self.rng.choice([-1.0, 1.0], size)

    def op(self, d):
        """U diag(d) U*."""
        return (self.U * d) @ self.U.conj().T

    def family(self, sigma, m=None):
        """Rows f_i of F = U diag(sigma) W*, so that S = U diag(sigma^2) U*."""
        w = self._orthonormal(m or 2 * self.n, self.n)
        return ((self.U * sigma) @ w.conj().T).T.copy()

    def factor(self, alpha):
        """Extra level power verify_bounds keeps on the frame-sum side."""
        if self.convention == "once" or self.profile == "crisp":
            return 1.0
        return alpha / (1.0 - alpha)

    def verify(self, A, B, a_opt, b_opt):
        """Verdict of the PSD checks A G <= x S and x S <= B I at every level,
        for a family with optimal constants (a_opt, b_opt) against G."""
        ok = True
        for alpha in self.alphas:
            x = self.factor(alpha)
            sides = [(x * b_opt, B)] if math.isinf(A) else [(A, x * a_opt), (x * b_opt, B)]
            for lhs, rhs in sides:
                gap = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
                if 1e-12 < gap < BOUNDARY_GAP:
                    raise Retry
                ok = ok and (lhs <= rhs or gap <= 1e-12)
        return "pass" if ok else "fail"

    def level_span(self):
        xs = [self.factor(a) for a in self.alphas]
        return min(xs), max(xs)


def _enc(x: np.ndarray):
    """JSON form of a real or complex array ([re, im] pairs when complex)."""
    if np.iscomplexobj(x):
        return np.stack([x.real, x.imag], axis=-1).tolist()
    return np.asarray(x, dtype=float).tolist()


def _problem(sp: Space, command: str, rows: np.ndarray, **extra) -> dict:
    p = {
        "schema": 1,
        "command": command,
        "dimension": sp.n,
        "field": sp.field,
        "profile": sp.profile,
        "family": _enc(rows),
        "alphas": list(sp.alphas),
        "convention": sp.convention,
        "seed": int(sp.rng.integers(0, 2**31 - 1)),
        "tolerance": 1e-9,
    }
    for key, value in extra.items():
        p[key] = _enc(value) if isinstance(value, np.ndarray) else value
    return p


def _kmin(s, k):
    """Closed-form K-frame lower constant for diagonal S = s, K = k."""
    k2 = np.abs(k) ** 2
    if np.any((s == 0.0) & (k2 > 0.0)):
        return 0.0
    return float(np.min(s[k2 > 0.0] / k2[k2 > 0.0]))


def _agree(expected: float, recomputed: float) -> float:
    if not _close(expected, recomputed, 1e-8):
        raise AssertionError(f"closed form {expected!r} != recomputation {recomputed!r}")
    return recomputed


# ---------------------------------------------------------------------------
# Instance kinds.  Each returns (problem, verdict, headline).


def _full_sigma(sp):
    return sp.mags(0.8, 2.0)


def _deficient_sigma(sp):
    sigma = sp.mags(0.8, 2.0)
    sigma[0] = 0.0
    return sigma


def _frame_case(sp, command, sigma, k=None, bounds=None, claims=None):
    rows = sp.family(sigma)
    s = sigma**2
    S = _frame_op(rows)
    A, B = frame_bounds(S)
    _agree(float(s.min()) if s.min() > 0 else 0.0, A)
    _agree(float(s.max()), B)
    extra = {}
    headline = {"optimal_frame": (A, B)}
    kA = None
    if k is not None:
        K = sp.op(k)
        extra["operator_K"] = K
        kA = _agree(_kmin(s, k), kframe_lower(S, K))
        headline = {"optimal_kframe": (kA, B)} if command != "bounds" else {
            "optimal_frame": (A, B), "optimal_kframe": (kA, B)}
    if bounds is not None:
        extra["bounds"] = list(bounds)
    if claims is not None:
        extra["claims"] = claims
    return rows, S, A, B, kA, headline, _problem(sp, command, rows, **extra)


def bounds_k(sp):
    *_, headline, p = _frame_case(sp, "bounds", _full_sigma(sp), k=sp.phases() * sp.mags(1.0, 2.0))
    return p, "pass", headline


def _claim(sp, sigma, offset):
    j = int(sp.rng.integers(0, sp.n))
    vec = sp.U[:, j]
    return {"frame_sum": [{"vector": _enc(vec), "value": float(sigma[j] ** 2) + offset}]}


def bounds_claim(sp):
    sigma = _full_sigma(sp)
    *_, headline, p = _frame_case(sp, "bounds", sigma, claims=_claim(sp, sigma, 0.0))
    return p, "pass", headline


def frame_opt(sp):
    _, _, A, B, _, headline, p = _frame_case(sp, "check-frame", _full_sigma(sp))
    return p, sp.verify(A, B, A, B), headline


def frame_req(sp, passing):
    sigma = _full_sigma(sp)
    s = sigma**2
    lo, hi = sp.level_span()
    req = (0.6 * lo * s.min(), 1.4 * hi * s.max()) if passing else (1.3 * hi * s.min(), 1.4 * hi * s.max())
    _, _, A, B, _, headline, p = _frame_case(sp, "check-frame", sigma, bounds=req)
    return p, sp.verify(req[0], req[1], A, B), headline


def frame_singular(sp):
    *_, headline, p = _frame_case(sp, "check-frame", _deficient_sigma(sp))
    return p, "fail", headline


def kframe_opt(sp):
    _, _, _, B, kA, headline, p = _frame_case(
        sp, "check-kframe", _full_sigma(sp), k=sp.phases() * sp.mags(1.0, 2.0))
    return p, sp.verify(kA, B, kA, B), headline


def kframe_rankdef(sp):
    k = sp.phases() * sp.mags(1.0, 2.0)
    k[0] = 0.0
    _, _, _, B, kA, headline, p = _frame_case(sp, "check-kframe", _deficient_sigma(sp), k=k)
    return p, sp.verify(kA, B, kA, B), headline


def kframe_not(sp):
    *_, headline, p = _frame_case(
        sp, "check-kframe", _deficient_sigma(sp), k=sp.phases() * sp.mags(1.0, 2.0))
    return p, "fail", headline


def kframe_req(sp, claim_offset=None):
    sigma = _full_sigma(sp)
    k = sp.phases() * sp.mags(1.0, 2.0)
    lo, hi = sp.level_span()
    s = sigma**2
    req = (0.6 * lo * _kmin(s, k), 1.4 * hi * s.max())
    claims = None if claim_offset is None else _claim(sp, sigma, claim_offset)
    _, _, _, B, kA, headline, p = _frame_case(
        sp, "check-kframe", sigma, k=k, bounds=req, claims=claims)
    verdict = sp.verify(req[0], req[1], kA, B)
    return p, ("not_applicable" if claims else verdict), headline


def atomic(sp, inside):
    k = sp.phases() * sp.mags(1.0, 2.0)
    if inside:
        k[0] = 0.0
    sigma = _deficient_sigma(sp)
    rows = sp.family(sigma)
    S = _frame_op(rows)
    K = sp.op(k)
    kA = _agree(_kmin(sigma**2, k), kframe_lower(S, K))
    B = frame_bounds(S)[1]
    p = _problem(sp, "atomic", rows, operator_K=K)
    # range(K) inside range(F) exactly when the family is a K-frame
    return p, ("pass" if inside else "fail"), {"certificate": (kA, B)}


def _diag_setup(sp, wide):
    """Full-rank family and K; wide instances have K-frame A > B."""
    sigma = sp.mags(1.0, math.sqrt(2.0)) if wide else _full_sigma(sp)
    k = sp.phases() * (sp.mags(0.3, 0.5) if wide else sp.mags(1.0, 2.0))
    rows = sp.family(sigma)
    S = _frame_op(rows)
    K = sp.op(k)
    s = sigma**2
    kA = _agree(_kmin(s, k), kframe_lower(S, K))
    B = frame_bounds(S)[1]
    return rows, S, K, s, k, kA, B


def transform_variant(sp, variant, wide):
    rows, S, K, s, k, kA, B = _diag_setup(sp, wide)
    if variant == "invertible":
        t = sp.phases() * (sp.mags(0.9, 1.1) if wide else sp.mags(0.6, 1.5))
    else:
        t = sp.phases()
    T = sp.op(t)
    tt = np.linalg.eigvalsh(T @ T.conj().T)
    _agree(float(np.max(np.abs(t) ** 2)), float(tt[-1]))
    lower = kA * float(tt[0]) if variant == "invertible" else kA
    upper = B * float(tt[-1])
    # moved family {T f_i}: frame operator T S T* = U diag(|t|^2 s) U*
    s_moved = np.abs(t) ** 2 * s
    verdict = sp.verify(lower, upper, _kmin(s_moved, k), float(s_moved.max()))
    p = _problem(sp, "transform", rows, operator_K=K, operator_T=T, variant=variant)
    return p, verdict, {"derived": (lower, upper)}


def transform_transfer(sp, wide):
    rows, S, K, s, k, kA, B = _diag_setup(sp, wide)
    if wide:
        rho = sp.mags(0.85, 1.0)
    else:
        k = sp.phases() * sp.mags(1.5, 2.0)
        K = sp.op(k)
        kA = _agree(_kmin(s, k), kframe_lower(S, K))
        rho = sp.mags(0.7, 1.0)
    t = k * rho
    T = sp.op(t)
    lam2 = _agree(float(np.max(rho**2)), pencil_sup(T @ T.conj().T, K @ K.conj().T))
    lower = kA / lam2
    verdict = sp.verify(lower, B, _kmin(s, t), float(s.max()))
    p = _problem(sp, "transform", rows, operator_K=K, operator_T=T)
    return p, verdict, {"derived": (lower, B)}


def transform_escape(sp):
    sigma = _full_sigma(sp)
    k = sp.phases() * sp.mags(1.0, 2.0)
    k[0] = 0.0
    t = k * sp.mags(0.5, 1.0)
    t[0] = sp.mags(0.5, 1.0, 1)[0]
    rows = sp.family(sigma)
    p = _problem(sp, "transform", rows, operator_K=sp.op(k), operator_T=sp.op(t))
    return p, "fail", {}


def perturb_operator(sp, verified, lambda2_zero):
    sigma = _full_sigma(sp)
    a = sp.phases() * sp.mags(1.0, 2.0)
    eps = sp.rng.uniform(-0.4, 0.4, sp.n)
    b = a * (1.0 + eps)
    d = np.abs(a - b)
    target = 0.7 if verified else 1.4
    if lambda2_zero:
        # hypothesis holds exactly when lambda1 >= max |d_i| / |a_i|
        lam1, lam2 = float(np.max(d / np.abs(a))) / target, 0.0
    else:
        # for operators diagonal in one basis the hypothesis is the
        # coordinatewise |d_i| <= lam1 |a_i| + lam2 |b_i|
        l1, l2 = sp.rng.uniform(0.1, 0.5, 2)
        kappa = float(np.max(d / (l1 * np.abs(a) + l2 * np.abs(b)))) / target
        lam1, lam2 = float(kappa * l1), float(kappa * l2)
        if lam2 >= 0.9:
            raise Retry
    rows = sp.family(sigma)
    S = _frame_op(rows)
    K1, K2 = sp.op(a), sp.op(b)
    p = _problem(sp, "perturb-operator", rows, operator_K=K1, operator_T=K2,
                 lambda1=lam1, lambda2=lam2, samples=1000)
    if not verified:
        return p, "fail", {}
    s = sigma**2
    kA = _agree(_kmin(s, a), kframe_lower(S, K1))
    B = frame_bounds(S)[1]
    lower = kA * ((1.0 - lam2) / (1.0 + lam1)) ** 2
    return p, sp.verify(lower, B, _kmin(s, b), float(s.max())), {"derived": (lower, B)}


def perturb_family(sp, finite):
    sigma = _full_sigma(sp)
    gamma = sigma * (1.0 + sp.rng.uniform(-0.3, 0.3, sp.n))
    if not finite:
        gamma[0] = 0.0
    with_k = bool(sp.rng.integers(0, 2))
    k = sp.phases() * sp.mags(1.0, 2.0) if with_k else None
    w = sp._orthonormal(2 * sp.n, sp.n)
    rows_f = ((sp.U * sigma) @ w.conj().T).T.copy()
    rows_g = ((sp.U * gamma) @ w.conj().T).T.copy()
    extra = {"family_g": rows_g}
    if with_k:
        extra["operator_K"] = sp.op(k)
    p = _problem(sp, "perturb-family", rows_f, **extra)
    if not finite:
        return p, "fail", {}
    SF, SG = _frame_op(rows_f), _frame_op(rows_g)
    SD = _frame_op(rows_f - rows_g)
    M = _agree(float(np.max((sigma - gamma) ** 2 / np.minimum(sigma, gamma) ** 2)),
               max(pencil_sup(SD, SF), pencil_sup(SD, SG)))
    s, g = sigma**2, gamma**2
    if with_k:
        aF = _agree(_kmin(s, k), kframe_lower(SF, extra["operator_K"]))
        aG = _kmin(g, k)
    else:
        aF, aG = frame_bounds(SF)[0], float(g.min())
    bF = frame_bounds(SF)[1]
    factor = (math.sqrt(M) + 1.0) ** 2
    lower, upper = aF / factor, bF * factor
    return p, sp.verify(lower, upper, aG, float(g.max())), {"derived": (lower, upper)}


def reconstruct(sp, invertible):
    sigma = _full_sigma(sp) if invertible else _deficient_sigma(sp)
    p = _problem(sp, "reconstruct", sp.family(sigma))
    return p, ("pass" if invertible else "not_applicable"), {}


def douglas(sp, included):
    k = sp.phases() * sp.mags(0.5, 2.0)
    k[0] = 0.0
    t = sp.phases() * sp.mags(0.5, 2.0)
    if included:
        t[0] = 0.0
    p = _problem(sp, "douglas", sp.family(_full_sigma(sp)), operator_K=sp.op(k), operator_T=sp.op(t))
    return p, ("pass" if included else "fail"), {}


def axioms(sp):
    # Both profiles satisfy FIP1-FIP9: the scaled membership is the
    # mediant-monotone t / (t + ||x|| ||y||) above the norm threshold and the
    # crisp one its indicator, and the level norms of either come from an
    # inner product (parallelogram law).
    return _problem(sp, "axioms", sp.family(_full_sigma(sp)), samples=150), "pass", {}


KINDS: dict[str, Callable] = {
    "bounds-k": bounds_k,
    "bounds-claim": bounds_claim,
    "frame-opt": frame_opt,
    "frame-req-pass": lambda sp: frame_req(sp, True),
    "frame-req-fail": lambda sp: frame_req(sp, False),
    "frame-singular": frame_singular,
    "kframe-opt": kframe_opt,
    "kframe-rankdef": kframe_rankdef,
    "kframe-not": kframe_not,
    "kframe-req": kframe_req,
    "kframe-erratum": lambda sp: kframe_req(sp, claim_offset=0.5),
    "atomic-pass": lambda sp: atomic(sp, True),
    "atomic-fail": lambda sp: atomic(sp, False),
    "transform-inv": lambda sp: transform_variant(sp, "invertible", False),
    "transform-inv-wide": lambda sp: transform_variant(sp, "invertible", True),
    "transform-coiso": lambda sp: transform_variant(sp, "coisometry", False),
    "transform-coiso-wide": lambda sp: transform_variant(sp, "coisometry", True),
    "transfer": lambda sp: transform_transfer(sp, False),
    "transfer-wide": lambda sp: transform_transfer(sp, True),
    "transfer-escape": transform_escape,
    "perturb-op-pass": lambda sp: perturb_operator(sp, True, True),
    "perturb-op-fail": lambda sp: perturb_operator(sp, False, True),
    "perturb-family-pass": lambda sp: perturb_family(sp, True),
    "perturb-family-inf": lambda sp: perturb_family(sp, False),
    "reconstruct-pass": lambda sp: reconstruct(sp, True),
    "reconstruct-singular": lambda sp: reconstruct(sp, False),
    "douglas-pass": lambda sp: douglas(sp, True),
    "douglas-escape": lambda sp: douglas(sp, False),
    "axioms": axioms,
    "sampled-op-pass": lambda sp: perturb_operator(sp, True, False),
    "sampled-op-fail": lambda sp: perturb_operator(sp, False, False),
}

# Slots alternate real and complex, with two complex slots more than real
# ones: a complex file at n = 64 costs about twice a real one, and with an
# exact half split the median latency would fall in the gap between the
# two groups, where it is an unstable average of two extreme samples.
DENSE_KINDS = (
    "bounds-k", "frame-opt", "frame-req-pass", "frame-req-fail",
    "kframe-opt", "kframe-rankdef", "kframe-not", "kframe-req",
    "kframe-opt", "bounds-k",
)

# Every file command except axioms.  The *-wide transform kinds have
# K-frame constants with A > B, which are valid bounds.
MIXED_KINDS = tuple(k for k in KINDS if not k.startswith(("axioms", "sampled")))

# Two axiom files to one operator file: the median and the 90th
# percentile latency then both fall well inside the (slow) axiom group
# instead of on the edge between the two groups.
SAMPLED_KINDS = ("axioms", "axioms", "sampled-op-pass", "axioms", "axioms", "sampled-op-fail")

#: the corpus files shipped with the package and the verdicts its README states
CORPUS = {
    "c3_rank_deficient_kframe.json": "pass",
    "r3_full_rank_kframe.json": "pass",
    "r3_zero_sum_claim.json": "not_applicable",
}


def _slot_space(workload: str, j: int, rng) -> Space:
    if workload == "dense-n64":
        return Space(rng, 64, "complex" if j % 2 or j >= 8 else "real", ("scaled", "crisp")[(j // 2) % 2],
                     ("once", "once", "squared")[j % 3], (0.1, 0.5, 0.9))
    if workload == "sampled":
        return Space(rng, 2 + j % 5, ("real", "complex")[(j + j // 6) % 2], ("scaled", "crisp")[(j // 2) % 2],
                     ("once", "squared")[(j // 3) % 2], ALPHA_LISTS[j % 5])
    cycle = j // len(MIXED_KINDS)  # each kind meets other dimensions and fields in each cycle
    return Space(rng, 2 + (j + 3 * cycle) % 7, ("real", "complex")[(j + cycle) % 2],
                 ("scaled", "crisp", "scaled")[(j // 2) % 3],
                 ("once", "squared")[(j // 3) % 2], ALPHA_LISTS[j % 5])


def _schedule(workload: str) -> list[str]:
    if workload == "dense-n64":
        return list(DENSE_KINDS)
    if workload == "sampled":
        return [k for _ in range(4) for k in SAMPLED_KINDS]
    return [k for _ in range(2) for k in MIXED_KINDS]


def _decode_matrix(entries, field_name: str) -> np.ndarray:
    """Problem-file matrix (numbers or [re, im] pairs) as an ndarray."""
    def scalar(v):
        return complex(v[0], v[1]) if isinstance(v, list) else complex(v)

    m = np.array([[scalar(v) for v in row] for row in entries], dtype=complex)
    return m if field_name == "complex" else m.real


def _corpus_case(name: str, text: str) -> Case:
    data = json.loads(text)
    rows = _decode_matrix(data["family"], data["field"])
    S = _frame_op(rows)
    A, B = frame_bounds(S)
    K = _decode_matrix(data["operator_K"], data["field"])
    kA = kframe_lower(S, K)
    if data["command"] == "check-kframe":
        headline = {"optimal_kframe": (kA, B)}
    else:
        headline = {"optimal_frame": (A, B), "optimal_kframe": (kA, B)}
    return Case("corpus-" + name[:-5].replace("_", "-"), data["command"], data["dimension"],
                CORPUS[name], headline)


def build(workload: str, seed: int, corpus_dir: Optional[Path] = None) -> list[tuple[Case, str]]:
    """All cases of a workload, each with the exact text of its file."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out = []
    for j, kind in enumerate(_schedule(workload)):
        for _ in range(20):
            sp = _slot_space(workload, j, rng)
            try:
                problem, verdict, headline = KINDS[kind](sp)
                break
            except Retry:
                continue
        else:
            raise RuntimeError(f"no instance for {kind} after 20 draws")
        case = Case(kind, problem["command"], problem["dimension"], verdict, headline)
        out.append((case, json.dumps(problem)))
    if workload == "mixed-small":
        for name in CORPUS:
            text = (corpus_dir / name).read_text()
            out.append((_corpus_case(name, text), text))
    return out
