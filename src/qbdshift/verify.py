"""Machine-checkable certificates: equation residuals, coupling identities,
M-matrix and sign properties, factorization residuals, root surgery, and
the phase-partition sign table.

Certificates are deterministic (same inputs give identical residuals) and
carry one of four verdicts: pass, fail, n/a (prerequisite absent, e.g. W
on a null-recurrent instance), or info (reported but not gating: the
compact double-shift Khat formula).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernel, matpoly, model as model_mod, shift as shift_mod, solvers

__all__ = [
    "Certificate",
    "PhasePartition",
    "check_identity_suite",
    "check_mmatrix",
    "check_sign_property",
    "phase_partition",
]

EQ_TOL = 1e-11
IDENTITY_TOL = 1e-10
FACTOR_TOL = 1e-10
SPECTRAL_TOL = 1e-8
ROOT_MATCH_TOL = 1e-7
MMATRIX_TOL = 1e-12
SIGN_TOL = -1e-12  # pairing must sit at or below this (strictly negative)
DET_POINT_COUNT = 8
DET_RTOL = 1e-8
ZERO_PATTERN_RTOL = 1e-9
ROUNDTRIP_TOL = 1e-8


@dataclasses.dataclass(frozen=True)
class Certificate:
    name: str
    residual: float | None
    tolerance: float | None
    status: str  # "pass" | "fail" | "n/a" | "info"
    context: str = ""

    @property
    def passed(self):
        return self.status == "pass"

    def to_dict(self):
        return dataclasses.asdict(self)


def _cond_inf(m):
    """Infinity-norm condition estimate (dense inverse; n is small)."""
    return kernel.inf_norm(m) * kernel.inf_norm(
        kernel.solve_linear(m, np.eye(m.shape[0]))
    )


def _cert(name, residual, tolerance, context=""):
    status = "pass" if residual <= tolerance else "fail"
    return Certificate(name, float(residual), float(tolerance), status, context)


def _info(name, residual, context=""):
    return Certificate(name, float(residual), None, "info", context)


def _na(name, context):
    return Certificate(name, None, None, "n/a", context)


def check_mmatrix(m, name="M", tol=MMATRIX_TOL):
    """Certify that `m` is a nonsingular M-matrix: off-diagonal entries
    nonpositive and an entrywise (near-)nonnegative inverse."""
    a = kernel.as_square(m)
    off = a - np.diag(np.diag(a))
    violation = max(float(np.max(off)), 0.0)
    try:
        inv = kernel.solve_linear(a, np.eye(a.shape[0]))
    except kernel.SingularMatrixError:
        return Certificate(
            f"mmatrix:{name}", float("inf"), tol, "fail", "numerically singular"
        )
    violation = max(violation, -min(float(np.min(inv)), 0.0))
    return _cert(f"mmatrix:{name}", violation, tol)


def check_sign_property(sol, perron, tol=SIGN_TOL):
    """Certify v_G^T K^-1 u_R < 0 and v_Ghat^T Khat^-1 u_Rhat < 0.

    The certificate residual is the pairing itself; it passes when the
    pairing is at least |tol| below zero, and the margin is the context.
    """
    if perron.v_g is None or perron.u_rhat is None:
        raise ValueError("solution-side Perron vectors missing")
    eye = np.eye(sol.k.shape[0])
    p1 = float(perron.v_g @ kernel.solve_linear(sol.k, eye) @ perron.u_r)
    p2 = float(perron.v_ghat @ kernel.solve_linear(sol.khat, eye) @ perron.u_rhat)
    return (
        _cert("sign:v_G.K^-1.u_R", p1, tol, context=f"margin {-p1:.6g}"),
        _cert("sign:v_Ghat.Khat^-1.u_Rhat", p2, tol, context=f"margin {-p2:.6g}"),
    )


@dataclasses.dataclass(frozen=True)
class PhasePartition:
    """Support structure of u = u_R, w = -K^-1 u, v = v_G.

    s1 indexes the irreducible block of R (u > 0 exactly there), s1_tilde
    the extra support w picks up, sa the irreducible block of G (v > 0
    exactly there), and sb_tilde the phases where all three vanish. s1,
    s1_tilde and sb_tilde are pairwise disjoint and together with sa cover
    every phase; sa must intersect s1 union s1_tilde (that intersection is
    the sign property v^T w > 0).
    """

    s1: frozenset
    s1_tilde: frozenset
    sb_tilde: frozenset
    sa: frozenset
    u: np.ndarray
    w: np.ndarray
    v: np.ndarray


def _support(vec, rtol=ZERO_PATTERN_RTOL):
    scale = float(np.max(np.abs(vec)))
    return frozenset(int(i) for i in np.nonzero(np.abs(vec) > rtol * scale)[0])


def _nontrivial_block(mat, what):
    scale = max(kernel.inf_norm(mat), np.finfo(float).tiny)
    comps = kernel.scc_partition(mat, tol=ZERO_PATTERN_RTOL * scale)
    blocks = [c for c in comps if not c.trivial]
    if len(blocks) != 1:
        raise ValueError(
            f"{what} pattern has {len(blocks)} nontrivial strongly connected "
            "components, expected exactly one"
        )
    return frozenset(blocks[0].vertices)


def phase_partition(sol, perron, rtol=ZERO_PATTERN_RTOL):
    """Assemble the phase partition and assert its sign table.

    Violations raise ValueError: they contradict structure every valid
    instance must have (u > 0 exactly on R's irreducible block, v > 0
    exactly on G's, w = -K^-1 u positive exactly on s1 and s1_tilde, and
    nonempty s1, sa with sa meeting the support of w).
    """
    if perron.u_r is None or perron.v_g is None:
        raise ValueError("solution-side Perron vectors missing")
    n = sol.k.shape[0]
    s1 = _nontrivial_block(sol.r, "R")
    sa = _nontrivial_block(sol.g, "G")
    u = perron.u_r
    v = perron.v_g
    w = -kernel.solve_linear(sol.k, u)
    supp_u, supp_w, supp_v = _support(u, rtol), _support(w, rtol), _support(v, rtol)
    if supp_u != s1:
        raise ValueError(f"support of u_R {sorted(supp_u)} != s1 {sorted(s1)}")
    if supp_v != sa:
        raise ValueError(f"support of v_G {sorted(supp_v)} != sa {sorted(sa)}")
    if not s1 <= supp_w:
        raise ValueError("w = -K^-1 u_R must be positive on all of s1")
    if not s1 or not sa:
        raise ValueError("s1 and sa must be nonempty")
    if not (sa & supp_w):
        raise ValueError(
            "sa does not meet the support of w: v^T K^-1 u_R would vanish"
        )
    s1_tilde = supp_w - s1
    sb_tilde = frozenset(range(n)) - s1 - s1_tilde - sa
    if not np.all(w >= -rtol * np.max(np.abs(w))):
        raise ValueError("w = -K^-1 u_R has a negative entry")
    return PhasePartition(
        s1=s1, s1_tilde=s1_tilde, sb_tilde=sb_tilde, sa=sa, u=u, w=w, v=v
    )


DET_SEED = 20260808


def _det_points(xi_values, count=DET_POINT_COUNT, seed=DET_SEED):
    """Deterministic sample points away from the shift poles."""
    rng = np.random.default_rng(seed)
    points = []
    while len(points) < count:
        z = complex(1.37 * np.exp(2j * np.pi * rng.uniform()))
        if all(abs(z - xi) > 0.05 for xi in xi_values):
            points.append(z)
    return points


def _det_identity_cert(model, transform, tol=DET_RTOL, seed=DET_SEED, xi_amp=0.0):
    """Spot check of the determinant surgery identity at random points:
    right: det B_r(z) (z - xi_n) = z det B(z); left: det B_l(z)
    (z - xi_{n+1}) = -xi_{n+1} det B(z) (det(I - z/(z-xi_{n+1}) S) =
    -xi_{n+1}/(z - xi_{n+1}) for idempotent rank-one S); double: the
    product of both."""
    poly = model.poly()
    poly_s = transform.shifted.poly()
    kind = transform.kind
    worst = 0.0
    for z in _det_points((transform.xi_n, transform.xi_n1), seed=seed):
        db = poly.det_b(z)
        dbs = poly_s.det_b(z)
        if kind is shift_mod.ShiftKind.RIGHT:
            lhs, rhs = dbs * (z - transform.xi_n), z * db
        elif kind is shift_mod.ShiftKind.LEFT:
            lhs, rhs = dbs * (z - transform.xi_n1), -transform.xi_n1 * db
        else:
            lhs = dbs * (z - transform.xi_n) * (z - transform.xi_n1)
            rhs = -transform.xi_n1 * z * db
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    return _cert(f"{kind.value}:det-identity", worst, max(tol, xi_amp))


def _surgery_expected(rootset, transform):
    expected = rootset
    if transform.kind in (shift_mod.ShiftKind.RIGHT, shift_mod.ShiftKind.DOUBLE):
        expected = expected.without_closest(transform.xi_n).with_value(0.0)
    if transform.kind in (shift_mod.ShiftKind.LEFT, shift_mod.ShiftKind.DOUBLE):
        expected = expected.without_closest(transform.xi_n1).with_value(np.inf)
    return expected


def _spectrum_replacement_cert(name, shifted_mat, original_mat, removed,
                               tol=DET_RTOL, seed=None):
    """Certify spectrum(shifted) = spectrum(original) with `removed` -> 0.

    Checked as det(zI - M_s)(z - removed) = z det(zI - M): two monic
    polynomials of degree n+1 agreeing at n+2 points are identical, and
    determinant evaluation away from the spectra stays well conditioned
    even when a structural zero-row cluster makes the eigenvalues
    themselves defective (where eigensolvers lose half their digits or
    worse).
    """
    n = shifted_mat.shape[0]
    eye = np.eye(n)
    worst = 0.0
    points = _det_points(
        (removed,), count=max(DET_POINT_COUNT, n + 2),
        seed=DET_SEED if seed is None else seed,
    )
    for z in points:
        lhs = np.linalg.det(z * eye - shifted_mat) * (z - removed)
        rhs = z * np.linalg.det(z * eye - original_mat)
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    return _cert(name, worst, tol)


def _base_certs(model, cls, sol, perron, samples):
    bm, b0, bp = model.a_minus, model.b_zero(), model.a_plus
    g, r, ghat, rhat, k, khat = sol.g, sol.r, sol.ghat, sol.rhat, sol.k, sol.khat
    certs = [
        _cert("eq:G", solvers.residual_g(bm, b0, bp, g), EQ_TOL),
        _cert("eq:R", solvers.residual_r(bm, b0, bp, r), EQ_TOL),
        _cert("eq:Ghat", solvers.residual_ghat(bm, b0, bp, ghat), EQ_TOL),
        _cert("eq:Rhat", solvers.residual_rhat(bm, b0, bp, rhat), EQ_TOL),
        _cert("id:K-forms", kernel.inf_norm(k - (b0 + r @ bm)), IDENTITY_TOL),
        _cert("id:Khat-forms", kernel.inf_norm(khat - (b0 + rhat @ bp)), IDENTITY_TOL),
        _cert("id:A1=-RK", kernel.inf_norm(bp + r @ k), IDENTITY_TOL),
        _cert("id:A1=-Khat.Ghat", kernel.inf_norm(bp + khat @ ghat), IDENTITY_TOL),
        _cert("id:A-1=-KG", kernel.inf_norm(bm + k @ g), IDENTITY_TOL),
        _cert("id:A-1=-Rhat.Khat", kernel.inf_norm(bm + rhat @ khat), IDENTITY_TOL),
        _cert("id:A1.G=R.A-1", kernel.inf_norm(bp @ g - r @ bm), IDENTITY_TOL),
        _cert("id:A-1.Ghat=Rhat.A1", kernel.inf_norm(bm @ ghat - rhat @ bp), IDENTITY_TOL),
        check_mmatrix(-k, "-K"),
        check_mmatrix(-khat, "-Khat"),
    ]
    certs.extend(check_sign_property(sol, perron))
    rho_g = kernel.spectral_radius(g)
    rho_r = kernel.spectral_radius(r)
    rho_ghat = kernel.spectral_radius(ghat)
    rho_rhat = kernel.spectral_radius(rhat)
    # extracting eigenvalues from a near-coalescent pair loses accuracy
    # like eps over the gap between the splitting roots; exactly null
    # instances carry exact xi = 1 and keep the strict tolerance
    if cls.kind is model_mod.Kind.NULL_RECURRENT:
        spec_tol = SPECTRAL_TOL
    else:
        gap = max(cls.xi_n1 - cls.xi_n, np.finfo(float).eps)
        spec_tol = max(SPECTRAL_TOL, 1e3 * np.finfo(float).eps / gap)
    certs.append(_cert("spec:rho(G)=rho(Rhat)", abs(rho_g - rho_rhat), spec_tol))
    certs.append(_cert("spec:rho(R)=rho(Ghat)", abs(rho_r - rho_ghat), spec_tol))
    certs.append(_cert("spec:rho(G)=xi_n", abs(rho_g - cls.xi_n), spec_tol))
    certs.append(
        _cert("spec:1/rho(R)=xi_n1", abs(1.0 / rho_r - cls.xi_n1), spec_tol)
    )
    eig_r = np.linalg.eigvals(r)
    eig_r_recip = np.divide(1.0, eig_r, out=np.full_like(eig_r, np.inf), where=eig_r != 0)
    certs.append(
        _cert(
            "spec:eig(G)+1/eig(R)=roots(B)",
            matpoly.multiset_distance(
                np.concatenate([np.linalg.eigvals(g), eig_r_recip]), cls.roots
            ),
            ROOT_MATCH_TOL,
        )
    )
    poly = model.poly()
    certs.append(
        _cert(
            "factor:phi",
            matpoly.factorization_residual(
                poly, matpoly.Factorization("z", r, k, g), samples
            ),
            FACTOR_TOL,
        )
    )
    certs.append(
        _cert(
            "factor:phi-reversed",
            matpoly.factorization_residual(
                poly, matpoly.Factorization("z_inverse", rhat, khat, ghat), samples
            ),
            FACTOR_TOL,
        )
    )
    if sol.w is None:
        w_note = "W series diverges at null recurrence"
        certs.extend(
            _na(name, w_note)
            for name in ("W:stein", "W:inverse-identity", "W:Ghat-similarity",
                         "W:Rhat-similarity")
        )
    else:
        w = sol.w
        eye = np.eye(model.n)
        k_inv = kernel.solve_linear(k, eye)
        # ||W|| ~ 1/gap near null recurrence: absolute tolerances would
        # flag perfectly conditioned-relative solutions there
        w_scale = max(1.0, kernel.inf_norm(k) * kernel.inf_norm(w))
        certs.append(
            _cert("W:stein", kernel.inf_norm(w - g @ w @ r - k_inv),
                  IDENTITY_TOL * w_scale)
        )
        certs.append(
            _cert(
                "W:inverse-identity",
                kernel.inf_norm(k @ (eye - g @ ghat) @ w - eye),
                IDENTITY_TOL * w_scale,
            )
        )
        ghat_w, rhat_w = solvers.hats_from_w(w, g, r)
        # W itself is accurate to ~eps kappa(W) (Stein conditioning) and
        # the conjugation multiplies by kappa(W) again
        cond_w = _cond_inf(w)
        sim_tol = max(SPECTRAL_TOL, 1e2 * np.finfo(float).eps * cond_w**2)
        certs.append(
            _cert("W:Ghat-similarity", kernel.inf_norm(ghat_w - ghat), sim_tol)
        )
        certs.append(
            _cert("W:Rhat-similarity", kernel.inf_norm(rhat_w - rhat), sim_tol)
        )
    return certs


def _transform_certs(model, cls, sol, perron, transform, samples,
                     roundtrip, cr_tol, cr_max_iter, det_seed):
    kind = transform.kind.value
    shifted = transform.shifted
    bm, b0, bp = shifted.a_minus, shifted.b_zero(), shifted.a_plus
    g_s, r_s, k_s = shift_mod.shifted_gr(sol, transform)
    # Shift points extracted from a pencil with nearly coalescent roots
    # carry error ~eps/gap, which enters the shifted coefficients; exactly
    # null-recurrent instances use xi = 1 exactly and are unaffected.
    null = cls.kind is model_mod.Kind.NULL_RECURRENT
    eps = np.finfo(float).eps
    xi_amp = 0.0 if null else 1e2 * eps / max(cls.xi_n1 - cls.xi_n, eps)
    id_tol = max(IDENTITY_TOL, xi_amp)
    certs = [
        _cert(f"{kind}:eq:G_s", solvers.residual_g(bm, b0, bp, g_s), id_tol),
        _cert(f"{kind}:eq:R_s", solvers.residual_r(bm, b0, bp, r_s), id_tol),
        _cert(
            f"{kind}:id:K_s=K",
            kernel.inf_norm((b0 + bp @ g_s) - sol.k),
            id_tol,
        ),
        _cert(
            f"{kind}:roots-surgery",
            matpoly.multiset_distance(
                matpoly.roots(shifted.poly()), _surgery_expected(cls.roots, transform)
            ),
            ROOT_MATCH_TOL,
        ),
        _det_identity_cert(model, transform, seed=det_seed, xi_amp=xi_amp),
        _cert(
            f"{kind}:factor:phi_s",
            matpoly.factorization_residual(
                shifted.poly(), matpoly.Factorization("z", r_s, k_s, g_s), samples
            ),
            max(FACTOR_TOL, xi_amp),
        ),
    ]
    if transform.q is not None:
        certs.append(
            _spectrum_replacement_cert(
                f"{kind}:spec:G_s-replacement", g_s, sol.g, transform.xi_n,
                seed=det_seed,
            )
        )
    if transform.s is not None:
        certs.append(
            _spectrum_replacement_cert(
                f"{kind}:spec:R_s-replacement", r_s, sol.r, 1.0 / transform.xi_n1,
                seed=det_seed,
            )
        )
    try:
        certs.extend(
            _hat_certs(model, cls, sol, perron, transform, samples, null, xi_amp)
        )
    except (ValueError, kernel.ConvergenceError, kernel.SingularMatrixError) as exc:
        certs.append(
            Certificate(
                f"{kind}:hats", None, None, "n/a",
                f"hat transport unavailable: {exc}",
            )
        )
    if roundtrip:
        certs.append(
            _roundtrip_cert(model, cls, sol, transform, cr_tol, cr_max_iter, xi_amp)
        )
    return certs


def _hat_certs(model, cls, sol, perron, transform, samples, null, xi_amp=0.0):
    kind = transform.kind.value
    shifted = transform.shifted
    certs = []
    if null:
        hats = shift_mod.shifted_hats_nullrec(model, sol, perron, transform)
        rank_one_gap = kernel.inf_norm(hats.khat_rank_one - hats.khat)
        if transform.kind is shift_mod.ShiftKind.DOUBLE:
            certs.append(
                _info(
                    f"{kind}:id:Khat_d-compact",
                    rank_one_gap,
                    "compact formula Khat - u_Rhat v_Ghat^T vs defining relation",
                )
            )
            g_s, r_s, _ = shift_mod.shifted_gr(sol, transform)
            certs.append(
                _cert(
                    f"{kind}:spec:canonical-strict",
                    max(kernel.spectral_radius(g_s), kernel.spectral_radius(r_s)),
                    1.0 - 1e-6,
                )
            )
        else:
            certs.append(
                _cert(f"{kind}:id:Khat_s-rank-one", rank_one_gap, IDENTITY_TOL)
            )
    elif transform.kind is shift_mod.ShiftKind.DOUBLE:
        certs.append(
            _na(
                f"{kind}:factor:phi_s-reversed",
                "no closed form for non-null double-shift hats",
            )
        )
        return certs
    else:
        hats = shift_mod.shifted_hats_nonnull(model, sol, transform)
    hat_tol = IDENTITY_TOL
    factor_tol = FACTOR_TOL
    if not null:
        # W_s = W - (rank-one) W-product cancels two ~||W|| terms, so the
        # transported hats inherit W's absolute error, ~eps ||W||^2 from
        # the Stein conditioning, on top of the shift-point error
        amp = 1e2 * np.finfo(float).eps * max(1.0, kernel.inf_norm(sol.w)) ** 2 + xi_amp
        if amp > 1e-2:
            certs.append(
                _na(
                    f"{kind}:factor:phi_s-reversed",
                    f"transport conditioning exhausted (amplification {amp:.1e}): "
                    "no verifiable digits in double precision at this root gap",
                )
            )
            return certs
        hat_tol = max(IDENTITY_TOL, amp)
        factor_tol = max(FACTOR_TOL, amp)
    certs.append(_cert(f"{kind}:eq:Ghat_s", hats.residuals["Ghat_s"], hat_tol))
    certs.append(_cert(f"{kind}:eq:Rhat_s", hats.residuals["Rhat_s"], hat_tol))
    certs.append(
        _cert(
            f"{kind}:factor:phi_s-reversed",
            matpoly.factorization_residual(
                shifted.poly(),
                matpoly.Factorization("z_inverse", hats.rhat, hats.khat, hats.ghat),
                samples,
            ),
            factor_tol,
        )
    )
    return certs


def _roundtrip_cert(model, cls, sol, transform, cr_tol, cr_max_iter, xi_amp=0.0):
    kind = transform.kind.value
    shifted = transform.shifted
    bm, b0, bp = shifted.a_minus, shifted.b_zero(), shifted.a_plus
    try:
        g_cr, _ = solvers.solve_min_g(bm, b0, bp, tol=cr_tol, max_iter=cr_max_iter)
        r_cr, _ = solvers.derive_r_k(b0, bp, g_cr, nonneg=False)
        g_rec, r_rec = shift_mod.recover_gr(g_cr, r_cr, transform, model)
    except kernel.ConvergenceError as exc:
        return Certificate(
            f"{kind}:roundtrip", float("inf"), ROUNDTRIP_TOL, "fail", str(exc)
        )
    if cls.kind is model_mod.Kind.NULL_RECURRENT:
        res = max(
            solvers.residual_g(model.a_minus, model.b_zero(), model.a_plus, g_rec),
            solvers.residual_r(model.a_minus, model.b_zero(), model.a_plus, r_rec),
        )
        return _cert(f"{kind}:roundtrip", res, ROUNDTRIP_TOL,
                     "recovered pair vs original equations")
    gap = max(
        float(np.max(np.abs(g_rec - sol.g))),
        float(np.max(np.abs(r_rec - sol.r))),
    )
    return _cert(f"{kind}:roundtrip", gap, max(ROUNDTRIP_TOL, xi_amp),
                 "recovered pair vs direct solve")


def check_identity_suite(model, cls=None, sol=None, perron=None,
                         kinds=("right", "left", "double"), samples=16,
                         roundtrip=True, cr_tol=solvers.CR_TOL,
                         cr_max_iter=solvers.CR_MAX_ITER, det_seed=DET_SEED):
    """Run every certificate on one instance: the coupling identities and
    factorizations of the base problem, then per shift kind the surgery,
    transport, hat, and round-trip checks."""
    if cls is None:
        cls = model_mod.classify(model)
    if sol is None:
        sol = shift_mod.reference_solution(model, cls)
    if perron is None:
        perron = model_mod.perron_data(model, cls)
    if perron.v_ghat is None:
        perron = model_mod.complete_perron_data(perron, sol)
    certs = _base_certs(model, cls, sol, perron, samples)
    for kind in kinds:
        transform = shift_mod.build_transform(model, cls, perron, kind)
        certs.extend(
            _transform_certs(
                model, cls, sol, perron, transform, samples,
                roundtrip, cr_tol, cr_max_iter, det_seed,
            )
        )
    return certs
