"""Machine-checkable certificates: equation residuals, coupling identities,
M-matrix and sign properties, factorization residuals, root surgery, and
the round trip through each shift.

The shift certificates read hypotheses and coefficients, not spectra or
determinants of shifted matrices: root surgery reads those of Brauer's
rank-one theorem, the determinant identities a matrix identity.

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
    "check_identity_suite",
    "check_mmatrix",
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
ROUNDTRIP_TOL = 1e-8
# The points spec:eig(G)+1/eig(R)=roots(B) reads det B(z) at: 1.37 exp(i pi
# (k + 1/2) / 8), k = 0..7, all at least 1.37 sin(pi/16) ~ 0.27 above the
# real axis, where xi_n and xi_{n+1} lie, and no two of them conjugate.
ROOT_POINTS = tuple((1.37 * np.exp(1j * np.pi * (np.arange(DET_POINT_COUNT) + 0.5)
                                   / DET_POINT_COUNT)).tolist())


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
        # the fields are immutable: asdict's deep copy of each buys nothing;
        # JSON has no infinity, so a non-finite residual is written null
        residual = self.residual if np.isfinite(self.residual or 0.0) else None
        return {"name": self.name, "residual": residual, "tolerance": self.tolerance,
                "status": self.status, "context": self.context}


def _cert(name, residual, tolerance, context=""):
    status = "pass" if residual <= tolerance else "fail"
    return Certificate(name, float(residual), float(tolerance), status, context)


def _info(name, residual, context=""):
    return Certificate(name, float(residual), None, "info", context)


def _na(name, context):
    return Certificate(name, None, None, "n/a", context)


def check_mmatrix(m, name="M"):
    """Certify that `m` is a nonsingular M-matrix: off-diagonal entries
    nonpositive and an entrywise (near-)nonnegative inverse."""
    a = kernel.as_square(m)
    return _mmatrix_cert(a, lambda: kernel.inverse(a), name)


def _mmatrix_cert(a, inverse, name):
    """check_mmatrix of `a`, with its inverse from `inverse()`, which may
    raise SingularMatrixError."""
    off = a - np.diag(np.diag(a))
    violation = max(float(np.max(off)), 0.0)
    try:
        inv = inverse()
    except kernel.SingularMatrixError:
        return Certificate(
            f"mmatrix:{name}", float("inf"), MMATRIX_TOL, "fail", "numerically singular"
        )
    violation = max(violation, -min(float(np.min(inv)), 0.0))
    return _cert(f"mmatrix:{name}", violation, MMATRIX_TOL)


def _projector_defect(p):
    """The larger of |trace(P) - 1| and ||P^2 - P|| / ||P||: an idempotent
    matrix of trace 1 is a rank-one projector u v^T with v^T u = 1."""
    return max(abs(float(np.trace(p)) - 1.0),
               kernel.inf_norm(p @ p - p) / (kernel.inf_norm(p) + 1e-300))


def _eigenpair_residual(m, u, root, p):
    """The larger of ||M u - root u|| / (||M|| ||u||) and ||P u - u|| /
    ||u||: (root, u) is an eigenpair of M, and u spans the range of P.

    With these and P a rank-one projector (_projector_defect), Brauer's
    theorem (Duke Math. J. 19, 1952) gives eig(M - root P) = eig(M) with
    root replaced by 0. For r = M u - root u, M - root P is an exact
    Brauer shift of M - r u^T / (u^T u), a matrix within ||r|| ||u||_1 /
    ||u||_2^2 of M.
    """
    size = kernel.inf_norm(u)
    return max(kernel.inf_norm(m @ u - root * u) / (kernel.inf_norm(m) * size + 1e-300),
               kernel.inf_norm(p @ u - u) / size)


def _product(p, q):
    """Coefficients, lowest degree first, of the product of two matrix
    polynomials given by theirs; a float coefficient c stands for c I."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + (a @ b if np.ndim(a) and np.ndim(b) else a * b)
    return out


def _det_identity_cert(model, transform, xi_amp, defects):
    """The determinant surgery identity from the matrix identity behind it.

    Right: D(z) = B(z) ((z - xi_n) I + xi_n Q) - (z - xi_n) B_r(z), which
    is z B(xi_n) Q for a triple built by the shift formulas; left: D(z) =
    ((z - xi_{n+1}) I - z S) B(z) - (z - xi_{n+1}) B_l(z), which is -z^2
    xi_{n+1}^-1 S B(xi_{n+1}); double: both factors around B(z) against
    (z - xi_{n+1}) (z - xi_n) B_d(z). D is formed from the shifted
    triple's own blocks. With Q and S rank-one projectors (`defects`),
    det((z - xi_n) I + xi_n Q) = z (z - xi_n)^(n-1) and det((z -
    xi_{n+1}) I - z S) = -xi_{n+1} (z - xi_{n+1})^(n-1), so D = 0 gives
    det B_r(z) (z - xi_n) = z det B(z), det B_l(z) (z - xi_{n+1}) =
    -xi_{n+1} det B(z) and their product for every z. The residual is the
    largest of the defects and of the largest entry of sum_k |D_k| over
    that of the summed moduli of both products' coefficients.
    """
    eye = np.eye(model.n)
    left, right, moved = [1.0], [1.0], [1.0]
    if transform.q is not None:
        right = [transform.xi_n * (transform.q - eye), 1.0]
        moved = _product(moved, [-transform.xi_n, 1.0])
    if transform.s is not None:
        left = [-transform.xi_n1, eye - transform.s]
        moved = _product(moved, [-transform.xi_n1, 1.0])
    b, b_s = ([t.a_minus, t.b_zero(), t.a_plus] for t in (model, transform.shifted))
    kept = _product(_product(left, b), right)
    shifted = _product(moved, b_s)
    gap = sum(np.abs(a - b) for a, b in zip(kept, shifted))
    scale = sum(np.abs(a) + np.abs(b) for a, b in zip(kept, shifted))
    return _cert(f"{transform.kind.value}:det-identity",
                 max([gap.max() / scale.max(), *defects]), max(DET_RTOL, xi_amp))


def _factor_roots_cert(model, sol):
    """Certify that eig(G) together with 1/eig(R) are the roots of B(z):
    phi(z) = (I - zR) K (I - z^-1 G) gives det B(z) = det K prod(z -
    lambda_G) prod(1 - z mu_R), checked at ROOT_POINTS. A zero eigenvalue of
    R is a root at infinity and drops out of the product as the degree of
    det B(z) falls."""
    eig_g, eig_r = sol.spectra
    det_k = np.linalg.det(sol.fwd.k)
    worst = 0.0
    for z in ROOT_POINTS:
        db = complex(np.linalg.det(model.b_of(z)))
        rhs = det_k * np.prod(z - eig_g) * np.prod(1.0 - z * eig_r)
        worst = max(worst, abs(db - rhs) / (abs(db) + abs(rhs) + 1e-300))
    return _cert("spec:eig(G)+1/eig(R)=roots(B)", worst, ROOT_MATCH_TOL)


# the W:* certificates with the floors of their tolerances
W_TOL_FLOORS = {"W:stein": IDENTITY_TOL, "W:inverse-identity": IDENTITY_TOL,
                "W:Ghat-similarity": SPECTRAL_TOL, "W:Rhat-similarity": SPECTRAL_TOL}


# each claim of `_side_certs` by its name on the reversed triple, whose G, R
# and K are Ghat, Rhat and Khat of the model
HAT_NAMES = {
    "eq:G": "eq:Ghat", "eq:R": "eq:Rhat", "id:K-forms": "id:Khat-forms",
    "id:A1=-RK": "id:A-1=-Rhat.Khat", "id:A-1=-KG": "id:A1=-Khat.Ghat",
    "id:A1.G=R.A-1": "id:A-1.Ghat=Rhat.A1", "mmatrix:-K": "mmatrix:-Khat",
    "sign:v_G.K^-1.u_R": "sign:v_Ghat.Khat^-1.u_Rhat", "factor:phi": "factor:phi-reversed"}


def _side_certs(triple, route, v, u):
    """The claims of (G, R, K) of `route` on `triple`: (1), (2), the two
    forms of K, the coupling identities, -K an M-matrix, v^T K^-1 u at
    least |SIGN_TOL| below zero (v, u the Perron vectors of G and R; the
    margin is the context) and phi(z) = (I - zR) K (I - z^-1 G). Each is
    evaluated from the matrices judged, not read from route.residuals,
    which a route altered with dataclasses.replace keeps."""
    bm, b0, bp = triple.a_minus, triple.b_zero(), triple.a_plus
    g, r, k = route.g, route.r, route.k
    pairing = float(v @ route.k_inv @ u)
    return [
        _cert("eq:G", solvers.residual_g(bm, b0, bp, g), EQ_TOL),
        _cert("eq:R", solvers.residual_r(bm, b0, bp, r), EQ_TOL),
        _cert("id:K-forms", kernel.inf_norm(k - (b0 + r @ bm)), IDENTITY_TOL),
        _cert("id:A1=-RK", kernel.inf_norm(bp + r @ k), IDENTITY_TOL),
        _cert("id:A-1=-KG", kernel.inf_norm(bm + k @ g), IDENTITY_TOL),
        _cert("id:A1.G=R.A-1", kernel.inf_norm(bp @ g - r @ bm), IDENTITY_TOL),
        # the inverse of -K is -K^-1 bit for bit: the route's one inverse serves
        _mmatrix_cert(-k, lambda: -route.k_inv, "-K"),
        _cert("sign:v_G.K^-1.u_R", pairing, SIGN_TOL, f"margin {-pairing:.6g}"),
        _cert("factor:phi", matpoly.factorization_residual(triple, r, k, g), FACTOR_TOL),
    ]


def _base_certs(model, cls, sol, perron):
    # the hat claims are the forward claims of the reversed triple
    certs = _side_certs(model, sol.fwd, perron.v_g, perron.u_r)
    certs += [dataclasses.replace(c, name=HAT_NAMES[c.name]) for c in
              _side_certs(model.reversed(), sol.rev, perron.v_ghat, perron.u_rhat)]
    # the radii the solution-side Perron vectors were solved at; rho(G) and
    # rho(R) from the spectra the root certificate reads
    rho_g, rho_r, rho_ghat, rho_rhat = sol.radii
    # spectral radii and splitting roots near coalescence lose accuracy
    # like eps over the gap between the splitting roots; exactly null
    # instances carry exact xi = 1 and keep the strict tolerance
    if cls.kind is model_mod.Kind.NULL_RECURRENT:
        spec_tol = SPECTRAL_TOL
    else:
        gap = max(cls.xi_n1 - cls.xi_n, np.finfo(float).eps)
        spec_tol = max(SPECTRAL_TOL, 1e3 * np.finfo(float).eps / gap)
    certs.append(_cert("spec:rho(G)=rho(Rhat)", abs(rho_g - rho_rhat), spec_tol))
    certs.append(_cert("spec:rho(R)=rho(Ghat)", abs(rho_r - rho_ghat), spec_tol))
    # xi comes from the class-matched shifted solve in classify, not from
    # this solution: these two compare the reference G and R with it
    certs.append(_cert("spec:rho(G)=xi_n", abs(rho_g - cls.xi_n), spec_tol))
    certs.append(
        _cert("spec:1/rho(R)=xi_n1", abs(1.0 / rho_r - cls.xi_n1), spec_tol)
    )
    certs.append(_factor_roots_cert(model, sol))
    try:
        w = sol.w
    except kernel.ConvergenceError as exc:
        # W is evidence, not a solver step: a G or R wrong enough to lift
        # rho(G) rho(R) to 1 fails them, as a failed route its round trip
        return certs + [Certificate(name, float("inf"), tol, "fail", str(exc))
                        for name, tol in W_TOL_FLOORS.items()]
    if w is None:
        return certs + [_na(name, solvers.NULL_W_REASON) for name in W_TOL_FLOORS]
    g, r, k = sol.g, sol.r, sol.fwd.k
    eye = np.eye(model.n)
    w_inv = kernel.inverse(w)
    # ||W|| ~ 1/gap near null recurrence: absolute tolerances would
    # flag perfectly conditioned-relative solutions there
    w_scale = max(1.0, kernel.inf_norm(k) * kernel.inf_norm(w))
    certs.append(
        _cert("W:stein", kernel.inf_norm(w - g @ w @ r - sol.fwd.k_inv),
              IDENTITY_TOL * w_scale)
    )
    certs.append(
        _cert(
            "W:inverse-identity",
            kernel.inf_norm(k @ (eye - g @ sol.ghat) @ w - eye),
            IDENTITY_TOL * w_scale,
        )
    )
    # W itself is accurate to ~eps kappa(W) (Stein conditioning) and
    # the conjugation multiplies by kappa(W) again
    cond_w = kernel.inf_norm(w) * kernel.inf_norm(w_inv)
    sim_tol = max(SPECTRAL_TOL, 1e2 * np.finfo(float).eps * cond_w**2)
    certs.append(
        _cert("W:Ghat-similarity", kernel.inf_norm(w @ r @ w_inv - sol.ghat), sim_tol)
    )
    certs.append(
        _cert("W:Rhat-similarity", kernel.inf_norm(w_inv @ g @ w - sol.rhat), sim_tol)
    )
    return certs


def _transform_certs(model, cls, sol, perron, transform, route):
    kind = transform.kind.value
    shifted = transform.shifted
    bm, b0, bp = shifted.a_minus, shifted.b_zero(), shifted.a_plus
    g_s, r_s, k_s = shift_mod.shifted_gr(sol, transform)
    # phi_s(z) = (I - zR_s) K (I - z^-1 G_s) (factor:phi_s) puts the roots
    # of B_s(z) at eig(G_s) and 1/eig(R_s); G_s = G - xi_n Q and R_s^T =
    # R^T - xi_{n+1}^-1 S^T are Brauer shifts, whose hypotheses are read
    # as the transform holds them
    claims = {}
    if transform.q is not None:
        claims["G"] = (sol.g, transform.u_g, transform.xi_n, transform.q)
    if transform.s is not None:
        claims["R"] = (sol.r.T, transform.v_r, 1.0 / transform.xi_n1, transform.s.T)
    defects = {name: _projector_defect(p) for name, (*_, p) in claims.items()}
    brauer = {name: max(defects[name], _eigenpair_residual(*claim))
              for name, claim in claims.items()}
    # A splitting root solved for near coalescence carries error ~eps/gap,
    # which enters the shifted coefficients; exactly null-recurrent
    # instances use xi = 1 exactly and are unaffected.
    null = cls.kind is model_mod.Kind.NULL_RECURRENT
    eps = np.finfo(float).eps
    xi_amp = 0.0 if null else 1e2 * eps / max(cls.xi_n1 - cls.xi_n, eps)
    id_tol = max(IDENTITY_TOL, xi_amp)
    certs = [
        _cert(f"{kind}:eq:G_s", solvers.residual_g(bm, b0, bp, g_s), id_tol),
        _cert(f"{kind}:eq:R_s", solvers.residual_r(bm, b0, bp, r_s), id_tol),
        _cert(
            f"{kind}:id:K_s=K",
            kernel.inf_norm((b0 + bp @ g_s) - k_s),
            id_tol,
        ),
        _cert(f"{kind}:roots-surgery", max(brauer.values()), ROOT_MATCH_TOL),
        _det_identity_cert(model, transform, xi_amp, defects.values()),
        _cert(
            f"{kind}:factor:phi_s",
            matpoly.factorization_residual(shifted, r_s, k_s, g_s),
            max(FACTOR_TOL, xi_amp),
        ),
    ]
    certs.extend(_cert(f"{kind}:spec:{name}_s-replacement", residual, DET_RTOL)
                 for name, residual in brauer.items())
    try:
        certs.extend(_hat_certs(sol, perron, transform, null, xi_amp))
    except (ValueError, kernel.ConvergenceError, kernel.SingularMatrixError) as exc:
        # the names _hat_certs gives on success, whichever guard stopped
        # the transport: one set per class and kind
        names = ["eq:Ghat_s", "eq:Rhat_s", "factor:phi_s-reversed"]
        if null:
            names[:0] = (["id:Khat_d-compact", "spec:canonical-strict"]
                         if transform.kind is shift_mod.ShiftKind.DOUBLE
                         else ["id:Khat_s-rank-one"])
        certs.extend(_na(f"{kind}:{name}", f"hat transport unavailable: {exc}")
                     for name in names)
    if route is not None:
        certs.append(_roundtrip_cert(sol, kind, route, xi_amp))
    return certs


def _hat_certs(sol, perron, transform, null, xi_amp):
    """The shifted hat checks of one kind; raises where the transport is
    unavailable (inadmissible vector or exhausted conditioning)."""
    kind = transform.kind.value
    shifted = transform.shifted
    certs = []
    hat_tol = IDENTITY_TOL
    factor_tol = FACTOR_TOL
    if null:
        hats = shift_mod.shifted_hats_nullrec(sol, perron, transform)
        rank_one_gap = kernel.inf_norm(hats.khat_rank_one - hats.khat)
        if transform.kind is shift_mod.ShiftKind.DOUBLE:
            certs.append(
                _info(
                    f"{kind}:id:Khat_d-compact",
                    rank_one_gap,
                    "compact formula Khat - u_Rhat v_Ghat^T vs defining relation",
                )
            )
            # Brauer: eig(G_s) is eig(G) with the eigenvalue at xi_n
            # replaced by 0, and eig(R_s) is eig(R) with the one at
            # 1/xi_{n+1} replaced by 0 (roots-surgery)
            eig_g, eig_r = sol.spectra
            rho_s = max(_radius_without(eig_g, transform.xi_n),
                        _radius_without(eig_r, 1.0 / transform.xi_n1))
            certs.append(_cert(f"{kind}:spec:canonical-strict", rho_s, 1.0 - 1e-6))
        else:
            certs.append(
                _cert(f"{kind}:id:Khat_s-rank-one", rank_one_gap, IDENTITY_TOL)
            )
    else:
        hats = shift_mod.shifted_hats_nonnull(sol, transform)
        # W_s = W - (rank-one) W-product cancels two ~||W|| terms, so the
        # transported hats inherit W's absolute error, ~eps ||W||^2 from
        # the Stein conditioning, on top of the shift-point error
        amp = 1e2 * np.finfo(float).eps * max(1.0, kernel.inf_norm(sol.w)) ** 2 + xi_amp
        if amp > 1e-2:
            raise ValueError(
                f"transport conditioning exhausted (amplification {amp:.1e}): "
                "no verifiable digits in double precision at this root gap"
            )
        hat_tol = max(IDENTITY_TOL, amp)
        factor_tol = max(FACTOR_TOL, amp)
    certs.append(_cert(f"{kind}:eq:Ghat_s", hats.residuals["Ghat_s"], hat_tol))
    certs.append(_cert(f"{kind}:eq:Rhat_s", hats.residuals["Rhat_s"], hat_tol))
    certs.append(
        _cert(
            f"{kind}:factor:phi_s-reversed",
            matpoly.factorization_residual(shifted.reversed(), hats.rhat, hats.khat,
                                           hats.ghat),
            factor_tol,
        )
    )
    return certs


def _radius_without(eigs, removed):
    """The largest modulus among `eigs` with the one nearest `removed` left
    out (0 when none is left)."""
    rest = np.delete(eigs, np.argmin(np.abs(eigs - removed)))
    return float(np.max(np.abs(rest), initial=0.0))


def _roundtrip_cert(sol, kind, route, xi_amp):
    """The shift route of one kind (solved shifted, recovered). The kind
    the certified set was solved on (`sol.route`) reads that solve's
    recovery residual on the original equations; every other kind solved
    independently, with another shift, and its recovered (G, R) is
    compared with the certified set. `route` may be the ConvergenceError
    its solve raised."""
    if isinstance(route, kernel.ConvergenceError):
        return Certificate(
            f"{kind}:roundtrip", float("inf"), ROUNDTRIP_TOL, "fail", str(route)
        )
    if sol.route == kind:
        return _cert(f"{kind}:roundtrip", route.recovery_residual, ROUNDTRIP_TOL,
                     "recovered pair vs original equations")
    gap = max(
        float(np.max(np.abs(route.g - sol.g))),
        float(np.max(np.abs(route.r - sol.r))),
    )
    return _cert(f"{kind}:roundtrip", gap, max(ROUNDTRIP_TOL, xi_amp),
                 "recovered pair vs certified set")


def check_identity_suite(model, cls, sol, perron, transforms, routes=None):
    """Run every certificate on one instance: the claims of each side (the
    hat side's are the forward claims of the reversed triple), the
    spectral and W certificates that couple the sides, then for each shift
    kind the surgery, transport and hat checks.

    `perron` is the completed Perron data of `sol` (ValueError without
    the solution-side vectors); each kind is judged on
    its transform from that data (free vectors v_Ghat and u_Rhat) in
    `transforms`, as shift_routes builds them. `routes` maps a kind to its
    route, or to the ConvergenceError its solve raised; a kind with a
    route gets a round-trip certificate. The suite solves nothing.
    """
    if perron.v_g is None or perron.u_rhat is None:
        raise ValueError("solution-side Perron vectors missing")
    routes = routes or {}
    certs = _base_certs(model, cls, sol, perron)
    for kind in shift_mod.ShiftKind:
        certs.extend(_transform_certs(model, cls, sol, perron, transforms[kind],
                                      routes.get(kind)))
    return certs
