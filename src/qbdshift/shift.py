"""Rank-one spectral shifts for QBD polynomials.

The right shift moves the splitting root xi_n of B(z) to 0 by multiplying
phi(z) on the right with I + xi_n/(z - xi_n) Q, Q = u_G v^T, v^T u_G = 1;
the left shift moves xi_{n+1} to infinity from the left with S = w v_R^T,
v_R^T w = 1; the double shift does both. The shifted coefficients are no
longer stochastic, but the minimal solutions of the shifted equations are
exact rank-one updates of the original ones, which is what makes the
solve-shifted-then-recover route work: the shifted problem has an open
spectral gap (quadratic cyclic reduction) even when the original one is
null recurrent.
"""

from __future__ import annotations

import dataclasses
import enum
import functools

import numpy as np

from . import kernel, model as model_mod, solvers

__all__ = [
    "ShiftKind",
    "ShiftRoute",
    "ShiftTransform",
    "ShiftedHats",
    "build_transform",
    "matched_transform",
    "recover_gr",
    "reference_solution",
    "shifted_gr",
    "shifted_hats_nonnull",
    "shifted_hats_nullrec",
    "shift_routes",
    "solve_via",
]

PAIRING_TOL = 1e-13
A0_FORMS_RTOL = 1e-7
RECOVER_RES_TOL = 1e-10
ADMISSIBILITY_MARGIN = 1e-8


class ShiftKind(str, enum.Enum):
    RIGHT = "right"
    LEFT = "left"
    DOUBLE = "double"


@dataclasses.dataclass(frozen=True)
class ShiftTransform:
    """One shift: projector(s), shift points, and the shifted triple.

    q = u_G v^T and s = w v_R^T are idempotent under the unit pairings
    v^T u_G = 1 and v_R^T w = 1; q is present for right/double, s for
    left/double. u_g and v_r are the Perron vectors the shift was built
    from, kept for every kind. The shifted triple's rows need not sum to
    one.
    """

    kind: ShiftKind
    q: np.ndarray | None
    s: np.ndarray | None
    xi_n: float
    xi_n1: float
    v: np.ndarray | None
    w: np.ndarray | None
    u_g: np.ndarray
    v_r: np.ndarray
    shifted: model_mod.QbdTriple


def _paired(vec, against, name):
    p = float(vec @ against)
    if abs(p) < PAIRING_TOL:
        raise ValueError(f"pairing {name} is numerically zero ({p:.3e})")
    return vec / p


def build_transform(model, cls, perron, kind, v=None, w=None):
    """Build the right, left or double shift of `model`.

    right: (A_-1 (I-Q), A_0 + xi_n A_1 Q, A_1) moves xi_n to zero;
    left: (A_-1, A_0 + xi_{n+1}^-1 S A_-1, (I-S) A_1) moves xi_{n+1} to
    infinity; double does both. The free vectors default to v_Ghat and
    u_Rhat when the Perron data is complete (they satisfy every
    admissibility condition) and to e otherwise (admissible a priori).
    Each block is updated in O(n^2): A_-1 - (A_-1 u_G) v^T, A_0 + xi_n
    (A_1 u_G) v^T, A_0 + xi_{n+1}^-1 w (v_R^T A_-1), A_1 - w (v_R^T A_1).

    The double middle block subtracts c w v^T; the two forms of c,
    xi_{n+1}^-1 v_R^T A_-1 u_G = xi_n v_R^T A_1 u_G (A_1 G = R A_-1), are
    compared scaled by ||w v^T||: a mismatch means wrong Perron data.
    """
    kind = ShiftKind(kind)
    q = s = None
    a_minus, a_zero, a_plus = model.a_minus, model.a_zero, model.a_plus
    if kind is not ShiftKind.LEFT:
        if v is None:
            v = perron.v_ghat if perron.v_ghat is not None else np.ones_like(perron.u_g)
        v = _paired(np.asarray(v, dtype=float), perron.u_g, "v^T u_G")
        q = np.outer(perron.u_g, v)
        a_minus = a_minus - np.outer(model.a_minus @ perron.u_g, v)
        a_zero = a_zero + np.outer(cls.xi_n * (model.a_plus @ perron.u_g), v)
    if kind is not ShiftKind.RIGHT:
        if w is None:
            w = perron.u_rhat if perron.u_rhat is not None else np.ones_like(perron.v_r)
        w = _paired(np.asarray(w, dtype=float), perron.v_r, "v_R^T w")
        s = np.outer(w, perron.v_r)
        a_zero = a_zero + np.outer(w, (1.0 / cls.xi_n1) * (perron.v_r @ model.a_minus))
        a_plus = a_plus - np.outer(w, perron.v_r @ model.a_plus)
    if kind is ShiftKind.DOUBLE:
        cross_down = float(perron.v_r @ model.a_minus @ perron.u_g) / cls.xi_n1
        cross_up = cls.xi_n * float(perron.v_r @ model.a_plus @ perron.u_g)
        wv = np.outer(w, v)
        gap = abs(cross_down - cross_up) * kernel.inf_norm(wv)
        # equality of the forms holds to the accuracy of the Perron data and
        # of the extracted shift points (~eps over the root gap near null
        # recurrence); wrong vectors miss at the scale of the terms themselves
        scale = (abs(cross_down) + abs(cross_up)) * kernel.inf_norm(wv) + 1.0
        if gap > A0_FORMS_RTOL * scale:
            raise ValueError(
                f"the two forms of the double-shifted middle block differ by "
                f"{gap:.3e}: wrong Perron data for this model"
            )
        a_zero = a_zero - cross_down * wv
    # not validated: {kind}:det-identity certifies det B_s(z) against det
    # B(z), and cyclic reduction refuses non-finite blocks
    shifted = model_mod.QbdTriple(model.n, a_minus, a_zero, a_plus)
    return ShiftTransform(
        kind=kind, q=q, s=s, xi_n=cls.xi_n, xi_n1=cls.xi_n1,
        v=v if q is not None else None, w=w if s is not None else None,
        u_g=perron.u_g, v_r=perron.v_r, shifted=shifted,
    )


def _rank_one_update(g, r, transform, sign):
    """G + sign xi_n Q (right, double) and R + sign xi_{n+1}^-1 S (left,
    double): sign -1 maps a solution pair to the shifted one, +1 back."""
    if transform.q is not None:
        g = g + sign * (transform.xi_n * transform.q)
    if transform.s is not None:
        r = r + sign * ((1.0 / transform.xi_n1) * transform.s)
    return g, r


def shifted_gr(sol, transform):
    """Map original (G, R, K) to the shifted problem's minimal solutions:
    G_s = G - xi_n Q (right/double), R_s = R - xi_{n+1}^-1 S (left/double),
    K_s = K for every kind."""
    return (*_rank_one_update(sol.g, sol.r, transform, -1), sol.fwd.k)


def recover_gr(g_shifted, r_shifted, transform, model, res_tol=RECOVER_RES_TOL):
    """Invert the rank-one updates: G = G_s + xi_n Q, R = R_s + xi_{n+1}^-1 S.

    G = -K^-1 A_-1 and R = -A_1 K^-1, so a zero column of A_-1 is a zero
    column of G and a zero row of A_1 a zero row of R; the update leaves
    round-off there, and those entries are set to exact zeros.

    Returns (G, R, residuals), the residuals {"G": ..., "R": ...} of the
    original equations; one above res_tol means the shift was built from
    wrong xi or Perron data.
    """
    g, r = _rank_one_update(g_shifted, r_shifted, transform, 1)
    g = np.where(model.a_minus.any(axis=0), g, 0.0)
    r = np.where(model.a_plus.any(axis=1)[:, None], r, 0.0)
    bm, b0, bp = model.a_minus, model.b_zero(), model.a_plus
    residuals = {"G": solvers.residual_g(bm, b0, bp, g), "R": solvers.residual_r(bm, b0, bp, r)}
    res = max(residuals.values())
    if res > res_tol:
        raise kernel.ConvergenceError(
            f"recovered solution misses the original equations by {res:.3e}",
            residual=res,
        )
    return g, r, residuals


@dataclasses.dataclass(frozen=True)
class ShiftedHats:
    """Hat solutions of a shifted problem with their equation residuals.

    khat is the defining-relation value A_0^s - I + A_-1^s Ghat_s, which
    is what the reversed factorization of the shifted problem uses. At
    null recurrence khat_rank_one is the closed-form rank-one expression:
    it agrees with khat for right/left shifts, while for the double shift
    the compact Khat - u_Rhat v_Ghat^T is inconsistent with the defining
    relation and is kept only for the informational certificate. Off
    null recurrence w is the transported inverse-series constant W_s.
    """

    ghat: np.ndarray
    rhat: np.ndarray
    khat: np.ndarray
    residuals: dict
    khat_rank_one: np.ndarray | None = None
    w: np.ndarray | None = None


def _shifted_hats(transform, ghat_s, rhat_s, **extra):
    shifted = transform.shifted
    bm, b0, bp = shifted.a_minus, shifted.b_zero(), shifted.a_plus
    khat_s = b0 + bm @ ghat_s
    # the hat equations are (1) and (2) of the reversed triple (B_1, B_0, B_-1)
    residuals = {
        "Ghat_s": solvers.residual_g(bp, b0, bm, ghat_s),
        "Rhat_s": solvers.residual_r(bp, b0, bm, rhat_s),
    }
    return ShiftedHats(ghat=ghat_s, rhat=rhat_s, khat=khat_s, residuals=residuals, **extra)


def shifted_hats_nullrec(sol, perron, transform):
    """Closed-form hat solutions for a null-recurrent shifted problem.

    Needs the solution-side Perron vectors (complete_perron_data). The
    core M = u_Rhat v_Ghat^T / (-v_Ghat^T Khat^-1 u_Rhat) gives the double
    shift's Rhat_s = Rhat + M Khat^-1, Ghat_s = Ghat + Khat^-1 M and
    Khat_rank_one = Khat - M. A one-sided shift adds its side's term:
    right, u_G v_bar^T to Ghat_s and -(Khat u_G) v_bar^T to Khat_rank_one
    (v_bar = v_Ghat paired by v_bar^T u_G = 1); left, u_bar v_R^T to
    Rhat_s and -u_bar (v_R^T Khat) to Khat_rank_one (v_R^T u_bar = 1).
    """
    if transform.xi_n != transform.xi_n1:
        raise ValueError("closed-form null-recurrent hats need xi_n = xi_{n+1}")
    if perron.v_ghat is None or perron.u_rhat is None:
        raise ValueError("solution-side Perron vectors missing; complete them first")
    khat, khat_inv = sol.rev.k, sol.rev.k_inv
    v_gh = perron.v_ghat
    u_rh = perron.u_rhat
    pairing = float(v_gh @ khat_inv @ u_rh)
    if pairing >= -PAIRING_TOL:
        raise ValueError(
            f"v_Ghat^T Khat^-1 u_Rhat = {pairing:.3e} is not negative: "
            "sign property violated upstream"
        )
    u_core = u_rh / (-pairing)  # M = u_core v_Ghat^T, each product in O(n^2)
    rhat_s = sol.rhat + np.outer(u_core, v_gh @ khat_inv)
    ghat_s = sol.ghat + np.outer(khat_inv @ u_core, v_gh)
    khat_rank_one = khat - np.outer(u_core, v_gh)
    if transform.s is None:
        v_bar = _paired(v_gh, perron.u_g, "v_Ghat^T u_G")
        ghat_s = ghat_s + np.outer(perron.u_g, v_bar)
        khat_rank_one = khat_rank_one - np.outer(khat @ perron.u_g, v_bar)
    if transform.q is None:
        u_bar = _paired(u_rh, perron.v_r, "v_R^T u_Rhat")
        rhat_s = rhat_s + np.outer(u_bar, perron.v_r)
        khat_rank_one = khat_rank_one - np.outer(u_bar, perron.v_r @ khat)
    return _shifted_hats(transform, ghat_s, rhat_s, khat_rank_one=khat_rank_one)


def shifted_hats_nonnull(sol, transform):
    """Hat solutions of the shifted problem through W_s: Ghat_s = W_s R_s
    W_s^-1 and Rhat_s = W_s^-1 G_s W_s.

    A right step (q) takes W_r = W - xi_n Q W R and G_r = G - xi_n Q; a
    left step (s) then takes W_s = W_r - xi_{n+1}^-1 G_r W_r S and R_s =
    R - xi_{n+1}^-1 S. The double shift takes both: its triple is the left
    shift of the right-shifted one. W_s stays nonsingular when xi_n v^T
    Ghat u_G != 1 and xi_{n+1}^-1 v_R^T Rhat_r w != 1 (the default vectors
    satisfy both). The second is read from W_s^-1 by Sherman-Morrison: W_s
    = W_r - a v_R^T, a = xi_{n+1}^-1 G_r W_r w, gives 1 - val = 1 / (1 +
    v_R^T W_s^-1 a).
    """
    if sol.w is None:
        raise ValueError("W is unavailable (null recurrent input)")

    def require_margin(one_minus_val, what):
        """Refuse a step that scales det W by 1 - val, |1 - val| under
        ADMISSIBILITY_MARGIN. With the default vectors 1 - val is the
        relative root gap, which the message gives beside it."""
        if abs(one_minus_val) < ADMISSIBILITY_MARGIN:
            raise ValueError(
                f"inadmissible {what} = {1.0 - one_minus_val:.12g}: 1 - val = "
                f"{one_minus_val:.3g} is under the margin {ADMISSIBILITY_MARGIN:g}; "
                f"the relative root gap 1 - xi_n/xi_(n+1) is "
                f"{1.0 - transform.xi_n / transform.xi_n1:.3g}"
            )

    g_s, r_s = _rank_one_update(sol.g, sol.r, transform, -1)
    # Q = u_G v^T and S = w v_R^T: each step is a rank-one update in O(n^2)
    w_s = sol.w
    if transform.q is not None:
        val = transform.xi_n * float(transform.v @ sol.ghat @ transform.u_g)
        require_margin(1.0 - val, "v: xi_n v^T Ghat u_G")
        w_s = w_s - np.outer(transform.u_g, transform.xi_n * (transform.v @ w_s @ sol.r))
    if transform.s is not None:
        a = (1.0 / transform.xi_n1) * (g_s @ (w_s @ transform.w))
        w_s = w_s - np.outer(a, transform.v_r)
    w_inv = kernel.inverse(w_s)
    if transform.s is not None:
        ratio = 1.0 + float(transform.v_r @ w_inv @ a)
        require_margin(1.0 / ratio if ratio else np.inf, "w: xi_n1^-1 v_R^T Rhat w")
    ghat_s, rhat_s = solvers.hats_from_w(w_s, g_s, r_s, w_inv)
    return _shifted_hats(transform, ghat_s, rhat_s, w=w_s)


@dataclasses.dataclass(frozen=True)
class ShiftRoute:
    """Outcome of solve shifted + recover: the transform, the shifted
    problem's cyclic reduction (cr.g is G_s), the recovered (G, R), K =
    B_0 + B_1 G and the residuals {"G": ..., "R": ...} of (1) and (2) of
    the triple solved; on the reversed triple, Ghat, Rhat and Khat."""

    transform: ShiftTransform
    cr: solvers.CrOutcome
    g: np.ndarray
    r: np.ndarray
    k: np.ndarray
    residuals: dict

    @property
    def recovery_residual(self):
        """max(res_G, res_R)."""
        return max(self.residuals.values())

    @functools.cached_property
    def k_inv(self):
        """K^-1, formed on first read and kept: W, its Stein certificate,
        the sign certificate, the M-matrix check of -K and the null hats
        read the one inverse (-K^-1 is the inverse of -K bit for bit). A
        SingularMatrixError is raised at every read."""
        return kernel.inverse(self.k)


def pick_kind(cls):
    """Default shift per class: double repairs the closed gap of null
    recurrence; otherwise shift the unit root (right when it is xi_n,
    left when it is xi_{n+1})."""
    if cls.kind is model_mod.Kind.NULL_RECURRENT:
        return ShiftKind.DOUBLE
    if cls.kind is model_mod.Kind.POSITIVE_RECURRENT:
        return ShiftKind.RIGHT
    return ShiftKind.LEFT


def matched_transform(model, cls):
    """The class-matched shift (pick_kind) of `model` at the exact unit
    root, built from the a-priori vectors there: u_G = e (right), v_R =
    theta = `cls.phase_left` (left), both (double), with the free vectors
    v = w = e. It needs no solved root: the kind reads only the root it
    moves and that root's vector, and the moved root is exactly 1.0 in
    every class (xi_n of a positive-recurrent chain, xi_{n+1} of a
    transient one, both at null recurrence, and 1/1.0 = 1.0 after
    `Classification.reversed`)."""
    perron = model_mod.PerronData(u_g=np.ones(model.n), v_r=cls.phase_left)
    return build_transform(model, cls, perron, pick_kind(cls))


def solve_via(model, transform, tol=solvers.CR_TOL, max_iter=solvers.CR_MAX_ITER):
    """Solve the shifted problem of `transform` (build_transform) by cyclic
    reduction and recover (G, R) of `model`, the original problem. R_s
    reads K_s^-1 from the reduction's Dh^-1: one inverse per route."""
    shifted = transform.shifted
    b0 = shifted.b_zero()
    cr = solvers.cyclic_reduction(shifted.a_minus, b0, shifted.a_plus, tol=tol,
                                  max_iter=max_iter)
    r_s, _ = solvers.derive_r_k(b0, shifted.a_plus, cr.g, k_inv=cr.dh_inv)
    # loose solve tolerances carry into the recovered residual; the guard
    # only needs to catch wrong transforms, which miss by O(1)
    g, r, residuals = recover_gr(
        cr.g, r_s, transform, model, res_tol=max(RECOVER_RES_TOL, 10.0 * tol)
    )
    return ShiftRoute(transform=transform, cr=cr, g=g, r=r,
                      k=model.b_zero() + model.a_plus @ g, residuals=residuals)


def shift_routes(model, cls, perron):
    """(transforms, routes) by ShiftKind: each transform built once from
    the completed Perron data `perron`, and the route solved on it, or the
    ConvergenceError its solve raised; the class-matched kind's route is
    classify's solve (`cls.matched`), which recovers the same G and R."""
    transforms = {kind: build_transform(model, cls, perron, kind) for kind in ShiftKind}
    routes = {}
    for kind, transform in transforms.items():
        try:
            routes[kind] = cls.matched if kind is pick_kind(cls) else solve_via(model, transform)
        except kernel.ConvergenceError as exc:
            routes[kind] = exc
    return transforms, routes


def reference_solution(model, cls=None):
    """The certified SolutionSet of a model, named by `sol.route` after its
    forward shift kind: classify's class-matched shifted solve
    (`cls.matched`) is its forward route, and the reversed model's
    (matched_transform on the reversed classification) its reversed one,
    both at CR_TOL and CR_MAX_ITER. The shifted problems keep an open
    spectral gap in every class, so the recovered set keeps its accuracy
    as the roots coalesce, where a direct solve loses it like eps over the
    gap.
    """
    if cls is None:
        cls = model_mod.classify(model)
    rev_model = model.reversed()
    rev = solve_via(rev_model, matched_transform(rev_model, cls.reversed()))
    return solvers.SolutionSet(fwd=cls.matched, rev=rev,
                               null=cls.kind is model_mod.Kind.NULL_RECURRENT,
                               route=cls.matched.transform.kind.value)
