"""Minimal solutions of the four quadratic matrix equations of a QBD.

For coefficients (B_-1, B_0, B_1), B_0 = A_0 - I, the equations are

    (1) B_-1 + B_0 X + B_1 X^2 = 0        minimal solution G
    (2) X^2 B_-1 + X B_0 + B_1 = 0        minimal solution R
    (3) B_-1 X^2 + B_0 X + B_1 = 0        minimal solution Ghat
    (4) B_-1 + X B_0 + X^2 B_1 = 0        minimal solution Rhat

Cyclic reduction is the one solver: each sweep squares the spectral
ratio of the splitting roots, so convergence is quadratic whenever the
n-th and (n+1)-th roots of B(z) are separated, and degrades to linear
(rate 1/2) exactly at null recurrence. Equation (3) is equation (1) for
the reversed triple (B_1, B_0, B_-1), and (2) and (4) follow from (1) and
(3) by one linear solve each.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np

from . import kernel

__all__ = [
    "CrOutcome",
    "SolutionSet",
    "compute_w",
    "cyclic_reduction",
    "derive_r_k",
    "hats_from_w",
    "residual_g",
    "residual_ghat",
    "residual_r",
    "residual_rhat",
    "solution_set",
]

CR_TOL = 1e-14
CR_MAX_ITER = 64
NEG_CLAMP = 1e-12
# A root of B(z) this close to |z| = 1, and this far from z = 1, is on the
# unit circle away from the unit root.
UNIT_CIRCLE_TOL = 1e-6
# Why a null-recurrent solution set has no W (SolutionSet.w is None).
NULL_W_REASON = "W series diverges at null recurrence"


def residual_g(bm, b0, bp, x):
    return kernel.inf_norm(bm + b0 @ x + bp @ x @ x)


def residual_r(bm, b0, bp, x):
    return kernel.inf_norm(x @ x @ bm + x @ b0 + bp)


def residual_ghat(bm, b0, bp, x):
    return kernel.inf_norm(bm @ x @ x + b0 @ x + bp)


def residual_rhat(bm, b0, bp, x):
    return kernel.inf_norm(bm + x @ b0 + x @ x @ bp)


@dataclasses.dataclass(frozen=True)
class CrOutcome:
    """Cyclic-reduction result with its convergence record."""

    g: np.ndarray
    iterations: int
    converged: bool
    residual: float
    rate_estimate: float


def cyclic_reduction(b_minus, b_zero, b_plus, tol=CR_TOL, max_iter=CR_MAX_ITER,
                     res_tol=None):
    """Minimal solution of (1) by cyclic reduction.

    Sweeps L <- -L D^-1 L, U <- -U D^-1 U, D <- D - L D^-1 U - U D^-1 L
    until min(||L||, ||U||) <= tol (the off-term that dies decides which
    splitting side converged). Dh <- Dh - U D^-1 L tends to K = B_0 + B_1 G
    and gives G = -Dh^-1 B_-1.

    G is accepted whenever its equation residual is at most res_tol
    (default max(tol, 1e-12)), converged or not; otherwise
    ConvergenceError is raised with that iterate attached. Unshifted
    null-recurrent coefficients driven at a tolerance they cannot reach
    are the expected case. res_tol=inf only reports.
    """
    low = kernel.as_square(b_minus, "b_minus").copy()
    diag = kernel.as_square(b_zero, "b_zero").copy()
    up = kernel.as_square(b_plus, "b_plus").copy()
    diag_hat = diag.copy()

    def min_norm():
        return min(kernel.inf_norm(low), kernel.inf_norm(up))

    first = last = min_norm()
    k = 0
    while last > tol and k < max_iter:
        try:
            inv = kernel.inverse(diag)
        except kernel.SingularMatrixError as exc:
            raise kernel.SingularMatrixError(
                f"singular pivot block at cyclic-reduction step {k}"
            ) from exc
        # `@` groups left to right, so these six products give the same
        # iterates as forming each triple product on its own
        low_inv = low @ inv
        up_inv = up @ inv
        lxl = low_inv @ low
        uxu = up_inv @ up
        lxu = low_inv @ up
        uxl = up_inv @ low
        low = -lxl
        up = -uxu
        diag = diag - lxu - uxl
        diag_hat = diag_hat - uxl
        k += 1
        last = min_norm()
    blocks = [np.asarray(b, float) for b in (b_minus, b_zero, b_plus)]
    bound = res_tol if res_tol is not None else max(tol, 1e-12)
    g = -kernel.solve_linear(diag_hat, blocks[0])
    res = residual_g(*blocks, g)
    if res > bound:
        raise kernel.ConvergenceError(
            f"cyclic reduction stalled after {k} sweeps (residual {res:.3e} > {bound:.1e})",
            iterations=k, residual=res, solution=g)
    rate = (last / first) ** (1.0 / max(k, 1)) if first > 0 else 0.0
    return CrOutcome(
        g=g,
        iterations=k,
        converged=last <= tol,
        residual=res,
        rate_estimate=float(rate),
    )


def derive_r_k(b_zero, b_plus, g, nonneg=True):
    """K = B_0 + B_1 G and R = -B_1 K^-1 from a solved G.

    With nonneg=True (original, unshifted problems) entries of R below
    -NEG_CLAMP raise and round-off negatives are clamped to zero; shifted
    problems pass nonneg=False since their minimal solutions may be
    genuinely signed.
    """
    b0 = np.asarray(b_zero, dtype=float)
    bp = np.asarray(b_plus, dtype=float)
    try:
        k = b0 + bp @ g
        r = -kernel.solve_linear(k.T, bp.T).T
    except kernel.SingularMatrixError as exc:
        raise kernel.SingularMatrixError(
            "K = B_0 + B_1 G is singular: G does not solve the equation "
            "(for a valid QBD, -K is a nonsingular M-matrix)"
        ) from exc
    if nonneg:
        if np.min(r) < -NEG_CLAMP:
            raise ValueError(f"R has an entry below -{NEG_CLAMP:g}: {np.min(r):.3e}")
        r = np.maximum(r, 0.0)
    return r, k


def compute_w(g, k, r, radius_product, k_inv=None):
    """W = sum_i G^i K^-1 R^i via the Stein equation W - G W R = K^-1.

    `radius_product` is rho(G) rho(R) and `k_inv` K^-1 when the caller has
    formed it already. Requires rho(G) rho(R) < 1 (not null recurrent);
    raises ConvergenceError otherwise. W solves nothing: it couples the
    two canonical factorizations (Ghat = W R W^-1, K (I - G Ghat) W = I),
    and the W:* certificates check those identities.
    """
    k_inv = kernel.inverse(k) if k_inv is None else k_inv
    return kernel.stein_solve(g, r, k_inv, radius_product)


def hats_from_w(w, g, r):
    """(Ghat, Rhat) = (W R W^-1, W^-1 G W); raises on singular W."""
    w_inv = kernel.inverse(w)
    return w @ r @ w_inv, w_inv @ g @ w


@dataclasses.dataclass(frozen=True)
class SolutionSet:
    """Minimal solutions with their coupling factors and solve metadata.

    `null` marks a null-recurrent model, where the W series diverges.
    `route` names the route that solved the set: the kind of the forward
    shift ("right", "left", "double") for the certified set.
    """

    g: np.ndarray
    r: np.ndarray
    ghat: np.ndarray
    rhat: np.ndarray
    k: np.ndarray
    khat: np.ndarray
    null: bool
    route: str
    iterations: dict
    residuals: dict

    @functools.cached_property
    def w(self):
        """W = sum_i G^i K^-1 R^i, None at null recurrence: certificate
        evidence, computed on first read (one Stein solve) and kept. The
        solutions never need it; a ConvergenceError from the Stein solve
        is kept as well (`_stein_outcome`) and raised at every read."""
        w, refusal = self._stein_outcome
        if refusal is not None:
            raise refusal
        return w

    @functools.cached_property
    def _stein_outcome(self):
        """(W, None), or (None, the Stein solve's ConvergenceError): a
        cached_property keeps a value but not an exception. The Stein
        guard reads rho(G) rho(R) from `radii`."""
        if self.null:
            return None, None
        rho_g, rho_r, _, _ = self.radii
        try:
            return compute_w(self.g, self.k, self.r, rho_g * rho_r, self.k_inv), None
        except kernel.ConvergenceError as exc:
            return None, exc

    @functools.cached_property
    def k_inv(self):
        """K^-1, formed on first read and kept: W, its Stein certificate,
        the sign certificate and the M-matrix check of -K read the one
        inverse (-K^-1 is the inverse of -K bit for bit). A
        SingularMatrixError is raised at every read."""
        return kernel.inverse(self.k)

    @functools.cached_property
    def khat_inv(self):
        """Khat^-1, formed on first read and kept, as `k_inv` is."""
        return kernel.inverse(self.khat)

    @functools.cached_property
    def spectra(self):
        """(eig(G), eig(R)), one eigensolve each: the roots of B(z) and the
        certificates that check them read the same values.

        The roots of B(z) are eig(G) together with 1/eig(R), so the first
        read warns on unit-circle roots away from z = 1, a sign of several
        final classes.
        """
        eig_g, eig_r = np.linalg.eigvals(self.g), np.linalg.eigvals(self.r)
        roots = np.append(eig_g, 1.0 / eig_r[eig_r != 0])
        extra = int(np.count_nonzero((np.abs(np.abs(roots) - 1.0) <= UNIT_CIRCLE_TOL)
                                     & (np.abs(roots - 1.0) > UNIT_CIRCLE_TOL)))
        if extra:
            warnings.warn(f"{extra} unit-circle root(s) of B(z) away from z=1: the chain "
                          "may have more than one final class", stacklevel=3)
        return eig_g, eig_r

    @functools.cached_property
    def radii(self):
        """(rho(G), rho(R), rho(Ghat), rho(Rhat)), computed on first read
        and kept: the solution-side Perron vectors (complete_perron_data),
        the spec:rho certificates and the Stein guard of `w` read the same
        values. rho(G) and rho(R) come from `spectra`, rho(Ghat) and
        rho(Rhat) from kernel.spectral_radius, since nothing needs their
        spectra."""
        eig_g, eig_r = self.spectra
        return (float(np.max(np.abs(eig_g))), float(np.max(np.abs(eig_r))),
                kernel.spectral_radius(self.ghat), kernel.spectral_radius(self.rhat))


def solution_set(model, g, r, ghat, rhat, k, khat, iterations, null, route):
    """The SolutionSet of solved (G, R, Ghat, Rhat, K, Khat), whichever
    route solved them (named by `route`), with the infinity-norm residuals
    of the four equations. W is not computed here: `SolutionSet.w`
    computes it on first read."""
    bm, b0, bp = model.a_minus, model.b_zero(), model.a_plus
    residuals = {
        "G": residual_g(bm, b0, bp, g),
        "R": residual_r(bm, b0, bp, r),
        "Ghat": residual_ghat(bm, b0, bp, ghat),
        "Rhat": residual_rhat(bm, b0, bp, rhat),
    }
    return SolutionSet(g=g, r=r, ghat=ghat, rhat=rhat, k=k, khat=khat, null=null,
                       route=route, iterations=iterations, residuals=residuals)
