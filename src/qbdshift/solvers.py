"""Minimal solutions of the four quadratic matrix equations of a QBD.

For coefficients (B_-1, B_0, B_1), B_0 = A_0 - I, the equations are

    (1) B_-1 + B_0 X + B_1 X^2 = 0        minimal solution G
    (2) X^2 B_-1 + X B_0 + B_1 = 0        minimal solution R
    (3) B_-1 X^2 + B_0 X + B_1 = 0        minimal solution Ghat
    (4) B_-1 + X B_0 + X^2 B_1 = 0        minimal solution Rhat

Cyclic reduction is the one solver: each sweep squares the spectral
ratio of the splitting roots, so convergence is quadratic whenever the
n-th and (n+1)-th roots of B(z) are separated, and degrades to linear
(rate 1/2) exactly at null recurrence. The loop stops when an off-diagonal
block falls to the tolerance or when the next sweep provably cannot change
a bit of Dh, the block that gives G. On a double-shifted triple both
blocks die quadratically, and that second test saves the last sweep.
Equations (3) and (4) are
equations (1) and (2) of the reversed triple (B_1, B_0, B_-1), so the hat
residuals are residual_g and residual_r of the reversed triple, and (2)
and (4) follow from (1) and (3) through K^-1, the inverse the reduction
formed or one formed anew.
"""

from __future__ import annotations

import dataclasses
import functools
import warnings

import numpy as np

from . import kernel, matpoly

__all__ = [
    "CrOutcome",
    "SolutionSet",
    "compute_w",
    "cyclic_reduction",
    "derive_r_k",
    "hats_from_w",
    "residual_g",
    "residual_r",
]

CR_TOL = 1e-14
CR_MAX_ITER = 64
# A root of B(z) this close to |z| = 1, and this far from z = 1, is on the
# unit circle away from the unit root.
UNIT_CIRCLE_TOL = 1e-6
# Why a null-recurrent solution set has no W (SolutionSet.w is None).
NULL_W_REASON = "W series diverges at null recurrence"
_EPS = float(np.finfo(float).eps)


def residual_g(bm, b0, bp, x):
    return kernel.inf_norm(bm + b0 @ x + bp @ x @ x)


def residual_r(bm, b0, bp, x):
    return kernel.inf_norm(x @ x @ bm + x @ b0 + bp)


@dataclasses.dataclass(frozen=True)
class CrOutcome:
    """Cyclic-reduction result, its convergence record and Dh^-1 (K^-1).

    `converged` is True when the loop stopped on either of its tests: an
    off-diagonal block at most `tol`, or a next sweep that could not change
    a bit of Dh; False when it ran out of `max_iter` sweeps."""

    g: np.ndarray
    dh_inv: np.ndarray
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
    and gives G = -Dh^-1 B_-1; `dh_inv` keeps Dh^-1 for R = -B_1 K^-1.

    The loop also stops, converged, when the next sweep cannot change a
    bit of Dh. That sweep subtracts U D^-1 L, and Neumann's bound gives
    ||U D^-1 L|| <= ||L|| ||U|| ||X|| / (1 - theta), where X is the D^-1
    of the sweep just made and theta = ||X|| (||L X U|| + ||U X L||) is
    taken on that sweep's blocks. The loop stops when theta < 1/2 and the
    bound is under eps/16 min |Dh_ij|, half of what keeps the bits of
    every entry; the three extra norms are taken only once ||L|| ||U|| <=
    eps. Where both blocks die, as on a double-shifted triple, this saves
    the last sweep; where one stays of order one, as on a one-sided shift
    at null recurrence, it never fires, nor does it on a Dh with a zero
    entry.

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

    def norms():
        return kernel.inf_norm(low), kernel.inf_norm(up)

    n_low, n_up = norms()
    first = last = min(n_low, n_up)
    settled = False
    k = 0
    while last > tol and not settled and k < max_iter:
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
        n_low, n_up = norms()
        last = min(n_low, n_up)
        # The next sweep would subtract U D^-1 L from Dh, with D = X^-1 - lxu
        # - uxl for X = `inv`, so ||D^-1|| <= ||X|| / (1 - theta) by Neumann's
        # bound, theta = ||X|| (||lxu|| + ||uxl||) < 1. An entry a of Dh
        # keeps its bits under an update below eps |a| / 8; stop when the
        # bound is under half that at the smallest entry. The scalar
        # pre-test skips the extra norms on sweeps far from it.
        if last > tol and n_low * n_up <= _EPS:
            x_norm = kernel.inf_norm(inv)
            theta = x_norm * (kernel.inf_norm(lxu) + kernel.inf_norm(uxl))
            settled = (theta < 0.5 and n_low * n_up * x_norm / (1.0 - theta)
                       < _EPS / 16 * abs(diag_hat).min())
    blocks = [np.asarray(b, float) for b in (b_minus, b_zero, b_plus)]
    bound = res_tol if res_tol is not None else max(tol, 1e-12)
    dh_inv = kernel.inverse(diag_hat)
    g = -(dh_inv @ blocks[0])
    res = residual_g(*blocks, g)
    if res > bound:
        raise kernel.ConvergenceError(
            f"cyclic reduction stalled after {k} sweeps (residual {res:.3e} > {bound:.1e})",
            iterations=k, residual=res, solution=g)
    rate = (last / first) ** (1.0 / max(k, 1)) if first > 0 else 0.0
    return CrOutcome(g=g, dh_inv=dh_inv, iterations=k, converged=last <= tol or settled,
                     residual=res, rate_estimate=float(rate))


def derive_r_k(b_zero, b_plus, g, k_inv=None):
    """K = B_0 + B_1 G and R = -B_1 K^-1 refined once, R + (-B_1 - R K) K^-1,
    from a solved G; `k_inv` is K^-1 if the caller has it (CrOutcome.dh_inv)."""
    b0 = np.asarray(b_zero, dtype=float)
    bp = np.asarray(b_plus, dtype=float)
    k = b0 + bp @ g
    try:
        k_inv = kernel.inverse(k) if k_inv is None else k_inv
    except kernel.SingularMatrixError as exc:
        raise kernel.SingularMatrixError(
            "K = B_0 + B_1 G is singular: G does not solve the equation "
            "(for a valid QBD, -K is a nonsingular M-matrix)"
        ) from exc
    r = -(bp @ k_inv)
    r = r + (-bp - r @ k) @ k_inv
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


def hats_from_w(w, g, r, w_inv=None):
    """(Ghat, Rhat) = (W R W^-1, W^-1 G W), W^-1 `w_inv` if given; raises on singular W."""
    w_inv = kernel.inverse(w) if w_inv is None else w_inv
    return w @ r @ w_inv, w_inv @ g @ w


@dataclasses.dataclass(frozen=True)
class SolutionSet:
    """Minimal solutions with their coupling factors and solve metadata.

    `null` marks a null-recurrent model, where the W series diverges.
    `route` names the route that solved the set: the kind of the forward
    shift ("right", "left", "double") for the certified set. `residuals`
    are the infinity-norm residuals of the four equations ("G", "R",
    "Ghat", "Rhat") as that route evaluated them.
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
        certificates that check them read the same values."""
        return self._spectra_and_roots[:2]

    @functools.cached_property
    def roots(self):
        """The RootSet of B(z), eig(G) with 1/eig(R): the report's roots and
        the unit-circle warning read the same array."""
        return self._spectra_and_roots[2]

    @functools.cached_property
    def _spectra_and_roots(self):
        """(eig(G), eig(R), RootSet); the first read warns on unit-circle
        roots away from z = 1, a sign of several final classes."""
        eig_g, eig_r = np.linalg.eigvals(self.g), np.linalg.eigvals(self.r)
        roots = matpoly.RootSet.from_spectra(eig_g, eig_r)
        z = roots.finite
        extra = int(np.count_nonzero((np.abs(np.abs(z) - 1.0) <= UNIT_CIRCLE_TOL)
                                     & (np.abs(z - 1.0) > UNIT_CIRCLE_TOL)))
        if extra:
            warnings.warn(f"{extra} unit-circle root(s) of B(z) away from z=1: the chain "
                          "may have more than one final class", stacklevel=5)
        return eig_g, eig_r, roots

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
