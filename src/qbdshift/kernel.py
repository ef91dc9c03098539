"""Dense real-matrix primitives: norms, linear solves, spectral radius,
Perron pairs (power iteration, one dense eigensolve as fallback), strongly
connected components (scipy.sparse.csgraph), Stein equation (Smith
doubling).

Everything here works on plain ``numpy.ndarray`` matrices. Inputs are never
mutated; all functions are pure and thread-safe.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

__all__ = [
    "ConvergenceError",
    "PerronPair",
    "ReducibleMatrixError",
    "Scc",
    "SingularMatrixError",
    "dominant_pair",
    "inf_norm",
    "is_irreducible",
    "perron_pair",
    "scc_partition",
    "solve_linear",
    "spectral_radius",
    "stein_solve",
]

# Defaults: 1e-12 relative for linear algebra, 1e-10 for eigen-residuals.
LINALG_RTOL = 1e-12
EIGEN_RTOL = 1e-10
PIVOT_RTOL = 1e-14

# Power/Collatz-Wielandt iteration gives up and falls back to a dense
# eigendecomposition beyond this convergence ratio.
SLOW_RATIO = 0.999

# Cap on Smith-doubling steps in stein_solve: after k steps the sum covers
# 2^k terms, and the divergence guard rho(G) rho(R) < 1 - 1e-12 needs at
# most ~46.
STEIN_MAX_DOUBLINGS = 64


class SingularMatrixError(np.linalg.LinAlgError):
    """A pivot fell below the singularity threshold."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance within its cap."""

    def __init__(self, message, iterations=None, residual=None, solution=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.solution = solution


class ReducibleMatrixError(ValueError):
    """An operation requiring an irreducible pattern got a reducible one."""


def as_square(m, name="matrix"):
    """Validate and return `m` as a finite square 2-d float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite entries")
    return a


def inf_norm(m):
    """Max absolute row sum for 2-d input, max absolute entry for 1-d."""
    a = np.asarray(m)
    if a.ndim == 1:
        return float(np.max(np.abs(a))) if a.size else 0.0
    return float(np.max(np.sum(np.abs(a), axis=1))) if a.size else 0.0


def spectral_radius(m, rtol=LINALG_RTOL, max_iter=20000):
    """Spectral radius of a square real matrix.

    For a nonnegative matrix the radius is bracketed by Collatz-Wielandt
    bounds min_i (Mx)_i/x_i <= rho <= max_i (Mx)_i/x_i (valid for any
    positive x), iterated on M + I to break periodicity; the returned value
    is the midpoint of the final enclosure. If the bounds fail to close
    within `max_iter` (reducible or defective dominant part), or the matrix
    has negative entries, a dense eigendecomposition is used.
    """
    a = as_square(m)
    n = a.shape[0]
    if n == 1:
        return float(abs(a[0, 0]))
    if np.any(a < 0.0):
        return float(np.max(np.abs(np.linalg.eigvals(a))))
    # Collatz-Wielandt on the aperiodic companion M + I; rho(M+I) = rho(M)+1.
    shifted = a + np.eye(n)
    x = np.ones(n)
    for _ in range(max_iter):
        y = shifted @ x
        ratios = y / x
        lo, hi = float(np.min(ratios)), float(np.max(ratios))
        if hi - lo <= rtol * hi:
            return (lo + hi) / 2.0 - 1.0
        nrm = float(np.max(y))
        if nrm == 0.0:
            return 0.0
        x = y / nrm
    return float(np.max(np.abs(np.linalg.eigvals(a))))


@dataclasses.dataclass(frozen=True)
class PerronPair:
    """Perron radius with right/left eigenvectors and the scaling applied."""

    radius: float
    right: np.ndarray
    left: np.ndarray
    normalization: dict


def _normalize(vec, rule):
    if rule == "sum":
        scale = float(np.sum(vec))
    elif rule == "max":
        scale = float(np.max(np.abs(vec)))
    else:
        raise ValueError(f"unknown norm rule {rule!r}")
    if scale == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return vec / scale, scale


def _power_vector(a, rtol, max_iter):
    """Right dominant eigenvector of nonnegative `a` via power iteration
    on a + I. Returns None if convergence is too slow (ratio > SLOW_RATIO).
    """
    n = a.shape[0]
    shifted = a + np.eye(n)
    x = np.full(n, 1.0 / n)
    prev_delta = np.inf
    for k in range(max_iter):
        y = shifted @ x
        y /= np.max(np.abs(y))
        delta = float(np.max(np.abs(y - x)))
        x = y
        if delta <= rtol:
            return x
        if k > 50 and delta > SLOW_RATIO * prev_delta and delta > 1e-6:
            return None
        prev_delta = delta
    return None


def _dense_dominant(a):
    """Right and left dominant eigenvectors of `a` from one dense
    decomposition, sign-fixed and polished by power steps on a + I.

    Among eigenvalues of (numerically) maximal modulus the one with the
    largest real part is taken: for a nonnegative matrix that is the real
    Perron root even when a periodic block puts rotated copies on the
    same circle. Both vectors belong to that one eigenvalue.
    """
    vals, lefts, rights = scipy.linalg.eig(a, left=True, right=True)
    top = np.max(np.abs(vals))
    candidates = np.flatnonzero(np.abs(vals) >= (1.0 - 1e-9) * top)
    i = candidates[int(np.argmax(np.real(vals[candidates])))]
    shifted = a + np.eye(a.shape[0])
    out = []
    for v, mat in ((rights[:, i], shifted), (lefts[:, i], shifted.T)):
        v = np.real(v)
        if v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        for _ in range(8):
            v = mat @ v
            v /= np.max(np.abs(v))
        out.append(v)
    return tuple(out)


def perron_pair(m, norm_rule="sum", rtol=LINALG_RTOL, max_iter=20000):
    """Perron radius and positive right/left eigenvectors of a nonnegative
    irreducible matrix.

    `norm_rule` is "sum" (entries sum to 1) or "max" (unit infinity norm)
    and is applied to both vectors independently. Power iteration finds
    each vector; when it converges too slowly the dense eigensolve of
    dominant_pair takes over. Raises ReducibleMatrixError when the pattern
    is reducible, and ValueError if the computed vectors are not strictly
    positive (cannot happen for a genuinely irreducible input).
    """
    a = as_square(m)
    if np.any(a < 0.0):
        raise ValueError("perron_pair requires a nonnegative matrix")
    if not is_irreducible(a):
        raise ReducibleMatrixError("matrix pattern is reducible")
    radius = spectral_radius(a, rtol=rtol)
    right = _power_vector(a, rtol, max_iter)
    left = _power_vector(a.T, rtol, max_iter)
    if right is None or left is None:
        dense_right, dense_left = _dense_dominant(a)
        right = dense_right if right is None else right
        left = dense_left if left is None else left
    if np.min(right) <= 0.0 or np.min(left) <= 0.0:
        raise ValueError("Perron vectors not strictly positive")
    right, sr = _normalize(right, norm_rule)
    left, sl = _normalize(left, norm_rule)
    scale = max(radius, 1.0)
    res_r = inf_norm(a @ right - radius * right)
    res_l = inf_norm(left @ a - radius * left)
    if max(res_r, res_l) > EIGEN_RTOL * scale:
        raise ConvergenceError(
            "Perron residual above tolerance", residual=max(res_r, res_l)
        )
    return PerronPair(
        radius=radius,
        right=right,
        left=left,
        normalization={"rule": norm_rule, "right_scale": sr, "left_scale": sl},
    )


def dominant_pair(m, rtol=LINALG_RTOL):
    """Like perron_pair but for a possibly reducible nonnegative matrix.

    Returns (radius, right, left) where the vectors are nonnegative
    (entries that are structurally zero may carry eigensolver noise up to
    ~1e-14; callers threshold). Vectors have unit infinity norm. Both come
    from one dense eigendecomposition, polished by a few power steps.
    """
    a = as_square(m)
    radius = spectral_radius(a, rtol=rtol)
    if radius == 0.0:
        raise ValueError("dominant_pair undefined for a nilpotent matrix")
    right, left = _dense_dominant(a)
    scale = max(radius, 1.0)
    if inf_norm(a @ right - radius * right) > EIGEN_RTOL * scale:
        raise ConvergenceError("dominant right eigenvector did not converge")
    if inf_norm(left @ a - radius * left) > EIGEN_RTOL * scale:
        raise ConvergenceError("dominant left eigenvector did not converge")
    return radius, right, left


def solve_linear(m, b, pivot_rtol=PIVOT_RTOL):
    """Solve M X = B by LU with partial pivoting plus one refinement step.

    Raises SingularMatrixError when a pivot falls below
    pivot_rtol * ||M||_inf.
    """
    a = as_square(m, "M")
    rhs = np.asarray(b, dtype=float)
    squeeze = rhs.ndim == 1
    if squeeze:
        rhs = rhs[:, None]
    if rhs.shape[0] != a.shape[0]:
        raise ValueError("B is not conformal with M")
    with warnings.catch_warnings():
        # the pivot check below raises; scipy's own warning is redundant
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    threshold = pivot_rtol * max(inf_norm(a), np.finfo(float).tiny)
    if np.min(np.abs(np.diag(lu))) < threshold:
        raise SingularMatrixError("matrix is numerically singular")
    x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    x += scipy.linalg.lu_solve((lu, piv), rhs - a @ x, check_finite=False)
    return x[:, 0] if squeeze else x


@dataclasses.dataclass(frozen=True)
class Scc:
    """One strongly connected component; trivial = singleton, no self-loop."""

    vertices: tuple
    trivial: bool


def scc_partition(m, tol=0.0):
    """Strongly connected components of the graph with edge i -> j iff
    m[i, j] > tol, returned in topological order (sources first).

    scipy labels the components in reverse topological order (sinks
    first), so they are walked from the highest label down.
    """
    a = as_square(m)
    pattern = a > tol
    count, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(pattern), directed=True, connection="strong"
    )
    components = []
    for label in range(count - 1, -1, -1):
        comp = tuple(int(v) for v in np.flatnonzero(labels == label))
        trivial = len(comp) == 1 and not pattern[comp[0], comp[0]]
        components.append(Scc(comp, trivial))
    return components


def is_irreducible(m):
    """True iff the pattern of `m` forms a single strongly connected class."""
    return len(scc_partition(m)) == 1


def stein_solve(g, r, c, tol=LINALG_RTOL):
    """Unique solution W of the Stein equation W - G W R = C.

    Requires rho(G) * rho(R) < 1 (raises ConvergenceError otherwise; the
    product reaching 1 signals a divergent series). Smith doubling sums
    W = sum_i G^i C R^i in blocks of doubling length: W += G_k W R_k with
    G_{k+1} = G_k^2, R_{k+1} = R_k^2, until the added block falls below
    machine precision relative to W. The number of steps grows like
    log2(1 / (1 - rho(G) rho(R))).
    """
    a = as_square(g, "G")
    b = as_square(r, "R")
    rhs = as_square(c, "C")
    n = a.shape[0]
    if b.shape[0] != n or rhs.shape[0] != n:
        raise ValueError("G, R, C must share one dimension")
    product = spectral_radius(a) * spectral_radius(b)
    if product >= 1.0 - 1e-12:
        raise ConvergenceError(
            f"rho(G)*rho(R) = {product:.17g} >= 1: Stein series diverges "
            "(null-recurrent input; use the shifted route)",
            residual=product,
        )
    w = rhs.copy()
    g_k, r_k = a, b
    for _ in range(STEIN_MAX_DOUBLINGS):
        term = g_k @ w @ r_k
        w += term
        if inf_norm(term) <= np.finfo(float).eps * inf_norm(w):
            break
        g_k = g_k @ g_k
        r_k = r_k @ r_k
    else:
        raise ConvergenceError("Stein doubling did not converge")
    residual = inf_norm(w - a @ w @ b - rhs)
    scale = inf_norm(rhs) + inf_norm(w) * (1.0 + inf_norm(a) * inf_norm(b))
    if residual > max(tol * scale, 100 * np.finfo(float).eps):
        raise ConvergenceError("Stein residual above tolerance", residual=residual)
    return w
