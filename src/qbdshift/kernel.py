"""Dense real-matrix primitives: norms, the inverse with one condition
test, spectral radius (power iteration with a Collatz-Wielandt stop and a
stall rule, a dense eigensolve as fallback), Perron vectors at a known
root (one bordered solve), irreducibility (boolean reachability), Stein
equation (Smith doubling).

The power iteration runs on a + cI, c a quarter of a's largest row sum.
Any c > 0 makes a + cI aperiodic, so the iteration converges on periodic
input too (Perron-Frobenius). Its rate is at worst (c + |lambda_2|)/(c +
rho), which rises towards 1 as c grows; the row sum bounds rho, so this c
keeps the rate well below its value at c = 1 (half the steps on the
benchmark's matrices). A smaller c saves few more steps and, on periodic
input, where lambda_2 lies on the circle of rho, drives the rate towards
1 as well.

Everything here works on plain ``numpy.ndarray`` matrices. Inputs are never
mutated; all functions are pure and thread-safe.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = [
    "ConvergenceError",
    "SingularMatrixError",
    "inf_norm",
    "inverse",
    "is_irreducible",
    "perron",
    "spectral_radius",
    "stein_solve",
]

# Defaults: 1e-12 relative for linear algebra, 1e-10 for eigen-residuals.
LINALG_RTOL = 1e-12
EIGEN_RTOL = 1e-10
PIVOT_RTOL = 1e-14

# Power iteration for a radius stalls, and a dense eigensolve takes over,
# when past STALL_STEPS steps its Collatz-Wielandt bracket, closing at the
# rate of the last STALL_STEPS steps, would need more than STALL_STEPS
# further steps. A window, not one step, also catches a bracket that
# closes like 1/k (a defective dominant eigenvalue), which loses less
# than 0.1% per step from k ~ 1000 on.
STALL_STEPS = 50
# The power iteration runs on a + POWER_SHIFT ||a||_inf I: for a nonnegative
# a, ||a||_inf is its largest row sum.
POWER_SHIFT = 0.25

# Cap on Smith-doubling steps in stein_solve: after k steps the sum covers
# 2^k terms, and the divergence guard rho(G) rho(R) < 1 - 1e-12 needs at
# most ~46.
STEIN_MAX_DOUBLINGS = 64


class SingularMatrixError(np.linalg.LinAlgError):
    """A pivot is exactly zero or the condition number is above 1/PIVOT_RTOL."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance within its cap."""

    def __init__(self, message, iterations=None, residual=None, solution=None):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual
        self.solution = solution


def as_square(m, name="matrix"):
    """Validate and return `m` as a finite square 2-d float array."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{name} must be square, got shape {a.shape}")
    # the array method skips np.all's wrapper, most of the cost of a call
    # on a matrix of a few entries
    if not np.isfinite(a).all():
        raise ValueError(f"{name} has non-finite entries")
    return a


def inf_norm(m):
    """Max absolute row sum for 2-d input, max absolute entry for 1-d."""
    a = np.asarray(m)
    if not a.size:
        return 0.0
    # abs and the array methods skip the np.abs, np.sum and np.max wrappers
    if a.ndim == 1:
        return float(abs(a).max())
    return float(abs(a).sum(axis=1).max())


def _power(a):
    """(radius, steps): Perron radius of nonnegative `a` by power iteration
    on a + cI from x = e, c = POWER_SHIFT times the largest row sum of a,
    and the number of steps it took. rho(a + cI) = rho(a) + c, and c > 0
    makes a + cI aperiodic for every nonzero a; the zero matrix gives 0 at
    the first step.

    The Collatz-Wielandt bounds min_i (Mx)_i/x_i <= rho(M) <= max_i
    (Mx)_i/x_i hold for every positive x. The loop stops when they close
    to LINALG_RTOL relative to rho + c and returns the midpoint less c.
    They close exactly when the dominant vector is positive. Past
    STALL_STEPS steps, a bracket of width w_k that shrank to w_k from
    w_{k-S} over the last S = STALL_STEPS steps needs more than S further
    steps at that rate to reach the target t exactly when w_k^2 > t
    w_{k-S}: that is a stall (structural zeros in the dominant vector, a
    slow rate, a defective dominant eigenvalue), and the radius is None.
    """
    shift = POWER_SHIFT * inf_norm(a)
    shifted = a + shift * np.eye(a.shape[0])
    x = np.ones(a.shape[0])
    widths = []
    # a vector entry that underflows to 0 makes a NaN bracket: a stall
    with np.errstate(divide="ignore", invalid="ignore"):
        for k in itertools.count():
            y = shifted @ x
            ratios = y / x
            # the array methods skip np.min's dispatch, half a step's cost at n = 8
            lo, hi = float(ratios.min()), float(ratios.max())
            x = y / y.max()
            target = LINALG_RTOL * hi
            if hi - lo <= target:
                return (lo + hi) / 2.0 - shift, k + 1
            if k >= STALL_STEPS and not (hi - lo) ** 2 <= target * widths[k - STALL_STEPS]:
                return None, k + 1
            widths.append(hi - lo)


def spectral_radius(m):
    """Spectral radius of a square real matrix: the Collatz-Wielandt
    midpoint of `_power` for a nonnegative matrix, the largest eigenvalue
    modulus when the power iteration stalls or `m` has negative entries.
    """
    a = as_square(m)
    if a.shape[0] == 1:
        return float(abs(a[0, 0]))
    radius = None if (a < 0.0).any() else _power(a)[0]
    if radius is None:
        return float(np.max(np.abs(np.linalg.eigvals(a))))
    return radius


def perron(m, root):
    """Right Perron vector of a nonnegative matrix at its Perron root
    `root`, which the caller knows, at unit infinity norm. The left vector
    of `m` is the right vector of its transpose, `perron(m.T, root)`.

    One bordered solve [[M - root I, e], [e^T, 0]] [x; mu] = [0; 1]: the
    normalisation e^T x = 1 takes the place of the equation that the
    singular M - root I lacks, and the border is nonsingular when `root`
    is a simple eigenvalue (Stewart, Introduction to the Numerical
    Solution of Markov Chains, 1994). Entries that are structurally zero
    carry the root's error over the eigenvalue gap. Raises ValueError for
    a negative entry or a zero root (a nilpotent matrix),
    SingularMatrixError for a singular border, ConvergenceError when the
    residual exceeds EIGEN_RTOL max(root, 1): `root` is then no
    eigenvalue of `m`.
    """
    a = as_square(m)
    if (a < 0.0).any():
        raise ValueError("perron requires a nonnegative matrix")
    if root == 0.0:
        raise ValueError("a nilpotent matrix has no Perron vector")
    n = a.shape[0]
    bordered = np.ones((n + 1, n + 1))
    bordered[:n, :n] = a - root * np.eye(n)
    bordered[n, n] = 0.0
    rhs = np.zeros(n + 1)
    rhs[n] = 1.0
    x = _gesv(np.linalg.solve, bordered, rhs)[:n]
    x /= abs(x).max()
    residual = inf_norm(a @ x - root * x)
    if residual > EIGEN_RTOL * max(root, 1.0):
        raise ConvergenceError("Perron residual above tolerance", residual=residual)
    return x


def _gesv(solve, a, *rhs):
    """solve(a, *rhs) for one LAPACK gesv (LU with partial pivoting),
    raising SingularMatrixError on an exactly zero pivot."""
    try:
        return solve(a, *rhs)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("matrix is exactly singular") from None


def inverse(m):
    """M^-1 by LU with partial pivoting plus one refinement step: the one
    way the package forms a real inverse. np.linalg.inv runs the gesv of
    np.linalg.solve(M, I) and gives the same bits.

    Raises SingularMatrixError when a pivot is exactly zero or
    ||M||_inf ||M^-1||_inf exceeds 1/PIVOT_RTOL.
    """
    a = as_square(m, "M")
    inv = _gesv(np.linalg.inv, a)
    if inf_norm(a) * inf_norm(inv) > 1.0 / PIVOT_RTOL:
        raise SingularMatrixError("matrix is numerically singular")
    return inv + inv @ (np.eye(a.shape[0]) - a @ inv)


def _reaches_all(pattern):
    """True iff every vertex is reachable from vertex 0 along edges i -> j
    with pattern[i, j]; one boolean frontier step per path length."""
    seen = np.zeros(len(pattern), dtype=bool)
    seen[0] = True
    frontier = seen
    while frontier.any():
        frontier = pattern[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def is_irreducible(m):
    """True iff the graph with edge i -> j iff m[i, j] > 0 is strongly
    connected: vertex 0 reaches every vertex and every vertex reaches it."""
    pattern = as_square(m) > 0.0
    return _reaches_all(pattern) and _reaches_all(pattern.T)


def stein_solve(g, r, c, radius_product):
    """Unique solution W of the Stein equation W - G W R = C.

    `radius_product` is rho(G) rho(R), which the caller has computed.
    Requires it below 1 - 1e-12 (raises ConvergenceError otherwise; the
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
    if radius_product >= 1.0 - 1e-12:
        raise ConvergenceError(
            f"rho(G)*rho(R) = {radius_product:.17g} >= 1: Stein series diverges "
            "(null-recurrent input; use the shifted route)",
            residual=radius_product,
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
    if residual > max(LINALG_RTOL * scale, 100 * np.finfo(float).eps):
        raise ConvergenceError("Stein residual above tolerance", residual=residual)
    return w
