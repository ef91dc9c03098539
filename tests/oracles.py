"""Independent oracles for expected values: scalar closed forms via the
quadratic formula, the symmetric-circulant closed form for the 2x2
null-recurrent instance, and naive dense helpers that bypass the package
implementations."""

import cmath
import itertools
import math

import numpy as np

# Scalar instances used throughout: (a_minus, a_zero, a_plus).
P1 = (0.5, 0.2, 0.3)
N1 = (0.4, 0.2, 0.4)
T1 = (0.3, 0.2, 0.5)

# 2x2 instances.
N2 = (
    [[0.2, 0.1], [0.1, 0.2]],
    [[0.2, 0.2], [0.2, 0.2]],
    [[0.2, 0.1], [0.1, 0.2]],
)
E2 = (
    [[0.3, 0.1], [0.2, 0.2]],
    [[0.1, 0.2], [0.2, 0.1]],
    [[0.2, 0.1], [0.1, 0.2]],
)


def quadratic_roots(c0, c1, c2):
    """Roots of c0 + c1 z + c2 z^2, infinity included when c2 = 0."""
    if c2 == 0.0:
        if c1 == 0.0:
            raise ValueError("degenerate polynomial")
        return [-c0 / c1, math.inf]
    disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
    r1 = (-c1 - disc) / (2.0 * c2)
    r2 = (-c1 + disc) / (2.0 * c2)
    out = []
    for r in (r1, r2):
        out.append(r.real if abs(r.imag) < 1e-14 else r)
    return sorted(out, key=abs)


def scalar_min_root(c0, c1, c2):
    """Smallest-modulus real nonnegative root (the minimal solution)."""
    candidates = [
        r for r in quadratic_roots(c0, c1, c2)
        if not isinstance(r, complex) and r >= -1e-15 and r != math.inf
    ]
    return min(candidates, key=abs)


def scalar_solutions(a_minus, a_zero, a_plus):
    """All scalar quantities by closed form: g, r, ghat, rhat, k, khat, w
    (w is None when the chain is null recurrent)."""
    b0 = a_zero - 1.0
    g = scalar_min_root(a_minus, b0, a_plus)
    k = b0 + a_plus * g
    r = -a_plus / k
    ghat = scalar_min_root(a_plus, b0, a_minus)
    khat = b0 + a_minus * ghat
    rhat = -a_minus / khat
    w = None if abs(g * r - 1.0) < 1e-12 else (1.0 / k) / (1.0 - g * r)
    return {"g": g, "r": r, "ghat": ghat, "rhat": rhat, "k": k, "khat": khat, "w": w}


def exact_n2_g():
    """Exact minimal solution for N2 from its circulant eigenstructure:
    the [1, 1] direction carries the double unit root, the [1, -1]
    direction the scalar problem 0.1 - z + 0.1 z^2."""
    g2 = (1.0 - math.sqrt(0.96)) / 0.2
    return np.array([[1.0 + g2, 1.0 - g2], [1.0 - g2, 1.0 + g2]]) / 2.0


def exact_n2_roots():
    g2_pair = quadratic_roots(0.1, -1.0, 0.1)
    return sorted([1.0, 1.0] + [float(r) for r in g2_pair])


def naive_spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=float)))))


def naive_stationary(a):
    """Stationary row vector through a dense linear solve (replace one
    balance equation with the normalization)."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    system = (a.T - np.eye(n)).copy()
    system[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(system, rhs)


def naive_phi(a_minus, a_zero, a_plus, z):
    a_minus, a_zero, a_plus = (np.asarray(x, dtype=float) for x in (a_minus, a_zero, a_plus))
    eye = np.eye(a_zero.shape[0])
    return a_minus / z + (a_zero - eye) + z * a_plus


def fixed_point_g(a_minus, a_zero, a_plus, sweeps):
    """Plain substochastic fixed point, independent of the package."""
    a_minus, a_zero, a_plus = (np.asarray(x, dtype=float) for x in (a_minus, a_zero, a_plus))
    x = np.zeros_like(a_minus)
    for _ in range(sweeps):
        x = a_minus + a_zero @ x + a_plus @ x @ x
    return x


def kron_stein(g, r, c):
    """W with W - G W R = C through the n^2 x n^2 Kronecker system
    (I - R^T (x) G) vec(W) = vec(C), vec stacking columns."""
    g, r, c = (np.asarray(x, dtype=float) for x in (g, r, c))
    n = g.shape[0]
    system = np.eye(n * n) - np.kron(r.T, g)
    return np.linalg.solve(system, c.flatten(order="F")).reshape((n, n), order="F")


def reachability(pattern):
    """Reflexive-transitive closure of a boolean adjacency matrix by
    repeated boolean squaring: reach[i, j] iff j is reachable from i."""
    reach = np.asarray(pattern, dtype=bool) | np.eye(len(pattern), dtype=bool)
    while True:
        step = reach | ((reach.astype(int) @ reach.astype(int)) > 0)
        if np.array_equal(step, reach):
            return reach
        reach = step


def chordal_scalar(x, y):
    """Chordal distance of two complex scalars on the Riemann sphere, one
    case at a time; a value with an infinite part is the point at
    infinity. Values are taken as numpy complex scalars, as the package
    stores roots, whose abs() is the libm hypot."""
    x, y = np.complex128(x), np.complex128(y)
    x_inf, y_inf = cmath.isinf(x), cmath.isinf(y)
    if x_inf and y_inf:
        return 0.0
    if x_inf or y_inf:
        z = y if x_inf else x
        return 1.0 / np.hypot(1.0, abs(z))
    return abs(x - y) / np.hypot(1.0, abs(x)) / np.hypot(1.0, abs(y))


def matching_costs(a, b):
    """(sum, max) of the chordal distances of every perfect matching of
    two equal-size multisets, by brute force over permutations."""
    costs = []
    for perm in itertools.permutations(b):
        dist = [chordal_scalar(x, y) for x, y in zip(a, perm)]
        costs.append((sum(dist), max(dist, default=0.0)))
    return costs
