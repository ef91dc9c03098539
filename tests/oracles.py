"""Independent oracles for expected values: scalar closed forms via the
quadratic formula, the symmetric-circulant closed form for the 2x2
null-recurrent instance, the monotone fixed-point iteration for G, naive
dense helpers that bypass the package implementations, the 60-digit
splitting root of det B(z)/(z - 1) and the 50-digit cyclic reduction for
G, R, Ghat and Rhat (mpmath), the direct (unshifted) solve of all four
equations in double precision, the scipy forms the package no longer
uses (the companion-pencil QZ, the exact bottleneck root matching, LU
with a pivot test, the two-sided dense eigensolve, strongly connected
components). scipy comes with the test extra only."""

import bisect
import cmath
import dataclasses
import itertools
import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

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


def naive_spectral_radius(m):
    return float(np.max(np.abs(np.linalg.eigvals(np.asarray(m, dtype=float)))))


def radius_product(g, r):
    """rho(G) rho(R), the product the Stein guard compares with 1."""
    return naive_spectral_radius(g) * naive_spectral_radius(r)


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


def solve_min_g_oracle(b_minus, b_zero, b_plus, tol=1e-12, max_iter=2_000_000):
    """Minimal solution of B_-1 + B_0 X + B_1 X^2 = 0 by the natural fixed
    point

        X_0 = 0,   X_{k+1} = B_-1 + (B_0 + I) X_k + B_1 X_k^2,

    which for substochastic coefficients increases monotonically to the
    minimal nonnegative solution. Stops at entrywise increment <= tol.
    Linearly convergent, O(1/k) at a double unit root; returns
    (G, iterations).
    """
    bm = np.asarray(b_minus, dtype=float)
    a0 = np.asarray(b_zero, dtype=float) + np.eye(bm.shape[0])
    bp = np.asarray(b_plus, dtype=float)
    x = np.zeros_like(bm)
    for k in range(1, max_iter + 1):
        nxt = bm + a0 @ x + bp @ x @ x
        if np.max(np.abs(nxt - x)) <= tol:
            return nxt, k
        x = nxt
    raise RuntimeError(f"fixed-point oracle did not converge in {max_iter} iterations")


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


def det_replacement_residual(shifted, original, removed, points):
    """Largest relative gap of det(zI - M_s)(z - removed) = z det(zI - M)
    over `points`, with one LU determinant per matrix and point."""
    eye = np.eye(np.asarray(shifted).shape[0])
    worst = 0.0
    for z in points:
        lhs = np.linalg.det(z * eye - shifted) * (z - removed)
        rhs = z * np.linalg.det(z * eye - original)
        worst = max(worst, abs(lhs - rhs) / (abs(lhs) + abs(rhs) + 1e-300))
    return worst


def product_factorization_residual(b_minus, b_zero, b_plus, left, middle, right,
                                   direction, points):
    """Largest entry modulus of phi(z) - (I - zL) M (I - R/z) over `points`,
    with phi(z^-1) in place of phi(z) for the "z_inverse" direction, by two
    complex matrix products per point."""
    eye = np.eye(np.asarray(middle).shape[0])
    worst = 0.0
    for z in points:
        w = 1.0 / z if direction == "z_inverse" else z
        lhs = b_minus / w + b_zero + w * b_plus
        diff = lhs - (eye - z * left) @ middle @ (eye - right / z)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


def cyclic_reduction_triple_products(b_minus, b_zero, b_plus, tol, max_iter):
    """The plain cyclic-reduction loop, which stops only on min(||L||,
    ||U||) <= tol or `max_iter`, with each of its four triple products
    formed on its own, eight matrix products per sweep, and the package's
    pivot inverse; G is solved with the refined inverse of Dh, as the
    package solves it; returns (G, sweeps, Dh^-1)."""
    from qbdshift import kernel

    low, diag, up = (np.array(x, dtype=float) for x in (b_minus, b_zero, b_plus))
    diag_hat = diag.copy()
    k = 0
    while min(kernel.inf_norm(low), kernel.inf_norm(up)) > tol and k < max_iter:
        inv = kernel.inverse(diag)
        lxl = low @ inv @ low
        uxu = up @ inv @ up
        lxu = low @ inv @ up
        uxl = up @ inv @ low
        low = -lxl
        up = -uxu
        diag = diag - lxu - uxl
        diag_hat = diag_hat - uxl
        k += 1
    dh_inv = kernel.inverse(diag_hat)
    return -(dh_inv @ np.asarray(b_minus, dtype=float)), k, dh_inv


def qz_roots(triple):
    """All 2n roots of det B(z) of a QbdTriple as a RootSet, from a QZ
    factorization of the companion pencil

        A = [[0, I], [-A_-1, -B_0]],   B = [[I, 0], [0, A_1]],

    whose generalized eigenvalues are exactly the roots; |beta| below
    1e-12 hypot(alpha, beta) flags a root at infinity."""
    from qbdshift import matpoly

    n = triple.n
    zero = np.zeros((n, n))
    eye = np.eye(n)
    lhs = np.block([[zero, eye], [-triple.a_minus, -triple.b_zero()]])
    rhs = np.block([[eye, zero], [zero, triple.a_plus]])
    alpha, beta = scipy.linalg.eig(lhs, rhs, right=False, homogeneous_eigvals=True)
    at_inf = np.abs(beta) <= 1e-12 * np.hypot(np.abs(alpha), np.abs(beta))
    return matpoly.RootSet(matpoly._sorted_roots(alpha[~at_inf] / beta[~at_inf]),
                           int(at_inf.sum()))


def splitting_root_mp(model, outside, dps=60):
    """The splitting root of B(z) other than z = 1 at `dps` digits: the
    root of det B(z)/(z - 1) of least modulus above 1 (`outside`, a
    positive-recurrent chain's xi_{n+1}) or of largest modulus below 1 (a
    transient chain's xi_n), as a float.

    The blocks are first projected to exact row sums: each row of A_-1,
    A_0 and A_1 is divided by its row sum of A(1) at that precision, so z
    = 1 is an exact root. det B(z) has degree at most 2n; its
    coefficients come from its values at the 2n + 1 roots of unity (an
    exact discrete Fourier transform), are deflated by z - 1 and solved by
    mpmath.polyroots."""
    import mpmath

    n = model.n
    with mpmath.workdps(dps):
        blocks = [mpmath.matrix(b.tolist()) for b in (model.a_minus, model.a_zero,
                                                     model.a_plus)]
        for i in range(n):
            total = mpmath.fsum(b[i, j] for b in blocks for j in range(n))
            for b in blocks:
                for j in range(n):
                    b[i, j] /= total
        eye = mpmath.eye(n)
        size = 2 * n + 1
        points = [mpmath.expjpi(mpmath.mpf(2 * k) / size) for k in range(size)]
        values = [mpmath.det(blocks[0] + z * (blocks[1] - eye) + z * z * blocks[2])
                  for z in points]
        coeffs = [mpmath.re(mpmath.fsum(v / z**k for v, z in zip(values, points))) / size
                  for k in range(size)]
        scale = max(abs(c) for c in coeffs)
        while abs(coeffs[-1]) <= mpmath.mpf(10) ** (20 - dps) * scale:
            coeffs.pop()  # a root at infinity lowers the degree
        quotient = [coeffs[-1]]  # det B(z)/(z - 1), highest degree first
        for c in reversed(coeffs[1:-1]):
            quotient.append(c + quotient[-1])
        roots = mpmath.polyroots(quotient, maxsteps=200, extraprec=2 * dps)
        if outside:
            root = min((r for r in roots if abs(r) > 1), key=abs)
        else:
            root = max((r for r in roots if abs(r) < 1), key=abs)
        if abs(mpmath.im(root)) > mpmath.mpf(10) ** (10 - dps):
            raise ValueError(f"splitting root {root} is not real")
        return float(mpmath.re(root))


def minimal_solutions_mp(model, dps=50, max_sweeps=120):
    """G, R, Ghat and Rhat of `model` at `dps` digits, as float arrays
    ({"G", "R", "Ghat", "Rhat"}), by cyclic reduction in mpmath on the
    blocks projected to exact row sums (each row of A_-1, A_0 and A_1
    divided by its row sum of A(1) at that precision).

    The projection matters near null recurrence: the float blocks' row
    sums are off by round-off, which moves G by about eps over the root
    gap. Cyclic reduction runs on (B_-1, B_0, B_1) for G and on the
    reversed triple for Ghat until min(||L||, ||U||) falls below
    10^(10 - dps), or for `max_sweeps` sweeps at null recurrence, where
    it converges linearly (rate 1/2); then R = -B_1 K^-1 and Rhat =
    -B_-1 Khat^-1."""
    import mpmath

    n = model.n
    with mpmath.workdps(dps):
        blocks = [mpmath.matrix(b.tolist()) for b in (model.a_minus, model.a_zero,
                                                     model.a_plus)]
        for i in range(n):
            total = mpmath.fsum(b[i, j] for b in blocks for j in range(n))
            for b in blocks:
                for j in range(n):
                    b[i, j] /= total
        bm, b0, bp = blocks[0], blocks[1] - mpmath.eye(n), blocks[2]
        tol = mpmath.mpf(10) ** (10 - dps)

        def norm(m):
            return max(mpmath.fsum(abs(m[i, j]) for j in range(n)) for i in range(n))

        def minimal(b_down, b_up):
            """(X, B_0 + b_up X) for the minimal X of b_down + B_0 X +
            b_up X^2 = 0."""
            low, diag, up, acc = b_down, b0, b_up, b0
            for _ in range(max_sweeps):
                if min(norm(low), norm(up)) <= tol:
                    break
                inv = mpmath.inverse(diag)
                low_inv, up_inv = low * inv, up * inv
                diag = diag - low_inv * up - up_inv * low
                acc = acc - up_inv * low
                low, up = -(low_inv * low), -(up_inv * up)
            return -(mpmath.inverse(acc) * b_down), acc

        g, k = minimal(bm, bp)
        ghat, khat = minimal(bp, bm)
        r = -(bp * mpmath.inverse(k))
        rhat = -(bm * mpmath.inverse(khat))

        def floats(m):
            return np.array([[float(m[i, j]) for j in range(n)] for i in range(n)])

        return {"G": floats(g), "R": floats(r), "Ghat": floats(ghat), "Rhat": floats(rhat)}


# Tolerance relaxed for unshifted null-recurrent solves, which stall at
# the double unit root.
CR_TOL_NULL = 1e-8
STALL_RES_TOL = 1e-10
# R and Rhat of an unshifted problem are nonnegative: an entry below
# -NEG_CLAMP is an error, round-off negatives above it are set to zero.
NEG_CLAMP = 1e-12


def clamp_nonneg(r):
    """`r` with round-off negatives set to zero; raises ValueError on an
    entry below -NEG_CLAMP."""
    if np.min(r) < -NEG_CLAMP:
        raise ValueError(f"R has an entry below -{NEG_CLAMP:g}: {np.min(r):.3e}")
    return np.maximum(r, 0.0)


def solve_all(model, cls=None, tol=None, max_iter=None):
    """Direct solve of all four equations, the route "direct": cyclic
    reduction on the triple for G and on the reversed triple for Ghat,
    with no shift. Computes no W (`SolutionSet.w` does, on first read).
    The certified set takes the shift routes instead
    (shift.reference_solution); this is the unshifted solve it is
    compared with.

    Null-recurrent inputs run at the relaxed tolerance and may stall at
    the iteration cap; the trailing iterate is accepted as long as its
    equation residual is below STALL_RES_TOL (forward accuracy is then
    ~1e-7; the shifted route recovers full accuracy).
    """
    from qbdshift import model as model_mod, shift, solvers

    if cls is None:
        cls = model_mod.classify(model)
    null = cls.kind is model_mod.Kind.NULL_RECURRENT
    cr_args = {"tol": tol if tol is not None else (CR_TOL_NULL if null else solvers.CR_TOL),
               "max_iter": max_iter if max_iter is not None else solvers.CR_MAX_ITER,
               "res_tol": STALL_RES_TOL if null else None}

    def side(triple):
        """One side as a route record with no transform; the reversed
        triple's (1) and (2) are the model's (3) and (4)."""
        bm, b0, bp = triple.a_minus, triple.b_zero(), triple.a_plus
        cr = solvers.cyclic_reduction(bm, b0, bp, **cr_args)
        r, k = solvers.derive_r_k(b0, bp, cr.g)
        r = clamp_nonneg(r)
        residuals = {"G": solvers.residual_g(bm, b0, bp, cr.g),
                     "R": solvers.residual_r(bm, b0, bp, r)}
        return shift.ShiftRoute(transform=None, cr=cr, g=cr.g, r=r, k=k, residuals=residuals)

    return solvers.SolutionSet(fwd=side(model), rev=side(model.reversed()), null=null,
                               route="direct")


def chordal_distance(x, y):
    """Distance on the Riemann sphere, elementwise with broadcasting.

    Two infinities are 0 apart and a finite z is 1/hypot(1, |z|) from
    infinity. Dividing by one hypot factor at a time keeps the distance
    of two large finite roots from overflowing to 0.
    """
    x, y = np.asarray(x, dtype=complex), np.asarray(y, dtype=complex)
    x_inf, y_inf = np.isinf(x), np.isinf(y)
    # an infinity is placed at 0, where its hypot factor is exactly 1
    x, y = np.where(x_inf, 0.0, x), np.where(y_inf, 0.0, y)
    diff = x - y
    # hypot of the parts, not np.abs: numpy's vectorized complex abs rounds
    # differently from the libm hypot in about a third of cases
    gap = np.where(x_inf == y_inf, np.hypot(diff.real, diff.imag), 1.0)
    hx = np.hypot(1.0, np.hypot(x.real, x.imag))
    hy = np.hypot(1.0, np.hypot(y.real, y.imag))
    return (gap / hx / hy)[()]


def _values(roots):
    """Complex values of a RootSet (infinities appended) or an iterable."""
    return np.asarray(roots.values() if hasattr(roots, "values") else list(roots),
                      dtype=complex)


def multiset_distance(first, second):
    """Bottleneck chordal distance between two root multisets.

    Accepts RootSet or iterables of complex values (inf allowed). Returns
    exactly the least t at which the sets pair one to one with no pair
    more than t apart. t is a pair distance, bisected with a maximum
    bipartite matching of the pairs within it (scipy.sparse.csgraph).
    Raises if the sizes differ or on nan.
    """
    a, b = _values(first), _values(second)
    if len(a) != len(b):
        raise ValueError(f"multisets differ in size: {len(a)} vs {len(b)}")
    if len(a) == 0:
        return 0.0
    cost = chordal_distance(a[:, None], b[None, :])
    if np.isnan(cost).any():
        raise ValueError("root multisets contain nan")
    row_min = cost.min(axis=1)
    if len(np.unique(cost.argmin(axis=1))) == len(a):
        # every root's nearest partner is distinct: that pairing is optimal
        return float(row_min.max())
    # no pairing beats the largest row or column minimum; agreeing sets pair at it
    low = max(row_min.max(), cost.min(axis=0).max())
    paired = lambda t: np.all(scipy.sparse.csgraph.maximum_bipartite_matching(
        scipy.sparse.csr_matrix(cost <= t), perm_type="column") >= 0)
    if paired(low):
        return float(low)
    levels = np.unique(cost[cost > low])  # the largest admits every pair
    return float(levels[bisect.bisect_left(levels, True, hi=len(levels) - 1, key=paired)])


def surgery_expected(roots, transform):
    """The roots of the shifted polynomial a transform claims: xi_n -> 0
    (right, double) and xi_{n+1} -> inf (left, double), each replacing the
    root chordally closest to it."""
    values = _values(roots)
    moves = []
    if transform.q is not None:
        moves.append((transform.xi_n, 0.0))
    if transform.s is not None:
        moves.append((transform.xi_n1, complex(np.inf, 0.0)))
    for old, new in moves:
        values[int(np.argmin(chordal_distance(values, old)))] = new
    return values


def qz_surgery_distance(model, transform):
    """Root-surgery distance from QZ factorizations of the companion
    pencils: the roots of B_s(z) against the roots of B(z) with xi_n -> 0
    and/or xi_{n+1} -> inf."""
    return multiset_distance(qz_roots(transform.shifted),
                             surgery_expected(qz_roots(model), transform))


def solve_linear_lu(m, b):
    """M^-1 B by scipy's LU with partial pivoting plus one refinement step;
    raises SingularMatrixError when a pivot falls below 1e-14 ||M||_inf."""
    from qbdshift import kernel

    a = np.asarray(m, dtype=float)
    rhs = np.asarray(b, dtype=float)
    with warnings.catch_warnings():
        # the pivot test below raises; scipy's own warning is redundant
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    if np.min(np.abs(np.diag(lu))) < 1e-14 * max(kernel.inf_norm(a), np.finfo(float).tiny):
        raise kernel.SingularMatrixError("matrix is numerically singular")
    x = scipy.linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return x + scipy.linalg.lu_solve((lu, piv), rhs - a @ x, check_finite=False)


def dense_perron_two_sided(a):
    """Perron radius with right and left vectors of `a` from one
    scipy.linalg.eig(left=True, right=True), picked as the largest real
    part among the eigenvalues of maximal modulus, sign-fixed and polished
    by eight power steps on a + I."""
    vals, lefts, rights = scipy.linalg.eig(a, left=True, right=True)
    radius = float(np.max(np.abs(vals)))
    candidates = np.flatnonzero(np.abs(vals) >= (1.0 - 1e-9) * radius)
    i = candidates[int(np.argmax(np.real(vals[candidates])))]
    shifted = a + np.eye(a.shape[0])
    out = [radius]
    for v, mat in ((rights[:, i], shifted), (lefts[:, i], shifted.T)):
        v = np.real(v)
        if v[int(np.argmax(np.abs(v)))] < 0:
            v = -v
        for _ in range(8):
            v = mat @ v
            v /= np.max(np.abs(v))
        out.append(v)
    return tuple(out)


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
    pattern = np.asarray(m, dtype=float) > tol
    count, labels = scipy.sparse.csgraph.connected_components(
        scipy.sparse.csr_matrix(pattern), directed=True, connection="strong"
    )
    components = []
    for label in range(count - 1, -1, -1):
        comp = tuple(int(v) for v in np.flatnonzero(labels == label))
        trivial = len(comp) == 1 and not pattern[comp[0], comp[0]]
        components.append(Scc(comp, trivial))
    return components


def sorted_roots_loop(values, tie_rtol=1e-8):
    """Root ordering by a Python loop over tie groups: sort by modulus;
    within a group (moduli within tie_rtol of the group's largest so far)
    real positive roots go last, the rest by real then imaginary part."""

    def real_positive(z):
        return abs(z.imag) <= tie_rtol * (1.0 + abs(z)) and z.real > 0.0

    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:
        return vals
    vals = vals[np.argsort(np.abs(vals), kind="stable")]
    out = []
    i = 0
    while i < len(vals):
        j = i + 1
        ref = abs(vals[i])
        while j < len(vals) and abs(vals[j]) <= ref * (1.0 + tie_rtol) + tie_rtol * 1e-30:
            ref = max(ref, abs(vals[j]))
            j += 1
        out.extend(sorted(vals[i:j], key=lambda z: (real_positive(z), z.real, z.imag)))
        i = j
    return np.asarray(out, dtype=complex)
