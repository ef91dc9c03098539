"""Quadratic matrix polynomials B(z) = B_-1 + z B_0 + z^2 B_1 and the
Laurent polynomial phi(z) = z^-1 B(z): evaluation, roots through the
companion pencil, inverse-series coefficients, factorization residuals.

Roots of B(z) are the zeros of det B(z), with k roots at infinity when
the degree of det B(z) is 2n - k. They are kept sorted by modulus, with
real positive roots placed last among (numerically) equal-modulus groups
so the two real splitting roots always sit at positions n-1 and n.
"""

from __future__ import annotations

import cmath
import dataclasses

import numpy as np
import scipy.linalg
import scipy.optimize

from . import kernel

__all__ = [
    "Factorization",
    "QuadMatPoly",
    "RootSet",
    "chordal_distance",
    "eval_phi",
    "factorization_residual",
    "h_coefficients",
    "multiset_distance",
    "roots",
    "unit_circle_samples",
]

# Pencil eigenvalue (alpha, beta) with |beta| below this times hypot(alpha,
# beta) counts as a root at infinity.
INF_ROOT_RTOL = 1e-12

# Moduli within this relative distance form one tie group for ordering.
TIE_RTOL = 1e-8

_DET_PROBE_POINTS = (0.83 + 0.41j, -0.52 + 0.77j, 1.31 - 0.23j)


@dataclasses.dataclass(frozen=True)
class QuadMatPoly:
    """Coefficients of B(z) = b_minus + z b_zero + z^2 b_plus."""

    b_minus: np.ndarray
    b_zero: np.ndarray
    b_plus: np.ndarray

    @property
    def n(self):
        return self.b_minus.shape[0]

    @classmethod
    def new(cls, b_minus, b_zero, b_plus):
        bm = kernel.as_square(b_minus, "b_minus")
        b0 = kernel.as_square(b_zero, "b_zero")
        bp = kernel.as_square(b_plus, "b_plus")
        if not (bm.shape == b0.shape == bp.shape):
            raise ValueError("coefficient blocks differ in shape")
        poly = cls(bm, b0, bp)
        if all(
            abs(np.linalg.det(poly.eval_b(z))) < 1e-300 for z in _DET_PROBE_POINTS
        ):
            raise ValueError("det B(z) is identically zero")
        return poly

    @classmethod
    def from_triple(cls, a_minus, a_zero, a_plus):
        """Build B(z) = A_-1 + z (A_0 - I) + z^2 A_1 from transition blocks."""
        a0 = kernel.as_square(a_zero, "a_zero")
        return cls.new(a_minus, a0 - np.eye(a0.shape[0]), a_plus)

    def reversed(self):
        """z^2 B(1/z): coefficients swapped end for end."""
        return QuadMatPoly(self.b_plus, self.b_zero, self.b_minus)

    def eval_b(self, z):
        return self.b_minus + z * self.b_zero + z * z * self.b_plus

    def det_b(self, z):
        return complex(np.linalg.det(self.eval_b(z)))


def eval_phi(poly, z, reversed=False):
    """phi(z) = z^-1 b_minus + b_zero + z b_plus, or phi(z^-1) if reversed."""
    if z == 0:
        raise ValueError("phi(z) is undefined at z = 0")
    w = 1.0 / z if reversed else z
    return poly.b_minus / w + poly.b_zero + w * poly.b_plus


def _is_real_positive(z, tol=TIE_RTOL):
    return abs(z.imag) <= tol * (1.0 + abs(z)) and z.real > 0.0


@dataclasses.dataclass(frozen=True)
class RootSet:
    """2n roots: finite ones sorted by modulus plus a count at infinity."""

    finite: np.ndarray
    n_infinite: int

    @property
    def count(self):
        return len(self.finite) + self.n_infinite

    def values(self):
        """All roots with infinities appended as complex inf."""
        return np.append(self.finite, np.full(self.n_infinite, complex(np.inf, 0.0)))

    def split_counts(self, tol=1e-6):
        """(inside, on, outside) counts relative to the unit circle;
        infinite roots count as outside."""
        mods = np.abs(self.finite)
        inside = int(np.sum(mods < 1.0 - tol))
        on = int(np.sum(np.abs(mods - 1.0) <= tol))
        return inside, on, len(self.finite) - inside - on + self.n_infinite

    def without_closest(self, value):
        """Drop the single root closest to `value` (chordal metric)."""
        if np.isinf(value):
            if self.n_infinite == 0:
                raise ValueError("no infinite root to remove")
            return RootSet(self.finite, self.n_infinite - 1)
        if len(self.finite) == 0:
            raise ValueError("no finite root to remove")
        i = int(np.argmin(chordal_distance(self.finite, value)))
        return RootSet(np.delete(self.finite, i), self.n_infinite)

    def with_value(self, value):
        """Add one root (possibly infinity), keeping the sorted order."""
        if np.isinf(value):
            return RootSet(self.finite, self.n_infinite + 1)
        finite = np.append(self.finite, complex(value))
        return RootSet(_sorted_roots(finite), self.n_infinite)


def _sorted_roots(values):
    """Sort by modulus; within a tie group real positive roots go last."""
    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:
        return vals
    order = np.argsort(np.abs(vals), kind="stable")
    vals = vals[order]
    out = []
    i = 0
    while i < len(vals):
        j = i + 1
        ref = abs(vals[i])
        while j < len(vals) and abs(vals[j]) <= ref * (1.0 + TIE_RTOL) + TIE_RTOL * 1e-30:
            ref = max(ref, abs(vals[j]))
            j += 1
        group = sorted(
            vals[i:j],
            key=lambda z: (_is_real_positive(z), z.real, z.imag),
        )
        out.extend(group)
        i = j
    return np.asarray(out, dtype=complex)


def roots(poly, inf_rtol=INF_ROOT_RTOL):
    """All 2n roots of det B(z) via the companion pencil

        A = [[0, I], [-B_-1, -B_0]],   B = [[I, 0], [0, B_1]],

    whose generalized eigenvalues are exactly the roots, with beta ~ 0
    flagging the ones at infinity.
    """
    n = poly.n
    zero = np.zeros((n, n))
    eye = np.eye(n)
    lhs = np.block([[zero, eye], [-poly.b_minus, -poly.b_zero]])
    rhs = np.block([[eye, zero], [zero, poly.b_plus]])
    alpha, beta = scipy.linalg.eig(lhs, rhs, right=False, homogeneous_eigvals=True)
    scale = np.hypot(np.abs(alpha), np.abs(beta))
    if np.any(scale == 0.0):
        raise ValueError("singular pencil: det B(z) identically zero")
    at_inf = np.abs(beta) <= inf_rtol * scale
    return RootSet(_sorted_roots(alpha[~at_inf] / beta[~at_inf]), int(at_inf.sum()))


def h_coefficients(g, k, r, indices, tol=kernel.LINALG_RTOL):
    """Laurent coefficients of phi(z)^-1 on the annulus between the
    splitting roots: H_0 solves H - G H R = K^-1, H_-i = G^i H_0 and
    H_i = H_0 R^i.

    Returns {index: matrix}. Divergent (null recurrent) input raises
    through the Stein solver.
    """
    k_inv = kernel.solve_linear(k, np.eye(k.shape[0]))
    h0 = kernel.stein_solve(g, r, k_inv, tol=tol)
    out = {}
    for i in sorted(set(indices)):
        if i == 0:
            out[0] = h0
        elif i < 0:
            out[i] = np.linalg.matrix_power(g, -i) @ h0
        else:
            out[i] = h0 @ np.linalg.matrix_power(r, i)
    return out


@dataclasses.dataclass(frozen=True)
class Factorization:
    """phi(z) = (I - z left) middle (I - z^-1 right), or the same form in
    z^-1 when direction is "z_inverse"."""

    direction: str  # "z" | "z_inverse"
    left: np.ndarray
    middle: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        if self.direction not in ("z", "z_inverse"):
            raise ValueError(f"unknown direction {self.direction!r}")

    def strength(self, tol=1e-9):
        """"canonical" when both factor radii are < 1 - tol, else "weak"."""
        rl = kernel.spectral_radius(self.left)
        rr = kernel.spectral_radius(self.right)
        if max(rl, rr) < 1.0 - tol:
            return "canonical"
        if max(rl, rr) <= 1.0 + tol:
            return "weak"
        raise ValueError("factor spectral radius exceeds one")

    def eval(self, z):
        n = self.left.shape[0]
        eye = np.eye(n)
        return (eye - z * self.left) @ self.middle @ (eye - self.right / z)


def unit_circle_samples(count=16):
    """`count` equispaced points on |z| = 1 starting at z = 1 (z = -1 is
    included for even counts)."""
    return [cmath.exp(2j * cmath.pi * k / count) for k in range(count)]


def factorization_residual(poly, fact, samples=16):
    """Max over unit-circle samples of ||phi(z) - factorization(z)||_inf
    (phi(z^-1) for the reversed direction)."""
    points = unit_circle_samples(samples) if isinstance(samples, int) else samples
    reversed_dir = fact.direction == "z_inverse"
    worst = 0.0
    for z in points:
        lhs = eval_phi(poly, z, reversed=reversed_dir)
        diff = lhs - fact.eval(z)
        worst = max(worst, float(np.max(np.abs(diff))))
    return worst


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


def multiset_distance(first, second):
    """Chordal matching distance between two root multisets.

    Accepts RootSet or iterables of complex values (inf allowed). Returns
    the largest pair distance of the matching with the least summed
    distance: an upper bound on the bottleneck (least largest-pair)
    distance, equal to it when the sets agree to well within their
    separation. Raises if the cardinalities differ.
    """
    a, b = (
        np.asarray(s.values() if isinstance(s, RootSet) else list(s), dtype=complex)
        for s in (first, second)
    )
    if len(a) != len(b):
        raise ValueError(f"multisets differ in size: {len(a)} vs {len(b)}")
    cost = chordal_distance(a[:, None], b[None, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    return float(cost[rows, cols].max()) if len(a) else 0.0
