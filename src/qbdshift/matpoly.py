"""Quadratic matrix polynomials B(z) = B_-1 + z B_0 + z^2 B_1 and the
Laurent polynomial phi(z) = z^-1 B(z): evaluation, roots through the
companion pencil, factorization residuals.

Roots of B(z) are the zeros of det B(z), with k roots at infinity when
the degree of det B(z) is 2n - k. They are kept sorted by modulus, with
real positive roots placed last among (numerically) equal-modulus groups
so the two real splitting roots always sit at positions n-1 and n.
"""

from __future__ import annotations

import bisect
import cmath
import dataclasses

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from . import kernel

__all__ = [
    "Factorization",
    "QuadMatPoly",
    "RootSet",
    "chordal_distance",
    "factorization_residual",
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

    def eval_b(self, z):
        return self.b_minus + z * self.b_zero + z * z * self.b_plus

    def det_b(self, z):
        return complex(np.linalg.det(self.eval_b(z)))


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

    def reciprocals(self):
        """Roots of z^2 B(1/z): 1/z for each root, 0 and infinity swapped."""
        nonzero = self.finite[self.finite != 0]
        finite = np.append(1.0 / nonzero, np.zeros(self.n_infinite, dtype=complex))
        return RootSet(_sorted_roots(finite), len(self.finite) - len(nonzero))

    def with_value(self, value):
        """Add one root (possibly infinity), keeping the sorted order."""
        if np.isinf(value):
            return RootSet(self.finite, self.n_infinite + 1)
        finite = np.append(self.finite, complex(value))
        return RootSet(_sorted_roots(finite), self.n_infinite)


def _sorted_roots(values):
    """Sort by modulus; within a tie group (moduli within TIE_RTOL of the
    largest before) real positive roots go last, the rest by real part,
    then imaginary part."""
    vals = np.asarray(values, dtype=complex)
    if vals.size == 0:
        return vals
    vals = vals[np.argsort(np.abs(vals), kind="stable")]
    # hypot rounds as abs(z) per root does; numpy's vectorized abs may not
    mods = np.hypot(vals.real, vals.imag)
    ref = np.maximum.accumulate(mods)[:-1] * (1.0 + TIE_RTOL) + TIE_RTOL * 1e-30
    group = np.concatenate(([0], np.cumsum(mods[1:] > ref)))
    real_positive = (np.abs(vals.imag) <= TIE_RTOL * (1.0 + mods)) & (vals.real > 0.0)
    return vals[np.lexsort((vals.imag, vals.real, real_positive, group))]


def roots(poly):
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
    at_inf = np.abs(beta) <= INF_ROOT_RTOL * scale
    return RootSet(_sorted_roots(alpha[~at_inf] / beta[~at_inf]), int(at_inf.sum()))


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


def unit_circle_samples(count=16):
    """`count` equispaced points on |z| = 1 starting at z = 1 (z = -1 is
    included for even counts)."""
    return [cmath.exp(2j * cmath.pi * k / count) for k in range(count)]


def factorization_residual(poly, fact, samples=16):
    """Max over unit-circle samples of the largest entry modulus of
    phi(z) - factorization(z) (phi(z^-1) for the reversed direction).

    The difference is the Laurent polynomial z^-1 C_-1 + C_0 + z C_1 with
    C_-1 = B_-1 + M R, C_0 = B_0 - M - L M R and C_1 = B_1 + L M (B_-1 and
    B_1 trade places for phi(z^-1)), so the three products are formed once
    and each sample costs one elementwise pass. An empty sample set would
    pass vacuously and raises ValueError.
    """
    points = unit_circle_samples(samples) if isinstance(samples, int) else samples
    if len(points) == 0:
        raise ValueError("factorization residual needs at least one sample point")
    low, high = poly.b_minus, poly.b_plus
    if fact.direction == "z_inverse":
        low, high = high, low
    lm = fact.left @ fact.middle
    c_low = low + fact.middle @ fact.right
    c_mid = poly.b_zero - fact.middle - lm @ fact.right
    c_high = high + lm
    return max(float(np.max(np.abs(c_low / z + c_mid + z * c_high))) for z in points)


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
    """Bottleneck chordal distance between two root multisets.

    Accepts RootSet or iterables of complex values (inf allowed). Returns
    exactly the least t at which the sets pair one to one with no pair
    more than t apart, so it is within a tolerance exactly when the sets
    agree within it, which is what a root certificate claims. t is a pair
    distance, bisected with a maximum bipartite matching of the pairs
    within it (scipy.sparse.csgraph). Raises if the sizes differ or on nan.
    """
    a, b = (
        np.asarray(s.values() if isinstance(s, RootSet) else list(s), dtype=complex)
        for s in (first, second)
    )
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
