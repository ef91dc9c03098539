"""Quadratic matrix polynomials B(z) = B_-1 + z B_0 + z^2 B_1 and the
Laurent polynomial phi(z) = z^-1 B(z): evaluation, the root set of a
canonical factorization, factorization residuals bounded on the whole
unit circle from their three coefficients.

Roots of B(z) are the zeros of det B(z), with k roots at infinity when
the degree of det B(z) is 2n - k. Nothing here solves det B(z) = 0:
phi(z) = (I - zR) K (I - z^-1 G) puts the roots at eig(G) together with
1/eig(R) (`RootSet.from_spectra`). They are kept sorted by modulus, with
real positive roots placed last among (numerically) equal-modulus groups
so the two real splitting roots always sit at positions n-1 and n.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import kernel

__all__ = [
    "Factorization",
    "QuadMatPoly",
    "RootSet",
    "factorization_residual",
]

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

    @classmethod
    def from_spectra(cls, eig_g, eig_r):
        """Roots of B(z) when phi(z) = (I - zR) K (I - z^-1 G) with K
        nonsingular: eig(G) together with 1/eig(R), a zero eigenvalue of R
        giving a root at infinity."""
        nonzero = eig_r[eig_r != 0]
        return cls(_sorted_roots(np.append(eig_g, 1.0 / nonzero)), len(eig_r) - len(nonzero))


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


def factorization_residual(poly, fact):
    """A bound on the largest entry modulus of phi(z) - factorization(z)
    (phi(z^-1) for the reversed direction) over the whole unit circle.

    The difference is the Laurent polynomial z^-1 C_-1 + C_0 + z C_1 with
    C_-1 = B_-1 + M R, C_0 = B_0 - M - L M R and C_1 = B_1 + L M (B_-1 and
    B_1 trade places for phi(z^-1)). On |z| = 1 each entry is at most the
    same entry of |C_-1| + |C_0| + |C_1|, moduli taken entrywise, and the
    largest of those is returned. Each coefficient is a discrete Fourier
    coefficient of the difference at N >= 3 equispaced points of the
    circle, so the bound is also at most 3 times the largest entry modulus
    at those points. It is rigorous for the computed coefficients; the
    rounding of the three products comes on top.
    """
    low, high = poly.b_minus, poly.b_plus
    if fact.direction == "z_inverse":
        low, high = high, low
    lm = fact.left @ fact.middle
    c_low = low + fact.middle @ fact.right
    c_mid = poly.b_zero - fact.middle - lm @ fact.right
    c_high = high + lm
    return float((np.abs(c_low) + np.abs(c_mid) + np.abs(c_high)).max())
