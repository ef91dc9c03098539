"""The roots of B(z) = A_-1 + z B_0 + z^2 A_1 (B_0 = A_0 - I) and residuals
of canonical factorizations of phi(z) = z^-1 B(z), bounded on the whole
unit circle from their three coefficients. B(z) is the QbdTriple itself
(`QbdTriple.b_of`); the form in z^-1 is that of the reversed triple.

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

__all__ = [
    "RootSet",
    "factorization_residual",
]

# Moduli within this relative distance form one tie group for ordering.
TIE_RTOL = 1e-8


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


def factorization_residual(triple, left, middle, right):
    """A bound on the largest entry modulus of phi(z) - (I - z left) middle
    (I - z^-1 right) over the whole unit circle, phi(z) = z^-1 B(z) of
    `triple`. The form in z^-1 of the same phi is the forward one of
    `triple.reversed()`.

    The difference is the Laurent polynomial z^-1 C_-1 + C_0 + z C_1 with
    C_-1 = A_-1 + M R, C_0 = B_0 - M - L M R and C_1 = A_1 + L M. On |z| =
    1 each entry is at most the same entry of |C_-1| + |C_0| + |C_1|,
    moduli taken entrywise, and the largest of those is returned. Each
    coefficient is a discrete Fourier coefficient of the difference at N
    >= 3 equispaced points of the circle, so the bound is also at most 3
    times the largest entry modulus at those points. It is rigorous for
    the computed coefficients; the rounding of the three products comes on
    top.
    """
    lm = left @ middle
    c_low = triple.a_minus + middle @ right
    c_mid = triple.b_zero() - middle - lm @ right
    c_high = triple.a_plus + lm
    return float((np.abs(c_low) + np.abs(c_mid) + np.abs(c_high)).max())
