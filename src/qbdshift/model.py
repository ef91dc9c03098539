"""QBD transition triples: validation against the standing assumptions,
drift/spectral classification carrying the roots of B(z), and the Perron
vector registry.

A level transition is described by three nonnegative n x n blocks
A_-1, A_0, A_1 (one level down, same level, one level up) whose sum is
stochastic and irreducible.
"""

from __future__ import annotations

import dataclasses
import enum
import warnings

import numpy as np

from . import kernel, matpoly

__all__ = [
    "Classification",
    "Kind",
    "PerronData",
    "QbdTriple",
    "ValidationError",
    "classify",
    "complete_perron_data",
    "perron_data",
    "stationary_vector",
    "validate",
]

ROW_SUM_TOL = 1e-12
NULL_DRIFT_TOL = 1e-12
# Agreement required between pencil roots and solved spectral radii.
XI_CROSS_CHECK_TOL = 1e-8


class ValidationError(ValueError):
    """The raw blocks violate a standing assumption."""


@dataclasses.dataclass(frozen=True)
class QbdTriple:
    """Validated blocks of one QBD level transition."""

    n: int
    a_minus: np.ndarray
    a_zero: np.ndarray
    a_plus: np.ndarray

    def a_sum(self):
        return self.a_minus + self.a_zero + self.a_plus

    def a_of(self, z):
        """A(z) = A_-1 + z A_0 + z^2 A_1 (nonnegative for z > 0)."""
        return self.a_minus + z * self.a_zero + z * z * self.a_plus

    def b_zero(self):
        return self.a_zero - np.eye(self.n)

    def poly(self):
        """B(z) = A_-1 + z (A_0 - I) + z^2 A_1."""
        return matpoly.QuadMatPoly.from_triple(self.a_minus, self.a_zero, self.a_plus)

    def reversed(self):
        """The triple (A_1, A_0, A_-1); the minimal solutions of its
        quadratic equations are exactly the hat solutions of this one."""
        return QbdTriple(self.n, self.a_plus, self.a_zero, self.a_minus)


def validate(a_minus, a_zero, a_plus, row_sum_tol=ROW_SUM_TOL):
    """Check nonnegativity, stochasticity of the sum, and irreducibility.

    No roots are computed here: `classify` warns when B(z) has
    unit-circle roots away from z = 1.
    """
    blocks = []
    for name, raw in (("a_minus", a_minus), ("a_zero", a_zero), ("a_plus", a_plus)):
        try:
            a = kernel.as_square(raw, name)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        if a.size == 0:
            raise ValidationError(f"{name} is empty")
        if np.min(a) < 0.0:
            raise ValidationError(f"{name} has a negative entry (min {np.min(a)})")
        blocks.append(a)
    a_m, a_0, a_p = blocks
    if not (a_m.shape == a_0.shape == a_p.shape):
        raise ValidationError("blocks differ in shape")
    n = a_m.shape[0]
    row_sums = (a_m + a_0 + a_p).sum(axis=1)
    worst = float(np.max(np.abs(row_sums - 1.0)))
    if worst > row_sum_tol:
        raise ValidationError(
            f"A_-1 + A_0 + A_1 is not stochastic: max row-sum deviation {worst:.3e}"
        )
    if not kernel.is_irreducible(a_m + a_0 + a_p):
        raise ValidationError("A_-1 + A_0 + A_1 is reducible")
    return QbdTriple(n=n, a_minus=a_m, a_zero=a_0, a_plus=a_p)


class Kind(str, enum.Enum):
    POSITIVE_RECURRENT = "positive-recurrent"
    NULL_RECURRENT = "null-recurrent"
    TRANSIENT = "transient"


@dataclasses.dataclass(frozen=True)
class Classification:
    """Drift sign, the two real splitting roots xi_n <= xi_{n+1}, and
    all 2n roots of B(z)."""

    kind: Kind
    drift: float
    xi_n: float
    xi_n1: float
    roots: matpoly.RootSet


def stationary_vector(a):
    """Stationary row vector of an irreducible stochastic matrix."""
    pair = kernel.perron_pair(a, norm_rule="sum")
    return pair.left


def _real_positive_root(rootset, index):
    z = rootset.values()[index]
    if not np.isfinite(z.real) or abs(z.imag) > 1e-8 * (1.0 + abs(z)) or z.real <= 0:
        raise ValueError(f"splitting root {z} is not real positive")
    return float(z.real)


def classify(model, null_tol=NULL_DRIFT_TOL):
    """Mean-drift classification cross-filled with the pencil roots.

    drift = theta^T A_1 e - theta^T A_-1 e for theta stationary in the
    phase process; negative drift is positive recurrence. xi_n and
    xi_{n+1} come from the sorted roots of B(z), with the unit root
    snapped to exactly 1 in the classes where it is known a priori. Warns
    on unit-circle roots away from z = 1, a sign of several final classes.
    """
    theta = stationary_vector(model.a_sum())
    drift = float(theta @ (model.a_plus - model.a_minus).sum(axis=1))
    rs = matpoly.roots(model.poly())
    on_circle = np.abs(np.abs(rs.finite) - 1.0) <= 1e-6
    extra = int(np.count_nonzero(on_circle & (np.abs(rs.finite - 1.0) > 1e-6)))
    if extra:
        warnings.warn(f"{extra} unit-circle root(s) of B(z) away from z=1: the chain "
                      "may have more than one final class", stacklevel=2)
    n = model.n
    if abs(drift) <= null_tol:
        kind = Kind.NULL_RECURRENT
        xi_n = xi_n1 = 1.0
    elif drift < 0.0:
        kind = Kind.POSITIVE_RECURRENT
        xi_n = 1.0
        xi_n1 = _real_positive_root(rs, n)
    else:
        kind = Kind.TRANSIENT
        xi_n = _real_positive_root(rs, n - 1)
        xi_n1 = 1.0
    return Classification(kind=kind, drift=drift, xi_n=xi_n, xi_n1=xi_n1, roots=rs)


@dataclasses.dataclass(frozen=True)
class PerronData:
    """Perron vectors of the four minimal solutions, unit infinity norm.

    u_g, v_rhat (right/left Perron vectors of A(xi_n)) and u_ghat, v_r
    (of A(xi_{n+1})) are available before anything is solved. v_g, u_r,
    v_ghat, u_rhat are Perron vectors of the solution matrices themselves
    and are None until filled in by complete_perron_data.
    """

    u_g: np.ndarray
    v_rhat: np.ndarray
    u_ghat: np.ndarray
    v_r: np.ndarray
    v_g: np.ndarray | None = None
    u_r: np.ndarray | None = None
    v_ghat: np.ndarray | None = None
    u_rhat: np.ndarray | None = None

    def pairings(self):
        """Pairing scalars of the canonical (unit-max) vectors; rank-one
        shift updates rescale by exactly these factors."""
        out = {}
        if self.v_ghat is not None:
            out["v_Ghat.u_G"] = float(self.v_ghat @ self.u_g)
        if self.u_rhat is not None:
            out["v_R.u_Rhat"] = float(self.v_r @ self.u_rhat)
        if self.v_g is not None:
            out["v_G.u_G"] = float(self.v_g @ self.u_g)
        if self.u_r is not None:
            out["v_R.u_R"] = float(self.v_r @ self.u_r)
        return out


def _unit_max(vec):
    return vec / np.max(np.abs(vec))


def perron_data(model, cls):
    """A-priori Perron vectors from A(xi_n) and A(xi_{n+1}).

    When xi_n = xi_{n+1} (null recurrence) u_g = u_ghat = e exactly and
    v_r = v_rhat is the stationary vector of the phase process.
    """
    if cls.xi_n == cls.xi_n1:
        e = np.ones(model.n)
        theta = _unit_max(stationary_vector(model.a_sum()))
        return PerronData(u_g=e, v_rhat=theta, u_ghat=e.copy(), v_r=theta.copy())
    low = kernel.perron_pair(model.a_of(cls.xi_n), norm_rule="max")
    high = kernel.perron_pair(model.a_of(cls.xi_n1), norm_rule="max")
    u_g = low.right
    if cls.kind is Kind.POSITIVE_RECURRENT:
        u_g = np.ones(model.n)  # A(1) stochastic: the Perron vector is e
    u_ghat = high.right
    if cls.kind is Kind.TRANSIENT:
        u_ghat = np.ones(model.n)
    return PerronData(u_g=u_g, v_rhat=low.left, u_ghat=u_ghat, v_r=high.left)


def complete_perron_data(pd, sol):
    """Fill the solution-side Perron vectors from solved G, R, Ghat, Rhat."""
    _, _, v_g = kernel.dominant_pair(sol.g)
    _, u_r, _ = kernel.dominant_pair(sol.r)
    _, _, v_ghat = kernel.dominant_pair(sol.ghat)
    _, u_rhat, _ = kernel.dominant_pair(sol.rhat)
    return dataclasses.replace(
        pd,
        v_g=_unit_max(v_g),
        u_r=_unit_max(u_r),
        v_ghat=_unit_max(v_ghat),
        u_rhat=_unit_max(u_rhat),
    )
