"""The phase partition of the sign analysis: supports of u = u_R,
w = -K^-1 u_R and v = v_G against the irreducible blocks of R and G, with
the sign table every valid instance must satisfy (acceptance criterion 7).
"""

import dataclasses

import numpy as np

import oracles
from qbdshift import kernel

ZERO_PATTERN_RTOL = 1e-9


@dataclasses.dataclass(frozen=True)
class PhasePartition:
    """Support structure of u = u_R, w = -K^-1 u, v = v_G.

    s1 indexes the irreducible block of R (u > 0 exactly there), s1_tilde
    the extra support w picks up, sa the irreducible block of G (v > 0
    exactly there), and sb_tilde the phases where all three vanish. s1,
    s1_tilde and sb_tilde are pairwise disjoint and together with sa cover
    every phase; sa must intersect s1 union s1_tilde (that intersection is
    the sign property v^T w > 0).
    """

    s1: frozenset
    s1_tilde: frozenset
    sb_tilde: frozenset
    sa: frozenset
    u: np.ndarray
    w: np.ndarray
    v: np.ndarray


def _support(vec, rtol=ZERO_PATTERN_RTOL):
    scale = float(np.max(np.abs(vec)))
    return frozenset(int(i) for i in np.nonzero(np.abs(vec) > rtol * scale)[0])


def _nontrivial_block(mat, what):
    scale = max(kernel.inf_norm(mat), np.finfo(float).tiny)
    comps = oracles.scc_partition(mat, tol=ZERO_PATTERN_RTOL * scale)
    blocks = [c for c in comps if not c.trivial]
    if len(blocks) != 1:
        raise ValueError(
            f"{what} pattern has {len(blocks)} nontrivial strongly connected "
            "components, expected exactly one"
        )
    return frozenset(blocks[0].vertices)


def phase_partition(sol, perron, rtol=ZERO_PATTERN_RTOL):
    """Assemble the phase partition and assert its sign table.

    Violations raise ValueError: they contradict structure every valid
    instance must have (u > 0 exactly on R's irreducible block, v > 0
    exactly on G's, w = -K^-1 u positive exactly on s1 and s1_tilde, and
    nonempty s1, sa with sa meeting the support of w).
    """
    if perron.u_r is None or perron.v_g is None:
        raise ValueError("solution-side Perron vectors missing")
    n = sol.fwd.k.shape[0]
    s1 = _nontrivial_block(sol.r, "R")
    sa = _nontrivial_block(sol.g, "G")
    u = perron.u_r
    v = perron.v_g
    w = -(sol.fwd.k_inv @ u)
    supp_u, supp_w, supp_v = _support(u, rtol), _support(w, rtol), _support(v, rtol)
    if supp_u != s1:
        raise ValueError(f"support of u_R {sorted(supp_u)} != s1 {sorted(s1)}")
    if supp_v != sa:
        raise ValueError(f"support of v_G {sorted(supp_v)} != sa {sorted(sa)}")
    if not s1 <= supp_w:
        raise ValueError("w = -K^-1 u_R must be positive on all of s1")
    if not s1 or not sa:
        raise ValueError("s1 and sa must be nonempty")
    if not (sa & supp_w):
        raise ValueError(
            "sa does not meet the support of w: v^T K^-1 u_R would vanish"
        )
    s1_tilde = supp_w - s1
    sb_tilde = frozenset(range(n)) - s1 - s1_tilde - sa
    if not np.all(w >= -rtol * np.max(np.abs(w))):
        raise ValueError("w = -K^-1 u_R has a negative entry")
    return PhasePartition(
        s1=s1, s1_tilde=s1_tilde, sb_tilde=sb_tilde, sa=sa, u=u, w=w, v=v
    )
