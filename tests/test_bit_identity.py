"""The lean kernel and certificate primitives against the loop and
wrapped forms they replaced (oracles.py): the same bits, not just close
values, so that no report moves.

- `kernel.inverse` (np.linalg.inv) against np.linalg.solve(M, I) with the
  same condition test and refinement, n from 1 to 130;
- `kernel.inf_norm` against the np.max/np.sum form, 1-D and empty inputs
  included;
- `verify._det_points` (uniforms drawn `count` at a time) against one
  draw at a time, with real poles near the 1.37 circle so that points are
  rejected.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from qbdshift import kernel, verify

SEEDS = st.integers(0, 2**32 - 1)


def outcome(fn, *args):
    """fn(*args), or the type and message of the exception it raised."""
    try:
        return fn(*args)
    except (ValueError, kernel.ConvergenceError, kernel.SingularMatrixError) as exc:
        return type(exc), str(exc)


class TestInverse:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 130), SEEDS, st.sampled_from(["normal", "rank-deficient", "m-matrix"]))
    def test_matches_solve_with_identity(self, n, seed, kind):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((n, n))
        if kind == "rank-deficient" and n > 1:
            m[-1] = m[0]
        elif kind == "m-matrix":
            m = np.diag(np.full(n, 1.0 + n)) - rng.uniform(0.0, 1.0, (n, n))
        got = outcome(kernel.inverse, m)
        want = outcome(oracles.inverse_by_solve, m)
        if isinstance(want, tuple):
            assert got[0] is want[0]
        else:
            assert np.array_equal(got, want)
            # the inverse of -M is -M^-1, bit for bit: one inverse serves both
            assert np.array_equal(kernel.inverse(-m), -got)

    @pytest.mark.parametrize("m", [[[0.0]], [[1.0, 2.0], [2.0, 4.0]],
                                   [[1.0, 1.0], [1.0, 1.0 + 1e-15]]],
                             ids=["zero", "rank-one", "near-singular"])
    def test_singular_raises(self, m):
        with pytest.raises(kernel.SingularMatrixError):
            kernel.inverse(np.array(m))


class TestInfNorm:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 40), st.integers(0, 40), SEEDS)
    def test_matches_wrapped_form(self, ndim, rows, cols, seed):
        shape = ((), (rows,), (rows, cols), (rows, cols, 2))[ndim]
        a = np.random.default_rng(seed).standard_normal(shape)
        got, want = outcome(kernel.inf_norm, a), outcome(oracles.inf_norm_wrapped, a)
        # 0-d input has no axis 1 in either form
        assert got[0] is want[0] if isinstance(want, tuple) else got == want

    @pytest.mark.parametrize("a", [[], [-3.0, 2.0], np.zeros((0, 0)), np.zeros((3, 0)),
                                   [[1.0, -2.0], [-4.0, 0.5]]])
    def test_lists_and_empty(self, a):
        assert kernel.inf_norm(a) == oracles.inf_norm_wrapped(a)


class TestDetPoints:
    # real poles within 0.05 of the 1.37 circle reject the points near them
    POLES = st.one_of(st.floats(1.3, 1.45), st.floats(-1.45, -1.3),
                      st.sampled_from([0.0, 0.5, 1.0, np.inf]))

    @settings(max_examples=150, deadline=None)
    @given(st.lists(POLES, max_size=4), st.integers(1, 60), SEEDS)
    def test_matches_one_draw_at_a_time(self, xi, count, seed):
        got = verify._det_points(tuple(xi), count=count, seed=seed)
        want = oracles.det_points_loop(tuple(xi), count, seed)
        assert all(type(z) is complex for z in got)
        assert np.array_equal(np.array(got), np.array(want))

    def test_rejected_points_are_skipped(self):
        # about 1 point in 90 lies within 0.05 of a pole on the circle
        free = verify._det_points((), count=300)
        got = verify._det_points((1.37, -1.37), count=300)
        assert got == oracles.det_points_loop((1.37, -1.37), 300, verify.DET_SEED)
        assert got != free
        assert set(got) < set(free + verify._det_points((), count=400))
