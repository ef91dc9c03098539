"""Span tracing of the program's layers, from outside the program.

`Tracer.install` replaces public functions of the qbdshift modules by
wrappers, through the module attributes. Calls inside the package look
those attributes up at call time (`kernel.solve_linear(...)`, or a bare
`solve_min_g(...)` resolved in its module's globals), so nested calls
are traced too. Each span records its name, start, end, parent span, the
operation it belongs to, and whether it raised. Spans stay in memory and
are summarised or dumped when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time

# Called so often that a wrapper would cost more than their work; their
# time lands in the self time of their callers.
NOT_WRAPPED = {"kernel.inf_norm", "matpoly.chordal_distance"}

# Public functions outside the modules' __all__ lists.
EXTRA = {"cli": ("solve_report",), "shift": ("pick_kind",)}

CR = "solvers.cyclic_reduction"

# Span fields.
NAME, START, END, PARENT, OP, RAISED, SWEEPS = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._op = -1

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self._op, False, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                rec[RAISED] = True
                raise
            finally:
                rec[END] = clock()
                stack.pop()
            if name == CR:
                rec[SWEEPS] = out.iterations
            return out

        return traced

    def install(self, modules):
        """Wrap the public functions of each module in `modules`
        ({short name: module})."""
        for short, mod in modules.items():
            for attr in tuple(getattr(mod, "__all__", ())) + EXTRA.get(short, ()):
                fn = getattr(mod, attr)
                name = f"{short}.{attr}"
                if inspect.isfunction(fn) and name not in NOT_WRAPPED:
                    setattr(mod, attr, self._wrap(name, fn))

    @contextlib.contextmanager
    def op(self, op_id, label):
        """A root span for one benchmark operation."""
        rec = [label, 0.0, 0.0, -1, op_id, False, 0]
        self._op = op_id
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            yield
        except BaseException:
            rec[RAISED] = True
            raise
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()
            self._op = -1

    def summary(self, op_ids):
        """Per-function totals over the operations in `op_ids`:
        {name: {"self_s", "total_s", "calls", "raised", "sweeps"}}."""
        keep = set(op_ids)
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        out = {}
        for i, s in enumerate(self.spans):
            if s[OP] not in keep:
                continue
            agg = out.setdefault(s[NAME], {"self_s": 0.0, "total_s": 0.0, "calls": 0,
                                           "raised": 0, "sweeps": 0})
            agg["self_s"] += s[END] - s[START] - child[i]
            agg["total_s"] += s[END] - s[START]
            agg["calls"] += 1
            agg["raised"] += int(s[RAISED])
            agg["sweeps"] += s[SWEEPS]
        return out

    def dump(self, path, ops):
        """Write every span, and the operations they belong to, as JSON."""
        payload = {
            "fields": ["name", "start", "end", "parent", "op", "raised", "sweeps"],
            "ops": ops,
            "spans": self.spans,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)

