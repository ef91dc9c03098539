"""Seeded inputs of the benchmark workloads.

Every model is made here, with numpy alone, and written as a model file;
the program under test only ever reads those files. `gen_blocks`
reproduces the arithmetic of the `qbdshift gen` recipe (uniform positive
draws, a Hamiltonian cycle of weight 1e-3 in A_0, gamma-scaled extra mass
on the heavy side, rows normalised to a stochastic sum), so a workload
does not change when the program's own generator does. `selfcheck.py`
compares the two.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

CYCLE_WEIGHT = 1e-3

# Class each generated model must have; the independent checks read it
# from here, never from the program's classification.
POSITIVE = "positive"
NULL = "null"
TRANSIENT = "transient"


def gen_blocks(kind, n, seed, gamma=0.5):
    """(A_-1, A_0, A_1) of a seeded instance of class `kind`."""
    rng = np.random.default_rng(seed)
    x_zero = rng.uniform(0.1, 1.0, (n, n))
    idx = np.arange(n)
    x_zero[idx, (idx + 1) % n] += CYCLE_WEIGHT
    base = rng.uniform(0.1, 1.0, (n, n))
    if kind == NULL:
        x_minus, x_plus = base, base.copy()
    else:
        extra = gamma * rng.uniform(0.1, 1.0, (n, n))
        if kind == POSITIVE:
            x_minus, x_plus = base + extra, base.copy()
        elif kind == TRANSIENT:
            x_minus, x_plus = base.copy(), base + extra
        else:
            raise ValueError(f"unknown class {kind!r}")
    row = (x_minus + x_zero + x_plus).sum(axis=1)[:, None]
    return x_minus / row, x_zero / row, x_plus / row


def zero_down_blocks():
    """A fixed 4-phase triple with A_-1 = 0: transient, G = 0, xi_n = 0.

    A_0 is half a cyclic permutation and A_1 is uniform, so the sum is
    stochastic and irreducible.
    """
    n = 4
    a_zero = np.zeros((n, n))
    idx = np.arange(n)
    a_zero[idx, (idx + 1) % n] = 0.5
    return np.zeros((n, n)), a_zero, np.full((n, n), 0.5 / n)


@dataclasses.dataclass(frozen=True)
class Instance:
    """One model of a workload.

    `kind` is the class the construction forces. `solutions` is the
    number of solution operations per round, after the one certified
    solve. A probe is an input on which the certified solve is known to
    fail because of a fault in the program; probes are attempted in every
    round but kept out of every timing and accuracy metric, and get no
    solution operation.
    """

    name: str
    kind: str
    blocks: tuple
    probe: bool = False
    solutions: int = 1


def _gen(kind, n, seed, gamma=0.5):
    name = f"{kind}-n{n}-seed{seed}" + ("" if gamma == 0.5 else f"-gamma{gamma:g}")
    return Instance(name, kind, gen_blocks(kind, n, seed, gamma))


def _mixed_small(seed):
    out = [
        _gen(kind, n, 1000 * seed + i)
        for kind in (POSITIVE, NULL, TRANSIENT)
        for n in (4, 8, 16)
        for i in range(5)
    ]
    # Fixed inputs (independent of the seed) that fail today.
    probes = [_gen(POSITIVE, 8, 3, 1e-8), _gen(POSITIVE, 8, 0, 1e-7),
              Instance("zero-down-n4", TRANSIENT, zero_down_blocks())]
    out.extend(dataclasses.replace(p, probe=True, solutions=0) for p in probes)
    return out


def _separated_n64(seed):
    return [_gen(POSITIVE, 64, seed), _gen(TRANSIENT, 64, seed)]


def _null_n128(seed):
    # A solution takes about 1/15 of a certified solve here: four per round
    # give solution_s four times the samples for a fifth more round time.
    return [dataclasses.replace(_gen(NULL, 128, seed), solutions=4)]


def _nearnull_n96(seed):
    return [_gen(POSITIVE, 96, seed, 5e-4)]


WORKLOADS = {
    "mixed-small": _mixed_small,
    "separated-n64": _separated_n64,
    "null-n128": _null_n128,
    "nearnull-n96": _nearnull_n96,
}


def instances(workload, seed):
    return WORKLOADS[workload](seed)


def write_model(path, inst):
    """Write `inst` in the model-file format `qbdshift solve` reads."""
    a_minus, a_zero, a_plus = inst.blocks
    payload = {
        "n": int(a_minus.shape[0]),
        "a_minus": [float(x) for x in a_minus.reshape(-1)],
        "a_zero": [float(x) for x in a_zero.reshape(-1)],
        "a_plus": [float(x) for x in a_plus.reshape(-1)],
        "meta": {"name": inst.name, "class": inst.kind},
    }
    Path(path).write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
