import pytest

import oracles
from qbdshift import ShiftKind, build_transform, classify, perron_data, solve_via, validate
from qbdshift import cli as cli_mod


def transforms_of(model, cls, perron):
    """Every shift kind's transform built from `perron`, as
    check_identity_suite takes them."""
    return {kind: build_transform(model, cls, perron, kind) for kind in ShiftKind}


def solve_kind(model, cls, kind):
    """The route of one shift kind, built from the a-priori Perron data."""
    return solve_via(model, build_transform(model, cls, perron_data(model, cls), kind))


@pytest.fixture(scope="session")
def p1():
    return validate([[0.5]], [[0.2]], [[0.3]])


@pytest.fixture(scope="session")
def n1():
    return validate([[0.4]], [[0.2]], [[0.4]])


@pytest.fixture(scope="session")
def t1():
    return validate([[0.3]], [[0.2]], [[0.5]])


@pytest.fixture(scope="session")
def n2():
    return validate(*oracles.N2)


@pytest.fixture(scope="session")
def e2():
    return validate(*oracles.E2)


def make_bank(classes=("positive", "null", "transient"), sizes=(2, 4, 8, 16),
              seeds_per_size=50, gamma=0.5):
    """Seeded instance bank: {class: [(model, classification), ...]}."""
    bank = {}
    for kind in classes:
        rows = []
        for n in sizes:
            for s in range(seeds_per_size):
                # str hash is salted per process; derive seeds arithmetically
                seed = (ord(kind[0]) * 1_000_003 + n * 1_009 + s) % (2**31)
                triple, _ = cli_mod.generate(kind, n, seed, gamma=gamma)
                rows.append((triple, classify(triple)))
        bank[kind] = rows
    return bank


@pytest.fixture(scope="session")
def small_bank():
    """Light sweep for unit-level property tests."""
    return make_bank(sizes=(2, 4), seeds_per_size=3)

