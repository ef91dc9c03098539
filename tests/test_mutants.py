"""Fault injection for the certificate suite (mutation testing: DeMillo,
Lipton and Sayward, IEEE Computer 11(4), 1978).

Each mutant plants one error that a stage of a certified solve could
make, and the suite must fail at least one certificate on it. Data
mutants corrupt the output of classification, of the reference solve or
of the completed Perron data. Shift mutants corrupt every transform built
after the reference solve, for the routes and the suite alike, so that
certificates, not the recovery guard of a route, have to catch them; the
class-matched route classify solved before them stays as it was.

    python tests/test_mutants.py

prints the catch matrix (mutant x certificate family) and the table of
what the near-null model catches, both shown in README.md;
test_readme_shows_the_catch_matrix and test_readme_shows_the_near_null_table
keep them equal.

No mutant corrupts a root computation of classify: it makes none. It
takes the splitting roots from the class-matched shifted solve, and the
shift points xi_n and xi_{n+1} are a mutant target of their own
(xi_n-1-removed, with xi_{n-1} from a QZ of the companion pencil). The
report's roots are eig(G) together with 1/eig(R), which
spec:eig(G)+1/eig(R)=roots(B) checks against det B(z).
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import oracles
from qbdshift import (
    QbdTriple,
    check_identity_suite,
    classify,
    cli,
    complete_perron_data,
    perron_data,
    reference_solution,
    shift,
    shift_routes,
)

BUMP = 1e-6
CLASSES = ("positive", "null", "transient")
N = 4
SEED = 1
# a positive model inside the near-null band: root gap about 1.2e-8, the
# certified set from the class-matched right shift
NEAR_NULL_GAMMA = 1e-8


def _bump(name):
    def corrupt(sol):
        mat = getattr(sol, name).copy()
        mat[0, N - 1] += BUMP
        return dataclasses.replace(sol, **{name: mat})
    return corrupt


def _rebuilt(model, t, q, s, xi_n=None):
    """`t` with projectors q and s and the shifted triple built from them
    by the shift formulas, taking xi_n in place of t.xi_n when given."""
    xi_n = t.xi_n if xi_n is None else xi_n
    eye = np.eye(model.n)
    a_minus, a_zero, a_plus = model.a_minus, model.a_zero, model.a_plus
    if q is not None:
        a_minus = model.a_minus @ (eye - q)
        a_zero = a_zero + xi_n * model.a_plus @ q
    if s is not None:
        a_zero = a_zero + (1.0 / t.xi_n1) * s @ model.a_minus
        a_plus = (eye - s) @ model.a_plus
    if q is not None and s is not None:
        a_zero = a_zero - (1.0 / t.xi_n1) * s @ model.a_minus @ q
    shifted = QbdTriple(model.n, a_minus, a_zero, a_plus)
    return dataclasses.replace(t, q=q, s=s, xi_n=xi_n, shifted=shifted)


def _scaled_pairing(model, cls, t):
    # v^T u_G = v_R^T w = 1 + 1e-6: the projectors are not idempotent
    scale = 1.0 + BUMP
    return _rebuilt(model, t, None if t.q is None else scale * t.q,
                    None if t.s is None else scale * t.s)


def _rank_two(model, cls, t):
    # a second rank-one term orthogonal to the Perron vector, so that
    # Q u_G = u_G and v_R^T S = v_R^T still hold
    e = np.ones(model.n)

    def orth(u):
        y = np.arange(model.n, dtype=float)
        return y - (y @ u) / (u @ u) * u
    q = None if t.q is None else t.q + np.outer(e, orth(t.u_g)) / model.n
    s = None if t.s is None else t.s + np.outer(orth(t.v_r), e) / model.n
    return _rebuilt(model, t, q, s)


def _wrong_root(model, cls, t):
    # the root next below xi_n moved to zero in place of xi_n
    if t.q is None:
        return t
    xi_below = oracles.qz_roots(model.poly).values()[model.n - 2]
    return _rebuilt(model, t, t.q, t.s, xi_n=float(xi_below.real))


def _swapped(model, cls, t):
    # B_-1 and B_1 trade places in the shifted triple
    return dataclasses.replace(t, shifted=t.shifted.reversed())


def _dropped_term(model, cls, t):
    # the shifted A_0 without its xi_n A_1 Q term
    if t.q is None:
        return t
    sh = t.shifted
    a_zero = sh.a_zero - t.xi_n * model.a_plus @ t.q
    return dataclasses.replace(t, shifted=QbdTriple(model.n, sh.a_minus, a_zero, sh.a_plus))


def _mmatrix_breach(sol):
    # -K with one positive off-diagonal entry: K[0, n-1] from its
    # nonnegative value to -1e-6
    k = sol.k.copy()
    k[0, N - 1] = -BUMP
    return dataclasses.replace(sol, k=k)


def _bumped_w(sol):
    # W is computed on first read, not a field: a copy of the set with
    # the corrupted W in its instance cache
    w = sol.w.copy()
    w[0, N - 1] += BUMP
    out = dataclasses.replace(sol)
    out.__dict__["w"] = w
    return out


SOLUTION_MUTANTS = {
    "G+1e-6": _bump("g"),
    "R+1e-6": _bump("r"),
    "Ghat+1e-6": _bump("ghat"),
    "Rhat+1e-6": _bump("rhat"),
    "W+1e-6": _bumped_w,
    "K-transposed": lambda sol: dataclasses.replace(sol, k=sol.k.T.copy()),
    "-K-offdiagonal>0": _mmatrix_breach,
}
PERRON_MUTANTS = {
    "v_G-negated": lambda perron: dataclasses.replace(perron, v_g=-perron.v_g),
}
SHIFT_MUTANTS = {
    "vTu=1+1e-6": _scaled_pairing,
    "Q-rank-2": _rank_two,
    "xi_n-1-removed": _wrong_root,
    "B-1<->B1": _swapped,
    "A0-without-xi_n.A1.Q": _dropped_term,
}
MUTANTS = [*SOLUTION_MUTANTS, *PERRON_MUTANTS, *SHIFT_MUTANTS]


def certify(kind, mutant, monkeypatch, gamma=0.5):
    """The certified solve of cli.solve_report on one generated model, with
    `mutant` planted; returns the certificates. `kind` "near-null" is the
    positive model at NEAR_NULL_GAMMA."""
    if kind == "near-null":
        kind, gamma = "positive", NEAR_NULL_GAMMA
    model, _ = cli.generate(kind, N, SEED, gamma=gamma)
    cls = classify(model)
    sol = reference_solution(model, cls)
    if mutant in SOLUTION_MUTANTS:
        sol = SOLUTION_MUTANTS[mutant](sol)
    perron = complete_perron_data(perron_data(model, cls), sol)
    if mutant in PERRON_MUTANTS:
        perron = PERRON_MUTANTS[mutant](perron)
    if mutant in SHIFT_MUTANTS:
        real = shift.build_transform
        corrupt = SHIFT_MUTANTS[mutant]

        def planted(model, cls, perron, kind, v=None, w=None):
            return corrupt(model, cls, real(model, cls, perron, kind, v=v, w=w))
        monkeypatch.setattr(shift, "build_transform", planted)
    transforms, routes = shift_routes(model, cls, perron)
    return check_identity_suite(model, cls, sol, perron, transforms, routes)


FAMILIES = (
    "eq", "id", "mmatrix", "sign", "spec", "factor", "W",
    "eq_s", "K_s=K", "roots-surgery", "det-identity", "factor:phi_s",
    "replacement", "hats", "roundtrip",
)


def family(name):
    """Certificate family of a certificate name, shift kind dropped."""
    head, _, rest = name.partition(":")
    if head not in ("right", "left", "double"):
        return head
    if rest in ("eq:G_s", "eq:R_s"):
        return "eq_s"
    if rest == "id:K_s=K":
        return "K_s=K"
    if rest.endswith("-replacement"):
        return "replacement"
    if rest in ("roots-surgery", "det-identity", "factor:phi_s", "roundtrip"):
        return rest
    return "hats"


def applies(kind, mutant):
    # no W at null recurrence; on the near-null model ||W|| ~ 1/gap ~ 1e8,
    # so a 1e-6 entry is below the round-off of W itself
    return not (mutant == "W+1e-6" and kind in ("null", "near-null"))


def failed_families(kind, mutant):
    """The families of the certificates that fail."""
    with pytest.MonkeyPatch.context() as mp:
        return {family(c.name) for c in certify(kind, mutant, mp) if c.status == "fail"}


@pytest.mark.parametrize("kind", [*CLASSES, "near-null"])
def test_unmutated_solve_passes(kind, monkeypatch):
    failed = [c.name for c in certify(kind, None, monkeypatch) if c.status == "fail"]
    assert not failed


@pytest.mark.parametrize("kind, mutant", [
    (kind, mutant) for kind in [*CLASSES, "near-null"] for mutant in MUTANTS
    if applies(kind, mutant)
])
def test_mutant_is_caught(kind, mutant, monkeypatch):
    failed = [c.name for c in certify(kind, mutant, monkeypatch) if c.status == "fail"]
    assert failed, f"no certificate fails on mutant {mutant!r}"


def stein_guard_solve(mutant, monkeypatch, tmp_path):
    """`solve --json` of the near-null model with `mutant` planted in the
    certified set; returns the exit code, the report's text and the
    arguments of each Stein solve."""
    from qbdshift import kernel

    model, meta = cli.generate("positive", N, SEED, gamma=NEAR_NULL_GAMMA)
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cli.model_payload(model, meta)))
    real = cli.shift_mod.reference_solution
    monkeypatch.setattr(cli.shift_mod, "reference_solution",
                        lambda *a, **k: SOLUTION_MUTANTS[mutant](real(*a, **k)))
    stein_calls = []
    real_stein = kernel.stein_solve

    def counted_stein(*args):
        stein_calls.append(args)
        return real_stein(*args)

    monkeypatch.setattr(kernel, "stein_solve", counted_stein)
    report_path = tmp_path / "report.json"
    code = cli.main(["solve", str(path), "--json", str(report_path)])
    return code, report_path.read_text(), stein_calls


STEIN_GUARD_MUTANTS = [("near-null", "G+1e-6"), ("near-null", "R+1e-6")]


@pytest.mark.parametrize("kind, mutant", STEIN_GUARD_MUTANTS)
def test_mutant_trips_the_stein_guard(kind, mutant, monkeypatch, tmp_path, capsys):
    # G or R off by 1e-6 on the near-null model lifts rho(G) rho(R) above 1:
    # the Stein guard refuses W, which fails the W:* certificates (exit 5),
    # and the rest of the suite is still judged; the refusal is kept, so
    # the guard runs once however often W is read
    code, text, stein_calls = stein_guard_solve(mutant, monkeypatch, tmp_path)
    assert code == cli.EXIT_CERTIFICATE
    report = json.loads(text)
    assert "Stein series diverges" in report["solution"]["W_reason"]
    stein = next(c for c in report["certificates"] if c["name"] == "W:stein")
    assert stein["status"] == "fail"
    assert "Stein series diverges" in stein["context"]
    assert "FAIL W:stein" in capsys.readouterr().out
    assert len(stein_calls) == 1


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("kind, mutant", STEIN_GUARD_MUTANTS)
def test_stein_guard_report_is_strict_json(kind, mutant, monkeypatch, tmp_path, capsys):
    # the refused W:* certificates have no finite residual: the report
    # writes null, not Infinity, and the summary prints their context
    code, text, _ = stein_guard_solve(mutant, monkeypatch, tmp_path)
    assert code == cli.EXIT_CERTIFICATE
    report = json.loads(text, parse_constant=_no_constant)
    refused = [c for c in report["certificates"] if c["name"].startswith("W:")]
    assert refused and all(c["status"] == "fail" and c["residual"] is None for c in refused)
    out = capsys.readouterr().out
    for cert in refused:
        assert f"FAIL {cert['name']}: {cert['context']}" in out


def catch_matrix():
    """Markdown table: per mutant and family, the classes (P, N, T) on
    which some certificate of the family fails."""
    lines = ["| mutant | " + " | ".join(f"`{f}`" for f in FAMILIES) + " |",
             "|---" * (len(FAMILIES) + 1) + "|"]
    for mutant in MUTANTS:
        caught = {f: "" for f in FAMILIES}
        for kind in CLASSES:
            if applies(kind, mutant):
                for fam in failed_families(kind, mutant):
                    caught[fam] += kind[0].upper()
        lines.append(f"| {mutant} | " + " | ".join(caught[f] for f in FAMILIES) + " |")
    return "\n".join(lines)


def near_null_table():
    """Markdown table: per mutant, the families that fail on the near-null
    model, and those that fail on the positive model at gamma 0.5 but not
    there."""
    def listed(families):
        return ", ".join(f"`{f}`" for f in FAMILIES if f in families) or "none"

    lines = ["| mutant | fails at gamma 1e-8 | fails at gamma 0.5 only |",
             "|---|---|---|"]
    for mutant in MUTANTS:
        away = failed_families("positive", mutant)
        if not applies("near-null", mutant):
            here = "not planted"
        else:
            caught = failed_families("near-null", mutant)
            here, away = listed(caught), away - caught
        lines.append(f"| {mutant} | {here} | {listed(away)} |")
    return "\n".join(lines)


def readme_table(header):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index(header)
    return readme[start:readme.index("\n\n", start)]


def test_readme_shows_the_catch_matrix():
    assert readme_table("| mutant | `eq`") == catch_matrix()


def test_readme_shows_the_near_null_table():
    assert readme_table("| mutant | fails at") == near_null_table()


if __name__ == "__main__":
    print(catch_matrix())
    print()
    print(near_null_table())
