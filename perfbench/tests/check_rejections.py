"""Each output check accepts a real rlab report and rejects a corrupted one.

The reports come from small versions of the benchmark's operations, made in
process through ``rlab.cli.main``.  Run this file by path,

    python3 -m pytest -q perfbench/tests/check_rejections.py

Its name keeps it out of the repository-wide pytest run, whose acceptance
criteria include wall-clock gates that any extra work before them brings
closer.
"""

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from rlab import cli  # noqa: E402

from perfbench import checks, tracing, workloads  # noqa: E402
from perfbench.checks import CheckFailed  # noqa: E402


def run_rlab(tmp_path, *argv) -> dict:
    out = tmp_path / "report.json"
    assert cli.main(["--seed", "3", "--out", str(out), *(str(a) for a in argv)]) == 0
    return json.loads(out.read_text())


def altered(report: dict, name: str, change) -> dict:
    """A copy of the report with record `name`'s value replaced by change(value)."""
    bad = copy.deepcopy(report)
    for rec in bad["records"]:
        if rec["name"] == name:
            rec["value"] = change(rec["value"])
            return bad
    raise KeyError(name)


def accepts_only_the_original(check, report, *corrupted):
    check(report)
    for bad in corrupted:
        with pytest.raises(CheckFailed):
            check(bad)


def write(tmp_path, name, doc) -> str:
    return workloads.write_doc(tmp_path / name, doc)


# ---------------------------------------------------------------- dense_sums

@pytest.mark.parametrize("p, low_name, bad", [
    (1, "cLow", 0.70),
    (1, "cHigh", 1.001),
    (2, "cLow", 0.999),
    (2, "cHigh", 1.001),
    (4, "cLow", 0.999),
    (4, "cHigh", 1.32),
])
def test_equiv_window(tmp_path, p, low_name, bad):
    report = run_rlab(tmp_path, "equiv", "--space", f"lp:{p}", "--weight", "const:1", "--n", 6, "--trials", 3)
    accepts_only_the_original(checks.equiv_lp(p, 6), report, altered(report, low_name, lambda _: bad))


def test_hadamard_bracket(tmp_path):
    n, height = 4, Fraction(3, 4)
    cells = workloads.hadamard_cells(n, np.random.default_rng(5))
    fn = write(tmp_path, "h.json", workloads.indicator_doc(n, cells, height))
    report = run_rlab(tmp_path, "multiplicator", "--space", "lp:1", "--fn", fn, "--n", n, "--budget", 12)
    upper = checks.number(checks.records(report)["upper"])
    accepts_only_the_original(
        checks.multiplicator_hadamard(n, height),
        report,
        altered(report, "upper", lambda v: v * 1.01),
        altered(report, "lower", lambda v: upper * 1.01),
    )


def test_single_negative_bracket(tmp_path):
    n, height = 6, Fraction(5, 8)
    fn = write(tmp_path, "s.json", workloads.indicator_doc(n, workloads.single_negative_cells(n), height))
    report = run_rlab(tmp_path, "multiplicator", "--space", "lp:1", "--fn", fn, "--n", n, "--budget", 16)
    bound = float(height) * (6**0.5 - 2 / 6**0.5) * 6 / 64
    accepts_only_the_original(
        checks.multiplicator_single_negative(n, height),
        report,
        altered(report, "lower", lambda _: bound * 0.99),
        altered(report, "upper", lambda v: checks.number(checks.records(report)["lower"]) / 2),
    )


def test_hadamard_cells_are_orthogonal():
    for seed in range(5):
        cells = workloads.hadamard_cells(8, np.random.default_rng(seed))
        signs = 1 - 2 * ((np.array(cells)[None, :] - 1) >> np.arange(7, -1, -1)[:, None] & 1)
        assert np.array_equal(signs.T @ signs, 8 * np.eye(8, dtype=int))


# --------------------------------------------------------- weighted_families

def test_projnorm(tmp_path):
    report = run_rlab(tmp_path, "projnorm", "--space", "lp:2", "--weight", "const:1", "--n-list", "2,4", "--trials", 1)
    accepts_only_the_original(
        checks.projnorm([2, 4], exact_one=True),
        report,
        altered(report, "lower_bound[n=4]", lambda v: 1 - 1e-6),
        altered(report, "lower_bound[n=2]", lambda v: 1.1),
    )
    checks.projnorm([2, 4])(altered(report, "lower_bound[n=2]", lambda v: 1.1))
    with pytest.raises(CheckFailed):
        checks.projnorm([2, 4, 8])(report)


def test_equiv_positive(tmp_path):
    report = run_rlab(tmp_path, "equiv", "--space", "lorentz:sqrt", "--weight", "logpow:0.5:level=4", "--n", 3, "--trials", 2)
    accepts_only_the_original(
        checks.equiv_positive,
        report,
        altered(report, "cLow", lambda v: 0.0),
        altered(report, "cHigh", lambda v: "inf"),
    )


@pytest.mark.parametrize("space", ["lp:2", "linfty", "explp:3", "orlicz:exp:3"])
def test_theorem_branch(tmp_path, space):
    report = run_rlab(tmp_path, "theorems", "--space", space, "--weight", "const:1")
    flip = {"equivalence": "equivalence fails", "equivalence fails": "equivalence"}
    accepts_only_the_original(checks.theorems(space), report, altered(report, "branch", flip.get))


def test_criterion_needs_a_closed_form():
    assert checks.loghalf_in_space("explp:2") and not checks.loghalf_in_space("explp:5/2")
    with pytest.raises(ValueError):
        checks.loghalf_in_space("lorentz:sqrt")


@pytest.mark.parametrize("space", ["lp:2", "lp:3/2", "lorentz:sqrt", "explp:2"])
def test_norm_against_numpy(tmp_path, space):
    w = workloads.logpow_weight(4)
    f = [Fraction(v, 4) for v in (3, -1, 0, 2, 5, 5, -8, 1, 0, 0, 7, -2, 1, 1, 4, -3)]
    doc = workloads.step_doc(4, (a * b for a, b in zip(f, w)))
    report = run_rlab(tmp_path, "norm", "--space", space, "--fn", write(tmp_path, "w.json", doc))
    accepts_only_the_original(
        checks.norm_matches(space, doc), report, altered(report, "norm", lambda v: v * (1 + 1e-7))
    )


def test_coefficients_by_sign_sums(tmp_path):
    values = [Fraction(v, d) for v, d in zip(range(-7, 9), [1, 3, 2, 5, 1, 1, 4, 3] * 2)]
    doc = workloads.step_doc(4, values)
    report = run_rlab(tmp_path, "coeffs", "--fn", write(tmp_path, "f.json", doc), "--n", 6)
    assert checks.rademacher_coefficients(doc, 6)[4:] == [0, 0]

    def bump(cs):
        return [cs[0], str(Fraction(cs[1]) + Fraction(1, 2**20)), *cs[2:]]

    accepts_only_the_original(checks.coeffs_exact(doc, 6), report, altered(report, "coefficients", bump))


# --------------------------------------------------------------- certificate

M3 = [0, 8, 2056]


def test_plan(tmp_path):
    report = run_rlab(tmp_path, "cex", "plan", "--m", "0,8,2056")
    accepts_only_the_original(
        checks.plan(M3),
        report,
        altered(report, "N", lambda N: [N[0], N[1] + 1, N[2]]),
        altered(report, "condition_ok", lambda ok: not ok),
    )
    relaxed = run_rlab(tmp_path, "cex", "plan", "--m", "2,3", "--relaxed")
    accepts_only_the_original(checks.plan([2, 3]), relaxed, altered(relaxed, "condition_ok", lambda ok: True))


def test_certify(tmp_path):
    report = run_rlab(tmp_path, "cex", "certify", "--m", "0,8,2056", "--blocks", 3)

    def lower_g(terms):
        return [terms[0], "0.9", terms[2]]

    def swap_g(terms):
        return [terms[0], terms[2], terms[1]]

    def nudge_f(series):
        return [*series[:-1], mpmath.nstr(mpmath.mpf(series[-1]) * (1 + mpmath.mpf(10) ** -15), 20)]

    accepts_only_the_original(
        checks.certify(M3, 3),
        report,
        altered(report, "verdict", lambda _: "FAIL"),
        altered(report, "g_lower_terms", lower_g),
        altered(report, "g_lower_terms", swap_g),
        altered(report, "f_upper_series", nudge_f),
        altered(report, "f_upper_series", lambda s: s[:-1]),
    )
    with pytest.raises(CheckFailed):  # m_3 below 8 N_2
        checks.certify([0, 8, 2055], 3)(report)


def test_build(tmp_path):
    report = run_rlab(tmp_path, "cex", "build", "--m", "2,3", "--relaxed", "--blocks", 2)

    def move_b_cell(blocks):
        return [[blocks[0][0] + 1, *blocks[0][1:]], blocks[1]]

    def move_f_cell(doc):
        """Swap the first cell of a block with the zero cell before it."""
        runs = [list(r) for r in doc["runs"]]
        i = next(k for k in range(1, len(runs)) if runs[k][1] != "0/1" and runs[k - 1][1] == "0/1")
        (z, zero), (n, v) = runs[i - 1], runs[i]
        runs[i - 1 : i + 1] = [r for r in ([z - 1, zero], [1, v], [1, zero], [n - 1, v]) if r[0]]
        return {"level": doc["level"], "runs": runs}

    def repeat_d_cell(blocks):
        return [blocks[0], [blocks[1][0], *blocks[1][:-1]]]

    def scale_g(doc):
        return {"level": doc["level"], "runs": [[n, str(2 * Fraction(v))] for n, v in doc["runs"]]}

    accepts_only_the_original(
        checks.build([2, 3], 2),
        report,
        altered(report, "B", move_b_cell),
        altered(report, "f", move_f_cell),
        altered(report, "D", repeat_d_cell),
        altered(report, "g", scale_g),
        altered(report, "equimeasurable", lambda _: False),
    )


def test_build_hadamard_gram(tmp_path):
    report = run_rlab(tmp_path, "cex", "build", "--m", "1,2,4", "--relaxed", "--blocks", 3)
    r = checks.records(report)
    # the single-negative blocks pass every test but the Gram matrix
    bad = altered(altered(report, "B", lambda _: r["D"]), "f", lambda _: r["g"])
    with pytest.raises(CheckFailed, match="Hadamard"):
        checks.build([1, 2, 4], 3)(bad)
    with pytest.raises(CheckFailed, match="overlap"):
        checks.build([1, 2, 4], 3)(altered(report, "D", lambda d: [d[0], d[1], [d[2][0], *d[2][:-1]]]))


def test_khintchine(tmp_path):
    report = run_rlab(tmp_path, "khintchine", "--n", 8, "--trials", 20)
    accepts_only_the_original(
        checks.khintchine,
        report,
        altered(report, "violations", lambda _: 1),
        altered(report, "l1_of_(1,1)", lambda _: "1/2"),
    )


# ------------------------------------------------------------------ harness

def test_benchmark_json_lists_every_traced_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_tracer_counts_and_restores(tmp_path):
    from rlab import dyadic, projections

    originals = (cli.main, projections.rademacher_sum, dyadic.StepFunction.__dict__["from_runs"])
    tracer = tracing.install()
    try:
        run_rlab(tmp_path, "multiplicator", "--space", "lp:1", "--values", "1,0,0,1", "--n", 3, "--budget", 9)
    finally:
        tracer.uninstall()
    assert (cli.main, projections.rademacher_sum, dyadic.StepFunction.__dict__["from_runs"]) == originals
    metrics = tracer.metrics(1)
    assert set(metrics) == set(tracing.metric_units()) - {"trace.overhead_s"}
    assert metrics["cli.main.calls"]["value"] == 1
    assert metrics["projections.multiplicator_norm.calls"]["value"] == 1
    assert metrics["projections.objective_evals"]["value"] == 9
    assert metrics["dyadic.cells"]["value"] == 9 * 2**3
    assert metrics["reports.bytes"]["value"] == (tmp_path / "report.json").stat().st_size
    inclusive = metrics["projections.multiplicator_norm.s"]["value"]
    assert 0 <= metrics["projections.multiplicator_norm.self_s"]["value"] <= inclusive
