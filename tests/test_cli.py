"""Command-line front end: subcommands, formats, exit codes, determinism."""

import hashlib
import json
import math
import os
import shlex
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

from rlab import cli
from rlab import counterexample as cex
from rlab.cli import COMMANDS, main
from rlab.dyadic import make_step, rademacher_sum
from rlab.phi import ExpPowerOrlicz, PowerOrlicz
from rlab.projections import khintchine_check, khintchine_windows, rademacher_sum_l1_exact
from rlab.weighted import parse_weight

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None


def records(doc):
    return {rec["name"]: rec for rec in doc["records"]}


def run_python(*args, timeout=10):
    """python with src/ on its path, in a child process."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, env={**os.environ, "PYTHONPATH": path},
    )


def run_child(*argv, timeout=10):
    """rlab in a child process, so that a command that never returns fails
    its test at `timeout` seconds instead of stalling the suite."""
    return run_python("-m", "rlab.cli", *argv, timeout=timeout)


def test_import_loads_no_scipy():
    res = run_python(
        "-c", "import sys, rlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


class TestNorm:
    def test_lp_values(self, capsys):
        code, doc = run_json(capsys, "norm", "--space", "lp:1", "--values", "2,0,0,0")
        assert code == 0
        assert records(doc)["norm"]["value"] == pytest.approx(0.5)

    @pytest.mark.parametrize("space", ["lp:2", "lp:4"])
    def test_lp_values_below_float_range(self, capsys, space):
        # the p-th moment, 1e-200**p, is far below the float range
        code, doc = run_json(capsys, "norm", "--space", space, "--values", "1e-200,1e-200")
        assert code == 0
        assert records(doc)["norm"]["value"] == 1e-200

    def test_chi_input(self, capsys):
        code, doc = run_json(
            capsys, "norm", "--space", "lorentz:sqrt", "--chi", "1/4"
        )
        assert code == 0
        assert records(doc)["norm"]["value"] == pytest.approx(0.5)

    def test_fn_file(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        path.write_text(make_step(1, [1, 2]).to_json())
        code, doc = run_json(capsys, "norm", "--space", "linfty", "--fn", str(path))
        assert code == 0
        assert records(doc)["norm"]["value"] == pytest.approx(2.0)

    def test_malformed_space_exit_1(self, capsys):
        code, _ = run(capsys, "norm", "--space", "zeta:3", "--values", "1,1")
        assert code == 1

    def test_missing_function_exit_1(self, capsys):
        code, _ = run(capsys, "norm", "--space", "lp:2")
        assert code == 1

    def test_bad_value_count_exit_1(self, capsys):
        code, _ = run(capsys, "norm", "--space", "lp:2", "--values", "1,2,3")
        assert code == 1

    @pytest.mark.parametrize("space,values", [
        ("lp:2", "1e200,1"),
        ("lp:4", "1e200,1"),
        ("lp:5/2", "1e200,1"),
        # a 301-bit denominator takes the per-run Fraction path
        ("lp:2", f"1e200,1/{2**300 + 1}"),
    ])
    def test_overflow_exit_2(self, capsys, space, values):
        code = main(["norm", "--space", space, "--values", values])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("numeric failure:") and "Traceback" not in err

    def test_orlicz_norm_past_float_range_exit_2(self):
        # the norm 1.5e308 / M^-1(1) = 1.5e308 / (log 2)^(2/3) passes the float
        # range: the modular at the largest float is already above 1
        res = run_child("norm", "--space", "orlicz:exp:1.5", "--values", "1.5e308,1.5e308")
        assert res.returncode == 2
        assert res.stderr.startswith("numeric failure:") and "Traceback" not in res.stderr

    @pytest.mark.parametrize("space,M,values,mass", [
        # top / M^-1(1) overflows, the norm does not
        ("orlicz:exp:1.5", ExpPowerOrlicz(1.5), "1.5e308,0,0,0,0,0,0,0", 8),
        # lo + hi of the bisection passes the float range
        ("orlicz:pow:2", PowerOrlicz(2.0), "1e308,1e308", 1),
    ])
    def test_orlicz_norm_near_float_max(self, space, M, values, mass):
        # v * chi_A has Luxemburg norm v / M^-1(1 / |A|)
        res = run_child("norm", "--space", space, "--values", values)
        assert res.returncode == 0, res.stderr
        value = records(json.loads(res.stdout))["norm"]["value"]
        v = float(values.split(",")[0])
        assert value == pytest.approx(v / M.inverse(mass), rel=1e-9)

    @pytest.mark.parametrize("space,values,expected", [
        # the modular search stopped below 1e-300 and printed 0.0
        ("orlicz:pow:2", "1e-301,1e-301", 1e-301),
        # v chi_[0,1/2] has Luxemburg norm v / M^-1(2) = v / sqrt(log 3)
        ("orlicz:exp:2", "1e-310,0", 1e-310 / math.sqrt(math.log(3.0))),
    ])
    def test_orlicz_norm_below_1e300(self, capsys, space, values, expected):
        code, doc = run_json(capsys, "norm", "--space", space, "--values", values)
        assert code == 0
        assert records(doc)["norm"]["value"] == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("values,expected", [
        # each |v|**1.5, 1e-451.5, underflowed to 0.0
        ("1e-301,1e-301", 1e-301),
        # v chi_[0,1/2] has L_p norm v 2**(-1/p)
        ("1e-310,0", 1e-310 * 2 ** (-2 / 3)),
    ])
    def test_lp_non_integer_p_below_float_range(self, capsys, values, expected):
        code, doc = run_json(capsys, "norm", "--space", "lp:3/2", "--values", values)
        assert code == 0
        assert records(doc)["norm"]["value"] == pytest.approx(expected, rel=1e-9, abs=0)

    @pytest.mark.parametrize("space,method", [("lp:2", "exact"), ("lp:3/2", "evaluator")])
    def test_only_integer_p_is_labelled_exact(self, capsys, space, method):
        code, doc = run_json(capsys, "norm", "--space", space, "--values", "1e-200,1e-200")
        assert code == 0
        assert records(doc)["norm"]["method"] == method


class TestRearrange:
    def test_sorted_output(self, capsys):
        code, doc = run_json(capsys, "rearrange", "--values", "3,1,2,3")
        assert code == 0
        runs = records(doc)["rearrangement"]["value"]["runs"]
        assert runs[0] == [2, "3/1"]


def scalar_draws(seed: int, n_max: int, trials: int) -> list[list[F]]:
    """The `khintchine` trial vectors drawn one scalar at a time."""
    rng = np.random.default_rng(seed)
    vectors = []
    for _ in range(trials):
        n = int(rng.integers(1, n_max + 1))
        a = [F(int(rng.integers(-8, 9)), 2 ** int(rng.integers(0, 7))) for _ in range(n)]
        if all(v == 0 for v in a):
            a[0] = F(1)
        vectors.append(a)
    return vectors


def rejecting(chosen):
    """A `khintchine_windows` that fails the lower edge of exactly the rows
    whose vectors are in `chosen` and accepts the others unchecked."""

    def windows(rows):
        out = np.array([[F(v, 64) for v in row] in chosen for row in rows.tolist()], dtype=bool)
        return ~out, np.ones(len(rows), dtype=bool)

    return windows


class TestKhintchine:
    def test_battery_passes(self, capsys):
        code, doc = run_json(capsys, "--seed", "1", "khintchine", "--n", "12", "--trials", "50")
        assert code == 0
        recs = records(doc)
        assert recs["violations"]["value"] == 0
        assert recs["l1_of_(1,1)"]["value"] == "1/1"
        assert recs["lower_constant_attained_by_(1,1)"]["value"] is True

    @pytest.mark.parametrize("n_max", [16, 20])
    def test_vectors_are_the_scalar_draws(self, capsys, monkeypatch, n_max):
        # with every row rejected, the report lists every trial's vector
        monkeypatch.setattr(cli, "khintchine_windows",
                            lambda rows: (np.zeros(len(rows), dtype=bool),) * 2)
        for seed in range(21):
            code, doc = run_json(capsys, "--seed", str(seed), "khintchine", "--n", str(n_max), "--trials", "60")
            assert code == 2
            expected = [[str(v) for v in a] for a in scalar_draws(seed, n_max, 60)]
            recs = records(doc)
            assert [recs[f"violation[{t}]"]["value"] for t in range(60)] == expected
            assert recs["violations"]["value"] == 60

    def test_forced_violations_in_trial_order(self, capsys, monkeypatch):
        vectors = scalar_draws(7, 16, 40)
        chosen = [vectors[29], vectors[4]]
        monkeypatch.setattr(cli, "khintchine_windows", rejecting(chosen))
        code, doc = run_json(capsys, "--seed", "7", "khintchine", "--n", "16", "--trials", "40")
        assert code == 2
        names = [rec["name"] for rec in doc["records"]]
        failed = [t for t, a in enumerate(vectors) if a in chosen]
        assert failed == [4, 29]
        assert names == [f"violation[{t}]" for t in failed] + [
            "l1_of_(1,1)", "lower_constant_attained_by_(1,1)", "violations"]
        recs = records(doc)
        for t in failed:
            assert recs[f"violation[{t}]"]["value"] == [str(v) for v in vectors[t]]
            assert recs[f"violation[{t}]"]["method"] == "exact"
        assert recs["violations"]["value"] == 2

    def test_seeded_vectors_against_the_full_enumeration(self):
        # the README's 500 vectors: the half-enumeration L1 and window, one
        # row and in batches of equal length, against the 2**n cells of
        # rademacher_sum
        vectors = scalar_draws(7, 16, 500)
        by_length = {}
        for a in vectors:
            l1 = rademacher_sum(a).abs_moment(1)
            assert rademacher_sum_l1_exact(a) == l1
            l2_sq = sum(v * v for v in a)
            window = (l2_sq <= 2 * l1 * l1, l1 * l1 <= l2_sq)
            res = khintchine_check(a)
            assert (res["l1"], res["l2_squared"], res["lower_ok"], res["upper_ok"]) == (l1, l2_sq, *window)
            by_length.setdefault(len(a), []).append(([int(v * 64) for v in a], window))
        for rows_and_windows in by_length.values():
            rows = np.array([row for row, _ in rows_and_windows], dtype=np.int64)
            lower_ok, upper_ok = khintchine_windows(rows)
            assert list(zip(lower_ok.tolist(), upper_ok.tolist())) == [w for _, w in rows_and_windows]


class TestProjectionCommands:
    def test_coeffs(self, capsys):
        code, doc = run_json(capsys, "coeffs", "--values", "1,0,0,0", "--n", "2")
        assert code == 0
        assert records(doc)["coefficients"]["value"] == ["1/4", "1/4"]

    def test_project(self, capsys):
        code, doc = run_json(capsys, "project", "--values", "1,0,0,0", "--n", "2")
        assert code == 0
        proj = records(doc)["projection"]["value"]
        assert proj["runs"] == [[1, "1/2"], [2, "0/1"], [1, "-1/2"]]

    def test_equiv(self, capsys):
        code, doc = run_json(
            capsys, "--seed", "3", "equiv", "--space", "lp:2",
            "--weight", "const:1", "--n", "4", "--trials", "5",
        )
        assert code == 0
        recs = records(doc)
        assert recs["cLow"]["value"] == pytest.approx(1.0, rel=1e-6)
        assert recs["cHigh"]["value"] == pytest.approx(1.0, rel=1e-6)

    def test_multiplicator(self, capsys):
        code, doc = run_json(
            capsys, "multiplicator", "--space", "lp:1", "--values", "1,1,1,1",
            "--n", "3", "--budget", "20",
        )
        assert code == 0
        recs = records(doc)
        assert recs["lower"]["value"] == recs["upper"]["value"] == 1.0

    def test_projnorm(self, capsys):
        code, doc = run_json(
            capsys, "projnorm", "--space", "lp:2", "--weight", "const:1",
            "--n-list", "2,4", "--trials", "3",
        )
        assert code == 0
        assert [rec["name"] for rec in doc["records"]] == ["lower_bound[n=2]", "lower_bound[n=4]"]
        assert records(doc)["lower_bound[n=2]"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_projnorm_at_the_level_cap_in_1_gib(self):
        # only r_1, chi_[0,1/2] and trials of level at most 10 are built, never r_26
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
            "from rlab.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        res = run_python(
            "-c", script, "projnorm", "--space", "lp:2", "--weight", "logpow:0.5:level=6",
            "--n-list", "2,4,26", "--trials", "2", timeout=60,
        )
        assert res.returncode == 0, res.stderr
        values = [rec["value"] for rec in json.loads(res.stdout)["records"]]
        assert values == [1.0, 1.0, 1.0]

    def test_theorems(self, capsys):
        code, doc = run_json(
            capsys, "theorems", "--space", "lp:2", "--weight", "const:1"
        )
        assert code == 0
        assert records(doc)["branch"]["value"] == "equivalence"


class TestIndices:
    def test_sqrt_phi(self, capsys):
        code, doc = run_json(capsys, "indices", "--phi", "sqrt")
        assert code == 0
        recs = records(doc)
        assert recs["gamma"]["value"] == pytest.approx(0.5, abs=0.02)
        assert recs["delta2"]["value"]["holds"] is False


class TestCex:
    def test_plan(self, capsys):
        code, doc = run_json(capsys, "cex", "plan", "--m", "1,16")
        assert code == 0
        assert records(doc)["condition_ok"]["value"] is True

    def test_plan_rejects_bad_growth(self, capsys):
        code, _ = run(capsys, "cex", "plan", "--m", "1,2")
        assert code == 1

    @pytest.mark.parametrize("command", [["plan"], ["build", "--relaxed", "--blocks", "1"]])
    def test_no_strict_flag(self, capsys, command):
        # plans are strict unless --relaxed; there is no --strict option
        code, _ = run(capsys, "cex", *command, "--m", "1,16", "--strict")
        assert code == 1

    def test_build_relaxed(self, capsys):
        code, doc = run_json(
            capsys, "cex", "build", "--m", "2,3", "--relaxed", "--blocks", "2"
        )
        assert code == 0
        assert records(doc)["equimeasurable"]["value"] is True

    def test_certify_pass_exit_0(self, capsys):
        code, doc = run_json(capsys, "cex", "certify", "--m", "1,16", "--blocks", "2")
        assert code == 0
        assert records(doc)["verdict"]["value"] == "PASS"

    def test_certify_fail_exit_3(self, capsys, monkeypatch):
        # force a failing check to exercise the certificate exit contract
        from rlab import counterexample as cex_mod

        real = cex_mod.certify
        monkeypatch.setattr(
            cex_mod, "certify", lambda *a, **k: {**real(*a, **k), "verdict": "FAIL"}
        )
        code, _ = run(capsys, "cex", "certify", "--m", "1,16", "--blocks", "2")
        assert code == 3


    def test_certify_majorant_mutation_exit_3(self, capsys, monkeypatch):
        # an alpha_k exponent one quarter too large breaks the f-term majorant
        from rlab import counterexample as cex_mod

        real = cex_mod._alpha_exponent4
        monkeypatch.setattr(cex_mod, "_alpha_exponent4", lambda nk, mk: real(nk, mk) + 1)
        code, doc = run_json(capsys, "cex", "certify", "--m", "1,16", "--blocks", "2")
        assert code == 3
        recs = records(doc)
        assert recs["verdict"]["value"] == "FAIL"
        assert recs["f_term_le_majorant[k=2]"]["value"]["holds"] is False

    @pytest.mark.parametrize("m", ["1,16", "1,16,524304"])
    def test_80_bits_print_the_128_bit_records(self, capsys, monkeypatch, m):
        # the fixed precision has room to spare: 80 bits print the same decimals
        blocks = str(m.count(",") + 1)
        docs = []
        for prec in (80, cex.PRECISION):
            monkeypatch.setattr(cex, "PRECISION", prec)
            docs.append(run_json(capsys, "cex", "certify", "--m", m, "--blocks", blocks)[1])
        assert docs[0]["records"] == docs[1]["records"]
        assert cex.PRECISION == 128 and docs[1]["config"]["precision"] == 128

    def test_precision_is_not_a_flag(self, capsys):
        assert main(["--precision", "128", "cex", "plan", "--m", "1,16"]) == 1
        assert capsys.readouterr().err.startswith("usage: rlab")

    def test_plan_at_plan_scale(self, capsys):
        code, doc = run_json(capsys, "cex", "plan", "--m", "1,16,524304")
        assert code == 0
        recs = records(doc)
        assert recs["n"]["value"] == [2, 65536, "2^524304"]
        assert recs["N"]["value"] == [2, 65538, "2^524304+65538"]
        assert recs["condition_ok"]["value"] is True


class TestOutputModes:
    def test_out_file_and_csv(self, capsys, tmp_path):
        path = tmp_path / "r.csv"
        code = main([
            "--out", str(path), "--format", "csv",
            "norm", "--space", "lp:2", "--chi", "1/4",
        ])
        assert code == 0
        text = path.read_text()
        assert text.splitlines()[0] == "name,value,method,tolerance"

    def test_compare_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert main([
                "--out", str(path), "--seed", "5",
                "equiv", "--space", "lp:2", "--weight", "const:1",
                "--n", "4", "--trials", "5",
            ]) == 0
        code, doc = run_json(capsys, "compare", str(a), str(b))
        assert code == 0
        assert records(doc)["diff"]["value"] == {}

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        texts = []
        for name in ("x.json", "y.json"):
            path = tmp_path / name
            assert main([
                "--out", str(path), "--seed", "11",
                "khintchine", "--n", "10", "--trials", "40",
            ]) == 0
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]

    def test_unknown_command_exit_1(self, capsys):
        assert main(["definitely-not-a-command"]) == 1


STEP_FILE = '{"level": 1, "runs": [[1, "1/1"], [1, "2/1"]]}'
BAD_FILES = {
    "nolevel.json": '{"level": 1}',
    "notjson.json": "not json {",
    "noexp.json": '{"config": {}, "records": []}',
    # run lengths and the level must be integers, and no length negative
    "negative.json": '{"level": 1, "runs": [[3, "1/1"], [-1, "2/1"]]}',
    "fractional.json": '{"level": 1, "runs": [[1.9, "1/1"], [1.2, "2/1"]]}',
    "fraclevel.json": '{"level": 1.9, "runs": [[1, "1/1"], [1, "2/1"]]}',
}


@pytest.mark.parametrize("argv", [
    "norm --space lp:2 --fn missing.json",
    "norm --space lp:2 --fn nolevel.json",
    "norm --space lp:2 --fn notjson.json",
    "rearrange --fn negative.json",
    "norm --space lorentz:sqrt --fn negative.json",
    "norm --space lp:2 --fn negative.json",
    "norm --space lp:2 --fn fractional.json",
    "norm --space lp:2 --fn fraclevel.json",
    "projnorm --space lp:2 --weight step:fractional.json --n-list 2",
    "compare missing.json f.json",
    "compare noexp.json f.json",
    "compare notjson.json f.json",
    "--out missing/x.json norm --space lp:2 --values 1,2",
    "norm --space lp:2 --values 1,x",
    "norm --space lp:2 --values 1/0,1",
    "norm --space lp:2 --chi x",
    "norm --space lp:1/0 --values 1,2",
    "projnorm --space lp:2 --weight const:1 --n-list 2,x",
    "projnorm --space lp:2 --weight const:1/0 --n-list 2",
    "projnorm --space lp:2 --weight step:nolevel.json --n-list 2",
    "projnorm --space lp:2 --weight logpow:0.5:level=-1 --n-list 2",
    "projnorm --space lp:2 --weight const:1 --n-list 2,-1",
    "cex plan --m 1,x",
    "cex build --m 1,x --blocks 1",
    "cex certify --m 1,x --blocks 1",
    "indices --phi pow",
    "indices --phi pow:x",
    # phi and M outside their exact domains: quasi-concave, convex
    "norm --space orlicz:exp:0.0001 --values 1,1",
    "norm --space explp:1/2 --values 1,1",
    "norm --space lorentz:logpow:2 --values 1,1",
    "indices --phi logpow:1.5",
    "norm --space orlicz:exp:nan --values 1,2",
    "norm --space orlicz:pow:nan --values 1,2",
    "khintchine --n 0",
    # above KHINTCHINE_MAX_N = 20, whatever the draws
    "khintchine --n 21 --trials 3",
    "khintchine --n 25 --trials 50",
    "khintchine --n 16 --trials -1",
    "equiv --space lp:2 --weight const:1 --n 4 --trials -2",
    "projnorm --space lp:2 --weight const:1 --n-list 2 --trials -1",
    "multiplicator --space lp:1 --values 1,0 --budget -1",
    "equiv --space lp:2 --weight const:1 --n 0",
    "multiplicator --space lp:1 --values 1,0 --n 0",
    "coeffs --values 1,2 --n -1",
    "project --values 1,2 --n -3",
    # every field of a descriptor is used, and none is unknown
    "norm --space lp:2:9 --values 1,2",
    "norm --space linfty:3 --values 1,2",
    "norm --space lorentz:pow:0.5:1 --values 1,2",
    "projnorm --space lp:2 --weight const:2:junk --n-list 2",
    "projnorm --space lp:2 --weight logpow:0.5:level=4:level=6 --n-list 2",
    "projnorm --space lp:2 --weight logpow:0.5:levle=4 --n-list 2",
    "indices --phi logpow:0.5:x",
])
def test_malformed_input_exit_1(capsys, tmp_path, monkeypatch, argv):
    # an unreadable or malformed input file or literal is a validation error
    monkeypatch.chdir(tmp_path)
    Path("f.json").write_text(STEP_FILE)
    for name, text in BAD_FILES.items():
        Path(name).write_text(text)
    code = main(argv.split())
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert REASONS.get(argv, "") in err


# a malformed space or weight descriptor names the reason it was refused
REASONS = {
    "khintchine --n 21 --trials 3": "error: --n must be <= 20, got 21",
    "equiv --space lp:2 --weight const:1 --n 4 --trials -2": "error: --trials must be >= 0, got -2",
    "multiplicator --space lp:1 --values 1,0 --budget -1": "error: --budget must be >= 0, got -1",
    "norm --space lp:1/0 --values 1,2": "'lp:1/0': ZeroDivisionError: Fraction(1, 0)",
    "norm --space lorentz:logpow:2 --values 1,1":
        "'lorentz:logpow:2': ValueError: beta must be in (0,1], got 2.0",
    "norm --space orlicz:exp:nan --values 1,2": "'orlicz:exp:nan': ValueError: p must be >= 1, got nan",
    "norm --space explp:1/2 --values 1,1": "error: p must be >= 1, got 1/2",
    "projnorm --space lp:2 --weight const:1/0 --n-list 2": "'const:1/0': ZeroDivisionError: Fraction(1, 0)",
    "projnorm --space lp:2 --weight step:nolevel.json --n-list 2": "'step:nolevel.json': KeyError: 'runs'",
    "projnorm --space lp:2 --weight logpow:0.5:level=-1 --n-list 2": "error: sampling level -1 outside 0..26",
    "norm --space lp:2 --fn negative.json": "error: negative run length -1",
    "norm --space lp:2 --fn fraclevel.json": "'float' object cannot be interpreted as an integer",
    "norm --space lp:2:9 --values 1,2": "'lp:2:9': ValueError: unexpected field '9'",
    "projnorm --space lp:2 --weight logpow:0.5:levle=4 --n-list 2":
        "'logpow:0.5:levle=4': ValueError: unknown field 'levle=4'",
}


@pytest.mark.parametrize("space,expected", [
    # beta = 1 and p = 1 are the edges of the exact domains; the constant 1
    # has norm phi(1) = 1, and 1 / M^-1(1) = 1 / log 2 in the Orlicz space
    ("lorentz:logpow:1", 1.0),
    ("marcinkiewicz:logpow:1", 1.0),
    ("explp:1", 1.0),
    ("orlicz:exp:1", 1 / math.log(2)),
])
def test_domain_edges_accepted(capsys, space, expected):
    code, doc = run_json(capsys, "norm", "--space", space, "--values", "1,1")
    assert code == 0
    assert records(doc)["norm"]["value"] == pytest.approx(expected, rel=1e-9)


def readme_commands() -> list[str]:
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command-line interface")[1].split("```sh")[1].split("```")[0]
    return [line for line in block.splitlines() if line.startswith("rlab ")]


# sha256 of each README command's report; the reports stay byte-identical
README_DIGESTS = {
    "rlab norm --space lorentz:sqrt --chi 1/4":
        "f2ea7b96f0eb2f853ccf0282729047a5f61e8157cbba7dfb0d4ad843c5ce818a",
    "rlab norm --space lp:2 --values 3,1,2,3":
        "2381b13e01b6c55d3d83e633ab2c616e415770c42cbd54bc933aa09f7e7d74cf",
    "rlab rearrange --values 3,1,2,3":
        "fcec8d31f4174e278e8d41fc6d88cd7d3075d7c5fc155acb4440f48e294d5d5b",
    "rlab --seed 7 khintchine --n 16 --trials 500":
        "6c99039cf9053080d9e6c099d1590b1341473d780f653cb155bd945b6e9133f6",
    "rlab coeffs --values 1,0,0,0 --n 2":
        "ae2038bf461a639abd8781fbaec0f6013b6a4de528403216c61f2cf898eadd4f",
    "rlab project --values 1,0,0,0 --n 2":
        "ccb97987fa69fdcfabc2eb2fbad2ecb7e8863032caaa3b8491c5bcb273acf6d1",
    "rlab --seed 0 equiv --space lp:2 --weight const:1 --n 8 --trials 100":
        "a6566628f6da1a5a1994cc3801745e089444d87e938701c17572c4ca5eaf17a7",
    "rlab projnorm --space lp:2 --weight const:1 --n-list 2,4,8,16":
        "b7ef61eaa89da24abcd622fdfbe9211292235a7ab463b1310d94f8b303881256",
    "rlab multiplicator --space lp:1 --values 1,1,1,1 --n 8 --budget 200":
        "9912e05f614b926be28a686d0562641a54fa49f1ed17a1df7c2a981d17e24003",
    "rlab theorems --space lp:2 --weight const:1":
        "7e14bffa7ce1823612d4e370f52ecaceb016a6837141f3d0d1806706b5bfa83e",
    "rlab cex plan --m 1,16":
        "7d1f4e5210af6474570e69832aed0670f7dbd00440317cb84d5dd599b54cddc4",
    "rlab cex build --m 2,3 --relaxed --blocks 2":
        "8d9ecafe976a623afd90dece00ed428916f86f3e184af4757077aae156c4c357",
    "rlab cex certify --m 1,16 --blocks 2":
        "dd80537fab970dd45cc9767c327852a5151913b2a8c7baf39fda5fce801201f5",
    # a.json and b.json are the reports of the first two commands
    "rlab compare a.json b.json":
        "cdd75c34eea9ef2a467ee1b20d30f4105e5feaae1658192b3cce775ca2071b38",
}

# indices fits its exponents with np.polyfit, whose last bits may vary
README_INDICES = ("rlab indices --phi logpow:0.5", [
    ("gamma", "grid-estimate", 0.003263086877820367),
    ("delta", "grid-estimate", 0.012014434130542727),
    ("delta2", "trend", {"C": 1.4018517020206744, "holds": True,
                         "sups": [1.3689119751169967, 1.3902224918118813, 1.4018517020206744]}),
])


def test_readme_commands_reproduce(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    lines = readme_commands()
    assert sorted(lines) == sorted([*README_DIGESTS, README_INDICES[0]])
    for i, line in enumerate(lines):
        argv = shlex.split(line)[1:]
        if argv[0] == "compare":
            shutil.copy("report0.json", "a.json")
            shutil.copy("report1.json", "b.json")
        out = Path(f"report{i}.json")
        assert main(["--out", str(out), *argv]) == 0, line
        if line == README_INDICES[0]:
            recs = json.loads(out.read_text())["records"]
            assert [(r["name"], r["method"]) for r in recs] == [e[:2] for e in README_INDICES[1]]
            for rec, (_, _, value) in zip(recs, README_INDICES[1]):
                assert rec["value"] == pytest.approx(value, rel=1e-12)
        else:
            assert hashlib.sha256(out.read_bytes()).hexdigest() == README_DIGESTS[line], line


# Reports whose dual record runs multiplicator_norm on 1/w for the level-8
# log^(1/2) weight: its odd denominators of up to 53 bits put 1/w, and its
# products with Rademacher sums, past the denominator guard.
DUAL_PATH_DIGESTS = {
    "rlab theorems --space lp:2 --weight logpow:0.5:level=8":
        "5fef0283ff7eeceec34cf2685ca9a77943a1b2cfb197eb6ba5ebb7b5a27b351f",
    "rlab theorems --space explp:2 --weight logpow:0.5:level=8":
        "26fb609d683898290240b856f441b16f278a169d69d367b9c3fde0d2bcfe6b53",
    "rlab theorems --space lorentz:sqrt --weight logpow:0.5:level=8":
        "00fd91cf8fed5f0fb723015e1842ffc0091bac31bc9a7d6f168d7dda2b1a8118",
}


def test_dual_path_is_past_the_guard():
    assert parse_weight("logpow:0.5:level=8").fn.reciprocal()._int_form is None


@pytest.mark.parametrize("line", sorted(DUAL_PATH_DIGESTS))
def test_dual_path_reports_reproduce(line, tmp_path):
    out = tmp_path / "report.json"
    assert main(["--out", str(out), *shlex.split(line)[1:]]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUAL_PATH_DIGESTS[line]


def test_readme_shows_every_subcommand():
    shown = set()
    for line in readme_commands():
        words = shlex.split(line)[1:]
        while words[0].startswith("--"):  # global flags and their values
            words = words[2:]
        shown.update({words[0], " ".join(words[:2])})
    assert {cmd.path for cmd in COMMANDS} <= shown
