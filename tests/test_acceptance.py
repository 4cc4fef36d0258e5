"""Acceptance gate: nine end-to-end criteria with pinned tolerances.

Each test prints one pass/fail line on the real stdout so the summary
survives pytest's capture."""

import json
import math
import sys
import time
from fractions import Fraction as F

import numpy as np
import pytest

from rlab import counterexample as cex
from rlab.cli import main as cli_main
from rlab.dyadic import (
    StepFunction,
    chi_prefix,
    hadamard_select,
    make_step,
    single_negative_select,
)
from rlab.projections import (
    equivalence_constants,
    khintchine_check,
    project,
    projection_norm,
    theorem_predicates,
)
from rlab.rearrangement import equimeasurable
from rlab.spaces import norm, parse_space
from rlab.weighted import Weight, holder_check


def announce(capsys, idx: int, label: str, ok: bool) -> None:
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"[acceptance] criterion {idx} ({label}): {verdict}", flush=True)


def rand_fraction(rng, lo=-8, hi=8, den_bits=4) -> F:
    return F(int(rng.integers(lo, hi + 1)), 2 ** int(rng.integers(0, den_bits)))


def rand_step(rng, level: int):
    return make_step(level, [rand_fraction(rng) for _ in range(2**level)])


def rand_nonzero_step(rng, level: int):
    while True:
        f = rand_step(rng, level)
        if f != StepFunction.zero():
            return f


def test_criterion_1_khintchine_constants(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(500):
        n = int(rng.integers(1, 17))
        a = [rand_fraction(rng) for _ in range(n)]
        if all(v == 0 for v in a):
            a[0] = F(1)
        res = khintchine_check(a)
        ok &= res["lower_ok"] and res["upper_ok"]
    res11 = khintchine_check([1, 1])
    attained = res11["l1"] == F(1) and 2 * res11["l1"] ** 2 == res11["l2_squared"]
    ok &= attained
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    announce(capsys, 1, "Khintchine L1 window, exact, 500 vectors", ok)
    assert ok, f"attained={attained}, elapsed={elapsed:.2f}s"


def test_criterion_2_fundamental_functions(capsys):
    start = time.perf_counter()
    cases = [
        ("lp:1", lambda t: float(t)),
        ("lp:3/2", lambda t: float(t) ** (2 / 3)),
        ("lp:2", lambda t: math.sqrt(t)),
        ("lp:3", lambda t: float(t) ** (1 / 3)),
        ("lorentz:sqrt", math.sqrt),
        ("marcinkiewicz:sqrt", math.sqrt),
        ("orlicz:pow:2", math.sqrt),
    ]
    ok = True
    worst = 0.0
    for desc, closed in cases:
        X = parse_space(desc)
        for j in range(13):
            t = F(1, 2**j)
            got = norm(X, chi_prefix(t))
            want = closed(t)
            rel = abs(got - want) / want
            worst = max(worst, rel)
            ok &= rel <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    announce(capsys, 2, "fundamental-function identities, 1e-9 rel", ok)
    assert ok, f"worst rel err {worst:.2e}, elapsed={elapsed:.2f}s"


def test_criterion_3_hoelder_duality(capsys):
    start = time.perf_counter()
    families = ["lp:1", "lp:3/2", "lp:2", "lp:3", "lorentz:sqrt", "marcinkiewicz:sqrt"]
    rng = np.random.default_rng(3)
    ok = True
    worst = 0.0
    for desc in families:
        X = parse_space(desc)
        for _ in range(1000):
            level = int(rng.integers(1, 6))
            f = rand_nonzero_step(rng, level)
            g = rand_nonzero_step(rng, level)
            ratio = holder_check(X, f, g)
            worst = max(worst, ratio)
            ok &= ratio <= 1.0 + 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    announce(capsys, 3, "Hoelder pairing vs dual norms, 1000 pairs/family", ok)
    assert ok, f"worst ratio {worst}, elapsed={elapsed:.2f}s"


def test_criterion_4_projection_fixed_points_and_l2_norm(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    fns = []
    for _ in range(200):
        level = int(rng.integers(1, 6))
        fns.append((rand_step(rng, level), int(rng.integers(1, 6))))
    for f, n in fns:
        pf = project(f, n)
        ok &= project(pf, n) == pf
    # self-adjointness: <P f, g> == <f, P g> exactly, pairing consecutive draws
    for (f, n), (g, _) in zip(fns[::2], fns[1::2]):
        g = make_step(f.level, [rand_fraction(rng) for _ in range(2**f.level)])
        lhs = (project(f, n) * g).integral()
        rhs = (f * project(g, n)).integral()
        ok &= lhs == rhs
    X = parse_space("lp:2")
    w = Weight.constant(1)
    for n in (2, 4, 8, 16):
        val = projection_norm(X, w, n, trials=10, seed=4)
        ok &= abs(val - 1.0) <= 1e-9
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    announce(capsys, 4, "projection idempotent/self-adjoint, L2 norm = 1", ok)
    assert ok, f"elapsed={elapsed:.2f}s"


def _column(n: int, j: int) -> list[int]:
    """Signs of r_1..r_n on the 1-based rank-n cell j: r_i is -1 exactly
    where bit n-i of j-1 is set."""
    return [1 - 2 * (((j - 1) >> (n - i)) & 1) for i in range(1, n + 1)]


def _restricted_l1_sq_vs_bound(n: int, js, b) -> tuple[F, F]:
    """((sum_j |sum_i eps_ij b_i|)^2, n^2 ||b||_2^2), both exact.

    The restricted L1 norm is 2^-n sum_j |c_j|; the bound n 2^-n ||b||_2.
    Comparing squares avoids the irrational square root."""
    total = F(0)
    for j in js:
        col = _column(n, j)
        total += abs(sum(s * v for s, v in zip(col, b)))
    return total * total, n * n * sum(v * v for v in b)


def test_criterion_5_block_inequalities(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    ok = True
    for n in (4, 8, 16):
        js = hadamard_select(n)
        for _ in range(200):
            b = [rand_fraction(rng) for _ in range(n)]
            if all(v == 0 for v in b):
                b[0] = F(1)
            lhs_sq, rhs_sq = _restricted_l1_sq_vs_bound(n, js, b)
            ok &= lhs_sq <= rhs_sq
        # single-negative witness with b = (1,...,1): each selected column
        # sums to n-2, so the restricted L1 value is n (n-2) 2^-n exactly,
        # which equals (sqrt(n) - 2/sqrt(n)) n 2^-n times ||b||_2 = sqrt(n).
        ds = single_negative_select(n)
        witness = F(sum(abs(sum(_column(n, j))) for j in ds), 2**n)
        ok &= witness == F(n * (n - 2), 2**n)
        # normalized witness squared vs the closed form squared, exactly
        target_sq = F((n - 2) ** 2, n) * F(n, 2**n) ** 2
        ok &= witness * witness == target_sq * n
        # and >= (1/2) n^(3/2) 2^-n, squared comparison
        ok &= witness * witness * 4 >= F(n**3, 2 ** (2 * n)) * n
    ok &= float(cex.bound_D(4)) == 0.25
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    announce(capsys, 5, "restricted block inequalities and witness values", ok)
    assert ok, f"elapsed={elapsed:.2f}s"


def test_criterion_6_full_scale_certificate(capsys, tmp_path):
    start = time.perf_counter()
    out = tmp_path / "certificate.json"
    code = cli_main(["--out", str(out), "cex", "certify", "--m", "1,16", "--blocks", "2"])
    doc = json.loads(out.read_text())
    recs = {rec["name"]: rec for rec in doc["records"]}
    ok = code == 0 and recs["verdict"]["value"] == "PASS"
    f2 = recs["f_term_le_majorant[k=2]"]["value"]
    g2 = recs["g_term_ge_half_eighth_root[k=2]"]["value"]
    ok &= f2["holds"] and g2["holds"]
    ok &= float(g2["rhs"]) == pytest.approx(2.0)  # (1/2) 65536^(1/8)
    ok &= F(g2["lhs8"]) >= F(g2["rhs8"]) == F(65536, 256)
    ok &= F(f2["lhs8"]) <= F(f2["rhs8"])
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    announce(capsys, 6, "certificate for m=1,16 with two blocks", ok)
    assert ok, f"exit={code}, elapsed={elapsed:.2f}s"


def test_criterion_7_explicit_build_equimeasurable(capsys):
    start = time.perf_counter()
    pl = cex.plan([2, 3], strict=False)
    built = cex.build_explicit(pl, 2)
    ok = equimeasurable(built["f"], built["g"])
    from rlab.dyadic import indicator

    chi1 = indicator(pl.N[0], built["B"][0])
    chi2 = indicator(pl.N[1], built["B"][1])
    ok &= chi1 * chi2 == StepFunction.zero()
    d1 = indicator(pl.N[0], built["D"][0])
    d2 = indicator(pl.N[1], built["D"][1])
    ok &= d1 * d2 == StepFunction.zero()
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    announce(capsys, 7, "relaxed two-block build is equimeasurable, blocks disjoint", ok)
    assert ok, f"elapsed={elapsed:.2f}s"


def test_criterion_8_theorem_trends(capsys):
    start = time.perf_counter()
    X = parse_space("lp:2")
    w = Weight.constant(1)
    rep = theorem_predicates(X, w, n=8, budget=40, seed=8)
    ok = rep["branch"] == "equivalence"
    ok &= rep["g_subset_proxy"]["value"] is True
    ok &= rep["w_in_sym_proxy"]["value"] is True
    ok &= math.isfinite(rep["w_in_mult"]["upper"]) and rep["w_in_mult"]["lower"] > 0
    ok &= "error" not in rep["inv_w_in_mult_dual"]
    for n in (4, 8, 16):
        res = equivalence_constants(X, w, n, trials=20, seed=8)
        ok &= res["cHigh"] / res["cLow"] <= 2.0
    failing = theorem_predicates(parse_space("marcinkiewicz:logpow:0.25"), w, seed=8)
    ok &= failing["branch"] == "equivalence fails"
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    announce(capsys, 8, "predicate trends: L2 passes, non-containing space fails", ok)
    assert ok, f"elapsed={elapsed:.2f}s"


def test_criterion_9_determinism(capsys, tmp_path):
    runs = {
        "khintchine": ["--seed", "9", "khintchine", "--n", "12", "--trials", "60"],
        "equiv": [
            "--seed", "9", "equiv", "--space", "lp:2",
            "--weight", "const:1", "--n", "4", "--trials", "10",
        ],
        "projnorm": [
            "--seed", "9", "projnorm", "--space", "lp:2",
            "--weight", "const:1", "--n-list", "2,4", "--trials", "3",
        ],
        "multiplicator": [
            "--seed", "9", "multiplicator", "--space", "lp:1",
            "--values", "1,1,1,1", "--n", "3", "--budget", "20",
        ],
    }
    ok = True
    for name, argv in runs.items():
        blobs = []
        for rep in ("a", "b"):
            out = tmp_path / f"{name}-{rep}.json"
            code = cli_main(["--out", str(out), *argv])
            ok &= code == 0
            blobs.append(out.read_bytes())
        ok &= blobs[0] == blobs[1]
    announce(capsys, 9, "seeded experiments reproduce byte-identical reports", ok)
    assert ok
