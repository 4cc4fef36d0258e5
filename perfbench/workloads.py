"""The benchmark's workloads: inputs made from the seed, and the fixed list of
rlab operations that one round runs, each paired with its output check.

The seed picks values, cell patterns and rlab ``--seed`` values, never sizes,
so every seed asks for the same amount of work.  The first operation of each
list is the cheapest one and doubles as the untimed warm-up.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from . import checks


@dataclass(frozen=True)
class Op:
    """One rlab invocation: CLI arguments after the global flags, the value
    of ``--seed``, and the check its report must pass."""

    argv: tuple[str, ...]
    seed: int
    check: Callable[[dict], None]


def step_doc(level: int, values) -> dict:
    """Step-function JSON document with adjacent equal cells merged."""
    runs = [[len(list(group)), f"{v.numerator}/{v.denominator}"]
            for v, group in itertools.groupby(Fraction(x) for x in values)]
    return {"level": level, "runs": runs}


def write_doc(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


class _Ops:
    """Collects operations, drawing each one's ``--seed`` from the rng."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.ops: list[Op] = []

    def add(self, check, *argv) -> None:
        self.ops.append(Op(tuple(str(a) for a in argv), int(self.rng.integers(2**31)), check))


# ---------------------------------------------------------------- dense_sums

HADAMARD_N = 8  # 16 would cost about 24 s a round
SINGLE_NEGATIVE_N = 12
EQUIV_N = 14
EQUIV_TRIALS = 2  # on top of the n + 1 structured vectors equiv always runs at n = 14
BUDGET = 40


def hadamard_cells(n: int, rng: np.random.Generator) -> list[int]:
    """1-based rank-n cells whose Rademacher sign patterns are the columns of
    a Sylvester matrix with rows permuted and negated at random; columns stay
    orthogonal, so the block keeps its Gram matrix n I."""
    h = np.array([[1]], dtype=np.int64)
    while len(h) < n:
        h = np.block([[h, h], [h, -h]])
    signs = h[rng.permutation(n)] * rng.choice([-1, 1], size=n)[:, None]
    place = 2 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return sorted(int(1 + place @ ((1 - signs[:, c]) // 2)) for c in range(n))


def single_negative_cells(n: int) -> list[int]:
    """1-based rank-n cells whose sign pattern has exactly one -1."""
    return [1 + 2 ** (n - i) for i in range(n, 0, -1)]


def indicator_doc(n: int, cells: list[int], height: Fraction) -> dict:
    chosen = set(cells)
    return step_doc(n, (height if j in chosen else 0 for j in range(1, 2**n + 1)))


def dense_sums(rng: np.random.Generator, work: Path) -> list[Op]:
    height = Fraction(int(rng.integers(4, 17)), 8)
    had = write_doc(work / "hadamard.json", indicator_doc(HADAMARD_N, hadamard_cells(HADAMARD_N, rng), height))
    neg = write_doc(
        work / "single_negative.json",
        indicator_doc(SINGLE_NEGATIVE_N, single_negative_cells(SINGLE_NEGATIVE_N), height),
    )
    ops = _Ops(rng)
    ops.add(checks.multiplicator_hadamard(HADAMARD_N, height),
            "multiplicator", "--space", "lp:1", "--fn", had, "--n", HADAMARD_N, "--budget", BUDGET)
    ops.add(checks.multiplicator_single_negative(SINGLE_NEGATIVE_N, height),
            "multiplicator", "--space", "lp:1", "--fn", neg, "--n", SINGLE_NEGATIVE_N, "--budget", BUDGET)
    for p in (1, 2, 4):
        ops.add(checks.equiv_lp(p, EQUIV_N),
                "equiv", "--space", f"lp:{p}", "--weight", "const:1", "--n", EQUIV_N, "--trials", EQUIV_TRIALS)
    return ops.ops


# --------------------------------------------------------- weighted_families

SPACES = ("lp:2", "lorentz:sqrt", "marcinkiewicz:sqrt", "explp:2", "orlicz:exp:2")
WEIGHT_8 = "logpow:0.5:level=8"
WEIGHT_10 = "logpow:0.5:level=10"  # 1024 values, 40-bit denominators
PROJ_NS = (2, 4, 8)
PROJ_TRIALS = 2
SAMPLE_LEVEL = 10
SAMPLES = 2


def logpow_weight(level: int) -> list[Fraction]:
    """log(e/t)^(1/2) at the cell midpoints, as rationals with denominators
    up to 10^12, the recipe the logpow weight descriptor documents."""
    n = 2**level
    return [Fraction(math.log(math.e / ((j + 0.5) / n)) ** 0.5).limit_denominator(10**12) for j in range(n)]


def weighted_families(rng: np.random.Generator, work: Path) -> list[Op]:
    ops = _Ops(rng)
    ns = ",".join(str(n) for n in PROJ_NS)
    ops.add(checks.projnorm(PROJ_NS, exact_one=True),
            "projnorm", "--space", "lp:2", "--weight", "const:1", "--n-list", ns, "--trials", PROJ_TRIALS)
    for space in SPACES:
        ops.add(checks.projnorm(PROJ_NS),
                "projnorm", "--space", space, "--weight", WEIGHT_8, "--n-list", ns, "--trials", PROJ_TRIALS)
    for space in ("lorentz:sqrt", "orlicz:exp:2"):
        ops.add(checks.equiv_positive, "equiv", "--space", space, "--weight", WEIGHT_10, "--n", 8, "--trials", 2)
    for space in ("lp:2", "explp:2", "linfty", "explp:3"):
        ops.add(checks.theorems(space), "theorems", "--space", space, "--weight", WEIGHT_8)

    w = logpow_weight(SAMPLE_LEVEL)
    for k in range(SAMPLES):
        f = [Fraction(int(v), 4) for v in rng.integers(-8, 9, size=2**SAMPLE_LEVEL)]
        doc = step_doc(SAMPLE_LEVEL, (a * b for a, b in zip(f, w)))
        path = write_doc(work / f"weighted{k}.json", doc)
        for space in ("lp:2", "lorentz:sqrt", "explp:2"):
            ops.add(checks.norm_matches(space, doc), "norm", "--space", space, "--fn", path)
    for k in range(SAMPLES):
        values: list[Fraction] = []
        while len(values) < 2**SAMPLE_LEVEL:  # runs of 1 to 4 equal cells
            value = Fraction(int(rng.integers(-20, 21)), int(rng.choice([1, 2, 3, 4, 6, 8])))
            values += [value] * int(rng.integers(1, 5))
        values = values[: 2**SAMPLE_LEVEL]
        doc = step_doc(SAMPLE_LEVEL, values)
        path = write_doc(work / f"step{k}.json", doc)
        ops.add(checks.coeffs_exact(doc, SAMPLE_LEVEL + 2), "coeffs", "--fn", path, "--n", SAMPLE_LEVEL + 2)
    return ops.ops


# --------------------------------------------------------------- certificate

def strict_chain(first: int, second: int, rng: np.random.Generator) -> list[int]:
    """Three-block chain with the smallest third block the growth condition
    m_3 >= 8 N_2 allows, plus a seeded offset below 64."""
    return [first, second, 8 * (2**first + 2**second) + int(rng.integers(64))]


def certificate(rng: np.random.Generator, work: Path) -> list[Op]:
    big = strict_chain(0, 14, rng)  # n_3 = 2^131080 and up: half-megabit eighth powers
    small = strict_chain(0, 8, rng)
    ops = _Ops(rng)

    def m(ms):
        return ",".join(str(v) for v in ms)

    ops.add(checks.certify([1, 16], 2), "cex", "certify", "--m", "1,16", "--blocks", 2)
    ops.add(checks.certify(big, 3), "cex", "certify", "--m", m(big), "--blocks", 3)
    ops.add(checks.plan(small), "cex", "plan", "--m", m(small))
    ops.add(checks.plan([2, 3]), "cex", "plan", "--m", "2,3", "--relaxed")
    ops.add(checks.build([2, 3], 2), "cex", "build", "--m", "2,3", "--relaxed", "--blocks", 2)
    ops.add(checks.build([1, 2, 4], 3), "cex", "build", "--m", "1,2,4", "--relaxed", "--blocks", 3)
    ops.add(checks.khintchine, "khintchine", "--n", 16, "--trials", 500)
    return ops.ops


WORKLOADS = {
    "dense_sums": dense_sums,
    "weighted_families": weighted_families,
    "certificate": certificate,
}
