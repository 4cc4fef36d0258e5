"""Output checks for the benchmark's operations.

Every check reads one parsed report (the JSON that ``rlab --out`` writes) and
raises ``CheckFailed`` when the report contradicts a property the method must
have.  The expected values are derived here, from the inputs the benchmark
generated and from closed forms, never from rlab's own helpers, so a wrong
answer in rlab cannot also make its check pass.  None of the checks compares
against a stored copy of an earlier output, so each one holds for any seed.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter
from fractions import Fraction

import mpmath
import numpy as np


class CheckFailed(Exception):
    """An operation's report contradicts a property it must have."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def records(report: dict) -> dict:
    return {rec["name"]: rec["value"] for rec in report["records"]}


def number(value) -> float:
    """A report value as a float: numbers, "p/q" strings, "inf"."""
    if isinstance(value, str) and "/" in value:
        return float(Fraction(value))
    return float(value)


def cell_values(doc: dict) -> list[Fraction]:
    """Per-cell values of a step-function JSON document at its own level."""
    out: list[Fraction] = []
    for length, text in doc["runs"]:
        out.extend([Fraction(text)] * int(length))
    return out


# ---------------------------------------------------------------- dense_sums

def _snap_slack(n: int) -> float:
    """Bound on | ||a||_2 - 1 | for a unit vector whose n entries are
    rounded to the 2^-30 grid the trial vectors use (2^-31 each)."""
    return n * 2.0**-29


def equiv_lp(p: int, n: int):
    """Khintchine window for unit-norm Rademacher sums in L_p, weight 1.

    p = 2: Parseval, both constants are 1.  p = 1: Szarek's sharp 1/sqrt(2)
    below and Hoelder above.  p = 4: E S^4 = 3 (sum a^2)^2 - 2 sum a^4 puts
    the norm between 1 and 3^(1/4).
    """
    low, high = {1: (1 / math.sqrt(2), 1.0), 2: (1.0, 1.0), 4: (1.0, 3**0.25)}[p]
    eps = _snap_slack(n)

    def check(report: dict) -> None:
        r = records(report)
        c_low, c_high = number(r["cLow"]), number(r["cHigh"])
        require(c_low <= c_high, f"cLow {c_low} > cHigh {c_high}")
        require(c_low >= low - eps, f"lp:{p} cLow {c_low} below {low}")
        require(c_high <= high + eps, f"lp:{p} cHigh {c_high} above {high}")

    return check


def _bracket(report: dict) -> tuple[float, float]:
    r = records(report)
    lower, upper = number(r["lower"]), number(r["upper"])
    require(lower <= upper, f"bracket inverted: lower {lower} > upper {upper}")
    return lower, upper


def multiplicator_hadamard(n: int, height: Fraction):
    """c * chi of a Hadamard block: the L1 multiplicator norm on the first n
    Rademachers is at most 2 sqrt(2) c n 2^-n."""
    bound = float(height) * 2 * math.sqrt(2) * n * 2.0**-n

    def check(report: dict) -> None:
        _, upper = _bracket(report)
        require(upper <= bound * (1 + 1e-12), f"Hadamard upper {upper} > {bound}")

    return check


def multiplicator_single_negative(n: int, height: Fraction):
    """c * chi of the single-negative block: the witness a = (1,..,1)/sqrt(n)
    gives at least c (sqrt(n) - 2/sqrt(n)) n 2^-n."""
    bound = float(height) * (math.sqrt(n) - 2 / math.sqrt(n)) * n * 2.0**-n

    def check(report: dict) -> None:
        lower, _ = _bracket(report)
        require(lower >= bound * (1 - 1e-12), f"single-negative lower {lower} < {bound}")

    return check


# --------------------------------------------------------- weighted_families

def projnorm(ns: list[int], exact_one: bool = False):
    """Every r_k with k <= n is a fixed point of P_n, so each lower bound is
    at least 1; in L_2 with weight 1, P_n is an orthogonal projection."""

    def check(report: dict) -> None:
        r = records(report)
        for n in ns:
            key = f"lower_bound[n={n}]"
            require(key in r, f"missing {key}")
            value = number(r[key])
            require(value >= 1 - 1e-12, f"{key} = {value} < 1")
            if exact_one:
                require(abs(value - 1) <= 1e-9, f"{key} = {value} != 1")

    return check


def equiv_positive(report: dict) -> None:
    r = records(report)
    c_low, c_high = number(r["cLow"]), number(r["cHigh"])
    require(0 < c_low <= c_high < math.inf, f"bad bracket [{c_low}, {c_high}]")


def loghalf_in_space(space: str) -> bool:
    """The paper's criterion: whether log^(1/2)(e/t) lies in X."""
    family, *rest = space.split(":")
    if family == "lp":
        return True
    if family == "linfty":
        return False
    if family == "explp":
        return Fraction(rest[0]) <= 2
    if family == "orlicz" and rest[0] == "exp":
        return Fraction(rest[1]) <= 2
    raise ValueError(f"no closed-form criterion for {space!r}")


def theorems(space: str):
    expected = "equivalence" if loghalf_in_space(space) else "equivalence fails"

    def check(report: dict) -> None:
        branch = records(report)["branch"]
        require(branch == expected, f"{space}: branch {branch!r}, expected {expected!r}")

    return check


def _numpy_norm(space: str, values: np.ndarray) -> float:
    """Float recomputation of a norm from the per-cell values."""
    x = np.abs(values)
    t = np.arange(1, len(x) + 1) / len(x)  # right ends of the cells of x*
    star = np.sort(x)[::-1]
    family, *rest = space.split(":")
    if family == "lp":
        p = float(Fraction(rest[0]))
        return float(np.mean(x**p) ** (1 / p))
    if space == "lorentz:sqrt":
        return float(np.sum(star * np.diff(np.sqrt(np.concatenate(([0.0], t))))))
    if family == "explp":
        p = float(Fraction(rest[0]))
        return float(np.max(star * np.log(np.e / t) ** (-1 / p)))
    raise ValueError(f"no float recomputation for {space!r}")


def norm_matches(space: str, fn_doc: dict):
    """The norm agrees within 1e-9 relative with a numpy recomputation."""
    expected = _numpy_norm(space, np.array([float(v) for v in cell_values(fn_doc)]))

    def check(report: dict) -> None:
        value = number(records(report)["norm"])
        require(
            abs(value - expected) <= 1e-9 * abs(expected),
            f"{space} norm {value} != numpy {expected}",
        )

    return check


def rademacher_coefficients(fn_doc: dict, n: int) -> list[Fraction]:
    """c_k = 2^-L sum_j v_j (-1)^(bit L-k of j), zero for k above the level L."""
    level = fn_doc["level"]
    vals = cell_values(fn_doc)
    den = math.lcm(*(v.denominator for v in vals))
    nums = [v.numerator * (den // v.denominator) for v in vals]
    out = []
    for k in range(1, n + 1):
        if k > level:
            out.append(Fraction(0))
            continue
        shift = level - k
        total = sum(-v if (j >> shift) & 1 else v for j, v in enumerate(nums))
        out.append(Fraction(total, den * 2**level))
    return out


def coeffs_exact(fn_doc: dict, n: int):
    expected = rademacher_coefficients(fn_doc, n)

    def check(report: dict) -> None:
        got = [Fraction(v) for v in records(report)["coefficients"]]
        require(got == expected, f"coefficients {got} != sign sums {expected}")

    return check


# --------------------------------------------------------------- certificate

def _partial_sums(ms: list[int]) -> list[int]:
    out, acc = [], 0
    for m in ms:
        acc += 2**m
        out.append(acc)
    return out


def _growth_ok(ms: list[int]) -> bool:
    N = _partial_sums(ms)
    return all(ms[k] >= 8 * N[k - 1] for k in range(1, len(ms)))


def plan(ms: list[int]):
    def check(report: dict) -> None:
        r = records(report)
        require([int(v) for v in r["n"]] == [2**m for m in ms], "n_k != 2^m_k")
        require([int(v) for v in r["N"]] == _partial_sums(ms), "N_k != partial sums")
        require(r["condition_ok"] is _growth_ok(ms), "condition_ok disagrees with m_k >= 8 N_(k-1)")

    return check


def certify(ms: list[int], blocks: int):
    """PASS, the growth condition, g terms at least 2^(m_k/8 - 1) and
    increasing, and f partial sums equal to 2 sqrt(2) sum 2^(-m_j/4)."""
    ms = ms[:blocks]

    def check(report: dict) -> None:
        r = records(report)
        require(r["verdict"] == "PASS", f"verdict {r['verdict']}")
        require(_growth_ok(ms), f"m = {ms} violates m_k >= 8 N_(k-1)")
        g_terms, f_series = r["g_lower_terms"], r["f_upper_series"]
        require(len(g_terms) == len(f_series) == blocks, "wrong number of terms")
        with mpmath.workprec(96):
            prev = None
            for k, (m, text) in enumerate(zip(ms, g_terms), start=1):
                if text is None:
                    require(2**m < 4, f"g term {k} missing for n = 2^{m} >= 4")
                    continue
                g = mpmath.mpf(text)
                floor = mpmath.power(2, mpmath.mpf(m) / 8 - 1)
                require(g >= floor, f"g term {k} = {text} < 2^({m}/8 - 1)")
                require(prev is None or g > prev, f"g term {k} does not increase")
                prev = g
            acc = mpmath.mpf(0)
            for k, (m, text) in enumerate(zip(ms, f_series), start=1):
                acc += 2 * mpmath.sqrt(2) * mpmath.power(2, -mpmath.mpf(m) / 4)
                got = mpmath.mpf(text)
                require(
                    abs(got - acc) <= acc * mpmath.mpf(10) ** -18,
                    f"f partial sum {k} = {text}, expected {mpmath.nstr(acc, 20)}",
                )

    return check


def _runs_at(doc: dict, top: int) -> list[tuple[int, int, Fraction]]:
    """(start, end, value) runs of a step-function document, positions in
    rank-`top` cells."""
    rep = 2 ** (top - doc["level"])
    out, pos = [], 0
    for length, text in doc["runs"]:
        end = pos + int(length) * rep
        out.append((pos, end, Fraction(text)))
        pos = end
    return out


def _value_on(runs: list[tuple[int, int, Fraction]], start: int, end: int) -> Fraction | None:
    """The value of a step function on [start, end), None if it is not constant."""
    i = bisect.bisect_right([a for a, _, _ in runs], start) - 1
    a, b, v = runs[i]
    return v if end <= b else None


def build(ms: list[int], blocks: int):
    """f and g equimeasurable, blocks disjoint and matching f's support,
    and each Hadamard block's sign Gram matrix equal to n I."""
    ns = [2**m for m in ms[:blocks]]
    Ns = _partial_sums(ms[:blocks])
    top = Ns[-1]

    def check(report: dict) -> None:
        r = records(report)
        require(r["equimeasurable"] is True, "report says not equimeasurable")
        runs = {"B": _runs_at(r["f"], top), "D": _runs_at(r["g"], top)}
        mass = [Counter(), Counter()]
        for counter, fn in zip(mass, runs.values()):
            for a, b, v in fn:
                counter[v] += b - a
        require(mass[0] == mass[1], "f and g have different value multisets")
        for name, fn in runs.items():
            sets = r[name]
            require(len(sets) == blocks, f"{name} has {len(sets)} blocks")
            cells = []
            for k, js in enumerate(sets):
                require(len(js) == ns[k], f"{name}_{k + 1} has {len(js)} cells, expected {ns[k]}")
                rep = 2 ** (top - Ns[k])
                spans = [((j - 1) * rep, j * rep) for j in js]
                heights = {_value_on(fn, a, b) for a, b in spans}
                require(
                    len(heights) == 1 and None not in heights and 0 not in heights,
                    f"{name}_{k + 1} is not one level set of the function",
                )
                cells.extend(spans)
            cells.sort()
            require(
                all(b0 <= a1 for (_, b0), (a1, _) in zip(cells, cells[1:])),
                f"the {name} blocks overlap",
            )
            support = sum(b - a for a, b, v in fn if v != 0)
            require(
                support == sum(b - a for a, b in cells),
                f"support differs from the union of the {name} blocks",
            )
        for k, js in enumerate(r["B"]):
            n = ns[k]
            require(len({(j - 1) >> n for j in js}) == 1, f"B_{k + 1} leaves its host cell")
            subs = np.array([(j - 1) % 2**n for j in js], dtype=np.int64)
            shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
            signs = 1 - 2 * ((subs[None, :] >> shifts[:, None]) & 1)
            require(
                np.array_equal(signs.T @ signs, n * np.eye(n, dtype=np.int64)),
                f"B_{k + 1} sign patterns are not a Hadamard block",
            )

    return check


def khintchine(report: dict) -> None:
    r = records(report)
    require(r["violations"] == 0, f"{r['violations']} Khintchine violations")
    require(Fraction(r["l1_of_(1,1)"]) == 1, f"||r_1 + r_2||_1 = {r['l1_of_(1,1)']} != 1")
