"""Unified command-line front end.

To add a subcommand, add a row to the command table `COMMANDS`.  A handler
adds records to the report that `main` builds, emits and maps to an exit code:
0 success, 1 validation error (also an unreadable or malformed input file or
literal), 2 numeric failure, 3 certificate FAIL.

The global flags are --seed, --out and --format.  The certificate's decimals
use a fixed counterexample.PRECISION bits and every grid the fixed depth cap
dyadic.LEVEL_CAP; the report config records the precision."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import counterexample as cex
from .dyadic import StepFunction, chi_prefix, make_step
from .errors import InvalidSpec, RlabError
from .projections import (
    KHINTCHINE_MAX_N,
    coefficients,
    equivalence_constants,
    khintchine_check,
    khintchine_windows,
    multiplicator_norm,
    project,
    projection_norm,
    theorem_predicates,
)
from .rearrangement import decreasing_rearrangement, distribution, equimeasurable
from .reports import Report, compare_reports
from .spaces import _parse_phi, delta2_check, dilation_indices, norm, parse_space
from .weighted import parse_weight


def _parsed(source: str, parse, text: str):
    """parse(text); a malformed literal or file is a validation error."""
    try:
        return parse(text)
    except (ValueError, LookupError, TypeError, ZeroDivisionError) as exc:
        raise InvalidSpec(f"{source}: {type(exc).__name__}: {exc}") from None


def _read(path: str, parse):
    with open(path) as fh:
        return _parsed(path, parse, fh.read())


def _list(source: str, convert, text: str) -> list:
    """A comma-separated literal, each item through `convert`."""
    return _parsed(source, lambda s: [convert(v) for v in s.split(",")], text)


def _load_fn(args) -> StepFunction:
    if getattr(args, "fn", None):
        return _read(args.fn, StepFunction.from_json)
    if getattr(args, "values", None):
        vals = _list("--values", Fraction, args.values)
        level = (len(vals) - 1).bit_length()
        if 2**level != len(vals):
            raise RlabError(f"value count {len(vals)} is not a power of two")
        return make_step(level, vals)
    if getattr(args, "chi", None):
        return chi_prefix(_parsed("--chi", Fraction, args.chi))
    raise RlabError("provide --fn, --values, or --chi")


def _emit(report: Report, args) -> None:
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _norm(rep: Report, args) -> None:
    X = parse_space(args.space)
    f = _load_fn(args)
    # only an integer p has an exact moment; any other p takes float powers
    exact = X.family == "lp" and X.p.denominator == 1
    rep.add("norm", norm(X, f), method="exact" if exact else "evaluator")
    try:
        dual = X.dual().label
    except RlabError:
        dual = "unsupported"
    rep.add("dual_space", dual, method="exact")


def _rearrange(rep: Report, args) -> None:
    star = decreasing_rearrangement(_load_fn(args))
    rep.add("rearrangement", star.to_json_dict(), method="exact")
    rep.add("distribution", [[str(v), str(m)] for v, m in distribution(star)], method="exact")


# the bounds of v_1, e_1, v_2, e_2, ... in a `khintchine` trial
_DRAW_LOW, _DRAW_HIGH = np.tile([-8, 0], KHINTCHINE_MAX_N), np.tile([9, 7], KHINTCHINE_MAX_N)


def _khintchine(rep: Report, args) -> int | None:
    rng = np.random.default_rng(args.seed)
    # trial t is a_k = v_k / 2**e_k, v_k in -8..8 and e_k in 0..6, kept as
    # numerators over 64; one draw of v_1, e_1, v_2, ... with per-element
    # bounds takes the same stream as one scalar draw each
    vectors = []
    for _ in range(args.trials):
        n = int(rng.integers(1, args.n + 1))
        drawn = rng.integers(_DRAW_LOW[:2 * n], _DRAW_HIGH[:2 * n])
        a = drawn[0::2] << (6 - drawn[1::2])
        if not a.any():
            a[0] = 64
        vectors.append(a)
    lengths = np.array([len(a) for a in vectors], dtype=np.int64)
    ok = np.ones(args.trials, dtype=bool)
    for n in np.unique(lengths).tolist():
        trials = np.flatnonzero(lengths == n)
        lower_ok, upper_ok = khintchine_windows(np.array([vectors[t] for t in trials]))
        ok[trials] = lower_ok & upper_ok
    failures = np.flatnonzero(~ok).tolist()
    for t in failures:
        rep.add(f"violation[{t}]", [str(Fraction(v, 64)) for v in vectors[t].tolist()], method="exact")
    res11 = khintchine_check([1, 1])
    rep.add("l1_of_(1,1)", res11["l1"], method="exact")
    rep.add("lower_constant_attained_by_(1,1)", res11["l1"] ** 2 * 2 == res11["l2_squared"], method="exact")
    rep.add("violations", len(failures), method="exact")
    if failures:
        return 2


def _coeffs(rep: Report, args) -> None:
    cs = coefficients(_load_fn(args), args.n)
    rep.add("coefficients", [str(c) for c in cs], method="exact")


def _project(rep: Report, args) -> None:
    rep.add("projection", project(_load_fn(args), args.n).to_json_dict(), method="exact")


def _equiv(rep: Report, args) -> None:
    X = parse_space(args.space)
    w = parse_weight(args.weight)
    res = equivalence_constants(X, w, args.n, args.trials, args.seed)
    rep.add("cLow", res["cLow"], method="evaluator")
    rep.add("cHigh", res["cHigh"], method="evaluator")


def _multiplicator(rep: Report, args) -> None:
    X = parse_space(args.space)
    f = _load_fn(args)
    bracket = multiplicator_norm(X, f, args.n, args.budget, args.seed)
    rep.add("lower", bracket.lower, method="optimizer-lower")
    rep.add("upper", bracket.upper, method=bracket.method)


def _projnorm(rep: Report, args) -> None:
    X = parse_space(args.space)
    w = parse_weight(args.weight)
    for n in _list("--n-list", _int_at_least("--n-list", 0), args.n_list):
        rep.add(f"lower_bound[n={n}]", projection_norm(X, w, n, args.trials, args.seed),
                method="optimizer-lower")


def _theorems(rep: Report, args) -> None:
    X = parse_space(args.space)
    w = parse_weight(args.weight)
    for key, value in theorem_predicates(X, w, seed=args.seed).items():
        rep.add(key, value, method="trend" if isinstance(value, dict) else "exact")


def _indices(rep: Report, args) -> None:
    phi = _parsed("--phi", lambda s: _parse_phi(s.split(":")), args.phi)
    gamma, delta = dilation_indices(phi)
    rep.add("gamma", gamma, method="grid-estimate", tolerance=0.02)
    rep.add("delta", delta, method="grid-estimate", tolerance=0.02)
    rep.add("delta2", delta2_check(phi), method="trend")


def _cex_plan(rep: Report, args) -> None:
    pl = cex.plan(_list("--m", int, args.m), strict=args.strict)
    ms = list(pl.m_list)
    rep.add("n", [cex.plan_entry(v, [m]) for v, m in zip(pl.n, ms)], method="exact")
    rep.add("N", [cex.plan_entry(v, ms[: k + 1]) for k, v in enumerate(pl.N)], method="exact")
    rep.add("condition_ok", pl.condition_ok, method="exact")


def _cex_build(rep: Report, args) -> None:
    pl = cex.plan(_list("--m", int, args.m), strict=args.strict)
    built = cex.build_explicit(pl, args.blocks)
    rep.add("f", built["f"].to_json_dict(), method="exact")
    rep.add("g", built["g"].to_json_dict(), method="exact")
    rep.add("B", built["B"], method="exact")
    rep.add("D", built["D"], method="exact")
    rep.add("equimeasurable", equimeasurable(built["f"], built["g"]), method="exact")


def _cex_certify(rep: Report, args) -> int | None:
    pl = cex.plan(_list("--m", int, args.m), strict=True)
    res = cex.certify(pl, args.blocks)
    rep.add("verdict", res["verdict"], method="exact")
    rep.add("f_upper_series", res["f_upper_series"], method="exact")
    rep.add("g_lower_terms", res["g_lower_terms"], method="exact")
    for check in res["checks"]:
        rep.add(check["name"], check, method=check.get("method", "exact"))
    if res["verdict"] != "PASS":
        return 3


def _compare(rep: Report, args) -> None:
    reports = [_read(path, Report.from_json) for path in (args.a, args.b)]
    rep.add("diff", compare_reports(*reports), method="exact")


def _opt(*flags: str, **kwargs) -> tuple:
    return flags, kwargs


def _int_at_least(flag: str, low: int, most: int | None = None) -> Callable[[str], int]:
    """The argparse type of an integer `flag` that must be at least `low`,
    and at most `most` if given.  argparse turns only ValueError and
    TypeError into its usage error, so the InvalidSpec reaches main as one
    `error:` line."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise InvalidSpec(f"{flag} must be >= {low}, got {value}")
        if most is not None and value > most:
            raise InvalidSpec(f"{flag} must be <= {most}, got {value}")
        return value

    return integer


class Command(NamedTuple):
    """One subcommand: `path` such as "cex plan" names it and its report
    experiment ("cex-plan"); `params` are the options its config records."""

    path: str
    params: tuple[str, ...]
    run: Callable[[Report, argparse.Namespace], int | None]
    options: tuple


FN = (
    _opt("--fn", help="StepFunction JSON file"),
    _opt("--values", help="comma-separated rational cell values"),
    _opt("--chi", help="indicator of [0,t] for dyadic t, e.g. 1/4"),
)
SPACE = _opt("--space", required=True)
WEIGHT = _opt("--weight", required=True)
M = _opt("--m", required=True)
BLOCKS = _opt("--blocks", type=int, required=True)
RELAXED = _opt("--relaxed", action="store_false", dest="strict")
N_POSITIVE = _int_at_least("--n", 1)
N_COUNT = _opt("--n", type=_int_at_least("--n", 0), required=True)
TRIALS = _int_at_least("--trials", 0)

COMMANDS = (
    Command("norm", ("space",), _norm, (SPACE, *FN)),
    Command("rearrange", (), _rearrange, FN),
    Command("khintchine", ("n", "trials"), _khintchine,
            (_opt("--n", type=_int_at_least("--n", 1, KHINTCHINE_MAX_N), default=16),
             _opt("--trials", type=TRIALS, default=100))),
    Command("coeffs", ("n",), _coeffs, (*FN, N_COUNT)),
    Command("project", ("n",), _project, (*FN, N_COUNT)),
    Command("equiv", ("space", "weight", "n", "trials"), _equiv,
            (SPACE, WEIGHT, _opt("--n", type=N_POSITIVE, default=10),
             _opt("--trials", type=TRIALS, default=100))),
    Command("multiplicator", ("space", "n", "budget"), _multiplicator,
            (SPACE, *FN, _opt("--n", type=N_POSITIVE, default=8),
             _opt("--budget", type=_int_at_least("--budget", 0), default=200))),
    Command("projnorm", ("space", "weight", "n_list", "trials"), _projnorm,
            (SPACE, WEIGHT, _opt("--n-list", default="2,4,8,16"), _opt("--trials", type=TRIALS, default=30))),
    Command("theorems", ("space", "weight"), _theorems, (SPACE, WEIGHT)),
    Command("indices", ("phi",), _indices,
            (_opt("--phi", required=True, help="pow:0.5 | logpow:0.5 | sqrt"),)),
    Command("cex plan", ("m", "strict"), _cex_plan, (M, RELAXED)),
    Command("cex build", ("m", "blocks"), _cex_build, (M, RELAXED, BLOCKS)),
    Command("cex certify", ("m", "blocks"), _cex_certify, (M, BLOCKS)),
    Command("compare", ("a", "b"), _compare, (_opt("a"), _opt("b"))),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rlab")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for cmd in COMMANDS:
        group, _, name = cmd.path.rpartition(" ")
        if group not in groups:
            groups[group] = groups[""].add_parser(group).add_subparsers(
                dest=f"{group}_command", required=True)
        p = groups[group].add_parser(name)
        for flags, kwargs in cmd.options:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(cmd=cmd)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cmd = args.cmd
        experiment = cmd.path.replace(" ", "-")
        # the seed replays every random run; precision and params record the rest
        rep = Report(experiment, {
            "experiment": experiment,
            "seed": args.seed,
            "precision": cex.PRECISION,
            "params": {name: getattr(args, name) for name in cmd.params},
        })
        code = cmd.run(rep, args)
        _emit(rep, args)
    except SystemExit as exc:  # argparse: --help, or a usage error it printed
        return 1 if exc.code not in (0, None) else 0
    except (RlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2
    return code or 0


if __name__ == "__main__":
    sys.exit(main())
