"""Unified command-line front end.

Exit codes: 0 success, 1 validation error, 2 numeric failure,
3 certificate FAIL."""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import counterexample as cex
from .dyadic import StepFunction, make_step
from .errors import RlabError, SchemaMismatch
from .projections import (
    coefficients,
    equivalence_constants,
    khintchine_check,
    multiplicator_norm,
    project,
    projection_norm_profile,
    theorem_predicates,
)
from .reports import Report, compare_reports
from .spaces import _parse_phi, delta2_check, dilation_indices, norm, parse_space
from .weighted import parse_weight


def _report(experiment: str, args, params: dict) -> Report:
    """An empty report whose config records the run: the seed, which every
    random run needs to replay, the precision and the parameters."""
    return Report(experiment, {
        "experiment": experiment,
        "seed": args.seed,
        "precision": args.precision,
        "params": params,
    })


def _load_fn(args) -> StepFunction:
    if getattr(args, "fn", None):
        with open(args.fn) as fh:
            return StepFunction.from_json(fh.read())
    if getattr(args, "values", None):
        vals = [Fraction(v) for v in args.values.split(",")]
        level = (len(vals) - 1).bit_length()
        if 2**level != len(vals):
            raise RlabError(f"value count {len(vals)} is not a power of two")
        return make_step(level, vals)
    if getattr(args, "chi", None):
        from .dyadic import chi_prefix

        return chi_prefix(Fraction(args.chi))
    raise RlabError("provide --fn, --values, or --chi")


def _emit(report: Report, args) -> None:
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_norm(args) -> int:
    X = parse_space(args.space)
    f = _load_fn(args)
    rep = _report("norm", args, {"space": args.space})
    rep.add("norm", norm(X, f), method="exact" if X.family == "lp" else "evaluator")
    rep.add("dual_space", _safe_dual_label(X), method="exact")
    _emit(rep, args)
    return 0


def _safe_dual_label(X) -> str:
    try:
        return X.dual().label
    except RlabError:
        return "unsupported"


def _cmd_rearrange(args) -> int:
    from .rearrangement import decreasing_rearrangement, distribution

    f = _load_fn(args)
    star = decreasing_rearrangement(f)
    rep = _report("rearrange", args, {})
    rep.add("rearrangement", star.to_json_dict(), method="exact")
    rep.add(
        "distribution",
        [[str(v), str(m)] for v, m in distribution(f).breakpoints],
        method="exact",
    )
    _emit(rep, args)
    return 0


def _cmd_khintchine(args) -> int:
    rng = np.random.default_rng(args.seed)
    rep = _report("khintchine", args, {"n": args.n, "trials": args.trials})
    failures = 0
    for t in range(args.trials):
        n = int(rng.integers(1, args.n + 1))
        a = [
            Fraction(int(rng.integers(-8, 9)), 2 ** int(rng.integers(0, 7)))
            for _ in range(n)
        ]
        if all(v == 0 for v in a):
            a[0] = Fraction(1)
        res = khintchine_check(a)
        if not (res["lower_ok"] and res["upper_ok"]):
            failures += 1
            rep.add(f"violation[{t}]", [str(v) for v in a], method="exact")
    res11 = khintchine_check([1, 1])
    rep.add("l1_of_(1,1)", res11["l1"], method="exact")
    rep.add("lower_constant_attained_by_(1,1)", res11["l1"] ** 2 * 2 == res11["l2_squared"], method="exact")
    rep.add("violations", failures, method="exact")
    _emit(rep, args)
    return 0 if failures == 0 else 2


def _cmd_coeffs(args) -> int:
    f = _load_fn(args)
    cs = coefficients(f, args.n)
    rep = _report("coeffs", args, {"n": args.n})
    rep.add("coefficients", [str(c) for c in cs.a], method="exact")
    _emit(rep, args)
    return 0


def _cmd_project(args) -> int:
    f = _load_fn(args)
    pf = project(f, args.n)
    rep = _report("project", args, {"n": args.n})
    rep.add("projection", pf.to_json_dict(), method="exact")
    _emit(rep, args)
    return 0


def _cmd_equiv(args) -> int:
    X = parse_space(args.space)
    w = parse_weight(args.weight)
    res = equivalence_constants(X, w, args.n, args.trials, args.seed)
    params = {"space": args.space, "weight": args.weight, "n": args.n, "trials": args.trials}
    rep = _report("equiv", args, params)
    rep.add("cLow", res["cLow"], method="evaluator")
    rep.add("cHigh", res["cHigh"], method="evaluator")
    _emit(rep, args)
    return 0


def _cmd_multiplicator(args) -> int:
    X = parse_space(args.space)
    f = _load_fn(args)
    bracket = multiplicator_norm(X, f, args.n, args.budget, args.seed)
    rep = _report("multiplicator", args, {"space": args.space, "n": args.n, "budget": args.budget})
    rep.add("lower", bracket.lower, method="optimizer-lower")
    rep.add("upper", bracket.upper, method=bracket.method)
    _emit(rep, args)
    return 0


def _cmd_projnorm(args) -> int:
    X = parse_space(args.space)
    w = parse_weight(args.weight)
    ns = [int(v) for v in args.n_list.split(",")]
    profile = projection_norm_profile(X, w, ns, args.trials, args.seed)
    rep = _report("projnorm", args, {
        "space": args.space, "weight": args.weight, "n_list": args.n_list, "trials": args.trials,
    })
    for n, val in profile:
        rep.add(f"lower_bound[n={n}]", val, method="optimizer-lower")
    _emit(rep, args)
    return 0


def _cmd_theorems(args) -> int:
    X = parse_space(args.space)
    w = parse_weight(args.weight)
    res = theorem_predicates(X, w, seed=args.seed)
    rep = _report("theorems", args, {"space": args.space, "weight": args.weight})
    for key, value in res.items():
        if key in ("space", "weight"):
            continue
        rep.add(key, value, method="trend" if isinstance(value, dict) else "exact")
    _emit(rep, args)
    return 0


def _cmd_indices(args) -> int:
    phi = _parse_phi(args.phi.split(":"))
    gamma, delta = dilation_indices(phi)
    d2 = delta2_check(phi)
    rep = _report("indices", args, {"phi": args.phi})
    rep.add("gamma", gamma, method="grid-estimate", tolerance=0.02)
    rep.add("delta", delta, method="grid-estimate", tolerance=0.02)
    rep.add("delta2", d2, method="trend")
    _emit(rep, args)
    return 0


def _parse_m(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


def _printable(v: int) -> bool:
    try:
        str(v)
    except ValueError:  # past sys.get_int_max_str_digits()
        return False
    return True


def _plan_entry(v: int, exps: list[int]) -> int | str:
    """v = sum of 2^e over the increasing exps as a JSON integer, or, past the
    int-to-str digit limit, as the exact string "2^e_top+...+rest"."""
    if _printable(v):
        return v
    terms = []
    for e in reversed(exps):
        terms.append(f"2^{e}")
        v -= 1 << e
        if _printable(v):
            break
    return "+".join(terms + ([str(v)] if v else []))


def _cmd_cex_plan(args) -> int:
    pl = cex.plan(_parse_m(args.m), strict=not args.relaxed)
    rep = _report("cex-plan", args, {"m": args.m, "strict": not args.relaxed})
    ms = list(pl.m_list)
    rep.add("n", [_plan_entry(v, [m]) for v, m in zip(pl.n, ms)], method="exact")
    rep.add("N", [_plan_entry(v, ms[: k + 1]) for k, v in enumerate(pl.N)], method="exact")
    rep.add("condition_ok", pl.condition_ok, method="exact")
    _emit(rep, args)
    return 0


def _cmd_cex_build(args) -> int:
    pl = cex.plan(_parse_m(args.m), strict=not args.relaxed)
    built = cex.build_explicit(pl, args.blocks)
    rep = _report("cex-build", args, {"m": args.m, "blocks": args.blocks})
    rep.add("f", built["f"].to_json_dict(), method="exact")
    rep.add("g", built["g"].to_json_dict(), method="exact")
    rep.add("B", built["B"], method="exact")
    rep.add("D", built["D"], method="exact")
    from .rearrangement import equimeasurable

    rep.add("equimeasurable", equimeasurable(built["f"], built["g"]), method="exact")
    _emit(rep, args)
    return 0


def _cmd_cex_certify(args) -> int:
    pl = cex.plan(_parse_m(args.m), strict=True)
    res = cex.certify(pl, args.blocks, precision=args.precision)
    rep = _report("cex-certify", args, {"m": args.m, "blocks": args.blocks})
    rep.add("verdict", res["verdict"], method="exact")
    rep.add("f_upper_series", res["f_upper_series"], method="exact")
    rep.add("g_lower_terms", res["g_lower_terms"], method="exact")
    for check in res["checks"]:
        rep.add(check["name"], check, method=check.get("method", "exact"))
    _emit(rep, args)
    return 0 if res["verdict"] == "PASS" else 3


def _cmd_compare(args) -> int:
    with open(args.a) as fh:
        rep_a = Report.from_json(fh.read())
    with open(args.b) as fh:
        rep_b = Report.from_json(fh.read())
    diff = compare_reports(rep_a, rep_b)
    rep = _report("compare", args, {"a": args.a, "b": args.b})
    rep.add("diff", diff, method="exact")
    _emit(rep, args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rlab")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--precision", type=int, default=128, help="certificate precision bits")
    parser.add_argument("--out", default=None)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_fn_args(p):
        p.add_argument("--fn", help="StepFunction JSON file")
        p.add_argument("--values", help="comma-separated rational cell values")
        p.add_argument("--chi", help="indicator of [0,t] for dyadic t, e.g. 1/4")

    p = sub.add_parser("norm")
    p.add_argument("--space", required=True)
    add_fn_args(p)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("rearrange")
    add_fn_args(p)
    p.set_defaults(func=_cmd_rearrange)

    p = sub.add_parser("khintchine")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_khintchine)

    p = sub.add_parser("coeffs")
    add_fn_args(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_coeffs)

    p = sub.add_parser("project")
    add_fn_args(p)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("equiv")
    p.add_argument("--space", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("multiplicator")
    p.add_argument("--space", required=True)
    add_fn_args(p)
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--budget", type=int, default=200)
    p.set_defaults(func=_cmd_multiplicator)

    p = sub.add_parser("projnorm")
    p.add_argument("--space", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--n-list", default="2,4,8,16")
    p.add_argument("--trials", type=int, default=30)
    p.set_defaults(func=_cmd_projnorm)

    p = sub.add_parser("theorems")
    p.add_argument("--space", required=True)
    p.add_argument("--weight", required=True)
    p.set_defaults(func=_cmd_theorems)

    p = sub.add_parser("indices")
    p.add_argument("--phi", required=True, help="pow:0.5 | logpow:0.5 | sqrt")
    p.set_defaults(func=_cmd_indices)

    p = sub.add_parser("cex")
    cex_sub = p.add_subparsers(dest="cex_command", required=True)

    q = cex_sub.add_parser("plan")
    q.add_argument("--m", required=True)
    q.add_argument("--relaxed", action="store_true")
    q.set_defaults(func=_cmd_cex_plan)

    q = cex_sub.add_parser("build")
    q.add_argument("--m", required=True)
    q.add_argument("--relaxed", action="store_true")
    q.add_argument("--blocks", type=int, required=True)
    q.set_defaults(func=_cmd_cex_build)

    q = cex_sub.add_parser("certify")
    q.add_argument("--m", required=True)
    q.add_argument("--blocks", type=int, required=True)
    q.set_defaults(func=_cmd_cex_certify)

    p = sub.add_parser("compare")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except SchemaMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
