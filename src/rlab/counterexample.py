"""Executable two-tier construction of f with bounded multiplicator norm and
an equimeasurable g with diverging block lower bounds.

Explicit tier: materialize the blocks for relaxed plans within the level cap.
Certificate tier: exact verification of the closed-form bound chains in
exponent form. With n_k = 2^(m_k), every eighth power in the chain is a
dyadic odd * 2^e built from m_k and N_(k-1), so eighth-root comparisons
compare exponents and shift, and no 2^(m_k)-sized integer is converted or
reduced. The high-precision values beside them build n_k and 2^(-n_k) as
exact mpfs with ldexp (no irrational intermediates in any verdict)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from .dyadic import (
    LEVEL_CAP,
    StepFunction,
    hadamard_select,
    indicator,
    single_negative_select,
)
from .errors import BlockTooSmall, GrowthConditionViolated, LevelCapExceeded, NotPowerOfTwo
from .rearrangement import equimeasurable

# working bits of the decimals printed beside the exact checks.  Measured:
# the 20-digit decimals of every chain up to m_k = 2^24 come out the same
# from 79 bits up, and the need grows by about a bit per doubling of m_k, so
# 128 bits serve every chain whose 2^(m_k) fits in memory
PRECISION = 128


@dataclass(frozen=True)
class CounterexamplePlan:
    m_list: tuple[int, ...]
    strict: bool
    n: tuple[int, ...]  # n_k = 2**m_k
    N: tuple[int, ...]  # partial sums n_1 + ... + n_k
    condition_ok: bool  # growth condition n_k^(1/8) >= 2^(N_{k-1})

    def alpha_mpf(self, k: int) -> mpmath.mpf:
        nk, mk = self.n[k - 1], self.m_list[k - 1]
        return mpmath.ldexp(mpmath.power(mpmath.ldexp(1, mk), mpmath.mpf(-5) / 4), nk)


def plan(m_list, strict: bool = True) -> CounterexamplePlan:
    ms = tuple(int(m) for m in m_list)
    if not ms or any(b <= a for a, b in zip(ms, ms[1:])):
        raise GrowthConditionViolated("m_list must be strictly increasing and nonempty")
    ns = tuple(2**m for m in ms)
    Ns = []
    acc = 0
    for nk in ns:
        acc += nk
        Ns.append(acc)
    # n_k^(1/8) >= 2^(N_{k-1})  <=>  m_k >= 8 N_{k-1}
    ok = all(ms[k] >= 8 * Ns[k - 1] for k in range(1, len(ms)))
    if strict and not ok:
        bad = next(k for k in range(1, len(ms)) if ms[k] < 8 * Ns[k - 1])
        raise GrowthConditionViolated(
            f"block {bad + 1}: m = {ms[bad]} < 8 * N_prev = {8 * Ns[bad - 1]}"
        )
    return CounterexamplePlan(ms, strict, ns, tuple(Ns), ok)


def _alpha_exponent4(nk: int, mk: int) -> int:
    """4 log2(alpha_k) = 4 n_k - 5 m_k, as alpha_k = 2^(n_k) n_k^(-5/4)."""
    return 4 * nk - 5 * mk


def _alpha_exact_or_float(nk: int, mk: int) -> Fraction:
    """Exact 2**(n_k - 5 m_k / 4) when the exponent is an integer, else the
    exactly-representable float approximation (heights only need to match
    between the two blocks, which this guarantees)."""
    num = _alpha_exponent4(nk, mk)
    if num % 4 == 0:
        e = num // 4
        return Fraction(2**e) if e >= 0 else Fraction(1, 2**-e)
    return Fraction(2.0**nk * nk**-1.25)


def _nested_selection(pl: CounterexamplePlan, K: int, select) -> list[list[int]]:
    """Per-block 1-based rank-N_k interval index sets, each nested inside a
    host interval left free by the previous block."""
    blocks: list[list[int]] = []
    host = 1  # 1-based index of the current host interval, rank N_{k-1}
    for k in range(1, K + 1):
        nk = pl.n[k - 1]
        sub = select(nk)  # 1-based sub-indices within the host, rank n_k
        base = (host - 1) * 2**nk
        blocks.append([base + j for j in sub])
        taken = set(sub)
        free = next(j for j in range(1, 2**nk + 1) if j not in taken)
        host = base + free
    return blocks


def build_explicit(pl: CounterexamplePlan, K: int) -> dict:
    """Materialize f = sum alpha_k chi_(B_k) and g = sum alpha_k chi_(D_k)."""
    if K < 1 or K > len(pl.m_list):
        raise GrowthConditionViolated(f"K = {K} out of range for plan of {len(pl.m_list)} blocks")
    if pl.N[K - 1] > LEVEL_CAP:
        raise LevelCapExceeded(f"N_{K} = {pl.N[K - 1]} exceeds cap {LEVEL_CAP}")

    b_sets = _nested_selection(pl, K, hadamard_select)
    d_sets = _nested_selection(pl, K, lambda n: list(single_negative_select(n)))

    f = StepFunction.zero()
    g = StepFunction.zero()
    for k in range(1, K + 1):
        alpha = _alpha_exact_or_float(pl.n[k - 1], pl.m_list[k - 1])
        f = f + indicator(pl.N[k - 1], b_sets[k - 1]).scale(alpha)
        g = g + indicator(pl.N[k - 1], d_sets[k - 1]).scale(alpha)
    assert equimeasurable(f, g)
    return {"f": f, "g": g, "B": b_sets, "D": d_sets, "plan": pl}


def _check_head_simplification(prefix_N: int) -> bool:
    """(sqrt(P) + 1) 2^-P <= 1, exactly: sqrt(P) <= 2^P - 1 <=> P <= (2^P - 1)^2."""
    if prefix_N == 0:
        return True
    return prefix_N <= (2**prefix_N - 1) ** 2


def _check_tail_dominated(n: int, prefix_N: int) -> bool:
    """N 2^-N <= n 2^-n with N = prefix + n, exactly: N <= n 2^(N-n).

    Stated this way the power has exponent prefix_N, not n, so plan-scale
    blocks (n ~ 2^65536 and beyond) stay computable."""
    N = prefix_N + n
    return N <= n * 2**prefix_N


def _bound_B_log2(n: int) -> int:
    """log2(n 2^-n) = m - n for n = 2^m, the dyadic factor of bound_B."""
    return n.bit_length() - 1 - n


def bound_B(n: int, prefix_N: int = 0) -> mpmath.mpf:
    """Certified upper bound 2 sqrt(2) n 2^-n for the Hadamard block's
    multiplicator norm, after exact verification of the simplification chain."""
    if n < 1 or n & (n - 1) != 0:
        raise NotPowerOfTwo(f"n = {n} is not a power of two")
    if not _check_head_simplification(prefix_N):
        raise GrowthConditionViolated(f"head simplification fails at prefix {prefix_N}")
    if not _check_tail_dominated(n, prefix_N):
        raise GrowthConditionViolated(f"tail term not dominated for n={n}, prefix={prefix_N}")
    with mpmath.workprec(PRECISION):
        return mpmath.ldexp(2 * mpmath.sqrt(2), _bound_B_log2(n))


def _exact_mpf(n: int) -> mpmath.mpf:
    """n as an exact mpf in linear time. mpmath's pure-Python conversion
    strips trailing zero bits eight at a time, quadratic for n = 2^m; here
    they go into the exponent first."""
    e = (n & -n).bit_length() - 1
    return mpmath.ldexp(n >> e, e)


def bound_D(n: int, prefix_N: int = 0) -> mpmath.mpf:
    """Exact witness value (sqrt(n) - 2/sqrt(n)) n 2^-(prefix+n) for the
    single-negative block; asserted >= n^(3/2) 2^-(prefix+n) / 2."""
    if n < 4:
        raise BlockTooSmall(f"n = {n} < 4")
    # sqrt(n) - 2/sqrt(n) >= sqrt(n)/2  <=>  n >= 4, exact
    assert n >= 4
    with mpmath.workprec(PRECISION):
        n_mpf = _exact_mpf(n)
        root = mpmath.sqrt(n_mpf)
        return mpmath.ldexp((root - 2 / root) * n_mpf, -(prefix_N + n))


# A positive dyadic odd * 2^e is the pair (odd, e); with an odd mantissa the
# pair is the reduced fraction, so equal values have equal pairs.


def _dyadic_cmp(a: tuple[int, int], b: tuple[int, int]) -> int:
    """Sign of a - b for positive dyadics: by the position of the leading
    bit, then by one shift to the smaller exponent."""
    (am, ae), (bm, be) = a, b
    lead_a, lead_b = am.bit_length() + ae, bm.bit_length() + be
    if lead_a != lead_b:
        return 1 if lead_a > lead_b else -1
    e = min(ae, be)
    x, y = am << (ae - e), bm << (be - e)
    return (x > y) - (x < y)


def _gterm_eighth_powers(mk: int, prefix_N: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Exact 8th powers of alpha_k * bound_D and of n_k^(1/8) / 2, n_k = 2^mk >= 4.

    alpha_k bound_D = (n^(1/2) - 2 n^(-1/2)) n^(-1/4) 2^(-prefix), so its 8th
    power is (n - 2)^8 n^(-6) 2^(-8 prefix) = (2^(mk-1) - 1)^8 2^(8 - 6 mk - 8 prefix),
    and (2^(mk-1) - 1)^8 is odd. The binomial expansion builds it by shifts
    in linear time."""
    a = mk - 1
    odd = sum((-1) ** i * math.comb(8, i) << (a * (8 - i)) for i in range(9))
    return (odd, 8 - 6 * mk - 8 * prefix_N), (1, mk - 8)


def _fraction_repr(man: int, exp: int) -> str:
    """man 2^exp (man odd) as the exact p/q when both have fewer than 4000
    bits; otherwise rounded once to 80 bits and printed to 20 digits
    (plan-scale eighth powers overflow the int-to-str digit limit)."""
    if man.bit_length() + max(exp, 0) < 4000 and 1 - min(exp, 0) < 4000:
        return str(man << exp) if exp >= 0 else f"{man}/{1 << -exp}"
    with mpmath.workprec(80):
        # the odd mantissa rounds to nearest at 80 bits with no zero stripping
        return mpmath.nstr(mpmath.mpf((man, exp)), 20)


def _printable(v: int) -> bool:
    try:
        str(v)
    except ValueError:  # past sys.get_int_max_str_digits()
        return False
    return True


def plan_entry(v: int, exps: list[int]) -> int | str:
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


def certify(pl: CounterexamplePlan, K: int) -> dict:
    """Exact-arithmetic certificate for the first K blocks of a strict plan."""
    if not (pl.strict and pl.condition_ok):
        raise GrowthConditionViolated("certify requires a strict plan satisfying the growth condition")
    if K < 1 or K > len(pl.m_list):
        raise GrowthConditionViolated(f"K = {K} out of range")

    checks: list[dict] = []
    f_terms: list[mpmath.mpf] = []
    g_terms: list[mpmath.mpf | None] = []
    g_eighths: list[tuple[int, tuple[int, int]]] = []
    ok = True
    with mpmath.workprec(PRECISION):
        majorant_factor = 2 * mpmath.sqrt(2)
        for k in range(1, K + 1):
            mk, nk = pl.m_list[k - 1], pl.n[k - 1]
            prefix = pl.N[k - 2] if k >= 2 else 0
            n_mpf = mpmath.ldexp(1, mk)
            alpha = pl.alpha_mpf(k)

            bB = bound_B(nk, prefix)  # raises if the chain breaks
            f_term = alpha * bB
            f_terms.append(f_term)
            # (alpha_k bound_B)^8 from the factors' exponents, against the
            # majorant (2 sqrt(2) n_k^(-1/4))^8 = 2^(12 - 2 m_k)
            lhs8 = (1, 2 * _alpha_exponent4(nk, mk) + 12 + 8 * _bound_B_log2(nk))
            rhs8 = (1, 12 - 2 * mk)
            holds = _dyadic_cmp(lhs8, rhs8) <= 0
            ok &= holds
            checks.append(
                {
                    "name": f"f_term_le_majorant[k={k}]",
                    "lhs8": _fraction_repr(*lhs8),
                    "rhs8": _fraction_repr(*rhs8),
                    "relation": "<=",
                    "holds": holds,
                    "lhs": mpmath.nstr(f_term, 20),
                    "rhs": mpmath.nstr(majorant_factor * mpmath.power(n_mpf, mpmath.mpf(-1) / 4), 20),
                    "method": "exact",
                }
            )

            if nk < 4:
                g_terms.append(None)
                checks.append(
                    {
                        "name": f"g_term_ge_half_eighth_root[k={k}]",
                        "holds": True,
                        "skipped": "block too small for the witness bound (n < 4)",
                        "method": "exact",
                    }
                )
                continue

            bD = bound_D(nk, prefix)
            g_term = alpha * bD
            g_terms.append(g_term)
            lhs8, rhs8 = _gterm_eighth_powers(mk, prefix)
            g_eighths.append((k, lhs8))
            holds = _dyadic_cmp(lhs8, rhs8) >= 0
            ok &= holds
            checks.append(
                {
                    "name": f"g_term_ge_half_eighth_root[k={k}]",
                    "lhs8": _fraction_repr(*lhs8),
                    "rhs8": _fraction_repr(*rhs8),
                    "relation": ">=",
                    "holds": holds,
                    "lhs": mpmath.nstr(g_term, 20),
                    "rhs": mpmath.nstr(mpmath.power(n_mpf, mpmath.mpf(1) / 8) / 2, 20),
                    "method": "exact",
                }
            )

        # g_k0 < g_k1 compared as exact eighth powers
        for (k0, g0_8), (k1, g1_8) in zip(g_eighths, g_eighths[1:]):
            holds = _dyadic_cmp(g1_8, g0_8) > 0
            ok &= holds
            checks.append(
                {
                    "name": f"g_terms_increasing[{k0}->{k1}]",
                    "holds": holds,
                    "lhs": mpmath.nstr(g_terms[k0 - 1], 20),
                    "rhs": mpmath.nstr(g_terms[k1 - 1], 20),
                    "relation": "<",
                    "method": "exact",
                }
            )

        partials = []
        acc = mpmath.mpf(0)
        for t in f_terms:
            acc += t
            partials.append(mpmath.nstr(acc, 20))

    return {
        "verdict": "PASS" if ok else "FAIL",
        "blocks": K,
        "m_list": list(pl.m_list),
        "f_upper_series": partials,
        "g_lower_terms": [None if g is None else mpmath.nstr(g, 20) for g in g_terms],
        "checks": checks,
    }

