"""Command-line surface: solve, exponent, table, verify, gen.

Reports are line-oriented ``key=value`` pairs for script consumption;
``--human`` switches the table and verify renderings to aligned columns.
Exit codes: 0 ok, 2 parse error, 3 budget overflow, 4 domain error,
5 verification failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import bounds
from .errors import (
    BudgetOverflowError,
    DimensionError,
    DomainError,
    FormatError,
    SizeError,
    UnsupportedError,
)
from .formats import KINDS, parse, serialize
from .generate import random_ekcnf
from .oracle import verify_counting_bound
from .sampler import SamplerConfig, solve

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DOMAIN = 4
EXIT_VERIFY = 5


def _load(path: str, kind: str | None):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc
    inst, diags = parse(text, kind)
    for line, message in diags.warnings:
        print(f"warning: line {line}: {message}", file=sys.stderr)
    return inst


def _cmd_solve(args) -> int:
    inst = _load(args.file, args.format)
    cfg = SamplerConfig(
        epsilon=args.eps,
        w_bar=args.wbar,
        fail_prob=args.fail,
        seed=args.seed,
        max_iterations=args.max_iters,
        parallelism=args.parallelism,
    )
    res = solve(inst, cfg)
    print(f"n={inst.num_vars}")
    print(f"m={inst.num_constraints}")
    print(f"w={inst.total_weight!r}")
    print(f"ell={inst.weighted_length!r}")
    print(f"eps={cfg.epsilon!r}")
    if cfg.w_bar is not None:
        print(f"wbar={cfg.w_bar!r}")
    print(f"eps_eff={res.effective_epsilon!r}")
    print(f"log2_count={res.log2_count!r}")
    print(f"log2_budget={math.log2(res.iterations_budget)!r}")
    print(f"iterations_budget={res.iterations_budget}")
    print(f"iterations={res.iterations_used}")
    print(f"clamped={int(res.clamped)}")
    print(f"best_weight={res.best_weight!r}")
    print(f"guarantee={res.target_kind}")
    print(f"fail_prob={cfg.fail_prob!r}")
    print(f"achieved_fail_prob={res.achieved_fail_prob!r}")
    print(f"seed={res.seed}")
    print(f"assignment={res.best_assignment}")
    return EXIT_OK


# the exponent methods that take (k, eps); "ept" takes (eps, alpha) instead
_K_METHODS = {
    "ours": bounds.exponent_ours_eksat,
    "ours-delta2": bounds.exponent_ours_ksat_delta2,
    "hirsch1": bounds.exponent_hirsch1,
    "hirsch2": bounds.exponent_hirsch2,
}


def _cmd_exponent(args) -> int:
    if args.method == "ept":
        report = bounds.exponent_ept(args.eps, args.alpha)
    elif args.k is None:
        raise DomainError(f"--method {args.method} requires --k")
    else:
        report = _K_METHODS[args.method](args.k, args.eps)
    print(f"method={report.method}")
    if report.k is not None:
        print(f"k={report.k}")
    print(f"eps={report.epsilon!r}")
    if report.alpha is not None:
        print(f"alpha={report.alpha!r}")
    print(f"exponent={report.exponent:.7f}")
    if report.delta_star is not None:
        print(f"delta_star={report.delta_star:.9f}")
    base = report.base
    print(f"base={base:.7f}")
    print(f"x={2.0 - base:.7f}")
    return EXIT_OK


def _cmd_table(args) -> int:
    rows = bounds.comparison_table()
    if args.human:
        print(f"{'k':>2} {'eps':>8} {'hirsch2':>10} {'ours':>10}")
        for row in rows:
            print(f"{row.k:>2} {row.label:>8} {row.hirsch2:>10.7f} {row.ours:>10.7f}")
    else:
        for row in rows:
            print(
                f"k={row.k} eps={row.label} hirsch2={row.hirsch2:.7f} ours={row.ours:.7f}"
            )
    if args.check:
        bad = 0
        for row, ref in zip(rows, bounds.PUBLISHED_EXPONENTS):
            dh = abs(row.hirsch2 - ref.hirsch2)
            do = abs(row.ours - ref.ours)
            if dh > 1e-6 or do > 1e-6:
                bad += 1
                print(
                    f"mismatch k={ref.k} eps={ref.label}: "
                    f"hirsch2 {row.hirsch2:.7f} vs {ref.hirsch2:.7f}, "
                    f"ours {row.ours:.7f} vs {ref.ours:.7f}",
                    file=sys.stderr,
                )
        print(f"check={'ok' if bad == 0 else 'failed'} rows={len(rows)} mismatches={bad}")
        if bad:
            return EXIT_VERIFY
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load(args.file, None)
    report = verify_counting_bound(inst, args.eps, args.wbar)
    print(f"n={report.num_vars}")
    print(f"m={report.num_constraints}")
    print(f"eps={report.epsilon!r}")
    print(f"eps_eff={report.effective_epsilon!r}")
    print(f"w_star={report.w_star!r}")
    print(f"d_exact={report.d_exact}")
    for c in report.per_delta_checks:
        if args.human:
            print(
                f"  delta={c.delta:<10.6f} s={c.s_size:<4d} r={c.r:<3d} "
                f"sigma={c.sigma_count:<12d} count_ok={c.count_ok} members_ok={c.members_ok}"
            )
        else:
            print(
                f"delta={c.delta!r} threshold={c.threshold!r} s={c.s_size} r={c.r} "
                f"sigma={c.sigma_count} count_ok={int(c.count_ok)} members_ok={int(c.members_ok)}"
            )
    print(f"all_pass={int(report.all_pass)}")
    return EXIT_OK if report.all_pass else EXIT_VERIFY


def _cmd_gen(args) -> int:
    inst = random_ekcnf(args.n, args.m, args.k, args.seed)
    sys.stdout.write(serialize(inst, "cnf"))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxcsp",
        description="Uniform-sampling approximation for weighted MAX-CSP / MAX-k-SAT",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="sample assignments and report the best one")
    p.add_argument("file")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--wbar", type=float, default=None)
    p.add_argument("--fail", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--parallelism", type=int, default=1)
    p.add_argument("--format", choices=KINDS, default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("exponent", help="runtime exponent calculators")
    p.add_argument("--method", required=True, choices=[*_K_METHODS, "ept"])
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--alpha", type=float, default=bounds.DEFAULT_EPT_ALPHA)
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("table", help="27-row exponent comparison table")
    p.add_argument("--check", action="store_true")
    p.add_argument("--human", action="store_true")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="brute-force check of the counting bound")
    p.add_argument("file")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--wbar", type=float, default=None)
    p.add_argument("--human", action="store_true")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="emit a seeded random exact-k CNF")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetOverflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (FormatError, UnsupportedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (DomainError, SizeError, DimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
