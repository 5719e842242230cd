"""Benchmark inputs, operations and correctness checks, one class per workload.

Every input is DIMACS text made here from the workload seed; the library
only ever sees that text, through ``maxcsp.parse``. Operations call the
public API through the ``maxcsp`` namespace at call time, so a traced run
can wrap those names (see ``spans.py``).

The generators fix every variable's degree from the shape alone (degrees
differ by at most one, the extra slots go to the highest-numbered
variables). The oracle's Gray-code walk flips variable 1 in half of all
steps and costs its degree each time, so with free degrees the verify time
would move by several percent from seed to seed; fixed degrees keep the
cost a function of the shape.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import maxcsp


@dataclass
class Op:
    """One timed call into the library and what its checks found."""

    kind: str
    call: Callable[[], object]
    inst: object
    primary: bool = True
    assignments: int = 0
    result: object = None
    seconds: float = 0.0
    improvements: list | None = None
    w_star: float | None = None
    miss: bool = False
    errors: list[str] = field(default_factory=list)


def _rng(seed: int, tag: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode()), index])


def clause_vars(rng: np.random.Generator, n: int, lengths) -> list[np.ndarray]:
    """0-based variable arrays for clauses of the given lengths, degrees fixed."""
    total = int(sum(lengths))
    quota = np.full(n, total // n, dtype=np.int64)
    quota[n - total % n:] += 1
    if quota.max() > len(lengths):
        raise ValueError("a variable would repeat inside a clause")
    out = []
    for a in lengths:
        chosen = np.lexsort((rng.random(n), -quota))[:a]
        if quota[chosen].min() <= 0:
            raise ValueError("degree quotas ran out; shape is infeasible")
        quota[chosen] -= 1
        out.append(chosen)
    return out


def _literal_lines(rng, clauses) -> list[str]:
    lines = []
    for vs in clauses:
        signs = rng.integers(0, 2, size=len(vs))
        lines.append(" ".join(str(int(v) + 1 if s else -(int(v) + 1)) for v, s in zip(vs, signs)))
    return lines


def e3cnf_text(rng, n: int, m: int) -> str:
    """Unit-weight exact-3 CNF."""
    body = _literal_lines(rng, clause_vars(rng, n, [3] * m))
    return f"p cnf {n} {m}\n" + "".join(f"{line} 0\n" for line in body)


def wcnf_text(rng, n: int, m: int, max_len: int = 5) -> str:
    """Real-weight CNF, clause lengths 1..max_len equally often, weights in [0.1, 10)."""
    lengths = rng.permutation(np.arange(m) % max_len + 1)
    body = _literal_lines(rng, clause_vars(rng, n, lengths))
    weights = rng.integers(100, 10_000, size=m) / 1000.0
    lines = "".join(f"{w:.3f} {line} 0\n" for w, line in zip(weights, body))
    return f"p wcnf {n} {m}\n" + lines


def _hook(improvements):
    """solve's trace callback, collecting (index, weight) improvements; None when untraced."""
    return None if improvements is None else lambda i, w: improvements.append((i, w))


def check_solve(inst, res, clamped: bool) -> list[str]:
    """The reported weight is the scalar weight of the reported assignment."""
    errors = []
    ref = maxcsp.weight_of(inst, res.best_assignment)
    if res.best_weight != ref:
        errors.append(f"best_weight {res.best_weight!r} != weight_of(best_assignment) {ref!r}")
    if res.clamped != clamped:
        errors.append(f"clamped={res.clamped}, expected {clamped}")
    return errors


def check_verify(cb, rep) -> list[str]:
    """The oracle passes, and the exact near-optimal count covers the bound."""
    errors = []
    if not rep.all_pass:
        errors.append("verify_counting_bound: all_pass is False")
    best = cb.best_record
    if rep.d_exact < maxcsp.binomial_sum(best.s_size, best.r):
        errors.append(f"d_exact {rep.d_exact} below the counting bound 2^{cb.log2_count}")
    return errors


class SampleE3cnf:
    """Clamped solve on unit-weight E3-CNF, at parallelism 1 then 2."""

    name = "sample_e3cnf"

    def __init__(self, seed, n=200, m=850, budget=32768, eps=0.01):
        self.seed, self.budget, self.eps = seed, budget, eps
        self.texts = [e3cnf_text(_rng(seed, self.name, 0), n, m)]

    def prepare(self, insts):
        self.inst = insts[0]

    def round(self, r, traced):
        ops = []
        for kind, par in (("solve_p1", 1), ("solve_p2", 2)):
            imps = [] if traced else None
            cfg = maxcsp.SamplerConfig(
                epsilon=self.eps, seed=self.seed, max_iterations=self.budget, parallelism=par
            )
            call = lambda cfg=cfg, imps=imps: maxcsp.solve(self.inst, cfg, trace=_hook(imps))
            ops.append(Op(kind, call, self.inst, par == 1, self.budget, improvements=imps))
        return ops

    def check(self, ops):
        for op in ops:
            op.errors += check_solve(op.inst, op.result, clamped=True)
        p1, p2 = ops
        if p2.result != p1.result:
            p2.errors.append("parallelism 2 result differs from parallelism 1")


class SampleWcnfWide:
    """Clamped solve on real-weight WCNF at wide n, one full sampler chunk."""

    name = "sample_wcnf_wide"

    # the sampler evaluates 65,536 samples per chunk; the budget fills one
    def __init__(self, seed, n=1000, m=1500, budget=65536, eps=0.01):
        self.seed, self.budget, self.eps = seed, budget, eps
        self.texts = [wcnf_text(_rng(seed, self.name, 0), n, m)]

    def prepare(self, insts):
        self.inst = insts[0]

    def round(self, r, traced):
        imps = [] if traced else None
        cfg = maxcsp.SamplerConfig(epsilon=self.eps, seed=self.seed, max_iterations=self.budget)
        call = lambda: maxcsp.solve(self.inst, cfg, trace=_hook(imps))
        return [Op("solve_p1", call, self.inst, True, self.budget, improvements=imps)]

    def check(self, ops):
        for op in ops:
            op.errors += check_solve(op.inst, op.result, clamped=True)


class KsatDesk:
    """Acceptance-criterion-5 shape: short solve_ksat calls checked against the oracle."""

    name = "ksat_desk"

    def __init__(self, seed, n=12, m=40, instances=4, seeds_per_round=25, eps=1 / 8, fail=1e-2):
        self.seed, self.per_round, self.eps, self.fail = seed, seeds_per_round, eps, fail
        self.texts = [e3cnf_text(_rng(seed, self.name, i), n, m) for i in range(instances)]

    def prepare(self, insts):
        self.insts = insts
        self.w_star = [maxcsp.brute_force_optimum(inst)[0] for inst in insts]

    def round(self, r, traced):
        ops = []
        for k, inst in enumerate(self.insts):
            for s in range(self.per_round):
                imps = [] if traced else None
                solver_seed = (self.seed * 1_000_003 + r * self.per_round + s) % (1 << 64)
                call = lambda inst=inst, sd=solver_seed, imps=imps: maxcsp.solve_ksat(
                    inst, 3, epsilon=self.eps, fail_prob=self.fail, seed=sd, trace=_hook(imps)
                )
                ops.append(Op("solve_ksat", call, inst, improvements=imps, w_star=self.w_star[k]))
        return ops

    def check(self, ops):
        for op in ops:
            res = op.result
            op.assignments = res.iterations_used
            op.errors += check_solve(op.inst, res, clamped=False)
            if res.best_weight > op.w_star:
                op.errors.append(f"best_weight {res.best_weight} above the optimum {op.w_star}")
            # a miss is allowed with probability fail_prob; it is counted, not failed
            op.miss = res.best_weight < (1 - self.eps) * op.w_star


class OracleVerify:
    """verify_counting_bound on a fresh instance per call (E3-CNF, plus WCNF)."""

    name = "oracle_verify"

    # 12 pairs are 24 instances, more than the oracle's 16-entry table cache,
    # so even a run that cycles through the pool never hits the cache
    def __init__(self, seed, n=20, m=90, wn=18, wm=60, pool=12, eps=0.05):
        self.eps = eps
        self.texts = []
        for i in range(pool):
            self.texts.append(e3cnf_text(_rng(seed, self.name, 2 * i), n, m))
            self.texts.append(wcnf_text(_rng(seed, self.name, 2 * i + 1), wn, wm))

    def prepare(self, insts):
        self.pairs = [insts[i:i + 2] for i in range(0, len(insts), 2)]

    def round(self, r, traced):
        ops = []
        for j, inst in enumerate(self.pairs[r % len(self.pairs)]):
            call = lambda inst=inst: (
                maxcsp.counting_bound(inst, self.eps),
                maxcsp.verify_counting_bound(inst, self.eps),
            )
            ops.append(Op("verify" if j == 0 else "verify_wcnf", call, inst, j == 0, 1 << inst.num_vars))
        return ops

    def check(self, ops):
        for op in ops:
            op.errors += check_verify(*op.result)


WORKLOADS = {w.name: w for w in (SampleE3cnf, SampleWcnfWide, KsatDesk, OracleVerify)}

# Small shapes for the benchmark's own tests: same code paths, seconds not minutes.
TINY = {
    "sample_e3cnf": dict(n=24, m=100, budget=2000),
    "sample_wcnf_wide": dict(n=60, m=90, budget=3000),
    "ksat_desk": dict(n=8, m=20, instances=2, seeds_per_round=3),
    "oracle_verify": dict(n=10, m=40, wn=9, wm=30, pool=3),
}
