"""maxcsp benchmark: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
The load is a closed loop: one client in this process issues the workload's
operations back to back through the public API, in rounds of fixed work,
until ``--seconds`` have passed. Inputs are DIMACS text made from ``--seed``
(see ``workloads.py``); reference values for the checks are computed before
timing and every operation's result is checked after its round.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it records the machine and the workload-specific figures
that are not gated metrics. A traced run alternates untraced and traced
rounds, takes the per-layer figures from the traced ones and writes its
spans to ``bench/out/``. The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# fresh interpreters per run for setup_s; the median of these is reported
SETUP_REPEATS = 5

# set-up as a user pays it: a fresh interpreter imports the library and
# parses the workload's input (the input is read before the clock starts)
SETUP_CHILD = """
import json, sys, time
texts = json.load(sys.stdin)
t0 = time.perf_counter()
import maxcsp
t1 = time.perf_counter()
for text in texts:
    maxcsp.parse(text)
t2 = time.perf_counter()
json.dump({"import_s": t1 - t0, "parse_s": t2 - t1, "file": maxcsp.__file__}, sys.stdout)
"""


def import_library():
    """Import maxcsp from this checkout's src/, and nothing else."""
    package = SRC / "maxcsp"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: {package} not found; run the benchmark from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import maxcsp

    if Path(maxcsp.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported maxcsp from {maxcsp.__file__}, not from {package}")
    return maxcsp


def measure_setup(texts, repeats):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    payload = json.dumps(texts)
    runs = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-s", "-c", SETUP_CHILD],
            input=payload, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        run = json.loads(proc.stdout)
        if Path(run["file"]).resolve().parent != SRC / "maxcsp":
            raise SystemExit(f"error: set-up child imported maxcsp from {run['file']}")
        runs.append(run)
    return runs


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(num, den):
    return num / den if den > 0 else 0.0


def tail_ms(ms):
    """Highest of p99 / p90 with at least ten samples beyond it, else None."""
    for q in (99, 90):
        if len(ms) * (100 - q) / 100 >= 10:
            return {"percentile": q, "ms": statistics.quantiles(ms, n=100)[q - 1], "samples": len(ms)}
    return None


@dataclass
class Round:
    index: int
    traced: bool
    wall: float
    ops: list


def run(name, seed, seconds, trace, shape=None, setup_repeats=SETUP_REPEATS):
    """Run one workload; return (result line, info line) as dicts."""
    import maxcsp
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[name](seed, **(shape or {}))
    setup = measure_setup(wl.texts, setup_repeats)
    tracer = spans.Tracer(maxcsp) if trace else None

    with tracer or nullcontext():
        parsed = [maxcsp.parse(text) for text in wl.texts]
    insts = [inst for inst, _ in parsed]
    attempted, failed, errors = len(parsed), 0, []
    for inst, diags in parsed:
        if maxcsp.parse(maxcsp.serialize(inst, diags.source_kind))[0] != inst:
            failed += 1
            errors.append("parse(serialize(x)) != x")
    wl.prepare(insts)

    rounds = []
    peak_rss_mb = None
    start = time.perf_counter()
    while True:
        r = len(rounds)
        traced = bool(trace) and r % 2 == 1
        ops = wl.round(r, traced)
        if tracer:
            tracer.round = r
        t0 = time.perf_counter()
        with tracer if traced else nullcontext():
            for op in ops:
                a = time.perf_counter()
                op.result = op.call()
                op.seconds = time.perf_counter() - a
        wall = time.perf_counter() - t0
        if peak_rss_mb is None:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        wl.check(ops)
        rounds.append(Round(r, traced, wall, ops))
        attempted += len(ops)
        for op in ops:
            if op.errors:
                failed += 1
                errors.extend(f"round {r} {op.kind}: {e}" for e in op.errors)
        if time.perf_counter() - start >= seconds and len(rounds) >= (2 if trace else 1):
            break

    plain = [rd for rd in rounds if not rd.traced]
    info = {
        "workload": name,
        "seed": seed,
        "machine": machine(),
        "rounds": len(rounds),
        "detail": workload_detail(plain),
        "op_failure_rate": failed / attempted,
        "errors": errors[:20],
    }
    if trace:
        metrics = per_layer(tracer, rounds, setup)
        tracer.write(OUT / f"trace_{name}_{seed}.jsonl")
    else:
        metrics = end_to_end(plain, setup, peak_rss_mb)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, info


def _metric(value, unit):
    return {"value": value if isinstance(value, int) else float(value), "unit": unit}


def end_to_end(rounds, setup, peak_rss_mb):
    primary = [op for rd in rounds for op in rd.ops if op.primary]
    return {
        "setup_s": _metric(_median(s["import_s"] + s["parse_s"] for s in setup), "s"),
        "wall_s": _metric(_median(rd.wall for rd in rounds), "s"),
        "op_ms_p50": _metric(_median(op.seconds for op in primary) * 1e3, "ms"),
        "assignments_per_s": _metric(_median(op.assignments / op.seconds for op in primary), "1/s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }


def workload_detail(rounds):
    """Workload-specific end-to-end figures, from untraced rounds."""
    ops = [op for rd in rounds for op in rd.ops]
    detail = {"ops": len(ops), "op_ms_tail": tail_ms([op.seconds * 1e3 for op in ops if op.primary])}
    by_kind = {}
    for op in ops:
        by_kind.setdefault(op.kind, []).append(op)
    for kind, group in sorted(by_kind.items()):
        detail[f"{kind}.ms_p50"] = _median(op.seconds for op in group) * 1e3
        detail[f"{kind}.assignments_per_s"] = _median(op.assignments / op.seconds for op in group)
    detail.update(_workload_rates(rounds))
    return detail


def _workload_rates(rounds):
    """samples_per_s_par, verify_assignments_per_s and guarantee_miss_rate, where they apply."""
    ops = [op for rd in rounds for op in rd.ops]
    out = {}
    par = [op.assignments / op.seconds for op in ops if op.kind == "solve_p2"]
    if par:
        out["samples_per_s_par"] = _median(par)
    verify = [op for op in ops if op.kind.startswith("verify")]
    if verify:
        out["verify_assignments_per_s"] = sum(op.assignments for op in verify) / sum(op.seconds for op in verify)
    ksat = [op for op in rounds[0].ops if op.kind == "solve_ksat"] if rounds else []
    if ksat:
        out["guarantee_miss_rate"] = sum(op.miss for op in ksat) / len(ksat)
    return out


def per_layer(tracer, rounds, setup):
    import spans

    traced = [rd for rd in rounds if rd.traced]
    first = traced[0].index
    indices = [rd.index for rd in traced]
    by_round = {i: {} for i in indices}
    children = {}
    for s in tracer.spans:
        if s.round in by_round:
            by_round[s.round].setdefault(s.name, []).append(s)
        children.setdefault(s.parent, []).append(s)

    def named(name, i=None):
        if i is not None:
            return by_round[i].get(name, [])
        return [s for j in indices for s in by_round[j].get(name, [])]

    def busy(name):
        return _median(sum(s.duration for s in named(name, i)) for i in indices)

    def self_s(name):
        return _median(
            sum(spans.self_time(s, children.get(s.sid, [])) for s in named(name, i)) for i in indices
        )

    def attr_sum(name, key, i=None):
        return sum(s.attrs[key] for s in named(name, i))

    def total(name):
        return sum(s.duration for s in named(name))

    bits, batch, bound = "rng.assignment_bits", "instance.weight_of_batch", "bounds.counting_bound"
    solve, weights, verify = "sampler.solve", "oracle.assignment_weights", "oracle.verify"
    solves = named(solve, first)
    best_fracs = []
    for rd in traced:
        for op in rd.ops:
            if op.improvements is not None:
                best = min(i for i, w in op.improvements if w == op.result.best_weight)
                best_fracs.append(best / op.result.iterations_used)
    parses = [s for s in tracer.spans if s.name == "formats.parse" and s.round == -1]
    parse_s = sum(s.duration for s in parses)
    rates = _workload_rates([rd for rd in rounds if not rd.traced])
    plain_wall = _median(rd.wall for rd in rounds if not rd.traced)
    traced_wall = _median(rd.wall for rd in traced)

    m = {
        f"{bits}.calls": (len(named(bits, first)), "count"),
        f"{bits}.busy_s": (busy(bits), "s"),
        "rng.samples_per_s": (_ratio(attr_sum(bits, "rows"), total(bits)), "1/s"),
        f"{batch}.calls": (len(named(batch, first)), "count"),
        f"{batch}.busy_s": (busy(batch), "s"),
        "instance.samples_per_s": (_ratio(attr_sum(batch, "rows"), total(batch)), "1/s"),
        "instance.constraint_evals": (attr_sum(batch, "evals", first), "count"),
        "instance.ns_per_constraint_eval": (_ratio(total(batch), attr_sum(batch, "evals")) * 1e9, "ns"),
        f"{bound}.calls": (len(named(bound, first)), "count"),
        f"{bound}.busy_s": (busy(bound), "s"),
        f"{bound}.records": (attr_sum(bound, "records", first), "count"),
        f"{solve}.busy_s": (busy(solve), "s"),
        "sampler.self_s": (self_s(solve), "s"),
        "sampler.samples": (attr_sum(solve, "samples", first), "count"),
        "sampler.budget_over_space": (
            math.ldexp(solves[0].attrs["budget"], -solves[0].attrs["num_vars"]) if solves else 0.0,
            "ratio",
        ),
        "sampler.best_index_frac": (_median(best_fracs), "ratio"),
        "sampler.samples_per_s_par": (rates.get("samples_per_s_par", 0.0), "1/s"),
        "sampler.guarantee_miss_rate": (rates.get("guarantee_miss_rate", 0.0), "ratio"),
        f"{weights}.busy_s": (busy(weights), "s"),
        "oracle.assignments_per_s": (_ratio(attr_sum(verify, "assignments"), total(weights)), "1/s"),
        "oracle.verify.replay_s": (self_s(verify), "s"),
        "oracle.members_checked": (attr_sum(verify, "members", first), "count"),
        "oracle.verify_assignments_per_s": (rates.get("verify_assignments_per_s", 0.0), "1/s"),
        "formats.parse.busy_s": (parse_s, "s"),
        "formats.parse_mb_per_s": (_ratio(sum(s.attrs["bytes"] for s in parses), parse_s) / 1e6, "MB/s"),
        "cli.import_s": (_median(s["import_s"] for s in setup), "s"),
        "trace.overhead_frac": (_ratio(traced_wall, plain_wall) - 1.0, "ratio"),
    }
    return {k: _metric(v, unit) for k, (v, unit) in m.items()}


def main(argv=None) -> int:
    import_library()
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="maxcsp benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2^64)")

    result, info = run(args.workload, args.seed, args.seconds, args.trace)
    for e in info["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
