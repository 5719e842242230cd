"""Span recorder that wraps the library's public functions from outside.

Only a traced run installs it. Each wrapped call becomes a span with name,
start, end, parent span, thread id and a few attributes read from the call's
arguments or result. Spans stay in memory until the run writes them out.

A call on a worker thread that has no open span of its own gets the span
open on the main thread as parent: under ``parallelism > 1`` the main thread
is blocked inside ``solve`` while its pool scans, so worker spans hang under
that ``solve`` span.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    round: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows(args, result):
    return {"rows": int(result.shape[0])}


def _batch(args, result):
    inst, bits = args[0], args[1]
    rows = int(bits.shape[0])
    return {"rows": rows, "evals": rows * inst.num_constraints}


def _bound(args, result):
    return {"records": len(result.per_delta)}


def _solve(args, result):
    return {
        "samples": result.iterations_used,
        "budget": result.iterations_budget,
        "num_vars": args[0].num_vars,
    }


def _verify(args, result):
    return {
        "members": sum(c.sigma_count for c in result.per_delta_checks),
        "assignments": 1 << result.num_vars,
    }


def _parse(args, result):
    return {"bytes": len(args[0].encode())}


def _none(args, result):
    return {}


def patch_points(maxcsp):
    """(module, attribute, span name, attribute extractor) for every wrapped name.

    Each function is wrapped under the name its callers look up: the sampler
    finds its helpers in ``maxcsp.sampler``, the oracle in ``maxcsp.oracle``,
    and the benchmark itself calls through the package namespace.
    """
    s, o, f = maxcsp.sampler, maxcsp.oracle, maxcsp.formats
    return [
        (s, "assignment_bits", "rng.assignment_bits", _rows),
        (s, "weight_of_batch", "instance.weight_of_batch", _batch),
        (s, "counting_bound", "bounds.counting_bound", _bound),
        (maxcsp, "counting_bound", "bounds.counting_bound", _bound),
        (s, "solve", "sampler.solve", _solve),
        (maxcsp, "solve", "sampler.solve", _solve),
        (o, "assignment_weights", "oracle.assignment_weights", _none),
        (o, "brute_force_optimum", "oracle.brute_force_optimum", _none),
        (maxcsp, "verify_counting_bound", "oracle.verify", _verify),
        (f, "parse", "formats.parse", _parse),
        (maxcsp, "parse", "formats.parse", _parse),
    ]


class Tracer:
    """Records spans while installed; restores the original functions on exit."""

    def __init__(self, maxcsp):
        self._points = patch_points(maxcsp)
        self._originals = [getattr(mod, attr) for mod, attr, _, _ in self._points]
        self._main = threading.main_thread().ident
        self._stacks: dict[int, list[int]] = {}
        self._lock = threading.Lock()
        self._next = 0
        self.spans: list[Span] = []
        self.round = -1

    def __enter__(self):
        for (mod, attr, name, extract), orig in zip(self._points, self._originals):
            setattr(mod, attr, self._wrap(orig, name, extract))
        return self

    def __exit__(self, *exc):
        for (mod, attr, _, _), orig in zip(self._points, self._originals):
            setattr(mod, attr, orig)
        return False

    def _wrap(self, fn, name, extract):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            with self._lock:
                sid = self._next
                self._next += 1
                stack = self._stacks.setdefault(tid, [])
                if stack:
                    parent = stack[-1]
                else:
                    main = self._stacks.get(self._main)
                    parent = main[-1] if main and tid != self._main else None
                stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                with self._lock:
                    stack.pop()
            span = Span(sid, name, start, end, parent, tid, self.round, extract(args, result))
            with self._lock:
                self.spans.append(span)
            return result

        return traced

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: s.sid):
                out.write(json.dumps(s.__dict__) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of its interval that its children cover."""
    covered = 0.0
    lo = hi = None
    for c in sorted(children, key=lambda c: c.start):
        a, b = max(c.start, span.start), min(c.end, span.end)
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                covered += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        covered += hi - lo
    return span.duration - covered
