"""Uniform-sampling maximizer with a counting-bound-derived iteration budget.

The solver draws assignments uniformly at random and keeps the heaviest.
At least 2**log2_count of the 2**n assignments land within additive slack
eps_eff * w of the optimum (a constructive count, no hidden constants), so
T = ceil(ln(1/fail_prob) * 2**(n - log2_count)) independent samples miss
that set with probability at most fail_prob.

Sample i's bits are a pure function of (seed, i) - see ``rng`` - so the
index space can be split any way with no coordination, and results are
identical for every parallelism degree. ``solve`` cuts it into equal chunks
of a multiple of 64 samples, so every chunk starts on a block of lane words
(``rng``); only the last chunk is partial. A chunk's (rows, n) uint8 bit
matrix fits in 2**24 bytes, with rows clamped to [64, 65,536] (65,536 up to
n = 256, 16,768 at n = 1000), so the working set stays bounded as n grows. A
budget smaller than one such chunk per worker is shared out evenly instead.

A chunk needs only its strict prefix maxima, not every weight. Counted
weights (``CspInstance.counted_weights``) are counted exactly and scanned
as they are. Any other weights are counted exactly in the units of their
quantization (``CspInstance._quantized``): row x has a count Q(x), and a
row whose Q plus the quantization's ``slack`` does not exceed an earlier
row's Q weighs no more than that row, so it cannot be a strict prefix
maximum. Only the other rows, the candidates, are evaluated in float. Their
exact weights give the same events, bit for bit. The quantum u keeps the
slack near the spread of the sample weights (``_quantum_exponent``), and a
chunk whose candidates are more than an eighth of it is evaluated wholly in
float, as are the chunks that start after it.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import _check_epsilon, _check_w_bar, _seed, counting_bound
from .errors import BudgetOverflowError, DomainError, UnsupportedError, _integer, _real
from .instance import (
    Assignment,
    CspInstance,
    clause_length_histogram,
    ksat_optimum_lower_bound,
    weight_of_batch,
)
from .rng import assignment_bits

# bytes of a chunk's bit matrix (rows * num_vars), which bounds a worker's
# working set at any n; a chunk also holds at most 1024 blocks of 64 samples
_CHUNK_BYTES = 1 << 24

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of one solve run.

    ``w_bar``: known lower bound on the optimum weight; when given, the
    additive slack is tightened to eps*w_bar, which converts the guarantee
    to best_weight >= (1-eps)*optimum.
    """

    epsilon: float
    w_bar: float | None = None
    fail_prob: float = 1e-3
    seed: int = 0
    max_iterations: int | None = None
    parallelism: int = 1

    def __post_init__(self):
        # the checked fields hold plain floats and ints, whatever numeric type the caller passed
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))
        fail_prob = _real("fail_prob", self.fail_prob)
        if not 0.0 < fail_prob < 1.0:
            raise DomainError(f"fail_prob {fail_prob} outside (0, 1)")
        object.__setattr__(self, "fail_prob", fail_prob)
        if self.w_bar is not None:
            # the total weight w is not known yet
            object.__setattr__(self, "w_bar", _check_w_bar(self.w_bar, math.inf))
        object.__setattr__(self, "seed", _seed(self.seed))
        if self.max_iterations is not None:
            cap = _integer("max_iterations", self.max_iterations)
            object.__setattr__(self, "max_iterations", cap)
            if cap < 1:
                raise DomainError("max_iterations must be positive")
        object.__setattr__(self, "parallelism", _integer("parallelism", self.parallelism))
        if self.parallelism < 1:
            raise DomainError("parallelism must be positive")


@dataclass(frozen=True)
class SamplerResult:
    best_assignment: Assignment
    best_weight: float
    iterations_used: int
    iterations_budget: int
    target_kind: str
    seed: int
    effective_epsilon: float
    log2_count: float
    achieved_fail_prob: float
    clamped: bool


def _budget(num_vars: int, log2_count: float, cfg: SamplerConfig) -> tuple[int, bool]:
    """Iteration count, and whether the max_iterations cap clamped it."""
    lam = -math.log(cfg.fail_prob)
    log2_t = math.log2(lam) + (num_vars - log2_count)
    if log2_t >= 63.0:
        if cfg.max_iterations is None:
            raise BudgetOverflowError(
                f"iteration budget 2^{log2_t:.1f} exceeds 2^63; set max_iterations to cap the run"
            )
        return cfg.max_iterations, True
    t = max(1, math.ceil(lam * 2.0 ** (num_vars - log2_count)))
    if cfg.max_iterations is not None and t > cfg.max_iterations:
        return cfg.max_iterations, True
    return t, False


def iteration_budget(inst: CspInstance, cfg: SamplerConfig) -> int:
    """T = ceil(ln(1/fail_prob) * 2**(n - log2_count)), clamped to any cap."""
    cb = counting_bound(inst, cfg.epsilon, cfg.w_bar)
    return _budget(inst.num_vars, cb.log2_count, cfg)[0]


def _quantum_exponent(inst: CspInstance) -> int:
    """log2 of the sampler's quantum u: the largest power of two with m*u/2 <= sigma.

    sigma**2 = sum_c w_c**2 * p_c * (1 - p_c), with p_c the share of the
    rows of c's table that satisfy it, is the variance of a uniform sample's
    weight were the constraints independent. Flooring takes about u/2 off
    each weight, so m*u/2 is about the slack in weight, which this keeps
    near one sigma of the sample weights as m, the clause lengths and the
    weights vary. An instance of constant constraints (sigma 0) weighs the
    same on every row, so any u serves it.
    """
    mean = inst.total_weight / inst.num_constraints
    variance = 0.0
    for c in inst.constraints:
        p = c.truth_table.bit_count() / (1 << c.arity)
        variance += (c.weight / mean) ** 2 * p * (1 - p)
    return math.frexp(2 * mean * math.sqrt(variance) / inst.num_constraints)[1] - 1


def _scan_chunk(
    inst: CspInstance, route: list[tuple[CspInstance, int]], seed: int, start: int, count: int
) -> list[tuple[int, float]]:
    """Strict prefix maxima (index, weight) of samples [start, start + count), in index order.

    ``route[0]`` is (counted, slack): ``inst``'s quantization
    (``CspInstance._quantized``) and its ``slack``, or ``inst`` itself and
    0, whose count is the weight. A row can rise above every earlier row
    only if its count plus the slack does, so only those rows are evaluated
    in float. If they are more than an eighth of the chunk, every row is,
    and the chunks that start later count with ``inst`` itself.
    """
    counted, slack = route[0]
    bits = assignment_bits(seed, start, count, inst.num_vars)
    weights = weight_of_batch(counted, bits)
    if counted is not inst:
        rows = _candidates(weights, slack)
        if 8 * len(rows) > count:
            # a copy of more than an eighth of the chunk's bits would add more
            # memory than the kernel's lanes of all of them, and time, so every
            # row is evaluated, the row list and counts freed first; a chunk
            # like this is likely followed by more, so they skip the count
            del rows, weights
            weights = weight_of_batch(inst, bits)
            route[0] = (inst, 0)
        else:
            weights.fill(-math.inf)
            # the rows of a Fortran-order matrix are gathered fastest as columns of its transpose
            weights[rows] = weight_of_batch(inst, bits.T.take(rows, axis=1).T)
    # freed before the scan allocates: held through it, the bits made a
    # desk-scale solve grow and trim the heap on every call (112 minor faults)
    del bits
    # a row rises above every earlier row only inside a 64-row block whose
    # maximum rises above every earlier block's, so only those blocks are scanned
    peaks, floors = _block_peaks(weights)
    events = []
    for b in np.flatnonzero(peaks > floors).tolist():
        best = float(floors[b])
        for i, w in enumerate(weights[64 * b : 64 * b + 64].tolist(), start + 64 * b):
            if w > best:
                events.append((i, w))
                best = w
    return events


def _block_peaks(weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The maximum of each 64-row block, and the maximum of all blocks before it (-inf for the first)."""
    peaks = np.maximum.reduceat(weights, np.arange(0, len(weights), 64))
    return peaks, np.maximum.accumulate(np.concatenate(([-math.inf], peaks[:-1])))


def _candidates(counts: np.ndarray, slack: int) -> np.ndarray:
    """The rows whose count plus ``slack`` exceeds every earlier row's count, in order.

    Only the 64-row blocks whose peak plus ``slack`` exceeds every earlier
    block's peak can hold one; each row of those is compared with the larger
    of the earlier blocks' peak and the rows before it in its block.
    """
    peaks, floors = _block_peaks(counts)
    blocks = np.flatnonzero(peaks + slack > floors)
    rows = 64 * blocks[:, None] + np.arange(64)
    block = counts[np.minimum(rows, len(counts) - 1)]
    block[rows >= len(counts)] = -math.inf
    before = np.maximum.accumulate(np.column_stack((floors[blocks], block[:, :-1])), axis=1)
    return rows[block + slack > before]


def solve(
    inst: CspInstance,
    cfg: SamplerConfig,
    trace: Callable[[int, float], None] | None = None,
) -> SamplerResult:
    """Sample the budgeted number of assignments and return the heaviest.

    Deterministic in (instance, config): ties break toward the lowest
    iteration index, and the outcome does not depend on ``parallelism``.
    ``trace(index, weight)`` is invoked for every strict improvement of the
    best weight over all indices below it, in index order. It runs on the
    calling thread after the scan, and its events are identical at every
    ``parallelism``.
    """
    cb = counting_bound(inst, cfg.epsilon, cfg.w_bar)
    budget, clamped = _budget(inst.num_vars, cb.log2_count, cfg)

    # the result does not depend on the chunking; threads beyond the cores
    # would only wait. Chunks are whole 64-sample blocks: one per worker for
    # a small budget, at most _CHUNK_BYTES of bits for a large one.
    blocks = -(-budget // 64)
    workers = min(cfg.parallelism, blocks, os.cpu_count() or 1)
    cap = min(1024, max(1, _CHUNK_BYTES // (64 * inst.num_vars)))
    rows = 64 * min(-(-blocks // workers), cap)
    # what each chunk counts, and its slack; one chunk writes and the rest read it (_scan_chunk)
    if inst.counted_weights:
        route = [(inst, 0)]
    else:
        quantization = inst._quantized(_quantum_exponent(inst))
        route = [(quantization.inst, quantization.slack)]
    scan = lambda start: _scan_chunk(inst, route, cfg.seed, start, min(rows, budget - start))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(scan, range(0, budget, rows)))
    else:
        parts = [scan(start) for start in range(0, budget, rows)]

    best_i, best_w = -1, -math.inf
    for events in parts:
        for i, w in events:
            if w > best_w:
                best_i, best_w = i, w
                if trace is not None:
                    trace(i, w)

    bits = assignment_bits(cfg.seed, best_i, 1, inst.num_vars)[0]
    hit_rate = 2.0 ** (cb.log2_count - inst.num_vars)
    return SamplerResult(
        best_assignment=Assignment(tuple(bits.tolist())),
        best_weight=best_w,
        iterations_used=budget,
        iterations_budget=budget,
        target_kind=MULTIPLICATIVE if cfg.w_bar is not None else ADDITIVE,
        seed=cfg.seed,
        effective_epsilon=cb.effective_epsilon,
        log2_count=cb.log2_count,
        achieved_fail_prob=math.exp(-budget * hit_rate),
        clamped=clamped,
    )


def solve_ksat(
    inst: CspInstance,
    k: int,
    epsilon: float,
    fail_prob: float = 1e-3,
    seed: int = 0,
    max_iterations: int | None = None,
    parallelism: int = 1,
    trace: Callable[[int, float], None] | None = None,
) -> SamplerResult:
    """Solve unit-weight CNF with the clause-length guarantee built in.

    Uses w_bar = max(m/2, sum_i (2^i-1)/2^i * m_i) from the length
    histogram, so the result carries the multiplicative (1-eps) guarantee
    without the caller supplying a bound.
    """
    hist = clause_length_histogram(inst)
    if not all(c.weight == 1.0 for c in inst.constraints):
        raise UnsupportedError("the clause-length lower bound requires unit weights")
    if max(hist) > _integer("k", k):
        raise DomainError(f"instance has clauses of length {max(hist)} > k={k}")
    m = inst.num_constraints
    w_bar = max(m / 2.0, ksat_optimum_lower_bound(hist))
    cfg = SamplerConfig(
        epsilon=epsilon,
        w_bar=w_bar,
        fail_prob=fail_prob,
        seed=seed,
        max_iterations=max_iterations,
        parallelism=parallelism,
    )
    return solve(inst, cfg, trace=trace)
