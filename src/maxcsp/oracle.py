"""Brute-force ground truth for desk-scale instances.

Enumerates all 2^n assignments in chunks through the same vectorized
kernel the sampler uses (``instance.weight_of_lanes``, behind
``weight_of_batch``), so the weight table is bit-identical to the scalar
``weight_of`` of every assignment, integral weights or not. No table is
cached: each call enumerates afresh. A chunk's lanes are built in closed
form by ``rng.enumeration_lanes``, with no bit matrix in between.

Counted weights (``CspInstance.counted_weights``: integers of total at most
2**53, as in unit MAX-kSAT) build the table from prefix tables. A
constraint over x1..x(n-2) weighs the same in each quarter of the table, so
those constraints fill the first quarter, by the same construction, and
the quarter is copied into the other three; only the constraints touching
x(n-1) or x(n) are evaluated on all 2^n rows, one chunk at a time into one
reused chunk buffer, and added. Every partial sum is an integer of at most
2**53, hence exact in any order, so the table is the one a single pass
gives. The split stops when a quarter is smaller than a chunk or either
side has no constraint; the instance keeps its two sides
(``CspInstance._top_split``), so a repeated table reuses their plans. Real
weights, and integer totals above 2**53, keep the single pass in
constraint order, because their float sums depend on it.

On top of the exact weight table this module checks, constant-free, the
records of ``counting_bound`` itself: for every threshold it evaluates,
the number of assignments within additive slack eps*w of the optimum is
at least sum_{i<=r} C(|S|,i), the record's |S| is the size of the set it
rebuilds, and every member of the constructed flip set actually meets the
threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .bounds import (
    _check_epsilon,
    _seed,
    binomial_sum,
    counting_bound,
    entropy_scaling_gap,
)
from .errors import DomainError, SizeError, _integer
from .instance import Assignment, CspInstance, _release_scratch, weight_of_lanes
from .rng import enumeration_lanes

ORACLE_CAP = 24
# a multiple of 64, so every chunk starts at a lane-word boundary
_CHUNK = 1 << 16


def assignment_weights(inst: CspInstance, cap: int = ORACLE_CAP) -> np.ndarray:
    """Weight of every assignment, indexed by the packed bit value."""
    n = inst.num_vars
    if n > _integer("cap", cap):
        raise SizeError(f"{n} variables exceed the enumeration cap {cap}")
    size = 1 << n
    try:
        out = np.empty(size, dtype=np.float64)
    except (MemoryError, ValueError) as exc:
        # numpy raises MemoryError when the host refuses the table, and
        # ValueError when its byte size does not fit in an address
        raise SizeError(f"no memory for the 2^{n}-entry weight table: {exc}") from exc
    _fill_table(inst, out)
    # the table is built from few, large chunks, so keeping their kernel
    # arrays (about 1 MB at 65,536 rows) for the next call would save little
    # and would add to the peak of the work the caller does with the table
    _release_scratch()
    return out


def _fill_table(inst: CspInstance, out: np.ndarray) -> None:
    """Write the weight of every assignment of ``inst`` into ``out``, from prefix tables where counted."""
    n = inst.num_vars
    split = inst._top_split if inst.counted_weights and len(out) >= 4 * _CHUNK else None
    if split is None:
        for start in range(0, len(out), _CHUNK):
            count = min(_CHUNK, len(out) - start)
            lanes = enumeration_lanes(start, count, n)
            weight_of_lanes(inst, lanes, count, out=out[start : start + count])
        return
    inner, outer = split
    quarters = out.reshape(4, -1)
    _fill_table(inner, quarters[0])
    quarters[1:] = quarters[0]
    term = np.empty(_CHUNK)
    for start in range(0, len(out), _CHUNK):
        weight_of_lanes(outer, enumeration_lanes(start, _CHUNK, n), _CHUNK, out=term)
        out[start : start + _CHUNK] += term


def _threshold_tolerance(inst: CspInstance) -> float:
    # integral weights evaluate exactly; real weights get slack for the
    # rounding of m sequential additions, relative to the weight scale
    if inst.integer_weights:
        return 0.0
    return inst.num_constraints * math.ulp(inst.total_weight)


def _near_optimal(inst: CspInstance, weights: np.ndarray, w_star: float, epsilon: float) -> np.ndarray:
    """Which assignments weigh at least w* - epsilon*w, less the rounding tolerance."""
    return weights >= w_star - epsilon * inst.total_weight - _threshold_tolerance(inst)


def _optimum(weights: np.ndarray, n: int) -> tuple[float, int]:
    """Maximum of a weight table and the packed index of its lexicographically smallest maximizer."""
    w_star = float(weights.max())
    candidates = np.flatnonzero(weights == w_star).astype(np.int64)
    big_endian = np.zeros(len(candidates), dtype=np.int64)
    for f in range(n):
        big_endian |= ((candidates >> f) & 1) << (n - 1 - f)
    return w_star, int(candidates[int(np.argmin(big_endian))])


def brute_force_optimum(inst: CspInstance, cap: int = ORACLE_CAP) -> tuple[float, Assignment]:
    """Exact maximum weight and its lexicographically smallest maximizer."""
    w_star, z = _optimum(assignment_weights(inst, cap), inst.num_vars)
    return w_star, Assignment.from_int(z, inst.num_vars)


def count_near_optimal(inst: CspInstance, epsilon: float, cap: int = ORACLE_CAP) -> int:
    """Exact number of assignments with weight >= w* - eps*w."""
    epsilon = _check_epsilon(epsilon)
    weights = assignment_weights(inst, cap)
    return int(np.count_nonzero(_near_optimal(inst, weights, float(weights.max()), epsilon)))


@dataclass(frozen=True)
class DeltaCheck:
    delta: float
    threshold: float
    s_size: int
    r: int
    sigma_count: int
    count_ok: bool
    members_ok: bool


@dataclass(frozen=True)
class VerificationReport:
    num_vars: int
    num_constraints: int
    epsilon: float
    effective_epsilon: float
    w_star: float
    d_exact: int
    per_delta_checks: tuple[DeltaCheck, ...]
    all_pass: bool


def verify_counting_bound(
    inst: CspInstance,
    epsilon: float,
    w_bar: float | None = None,
    cap: int = ORACLE_CAP,
) -> VerificationReport:
    """Check d_exact >= sum_{i<=r} C(|S|,i) for every record of ``counting_bound``.

    Also replays the constructive argument: every assignment obtained from
    the brute-force maximizer by flipping at most r variables of S must
    itself meet the additive threshold.
    """
    cb = counting_bound(inst, epsilon, w_bar)
    n = inst.num_vars
    weights = assignment_weights(inst, cap)
    w_star, z0 = _optimum(weights, n)
    near = _near_optimal(inst, weights, w_star, cb.effective_epsilon)
    d_exact = int(np.count_nonzero(near))

    checks = []
    for rec in cb.per_delta:
        masks = [1 << f for f in range(n) if inst.contributions[f] <= rec.threshold]
        members = [z0 ^ sum(c) for size in range(rec.r + 1) for c in combinations(masks, size)]
        sigma = binomial_sum(rec.s_size, rec.r)
        # sigma counts the record's |S|, so it must be the set the replay flips
        members_ok = len(masks) == rec.s_size and bool(near[np.array(members, dtype=np.int64)].all())
        checks.append(
            DeltaCheck(
                delta=rec.delta,
                threshold=rec.threshold,
                s_size=rec.s_size,
                r=rec.r,
                sigma_count=sigma,
                count_ok=d_exact >= sigma,
                members_ok=members_ok,
            )
        )

    return VerificationReport(
        num_vars=n,
        num_constraints=inst.num_constraints,
        epsilon=cb.epsilon,
        effective_epsilon=cb.effective_epsilon,
        w_star=w_star,
        d_exact=d_exact,
        per_delta_checks=tuple(checks),
        all_pass=all(c.count_ok and c.members_ok for c in checks),
    )


@dataclass(frozen=True)
class EntropyScalingReport:
    samples: int
    seed: int
    min_gap: float
    worst_triple: tuple[float, float, float]
    passed: bool


def verify_entropy_scaling(samples: int, seed: int = 0) -> EntropyScalingReport:
    """Randomized sweep of the entropy scaling inequality.

    Draws valid (x, y, r) triples and returns the worst entropy_scaling_gap; pass
    means the minimum never drops below -1e-12.
    """
    samples, seed = _integer("samples", samples), _seed(seed)
    if samples < 1:
        raise DomainError("need at least one sample")
    rng = np.random.default_rng(seed)
    ys = rng.uniform(1e-6, 50.0, samples)
    xs = ys + rng.uniform(0.0, 50.0, samples)
    rs = rng.uniform(0.0, 1.0, samples) * ys
    min_gap = math.inf
    worst = (float(xs[0]), float(ys[0]), float(rs[0]))
    for x, y, r in zip(xs, ys, rs):
        gap = entropy_scaling_gap(float(x), float(y), float(r))
        if gap < min_gap:
            min_gap = gap
            worst = (float(x), float(y), float(r))
    return EntropyScalingReport(
        samples=samples, seed=seed, min_gap=min_gap, worst_triple=worst,
        passed=min_gap >= -1e-12,
    )
