"""Brute-force ground truth for desk-scale instances.

Enumerates all 2^n assignments in chunks through the same vectorized
kernel the sampler uses (``instance.weight_of_lanes``, behind
``weight_of_batch``), so the weight table is bit-identical to the scalar
``weight_of`` of every assignment, integral weights or not. No table is
cached: each call enumerates afresh. A chunk's lanes are built in closed
form by ``rng.enumeration_lanes``, with no bit matrix in between.

Counted weights (``CspInstance.counted_weights``: integers of total at most
2**53, as in unit MAX-kSAT) stay exact integers end to end. Their table
has the smallest unsigned dtype that holds the total weight (uint8 for
unit clauses with m <= 255, an eighth of a float64 table), filled with the
kernel's integer counts (``instance._lane_counts``) without a float in
between, and the optimum and the near-optimal threshold are compared in
that dtype. An integer table wraps around on overflow, so cast it before
arithmetic that could leave its range. The table is built from cofactors
(``CspInstance._cofactors``). The constraints over x1..x(n-2) weigh the
same in each quarter of the table, so their table, built the same way, is
copied into all four. In each quarter x(n-1) and x(n) are fixed, so every
other constraint there is a smaller constraint over x1..x(n-2), which
that quarter's table adds by the same construction, or a constant weight,
or nothing. Each constraint is thus evaluated only on the rows where the
top variables leave it open: about 11% of m*2^n constraint-rows for unit
E3-CNF at n=20. The split recurses while a quarter holds at least a chunk.
Every partial sum is the integer weight of a subset of the constraints,
exact in any order and within the dtype, so the table is the one a single
pass gives. The instance keeps its cofactors, and they keep their own, so
a repeated table reuses their plans. Real weights, and integer totals
above 2**53, keep a float64 table and the single pass in constraint order,
because their float sums depend on it.

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
from .instance import Assignment, CspInstance, _lane_counts, _release_scratch, weight_of_lanes
from .rng import enumeration_lanes

ORACLE_CAP = 24
# a multiple of 64, so every chunk starts at a lane-word boundary
_CHUNK = 1 << 16


def assignment_weights(inst: CspInstance, cap: int = ORACLE_CAP) -> np.ndarray:
    """Weight of every assignment, indexed by the packed bit value.

    Counted weights (``CspInstance.counted_weights``) give exact integers in
    the smallest unsigned dtype that holds the total weight: uint8 for unit
    clauses with m <= 255. Any other weights give float64. Either way every
    entry equals ``weight_of`` of its assignment. An integer table wraps
    around on overflow, so cast it (``astype``) before arithmetic that could
    leave its range, such as a difference.
    """
    n = inst.num_vars
    if n > _integer("cap", cap):
        raise SizeError(f"{n} variables exceed the enumeration cap {cap}")
    dtype = np.min_scalar_type(int(inst.total_weight)) if inst.counted_weights else np.float64
    try:
        out = np.empty(1 << n, dtype=dtype)
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


def _fill_table(inst: CspInstance, out: np.ndarray, add: bool = False) -> None:
    """Write, or with ``add`` add, the weight of every assignment of ``inst`` into ``out``.

    Counted weights are built from cofactors (``CspInstance._cofactors``)
    while a quarter of the table holds at least a chunk: the inner
    constraints' table goes into every quarter, and each quarter adds its
    constant and its fixed constraints' table. Every partial sum is the
    weight of a subset of the constraints, at most the total weight, so
    none overflows the table's dtype.
    """
    n = inst.num_vars
    counted = inst.counted_weights
    if not counted or len(out) < 4 * _CHUNK:
        for start in range(0, len(out), _CHUNK):
            chunk = out[start : start + _CHUNK]
            lanes = enumeration_lanes(start, len(chunk), n)
            if not counted:
                weight_of_lanes(inst, lanes, len(chunk), out=chunk)
            elif add:
                chunk += _lane_counts(inst, lanes, len(chunk))
            else:
                chunk[...] = _lane_counts(inst, lanes, len(chunk))
        return
    inner, cofactors = inst._cofactors
    quarters = out.reshape(4, -1)
    if not add:
        if inner is None:
            quarters[0] = 0
        else:
            _fill_table(inner, quarters[0])
        quarters[1:] = quarters[0]
    elif inner is not None:
        part = np.empty_like(quarters[0])
        _fill_table(inner, part)
        quarters += part
    for quarter, (fixed, constant) in zip(quarters, cofactors):
        if constant:
            quarter += constant
        if fixed is not None:
            _fill_table(fixed, quarter, add=True)


def _threshold_tolerance(inst: CspInstance) -> float:
    # integral weights evaluate exactly; real weights get slack for the
    # rounding of m sequential additions, relative to the weight scale
    if inst.integer_weights:
        return 0.0
    return inst.num_constraints * math.ulp(inst.total_weight)


def _near_optimal(inst: CspInstance, weights: np.ndarray, w_star: float, epsilon: float) -> np.ndarray:
    """Which assignments weigh at least w* - epsilon*w, less the rounding tolerance."""
    threshold = w_star - epsilon * inst.total_weight - _threshold_tolerance(inst)
    if weights.dtype.kind == "u":
        # an integer weighs at least t exactly when it weighs at least ceil(t),
        # which lies in 0..w*, so the comparison stays in the table's dtype
        threshold = max(0, math.ceil(threshold))
    return weights >= threshold


def _optimum(weights: np.ndarray, n: int) -> tuple[float, int]:
    """Maximum of a weight table and the packed index of its lexicographically smallest maximizer."""
    top = weights.max()
    candidates = np.flatnonzero(weights == top)
    # x1 is bit 0: from x1 upward, keep the maximizers with the bit clear if any has it
    for f in range(n):
        if len(candidates) == 1:
            break
        clear = candidates[(candidates >> f) & 1 == 0]
        if len(clear):
            candidates = clear
    return float(top), int(candidates[0])


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
