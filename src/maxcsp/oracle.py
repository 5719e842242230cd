"""Brute-force ground truth for desk-scale instances.

Enumerates all 2^n assignments in chunks through the kernel's one entry,
``instance.weight_of_lanes``, which the sampler reaches through
``weight_of_batch``, so the weight table equals the scalar ``weight_of``
of every assignment, integral weights or not. No table is cached: each
call enumerates afresh. A chunk's lanes are built in closed form by
``rng.enumeration_lanes``, with no bit matrix in between.

Counted weights (``CspInstance.counted_weights``: integers of total at most
2**53, as in unit MAX-kSAT) stay exact integers end to end. Their table
has the kernel's dtype (``instance._weight_dtype``: uint8 for unit
clauses with m <= 255, an eighth of a float64 table), filled with the
kernel's integer counts without a float in between, and the optimum and
the near-optimal threshold are compared in
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
a repeated table reuses their plans. The chunks of every leaf of one split
share one set of lanes. Real weights, and integer totals above 2**53, get
a float64 table from ``assignment_weights`` in a single pass in constraint
order, because their float sums depend on it.

The optimum and the near-optimal counts do not read that float table. They
read the integer table of the instance's quantization
(``CspInstance._quantized``, at ``_QUANTUM_BITS`` of the average weight):
each weight floored to a multiple of a power of two u, in units of u, a
counted instance whose table is built as above. A row x with quantized
total Q(x) has a float weight F(x) = ``weight_of(x)`` with

    u*Q(x) - g <= F(x) <= u*Q(x) + R + g,

where R = W - u*Q_total < u*m is what the flooring took off all m weights
(W their exact sum) and g = gamma_{m-1}*W bounds the rounding of a float
sum of at most m positive terms in any order. Only the rows within the
quantization's ``slack`` of the largest Q can be maximizers, and its
``window`` decides by Q alone the rows on either side of the near-optimal
threshold; only the rest are evaluated, through ``weight_of_batch``, which
gives ``weight_of`` exactly. Ties, the lexicographic argmax and rows lying
exactly on the threshold are thus judged on the same floats as before.
Counted weights are the same code with u = 1 and slack 0: the table is the
weight and no row is evaluated again. Light weights that floor to 0 only
widen R, so an instance whose light constraints decide the count has most
rows evaluated, a chunk at a time.

What bounds a query is the bytes of its table, ``_TABLE_BYTES``, checked
before the table is allocated, not a variable count: the same limit takes
unit clauses to n = 28 and a float64 table to n = 25. Beside its table a
query holds O(chunk): rows that may be maximizers are reduced to their
winner once they pass a chunk, and the flip-set members are judged a chunk
at a time.

On top of these exact weights this module checks, constant-free, the
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
from typing import Iterator, NamedTuple

import numpy as np

from .bounds import (
    _check_epsilon,
    _seed,
    binomial_sum,
    counting_bound,
    entropy_scaling_gap,
)
from .errors import DomainError, SizeError, _integer
from .instance import Assignment, CspInstance, _Quantization, _weight_dtype, weight_of_batch, weight_of_lanes
from .rng import enumeration_lanes, unpack_bits

# the most bytes a 2^n-row table may take: a uint8 table (unit clauses,
# m <= 255) reaches n=28, a uint16 one (the bound table of most real
# weights) n=27 and a float64 one n=25. At the limit a verify of
# random_ekcnf(28, 119, 3) or random_wcnf(27, 90, 3) peaks at 314 MB RSS in
# 0.25 and 0.38 s, and a float64 table of random_wcnf(25, 83, 3) at 295 MB
# in 2.1 s (2 cores, Python 3.11, numpy 2.4)
_TABLE_BYTES = 1 << 28
# bits of the average weight of a real-weight instance in the units of its
# quantization (``CspInstance._quantized``). Fewer bits make the integer
# table cheaper and leave more rows to evaluate in float: on the
# oracle_verify WCNF shape (n=18, m=60, eps 0.05; 2 cores, medians over 6
# instances) a warm counting_bound plus verify took 3.7, 3.1, 3.5, 3.6, 4.2
# and 5.3 ms at 3, 4, 5, 6, 8 and 12 bits, and at n=20, m=66 7.3, 6.9 and
# 7.1 ms at 3, 4 and 5
_QUANTUM_BITS = 4
# a multiple of 64, so every chunk starts at a lane-word boundary
_CHUNK = 1 << 16


def assignment_weights(inst: CspInstance) -> np.ndarray:
    """Weight of every assignment, indexed by the packed bit value.

    The dtype is the kernel's (``instance._weight_dtype``): exact unsigned
    integers for counted weights (``CspInstance.counted_weights``), float64
    for any others. Either way every entry equals ``weight_of`` of its
    assignment. An integer table wraps around on overflow, so cast it
    (``astype``) before arithmetic that could leave its range.
    """
    n, dtype = inst.num_vars, _weight_dtype(inst)
    size = dtype.itemsize << n
    if size > _TABLE_BYTES:
        raise SizeError(f"the 2^{n}-entry {dtype} weight table takes {size} bytes, over the limit of {_TABLE_BYTES}")
    try:
        out = np.empty(1 << n, dtype=dtype)
    except MemoryError as exc:
        # numpy raises MemoryError when the host refuses the table
        raise SizeError(f"no memory for the 2^{n}-entry weight table: {exc}") from exc
    _fill_table(inst, out, lanes=_leaf_lanes(inst))
    return out


def _leaf_lanes(inst: CspInstance) -> tuple[np.ndarray, ...] | None:
    """Read-only lanes of each chunk of the leaf tables of a cofactor split, or None.

    Every leaf of a counted table's split has the same size, and a leaf of
    k variables holds the values 0..2^k - 1, so all leaves share these lanes.
    A table that is not split is its own leaf and builds each chunk's lanes
    as it goes, since it reads each of them once.
    """
    n = inst.num_vars
    if not inst.counted_weights or 1 << n < 4 * _CHUNK:
        return None
    while 1 << n >= 4 * _CHUNK:
        n -= 2
    lanes = tuple(enumeration_lanes(start, min(_CHUNK, 1 << n), n) for start in range(0, 1 << n, _CHUNK))
    for chunk in lanes:
        chunk.flags.writeable = False
    return lanes


def _fill_table(
    inst: CspInstance, out: np.ndarray, add: bool = False, lanes: tuple[np.ndarray, ...] | None = None
) -> None:
    """Write, or with ``add`` add, the weight of every assignment of ``inst`` into ``out``.

    Counted weights are built from cofactors (``CspInstance._cofactors``)
    while a quarter of the table holds at least a chunk: the inner
    constraints' table goes into every quarter, and each quarter adds its
    constant and its fixed constraints' table. Every partial sum is the
    weight of a subset of the constraints, at most the total weight, so
    none overflows the table's dtype. ``lanes`` are the leaves' chunk lanes
    (``_leaf_lanes``).
    """
    n = inst.num_vars
    if not inst.counted_weights or len(out) < 4 * _CHUNK:
        for i, start in enumerate(range(0, len(out), _CHUNK)):
            chunk = out[start : start + _CHUNK]
            chunk_lanes = enumeration_lanes(start, len(chunk), n) if lanes is None else lanes[i]
            weights = weight_of_lanes(inst, chunk_lanes, len(chunk))
            if add:
                chunk += weights
            else:
                chunk[...] = weights
        return
    inner, cofactors = inst._cofactors
    quarters = out.reshape(4, -1)
    if not add:
        if inner is None:
            quarters[0] = 0
        else:
            _fill_table(inner, quarters[0], lanes=lanes)
        quarters[1:] = quarters[0]
    elif inner is not None:
        part = np.empty_like(quarters[0])
        _fill_table(inner, part, lanes=lanes)
        quarters += part
    for quarter, (fixed, constant) in zip(quarters, cofactors):
        if constant:
            quarter += constant
        if fixed is not None:
            _fill_table(fixed, quarter, add=True, lanes=lanes)


def _threshold_tolerance(inst: CspInstance) -> float:
    # integral weights evaluate exactly; real weights get slack for the
    # rounding of m sequential additions, relative to the weight scale
    if inst.integer_weights:
        return 0.0
    return inst.num_constraints * math.ulp(inst.total_weight)


def _threshold(inst: CspInstance, w_star: float, epsilon: float) -> float:
    """The least weight of a near-optimal assignment: w* - epsilon*w, less the rounding tolerance."""
    return w_star - epsilon * inst.total_weight - _threshold_tolerance(inst)


class _Bounds(NamedTuple):
    """An integer table that brackets the float weight of every assignment.

    ``table`` is ``assignment_weights`` of ``quantization.inst``
    (``CspInstance._quantized``): row x holds Q(x), the total in units of
    u = 2**e of the floored weights of the constraints x satisfies.
    """

    inst: CspInstance
    quantization: _Quantization
    table: np.ndarray


def _quantum_exponent(inst: CspInstance) -> int:
    """log2 of the oracle's quantum u: the average weight is 2**_QUANTUM_BITS to twice that many units."""
    return math.frexp(inst.total_weight / inst.num_constraints)[1] - 1 - _QUANTUM_BITS


def _bounds(inst: CspInstance) -> _Bounds:
    """The bound table of ``inst``: the counted table of its quantization (``CspInstance._quantized``)."""
    quantization = inst._quantized(_quantum_exponent(inst))
    return _Bounds(inst, quantization, assignment_weights(quantization.inst))


def _weights(bounds: _Bounds, rows: np.ndarray) -> np.ndarray:
    """``weight_of`` of the given packed rows, exact: from the table where the slack is 0."""
    if bounds.quantization.slack == 0:
        return np.ldexp(bounds.table[rows].astype(np.float64), bounds.quantization.e)
    bits = unpack_bits(rows.astype(np.uint64)[:, None], bounds.inst.num_vars)
    return weight_of_batch(bounds.inst, bits.view(bool))


def _optimum(weights: np.ndarray, n: int, rows: np.ndarray) -> tuple[float, int]:
    """Maximum of ``weights`` and the packed index of its lexicographically smallest maximizer.

    ``weights[i]`` is the weight of packed row ``rows[i]``.
    """
    top = weights.max()
    candidates = rows[weights == top]
    # x1 is bit 0: from x1 upward, keep the maximizers with the bit clear if any has it
    for f in range(n):
        if len(candidates) == 1:
            break
        clear = candidates[(candidates >> f) & 1 == 0]
        if len(clear):
            candidates = clear
    return float(top), int(candidates[0])


def _bound_optimum(bounds: _Bounds) -> tuple[float, int]:
    """w* and its lexicographically smallest maximizer, from the rows that may reach it.

    A row whose Q plus the slack is below Q_max weighs less than the row
    of Q_max (``_Quantization``), so only the rows with Q >= Q_max - slack
    are evaluated. Once the held rows pass a chunk they are reduced to
    their winner, which is the winner of the rows it stands for, so rows
    that fit in a chunk are evaluated in one call and no more than two
    chunks of rows are ever held.
    """
    table, n = bounds.table, bounds.inst.num_vars
    cut = int(table.max()) - bounds.quantization.slack
    held: list[np.ndarray] = []
    count = 0
    for start in range(0, len(table), _CHUNK):
        held.append(start + np.flatnonzero(table[start : start + _CHUNK] >= cut))
        count += len(held[-1])
        if count > _CHUNK:
            rows = np.concatenate(held)
            held, count = [np.array([_optimum(_weights(bounds, rows), n, rows)[1]])], 1
    rows = np.concatenate(held)
    return _optimum(_weights(bounds, rows), n, rows)


class _Near(NamedTuple):
    """Which rows weigh at least ``threshold``: all with Q >= ``sure``, none with Q < ``maybe``.

    The rows with ``maybe`` <= Q < ``sure`` are decided by their exact weight.
    """

    threshold: float
    maybe: int
    sure: int


def _near(bounds: _Bounds, threshold: float) -> _Near:
    """The rows that weigh at least ``threshold``, in terms of Q (``_Quantization.window``)."""
    return _Near(threshold, *bounds.quantization.window(threshold))


def _count_near(bounds: _Bounds, near: _Near) -> int:
    """The number of near-optimal rows, evaluating only those the table cannot decide."""
    count = 0
    for start in range(0, len(bounds.table), _CHUNK):
        part = bounds.table[start : start + _CHUNK]
        count += int(np.count_nonzero(part >= near.sure))
        if near.maybe < near.sure:
            rows = start + np.flatnonzero((part >= near.maybe) & (part < near.sure))
            if len(rows):
                count += int(np.count_nonzero(_weights(bounds, rows) >= near.threshold))
    return count


def _is_near(bounds: _Bounds, near: _Near, rows: np.ndarray) -> np.ndarray:
    """Whether each of the given packed rows is near-optimal."""
    q = bounds.table[rows]
    inside = q >= near.sure
    undecided = ~inside & (q >= near.maybe)
    if undecided.any():
        inside[undecided] = _weights(bounds, rows[undecided]) >= near.threshold
    return inside


def _flips(z0: int, masks: list[int], r: int) -> Iterator[np.ndarray]:
    """Batches of at most ``_CHUNK`` packed rows: z0 with each set of at most r of the one-bit ``masks`` flipped.

    A set is its parts in the two halves of ``masks``, of at most 2**14
    subsets each while n <= 28. A batch is the outer XOR of a slice of the
    first half's subsets against all of the second's, kept where the two
    sizes add up to at most r.
    """
    # the sums of each half's subsets of size at most r, and their sizes
    low, high = (
        np.array([(sum(c), a) for a in range(r + 1) for c in combinations(part, a)], np.int64).T
        for part in (masks[: len(masks) // 2], masks[len(masks) // 2 :])
    )
    step = max(1, _CHUNK // high.shape[1])
    for start in range(0, low.shape[1], step):
        part = low[:, start : start + step, None]
        yield (part[0] ^ high[0] ^ z0)[part[1] + high[1] <= r]


def brute_force_optimum(inst: CspInstance) -> tuple[float, Assignment]:
    """Exact maximum weight and its lexicographically smallest maximizer."""
    w_star, z = _bound_optimum(_bounds(inst))
    return w_star, Assignment.from_int(z, inst.num_vars)


def count_near_optimal(inst: CspInstance, epsilon: float) -> int:
    """Exact number of assignments with weight >= w* - eps*w."""
    epsilon = _check_epsilon(epsilon)
    bounds = _bounds(inst)
    w_star, _ = _bound_optimum(bounds)
    return _count_near(bounds, _near(bounds, _threshold(inst, w_star, epsilon)))


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


def verify_counting_bound(inst: CspInstance, epsilon: float, w_bar: float | None = None) -> VerificationReport:
    """Check d_exact >= sum_{i<=r} C(|S|,i) for every record of ``counting_bound``.

    Also replays the constructive argument: every assignment obtained from
    the brute-force maximizer by flipping at most r variables of S must
    itself meet the additive threshold, checked a chunk of them at a time.
    """
    cb = counting_bound(inst, epsilon, w_bar)
    n = inst.num_vars
    bounds = _bounds(inst)
    w_star, z0 = _bound_optimum(bounds)
    near = _near(bounds, _threshold(inst, w_star, cb.effective_epsilon))
    d_exact = _count_near(bounds, near)

    checks = []
    for rec in cb.per_delta:
        masks = [1 << f for f in range(n) if inst.contributions[f] <= rec.threshold]
        sigma = binomial_sum(rec.s_size, rec.r)
        # sigma counts the record's |S|, so it must be the set the replay flips
        # the first batch with a member below the threshold ends the replay
        members_ok = len(masks) == rec.s_size and all(
            _is_near(bounds, near, batch).all() for batch in _flips(z0, masks, rec.r)
        )
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
