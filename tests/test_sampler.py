import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcsp import (
    Assignment,
    BudgetOverflowError,
    Constraint,
    CspInstance,
    DomainError,
    SamplerConfig,
    UnsupportedError,
    brute_force_optimum,
    clause_from_literals,
    count_near_optimal,
    counting_bound,
    iteration_budget,
    random_csp,
    random_ekcnf,
    random_wcnf,
    solve,
    solve_ksat,
    weight_of,
    weight_of_batch,
)

import maxcsp.sampler as sampler
from helpers import clauses_instance, reweighted
from maxcsp.instance import _held
from maxcsp.oracle import _threshold
from maxcsp.rng import assignment_bits


class TestBudget:
    def test_sixteen_when_count_is_trivial(self, two_triples):
        # eps=0.5 leaves flip radius 0 everywhere: log2_count = 0
        cb = counting_bound(two_triples, 0.5)
        assert cb.log2_count == 0.0
        cfg = SamplerConfig(epsilon=0.5, fail_prob=math.exp(-1))
        assert iteration_budget(two_triples, cfg) == 16

    def test_ln1000_factor(self, two_triples):
        cfg = SamplerConfig(epsilon=0.5, fail_prob=1e-3)
        # ceil(ln(1000) * 2^4), ceil applied after the product
        assert iteration_budget(two_triples, cfg) == 111
        assert iteration_budget(two_triples, cfg) == math.ceil(-math.log(1e-3) * 16)

    def test_budget_is_valid_even_when_everything_hits(self, complementary_units):
        cfg = SamplerConfig(epsilon=0.1, fail_prob=1e-3)
        t = iteration_budget(complementary_units, cfg)
        assert t >= 1

    def test_formula_identity(self):
        for i in range(20):
            inst = random_ekcnf(8 + i % 5, 20, 3, seed=i)
            cfg = SamplerConfig(epsilon=0.05 + 0.04 * i, fail_prob=10.0 ** -(1 + i % 4))
            cb = counting_bound(inst, cfg.epsilon)
            expected = math.ceil(
                -math.log(cfg.fail_prob) * 2.0 ** (inst.num_vars - cb.log2_count)
            )
            assert iteration_budget(inst, cfg) == expected

    def test_wbar_substitution_identity(self):
        rng = np.random.default_rng(12)
        for i in range(20):
            inst = random_ekcnf(9, 25, 3, seed=200 + i)
            eps = float(rng.uniform(0.05, 1.0))
            w_bar = float(rng.uniform(0.1, 1.0)) * inst.total_weight
            a = iteration_budget(inst, SamplerConfig(epsilon=eps, w_bar=w_bar))
            b = iteration_budget(
                inst, SamplerConfig(epsilon=eps * w_bar / inst.total_weight)
            )
            assert a == b

    def test_overflow_without_cap(self):
        inst = random_ekcnf(80, 120, 3, seed=0)
        with pytest.raises(BudgetOverflowError):
            iteration_budget(inst, SamplerConfig(epsilon=0.01, fail_prob=1e-3))

    def test_cap_clamps(self):
        inst = random_ekcnf(80, 120, 3, seed=0)
        cfg = SamplerConfig(epsilon=0.01, fail_prob=1e-3, max_iterations=512)
        assert iteration_budget(inst, cfg) == 512
        res = solve(inst, cfg)
        assert res.clamped
        assert res.iterations_used == res.iterations_budget == 512
        assert res.achieved_fail_prob <= 1.0

    def test_config_validation(self):
        with pytest.raises(DomainError):
            SamplerConfig(epsilon=0.0)
        with pytest.raises(DomainError):
            SamplerConfig(epsilon=0.1, fail_prob=1.0)
        with pytest.raises(DomainError):
            SamplerConfig(epsilon=0.1, parallelism=0)
        with pytest.raises(DomainError):
            SamplerConfig(epsilon=0.1, max_iterations=0)
        with pytest.raises(DomainError, match="w_bar"):
            SamplerConfig(epsilon=0.1, w_bar=0)
        with pytest.raises(DomainError, match="64 bits"):
            SamplerConfig(epsilon=0.1, seed=2**64)
        SamplerConfig(epsilon=0.1, seed=2**64 - 1)

    def test_config_rejects_nan_w_bar_at_construction(self):
        with pytest.raises(DomainError, match="w_bar"):
            SamplerConfig(epsilon=0.1, w_bar=math.nan)
        # w is not known yet, so an infinite w_bar waits for solve
        cfg = SamplerConfig(epsilon=0.1, w_bar=math.inf)
        with pytest.raises(DomainError, match="w_bar"):
            solve(random_ekcnf(8, 20, 3, seed=2), cfg)

    @pytest.mark.parametrize("value", ["0.5", b"0.5", "x", None, [0.5], True])
    def test_config_rejects_non_real_fail_prob(self, value):
        with pytest.raises(DomainError, match="fail_prob must be a real number"):
            SamplerConfig(epsilon=0.2, fail_prob=value)
        SamplerConfig(epsilon=0.2, fail_prob=np.float32(0.5))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("seed", 1.7),
            ("seed", "3"),
            ("seed", True),
            ("max_iterations", 100.0),
            ("max_iterations", True),
            ("parallelism", 2.5),
            ("parallelism", True),
        ],
    )
    def test_config_rejects_non_integers(self, field, value):
        with pytest.raises(DomainError, match=field):
            SamplerConfig(epsilon=0.2, **{field: value})
        # Python and numpy integers pass
        SamplerConfig(epsilon=0.2, **{field: np.int64(3)})
        SamplerConfig(epsilon=0.2, **{field: 3})

    def test_config_holds_plain_floats(self):
        cfg = SamplerConfig(epsilon=np.float32(0.5), fail_prob=np.float32(0.01), w_bar=np.int64(3))
        assert cfg == SamplerConfig(epsilon=0.5, fail_prob=float(np.float32(0.01)), w_bar=3.0)
        assert all(type(v) is float for v in (cfg.epsilon, cfg.fail_prob, cfg.w_bar))
        for field in ("epsilon", "w_bar"):
            with pytest.raises(DomainError, match=f"{field} must be a real number"):
                SamplerConfig(**{"epsilon": 0.5, field: True})

    def test_config_and_result_hold_plain_ints(self):
        cfg = SamplerConfig(
            epsilon=0.2, seed=np.uint64(3), max_iterations=np.int64(50), parallelism=np.int8(2)
        )
        assert cfg == SamplerConfig(epsilon=0.2, seed=3, max_iterations=50, parallelism=2)
        assert all(type(v) is int for v in (cfg.seed, cfg.max_iterations, cfg.parallelism))
        res = solve(random_ekcnf(8, 20, 3, seed=2), cfg)
        assert type(res.seed) is int and type(res.iterations_used) is int
        assert res.iterations_used == 50


class TestSolve:
    def test_complementary_units_always_optimal(self, complementary_units):
        res = solve(complementary_units, SamplerConfig(epsilon=0.5, seed=99))
        assert res.best_weight == 1.0

    def test_single_pair_satisfied(self, single_pair):
        res = solve(single_pair, SamplerConfig(epsilon=0.1, fail_prob=1e-3, seed=5))
        assert res.best_weight == 1.0
        assert res.target_kind == "additive"

    def test_deterministic_repeat(self):
        inst = random_ekcnf(10, 30, 3, seed=8)
        cfg = SamplerConfig(epsilon=0.2, seed=77)
        assert solve(inst, cfg) == solve(inst, cfg)

    @pytest.mark.parametrize("workers", [2, 3, 8])
    def test_parallelism_invariance(self, workers):
        inst = random_ekcnf(10, 30, 3, seed=9)
        base = solve(inst, SamplerConfig(epsilon=0.2, seed=3, parallelism=1))
        same = solve(inst, SamplerConfig(epsilon=0.2, seed=3, parallelism=workers))
        assert base == same

    def test_best_weight_matches_reported_assignment(self):
        for seed in range(5):
            inst = random_wcnf(9, 20, 3, seed=seed)
            res = solve(inst, SamplerConfig(epsilon=0.3, seed=seed))
            assert res.best_weight == weight_of(inst, res.best_assignment)

    def test_monotone_improvement_trace(self):
        inst = random_ekcnf(12, 40, 3, seed=21)
        events = []
        solve(
            inst,
            SamplerConfig(epsilon=0.25, seed=4, parallelism=1),
            trace=lambda i, w: events.append((i, w)),
        )
        assert events
        indices = [i for i, _ in events]
        weights = [w for _, w in events]
        assert indices == sorted(indices)
        assert all(b > a for a, b in zip(weights, weights[1:]))

    def test_trace_final_matches_result(self):
        inst = random_ekcnf(10, 25, 3, seed=33)
        events = []
        res = solve(
            inst,
            SamplerConfig(epsilon=0.2, seed=11, parallelism=1),
            trace=lambda i, w: events.append((i, w)),
        )
        assert events[-1][1] == res.best_weight
        # the counted weights are integers in the kernel, Python floats here
        assert inst.counted_weights and type(res.best_weight) is float
        assert all(type(w) is float for _, w in events)

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """Runs the pool's work on the calling thread; yields each pool's max_workers."""
        recorded = []

        class SerialPool:
            def __init__(self, max_workers):
                recorded.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(sampler, "ThreadPoolExecutor", SerialPool)
        return recorded

    def test_threads_capped_at_cores(self, serial_pool):
        inst = random_ekcnf(16, 20, 3, seed=9)
        base = solve(inst, SamplerConfig(epsilon=0.05, seed=3, max_iterations=4096))
        wide = solve(
            inst, SamplerConfig(epsilon=0.05, seed=3, max_iterations=4096, parallelism=4096)
        )
        assert base.clamped and base.iterations_used == 4096
        assert wide == base
        cores = os.cpu_count() or 1
        assert serial_pool == ([cores] if cores > 1 else [])

    def test_ranges_capped_at_cores(self, serial_pool, monkeypatch):
        calls = []

        def counting(inst, bits, *args, **kwargs):
            calls.append(len(bits))
            return weight_of_batch(inst, bits, *args, **kwargs)

        def run(workers):
            calls.clear()
            events = []
            cfg = SamplerConfig(epsilon=0.05, seed=3, max_iterations=4096, parallelism=workers)
            res = solve(inst, cfg, trace=lambda i, w: events.append((i, w)))
            assert sum(calls) == 4096
            return res, events

        monkeypatch.setattr(sampler, "weight_of_batch", counting)
        inst = random_ekcnf(16, 20, 3, seed=9)
        base = run(1)
        assert run(4096) == base
        assert 1 <= len(calls) <= (os.cpu_count() or 1)
        # on an 8-core host the ranges are cut 3 and 8 ways, with equal results
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        for workers, ranges in ((3, 3), (4096, 8)):
            assert run(workers) == base
            assert len(calls) == ranges

    def test_ranges_cut_at_lane_blocks(self, serial_pool, monkeypatch):
        inst = random_ekcnf(16, 60, 3, seed=4)
        starts, fortran = [], []

        def drawing(seed, start, count, n):
            starts.append(start)
            return assignment_bits(seed, start, count, n)

        def evaluating(inst, bits, *args, **kwargs):
            fortran.append(bits.flags.f_contiguous)
            return weight_of_batch(inst, bits, *args, **kwargs)

        def run(workers):
            events = []
            cfg = SamplerConfig(epsilon=0.01, seed=3, max_iterations=5000, parallelism=workers)
            res = solve(inst, cfg, trace=lambda i, w: events.append((i, w)))
            assert res.clamped
            return res, events

        base = run(1)
        monkeypatch.setattr(sampler, "assignment_bits", drawing)
        monkeypatch.setattr(sampler, "weight_of_batch", evaluating)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        # 5,000 is not a multiple of 64; three ranges, then the best sample's row
        assert run(3) == base
        assert serial_pool == [3] and len(starts) == 4
        assert all(start % 64 == 0 for start in starts[:-1])
        assert fortran == [True] * 3

    @pytest.mark.parametrize(
        "inst, budget",
        [
            (random_wcnf(12, 40, 4, seed=5), None),
            # clamped, and the budget crosses the 65,536-sample chunk boundary
            (random_ekcnf(80, 120, 3, seed=0), 70_000),
        ],
        ids=["real_weights", "clamped"],
    )
    def test_trace_identical_across_parallelism(self, inst, budget):
        def run(workers):
            events, threads = [], set()

            def trace(i, w):
                events.append((i, w))
                threads.add(threading.get_ident())

            cfg = SamplerConfig(epsilon=0.01, seed=3, max_iterations=budget, parallelism=workers)
            solve(inst, cfg, trace=trace)
            assert threads == {threading.get_ident()}
            return events

        base = run(1)
        for workers in (2, 3, 8):
            assert run(workers) == base

    @pytest.mark.parametrize("rows", [64, 640])
    def test_chunk_size_never_changes_result(self, monkeypatch, rows):
        inst = random_ekcnf(16, 60, 3, seed=4)
        sizes = []

        def counting(inst, bits, *args, **kwargs):
            sizes.append(len(bits))
            return weight_of_batch(inst, bits, *args, **kwargs)

        def run(workers):
            events = []
            cfg = SamplerConfig(epsilon=0.01, seed=3, max_iterations=5000, parallelism=workers)
            res = solve(inst, cfg, trace=lambda i, w: events.append((i, w)))
            assert res.clamped
            return res, events

        monkeypatch.setattr(sampler, "weight_of_batch", counting)
        # three ranges even on a host with fewer cores
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        base = run(1)
        assert sizes == [5000]
        monkeypatch.setattr(sampler, "_CHUNK_BYTES", rows * inst.num_vars)
        for workers in (1, 3):
            sizes.clear()
            assert run(workers) == base
            assert max(sizes) == rows and sum(sizes) == 5000

    def test_chunks_uniform_across_parallelism(self, serial_pool, monkeypatch):
        inst = random_ekcnf(16, 60, 3, seed=4)
        sizes = []

        def counting(inst, bits, *args, **kwargs):
            sizes.append(len(bits))
            return weight_of_batch(inst, bits, *args, **kwargs)

        def run(workers):
            sizes.clear()
            events = []
            cfg = SamplerConfig(epsilon=0.01, seed=3, max_iterations=5000, parallelism=workers)
            res = solve(inst, cfg, trace=lambda i, w: events.append((i, w)))
            assert res.clamped
            return res, events

        monkeypatch.setattr(sampler, "weight_of_batch", counting)
        monkeypatch.setattr(sampler, "_CHUNK_BYTES", 640 * inst.num_vars)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        base = run(1)
        assert sizes == [640] * 7 + [520]
        # three workers take the same chunks: only the last one is partial
        assert run(3) == base
        assert sizes == [640] * 7 + [520]
        assert serial_pool == [3]

    def test_chunk_memory_bounded_as_n_grows(self):
        # a fixed 65,536-row chunk peaks at 157 MiB on this instance
        inst = random_wcnf(4000, 300, 5, seed=1)
        tracemalloc.start()
        try:
            solve(inst, SamplerConfig(epsilon=0.01, seed=0, max_iterations=32_768))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_chunk_memory_per_variable_per_sample(self):
        inst = random_wcnf(2000, 300, 5, seed=1)
        samples = 8192
        tracemalloc.start()
        try:
            solve(inst, SamplerConfig(epsilon=0.01, seed=0, max_iterations=samples))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.4 * inst.num_vars * samples

    def test_small_solves_reuse_the_kernel_buffers(self):
        # the thread keeps the kernel's constraint stack, so from the second
        # call on a small solve does not allocate it again
        inst = random_ekcnf(12, 40, 3, seed=1)
        vars(_held).clear()
        peaks, stacks = [], []
        tracemalloc.start()
        try:
            for seed in range(4):
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                solve_ksat(inst, 3, epsilon=0.125, fail_prob=1e-2, seed=seed)
                peaks.append(tracemalloc.get_traced_memory()[1] - before)
                stacks.append(_held.stack)
        finally:
            tracemalloc.stop()
        assert all(stack is stacks[0] for stack in stacks)
        assert all(peak <= peaks[0] - stacks[0].nbytes for peak in peaks[1:])
        # a warm call's fresh memory stays under twice its (rows, n) bit
        # matrix, about the trim threshold glibc sets once that matrix is
        # freed: past it, a call's own frees can trim the heap that its next
        # call grows again. The kernel's counts stay integers, with no float
        # copy, to keep it there (418 KB of 453 KB here)
        rows = solve_ksat(inst, 3, epsilon=0.125, fail_prob=1e-2, seed=0).iterations_used
        assert all(peak < 2 * inst.num_vars * rows for peak in peaks[1:]), (peaks, rows)

    def test_covers_whole_space_matches_oracle(self):
        inst = random_ekcnf(6, 18, 3, seed=14)
        w_star, _ = brute_force_optimum(inst)
        res = solve(inst, SamplerConfig(epsilon=0.01, fail_prob=1e-9, seed=0))
        assert res.best_weight == w_star

    def test_eps_eff_reported(self):
        inst = random_ekcnf(8, 20, 3, seed=2)
        res = solve(inst, SamplerConfig(epsilon=0.4, w_bar=inst.total_weight / 2, seed=1))
        assert res.effective_epsilon == 0.4 * (inst.total_weight / 2) / inst.total_weight
        assert res.target_kind == "multiplicative"

    def test_wbar_above_total_weight_rejected(self):
        inst = random_ekcnf(8, 20, 3, seed=2)
        with pytest.raises(DomainError):
            solve(inst, SamplerConfig(epsilon=0.4, w_bar=inst.total_weight + 1))


def _prefix_maxima(weights):
    """(row, weight) of the strict prefix maxima of ``weights``."""
    events, best = [], -math.inf
    for i, w in enumerate(weights.tolist()):
        if w > best:
            events.append((i, w))
            best = w
    return events


def _float_scan(inst, seed, budget):
    """solve's trace events by definition: the strict prefix maxima of every sample's float weight."""
    return _prefix_maxima(weight_of_batch(inst, assignment_bits(seed, 0, budget, inst.num_vars)))


def _traced_solve(inst, cfg):
    events = []
    res = solve(inst, cfg, trace=lambda i, w: events.append((i, w)))
    return res, events


def _heavy_and_light():
    """The sample_wcnf_wide shape (n=1000, m=1500, weights in [0.1, 10)) plus two length-5 clauses of weight 10**6."""
    base = random_wcnf(1000, 1500, 5, seed=1)
    heavy = (clause_from_literals((1, -2, 3, 4, -5), 1e6), clause_from_literals((-6, 7, 8, -9, 10), 1e6))
    return CspInstance(1000, base.constraints + heavy, clause_built=True)


def _light_weights_decide():
    """Two clauses of weight 10**6 and 64 of weight near 1 at n=20: the light ones quantize to nothing."""
    weights = [1e6, 1e6] + np.random.default_rng(1).uniform(0.9, 1.1, 64).tolist()
    return reweighted(random_wcnf(20, 66, 3, seed=1), weights)


class TestQuantizedScan:
    """Real weights are sampled through the exact count of a quantization, and only candidate rows in float.

    Every output must equal the strict prefix maxima of the float weight of
    every row: the candidate rule may only spare rows that cannot be one.
    """

    @pytest.mark.parametrize(
        "inst",
        [
            random_wcnf(24, 80, 4, seed=1),
            random_csp(20, 60, 4, seed=2),
            # integer weights whose total is above 2**53: not counted, so quantized
            reweighted(
                random_wcnf(24, 60, 3, seed=4), np.random.default_rng(4).integers(2**48, 2**51, 60).astype(float)
            ),
            # one dyadic weight: both margins are 0, and the count is still in units of u
            CspInstance(9, (Constraint(0.5, (1, 3), 0b0110),)),
            _light_weights_decide(),
            # a uint8 count (at most 255) whose peak of 244 plus the slack of 17
            # would wrap around were it not cast before the slack is added
            reweighted(random_wcnf(10, 34, 3, seed=8), np.random.default_rng(8).uniform(0.5, 4.0, 34)),
        ],
        ids=["wcnf", "csp", "integer_above_2_53", "one_dyadic_weight", "light_weights_decide", "uint8_count"],
    )
    def test_matches_a_float_scan_of_every_row(self, monkeypatch, inst):
        assert not inst.counted_weights
        # the ranges are cut three ways even on a host with fewer cores
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        reference = None
        for rows in (None, 64, 640):
            if rows is not None:
                monkeypatch.setattr(sampler, "_CHUNK_BYTES", rows * inst.num_vars)
            for workers in (1, 3):
                cfg = SamplerConfig(epsilon=0.01, seed=5, max_iterations=3000, parallelism=workers)
                res, events = _traced_solve(inst, cfg)
                if reference is None:
                    reference = _float_scan(inst, 5, res.iterations_used)
                assert events == reference, (rows, workers)
                best, weight = reference[-1]
                assert res.best_weight == weight
                assert res.best_assignment == Assignment(assignment_bits(5, best, 1, inst.num_vars)[0])

    @given(
        n=st.integers(2, 10),
        m=st.integers(1, 30),
        bits=st.integers(1, 8),
        binades=st.integers(0, 40),
        seed=st.integers(0, 2**32 - 1),
        block=st.integers(0, 100),
        count=st.integers(1, 700),
    )
    @settings(max_examples=80, deadline=None)
    def test_candidates_keep_every_prefix_maximum(self, n, m, bits, binades, seed, block, count):
        # at 1-8 bits of the average weight, over weights spread across up
        # to 40 binades, every strict prefix maximum of a chunk's float
        # weights is a candidate
        rng = np.random.default_rng(seed)
        inst = reweighted(random_wcnf(n, m, min(n, 4), seed=seed), np.exp2(rng.uniform(-binades, 0, m)))
        e = math.frexp(inst.total_weight / m)[1] - 1 - bits
        quantization = inst._quantized(e)
        matrix = assignment_bits(seed, 64 * block, count, n)
        candidates = sampler._rises(weight_of_batch(quantization.inst, matrix), quantization.slack)
        assert np.all(np.diff(candidates) > 0)
        maxima = [i for i, _ in _prefix_maxima(weight_of_batch(inst, matrix))]
        assert set(maxima) <= set(candidates.tolist())

    @given(
        values=st.one_of(
            # a uint8 count near 255 plus a slack up to 40 would wrap were it not cast first
            *(
                st.tuples(
                    st.just(dtype),
                    st.lists(st.integers(0, np.iinfo(dtype).max), min_size=1, max_size=700),
                    st.integers(0, 40),
                )
                for dtype in (np.uint8, np.uint16, np.uint32)
            ),
            # floats, the first from few distinct values so that ties are common
            *(
                st.tuples(st.just(np.float64), st.lists(floats, min_size=1, max_size=700), st.just(0))
                for floats in (
                    st.sampled_from([-1.5, 0.0, 0.25, 1.0, 3.75, 1e300]),
                    st.floats(-1e6, 1e6, allow_nan=False),
                )
            ),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_rises_is_the_running_maximum_rule(self, values):
        dtype, v, slack = values
        naive = [i for i in range(len(v)) if i == 0 or v[i] + slack > max(v[:i])]
        assert sampler._rises(np.array(v, dtype), slack).tolist() == naive

    def test_heavy_and_light(self, monkeypatch):
        # the light clauses floor to nothing next to the heavy ones, so most
        # rows are candidates and the chunk is evaluated wholly in float
        inst, samples = _heavy_and_light(), 16_384
        cfg = SamplerConfig(epsilon=0.01, seed=0, max_iterations=samples)
        rows = []

        def counting(inst, bits, *args, **kwargs):
            rows.append(len(bits))
            return weight_of_batch(inst, bits, *args, **kwargs)

        monkeypatch.setattr(sampler, "weight_of_batch", counting)
        vars(_held).clear()
        tracemalloc.start()
        try:
            res, events = _traced_solve(inst, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows == [samples, samples]
        assert peak < 1.4 * inst.num_vars * samples
        assert events == _float_scan(inst, 0, samples)
        assert res.best_weight == events[-1][1]

    def test_a_chunk_of_candidates_sends_the_later_chunks_to_float(self, monkeypatch):
        # 100 chunks of 64 rows on eight threads switching every microsecond:
        # whichever chunk finds the count wasted first, the events stay the same
        inst = _light_weights_decide()
        counted = []

        def counting(inst, bits, *args, **kwargs):
            counted.append(inst.counted_weights)
            return weight_of_batch(inst, bits, *args, **kwargs)

        monkeypatch.setattr(sampler, "weight_of_batch", counting)
        monkeypatch.setattr(sampler, "_CHUNK_BYTES", 64 * inst.num_vars)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        reference = _float_scan(inst, 2, 6400)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 8):
                counted.clear()
                cfg = SamplerConfig(epsilon=0.01, seed=2, max_iterations=6400, parallelism=workers)
                assert _traced_solve(inst, cfg)[1] == reference
                # each counted chunk is evaluated again in float; the others only in float
                assert len(counted) == 100 + counted.count(True)
                assert 1 <= counted.count(True) <= workers
        finally:
            sys.setswitchinterval(interval)


class TestSolveKsat:
    def test_e3_uses_seven_eighths(self):
        inst = random_ekcnf(10, 24, 3, seed=6)
        res = solve_ksat(inst, 3, epsilon=0.2, seed=5)
        m = inst.num_constraints
        assert res.effective_epsilon == 0.2 * (m * 7 / 8) / m
        assert res.target_kind == "multiplicative"

    def test_mixed_lengths_histogram_bound(self):
        inst = clauses_instance(3, [(1,), (2,), (1, 2, 3)])
        res = solve_ksat(inst, 3, epsilon=0.5, seed=9)
        assert res.effective_epsilon == 0.5 * 1.875 / 3.0

    def test_wbar_at_least_half(self):
        inst = clauses_instance(2, [(1,), (-2,)])
        res = solve_ksat(inst, 2, epsilon=0.5, seed=1)
        # unit clauses: histogram bound m/2 ties the generic bound
        assert res.effective_epsilon == 0.5 * 1.0 / 2.0

    def test_rejects_non_clausal(self):
        inst = clauses_instance(2, [(1, 2)], clause_built=False)
        with pytest.raises(UnsupportedError):
            solve_ksat(inst, 2, epsilon=0.5)

    def test_rejects_weighted(self):
        inst = clauses_instance(2, [(1, 2)], weights=[2.0])
        with pytest.raises(UnsupportedError):
            solve_ksat(inst, 2, epsilon=0.5)

    def test_rejects_longer_clauses(self):
        inst = clauses_instance(4, [(1, 2, 3, 4)])
        with pytest.raises(DomainError):
            solve_ksat(inst, 3, epsilon=0.5)

    @pytest.mark.parametrize("k", [3.9, 3.7, "3", 3.0])
    def test_rejects_non_integer_k(self, k):
        inst = random_ekcnf(10, 24, 3, seed=6)
        with pytest.raises(DomainError, match="k must be an integer"):
            solve_ksat(inst, k, epsilon=0.2)
        assert solve_ksat(inst, np.int64(3), epsilon=0.2) == solve_ksat(inst, 3, epsilon=0.2)

    def test_light_statistical_guarantee(self):
        inst = random_ekcnf(12, 40, 3, seed=400)
        w_star, _ = brute_force_optimum(inst)
        eps = 1 / 8
        failures = sum(
            solve_ksat(inst, 3, epsilon=eps, fail_prob=1e-2, seed=s).best_weight
            < (1 - eps) * w_star
            for s in range(100)
        )
        assert failures / 100 <= 1e-2 + 3 * math.sqrt(1e-2 * 0.99 / 100)


class TestExactRateAudit:
    # The oracle's d_exact gives the exact chance q = (1 - d_exact/2^n)^T that
    # T uniform samples all miss the near-optimal set. Over many seeds the
    # number of missing runs is Binomial(runs, q), so a sampler whose hit rate
    # is off by a tenth moves z by about 2 at q = 0.2, while the guarantee's
    # bound slack hides any factor below about 2^10. A miss is a best weight
    # outside the oracle's own near-optimal set, which for real weights
    # includes its rounding tolerance. |z| <= 4 was fixed before the first
    # run of each case.
    @pytest.mark.parametrize(
        "builder, seed, eps, q_target",
        [(random_ekcnf, 0, 0.01, 0.2), (random_ekcnf, 2, 0.02, 0.1), (random_wcnf, 0, 0.03, 0.2)],
        ids=["0-0.01-0.2", "2-0.02-0.1", "wcnf-0-0.03-0.2"],
    )
    def test_miss_count_matches_the_exact_rate(self, builder, seed, eps, q_target):
        inst = builder(16, 68 if builder is random_ekcnf else 60, 3, seed=seed)
        w_star, _ = brute_force_optimum(inst)
        hit = count_near_optimal(inst, eps) / 2**inst.num_vars
        budget = math.ceil(math.log(q_target) / math.log1p(-hit))
        q = math.exp(budget * math.log1p(-hit))
        assert 0.05 <= q <= 0.2
        runs = 2000
        best = np.empty(runs)
        for s in range(runs):
            res = solve(inst, SamplerConfig(epsilon=eps, seed=s, max_iterations=budget))
            assert res.iterations_used == budget and res.clamped
            best[s] = res.best_weight
        misses = runs - int(np.count_nonzero(best >= _threshold(inst, w_star, eps)))
        z = (misses - runs * q) / math.sqrt(runs * q * (1 - q))
        assert abs(z) <= 4, (misses, runs * q, z)
