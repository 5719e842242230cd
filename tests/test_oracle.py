import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from maxcsp import (
    Assignment,
    Constraint,
    CspInstance,
    DomainError,
    SizeError,
    assignment_weights,
    binomial_sum,
    brute_force_optimum,
    count_near_optimal,
    counting_bound,
    random_csp,
    random_ekcnf,
    random_wcnf,
    verify_entropy_scaling,
    verify_counting_bound,
    weight_of,
    weight_of_batch,
)
import maxcsp.oracle
from maxcsp.instance import _release_scratch, weight_of_lanes
from maxcsp.rng import enumeration_lanes, unpack_bits

from helpers import clauses_instance


class TestBruteForce:
    def test_complementary_units(self, complementary_units):
        w_star, argmax = brute_force_optimum(complementary_units)
        assert w_star == 1.0
        assert argmax == Assignment((0,))  # lexicographically smallest

    def test_single_pair_lex_argmax(self, single_pair):
        w_star, argmax = brute_force_optimum(single_pair)
        assert w_star == 1.0
        assert argmax == Assignment((0, 1))

    def test_argmax_weight_consistent(self):
        for seed in range(5):
            inst = random_wcnf(8, 15, 3, seed=seed)
            w_star, argmax = brute_force_optimum(inst)
            assert weight_of(inst, argmax) == w_star

    def test_size_cap(self):
        inst = random_ekcnf(12, 10, 3, seed=0)
        with pytest.raises(SizeError):
            brute_force_optimum(inst, cap=10)

    def test_table_matches_scalar_weight_of(self):
        # the batched enumeration is bit-identical to direct evaluation,
        # integral weights or not; below n=6 the one lane block is partial
        for n, i in itertools.product((1, 3, 6, 7), range(6)):
            builder = (random_ekcnf, random_wcnf, random_csp)[i % 3]
            inst = builder(n, 12, min(3, n), seed=50 + i)
            table = assignment_weights(inst)
            naive = np.array(
                [
                    weight_of(inst, Assignment.from_int(z, inst.num_vars))
                    for z in range(1 << inst.num_vars)
                ]
            )
            assert np.array_equal(table, naive), (n, i, inst.integer_weights)

    def test_table_across_chunks_matches_weight_of_batch(self):
        # 2^17 assignments take two enumeration chunks
        for builder in (random_ekcnf, random_wcnf):
            inst = builder(17, 60, 3, seed=3)
            z = np.arange(1 << 17, dtype=np.uint64)[:, None]
            batch = weight_of_batch(inst, unpack_bits(z, 17))
            assert np.array_equal(assignment_weights(inst), batch)

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_counted_table_from_prefix_tables(self, n, monkeypatch):
        # counted weights fill the table from the table of x1..x(n-2) where
        # both sides have constraints; every table, split or not, must equal
        # the unsplit kernel on all rows and the scalar reference on a sample
        ints = (1.0, 2.0, 7.0, 1000.0, 2.0**40)
        csp = random_csp(n, 4 * n, 4, seed=n)
        top = [(n - i % 2, 1 + i % (n - 2), 1 + (i + 3) % (n - 2)) for i in range(2 * n)]
        split = {
            "unit E3-CNF": random_ekcnf(n, round(4.5 * n), 3, seed=n),
            "integer weights": CspInstance(
                n,
                tuple(Constraint(ints[i % 5], c.vars, c.truth_table) for i, c in enumerate(csp.constraints)),
            ),
            "x(n) in no constraint": CspInstance(n, random_ekcnf(n - 1, 4 * n, 3, seed=n).constraints),
        }
        whole = {
            "every constraint touches the top two": clauses_instance(
                n, [(a if i % 2 else -a, b, -c) for i, (a, b, c) in enumerate(top)]
            ),
            "no constraint touches the top two": CspInstance(n, random_ekcnf(n - 2, 4 * n, 3, seed=n).constraints),
        }
        evaluated = []

        def counting(inst, lanes, rows, out=None):
            evaluated.append(inst.num_constraints * rows)
            return weight_of_lanes(inst, lanes, rows, out)

        monkeypatch.setattr(maxcsp.oracle, "weight_of_lanes", counting)
        rng = np.random.default_rng(n)
        for name, inst in {**split, **whole}.items():
            assert inst.counted_weights, name
            evaluated.clear()
            table = assignment_weights(inst)
            # the split evaluates each constraint only on the rows where it varies
            assert (sum(evaluated) < inst.num_constraints << n) == (name in split), name
            for start in range(0, 1 << n, 1 << 18):
                z = np.arange(start, start + (1 << 18), dtype=np.uint64)[:, None]
                batch = weight_of_batch(inst, unpack_bits(z, n))
                assert np.array_equal(table[start : start + (1 << 18)], batch), (name, start)
            for z in rng.integers(0, 1 << n, 200).tolist():
                assert table[z] == weight_of(inst, Assignment.from_int(z, n)), (name, z)

    def test_uncounted_weights_are_summed_in_constraint_order(self):
        # a 2**53 clause first absorbs every later unit on the rows it
        # satisfies; summing the units apart first would give 2**53 + 2, and
        # real weights round differently in any other order, so neither may
        # take the prefix split
        n = 18
        low = random_ekcnf(n - 2, 60, 3, seed=4)
        high = clauses_instance(n, [(n - 1, -n), (1, -(n - 1)), (-2, n)] + [(2 + i, n) for i in range(8)])
        big = CspInstance(
            n,
            (
                Constraint(2.0**53, high.constraints[0].vars, high.constraints[0].truth_table),
                *low.constraints,
                *high.constraints[1:],
            ),
        )
        for inst in (big, random_wcnf(n, 77, 3, seed=5)):
            assert not inst.counted_weights
            z = np.arange(1 << n, dtype=np.uint64)[:, None]
            assert np.array_equal(assignment_weights(inst), weight_of_batch(inst, unpack_bits(z, n)))

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_counted_table_memory(self, n):
        # beyond the table and the kernel's own arrays for one chunk of the
        # instance, the prefix split holds one chunk of added weights; two
        # chunks is the bound. An inner table apart from the table would
        # take 2^(n-2) * 8 bytes more (2 MiB at n=20)
        chunk = maxcsp.oracle._CHUNK
        term = np.empty(chunk)
        for inst in (random_ekcnf(n, round(4.5 * n), 3, seed=n), random_ekcnf(n, 15 * n, 3, seed=n)):
            peaks = []
            for build in (
                lambda: weight_of_lanes(inst, enumeration_lanes(0, chunk, n), chunk, out=term),
                lambda: assignment_weights(inst),
            ):
                _release_scratch()
                tracemalloc.start()
                try:
                    build()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            kernel, table = peaks
            assert table <= 8 * (1 << n) + kernel + 2 * 8 * chunk, (inst.num_constraints, kernel, table)

    def test_table_keeps_no_kernel_arrays(self):
        # the kernel keeps its working arrays per thread between calls; the
        # table's few, large chunks give theirs back, about 1 MB here
        inst = random_wcnf(18, 60, 4, seed=1)
        tracemalloc.start()
        try:
            assert len(assignment_weights(inst)) == 1 << 18
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 2**16


class TestCountNearOptimal:
    def test_full_relaxation_counts_everything(self):
        for seed in range(4):
            inst = random_ekcnf(7, 14, 3, seed=seed)
            assert count_near_optimal(inst, 1.0) == 1 << inst.num_vars

    def test_complementary_units(self, complementary_units):
        for eps in (0.01, 0.5, 1.0):
            assert count_near_optimal(complementary_units, eps) == 2

    def test_single_pair(self, single_pair):
        assert count_near_optimal(single_pair, 0.1) == 3

    def test_domain(self, single_pair):
        with pytest.raises(DomainError):
            count_near_optimal(single_pair, 0.0)
        with pytest.raises(DomainError):
            count_near_optimal(single_pair, 2.0)


class TestVerifyCountingBound:
    def test_two_triples_r_zero(self, two_triples):
        report = verify_counting_bound(two_triples, 0.5)
        assert report.all_pass
        assert report.d_exact >= 1
        for check in report.per_delta_checks:
            assert check.r == 0
            assert check.sigma_count == 1
            assert check.count_ok and check.members_ok

    def test_full_relaxation_always_passes(self):
        for seed in range(4):
            inst = random_ekcnf(8, 20, 3, seed=seed)
            report = verify_counting_bound(inst, 1.0)
            assert report.all_pass
            assert report.d_exact == 1 << inst.num_vars

    def test_complementary_units(self, complementary_units):
        report = verify_counting_bound(complementary_units, 0.3)
        assert report.all_pass
        assert report.d_exact == 2

    def test_wbar_path(self):
        inst = random_ekcnf(9, 22, 3, seed=77)
        w_bar = inst.total_weight * 0.6
        report = verify_counting_bound(inst, 0.4, w_bar=w_bar)
        assert report.effective_epsilon == 0.4 * w_bar / inst.total_weight
        assert report.all_pass

    def test_random_sweep(self):
        for i in range(20):
            builder = random_wcnf if i % 4 == 0 else random_ekcnf
            inst = builder(int(6 + i % 6), 15 + i, 3, seed=300 + i)
            for eps in (0.1, 0.5, 1.0):
                report = verify_counting_bound(inst, eps)
                assert report.all_pass, (i, eps)

    def test_sigma_matches_counting_bound_records(self):
        # the oracle checks exactly the bound calculator's records, in order
        inst = random_ekcnf(10, 30, 3, seed=5)
        for eps in (0.2, 0.7):
            for w_bar in (None, inst.total_weight * 0.6):
                report = verify_counting_bound(inst, eps, w_bar=w_bar)
                cb = counting_bound(inst, eps, w_bar)
                assert report.effective_epsilon == cb.effective_epsilon
                assert len(report.per_delta_checks) == len(cb.per_delta)
                for check, rec in zip(report.per_delta_checks, cb.per_delta):
                    assert (check.delta, check.threshold) == (rec.delta, rec.threshold)
                    assert (check.s_size, check.r) == (rec.s_size, rec.r)
                    assert check.sigma_count == binomial_sum(rec.s_size, rec.r)
                    assert math.log2(check.sigma_count) == rec.log2_count

    def test_inflated_s_size_fails(self, monkeypatch):
        # at eps = 1 every assignment counts (d_exact = 2^n), so the count
        # check alone cannot see a record whose |S| is one too large
        inst = random_ekcnf(10, 30, 3, seed=5)
        assert verify_counting_bound(inst, 1.0).all_pass

        def inflated(*args):
            cb = counting_bound(*args)
            rec = cb.per_delta[0]
            assert rec.s_size < inst.num_vars
            wrong = dataclasses.replace(rec, s_size=rec.s_size + 1)
            return dataclasses.replace(cb, per_delta=(wrong,) + cb.per_delta[1:])

        monkeypatch.setattr(maxcsp.oracle, "counting_bound", inflated)
        report = verify_counting_bound(inst, 1.0)
        assert report.d_exact == 1 << inst.num_vars
        assert all(c.count_ok for c in report.per_delta_checks)
        assert not report.per_delta_checks[0].members_ok
        assert not report.all_pass

    def test_power_of_two_scaling_changes_nothing(self):
        # scaling every weight by a power of two is exact in floating point,
        # so the counts must not move, however small or large the weights
        inst = random_wcnf(10, 30, 3, seed=11)
        for eps in (0.05, 0.2, 0.5):
            plain = verify_counting_bound(inst, eps)
            for scale in (2.0**-40, 2.0**30):
                scaled = CspInstance(
                    inst.num_vars,
                    tuple(Constraint(c.weight * scale, c.vars, c.truth_table) for c in inst.constraints),
                )
                report = verify_counting_bound(scaled, eps)
                assert report.d_exact == plain.d_exact, (eps, scale)
                assert report.all_pass == plain.all_pass
                assert count_near_optimal(scaled, eps) == count_near_optimal(inst, eps)

    def test_float_path_memory(self):
        # real weights take the float path over 65,536-row chunks; unpacking
        # a whole 60-constraint block of satisfied words at once peaks at
        # 7.4 MiB, a few constraints at a time at 4.6 MiB
        inst = random_wcnf(18, 60, 4, seed=1)
        tracemalloc.start()
        try:
            assert verify_counting_bound(inst, 0.05).all_pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 2**20

    def test_domain_and_size(self, single_pair):
        with pytest.raises(DomainError):
            verify_counting_bound(single_pair, 0.0)
        with pytest.raises(DomainError):
            verify_counting_bound(single_pair, 0.5, w_bar=9.0)
        inst = random_ekcnf(12, 10, 3, seed=0)
        with pytest.raises(SizeError):
            verify_counting_bound(inst, 0.5, cap=10)


class TestVerifyEntropyScaling:
    def test_sweep_passes(self):
        report = verify_entropy_scaling(2000, seed=3)
        assert report.passed
        assert report.min_gap >= -1e-12
        x, y, r = report.worst_triple
        assert x >= y > 0 and 0 <= r <= y

    def test_requires_samples(self):
        with pytest.raises(DomainError):
            verify_entropy_scaling(0)

    @pytest.mark.parametrize("samples", [2.5, 100.0, "100"])
    def test_samples_must_be_an_integer(self, samples):
        with pytest.raises(DomainError, match="samples"):
            verify_entropy_scaling(samples)
        assert verify_entropy_scaling(np.int64(5)).samples == 5

    def test_deterministic(self):
        assert verify_entropy_scaling(500, seed=9) == verify_entropy_scaling(500, seed=9)
