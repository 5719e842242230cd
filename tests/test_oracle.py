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
from maxcsp.oracle import DeltaCheck, VerificationReport
from maxcsp.instance import _STACK_BYTES, _held, weight_of_lanes
from maxcsp.rng import enumeration_lanes, unpack_bits

from helpers import clauses_instance, reweighted


class TestBruteForce:
    def test_complementary_units(self, complementary_units):
        w_star, argmax = brute_force_optimum(complementary_units)
        assert w_star == 1.0
        assert argmax == Assignment((0,))  # lexicographically smallest

    def test_single_pair_lex_argmax(self, single_pair):
        w_star, argmax = brute_force_optimum(single_pair)
        assert w_star == 1.0
        assert argmax == Assignment((0, 1))

    def test_tie_break_is_lexicographic(self):
        # among many maximizers the one whose (x1, ..., xn) is smallest wins,
        # which is not the smallest packed index
        rng = np.random.default_rng(9)
        for n in (1, 2, 5, 10):
            for top in (1, 2, 3):
                table = rng.integers(0, top + 1, 1 << n).astype(np.uint8)
                table[rng.integers(0, 1 << n)] = top
                best = min(
                    (Assignment.from_int(z, n).bits, z) for z in range(1 << n) if table[z] == top
                )[1]
                assert maxcsp.oracle._optimum(table, n, np.arange(1 << n)) == (float(top), best), (n, top)

    def test_argmax_weight_consistent(self):
        for seed in range(5):
            inst = random_wcnf(8, 15, 3, seed=seed)
            w_star, argmax = brute_force_optimum(inst)
            assert weight_of(inst, argmax) == w_star

    def test_size_cap(self):
        # the table's bytes decide, not the variable count: 2^29 rows of
        # uint8 and 2^26 of float64 are both 512 MiB, twice the limit, and
        # are refused before anything is allocated
        cnf, csp = random_ekcnf(29, 120, 3, seed=1), random_csp(26, 40, 3, seed=1)
        for query in (
            lambda: assignment_weights(cnf),
            lambda: brute_force_optimum(cnf),
            lambda: assignment_weights(csp),
        ):
            tracemalloc.start()
            try:
                with pytest.raises(SizeError, match=f"2\\^(29|26)-entry .* {1 << 29} bytes"):
                    query()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**16, peak

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

    @pytest.mark.parametrize(
        "first, dtype",
        [
            (252.0, np.uint8),  # counted total 255
            (253.0, np.uint16),  # 256
            (2.0**16 - 4, np.uint16),  # 65,535
            (2.0**16 - 3, np.uint32),  # 65,536
            (2.0**53 - 3, np.uint64),  # 2**53, the largest counted total
            (2.0**53 - 2, np.float64),  # an integer total of 2**53 + 1
            (0.5, np.float64),  # real weights
        ],
    )
    def test_table_dtype(self, first, dtype):
        # counted tables take the smallest unsigned dtype holding the total
        # weight, and any other table float64; either way every row is weight_of
        base = random_ekcnf(7, 4, 3, seed=8)
        weights = (first, 1.0, 1.0, 1.0)
        inst = CspInstance(7, tuple(Constraint(w, c.vars, c.truth_table) for w, c in zip(weights, base.constraints)))
        table = assignment_weights(inst)
        assert table.dtype == dtype
        assert table.tolist() == [weight_of(inst, Assignment.from_int(z, 7)) for z in range(1 << 7)]

    def test_table_across_chunks_matches_weight_of_batch(self):
        # 2^17 assignments take two enumeration chunks
        for builder in (random_ekcnf, random_wcnf):
            inst = builder(17, 60, 3, seed=3)
            z = np.arange(1 << 17, dtype=np.uint64)[:, None]
            batch = weight_of_batch(inst, unpack_bits(z, 17))
            assert np.array_equal(assignment_weights(inst), batch)

    # constraint-rows the cofactor split evaluates, as a share of m * 2^n, per
    # case at n = 18, 19, 20 (measured 0.315 / 0.320 / 0.106 for unit E3-CNF,
    # against 0.463 / 0.485 / 0.396 when only the constraints over x1..x(n-2)
    # were split off, and 1 unsplit)
    _EVALUATED = {
        "unit E3-CNF": (0.33, 0.33, 0.12),
        "integer weights": (0.39, 0.39, 0.13),
        "x(n) in no constraint": (0.31, 0.31, 0.10),
        "every constraint touches the top two": (0.5, 0.5, 0.15),
        "no constraint touches the top two": (0.25, 0.25, 0.09),
    }

    @staticmethod
    def _cases(n):
        ints = (1.0, 2.0, 7.0, 1000.0, 2.0**40)
        csp = random_csp(n, 4 * n, 4, seed=n)
        top = [(n - i % 2, 1 + i % (n - 2), 1 + (i + 3) % (n - 2)) for i in range(2 * n)]
        return {
            "unit E3-CNF": random_ekcnf(n, round(4.5 * n), 3, seed=n),
            "integer weights": CspInstance(
                n,
                tuple(Constraint(ints[i % 5], c.vars, c.truth_table) for i, c in enumerate(csp.constraints)),
            ),
            "x(n) in no constraint": CspInstance(n, random_ekcnf(n - 1, 4 * n, 3, seed=n).constraints),
            "every constraint touches the top two": clauses_instance(
                n, [(a if i % 2 else -a, b, -c) for i, (a, b, c) in enumerate(top)]
            ),
            "no constraint touches the top two": CspInstance(n, random_ekcnf(n - 2, 4 * n, 3, seed=n).constraints),
        }

    @staticmethod
    def _check_table(name, inst, table, rng):
        # the unsplit kernel on every chunk, the scalar reference on a sample
        n = inst.num_vars
        assert table.dtype == np.min_scalar_type(int(inst.total_weight)), name
        chunk = maxcsp.oracle._CHUNK
        for start in range(0, 1 << n, chunk):
            whole = weight_of_lanes(inst, enumeration_lanes(start, chunk, n), chunk)
            assert np.array_equal(table[start : start + chunk], whole), (name, start)
        for z in rng.integers(0, 1 << n, 200).tolist():
            assert table[z] == weight_of(inst, Assignment.from_int(z, n)), (name, z)

    @pytest.mark.parametrize("n", [18, 19, 20])
    def test_counted_table_from_cofactors(self, n, monkeypatch):
        # counted weights fill the table from the cofactors on x(n-1) and x(n)
        # while a quarter holds a chunk; every table must equal the unsplit
        # kernel on all rows and the scalar reference on a sample
        evaluated = []

        def counting(inst, lanes, rows):
            evaluated.append(inst.num_constraints * rows)
            return weight_of_lanes(inst, lanes, rows)

        monkeypatch.setattr(maxcsp.oracle, "weight_of_lanes", counting)
        rng = np.random.default_rng(n)
        for name, inst in self._cases(n).items():
            assert inst.counted_weights, name
            evaluated.clear()
            table = assignment_weights(inst)
            # each constraint is evaluated only on the rows where the top variables leave it open
            share = sum(evaluated) / (inst.num_constraints << n)
            assert share <= self._EVALUATED[name][n - 18], (name, share)
            self._check_table(name, inst, table, rng)

    @pytest.mark.parametrize("n, chunks", [(17, 2), (19, 2), (20, 1), (22, 1)])
    def test_leaf_lanes_built_once_per_table(self, n, chunks, monkeypatch):
        # every leaf of a split has the same variables, so the lanes of its
        # chunks are built once per table and shared read-only: the one chunk
        # of x1..x16 at n=20 and n=22, the two of x1..x17 at n=19, and an
        # unsplit table's own chunks at n=17
        built = []

        def building(start, count, num_vars):
            built.append((start, num_vars))
            return enumeration_lanes(start, count, num_vars)

        monkeypatch.setattr(maxcsp.oracle, "enumeration_lanes", building)
        inst = random_ekcnf(n, round(4.5 * n), 3, seed=n)
        table = assignment_weights(inst)
        assert len(built) == chunks == len(set(built)), built
        monkeypatch.undo()
        assert np.array_equal(table, weight_of_batch(inst, unpack_bits(np.arange(1 << n, dtype=np.uint64)[:, None], n)))

    def test_counted_table_three_cofactor_levels(self):
        # n=22 splits on x21, x22, then x19, x20 in add mode, then x17, x18;
        # the weighted clauses take a uint16 table
        rng = np.random.default_rng(22)
        unit = random_ekcnf(22, 99, 3, seed=22)
        weights = (1.0, 2.0, 7.0, 1000.0)
        cases = {
            "unit E3-CNF": unit,
            "weighted E3-CNF": CspInstance(
                22, tuple(Constraint(weights[i % 4], c.vars, c.truth_table) for i, c in enumerate(unit.constraints))
            ),
            "every constraint touches the top two": self._cases(22)["every constraint touches the top two"],
        }
        for name, inst in cases.items():
            self._check_table(name, inst, assignment_weights(inst), rng)

    def test_uncounted_weights_are_summed_in_constraint_order(self):
        # a 2**53 clause first absorbs every later unit on the rows it
        # satisfies; summing the units apart first would give 2**53 + 2, and
        # real weights round differently in any other order, so neither may
        # take the cofactor split
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
        # beyond a float64 table's worth and the kernel's own arrays for one
        # chunk of the instance, the cofactor split holds its plans and, from
        # n=20, the inner tables of add mode (2^16 rows at n=20); two float64
        # chunks is the bound
        chunk = maxcsp.oracle._CHUNK
        for inst in (random_ekcnf(n, round(4.5 * n), 3, seed=n), random_ekcnf(n, 15 * n, 3, seed=n)):
            peaks = []
            for build in (
                lambda: weight_of_lanes(inst, enumeration_lanes(0, chunk, n), chunk),
                lambda: assignment_weights(inst),
            ):
                vars(_held).clear()  # this thread's kernel stack
                tracemalloc.start()
                try:
                    build()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            kernel, table = peaks
            assert table <= 8 * (1 << n) + kernel + 2 * 8 * chunk, (inst.num_constraints, kernel, table)

    @pytest.mark.parametrize("n", [18, 19, 20, 22])
    def test_counted_table_memory_in_its_dtype(self, n):
        # a counted table holds itemsize bytes per row (one for unit 3-CNF
        # with m <= 255, two beyond), and its build adds at most the kernel's
        # own peak for one chunk and two chunks of 8-byte values: at n=22 the
        # add mode's inner tables of 2^18 and 2^16 rows must fit in them
        chunk = maxcsp.oracle._CHUNK
        for inst in (random_ekcnf(n, round(4.5 * n), 3, seed=n), random_ekcnf(n, 15 * n, 3, seed=n)):
            itemsize = np.min_scalar_type(int(inst.total_weight)).itemsize
            peaks = []
            for build in (
                lambda: weight_of_lanes(inst, enumeration_lanes(0, chunk, n), chunk),
                lambda: assignment_weights(inst),
            ):
                vars(_held).clear()  # this thread's kernel stack
                tracemalloc.start()
                try:
                    build()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            kernel, table = peaks
            assert table <= itemsize * (1 << n) + kernel + 2 * 8 * chunk, (inst.num_constraints, kernel, table)

    def test_table_keeps_one_kernel_stack(self):
        # of the kernel's arrays a table leaves only the thread's constraint
        # stack (480 KB here); the rest is the instance's plan
        inst = random_wcnf(18, 60, 4, seed=1)
        vars(_held).clear()
        tracemalloc.start()
        try:
            assert len(assignment_weights(inst)) == 1 << 18
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert _held.stack.nbytes <= _STACK_BYTES
        assert kept < _held.stack.nbytes + 2**16


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

    def test_integer_threshold_matches_float_comparison(self):
        # an integer table is compared against max(0, ceil(w* - eps_eff*w));
        # d_exact, the member checks and count_near_optimal must equal the
        # float64 comparison, with the threshold on an integer, one or two
        # float steps off it either way, and at or below 0 (eps = 1).
        # Flipping x1 or x2 of the units loses exactly 2 = eps*w at eps = 0.5
        units = clauses_instance(10, [(1,), (1,), (2,), (2,)])
        wide = random_ekcnf(10, 16, 2, seed=3)
        seen = set()
        for inst in (units, wide):
            n, w = inst.num_vars, inst.total_weight
            table = assignment_weights(inst)
            assert table.dtype == np.uint8
            weights = table.astype(np.float64)
            z0 = brute_force_optimum(inst)[1].to_int()
            for base, w_bar in itertools.product((0.25, 0.5, 1.0), (None, w / 2)):
                down = np.nextafter(base, 0)
                for eps in {base, down, np.nextafter(down, 0), min(1.0, np.nextafter(base, 2))}:
                    eps = float(eps)
                    report = verify_counting_bound(inst, eps, w_bar)
                    theta = report.w_star - report.effective_epsilon * w
                    near = weights >= theta
                    assert report.d_exact == np.count_nonzero(near), (eps, w_bar)
                    if w_bar is None:
                        assert count_near_optimal(inst, eps) == report.d_exact
                    cb = counting_bound(inst, eps, w_bar)
                    for check, rec in zip(report.per_delta_checks, cb.per_delta):
                        masks = [1 << f for f in range(n) if inst.contributions[f] <= rec.threshold]
                        members = [z0 ^ sum(c) for size in range(rec.r + 1) for c in itertools.combinations(masks, size)]
                        assert check.members_ok == (len(masks) == rec.s_size and bool(near[members].all()))
                        if np.any(weights[members] == theta):
                            seen.add("member on the threshold")
                    k = round(theta)
                    if theta <= 0:
                        seen.add("at or below 0")
                    elif np.any(weights == k) and 0 < abs(theta - k) < 1e-12:
                        seen.add("just above" if theta > k else "just below")
                    elif np.any(weights == theta):
                        seen.add("on")
        assert seen == {"on", "just above", "just below", "at or below 0", "member on the threshold"}

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

    @pytest.mark.parametrize("chunk", [64, 1 << 16])
    def test_flip_batches_hold_each_member_once(self, chunk, monkeypatch):
        # the replay's batches are outer XORs of the two halves' subsets,
        # kept by size: together they must be exactly z0 with each set of at
        # most r of the masks flipped, once each, in batches of at most a chunk
        monkeypatch.setattr(maxcsp.oracle, "_CHUNK", chunk)
        rng = np.random.default_rng(41)
        for size in range(0, 13):
            masks = [1 << int(f) for f in np.sort(rng.choice(16, size=size, replace=False))]
            z0 = int(rng.integers(0, 1 << 16))
            for r in range(size + 2):
                batches = list(maxcsp.oracle._flips(z0, masks, r))
                assert all(0 < len(batch) <= chunk and batch.dtype == np.int64 for batch in batches)
                expected = sorted(
                    z0 ^ sum(c) for i in range(min(r, size) + 1) for c in itertools.combinations(masks, i)
                )
                assert np.sort(np.concatenate(batches)).tolist() == expected, (size, r)

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
        # real weights are answered from the integer table of their
        # quantization (1.5 MiB here), not a float64 table; the bound dates
        # from the float path, whose 65,536-row chunks unpacking a few
        # constraints at a time peaked at 4.6 MiB
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
        with pytest.raises(SizeError):
            verify_counting_bound(random_ekcnf(29, 120, 3, seed=1), 0.5)
        # within the byte limit n=26 needs no argument, and there the bound
        # is no longer trivial: 2^7.99 and 2^4.52 members near the optimum
        for inst, eps, log2_sigma in (
            (random_ekcnf(26, 111, 3, seed=1), 0.3, 7.99),
            (random_wcnf(26, 87, 3, seed=1), 0.1, 4.52),
        ):
            report = verify_counting_bound(inst, eps)
            assert report.all_pass
            sigma = max(c.sigma_count for c in report.per_delta_checks)
            assert math.log2(sigma) == pytest.approx(log2_sigma, abs=0.005)


def _lex_first(rows, n):
    # (x1, ..., xn) in lexicographic order is the packed index with its n bits reversed
    key = sum(((rows >> f) & 1) << (n - 1 - f) for f in range(n))
    return int(rows[np.argmin(key)])


def _from_float_table(inst, table, eps, w_bar=None):
    """The optimum, count_near_optimal and VerificationReport, derived from the float table."""
    n = inst.num_vars
    w_star = float(table.max())
    z0 = _lex_first(np.flatnonzero(table == w_star), n)
    count = int(np.count_nonzero(table >= maxcsp.oracle._threshold(inst, w_star, eps)))
    cb = counting_bound(inst, eps, w_bar)
    near = table >= maxcsp.oracle._threshold(inst, w_star, cb.effective_epsilon)
    d_exact = int(np.count_nonzero(near))
    checks = []
    for rec in cb.per_delta:
        masks = [1 << f for f in range(n) if inst.contributions[f] <= rec.threshold]
        members = [z0 ^ sum(c) for size in range(rec.r + 1) for c in itertools.combinations(masks, size)]
        sigma = binomial_sum(rec.s_size, rec.r)
        members_ok = len(masks) == rec.s_size and bool(near[members].all())
        checks.append(DeltaCheck(rec.delta, rec.threshold, rec.s_size, rec.r, sigma, d_exact >= sigma, members_ok))
    report = VerificationReport(
        n, inst.num_constraints, cb.epsilon, cb.effective_epsilon, w_star, d_exact, tuple(checks),
        all(c.count_ok and c.members_ok for c in checks),
    )
    return (w_star, z0), count, report


class TestBoundTable:
    """Real weights, and integer totals above 2**53, are answered from the
    integer table of their quantization, evaluating exactly only the rows its
    margins leave open; every answer must be the float table's."""

    @staticmethod
    def _check(inst, epsilons=(0.01, 0.05, 0.3, 1.0)):
        assert not inst.counted_weights
        table = assignment_weights(inst)
        assert table.dtype == np.float64
        w_star, argmax = brute_force_optimum(inst)
        for eps in epsilons:
            for w_bar in (None, 0.6 * inst.total_weight):
                (want_star, want_z), count, report = _from_float_table(inst, table, eps, w_bar)
                assert type(w_star) is float and w_star == want_star
                assert argmax.to_int() == want_z
                assert verify_counting_bound(inst, eps, w_bar) == report, (eps, w_bar)
                if w_bar is None:
                    assert count_near_optimal(inst, eps) == count, eps

    @pytest.mark.parametrize("n", [3, 5, 8, 12, 17, 18, 20, 22])
    def test_wcnf_and_csp(self, n):
        # n < 6 takes one partial lane block, n >= 18 the cofactor split
        self._check(random_wcnf(n, 3 * n + 4, 4, seed=n))
        self._check(random_csp(n, 2 * n + 3, 4, seed=n))

    def test_ties_at_the_maximum(self):
        # x10..x12 are in no constraint, so every maximum is tied 8 ways
        # (16 here) with one satisfied set; with dyadic weights the sums are
        # exact, and complementary units of equal weight on x10..x12 tie
        # rows whose satisfied sets differ
        base = random_wcnf(12, 40, 3, seed=2)
        free = CspInstance(12, tuple(c for c in base.constraints if max(c.vars) < 10))
        units = clauses_instance(12, [(v,) for v in (10, 11, 12)] + [(-v,) for v in (10, 11, 12)], [0.375] * 6)
        dyadic = reweighted(free, (np.arange(free.num_constraints) % 11 + 1) / 8)
        for inst in (free, CspInstance(12, units.constraints + dyadic.constraints)):
            table = assignment_weights(inst)
            assert np.count_nonzero(table == table.max()) == 16
            self._check(inst)

    def test_weights_across_seventy_binades(self):
        # weights from 2**-40 to 2**30: the light ones quantize to nothing
        base = random_wcnf(14, 50, 4, seed=3)
        weights = np.exp2(np.random.default_rng(3).uniform(-40, 30, 50)).tolist()
        inst = reweighted(base, weights)
        quantized = inst._quantized(maxcsp.oracle._quantum_exponent(inst)).inst
        assert quantized.num_constraints < inst.num_constraints
        self._check(inst)

    def test_integer_totals_above_2_53(self):
        base = random_wcnf(16, 50, 3, seed=4)
        rng = np.random.default_rng(4)
        for weights in (
            [2.0**53] + [1.0] * 49,
            rng.integers(2**48, 2**51, 50).astype(float).tolist(),
        ):
            inst = reweighted(base, weights)
            assert inst.integer_weights
            self._check(inst, (0.01, 0.3))

    def test_dyadic_weights_need_no_quantization_margin(self):
        # multiples of the quantum quantize exactly, so only the float
        # rounding margin is left: a margin one quantum narrower either way
        # misses the maximum or misjudges the rows at the threshold
        base = random_csp(13, 40, 3, seed=5)
        inst = reweighted(base, (np.random.default_rng(5).integers(1, 16, 40) / 8).tolist())
        quantization = maxcsp.oracle._bounds(inst).quantization
        assert quantization.above == quantization.below > 0 and quantization.slack == 1
        self._check(inst)
        # one real weight sums without rounding, so its table is the weight in units of u
        single = CspInstance(3, (Constraint(0.75, (1, 3), 0b0110),))
        quantization = maxcsp.oracle._bounds(single).quantization
        assert quantization.above == quantization.below == quantization.slack == 0 and quantization.e < 0
        self._check(single)

    @pytest.mark.parametrize("dyadic", [False, True])
    def test_rows_at_the_threshold(self, dyadic):
        # thresholds equal to a row's weight count it in, one float step
        # above leave it out; every distinct weight in the quarter below the
        # maximum is tried as the threshold
        base = random_wcnf(12, 36, 3, seed=6)
        rng = np.random.default_rng(6)
        weights = rng.integers(1, 16, 36) / 8 if dyadic else rng.uniform(0.1, 10, 36)
        inst = reweighted(base, weights.tolist())
        bounds = maxcsp.oracle._bounds(inst)
        table = assignment_weights(inst)
        values = np.unique(table[table >= 0.75 * table.max()])
        assert len(values) > 20
        undecided = 0
        for value in values.tolist():
            for threshold in (value, math.nextafter(value, math.inf)):
                near = maxcsp.oracle._near(bounds, threshold)
                undecided += near.maybe < near.sure
                rows = np.arange(1 << 12)
                want = table >= threshold
                assert maxcsp.oracle._count_near(bounds, near) == np.count_nonzero(want), threshold
                assert np.array_equal(maxcsp.oracle._is_near(bounds, near, rows), want), threshold
        assert undecided == 2 * len(values)

    def test_threshold_on_a_row_through_verify(self):
        # an eps whose threshold w* - eps*w - tolerance lands exactly on a
        # row's weight, found by stepping eps one float at a time
        inst = reweighted(random_wcnf(11, 30, 3, seed=7), (np.arange(30) % 13 + 3) / 4)
        table = assignment_weights(inst)
        w_star, w = float(table.max()), inst.total_weight
        hits = 0
        for value in np.unique(table[table >= 0.8 * w_star]).tolist()[:-1]:
            eps = (w_star - value - maxcsp.oracle._threshold_tolerance(inst)) / w
            for _ in range(64):
                theta = maxcsp.oracle._threshold(inst, w_star, eps)
                if theta == value:
                    break
                eps = math.nextafter(eps, math.inf if theta > value else 0.0)
            if theta == value and 0 < eps <= 1:
                hits += 1
                self._check(inst, (eps,))
        assert hits >= 5

    def test_few_rows_are_evaluated(self, monkeypatch):
        # the point of the bound table: at n=18 with 60 real-weight clauses
        # only a few percent of the rows need their float weight (at most
        # 13,306 of 262,144 here)
        evaluated = []

        def counting(inst, bits):
            evaluated.append(len(bits))
            return weight_of_batch(inst, bits)

        monkeypatch.setattr(maxcsp.oracle, "weight_of_batch", counting)
        for seed in range(3):
            inst = random_wcnf(18, 60, 4, seed=seed)
            for eps in (0.01, 0.05, 0.3):
                evaluated.clear()
                verify_counting_bound(inst, eps)
                assert sum(evaluated) < (1 << 18) // 8, (seed, eps, sum(evaluated))

    def test_counted_weights_evaluate_nothing(self, monkeypatch):
        # counted weights are their own quantization with no margin: the
        # table decides every row
        monkeypatch.setattr(maxcsp.oracle, "weight_of_batch", None)
        inst = random_ekcnf(18, 80, 3, seed=1)
        assert inst._quantized(maxcsp.oracle._quantum_exponent(inst)) == (inst, 0, 0, 0, 0)
        report = verify_counting_bound(inst, 0.05)
        assert report.d_exact == count_near_optimal(inst, 0.05) > 0

    def test_verify_memory(self):
        # a real-weight verify holds the integer table (2 bytes a row here)
        # and the kernel's peak over one chunk, never a float64 table or a
        # byte per row. However many rows tie for the maximum (3/8 of them
        # for x1 and x2 or x3) or the flip set replays (616,666 members for
        # the units x1..x20 at eps 1), a query holds at most two chunks of
        # them besides, as 8-byte indices and n-byte bits, and a chunk of
        # temporaries (4.0 MB at most here)
        n, chunk = 20, maxcsp.oracle._CHUNK
        rows = 3 * (8 + n) * chunk
        for inst, query, extra in (
            (random_wcnf(n, 66, 4, seed=1), lambda inst: verify_counting_bound(inst, 0.05), 0),
            (clauses_instance(n, [[1], [2, 3]]), brute_force_optimum, rows),
            (clauses_instance(n, [[1], [2, 3]], [0.3, 0.7]), brute_force_optimum, rows),
            (clauses_instance(n, [[v + 1] for v in range(n)]), lambda inst: verify_counting_bound(inst, 1.0), rows),
        ):
            quantized = inst._quantized(maxcsp.oracle._quantum_exponent(inst)).inst
            peaks = []
            for build in (
                lambda: weight_of_lanes(quantized, enumeration_lanes(0, chunk, n), chunk),
                lambda: query(inst),
            ):
                vars(_held).clear()  # this thread's kernel stack
                tracemalloc.start()
                try:
                    build()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            kernel, peak = peaks
            itemsize = np.min_scalar_type(int(quantized.total_weight)).itemsize
            assert itemsize == (2 if extra == 0 else 1)
            assert peak < itemsize * (1 << n) + kernel + extra, (inst.num_constraints, kernel, peak)


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
