import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maxcsp import (
    Assignment,
    Constraint,
    CspInstance,
    DimensionError,
    DomainError,
    FormatError,
    UnsupportedError,
    clause_from_literals,
    clause_length_histogram,
    clause_literals,
    contribution,
    ksat_optimum_lower_bound,
    random_csp,
    random_ekcnf,
    random_wcnf,
    weight_of,
    weight_of_batch,
)
from maxcsp.instance import _restrict, _stack_buffer, weight_of_lanes
from maxcsp.rng import pack_lanes

from helpers import clauses_instance, weight_dtype


class TestWeightOf:
    def test_complementary_units(self, complementary_units):
        assert weight_of(complementary_units, Assignment((1,))) == 1.0
        assert weight_of(complementary_units, Assignment((0,))) == 1.0

    def test_falsified_pair(self, single_pair):
        assert weight_of(single_pair, Assignment((0, 0))) == 0.0

    def test_two_triples_hand_count(self, two_triples):
        assert weight_of(two_triples, Assignment((1, 0, 0, 0))) == 2.0
        assert weight_of(two_triples, Assignment((0, 0, 0, 0))) == 0.0
        assert weight_of(two_triples, Assignment((0, 0, 1, 0))) == 1.0

    def test_accepts_plain_sequences(self, single_pair):
        assert weight_of(single_pair, (1, 0)) == 1.0

    def test_dimension_mismatch(self, single_pair):
        with pytest.raises(DimensionError):
            weight_of(single_pair, Assignment((1, 0, 1)))


class TestContribution:
    def test_hand_counts(self, two_triples):
        assert contribution(two_triples, 1) == 2.0
        assert contribution(two_triples, 2) == 2.0
        assert contribution(two_triples, 3) == 1.0
        assert contribution(two_triples, 4) == 1.0

    def test_unused_variable_is_zero(self):
        inst = clauses_instance(3, [(1, 2)])
        assert contribution(inst, 3) == 0.0

    def test_real_weight(self):
        inst = clauses_instance(1, [(1,)], weights=[2.5])
        assert contribution(inst, 1) == 2.5

    @pytest.mark.parametrize("i", [0, 5, -1])
    def test_out_of_range(self, two_triples, i):
        with pytest.raises(DomainError):
            contribution(two_triples, i)


class TestClauseFromLiterals:
    def test_unit_positive(self):
        c = clause_from_literals((1,), 1.0)
        assert c.table_string == "01"

    def test_mixed_pair_single_falsifier(self):
        c = clause_from_literals((-1, 2), 1.0)
        # falsified only at x1=1, x2=0, which is row t=1
        assert c.table_string == "1011"
        assert c.table_string.count("0") == 1

    def test_triple_has_seven_ones(self):
        c = clause_from_literals((1, 2, 3), 1.0)
        assert c.table_string == "01111111"

    def test_literal_order_preserved(self):
        c = clause_from_literals((4, -2), 1.0)
        assert c.vars == (4, 2)
        assert clause_literals(c) == (4, -2)

    def test_rejects_empty(self):
        with pytest.raises(FormatError):
            clause_from_literals((), 1.0)

    def test_rejects_duplicate(self):
        with pytest.raises(FormatError):
            clause_from_literals((2, 2), 1.0)

    def test_rejects_tautology(self):
        with pytest.raises(FormatError):
            clause_from_literals((1, -1), 1.0)

    def test_rejects_zero_literal(self):
        with pytest.raises(FormatError):
            clause_from_literals((1, 0), 1.0)

    def test_rejects_21_literals(self):
        with pytest.raises(FormatError, match="arity 21"):
            clause_from_literals(range(1, 22), 1.0)

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(DomainError):
            clause_from_literals((1,), 0.0)
        with pytest.raises(DomainError):
            clause_from_literals((1,), -2.0)


class TestClauseLiterals:
    def test_roundtrip(self):
        for lits in [(1,), (-3, 2), (1, -2, 4), (-5, -6, -7, 8)]:
            c = clause_from_literals(lits, 1.0)
            assert clause_literals(c) == lits

    def test_non_clause_rejected(self):
        xor = Constraint.from_table_string(1.0, (1, 2), "0110")
        with pytest.raises(UnsupportedError):
            clause_literals(xor)


class TestHistogram:
    def test_uniform_lengths(self):
        inst = clauses_instance(5, [(1, 2, 3)] * 3 + [(2, 3, 4), (3, 4, 5)])
        assert clause_length_histogram(inst) == {3: 5}

    def test_mixed_lengths(self):
        inst = clauses_instance(3, [(1,), (2,), (1, 2, 3)])
        assert clause_length_histogram(inst) == {1: 2, 3: 1}

    def test_requires_clause_built(self):
        inst = clauses_instance(2, [(1, 2)], clause_built=False)
        with pytest.raises(UnsupportedError):
            clause_length_histogram(inst)


class TestKsatLowerBound:
    def test_mixed_bound(self):
        assert ksat_optimum_lower_bound({1: 2, 3: 1}) == 1.875

    def test_e3(self):
        assert ksat_optimum_lower_bound({3: 5}) == 5 * 7 / 8

    def test_at_least_half(self):
        for hist in [{1: 7}, {2: 3, 4: 2}, {1: 1, 2: 1, 3: 1}]:
            m = sum(hist.values())
            assert ksat_optimum_lower_bound(hist) >= m / 2

    def test_matches_integer_ratio_while_it_fits_a_float(self):
        for i in range(1, 1024):
            assert ksat_optimum_lower_bound({i: 1}) == float((1 << i) - 1) / float(1 << i)

    def test_length_1024_is_finite(self):
        # 2^1024 does not fit a float; (2^k - 1)/2^k rounds to 1 long before
        assert ksat_optimum_lower_bound({1024: 3}) == 3.0


class TestValidation:
    def test_arity_cap(self):
        with pytest.raises(FormatError):
            Constraint(1.0, tuple(range(1, 22)), 0)

    def test_no_variables(self):
        with pytest.raises(FormatError, match="at least one variable"):
            Constraint(1.0, (), 0)

    def test_table_string_characters(self):
        with pytest.raises(FormatError, match="'0'/'1'"):
            Constraint.from_table_string(1.0, (1,), "02")

    def test_table_range(self):
        with pytest.raises(FormatError):
            Constraint(1.0, (1,), 4)  # 2-row table needs value < 4

    def test_repeated_vars(self):
        with pytest.raises(FormatError):
            Constraint(1.0, (1, 1), 0b0110)

    def test_one_based_indices(self):
        with pytest.raises(FormatError):
            Constraint(1.0, (0, 1), 0b0110)

    @pytest.mark.parametrize("bad", [1.9, 2.0, np.float64(2.0), "2", True, np.bool_(True), None], ids=repr)
    def test_integer_fields_are_never_truncated(self, bad):
        # a float, a string or a bool is rejected, never truncated or parsed into an index
        unit = (clause_from_literals((1,), 1.0),)
        for build in (
            lambda: Constraint(1.0, (bad, 3), 0b0110),
            lambda: Constraint(1.0, (1, bad), 0b0110),
            lambda: Constraint(1.0, (1, 3), bad),
            lambda: CspInstance(bad, unit),
        ):
            with pytest.raises(DomainError):
                build()

    def test_integer_fields_take_python_and_numpy_ints(self):
        c = Constraint(1.0, (np.int64(1), np.uint8(3)), np.int32(6))
        inst = CspInstance(np.int16(3), (c,))
        assert c == Constraint(1.0, (1, 3), 6) and inst.num_vars == 3
        assert all(type(v) is int for v in (*c.vars, c.truth_table, inst.num_vars))

    def test_instance_var_range(self):
        with pytest.raises(FormatError):
            CspInstance(2, (clause_from_literals((1, 3), 1.0),))

    def test_instance_needs_constraints(self):
        with pytest.raises(DomainError):
            CspInstance(2, ())

    def test_instance_needs_variables(self):
        with pytest.raises(DomainError):
            CspInstance(0, (clause_from_literals((1,), 1.0),))

    @pytest.mark.parametrize(
        "constraints",
        [
            (clause_from_literals((1, 2), 1e308),),
            (clause_from_literals((1,), 1e308), clause_from_literals((2,), 1e308)),
        ],
        ids=["length", "weight"],
    )
    def test_instance_total_must_be_finite(self, constraints):
        # every weight is finite, but the weighted length sums to inf
        with pytest.raises(DomainError, match="overflows"):
            CspInstance(2, constraints)

    @pytest.mark.parametrize("builder", [random_ekcnf, random_wcnf, random_csp])
    def test_generators_need_variables(self, builder):
        with pytest.raises(DomainError, match="at least one variable"):
            builder(0, 5, 3, seed=1)

    def test_assignment_bits(self):
        with pytest.raises(DomainError):
            Assignment((0, 2))
        with pytest.raises(DomainError):
            Assignment(())


class TestAssignment:
    def test_int_roundtrip(self):
        for v in range(16):
            z = Assignment.from_int(v, 4)
            assert z.to_int() == v

    def test_little_endian(self):
        assert Assignment.from_int(1, 3).bits == (1, 0, 0)

    @pytest.mark.parametrize("value", [-1, 8, 1 << 70, True, 1.0])
    def test_from_int_takes_only_values_of_n_bits(self, value):
        with pytest.raises(DomainError):
            Assignment.from_int(value, 3)

    def test_string_forms(self):
        z = Assignment.from_string("0110")
        assert str(z) == "0110"
        assert len(z) == 4

    @pytest.mark.parametrize("text", ["0a1", "0 1", "012", "1.0", ""])
    def test_from_string_takes_only_bits(self, text):
        with pytest.raises(DomainError):
            Assignment.from_string(text)

    @pytest.mark.parametrize("bad", [1.5, 1.0, 0.5, np.float64(1.0), "1", b"1", None])
    def test_bits_are_never_truncated(self, bad):
        # a float or a string is rejected, never truncated or parsed into a bit
        with pytest.raises(DomainError):
            Assignment((0, bad))
        inst = CspInstance(3, (Constraint(1.0, (1, 2, 3), 0b00000010),))
        with pytest.raises(DomainError):
            weight_of(inst, [0, bad, 0])

    def test_bits_take_ints_and_bools(self):
        row = np.array([1, 0, 1], np.uint8)
        for bits in ((1, 0, 1), (True, False, True), tuple(row), tuple(row.astype(bool)), tuple(row.astype(np.int64))):
            z = Assignment(bits)
            assert z.bits == (1, 0, 1) and all(type(b) is int for b in z.bits)
        inst = CspInstance(3, (Constraint(1.0, (1, 2, 3), 0b00100000),))
        assert weight_of(inst, row) == weight_of(inst, [True, False, True]) == 1.0


def _literal_eval(literal_lists, weights, bits):
    """Independent clause semantics: a clause holds iff some literal holds."""
    total = 0.0
    for lits, w in zip(literal_lists, weights):
        if any(bits[abs(l) - 1] == (1 if l > 0 else 0) for l in lits):
            total += w
    return total


clause_sets = st.integers(2, 6).flatmap(
    lambda n: st.lists(
        st.lists(st.sampled_from(range(1, n + 1)), min_size=1, max_size=min(3, n), unique=True)
        .flatmap(
            lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs])
        ),
        min_size=1,
        max_size=6,
    ).map(lambda cls: (n, cls))
)


@given(
    data=clause_sets,
    weighted=st.booleans(),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_instance_invariants(data, weighted, seed):
    n, lits_lists = data
    rng = np.random.default_rng(seed)
    weights = [float(w) for w in rng.uniform(0.1, 5.0, len(lits_lists))] if weighted else None
    inst = clauses_instance(n, lits_lists, weights=weights)

    # weighted length identity: sum of contributions == sum of arity*weight
    total = sum(inst.contributions)
    assert total == pytest.approx(inst.weighted_length, rel=1e-12)
    if not weighted:
        assert total == inst.weighted_length

    assert inst.weighted_length >= inst.total_weight

    for _ in range(5):
        bits = tuple(int(b) for b in rng.integers(0, 2, n))
        w = weight_of(inst, bits)
        assert 0.0 <= w <= inst.total_weight
        assert w == _literal_eval(lits_lists, weights or [1.0] * len(lits_lists), bits)


def test_clause_tables_match_literal_semantics():
    # every clause constraint agrees with direct disjunction on all rows
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = int(rng.integers(1, 5))
        variables = [int(v) for v in rng.choice(10, size=a, replace=False) + 1]
        lits = [v if rng.integers(0, 2) else -v for v in variables]
        c = clause_from_literals(lits, 1.0)
        for t in range(1 << a):
            local = {variables[j]: (t >> j) & 1 for j in range(a)}
            expected = any(local[abs(l)] == (1 if l > 0 else 0) for l in lits)
            assert bool((c.truth_table >> t) & 1) == expected


def _mixed_clauses(rng):
    """150 clauses of 1 to 4 literals over 12 variables."""
    return [
        [int(v) * int(rng.choice((-1, 1))) for v in rng.choice(12, size=size, replace=False) + 1]
        for size in rng.integers(1, 5, size=150)
    ]


def test_batch_matches_scalar_exactly():
    rng = np.random.default_rng(11)
    from maxcsp import random_csp, random_ekcnf, random_wcnf
    from maxcsp.instance import MAX_ARITY

    # tables shorter than one byte (arity 1 and 2), constant tables and the
    # widest arity
    wide_table = int.from_bytes(np.random.default_rng(12).bytes(1 << (MAX_ARITY - 3)), "little")
    wide = CspInstance(
        MAX_ARITY + 2,
        (
            Constraint(0.3, (MAX_ARITY + 1,), 0b10),
            Constraint(2.7, (MAX_ARITY + 2, 3), 0b1001),
            Constraint(0.9, (4, 5), 0b1111),
            Constraint(0.4, (6,), 0),
            Constraint(1.5, tuple(range(1, MAX_ARITY + 1)), wide_table),
        ),
    )
    mixed = _mixed_clauses(rng)
    weights = rng.choice([1, 2, 7, 1000, 2**40], size=150)
    integral = clauses_instance(12, mixed, [float(w) for w in weights])
    # the exact total exceeds 2**53, so each later +1 rounds away in the
    # ordered float sum; an exact count would disagree with weight_of
    over = clauses_instance(12, mixed, [2.0**53] + [1.0] * 149)
    instances = [
        random_wcnf(8, 12, 3, 3),
        random_csp(8, 12, 3, 4),
        wide,
        # more constraints than one evaluation block
        random_ekcnf(10, 150, 3, seed=2),
        # more than 255 unit clauses: a row's count needs more than 8 bits
        random_ekcnf(10, 600, 3, seed=3),
        integral,
        over,
    ]
    for inst in instances:
        # partial lane words: 64 rows share a word
        for rows in (0, 1, 63, 64, 65, 130):
            bits = rng.integers(0, 2, size=(rows, inst.num_vars)).astype(np.uint8)
            expected = [weight_of(inst, tuple(int(b) for b in row)) for row in bits]
            # any memory order and any integer or bool dtype
            layouts = (bits, np.asfortranarray(bits), bits.astype(np.int8), bits.astype(np.int64), bits.astype(bool))
            for layout in layouts:
                assert weight_of_batch(inst, layout).tolist() == expected


def test_batch_dimension_check(single_pair):
    with pytest.raises(DimensionError):
        weight_of_batch(single_pair, np.zeros((3, 5), dtype=np.uint8))


@pytest.mark.parametrize("dtype", [np.float64, np.float32, object])
def test_batch_dtype_check(single_pair, dtype):
    with pytest.raises(DomainError, match="integer or bool dtype"):
        weight_of_batch(single_pair, np.ones((2, 2), dtype=dtype))


@pytest.mark.parametrize("value, dtype", [(2, np.uint8), (-1, np.int8), (2, np.int64), (-1, np.int64)])
def test_batch_entries_other_than_0_1_rejected(value, dtype):
    # packing would read any nonzero entry as 1
    inst = random_ekcnf(12, 40, 3, seed=1)
    bits = np.zeros((3, 12), dtype)
    bits[1, 5] = value
    with pytest.raises(DomainError, match="0 or 1"):
        weight_of_batch(inst, bits)
    with pytest.raises(DomainError, match="0 or 1"):
        weight_of_batch(inst, np.asfortranarray(bits))


def test_stack_budget_never_changes_a_result(monkeypatch):
    import maxcsp.instance

    rng = np.random.default_rng(21)
    integral = clauses_instance(
        12, _mixed_clauses(rng), [float(w) for w in rng.choice([1, 2, 7, 1000, 2**40], size=150)]
    )
    # random tables of arity 1 to 4 give blocks of many shapes, most of them
    # scattered; the arity-8 table takes the lookup route
    tables = random_csp(12, 149, 4, seed=5).constraints
    wide = Constraint(3.0, tuple(range(1, 9)), int.from_bytes(rng.bytes(32), "little"))
    weighted = (Constraint(float(1 + i % 5), c.vars, c.truth_table) for i, c in enumerate(tables))
    shapes = CspInstance(12, (*weighted, wide))
    # every constraint in two weight bits: the first bit's sum must not
    # overwrite the stack the second one reads
    threes = clauses_instance(12, _mixed_clauses(rng), [3.0] * 150)
    # weight bits with levels between them that hold carries only
    gaps = [clauses_instance(12, _mixed_clauses(rng), [1.0, high] * 75) for high in (4.0, 2.0**20)]
    # a total of exactly 2**53: uint64 counts in 54 planes, the top one set
    # on the rows that satisfy all ten clauses; two tautologies carry the
    # heavy weights
    heavy = (Constraint(2.0**52, (1,), 0b11), Constraint(2.0**52 - 10, (2,), 0b11))
    fours = [clause_from_literals(c) for c in _mixed_clauses(rng) if len(c) == 4][:10]
    top = CspInstance(12, (*heavy, *fours))
    assert top.total_weight == 2.0**53 and top.num_constraints == 12
    # a last stack of one constraint, and an instance of one, with weights of many bits
    odd = [
        clauses_instance(12, _mixed_clauses(rng)[:65], rng.integers(1, 1 << 12, 65).astype(float).tolist()),
        clauses_instance(12, [[1, -2, 3]], [1e15 + 7]),
    ]
    # the float path reads the same stacks: real weights, real weights over
    # the shapes and the lookup, and an integral total past 2**53
    real_shapes = CspInstance(12, (*random_csp(12, 149, 4, seed=6).constraints, wide))
    over = clauses_instance(12, _mixed_clauses(rng), [2.0**53] + [1.0] * 149)
    # weights over 60 binades, where a pairwise float sum of a row's terms
    # differs from weight_of's sum in constraint order
    binades = clauses_instance(12, _mixed_clauses(rng)[:40], np.exp2(rng.uniform(-30, 30, 40)).tolist())
    # no satisfiable constraint, so no stack at all, on either path
    never = [
        CspInstance(4, tuple(Constraint(w, (1 + i % 4,), 0) for i in range(70))) for w in (2.0, 2.5)
    ]
    counted = [random_ekcnf(10, 150, 3, seed=2), integral, shapes, threes, *gaps, top, *odd, never[0]]
    summed = [random_wcnf(12, 150, 5, 7), real_shapes, over, binades, never[1]]
    assert [inst.counted_weights for inst in counted + summed] == [True] * 10 + [False] * 5
    instances = counted + summed
    for rows in (0, 1, 2, 63, 64, 65, 127, 130):
        # bytes of one block of 64 constraints at this row count
        block = 8 * 64 * max(1, -(-rows // 64))
        for inst in instances:
            bits = rng.integers(0, 2, size=(rows, inst.num_vars)).astype(np.uint8)
            expected = np.array([weight_of(inst, tuple(int(b) for b in row)) for row in bits], weight_dtype(inst))
            if inst is top and rows == 130:
                assert expected.dtype == np.uint64 and (expected == 1 << 53).any()
            # below one block, the float path reduces one constraint at a time
            for budget in (1, block, 2 * block, 1 << 62):
                monkeypatch.setattr(maxcsp.instance, "_STACK_BYTES", budget)
                got = weight_of_batch(inst, bits)
                assert got.dtype == expected.dtype and np.array_equal(got, expected)


counted_instances = st.integers(6, 10).flatmap(
    lambda n: st.lists(
        st.tuples(
            st.integers(1, 1 << 30),
            st.lists(st.integers(1, n), min_size=1, max_size=6, unique=True),
            st.integers(0, (1 << 64) - 1),
        ),
        min_size=1,
        max_size=80,
    ).map(
        lambda cs: CspInstance(
            n, tuple(Constraint(float(w), tuple(vs), table % (1 << (1 << len(vs)))) for w, vs, table in cs)
        )
    )
)


@given(
    inst=counted_instances,
    rows=st.integers(1, 200),
    budget=st.sampled_from([1, 1 << 20]),
    seed=st.integers(0, 2**31),
)
@settings(max_examples=60, deadline=None)
def test_counts_match_weight_of(inst, rows, budget, seed):
    # random tables of arity 1 to 6 and weights of up to 31 bits, in stacks
    # of one block and of the default budget, against the scalar reference
    import maxcsp.instance

    assert inst.counted_weights
    bits = np.random.default_rng(seed).integers(0, 2, size=(rows, inst.num_vars)).astype(np.uint8)
    expected = np.array([weight_of(inst, tuple(int(b) for b in row)) for row in bits], weight_dtype(inst))
    kept = maxcsp.instance._STACK_BYTES
    maxcsp.instance._STACK_BYTES = budget
    try:
        got = weight_of_batch(inst, bits)
    finally:
        maxcsp.instance._STACK_BYTES = kept
    assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_warm_counts_keep_their_memory_flat():
    # fresh memory of a warm counted call, beside the thread's kept stack,
    # measured with tracemalloc on Python 3.11 and numpy 2.4. Unit clauses
    # (sample_e3cnf's shape, 850 x 512 words) are reduced inside the stack:
    # the call holds its 2-byte counts, the count's 10 planes, and one
    # block's gathered operand with numpy's 64 KB ufunc buffer, 376 KB (the
    # former adder tree took 416 KB), under 16 bytes a row. Multi-bit
    # weights (sample_wcnf_wide's shape, quantized, one 16,768-row chunk:
    # weights of up to 8 bits in stacks of 448 x 262 words) gather each
    # level's members behind the carries of the level below into one level
    # buffer, 443 rows at most here, so the call holds less than a stack's
    # bytes besides those arrays: 1,107 KB (the former per-bit column sums
    # took 634 KB, and a fresh concatenation of each level's carries and
    # member gather about 2.3 MB)
    import tracemalloc

    from maxcsp import sampler
    from maxcsp.instance import _STACK_BYTES

    wide = random_wcnf(1000, 1500, 5, 1)
    cases = [
        (random_ekcnf(200, 850, 3, seed=1), 32_768, 16 * 32_768),
        (wide._quantized(sampler._quantum_exponent(wide)).inst, 16_768, _STACK_BYTES + 24 * 16_768),
    ]
    rng = np.random.default_rng(36)
    for inst, rows, bound in cases:
        assert inst.counted_weights
        lanes = rng.integers(0, 1 << 63, size=(inst.num_vars, rows // 64), dtype=np.uint64)
        first = weight_of_lanes(inst, lanes, rows)
        tracemalloc.start()
        try:
            again = weight_of_lanes(inst, lanes, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(first, again)
        assert peak < bound, (inst.num_constraints, peak, bound)


def test_numpy_reduces_axis_0_in_order():
    # the float path adds a slice's weights to its running total by one
    # np.add.reduce down axis 0 of an array at least 64 wide: numpy sums
    # pairwise only along the fast axis, so at two columns or more it adds
    # the rows in order, as weight_of does
    rng = np.random.default_rng(24)
    for width in (2, 3, 64, 65, 200):
        for rows in (2, 9, 17, 41, 130):
            terms = np.exp2(rng.uniform(-40, 40, (rows, width)))
            total = terms[0].copy()
            for row in terms[1:]:
                total += row
            out = np.empty(width)
            np.add.reduce(terms, axis=0, out=out)
            assert out.tobytes() == total.tobytes(), (width, rows)


@pytest.fixture(scope="module")
def kernel_paths():
    """Instances over 12 variables, one per kernel path, with every assignment's ``weight_of`` in the kernel's dtype."""
    rng = np.random.default_rng(31)
    wide = Constraint(3.0, tuple(range(1, 9)), int.from_bytes(rng.bytes(32), "little"))
    tables = random_csp(12, 60, 4, seed=7).constraints
    instances = {
        # unit-weight clauses in three blocks: the count
        "counted": random_ekcnf(12, 150, 3, seed=2),
        # real weights: the float sum
        "float": random_wcnf(12, 150, 5, 7),
        # an arity-8 table takes the lookup route, under either sum
        "lookup": CspInstance(
            12, (*(Constraint(float(1 + i % 5), c.vars, c.truth_table) for i, c in enumerate(tables)), wide)
        ),
        "lookup_float": CspInstance(12, (*tables, wide)),
    }
    assert [inst.counted_weights for inst in instances.values()] == [True, False, True, False]
    space = np.arange(1 << 12)
    every = (space[:, None] >> np.arange(12)) & 1
    tables = {
        name: np.array([weight_of(inst, tuple(int(b) for b in row)) for row in every], weight_dtype(inst))
        for name, inst in instances.items()
    }
    return instances, tables


def _expected(table, bits):
    """Each row's ``weight_of``, looked up by the row's packed value."""
    return table[bits.astype(np.intp) @ (1 << np.arange(bits.shape[1]))]


# row counts that grow and shrink the kernel's reused buffers, lane words
# partial and whole, up to a full sampler chunk
_ROWS = (0, 65_536, 1, 130, 18_863, 63, 64, 65_536, 65, 0, 18_863, 130)


def test_reused_buffers_never_leak_into_a_result(kernel_paths):
    instances, tables = kernel_paths
    rng = np.random.default_rng(32)
    kept = []
    # one thread interleaves every path, so each call finds buffers that an
    # other instance, row count or dtype left behind
    for rows in _ROWS:
        for name, inst in instances.items():
            bits = rng.integers(0, 2, size=(rows, 12)).astype(np.uint8)
            expected = _expected(tables[name], bits)
            got = weight_of_batch(inst, np.asfortranarray(bits))
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
            kept.append((got, expected))
    # every array returned is the caller's: no later call changed it
    for got, expected in kept:
        assert got.tobytes() == expected.tobytes()


def test_lanes_give_a_new_array_of_the_weights(kernel_paths):
    instances, tables = kernel_paths
    rng = np.random.default_rng(33)
    for rows in (0, 1, 130, 18_863):
        for name, inst in instances.items():
            bits = rng.integers(0, 2, size=(rows, 12)).astype(np.uint8)
            expected = _expected(tables[name], bits)
            lanes = pack_lanes(bits)
            # the kernel's one entry: weight_of_batch's dtype and values, in an array of its own
            first, second = (weight_of_lanes(inst, lanes, rows) for _ in range(2))
            assert first.dtype == expected.dtype and first.tobytes() == expected.tobytes()
            assert second.tobytes() == first.tobytes() and not np.shares_memory(first, second)


def test_threads_keep_their_own_buffers(kernel_paths):
    instances, tables = kernel_paths
    rng = np.random.default_rng(34)
    work = {
        name: [rng.integers(0, 2, size=(rows, 12)).astype(np.uint8) for rows in _ROWS]
        for name in instances
    }
    serial = {
        name: [weight_of_batch(instances[name], bits).tobytes() for bits in batches]
        for name, batches in work.items()
    }
    # one thread per kernel path, switching often
    start = threading.Barrier(len(work))
    results: dict[str, list[bytes]] = {}

    def evaluate(name):
        start.wait(timeout=60)
        results[name] = [
            weight_of_batch(instances[name], bits).tobytes() for _ in range(3) for bits in work[name]
        ]

    threads = [threading.Thread(target=evaluate, args=(name,)) for name in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {name: serial[name] * 3 for name in work}
    for name, batches in work.items():
        assert serial[name] == [_expected(tables[name], bits).tobytes() for bits in batches]


def test_each_thread_keeps_its_own_stack(kernel_paths):
    instances, tables = kernel_paths
    rng = np.random.default_rng(35)
    # two threads at once, on different instances and row counts
    work = {
        "counted": rng.integers(0, 2, size=(18_863, 12)).astype(np.uint8),
        "lookup_float": rng.integers(0, 2, size=(130, 12)).astype(np.uint8),
    }
    serial = {name: weight_of_batch(instances[name], bits).tobytes() for name, bits in work.items()}
    start = threading.Barrier(len(work))
    results: dict[str, list[bytes]] = {}
    stacks: dict[str, list[np.ndarray]] = {}

    def evaluate(name):
        start.wait(timeout=60)
        results[name], stacks[name] = [], []
        for _ in range(20):
            results[name].append(weight_of_batch(instances[name], work[name]).tobytes())
            stacks[name].append(_stack_buffer(1, 1))

    threads = [threading.Thread(target=evaluate, args=(name,)) for name in work]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for name, bits in work.items():
        assert serial[name] == _expected(tables[name], bits).tobytes()
        assert results[name] == [serial[name]] * 20
        # every call on one thread reuses that thread's stack
        assert all(np.shares_memory(stacks[name][0], stack) for stack in stacks[name][1:])
    assert not np.shares_memory(stacks["counted"][0], stacks["lookup_float"][0])


def _check_restrict(c, fixed):
    """``_restrict(c, fixed)`` against ``c.evaluate`` on every row of the result."""
    got = _restrict(c, fixed)
    rest = tuple(v for v in c.vars if v not in fixed)
    bits = [0] * max(c.vars)
    for v, b in fixed.items():
        bits[v - 1] = b
    expected, values = [], []
    for t in range(1 << len(rest)):
        for j, v in enumerate(rest):
            bits[v - 1] = (t >> j) & 1
        expected.append(c.evaluate(bits))
        values.append(got if type(got) is bool else got.evaluate(bits))
    assert values == expected
    # a constant result is True or False, never a constraint
    assert (type(got) is bool) == (all(expected) or not any(expected))
    if type(got) is not bool:
        assert (got.weight, got.vars) == (c.weight, rest)
    return got


class TestRestrict:
    def test_clauses(self):
        n = 10
        for lits in [(3, -9, 10), (-10, 2, 9), (9, -4, -10), (1, 10, 5, -9)]:
            c = clause_from_literals(lits, 2.0)
            for value in (0, 1):
                for v in (n - 1, n):
                    got = _check_restrict(c, {v: value})
                    # a fixed literal that holds satisfies the clause outright
                    assert (got is True) == ((v if value else -v) in lits)
            for q in range(4):
                _check_restrict(c, {n - 1: q & 1, n: q >> 1})

    def test_random_tables(self):
        # fixed variables first, in the middle and last in vars, by arity 1-8
        # and one of arity 12
        rng = random.Random(7)
        n = 14
        for arity in [*range(1, 9), 12]:
            for trial in range(12):
                others = rng.sample(range(1, n - 1), arity)
                top = [n - 1, n][: min(2, arity)] if trial % 3 == 0 else [rng.choice((n - 1, n))]
                variables = others[: arity - len(top)]
                at = (0, (arity - len(top)) // 2, arity - len(top))[trial % 3]
                variables[at:at] = top
                c = Constraint(1.0 + trial, variables, rng.getrandbits(1 << arity))
                for v in (n - 1, n):
                    if v in variables:
                        _check_restrict(c, {v: trial & 1})
                if n - 1 in variables and n in variables:
                    for q in range(4):
                        _check_restrict(c, {n - 1: q & 1, n: q >> 1})

    @pytest.mark.parametrize("table", range(16))
    def test_over_the_two_fixed_variables(self, table):
        # fixing both variables leaves a constant: the quarter's instance
        # drops it and the quarter's constant counts it when it holds
        c = Constraint(3.0, (6, 5), table)
        low = clause_from_literals((1, -2))
        inner, quarters = CspInstance(6, (low, c))._cofactors
        assert inner.constraints == (low,)
        for q, (fixed, constant) in enumerate(quarters):
            holds = _check_restrict(c, {5: q & 1, 6: q >> 1})
            # quarter q sets x5 to q & 1 and x6 to q >> 1: row x6 + 2*x5 of the table over (x6, x5)
            assert holds == bool(table >> (2 * (q & 1) + (q >> 1)) & 1)
            assert (fixed, constant) == (None, 3 if holds else 0)


def test_cofactors_rebuild_every_weight():
    # every assignment weighs its inner part, plus its quarter's constant and fixed part
    base = random_csp(9, 40, 4, seed=5)
    inst = CspInstance(9, tuple(Constraint(1.0 + i % 4, c.vars, c.truth_table) for i, c in enumerate(base.constraints)))
    inner, quarters = inst._cofactors
    assert inner is not None and all(fixed is not None for fixed, _ in quarters)
    for z in range(1 << 9):
        low = Assignment.from_int(z & 127, 7)
        fixed, constant = quarters[z >> 7]
        assert weight_of(inst, Assignment.from_int(z, 9)) == weight_of(inner, low) + constant + weight_of(fixed, low)
