import math
from fractions import Fraction

import numpy as np
import pytest

from maxcsp import (
    DomainError,
    ExponentReport,
    PUBLISHED_EXPONENTS,
    SamplerConfig,
    binary_entropy,
    binomial_sum,
    counting_bound,
    exponent_ept,
    exponent_hirsch1,
    exponent_hirsch2,
    exponent_ours_csp,
    exponent_ours_eksat,
    exponent_ours_ksat_delta2,
    entropy_scaling_gap,
    log2_binomial_sum,
    parse,
    random_csp,
    random_ekcnf,
    random_wcnf,
    comparison_table,
    count_near_optimal,
    solve_ksat,
    brute_force_optimum,
    verify_counting_bound,
    verify_entropy_scaling,
)
from maxcsp.instance import MAX_ARITY

from helpers import clauses_instance

# closed-form reference values computed independently at 30-digit precision
H_QUARTER = 0.8112781244591328
GAP_4_2_1 = 1.2451124978365315
HIRSCH1_3_01 = 0.9569312781081140
DELTA2_3_01 = 0.9388542014653127
EPT_01 = 0.5098039215686275


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == 1.0

    def test_quarter(self):
        assert binary_entropy(0.25) == pytest.approx(H_QUARTER, abs=1e-12)

    def test_symmetry_and_range(self):
        for p in np.linspace(0.0, 1.0, 101):
            h = binary_entropy(float(p))
            assert 0.0 <= h <= 1.0
            assert h == pytest.approx(binary_entropy(float(1.0 - p)), abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.inf])
    def test_domain(self, p):
        with pytest.raises(DomainError):
            binary_entropy(p)


class TestEntropyScalingGap:
    def test_equal_arguments(self):
        for r in [0.0, 1.0, 2.0]:
            assert entropy_scaling_gap(2.0, 2.0, r) == 0.0

    def test_zero_radius(self):
        assert entropy_scaling_gap(10.0, 3.0, 0.0) == 0.0

    def test_reference_value(self):
        assert entropy_scaling_gap(4.0, 2.0, 1.0) == pytest.approx(GAP_4_2_1, abs=1e-12)

    def test_radius_at_endpoint(self):
        assert entropy_scaling_gap(2.0, 2.0, 2.0) == 0.0

    def test_randomized_nonnegative(self):
        rng = np.random.default_rng(42)
        for _ in range(10000):
            y = rng.uniform(1e-6, 30.0)
            x = y + rng.uniform(0.0, 30.0)
            r = rng.uniform(0.0, y)
            assert entropy_scaling_gap(x, y, r) >= -1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            entropy_scaling_gap(1.0, 2.0, 0.5)  # x < y
        with pytest.raises(DomainError):
            entropy_scaling_gap(2.0, 1.0, 1.5)  # r > y
        with pytest.raises(DomainError):
            entropy_scaling_gap(2.0, 0.0, 0.0)  # y <= 0
        with pytest.raises(DomainError):
            entropy_scaling_gap(2.0, 1.0, -0.1)


class TestBinomialSums:
    def test_exact_values(self):
        assert binomial_sum(4, 2) == 11
        assert binomial_sum(0, 0) == 1
        assert binomial_sum(5, 9) == 32

    def test_log2_small(self):
        assert log2_binomial_sum(4, 2) == pytest.approx(math.log2(11), abs=1e-12)
        assert log2_binomial_sum(10, 0) == 0.0

    def test_log2_large_matches_exact(self):
        # the integer recurrence against per-term binomials, past float range
        for s, r in [(65, 10), (100, 50), (400, 17), (1000, 500)]:
            exact = sum(math.comb(s, i) for i in range(r + 1))
            assert binomial_sum(s, r) == exact
            assert log2_binomial_sum(s, r) == math.log2(exact)

    def test_domain(self):
        with pytest.raises(DomainError):
            log2_binomial_sum(-1, 0)
        with pytest.raises(DomainError):
            binomial_sum(3, -1)


def _least_feasible(need, n):
    """Least float tau with Fraction(tau) * n >= need, walked to from float(need / n)."""
    tau = float(need / n)
    while Fraction(tau) * n < need:
        tau = math.nextafter(tau, math.inf)
    while Fraction(math.nextafter(tau, -math.inf)) * n >= need:
        tau = math.nextafter(tau, -math.inf)
    return tau


def _reference_bound(inst, eps, w_bar=None):
    """counting_bound's (records, best), with Fraction arithmetic at every threshold."""
    n, w, ell = inst.num_vars, inst.total_weight, inst.weighted_length
    eps_eff = eps if w_bar is None else eps * w_bar / w
    need = Fraction(ell) + Fraction(eps_eff) * Fraction(w)
    taus = {_least_feasible(need, n)}
    taus |= {c for c in inst.contributions if c > 0.0 and Fraction(c) * n >= need}
    records = []
    for tau in sorted(taus):
        s = sum(1 for c in inst.contributions if c <= tau)
        r = min(s, int(Fraction(eps_eff) * Fraction(w) / Fraction(tau)))
        count = sum(math.comb(s, i) for i in range(r + 1))
        records.append((tau * n / ell, tau, s, r, math.log2(count)))
    best = max(range(len(records)), key=lambda i: (records[i][4], -i))
    return records, best


def _bound_instances():
    for i, n in enumerate([5, 9, 16, 30, 60]):
        for builder in (random_ekcnf, random_wcnf, random_csp):
            yield builder(n, int(2.5 * n), 3, seed=40 + i)
    # unit weights, w = 4, l = 7, contributions (3, 2, 2): at eps = 1/2 the
    # contribution 3 equals need / n = (7 + 2) / 3 exactly
    yield clauses_instance(3, [(1, 2, 3), (1, 2), (1,), (3,)])


class TestCountingBound:
    def test_edge_is_least_feasible_float(self):
        # a float estimate stepped only upwards can stop one ulp above these edges
        pinned = [
            (random_ekcnf(52, 122, 3, seed=22), 7.061923076923077),
            (random_wcnf(23, 363, 4, seed=303), 196.75696450474913),
        ]
        for inst, edge in pinned:
            assert counting_bound(inst, 0.01).per_delta[0].threshold == edge
        cases = [(inst, 0.01) for inst, _ in pinned]
        rng = np.random.default_rng(2211)
        for i in range(150):
            builder = (random_ekcnf, random_wcnf, random_csp)[i % 3]
            n = int(rng.integers(5, 80))
            inst = builder(n, int(rng.integers(n, 4 * n)), 4, seed=1000 + i)
            cases.append((inst, float(rng.uniform(1e-4, 1.0))))
        for inst, eps in cases:
            n = inst.num_vars
            for w_bar in (None, inst.total_weight / 3):
                cb = counting_bound(inst, eps, w_bar)
                tau = cb.per_delta[0].threshold
                slack = Fraction(cb.effective_epsilon) * Fraction(inst.total_weight)
                need = Fraction(inst.weighted_length) + slack
                assert Fraction(tau) * n >= need
                assert Fraction(math.nextafter(tau, -math.inf)) * n < need

    def test_records_match_fraction_reference(self):
        on_boundary = 0
        for inst in _bound_instances():
            n = inst.num_vars
            for eps in [1e-4, 0.01, 0.05, 0.3, 0.5, 1.0]:
                for w_bar in (None, inst.total_weight / 2):
                    cb = counting_bound(inst, eps, w_bar)
                    records, best = _reference_bound(inst, eps, w_bar)
                    got = [(r.delta, r.threshold, r.s_size, r.r, r.log2_count) for r in cb.per_delta]
                    assert got == records, (inst.num_vars, eps, w_bar)
                    assert cb.best == best
                    slack = Fraction(cb.effective_epsilon) * Fraction(inst.total_weight)
                    need = Fraction(inst.weighted_length) + slack
                    on_boundary += any(Fraction(c) * n == need for c in inst.contributions)
        assert on_boundary > 0

    def test_never_exceeds_n(self, complementary_units):
        for eps in [0.01, 0.3, 1.0]:
            cb = counting_bound(complementary_units, eps)
            assert cb.log2_count <= complementary_units.num_vars

    def test_effective_epsilon_substitution(self):
        rng = np.random.default_rng(3)
        for i in range(10):
            inst = random_ekcnf(10, 30, 3, seed=i)
            eps = float(rng.uniform(0.05, 1.0))
            w_bar = float(rng.uniform(0.05, 1.0)) * inst.total_weight
            with_bar = counting_bound(inst, eps, w_bar)
            plain = counting_bound(inst, eps * w_bar / inst.total_weight)
            assert with_bar.effective_epsilon == plain.effective_epsilon
            assert with_bar.per_delta == plain.per_delta
            assert with_bar.best == plain.best

    def test_record_invariants(self):
        rng = np.random.default_rng(5)
        for i in range(30):
            inst = (random_ekcnf if i % 2 else random_wcnf)(
                int(rng.integers(5, 12)), int(rng.integers(5, 40)), 3, seed=100 + i
            )
            n = inst.num_vars
            for eps in [0.05, 0.3, 1.0]:
                cb = counting_bound(inst, eps)
                assert cb.per_delta
                for rec in cb.per_delta:
                    assert rec.r <= rec.s_size
                    # |S| >= (delta-1) n / delta, via the exact threshold:
                    # (delta-1)n/delta = n - l/tau
                    lower = n - Fraction(inst.weighted_length) / Fraction(rec.threshold)
                    assert Fraction(rec.s_size) >= lower
                    assert -1e-12 <= rec.log2_count <= n + 1e-12
                    # entropy form never beats the exact sum by more than log2(s+1)
                    if 2 * rec.r <= rec.s_size and rec.s_size > 0:
                        ent = binary_entropy(rec.r / rec.s_size) * rec.s_size
                        assert rec.log2_count >= ent - math.log2(rec.s_size + 1) - 1e-9

    @pytest.mark.parametrize("builder", [random_ekcnf, random_wcnf], ids=["unit", "real"])
    def test_s_size_counts_contributions_at_threshold(self, builder):
        for seed in range(4):
            inst = builder(40, 120, 3, seed=seed)
            for eps in [0.05, 0.5]:
                for rec in counting_bound(inst, eps).per_delta:
                    direct = sum(1 for c in inst.contributions if c <= rec.threshold)
                    assert rec.s_size == direct

    def test_auto_grid_covers_breakpoints(self, two_triples):
        cb = counting_bound(two_triples, 0.5)
        thresholds = [rec.threshold for rec in cb.per_delta]
        assert any(t == 2.0 for t in thresholds)  # contribution breakpoint
        assert thresholds == sorted(thresholds)

    def test_domain_errors(self, two_triples):
        with pytest.raises(DomainError):
            counting_bound(two_triples, 0.0)
        with pytest.raises(DomainError):
            counting_bound(two_triples, 1.5)
        with pytest.raises(DomainError):
            counting_bound(two_triples, 0.5, w_bar=3.0)  # > w

    def test_threshold_overflow_at_one_variable(self):
        # l is finite, but (l + eps*w)/n exceeds the float range when n = 1
        inst = parse("p wcnf 1 1\n1e308 1 0\n")[0]
        with pytest.raises(DomainError, match="overflows a float"):
            counting_bound(inst, 1.0)
        assert counting_bound(inst, 0.5).per_delta[0].threshold == 1.5e308


class TestExponents:
    def test_table_paper_values_spot(self):
        assert exponent_ours_eksat(3, 0.1).exponent == pytest.approx(0.8923639, abs=1e-6)
        assert exponent_ours_eksat(3, 1 / 8).exponent == pytest.approx(0.8740555, abs=1e-6)
        assert exponent_ours_eksat(4, 0.05).exponent == pytest.approx(0.9450690, abs=1e-6)
        assert exponent_ours_eksat(6, 0.0001).exponent == pytest.approx(0.9997908, abs=1e-6)
        assert exponent_ours_eksat(3, 0.0001).exponent == pytest.approx(0.9996498, abs=1e-6)
        assert exponent_hirsch2(3, 0.1).exponent == pytest.approx(0.9556059, abs=1e-6)
        assert exponent_hirsch2(5, 1 / 32).exponent == pytest.approx(0.9912298, abs=1e-6)

    def test_ours_csp_table_parameters(self):
        # the k=3 rows expressed as weighted shape (w=m, l=3m, wbar=7m/8)
        rep = exponent_ours_csp(w=1.0, ell=3.0, epsilon=0.1, w_bar=7 / 8)
        assert rep.exponent == pytest.approx(0.8923639, abs=1e-6)
        rep = exponent_ours_csp(w=1.0, ell=3.0, epsilon=1 / 8, w_bar=7 / 8)
        assert rep.exponent == pytest.approx(0.8740555, abs=1e-6)

    def test_ours_interior(self):
        for k, eps in [(3, 0.1), (4, 0.01), (6, 0.0001)]:
            rep = exponent_ours_eksat(k, eps)
            assert rep.exponent < 1.0
            assert rep.delta_star >= 1.0 + eps / k - 1e-12

    def test_hirsch1(self):
        assert exponent_hirsch1(3, 0.1).exponent == pytest.approx(HIRSCH1_3_01, abs=1e-12)
        assert exponent_hirsch1(3, 1e-9).exponent == pytest.approx(1.0, abs=1e-8)
        values = [exponent_hirsch1(3, e).exponent for e in [0.01, 0.05, 0.1, 0.5, 1.0]]
        assert values == sorted(values, reverse=True)

    def test_hirsch2(self):
        assert exponent_hirsch2(3, 1e-9).exponent == pytest.approx(1.0, abs=1e-8)

    def test_delta2_closed_form(self):
        assert exponent_ours_ksat_delta2(1, 1.0).exponent == 0.5
        assert exponent_ours_ksat_delta2(3, 0.1).exponent == pytest.approx(
            DELTA2_3_01, abs=1e-12
        )
        rep = exponent_ours_ksat_delta2(3, 0.1)
        assert rep.delta_star == 2.0
        for k in (1, 2, 5):
            for eps in (0.01, 0.5, 1.0):
                assert exponent_ours_ksat_delta2(k, eps).exponent > 0.5 or (
                    k == 1 and eps == 1.0
                )

    def test_ept(self):
        assert exponent_ept(0.1).exponent == pytest.approx(EPT_01, abs=1e-12)
        assert exponent_ept(1e-9).exponent == pytest.approx(1.0, abs=1e-8)
        assert exponent_ept(0.1).alpha == 0.796
        with pytest.raises(DomainError):
            exponent_ept(0.9)
        with pytest.raises(DomainError):
            exponent_ept(0.204)
        with pytest.raises(DomainError):
            exponent_ept(0.1, alpha=1.2)

    def test_ours_beats_hirsch2_everywhere(self):
        for ref in PUBLISHED_EXPONENTS:
            ours = exponent_ours_eksat(ref.k, ref.epsilon).exponent
            hirsch = exponent_hirsch2(ref.k, ref.epsilon).exponent
            assert ours <= hirsch

    def test_delta2_dominated_by_optimized(self):
        # delta=2 is one feasible point of the minimization with wbar = m/2
        for k in (1, 2, 3, 5):
            for eps in (0.02, 0.2, 1.0):
                fixed = exponent_ours_ksat_delta2(k, eps).exponent
                optimized = exponent_ours_csp(1.0, float(k), eps, w_bar=0.5).exponent
                assert optimized <= fixed + 1e-12

    def test_eksat_matches_csp_form(self):
        for k, eps in [(3, 0.05), (5, 0.001)]:
            a = exponent_ours_eksat(k, eps).exponent
            b = exponent_ours_csp(1.0, float(k), eps, w_bar=((1 << k) - 1) / (1 << k)).exponent
            assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize(
        "report, root",
        [
            (lambda: exponent_ours_eksat(3, 1 / 8), 1.4361249426412),
            (lambda: exponent_ours_eksat(4, 0.04), 1.296847180705345),
            (lambda: exponent_ours_eksat(6, 1e-4), 1.113147750606495),
            # w_bar omitted: a == q, so the slope is +inf at the boundary
            (lambda: exponent_ours_csp(1.0, 3.0, 0.1), 1.423426810139284),
        ],
        ids=["eksat_3_0.125", "eksat_4_0.04", "eksat_6_1e-4", "csp_no_wbar"],
    )
    def test_delta_star_matches_exact_root(self, report, root):
        # roots of the derivative of the exponent, computed at 50 digits
        assert abs(report().delta_star - root) < 1e-12

    def test_delta_star_on_the_boundary(self):
        # the slope is already negative at the feasibility edge delta = 1 + eps*w/ell
        assert exponent_ours_csp(1.0, 3.0, 1.0, w_bar=0.01).delta_star == 1 + 1 / 3
        assert exponent_ours_csp(1.0, 1.0, 1.0, w_bar=0.1).delta_star == 2.0

    def test_report_rejects_exponent_outside_unit_interval(self):
        with pytest.raises(DomainError, match="exponent 1.5"):
            ExponentReport(method="x", epsilon=0.1, exponent=1.5)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exponent_ours_eksat(0, 0.1)
        with pytest.raises(DomainError):
            exponent_ours_eksat(3, 0.0)
        with pytest.raises(DomainError):
            exponent_ours_csp(2.0, 1.0, 0.1)  # w > ell
        with pytest.raises(DomainError):
            exponent_ours_csp(1.0, 3.0, 0.1, w_bar=2.0)


K_EXPONENTS = [exponent_ours_eksat, exponent_ours_ksat_delta2, exponent_hirsch1, exponent_hirsch2]
# each generator with the names of its count and width arguments
GENERATORS = [
    (random_ekcnf, "num_clauses", "k"),
    (random_wcnf, "num_clauses", "max_len"),
    (random_csp, "num_constraints", "max_arity"),
]


class TestArgumentRules:
    """Each rule has one owner, so every entry point rejects the same inputs the same way."""

    @staticmethod
    def _entry_points():
        inst = random_ekcnf(6, 12, 3, seed=1)
        half = inst.total_weight / 2
        epsilon = [
            lambda v: counting_bound(inst, v),
            lambda v: SamplerConfig(epsilon=v),
            lambda v: solve_ksat(inst, 3, epsilon=v),
            lambda v: count_near_optimal(inst, v),
            lambda v: verify_counting_bound(inst, v),
            lambda v: exponent_ours_csp(1.0, 3.0, v),
            lambda v: exponent_ept(v),
            *[lambda v, f=f: f(3, v) for f in K_EXPONENTS],
        ]
        w_bar = [
            lambda v: counting_bound(inst, 0.5, w_bar=v),
            lambda v: SamplerConfig(epsilon=0.5, w_bar=v),
            lambda v: verify_counting_bound(inst, 0.5, w_bar=v),
            lambda v: exponent_ours_csp(inst.total_weight, inst.weighted_length, 0.5, w_bar=v),
        ]
        return [("epsilon", f, 0.125) for f in epsilon] + [("w_bar", f, half) for f in w_bar]

    # real arguments with a range rule of their own
    OTHER_REALS = [
        ("fail_prob", lambda v: SamplerConfig(epsilon=0.5, fail_prob=v), 0.5),
        ("alpha", lambda v: exponent_ept(0.1, v), 0.5),
        ("w", lambda v: exponent_ours_csp(v, 3.0, 0.5), 1.0),
        ("ell", lambda v: exponent_ours_csp(1.0, v, 0.5), 3.0),
    ]

    @pytest.mark.parametrize(
        "value",
        ["0.125", b"0.125", "x", [0.125], object(), 10**400],
        ids=["str", "bytes", "text", "list", "object", "int-overflow"],
    )
    def test_non_reals_are_domain_errors(self, value):
        for name, call, good in self._entry_points() + self.OTHER_REALS:
            call(good)
            with pytest.raises(DomainError, match=f"{name} must be a real number"):
                call(value)

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    def test_out_of_range_is_a_domain_error(self, value):
        for name, call, _ in self._entry_points():
            with pytest.raises(DomainError, match=f"{name} {value} outside"):
                call(value)

    @pytest.mark.parametrize("k", [3.9, 3.7, "3", 3.0])
    @pytest.mark.parametrize("exponent", K_EXPONENTS)
    def test_k_must_be_an_integer(self, exponent, k):
        with pytest.raises(DomainError, match="k must be an integer"):
            exponent(k, 0.1)
        assert exponent(np.int64(3), 0.1) == exponent(3, 0.1)

    @staticmethod
    def _integer_arguments():
        """(name, call, valid value) for each integer argument outside the k exponents."""
        inst = random_ekcnf(6, 12, 3, seed=1)
        calls = [
            ("k", lambda v: solve_ksat(inst, v, 0.5, max_iterations=64), 3),
            ("seed", lambda v: SamplerConfig(epsilon=0.5, seed=v), 3),
            ("max_iterations", lambda v: SamplerConfig(epsilon=0.5, max_iterations=v), 3),
            ("parallelism", lambda v: SamplerConfig(epsilon=0.5, parallelism=v), 3),
            ("samples", lambda v: verify_entropy_scaling(v), 3),
            ("seed", lambda v: verify_entropy_scaling(3, seed=v), 3),
            ("cap", lambda v: brute_force_optimum(inst, cap=v), 6),
            ("s", lambda v: binomial_sum(v, 2), 5),
            ("r", lambda v: binomial_sum(5, v), 2),
            ("s", lambda v: log2_binomial_sum(v, 2), 5),
            ("r", lambda v: log2_binomial_sum(5, v), 2),
        ]
        for gen, count, width in GENERATORS:
            calls += [
                ("num_vars", lambda v, g=gen: g(v, 4, 3, 1), 6),
                (count, lambda v, g=gen: g(6, v, 3, 1), 4),
                (width, lambda v, g=gen: g(6, 4, v, 1), 3),
                ("seed", lambda v, g=gen: g(6, 4, 3, v), 3),
            ]
        return calls

    @pytest.mark.parametrize(
        "value", [2.5, 3.0, np.float64(3), "3", True, np.bool_(True)], ids=repr
    )
    def test_non_integers_are_domain_errors(self, value):
        for name, call, good in self._integer_arguments():
            call(good)
            with pytest.raises(DomainError, match=f"{name} must be an integer"):
                call(value)

    def test_numpy_integers_act_as_ints(self):
        for name, call, good in self._integer_arguments():
            assert call(np.int64(good)) == call(good), name
        report = verify_entropy_scaling(np.int64(3), seed=np.uint64(5))
        assert type(report.samples) is int and type(report.seed) is int

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
    def test_seed_outside_64_bits(self, seed):
        seeds = [call for name, call, _ in self._integer_arguments() if name == "seed"]
        for call in seeds:
            call(2**64 - 1)
            with pytest.raises(DomainError, match="64 bits"):
                call(seed)

    @pytest.mark.parametrize("gen, count, width", GENERATORS)
    @pytest.mark.parametrize("value", [0, -1, MAX_ARITY + 1, MAX_ARITY + 2])
    def test_generator_width_outside_arity_range(self, gen, count, width, value):
        # rejected before any draw, also past num_vars (which alone clamps it)
        with pytest.raises(DomainError, match=f"{width}={value} outside 1..{MAX_ARITY}"):
            gen(MAX_ARITY + 2, 30, value, 0)

    @pytest.mark.parametrize("exponent", K_EXPONENTS)
    def test_k_1024_is_finite(self, exponent):
        # (2^k - 1)/2^k as a float, with no 2^1024 conversion on the way
        rep = exponent(1024, 0.1)
        assert 0.0 < rep.exponent < 1.0
        assert rep.k == 1024


class TestComparisonTable:
    def test_row_count(self):
        assert len(comparison_table()) == 27

    def test_matches_published(self):
        rows = comparison_table()
        for row, ref in zip(rows, PUBLISHED_EXPONENTS):
            assert (row.k, row.label) == (ref.k, ref.label)
            assert row.hirsch2 == pytest.approx(ref.hirsch2, abs=1e-6)
            assert row.ours == pytest.approx(ref.ours, abs=1e-6)

    def test_rounding_is_seven_decimals(self):
        for row in comparison_table():
            assert row.hirsch2 == round(row.hirsch2, 7)
            assert row.ours == round(row.ours, 7)
