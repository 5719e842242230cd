"""Entropy bounds, near-optimal assignment counts, and runtime exponents.

Three groups of quantities live here:

* binary entropy and the scaling inequality H(r/x)*x >= H(r/y)*y for
  x >= y >= r > 0 (``entropy_scaling_gap`` returns the left side minus the right);

* the constructive counting bound for a concrete instance: for a
  contribution threshold tau = delta*l/n, the variables with l_i <= tau
  form a set S, flipping at most r = floor(eps*w/tau) of them from an
  optimum loses at most r*tau <= eps*w weight, so at least
  sum_{i<=r} C(|S|,i) assignments stay within additive slack eps*w of the
  optimum. ``counting_bound`` evaluates log2 of that sum at the least
  feasible threshold and at every contribution above it, and keeps the best;

* runtime exponents: the sampling algorithm's, minimized over delta by
  bisection on the sign of its derivative, and the closed-form baselines
  it is compared against (the hirsch1 and hirsch2 random-flip/random-walk
  bounds, the ept bound built on a polynomial-time approximation), plus
  the 27-row comparison table with its published reference values.

S-membership uses exact float comparison against tau, and the flip radius
and the feasibility edge are evaluated in exact rational arithmetic over the
float values, so the r <= |S| and |S| >= (delta-1)n/delta guarantees hold
even at breakpoints where naive float rounding flips a comparison.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError
from .instance import CspInstance

OURS_CSP = "ours_csp"
OURS_EKSAT = "ours_eksat"
OURS_KSAT_DELTA2 = "ours_ksat_delta2"
HIRSCH1 = "hirsch1"
HIRSCH2 = "hirsch2"
EPT = "ept"


def binary_entropy(p: float) -> float:
    """-p*log2(p) - (1-p)*log2(1-p), with 0*log(0) = 0 at the endpoints."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"entropy argument {p} outside [0, 1]")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def entropy_scaling_gap(x: float, y: float, r: float) -> float:
    """H(r/x)*x - H(r/y)*y for x >= y > 0 and 0 <= r <= y; nonnegative."""
    x, y, r = float(x), float(y), float(r)
    if y <= 0.0 or x < y:
        raise DomainError("need x >= y > 0")
    if not 0.0 <= r <= y:
        raise DomainError("need 0 <= r <= y")
    return binary_entropy(r / x) * x - binary_entropy(r / y) * y


def binomial_sum(s: int, r: int) -> int:
    """Exact sum_{i=0}^{r} C(s, i), by the integer recurrence C(s, i+1) = C(s, i)(s-i)/(i+1)."""
    s, r = _integer("s", s), _integer("r", r)
    if s < 0 or r < 0:
        raise DomainError("binomial sum needs s >= 0 and r >= 0")
    term = total = 1
    for i in range(min(r, s)):
        term = term * (s - i) // (i + 1)
        total += term
    return total


def log2_binomial_sum(s: int, r: int) -> float:
    """log2 of sum_{i=0}^{r} C(s, i), taken of the exact integer sum."""
    return math.log2(binomial_sum(s, r))


# ---------------------------------------------------------------------------
# Instance-level counting bound


@dataclass(frozen=True)
class DeltaRecord:
    """Counting-bound evaluation at one threshold.

    ``threshold`` is the contribution cutoff tau = delta * l / n that
    defines the low-contribution variable set; ``delta`` is the matching
    scale factor (a derived display value - exact relations hold via tau).
    """

    delta: float
    threshold: float
    s_size: int
    r: int
    log2_count: float


@dataclass(frozen=True)
class CountingBound:
    """Per-threshold records plus the index of the best one."""

    epsilon: float
    effective_epsilon: float
    per_delta: tuple[DeltaRecord, ...]
    best: int

    @property
    def best_record(self) -> DeltaRecord:
        return self.per_delta[self.best]

    @property
    def log2_count(self) -> float:
        return self.per_delta[self.best].log2_count


def _real(name: str, value) -> float:
    """``value`` as a float; a string, or anything float() rejects, is a DomainError."""
    if not isinstance(value, (str, bytes, bytearray)):
        try:
            return float(value)
        except (TypeError, ValueError, OverflowError):
            pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def _integer(name: str, value) -> int:
    """``value`` as an int; Python and numpy integers pass, a bool or any other is a DomainError."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise DomainError(f"{name} must be an integer, got {value!r}")


def _seed(value) -> int:
    """``value`` as a seed, an integer in [0, 2**64); anything else is a DomainError."""
    seed = _integer("seed", value)
    if not 0 <= seed < 1 << 64:
        raise DomainError(f"seed {seed} does not fit in 64 bits")
    return seed


def _check_epsilon(epsilon: float) -> float:
    epsilon = _real("epsilon", epsilon)
    if not 0.0 < epsilon <= 1.0:
        raise DomainError(f"epsilon {epsilon} outside (0, 1]")
    return epsilon


def _check_w_bar(w_bar: float, w: float) -> float:
    w_bar = _real("w_bar", w_bar)
    if not 0.0 < w_bar <= w:
        raise DomainError(f"w_bar {w_bar} outside (0, w={w}]")
    return w_bar


def counting_bound(
    inst: CspInstance,
    epsilon: float,
    w_bar: float | None = None,
) -> CountingBound:
    """Lower-bound the number of assignments within additive slack eps_eff*w.

    With ``w_bar`` given, the bound is evaluated at eps_eff = eps*w_bar/w
    (the additive slack eps*w_bar then implies a (1-eps) multiplicative
    guarantee relative to any optimum of weight >= w_bar). The guarantee is
    constructive and constant-free: at least 2**log2_count assignments meet
    the threshold, exactly.

    A threshold tau is feasible when tau*n >= l + eps_eff*w, exactly over the
    float values. That test is monotone in tau, so the feasible floats are
    those >= tau_lo, the least feasible one: float(need/n) is correctly
    rounded, so at most one step up reaches it. |S| as a function of tau is a
    step function jumping exactly at the distinct contribution values, and
    within a step the flip radius only shrinks as tau grows, so tau_lo and
    the contributions >= tau_lo carry the exact maximum over all feasible tau.
    """
    w = inst.total_weight
    ell = inst.weighted_length
    n = inst.num_vars
    epsilon = _check_epsilon(epsilon)
    eps_eff = epsilon if w_bar is None else epsilon * _check_w_bar(w_bar, w) / w
    slack = Fraction(eps_eff) * Fraction(w)
    need = Fraction(ell) + slack

    try:
        tau_lo = float(need / n)
    except OverflowError:  # only at n = 1: for n >= 2, need / n <= l stays finite
        raise DomainError(f"threshold (l + eps*w)/n at l={ell}, n={n} overflows a float") from None
    if Fraction(tau_lo) * n < need:
        tau_lo = math.nextafter(tau_lo, math.inf)
    contributions = sorted(inst.contributions)
    grid = sorted({tau_lo, *contributions[bisect.bisect_left(contributions, tau_lo) :]})

    records = []
    for tau in grid:
        s = bisect.bisect_right(contributions, tau)
        num, den = tau.as_integer_ratio()
        # floor(slack / tau); r > s cannot happen for feasible tau, guard the contract anyway
        r = min(s, slack.numerator * den // (slack.denominator * num))
        records.append(
            DeltaRecord(
                delta=tau * n / ell,
                threshold=tau,
                s_size=s,
                r=r,
                log2_count=log2_binomial_sum(s, r),
            )
        )
    best = max(range(len(records)), key=lambda i: (records[i].log2_count, -i))
    return CountingBound(
        epsilon=epsilon,
        effective_epsilon=eps_eff,
        per_delta=tuple(records),
        best=best,
    )


# ---------------------------------------------------------------------------
# Runtime exponents


@dataclass(frozen=True)
class ExponentReport:
    """Exponent c of an O*(2^(c*n)) running time, with its parameters."""

    method: str
    epsilon: float
    exponent: float
    k: int | None = None
    alpha: float | None = None
    delta_star: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.exponent <= 1.0:
            raise DomainError(f"exponent {self.exponent} outside [0, 1]")

    @property
    def base(self) -> float:
        """b with running time O*(b^n); equals 2**exponent = 2 - x."""
        return 2.0 ** self.exponent


def _minimize_exponent(w: float, ell: float, epsilon: float, w_bar: float) -> tuple[float, float]:
    """Minimize 1 - H(a/u) * u/(1+u) over u = delta - 1 >= q; return (delta*, exponent).

    Here a = eps*w_bar/ell and q = eps*w/ell >= a. Since d/du[u*H(a/u)] =
    -log2(1 - a/u), the derivative of u*H(a/u)/(1+u) has the sign of

        slope(u) = -(1+u)*log2(1 - a/u) - u*H(a/u),

    whose own derivative -(1+u)*a / (u^2 (1 - a/u) ln 2) is negative: slope
    falls strictly from +inf (u -> a) to -inf, so the exponent has exactly
    one stationary point, a minimum. It is u = q if slope(q) <= 0, else the
    root of slope, bisected until the float midpoint meets an endpoint.
    """
    q = epsilon * w / ell
    a = epsilon * w_bar / ell

    def slope(u: float) -> float:
        p = a / u
        if p >= 1.0:  # the limit u -> a, reached when w_bar == w at u == q
            return math.inf
        return -(1.0 + u) * math.log2(1.0 - p) - u * binary_entropy(p)

    lo = hi = q
    while slope(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := (lo + hi) / 2.0) < hi:
        lo, hi = (mid, hi) if slope(mid) > 0.0 else (lo, mid)
    return 1.0 + hi, 1.0 - binary_entropy(a / hi) * hi / (1.0 + hi)


def exponent_ours_csp(
    w: float,
    ell: float,
    epsilon: float,
    w_bar: float | None = None,
) -> ExponentReport:
    """Sampling-algorithm exponent for a weighted instance shape (w, l)."""
    w, ell = _real("w", w), _real("ell", ell)
    if not 0.0 < w <= ell:
        raise DomainError("need 0 < w <= ell")
    epsilon = _check_epsilon(epsilon)
    wb = w if w_bar is None else _check_w_bar(w_bar, w)
    delta_star, expo = _minimize_exponent(w, ell, epsilon, wb)
    return ExponentReport(
        method=OURS_CSP, epsilon=epsilon, exponent=expo, delta_star=delta_star
    )


def exponent_ours_eksat(k: int, epsilon: float) -> ExponentReport:
    """Sampling-algorithm exponent for exact-length-k CNF (unit weights)."""
    k = _check_k(k)
    epsilon = _check_epsilon(epsilon)
    w_bar = 1.0 - 0.5 ** k
    delta_star, expo = _minimize_exponent(1.0, float(k), epsilon, w_bar)
    return ExponentReport(
        method=OURS_EKSAT, epsilon=epsilon, exponent=expo, k=k, delta_star=delta_star
    )


def exponent_ours_ksat_delta2(k: int, epsilon: float) -> ExponentReport:
    """Closed-form sampling exponent 1 - H(eps/(2k))/2 (threshold fixed at delta=2)."""
    k = _check_k(k)
    epsilon = _check_epsilon(epsilon)
    expo = 1.0 - binary_entropy(epsilon / (2.0 * k)) / 2.0
    return ExponentReport(
        method=OURS_KSAT_DELTA2, epsilon=epsilon, exponent=expo, k=k, delta_star=2.0
    )


def exponent_hirsch1(k: int, epsilon: float) -> ExponentReport:
    """Random-flip baseline: 1 + log2(1 - eps/(eps + k + eps*k))."""
    k = _check_k(k)
    epsilon = _check_epsilon(epsilon)
    expo = 1.0 + math.log2(1.0 - epsilon / (epsilon + k + epsilon * k))
    return ExponentReport(method=HIRSCH1, epsilon=epsilon, exponent=expo, k=k)


def exponent_hirsch2(k: int, epsilon: float) -> ExponentReport:
    """Improved random-walk baseline: 1 + log2(1 - eps/(k*(1+eps)))."""
    k = _check_k(k)
    epsilon = _check_epsilon(epsilon)
    expo = 1.0 + math.log2(1.0 - epsilon / (k * (1.0 + epsilon)))
    return ExponentReport(method=HIRSCH2, epsilon=epsilon, exponent=expo, k=k)


DEFAULT_EPT_ALPHA = 0.796


def exponent_ept(epsilon: float, alpha: float = DEFAULT_EPT_ALPHA) -> ExponentReport:
    """Polynomial-approximation-based baseline: 1 - eps/(1-alpha).

    alpha is the best known polynomial-time approximation ratio; the formula
    only applies while eps < 1 - alpha.
    """
    epsilon = _check_epsilon(epsilon)
    alpha = _real("alpha", alpha)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"alpha {alpha} outside (0, 1)")
    if epsilon >= 1.0 - alpha:
        raise DomainError(f"epsilon {epsilon} >= 1 - alpha = {1.0 - alpha}: outside the formula's regime")
    return ExponentReport(
        method=EPT, epsilon=epsilon, exponent=1.0 - epsilon / (1.0 - alpha), alpha=alpha
    )


def _check_k(k) -> int:
    k = _integer("k", k)
    if k < 1:
        raise DomainError("k must be a positive integer")
    return k


# ---------------------------------------------------------------------------
# Comparison table


@dataclass(frozen=True)
class ComparisonRow:
    k: int
    epsilon: float
    label: str
    hirsch2: float
    ours: float


# Published reference exponents (7 decimals) for the 27 (k, eps) pairs.
PUBLISHED_EXPONENTS: tuple[ComparisonRow, ...] = tuple(
    ComparisonRow(k, eps, label, h, o)
    for (k, eps, label, h, o) in [
        (3, 1.0 / 8, "1/8", 0.9455522, 0.8740555),
        (3, 0.1, "0.1", 0.9556059, 0.8923639),
        (3, 0.05, "0.05", 0.9769164, 0.9351926),
        (3, 0.04, "0.04", 0.9813843, 0.9452549),
        (3, 0.03, "0.03", 0.9859248, 0.9561051),
        (3, 0.02, "0.02", 0.9905397, 0.9680331),
        (3, 0.01, "0.01", 0.9952308, 0.9816589),
        (3, 0.001, "0.001", 0.9995195, 0.9973496),
        (3, 0.0001, "0.0001", 0.9999519, 0.9996498),
        (4, 1.0 / 16, "1/16", 0.9786263, 0.9349755),
        (4, 0.05, "0.05", 0.9827220, 0.9450690),
        (4, 0.04, "0.04", 0.9860608, 0.9537019),
        (4, 0.03, "0.03", 0.9894565, 0.9629761),
        (4, 0.02, "0.02", 0.9929106, 0.9731266),
        (4, 0.01, "0.01", 0.9964245, 0.9846550),
        (4, 0.001, "0.001", 0.9996396, 0.9978062),
        (4, 0.0001, "0.0001", 0.9999639, 0.9997120),
        (5, 1.0 / 32, "1/32", 0.9912298, 0.9670797),
        (5, 0.03, "0.03", 0.9915714, 0.9681233),
        (5, 0.02, "0.02", 0.9943312, 0.9769253),
        (5, 0.01, "0.01", 0.9971403, 0.9868757),
        (5, 0.001, "0.001", 0.9997117, 0.9981403),
        (5, 0.0001, "0.0001", 0.9999711, 0.9997571),
        (6, 1.0 / 64, "1/64", 0.9962960, 0.9834889),
        (6, 0.01, "0.01", 0.9976173, 0.9885602),
        (6, 0.001, "0.001", 0.9997598, 0.9983910),
        (6, 0.0001, "0.0001", 0.9999760, 0.9997908),
    ]
)


def comparison_table() -> tuple[ComparisonRow, ...]:
    """Recompute every comparison row, rounded half-even to 7 decimals."""
    rows = []
    for ref in PUBLISHED_EXPONENTS:
        h = exponent_hirsch2(ref.k, ref.epsilon).exponent
        o = exponent_ours_eksat(ref.k, ref.epsilon).exponent
        rows.append(ComparisonRow(ref.k, ref.epsilon, ref.label, round(h, 7), round(o, 7)))
    return tuple(rows)
