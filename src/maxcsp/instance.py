"""Weighted MAX-CSP instances with explicit truth-table constraints.

Conventions used throughout the package:

* Variables are numbered 1..n externally; an assignment is a 0/1 vector
  whose entry i-1 is the value of variable i.
* A constraint over variables ``(v_1, ..., v_a)`` packs its truth table
  into an int: bit ``t`` holds the satisfied/violated value of the row
  where each ``v_j`` takes bit ``j`` of ``t`` (bit 0 belongs to the first
  listed variable).
* Derived sums (total weight, weighted length, per-variable contributions)
  are accumulated sequentially in constraint order, so every derived
  quantity is bit-for-bit reproducible.
* ``weight_of`` is the scalar reference. ``weight_of_batch`` evaluates on
  lane words (``rng.pack_lanes``: one word holds one variable of 64 rows)
  through ``weight_of_lanes``, the kernel's one entry, which turns each
  truth table into a few word operations by Shannon expansion and returns
  exactly ``weight_of``'s values. It reads stacks of consecutive constraint
  blocks (``_STACK_BYTES``). Counted weights are added bit-sliced into bit
  planes, exact in any order, by one carry-save reduction per stack over
  the weight bits (``_carry_save``), and decoded into unsigned integers
  (``_weight_dtype``). Other weights are added in float64 in constraint
  order, as ``weight_of`` adds them: a slice of constraints at a time, by
  one ``np.add.reduce`` down axis 0 of their weights where satisfied under
  the running total. So numpy calls are few and large at any row count.
* ``CspInstance._quantized(e)`` floors every weight to a multiple of a
  power of two u = 2**e, in units of u, a counted instance, and bounds
  each row's float weight by its count with exact margins, from which
  it alone derives the ``slack`` and the threshold ``window`` that decide
  rows by count (``_Quantization``). It is built on first use and cached
  per instance and per e. The oracle reads it to decide most rows of its
  tables, at its own u, and the sampler to evaluate in float only the rows
  that can be prefix maxima, at its own.
* Each thread keeps the kernel's constraint stack and reuses it in its next
  call (``_stack_buffer``), so a run of small calls does not make the
  allocator grow and trim the heap every time. A thread keeps at most
  ``_STACK_BYTES`` of stack, or one block of 64 constraints if that is
  larger. Every other array of a call is its own, and every result is the
  caller's.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionError, DomainError, FormatError, UnsupportedError, _integer, _real
from .rng import pack_lanes, unpack_bits

MAX_ARITY = 20


@dataclass(frozen=True)
class Constraint:
    """One weighted Boolean constraint over a tuple of distinct variables."""

    weight: float
    vars: tuple[int, ...]
    truth_table: int

    def __post_init__(self):
        object.__setattr__(self, "weight", _real("weight", self.weight))
        object.__setattr__(self, "vars", tuple(_integer("variable", v) for v in self.vars))
        object.__setattr__(self, "truth_table", _integer("truth table", self.truth_table))
        if not np.isfinite(self.weight) or self.weight <= 0.0:
            raise DomainError("constraint weight must be a positive real")
        a = len(self.vars)
        if a == 0:
            raise FormatError("constraint must mention at least one variable")
        if a > MAX_ARITY:
            raise FormatError(f"arity {a} exceeds the supported maximum {MAX_ARITY}")
        if len(set(self.vars)) != a:
            raise FormatError("repeated variable in constraint")
        if any(v < 1 for v in self.vars):
            raise FormatError("variable indices are 1-based")
        if not 0 <= self.truth_table < (1 << (1 << a)):
            raise FormatError("truth table does not match the constraint arity")

    @property
    def arity(self) -> int:
        return len(self.vars)

    @property
    def table_string(self) -> str:
        """Truth table as a '0'/'1' string; character t is the row-t value."""
        return "".join("1" if (self.truth_table >> t) & 1 else "0" for t in range(1 << self.arity))

    @classmethod
    def from_table_string(cls, weight: float, variables: Sequence[int], table: str) -> "Constraint":
        if len(table) != 1 << len(variables):
            raise FormatError("truth table length must be 2^arity")
        if set(table) - {"0", "1"}:
            raise FormatError("truth table must consist of '0'/'1' characters")
        tt = 0
        for t, ch in enumerate(table):
            if ch == "1":
                tt |= 1 << t
        return cls(weight, tuple(variables), tt)

    def row_index(self, bits: Sequence[int]) -> int:
        """Table row selected by a full assignment (bits[i] = value of x_{i+1})."""
        t = 0
        for j, v in enumerate(self.vars):
            t |= bits[v - 1] << j
        return t

    def evaluate(self, bits: Sequence[int]) -> bool:
        return bool((self.truth_table >> self.row_index(bits)) & 1)


@dataclass(frozen=True)
class Assignment:
    """A full 0/1 assignment to the variables of an instance."""

    bits: tuple[int, ...]

    def __post_init__(self):
        # integers and bools pass; a float or a string is a DomainError, never a truncated bit
        bits = tuple(int(b) if isinstance(b, (bool, np.bool_)) else _integer("assignment bit", b) for b in self.bits)
        object.__setattr__(self, "bits", bits)
        if not self.bits:
            raise DomainError("assignment must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise DomainError("assignment bits must be 0 or 1")

    @classmethod
    def from_int(cls, value: int, num_vars: int) -> "Assignment":
        """Decode a little-endian packed assignment (bit i-1 = variable i) of 0..2^num_vars - 1."""
        value = _integer("value", value)
        if value < 0 or value.bit_length() > num_vars:
            raise DomainError(f"value {value} outside 0..2^{num_vars} - 1")
        return cls(tuple((value >> i) & 1 for i in range(num_vars)))

    @classmethod
    def from_string(cls, text: str) -> "Assignment":
        text = text.strip()
        if set(text) - {"0", "1"}:
            raise DomainError(f"assignment string must consist of '0'/'1' characters, got {text!r}")
        return cls(tuple(c == "1" for c in text))

    def to_int(self) -> int:
        v = 0
        for i, b in enumerate(self.bits):
            v |= b << i
        return v

    def __len__(self) -> int:
        return len(self.bits)

    def __str__(self) -> str:
        return "".join(str(b) for b in self.bits)


@dataclass(frozen=True)
class CspInstance:
    """An immutable weighted MAX-CSP instance.

    ``clause_built`` records whether every constraint came from a CNF/WCNF
    clause; clause-only operations (length histogram, CNF serialization)
    require it. Cached derived quantities:

    * ``total_weight``      w  = sum of constraint weights
    * ``weighted_length``   l  = sum of arity * weight
    * ``contributions``     l_i = total weight of constraints mentioning x_i
    """

    num_vars: int
    constraints: tuple[Constraint, ...]
    clause_built: bool = field(default=False, compare=False)
    total_weight: float = field(init=False, compare=False)
    weighted_length: float = field(init=False, compare=False)
    contributions: tuple[float, ...] = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "num_vars", _integer("num_vars", self.num_vars))
        object.__setattr__(self, "constraints", tuple(self.constraints))
        if self.num_vars < 1:
            raise DomainError("instance needs at least one variable")
        if not self.constraints:
            raise DomainError("instance needs at least one constraint")
        contrib = [0.0] * self.num_vars
        w = 0.0
        ell = 0.0
        for c in self.constraints:
            if max(c.vars) > self.num_vars:
                raise FormatError(
                    f"constraint mentions variable {max(c.vars)} but the instance has {self.num_vars}"
                )
            w += c.weight
            ell += c.arity * c.weight
            for v in c.vars:
                contrib[v - 1] += c.weight
        if not np.isfinite(ell):  # w and every l_i sum no larger terms
            raise DomainError(f"weighted length {ell} overflows a float")
        object.__setattr__(self, "total_weight", w)
        object.__setattr__(self, "weighted_length", ell)
        object.__setattr__(self, "contributions", tuple(contrib))

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    @cached_property
    def integer_weights(self) -> bool:
        """True when every weight is integral; such instances evaluate exactly."""
        return all(c.weight.is_integer() for c in self.constraints)

    @cached_property
    def counted_weights(self) -> bool:
        """True when the weights are integers of total at most 2**53, which the kernel counts exactly."""
        return self.integer_weights and sum(int(c.weight) for c in self.constraints) <= 1 << 53

    @cached_property
    def _lane_plan(self):
        return _lane_plan(self)

    @cached_property
    def _cofactors(self) -> tuple["CspInstance | None", tuple[tuple["CspInstance | None", int], ...]]:
        """(inner, quarters): this instance split on its top two variables x(n-1) and x(n).

        ``inner`` holds the constraints over x1..x(n-2), as an instance over
        n-2 variables, or None if there are none. Quarter q, where x(n-1) =
        q & 1 and x(n) = q >> 1, is (instance or None, constant): the other
        constraints with those two variables fixed (``_restrict``), over
        n-2 variables, and the integer weight of those the fixing satisfies
        outright; those it falsifies are dropped. Each part keeps the
        constraint order. For counted weights only: the oracle builds its
        tables from them.
        """
        low = self.num_vars - 2
        inner = tuple(c for c in self.constraints if max(c.vars) <= low)
        outer = [c for c in self.constraints if max(c.vars) > low]
        quarters = []
        for q in range(4):
            kept, constant = [], 0
            for c in outer:
                rest = _restrict(c, {low + 1: q & 1, low + 2: q >> 1})
                if rest is True:
                    constant += int(c.weight)
                elif rest is not False:
                    kept.append(rest)
            quarters.append((CspInstance(low, kept) if kept else None, constant))
        return (CspInstance(low, inner) if inner else None), tuple(quarters)

    @cached_property
    def _quantizations(self) -> dict[int, "_Quantization"]:
        return {}

    def _quantized(self, e: int) -> "_Quantization":
        """This instance with its weights floored to multiples of about 2**e (``_quantize``), cached per e."""
        found = self._quantizations.get(e)
        if found is None:
            found = self._quantizations[e] = _quantize(self, e)
        return found


class _Quantization(NamedTuple):
    """A counted instance whose integer weights bracket the float weight of every row.

    ``inst`` keeps each constraint with the weight floor(w_c / u), in units
    of u = 2**e, and drops it where that is 0. A row x with quantized total
    Q(x) weighs F(x) = ``weight_of(x)`` in [u*Q(x) - below, u*Q(x) + above].
    ``slack``, ceil((above + below) / u), is the least integer s for which
    Q(x) + s <= Q(y) implies F(x) <= u*Q(x) + above <= u*Q(y) - below <=
    F(y); it is 0 exactly when both margins are, and then F(x) = u*Q(x).
    """

    inst: "CspInstance"
    e: int
    below: Fraction
    above: Fraction
    slack: int

    def window(self, threshold: float) -> tuple[int, int]:
        """(maybe, sure): every row with Q >= sure weighs at least ``threshold``, and none with Q < maybe.

        u*Q - below >= threshold holds exactly when Q >= ceil((threshold +
        below) / u), and u*Q + above < threshold exactly when Q <
        ceil((threshold - above) / u). The rows in between are decided by
        their float weight.
        """
        t, u = Fraction(threshold), Fraction(2) ** self.e
        return math.ceil((t - self.above) / u), math.ceil((t + self.below) / u)


def _quantize(inst: CspInstance, e: int) -> _Quantization:
    """``inst`` with its weights floored to multiples of u = 2**e, the margins of every row, and its slack.

    e is raised as far as needed to keep the quantized total within 2**53,
    so the kernel counts it exactly, and lowered as far as needed to keep
    the heaviest constraint at least 1 unit. Write E(x) for the exact sum
    of the weights x satisfies and F(x) for ``weight_of(x)``, their float
    sum in constraint order. Each floored weight is below its weight by less
    than u, so 0 <= E(x) - u*Q(x) <= R, the sum of those shortfalls over all
    constraints: R = W - u*Q_total < u*m, with W the exact sum of the
    weights. A recursive float sum of k positive terms is within gamma_{k-1}
    = (k-1)*2**-53 / (1 - (k-1)*2**-53) of their exact sum, relative to it,
    so |F(x) - E(x)| <= g = gamma_{m-1}*W. Hence below = g and above = R +
    g, both exact fractions. Counted weights are their own quantization at
    every e: u = 1, both margins and the slack 0, with no fraction computed.
    """
    if inst.counted_weights:
        return _Quantization(inst, 0, Fraction(0), Fraction(0), 0)
    # W < 2**52 * u, and the exact sum is within a rounding of W; u <= the heaviest weight
    heaviest = max(c.weight for c in inst.constraints)
    e = min(max(e, math.frexp(inst.total_weight)[1] - 52), math.frexp(heaviest)[1] - 1)
    kept = []
    for c in inst.constraints:
        # scaling by a power of two is exact wherever the result is at least 1
        units = math.floor(math.ldexp(c.weight, -e))
        if units:
            kept.append(Constraint(float(units), c.vars, c.truth_table))
    quantized = CspInstance(inst.num_vars, tuple(kept))
    # the exact sum of the weights, each p/2**k, over their largest 2**k
    ratios = [c.weight.as_integer_ratio() for c in inst.constraints]
    scale = max(den for _, den in ratios)
    exact = Fraction(sum(num * (scale // den) for num, den in ratios), scale)
    k = inst.num_constraints - 1
    below = Fraction(k, 2**53 - k) * exact
    u = Fraction(2) ** e
    above = exact - u * int(quantized.total_weight) + below
    return _Quantization(quantized, e, below, above, math.ceil((above + below) / u))


def _restrict(c: Constraint, fixed: Mapping[int, int]) -> Constraint | bool:
    """``c`` with the variables of ``fixed`` set to their values, or True/False if that decides it.

    The truth table is unpacked into an array of shape (2,)*arity, whose
    axis k belongs to ``vars[arity-1-k]``; the fixed axes are indexed away
    and the rest packed again, over the remaining variables in their order.
    """
    table = _table_bits(c).reshape((2,) * c.arity)
    rest = table[tuple(fixed.get(v, slice(None)) for v in reversed(c.vars))]
    rest_table = int.from_bytes(np.packbits(rest, axis=None, bitorder="little").tobytes(), "little")
    if rest_table == (1 << rest.size) - 1:
        return True
    if rest_table == 0:
        return False
    return Constraint(c.weight, tuple(v for v in c.vars if v not in fixed), rest_table)


def _table_bits(c: Constraint) -> np.ndarray:
    """The truth table of ``c`` as 2^arity uint8 0/1 values, row t at index t."""
    size = 1 << c.arity
    packed = np.frombuffer(c.truth_table.to_bytes((size + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=size, bitorder="little")


def weight_of(inst: CspInstance, assignment: Assignment | Sequence[int]) -> float:
    """Total weight of the constraints satisfied by ``assignment``."""
    z = assignment if isinstance(assignment, Assignment) else Assignment(tuple(assignment))
    if len(z) != inst.num_vars:
        raise DimensionError(
            f"assignment has {len(z)} bits but the instance has {inst.num_vars} variables"
        )
    bits = z.bits
    total = 0.0
    for c in inst.constraints:
        if c.evaluate(bits):
            total += c.weight
    return total


def weight_of_batch(inst: CspInstance, bits: np.ndarray) -> np.ndarray:
    """Vectorized weights for a (batch, num_vars) 0/1 matrix, as a new array of ``_weight_dtype``.

    Accepts any memory order and any integer or bool dtype; an entry other
    than 0 or 1 raises ``DomainError``, a check a bool matrix skips. A
    Fortran-order matrix, as ``rng.assignment_bits`` returns, packs
    fastest. The columns are packed into lane words (``rng.pack_lanes``), so
    each constraint yields one satisfied word per 64 rows. Each row's result
    is bit-identical to the scalar ``weight_of`` of that row and independent
    of how the batch is chunked:

    * Integer weights whose integral total is at most 2**53: every partial sum
      of ``weight_of`` is an integer of at most 2**53, hence exact, so the
      kernel's bit-sliced count, in any order, gives its value.
    * Any other weights: each row's terms are added to its float64 total in
      constraint order, which repeats ``weight_of``'s float additions.
    """
    if bits.ndim != 2 or bits.shape[1] != inst.num_vars:
        raise DimensionError("bit matrix must have num_vars columns")
    if bits.dtype.kind not in "biu":
        raise DomainError(f"bit matrix must have an integer or bool dtype, not {bits.dtype}")
    # packing reads any nonzero entry as 1; a bool matrix holds nothing else
    if bits.dtype != bool and bits.size and not 0 <= bits.min() <= bits.max() <= 1:
        raise DomainError("bit matrix entries must be 0 or 1")
    return weight_of_lanes(inst, pack_lanes(bits), len(bits))


def _weight_dtype(inst: CspInstance) -> np.dtype:
    """The dtype of the kernel's weights of ``inst`` and of its oracle table.

    Counted weights take the smallest unsigned dtype that holds the total
    weight (uint8 for unit clauses with m <= 255), any other weights float64.
    An integer array wraps around on overflow: cast it before arithmetic
    that could leave its range, such as a difference or an added slack.
    """
    return np.min_scalar_type(int(inst.total_weight)) if inst.counted_weights else np.dtype(np.float64)


def weight_of_lanes(inst: CspInstance, lanes: np.ndarray, rows: int) -> np.ndarray:
    """Weights of the first ``rows`` items of (num_vars, words) lane words, as a new array.

    Lane word (v, b) holds variable v of items 64b..64b+63, item 64b+i at
    bit i (``rng``: ``assignment_bits`` draws them, ``pack_lanes`` packs a
    matrix into them); the values and their dtype are ``weight_of_batch``'s.
    Both sums read one loop over ``_stacks``; the count is decoded once.
    """
    if not inst.counted_weights:
        # every row of the lanes, at least 64 unless there are none: numpy
        # sums pairwise only along the fast axis, so down axis 0 of a wider
        # array it adds the rows in order
        width = 64 * lanes.shape[1]
        size = sum(len(block.weights) for block in inst._lane_plan)
        step = max(1, min(size, _STACK_BYTES // (8 * max(width, 1))))
        # row 0 holds the running total, the others a slice's weights where satisfied
        terms = np.empty((step + 1, width))
        out = np.zeros(width)
        for weights, stack in _stacks(inst._lane_plan, lanes):
            for k in range(0, len(stack), step):
                part = terms[: len(weights[k : k + step]) + 1]
                part[0] = out
                # a cast copy, then a float multiply: faster than one mixed-type multiply
                part[1:] = unpack_bits(stack[k : k + step], width)
                part[1:] *= weights[k : k + step, None]
                np.add.reduce(part, axis=0, out=out)
        return out[:rows]
    # bit planes of each row's count, least significant first, taken after the
    # first stack's words, where a call of one stack peaks; and the weight of
    # the constraints counted so far, which bounds every row's count
    planes = level = np.zeros((0, lanes.shape[1]), np.uint64)
    seen = 0
    for weights, stack in _stacks(inst._lane_plan, lanes):
        if not len(planes):
            planes = np.zeros((int(inst.total_weight).bit_length(), lanes.shape[1]), np.uint64)
        weights = weights.astype(np.int64)
        seen, present = seen + int(weights.sum()), int(np.bitwise_or.reduce(weights))
        # level j: the carries out of level j - 1, then the rows whose weight has bit j, gathered
        # into the level buffer; the stack itself if every row weighs the same power of two
        bits = range(present.bit_length()) if present & (present - 1) else ()
        members = [np.flatnonzero(weights >> j & 1) for j in bits]
        sizes = [len(member) for member in members] or [0] * (present.bit_length() - 1) + [len(stack)]
        sizes += [0] * (seen.bit_length() - len(sizes))
        size = held = carries = 0
        for count in sizes:
            size, held = max(size, held + count), (held + count + 1) // 2
        if members and len(level) < size:
            level = None  # the smaller buffer goes before the larger one comes
            level = np.empty((size, lanes.shape[1]), np.uint64)
        for j, count in enumerate(sizes):
            if j < len(members):
                np.take(stack, members[j], axis=0, out=level[carries : carries + count], mode="clip")
            count += carries
            # the carries out of the top plane would count past ``seen``: they are 0
            carries = _carry_save(level if members else stack, count, planes[j : j + 1]) if count else 0
    return _values(planes[: seen.bit_length()], rows, np.empty(rows, _weight_dtype(inst)))


# satisfiable constraints per block of the plan, grouped by expression shape
_BLOCK = 64
# bytes of satisfied words (constraints * words * 8) in one stack, at least
# one block, and of float terms (constraints * rows * 8) the float path adds
# in one reduction. Each numpy call has a fixed cost, and the count pays its
# gathers and carry-save passes per stack, so larger stacks are faster, at
# some memory. On a loaded 2-core host, at 2**19, 2**20 and 2**21 bytes, one
# 16,768-row count of sample_wcnf_wide's quantized instance took 13.6-14.1,
# 11.9-12.1 and 11.3-11.8 ms (medians of 31, one process), and the benchmark
# (8 s runs, 3 each) read sample_wcnf_wide at 113, 104 and 125 ms,
# sample_e3cnf at 10.2, 9.2 and 10.3 ms with peak RSS 51.9, 53.5 and 55.8 MB,
# ksat_desk at 0.74, 0.76 and 0.70 ms and oracle_verify at 5.8, 6.3 and 5.9
# ms. No other size holds all four, and at parallelism 2 each pool thread
# holds a stack, so 2**21 costs sample_e3cnf 2.3 MB of RSS
_STACK_BYTES = 1 << 20
# an expansion costing more word operations per variable than this loses to
# unpacking the variables and looking each row up in the table
_OPS_PER_VAR = 16
_ONES = 0xFFFFFFFFFFFFFFFF


# each thread's constraint stack (``_stack_buffer``)
_held = threading.local()


def _stack_buffer(rows: int, words: int) -> np.ndarray:
    """This thread's (rows, words) uint64 stack, in the memory its earlier requests took.

    The memory grows to the largest request and is kept while the thread
    lives. The content is whatever the last call left, and the thread's next
    request hands the same memory out again, so the stack must not outlive
    the call that takes it.
    """
    size = rows * words
    held = getattr(_held, "stack", None)
    if held is None or held.size < size:
        _held.stack = None  # the smaller array goes before the larger one comes
        held = _held.stack = np.empty(size, np.uint64)
    return held[:size].reshape(rows, words)


class _Block(NamedTuple):
    """Consecutive satisfiable constraints, grouped by expression shape.

    ``groups`` holds (shape, rows, variables, negations): the block rows
    sharing a shape (a slice when they form one run) and, per literal slot,
    their lane indices and the (rows, 1) masks that negate them. ``lookups``
    holds (row, table, variables) for the tables evaluated by row lookup.
    """

    weights: np.ndarray
    groups: tuple
    lookups: tuple


def _lane_plan(inst: CspInstance) -> list[_Block]:
    """Blocks of the satisfiable constraints, in constraint order."""
    terms = []
    for c in inst.constraints:
        variables = tuple(v - 1 for v in c.vars)
        found = _shannon(c.truth_table, variables, _OPS_PER_VAR * c.arity)
        if found is None:
            terms.append((c.weight, None, (_table_bits(c).view(bool), variables)))
        elif found[0] is not False:
            terms.append((c.weight, found[0], None))
    return [_block(terms[start : start + _BLOCK]) for start in range(0, len(terms), _BLOCK)]


def _block(terms) -> _Block:
    shapes: dict[object, list] = {}
    lookups = []
    for row, (_, expr, wide) in enumerate(terms):
        if wide is not None:
            lookups.append((row, *wide))
        else:
            literals: list[int] = []
            shapes.setdefault(_shape(expr, literals), []).append((row, literals))
    groups = []
    for shape, members in shapes.items():
        rows = np.array([row for row, _ in members], np.intp)
        if rows[-1] - rows[0] == len(rows) - 1:
            rows = slice(int(rows[0]), int(rows[-1]) + 1)
        literals = np.array([lits for _, lits in members], np.intp).reshape(len(members), -1)
        variables = tuple(np.where(col < 0, ~col, col) for col in literals.T)
        negations = tuple(
            np.where(col < 0, np.uint64(_ONES), np.uint64(0))[:, None] for col in literals.T
        )
        groups.append((shape, rows, variables, negations))
    return _Block(np.array([w for w, _, _ in terms]), tuple(groups), tuple(lookups))


def _shannon(table: int, variables: tuple[int, ...], budget: int):
    """(expression, binary word operations) for a truth table, or None past ``budget``.

    Expands on the last variable x, f = x ? hi : lo, and folds constant
    halves, so a clause costs one operation per literal after the first. An
    expression is True or False, a literal (lane index v, or ~v for its
    negation), or (ufunc, *operands) with the literal operand last, so an
    in-place evaluation holds one fresh literal at a time.
    """
    k = len(variables)
    if table == 0:
        return False, 0
    if table == (1 << (1 << k)) - 1:
        return True, 0
    half = 1 << (k - 1)
    lo, hi = table & ((1 << half) - 1), table >> half
    if lo == hi:
        return _shannon(lo, variables[:-1], budget)
    found = _shannon(lo, variables[:-1], budget)
    if found is None:
        return None
    lo_e, cost = found
    found = _shannon(hi, variables[:-1], budget - cost)
    if found is None:
        return None
    hi_e, hi_cost = found
    x = variables[-1]
    if lo_e is False:
        expr, ops = (x, 0) if hi_e is True else ((np.bitwise_and, hi_e, x), 1)
    elif lo_e is True:
        expr, ops = (~x, 0) if hi_e is False else ((np.bitwise_or, hi_e, ~x), 1)
    elif hi_e is False:
        expr, ops = (np.bitwise_and, lo_e, ~x), 1
    elif hi_e is True:
        expr, ops = (np.bitwise_or, lo_e, x), 1
    else:
        expr, ops = (np.bitwise_or, (np.bitwise_and, hi_e, x), (np.bitwise_and, lo_e, ~x)), 3
    cost += hi_cost + ops
    return (expr, cost) if cost <= budget else None


def _shape(expr, literals: list[int]):
    """``expr`` with each literal replaced by its slot number; the literals go to ``literals``."""
    if expr is True:
        return True
    if type(expr) is int:
        literals.append(expr)
        return len(literals) - 1
    return (expr[0], *(_shape(e, literals) for e in expr[1:]))


def _shape_words(shape, variables, negations, lanes: np.ndarray, out=None) -> np.ndarray:
    """(rows, words) satisfied words of the constraints sharing ``shape``, into ``out`` if given.

    The first operand of each operation is evaluated into the result and the
    operation applied in place, so only the other operands take fresh arrays.
    """
    if type(shape) is int:
        # mode "clip" changes no valid index, and take writes to out unbuffered
        words = np.take(lanes, variables[shape], axis=0, out=out, mode="clip")
        words ^= negations[shape]
        return words
    words = _shape_words(shape[1], variables, negations, lanes, out)
    for operand in shape[2:]:
        shape[0](words, _shape_words(operand, variables, negations, lanes), words)
    return words


def _values(planes, rows: int, out: np.ndarray) -> np.ndarray:
    """``out`` filled with per-row integers whose bit j is lane-word plane j.

    The planes are unpacked one at a time, each shifted in from the top in
    place, so the decode holds one unpacked plane at a time, however many
    bits the values have. The shift is a doubling: numpy adds 8-bit integers
    about ten times faster than it shifts them.
    """
    out.fill(0)
    for plane in planes[::-1]:
        out += out
        out |= unpack_bits(plane.reshape(1, -1), rows)[0]
    return out


def _satisfied_words(block: _Block, lanes: np.ndarray, stack: np.ndarray) -> None:
    """Fill the first rows of the (rows, words) ``stack`` with a block's satisfied words, in order.

    A shape group whose rows form one run is evaluated straight into them;
    the other groups are evaluated apart and scattered. A wide table unpacks
    its variables into row indices, looks each row up and packs it back.
    """
    for shape, rows, variables, negations in block.groups:
        if shape is True:
            stack[rows] = _ONES
        elif type(rows) is slice:
            _shape_words(shape, variables, negations, lanes, stack[rows])
        else:
            stack[rows] = _shape_words(shape, variables, negations, lanes)
    for row, table, variables in block.lookups:
        count = 64 * lanes.shape[1]
        t = _values(lanes[list(variables)], count, np.empty(count, np.intp))
        stack[row] = np.packbits(table[t], bitorder="little").view("<u8")


def _stacks(blocks: list[_Block], lanes: np.ndarray):
    """(weights, stack) per run of consecutive blocks; the stack holds their satisfied words.

    Every stack is a view of the thread's one stack buffer (``_stack_buffer``)
    of at most ``_STACK_BYTES`` (at least one block), which the next stack
    overwrites. Rows and weights are in constraint order.
    """
    words = lanes.shape[1]
    per_stack = max(1, _STACK_BYTES // (8 * _BLOCK * max(words, 1)))
    size = min(per_stack * _BLOCK, sum(len(block.weights) for block in blocks))
    buffer = _stack_buffer(size, words)
    for first in range(0, len(blocks), per_stack):
        run = blocks[first : first + per_stack]
        weights = np.concatenate([block.weights for block in run])
        stack = buffer[: len(weights)]
        # every block of the plan but the last holds _BLOCK constraints
        for i, block in enumerate(run):
            _satisfied_words(block, lanes, stack[i * _BLOCK :])
        yield weights, stack


def _carry_save(rows: np.ndarray, count: int, plane: np.ndarray) -> int:
    """Add the first ``count`` rows, words of one bit level, into the (1, words) ``plane`` in place.

    Each pass adds the level's rows three at a time, a <- carry and c <- sum,
    and moves the carries into rows that earlier passes freed, so carries
    lead and the level's rows trail, until at most two add into the plane.
    Returns the number of carries, of the next level, now leading: (count + 1) // 2.
    """
    carries = start = 0
    while count - start >= 3:
        third = (count - start) // 3
        b, c = start + third, start + 2 * third
        _full_add(rows[start:b], rows[b:c], rows[c : c + third])
        if carries < start:
            rows[carries : carries + third] = rows[start:b]
        carries, start = carries + third, c
    a = rows[start : start + 1]
    if count - start == 2:
        _full_add(a, rows[start + 1 : start + 2], plane)
    else:
        # half adder: plane <- a ^ plane, then a <- (a | plane) ^ plane = a & plane_old
        np.bitwise_xor(plane, a, plane)
        np.bitwise_or(a, plane, a)
        np.bitwise_xor(a, plane, a)
    rows[carries] = a[0]  # a copy onto itself when no pass ran
    return carries + 1


def _full_add(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> None:
    """In place, c <- a ^ b ^ c and a <- majority(a, b, c) = ((a ^ c) | (a ^ b)) ^ sum; b is spent."""
    np.bitwise_xor(b, a, b)
    np.bitwise_xor(a, c, a)
    np.bitwise_xor(c, b, c)
    np.bitwise_or(a, b, a)
    np.bitwise_xor(a, c, a)


def contribution(inst: CspInstance, i: int) -> float:
    """Total weight of the constraints whose variable list includes x_i."""
    if not 1 <= i <= inst.num_vars:
        raise DomainError(f"variable index {i} out of range 1..{inst.num_vars}")
    return inst.contributions[i - 1]


def clause_from_literals(literals: Iterable[int], weight: float = 1.0) -> Constraint:
    """Constraint form of a disjunctive clause given as signed 1-based literals.

    The truth table is 0 only at the single row falsifying every literal.
    """
    lits = tuple(int(l) for l in literals)
    if not lits:
        raise FormatError("empty clause")
    if any(l == 0 for l in lits):
        raise FormatError("literal 0 is not allowed")
    variables = tuple(abs(l) for l in lits)
    if len(set(variables)) != len(variables):
        raise FormatError("variable repeated in clause (duplicate or tautological literal)")
    falsifying = 0
    for j, l in enumerate(lits):
        if l < 0:
            falsifying |= 1 << j
    a = len(lits)
    if a > MAX_ARITY:
        raise FormatError(f"arity {a} exceeds the supported maximum {MAX_ARITY}")
    table = ((1 << (1 << a)) - 1) ^ (1 << falsifying)
    return Constraint(weight, variables, table)


def clause_literals(c: Constraint) -> tuple[int, ...]:
    """Recover the signed literals of a clause constraint.

    Raises UnsupportedError when the truth table is not that of a clause
    (exactly one falsifying row).
    """
    full = (1 << (1 << c.arity)) - 1
    missing = c.truth_table ^ full
    if missing == 0 or missing & (missing - 1):
        raise UnsupportedError("constraint is not a clause")
    falsifying = missing.bit_length() - 1
    return tuple(-v if (falsifying >> j) & 1 else v for j, v in enumerate(c.vars))


def clause_length_histogram(inst: CspInstance) -> dict[int, int]:
    """Map clause length -> number of clauses of that length."""
    if not inst.clause_built:
        raise UnsupportedError("length histogram requires a clause-built instance")
    hist: dict[int, int] = {}
    for c in inst.constraints:
        hist[c.arity] = hist.get(c.arity, 0) + 1
    return dict(sorted(hist.items()))


def ksat_optimum_lower_bound(histogram: Mapping[int, int]) -> float:
    """Guaranteed satisfiable clause count: sum over lengths of (2^i-1)/2^i * m_i.

    A uniformly random assignment satisfies a length-i clause with
    probability (2^i-1)/2^i, so some assignment meets this bound.
    """
    return sum((1.0 - 0.5 ** i) * m_i for i, m_i in sorted(histogram.items()))
