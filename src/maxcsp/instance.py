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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, DomainError, FormatError, UnsupportedError

MAX_ARITY = 20


@dataclass(frozen=True)
class Constraint:
    """One weighted Boolean constraint over a tuple of distinct variables."""

    weight: float
    vars: tuple[int, ...]
    truth_table: int

    def __post_init__(self):
        object.__setattr__(self, "weight", float(self.weight))
        object.__setattr__(self, "vars", tuple(int(v) for v in self.vars))
        object.__setattr__(self, "truth_table", int(self.truth_table))
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
        object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        if not self.bits:
            raise DomainError("assignment must have at least one bit")
        if any(b not in (0, 1) for b in self.bits):
            raise DomainError("assignment bits must be 0 or 1")

    @classmethod
    def from_int(cls, value: int, num_vars: int) -> "Assignment":
        """Decode a little-endian packed assignment (bit i-1 = variable i)."""
        return cls(tuple((value >> i) & 1 for i in range(num_vars)))

    @classmethod
    def from_string(cls, text: str) -> "Assignment":
        return cls(tuple(int(c) for c in text.strip()))

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
        object.__setattr__(self, "num_vars", int(self.num_vars))
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
    """Vectorized weights for a (batch, num_vars) 0/1 matrix.

    Accepts any memory order and any dtype holding 0/1 values; it makes one
    uint8 Fortran-order copy, so each variable's column is contiguous.
    Accumulates per constraint in instance order, elementwise, so each row's
    result is bit-identical to the scalar ``weight_of`` of that row and is
    independent of how the batch is chunked.
    """
    if bits.ndim != 2 or bits.shape[1] != inst.num_vars:
        raise DimensionError("bit matrix must have num_vars columns")
    cols = np.asfortranarray(bits, dtype=np.uint8)
    out = np.zeros(len(cols), dtype=np.float64)
    for c in inst.constraints:
        size = 1 << c.arity
        packed = np.frombuffer(c.truth_table.to_bytes((size + 7) // 8, "little"), np.uint8)
        table = np.unpackbits(packed, count=size, bitorder="little").view(bool)
        t = cols[:, c.vars[0] - 1].astype(np.intp)
        for j, v in enumerate(c.vars[1:], 1):
            t |= cols[:, v - 1].astype(np.intp) << j
        out += c.weight * table[t]
    return out


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
    return sum((float((1 << i) - 1) / float(1 << i)) * m_i for i, m_i in sorted(histogram.items()))
