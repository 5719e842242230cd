"""Seeded random instance generators for test corpora and the CLI."""

from __future__ import annotations

import numpy as np

from .bounds import _seed
from .errors import DomainError, _integer
from .instance import MAX_ARITY, Constraint, CspInstance, clause_from_literals


def _arguments(num_vars, count: tuple[str, object], width: tuple[str, object], seed):
    """(num_vars, count, width, rng) of a generator: ints, checked before any draw.

    ``count`` and ``width`` are (name, value) pairs; the width, a clause
    length or arity, lies in 1..MAX_ARITY, and the seed in [0, 2**64).
    """
    num_vars = _integer("num_vars", num_vars)
    (count_name, count), (width_name, width) = count, width
    count, width = _integer(count_name, count), _integer(width_name, width)
    if num_vars < 1 or count < 1:
        raise DomainError("need at least one variable and one constraint")
    if not 1 <= width <= MAX_ARITY:
        raise DomainError(f"{width_name}={width} outside 1..{MAX_ARITY}")
    return num_vars, count, width, np.random.default_rng(_seed(seed))


def random_ekcnf(num_vars: int, num_clauses: int, k: int, seed: int) -> CspInstance:
    """Uniform random exact-length-k CNF with unit weights.

    Each clause draws k distinct variables without replacement and negates
    each independently with probability 1/2. Deterministic in ``seed``.
    """
    num_vars, num_clauses, k, rng = _arguments(
        num_vars, ("num_clauses", num_clauses), ("k", k), seed
    )
    if k > num_vars:
        raise DomainError(f"k={k} outside 1..{num_vars}")
    clauses = []
    for _ in range(num_clauses):
        variables = rng.choice(num_vars, size=k, replace=False) + 1
        signs = rng.integers(0, 2, size=k)
        lits = [int(v) if s else -int(v) for v, s in zip(variables, signs)]
        clauses.append(clause_from_literals(lits, 1.0))
    return CspInstance(num_vars, tuple(clauses), clause_built=True)


def random_wcnf(num_vars: int, num_clauses: int, max_len: int, seed: int) -> CspInstance:
    """Random weighted CNF with real weights and mixed clause lengths."""
    num_vars, num_clauses, max_len, rng = _arguments(
        num_vars, ("num_clauses", num_clauses), ("max_len", max_len), seed
    )
    max_len = min(max_len, num_vars)
    clauses = []
    for _ in range(num_clauses):
        a = int(rng.integers(1, max_len + 1))
        variables = rng.choice(num_vars, size=a, replace=False) + 1
        signs = rng.integers(0, 2, size=a)
        lits = [int(v) if s else -int(v) for v, s in zip(variables, signs)]
        clauses.append(clause_from_literals(lits, float(rng.uniform(0.1, 10.0))))
    return CspInstance(num_vars, tuple(clauses), clause_built=True)


def random_csp(num_vars: int, num_constraints: int, max_arity: int, seed: int) -> CspInstance:
    """Random truth-table constraints with real weights."""
    num_vars, num_constraints, max_arity, rng = _arguments(
        num_vars, ("num_constraints", num_constraints), ("max_arity", max_arity), seed
    )
    max_arity = min(max_arity, num_vars)
    constraints = []
    for _ in range(num_constraints):
        a = int(rng.integers(1, max_arity + 1))
        variables = tuple(int(v) for v in rng.choice(num_vars, size=a, replace=False) + 1)
        table = 0
        for t in range(1 << a):
            if rng.integers(0, 2):
                table |= 1 << t
        constraints.append(Constraint(float(rng.uniform(0.1, 10.0)), variables, table))
    return CspInstance(num_vars, tuple(constraints), clause_built=False)
