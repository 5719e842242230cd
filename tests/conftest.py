import os
from pathlib import Path

import pytest

from maxcsp import CspInstance, clause_from_literals

# tests that start the CLI in a subprocess import the package from this
# checkout, as pytest itself does (``pythonpath`` in pyproject.toml)
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


def clauses_instance(num_vars, literal_lists, weights=None, clause_built=True):
    """Instance from a list of literal tuples, unit weights by default."""
    if weights is None:
        weights = [1.0] * len(literal_lists)
    constraints = tuple(
        clause_from_literals(lits, w) for lits, w in zip(literal_lists, weights)
    )
    return CspInstance(num_vars, constraints, clause_built=clause_built)


@pytest.fixture
def complementary_units():
    """(x1) and (not x1): every assignment weighs exactly 1."""
    return clauses_instance(1, [(1,), (-1,)])


@pytest.fixture
def two_triples():
    """(x1 v x2 v x3) and (x1 v x2 v x4): w=2, l=6, contributions (2,2,1,1)."""
    return clauses_instance(4, [(1, 2, 3), (1, 2, 4)])


@pytest.fixture
def single_pair():
    """(x1 v x2): satisfied by three of the four assignments."""
    return clauses_instance(2, [(1, 2)])
