import os
from pathlib import Path

import pytest

from helpers import clauses_instance

# tests that start the CLI in a subprocess import the package from this
# checkout, as pytest itself does (``pythonpath`` in pyproject.toml)
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


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
