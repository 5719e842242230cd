"""Instance builders shared by the test modules; a plain module, so it
imports the same way whichever test directories one pytest run collects."""

from maxcsp import CspInstance, clause_from_literals


def clauses_instance(num_vars, literal_lists, weights=None, clause_built=True):
    """Instance from a list of literal tuples, unit weights by default."""
    if weights is None:
        weights = [1.0] * len(literal_lists)
    constraints = tuple(
        clause_from_literals(lits, w) for lits, w in zip(literal_lists, weights)
    )
    return CspInstance(num_vars, constraints, clause_built=clause_built)
