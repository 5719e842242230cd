"""Instance builders shared by the test modules; a plain module, so it
imports the same way whichever test directories one pytest run collects."""

import numpy as np

from maxcsp import Constraint, CspInstance, clause_from_literals


def clauses_instance(num_vars, literal_lists, weights=None, clause_built=True):
    """Instance from a list of literal tuples, unit weights by default."""
    if weights is None:
        weights = [1.0] * len(literal_lists)
    constraints = tuple(
        clause_from_literals(lits, w) for lits, w in zip(literal_lists, weights)
    )
    return CspInstance(num_vars, constraints, clause_built=clause_built)


def reweighted(inst, weights):
    """``inst`` with constraint i given weights[i]."""
    return CspInstance(
        inst.num_vars,
        tuple(Constraint(w, c.vars, c.truth_table) for w, c in zip(weights, inst.constraints)),
        clause_built=inst.clause_built,
    )


def weight_dtype(inst):
    """The dtype of ``inst``'s kernel weights and oracle table: counted weights
    in the smallest unsigned dtype that holds the total weight, others float64."""
    return np.min_scalar_type(int(inst.total_weight)) if inst.counted_weights else np.dtype(np.float64)
