"""Exhaustive enumeration of an instance's solutions, the reference the
tests hold propagation and pruning to."""

import itertools

from ccsp.errors import OracleBudgetError
from ccsp.harness import oracle_budget
from ccsp.model import Instance


def brute_force_solutions(inst: Instance) -> set[tuple]:
    """All solutions as value tuples in variable order, within
    `oracle_budget()` assignments."""
    limit = oracle_budget()
    total = 1
    for v in inst.variables:
        total *= max(1, len(inst.domains[v]))
        if total > limit:
            raise OracleBudgetError("solution enumeration exceeds the budget")
    sols = set()
    for combo in itertools.product(*(sorted(inst.domains[v])
                                     for v in inst.variables)):
        assignment = dict(zip(inst.variables, combo))
        if all(tuple(assignment[v] for v in scope) in rel.tuples
               for scope, rel in inst.constraints):
            sols.add(combo)
    return sols
