"""Exhaustive enumeration of an instance's solutions and of its
3-minimal tables, the references the tests hold propagation and pruning
to; neither uses the engine's code."""

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


def reference_fixpoint(inst):
    """Greatest fixpoint over explicit tables on every set of one to three
    variables, by plain full passes; None when a table empties."""
    keys = [k for size in (1, 2, 3)
            for k in itertools.combinations(inst.variables, size)]
    tab = {k: set(itertools.product(*(inst.domains[v] for v in k)))
           for k in keys}
    cons = [(scope, {t for t in rel.tuples if all(
        t[i] == t[scope.index(v)] for i, v in enumerate(scope))})
        for scope, rel in inst.constraints]
    changed = True
    while changed and all(tab.values()):
        changed = False
        for scope, tuples in cons:
            subs = [k for k in keys if set(k) <= set(scope)]

            def proj(t, k):
                return tuple(t[scope.index(v)] for v in k)
            keep = {t for t in tuples if all(proj(t, k) in tab[k] for k in subs)}
            changed |= len(keep) < len(tuples)
            tuples &= keep
            for k in subs:
                new = tab[k] & {proj(t, k) for t in tuples}
                changed |= len(new) < len(tab[k])
                tab[k] = new
        for k in keys[len(inst.variables):]:
            for sub in itertools.combinations(range(len(k)), len(k) - 1):
                skey = tuple(k[i] for i in sub)
                new = {t for t in tab[k] if tuple(t[i] for i in sub) in tab[skey]}
                changed |= len(new) < len(tab[k])
                tab[k] = new
                down = tab[skey] & {tuple(t[i] for i in sub) for t in new}
                changed |= len(down) < len(tab[skey])
                tab[skey] = down
    if not all(tab.values()) or not all(t for _s, t in cons):
        return None
    return tab, [t for _s, t in cons]
