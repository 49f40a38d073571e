"""The two problem reductions used by the solver.

1. Component exclusion: choose one as-component per variable meeting every
   constraint (a consistent collection), split the instance along the
   strands with a choice left, cutting every constraint along them in one
   pass, and either combine the strand solutions with the one value of
   every other variable's component or exclude a failed strand's
   components from the domains.

2. Retraction via the multiplied instance: build an instance over variables
   (v, b) whose solutions induce consistent self-maps of the domains;
   iterate a non-permutational family to idempotency and retract the
   instance onto the images, strictly shrinking it.  For consistent,
   idempotent maps the image of a relation is exactly its tuples inside
   the images, so the retraction is the restriction to the images.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .classify import EdgeLabeledGraph
from .errors import InternalInvariantError, InvalidArgumentError
from .minimality import Propagator
from .model import (Algebra, Constraint, Instance, SolveResult,
                    close_under_ops, relation, restrict_instance, summ,
                    verify_assignment)
from .structure import as_components, strands_of_instance

ConsistentCollection = dict  # variable -> frozenset (an as-component)


def _constraint_ok(scope: tuple, tuples, chosen: dict) -> bool:
    return any(all(a in chosen[v] for a, v in zip(t, scope)) for t in tuples)


def find_consistent_collection(inst: Instance, graph: EdgeLabeledGraph,
                               engine: Propagator) -> ConsistentCollection:
    """Extend a collection variable by variable, never backtracking; each
    choice must meet the constraints and the pair and triple tables of the
    instance's 3-minimality `engine`.

    Each constraint and table is checked once, when the last of its
    variables is chosen, so every constraint keeps a tuple inside the
    chosen components; split_by_strands relies on this to solve a strand
    of singleton components without recursion.  A check with only some of
    a table's variables chosen would add nothing on scopes of at most three
    variables: at the fixpoint a table projects onto its sub-tables, so
    such a check is the full check of a smaller table, made when that
    table's last variable was chosen, or holds for any components, as a
    domain or a default pair (a product of domains) does.

    On a 3-minimal instance some extension always exists; failure to extend
    therefore signals an upstream bug and raises loudly.
    """
    order = {v: i for i, v in enumerate(inst.variables)}
    by_var: dict = {v: [] for v in inst.variables}
    tables = [(scope, rel.tuples) for scope, rel in inst.constraints]
    tables += engine.nontrivial_items()
    for scope, tuples in tables:
        by_var[max(scope, key=order.__getitem__)].append((scope, tuples))

    comps = {d: as_components(d, graph) for d in set(inst.domains.values())}
    coll: ConsistentCollection = {}
    for v in inst.variables:
        for comp in comps[inst.domains[v]]:
            coll[v] = comp
            if all(_constraint_ok(k, t, coll) for k, t in by_var[v]):
                break
            del coll[v]
        else:
            raise InternalInvariantError(
                f"no as-component of {v!r} extends the partial collection; "
                "the instance is not 3-minimal or tables are stale")
    return coll


def split_by_strands(inst: Instance, coll: ConsistentCollection
                     ) -> list[tuple[frozenset, Instance]]:
    """Each strand with a choice left (a chosen component of more than one
    value) with its sub-instance over the chosen components.

    A strand whose chosen components are all singletons is left out: the
    one value of each component solves it.  Every constraint keeps a tuple
    inside the chosen components (see find_consistent_collection), and on
    such a strand that tuple's values are the forced ones, so it satisfies
    the constraint's cut there and the strand cannot fail.

    One pass cuts every constraint along the returned strands it meets: a
    strand gets, unless it holds them already, the tuples whose values at
    its positions lie in the chosen components, projected onto those
    positions.
    """
    strands = [strand for strand in strands_of_instance(inst, coll)
               if any(len(coll[v]) > 1 for v in strand)]
    home = {v: k for k, strand in enumerate(strands) for v in strand}
    cons: list[dict] = [{} for _ in strands]  # (scope, tuples) -> constraint
    for scope, rel in inst.constraints:
        for k in dict.fromkeys(home[v] for v in scope if v in home):
            pos = [i for i, v in enumerate(scope) if home.get(v) == k]
            sub = tuple(scope[i] for i in pos)
            doms = [coll[v] for v in sub]
            tuples = frozenset(tuple(t[i] for i in pos) for t in rel.tuples
                               if all(t[i] in d for i, d in zip(pos, doms)))
            if (sub, tuples) not in cons[k]:
                cons[k][sub, tuples] = Constraint(
                    sub, relation(tuples, signature=doms))
    return [(strand, Instance([v for v in inst.variables if v in strand],
                              coll, cons[k].values(), inst.algebra))
            for k, strand in enumerate(strands)]


def combine_solutions(inst: Instance, coll: ConsistentCollection,
                      solutions: Sequence[dict]) -> dict:
    """Concatenate per-strand solutions; the result must satisfy everything."""
    merged: dict = {}
    for sol in solutions:
        merged.update(sol)
    missing = [v for v in inst.variables if v not in merged]
    if missing:
        raise InternalInvariantError(f"combined solution misses {missing}")
    bad = verify_assignment(inst, merged)
    if bad:
        raise InternalInvariantError(
            "strand combination violates a constraint; rectangularity failed: "
            f"{bad[0].scope}")
    return merged


def exclude_components(inst: Instance, coll: ConsistentCollection,
                       strand) -> Optional[Instance]:
    """Drop the chosen components on a failed strand; None if a domain dies."""
    smaller = restrict_instance(inst, {
        v: inst.domains[v] - coll[v] if v in strand else inst.domains[v]
        for v in inst.variables})
    if smaller is None:
        return None
    if summ(smaller) >= summ(inst):
        raise InternalInvariantError("component exclusion did not shrink summ")
    return smaller


def arc_free_elements(domain, graph: EdgeLabeledGraph) -> frozenset:
    """Elements of the domain receiving no semilattice arc from inside it."""
    dom = sorted(domain)
    out = set(dom)
    for a, b in itertools.permutations(dom, 2):
        if graph.semilattice_arc(a, b):
            out.discard(b)
    return frozenset(out)


def arc_free_restriction(inst: Instance,
                         graph: EdgeLabeledGraph) -> Optional[Instance]:
    """Restrict every domain to its arc-free elements; None if one empties."""
    return restrict_instance(inst, {v: arc_free_elements(inst.domains[v], graph)
                                    for v in inst.variables})


def multiplied_instance(inst: Instance, alg: Algebra,
                        forced: Optional[tuple] = None) -> Instance:
    """The instance over variables (v, b) with left-multiplied domains.

    Per original variable v there is one aligning constraint tying all its
    copies to a common multiplier; per original constraint and tuple there
    is one image constraint.  `forced=(w, d)` adds unary constraints pinning
    every copy of w to its product with d, making every induced map
    collapse toward d.  Aligning relations are closed under the algebra's
    operations so the result stays inside the solvable class.
    """
    f = alg.f
    variables = []
    doms = {}
    for v in inst.variables:
        for b in sorted(inst.domains[v]):
            var = (v, b)
            variables.append(var)
            doms[var] = frozenset(f[b][x] for x in inst.domains[v])
    cons: list[Constraint] = []
    for v in inst.variables:
        enum = sorted(inst.domains[v])
        scope = tuple((v, b) for b in enum)
        seed = {tuple(f[b][c] for b in enum) for c in enum}
        cons.append(Constraint(scope, close_under_ops(seed, alg)))
    for scope, rel in inst.constraints:
        for a in rel.sorted_tuples():
            sub_scope = tuple((scope[i], a[i]) for i in range(len(scope)))
            tuples = {tuple(f[a[i]][x[i]] for i in range(len(a)))
                      for x in rel.tuples}
            cons.append(Constraint(sub_scope, relation(
                tuples, signature=[doms[s] for s in sub_scope])))
    if forced is not None:
        w, d = forced
        if w not in inst.domains or d not in inst.domains[w]:
            raise InvalidArgumentError(f"forced pair {forced!r} is not valid")
        for b in sorted(inst.domains[w]):
            val = f[b][d]
            cons.append(Constraint(((w, b),),
                                   relation([(val,)], signature=[doms[(w, b)]])))
    return Instance(variables, doms, cons, alg)


def maps_from_solution(inst: Instance, solution: dict) -> dict:
    """Extract the per-variable self-maps a multiplied-instance solution induces."""
    maps = {}
    for v in inst.variables:
        maps[v] = {b: solution[(v, b)] for b in sorted(inst.domains[v])}
    bad = maps_consistency_witness(inst, maps)
    if bad is not None:
        raise InternalInvariantError(
            f"induced maps are not consistent: image of {bad} leaves its relation")
    return maps


def maps_consistency_witness(inst: Instance, maps: dict) -> Optional[tuple]:
    for scope, rel in inst.constraints:
        for a in rel.tuples:
            image = tuple(maps[scope[i]][a[i]] for i in range(len(a)))
            if image not in rel:
                return a
    return None


def is_permutational(maps: dict) -> bool:
    return all(len(set(p.values())) == len(p) for p in maps.values())


def _orbit(p: dict, b) -> tuple[list, int]:
    """b, p(b), p(p(b)), ... up to the first repeat, and the length of the
    tail before the cycle."""
    seq = [b]
    while p[seq[-1]] not in seq:
        seq.append(p[seq[-1]])
    return seq, seq.index(p[seq[-1]])


def idempotent_power(maps: dict) -> dict:
    """The family's least power k >= 1 in which every map is idempotent.

    p^k is idempotent exactly when every p^k(b) lies on a cycle of p whose
    length divides k, so k is the least multiple of the lcm of all cycle
    lengths that is at least the longest tail.  The exponent is shared
    across variables, preserving consistency.
    """
    orbits = {v: {b: _orbit(p, b) for b in p} for v, p in maps.items()}
    walks = [w for per_var in orbits.values() for w in per_var.values()]
    tail = max((t for _, t in walks), default=0)
    period = math.lcm(*(len(seq) - t for seq, t in walks))
    k = period * max(1, -(-tail // period))  # ceil(tail / period) periods
    return {v: {b: seq[t + (k - t) % (len(seq) - t)]
                for b, (seq, t) in per_var.items()}
            for v, per_var in orbits.items()}


def retract_instance(inst: Instance, maps: dict) -> Instance:
    """Retract the instance onto the images of a non-permutational family
    of consistent, idempotent maps.

    Consistent maps send each tuple of a constraint into its relation, and
    an idempotent map fixes every value of its image; so the image of a
    relation under the maps is exactly its tuples inside the images, and
    the retraction is the restriction to the images.
    """
    for v, p in maps.items():
        for b in p:
            if p[p[b]] != p[b]:
                raise InvalidArgumentError("maps must be idempotent")
    if is_permutational(maps):
        raise InvalidArgumentError("retraction needs a non-permutational family")
    smaller = restrict_instance(inst, {v: frozenset(maps[v].values())
                                       for v in inst.variables})
    if summ(smaller) >= summ(inst):
        raise InternalInvariantError("retraction did not shrink summ")
    return smaller


@dataclass(frozen=True)
class RetractionOutcome:
    kind: str  # "solved" | "retract" | "no-solution"
    assignment: Optional[dict] = None
    maps: Optional[dict] = None


def retraction_step(inst: Instance, graph: EdgeLabeledGraph, alg: Algebra,
                    solve_fn: Callable[[Instance, str], SolveResult]
                    ) -> RetractionOutcome:
    """One round of the multiplied-instance reduction.

    First solve the arc-free restriction; its solutions solve the instance
    directly.  Otherwise look for consistent non-permutational maps through
    forced multiplied instances and return the retraction material, or
    conclude unsatisfiability.
    """
    restricted = arc_free_restriction(inst, graph)
    if restricted is not None:
        res = solve_fn(restricted, "restriction-solve")
        if res.is_sat:
            if verify_assignment(inst, res.assignment):
                raise InternalInvariantError(
                    "arc-free solution fails the original instance")
            return RetractionOutcome("solved", assignment=res.assignment)

    for w in inst.variables:
        b_free = arc_free_elements(inst.domains[w], graph)
        for d in sorted(inst.domains[w] - b_free):
            forced = multiplied_instance(inst, alg, forced=(w, d))
            res = solve_fn(forced, "forced-multiplied")
            if not res.is_sat:
                continue
            maps = maps_from_solution(inst, res.assignment)
            if is_permutational(maps):
                raise InternalInvariantError(
                    "forced maps came out permutational")
            return RetractionOutcome("retract", maps=idempotent_power(maps))
    return RetractionOutcome("no-solution")
