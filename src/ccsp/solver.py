"""The recursive driver and the semilattice-free base solver.

Driver loop: an instance whose domains hold only affine pairs goes to the
base solver at once; otherwise establish 3-minimality; a semilattice-free
instance goes to the base solver; an instance with a proper as-component
goes through the component-exclusion reduction, recursing only on the
strands with a choice left (a chosen component of more than one value),
while every other variable takes the one value of its chosen component;
otherwise all domains are as-components with a semilattice edge somewhere
and the retraction reduction applies.  Every recursive call and every loop
iteration strictly decreases the pair (lev, summ) lexicographically, where
lev is the maximal size of a domain containing a semilattice edge; this is
asserted at run time and surfaced as an internal error if violated.

A node whose domains hold only affine pairs (a singleton domain holds
none) goes straight to the base solver, with no 3-minimality fixpoint and
no engine: every component there goes to the Maltsev solver, whose compact
representation (Bulatov and Dalmau, SIAM J. Comput. 36(1), 2006) needs no
consistency preprocessing, and pruning would leave the domains affine-only.
Every other node establishes 3-minimality once.  A semilattice-free node
(lev 0) hands its pruned instance and the engine at that fixpoint to the
base solver, which splits it into the connected components of its
constraint graph and solves each one by one of two solvers:

- a component whose domains hold only affine pairs, or no pair at all,
  goes to the compact-representation solver driven by the derived
  Maltsev operation;
- any other component is searched on the node's engine, which undoes
  failed choices through its trail.  On majority-only domains the search
  never backtracks (bounded strict width) and a dead end is an internal
  error; on mixed majority/affine domains it stands in for the polynomial
  generalized majority-minority algorithm (Dalmau, LMCS 2(4), 2006) and
  may take exponential time.

The kinds are read off the pruned domains, so a domain that the fixpoint
cuts to an affine pair still reaches the Maltsev solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .classify import (AFFINE, MAJORITY, ClassifierVerdict,
                       EdgeLabeledGraph, check_uniformity_laws, derive_m,
                       gmm_violations)
from .errors import InternalInvariantError, InvalidArgumentError
from .harness import brute_force_solve
from .maltsev import solve_with_maltsev
from .minimality import Propagator, establish_3_minimality
from .model import (UNSAT, Algebra, Instance, SolveResult, sat, summ,
                    validate_instance, verify_assignment)
from .reductions import (combine_solutions, exclude_components,
                         find_consistent_collection, retract_instance,
                         retraction_step, split_by_strands)
from .structure import (as_components, connected_groups, is_semilattice_free,
                        pair_kinds)
from .structure import strands_of_instance  # unused; perfbench/tracing.py PATCHES wraps it


@dataclass
class SolveTrace:
    nodes: int = 0
    depth: int = 0
    branch_counts: dict = field(default_factory=dict)
    lev_checks: int = 0
    shrink_checks: int = 0

    def bump(self, kind: str):
        self.branch_counts[kind] = self.branch_counts.get(kind, 0) + 1

    def as_dict(self) -> dict:
        return {
            "nodes": self.nodes,
            "depth": self.depth,
            "branches": dict(sorted(self.branch_counts.items())),
            "lev_checks": self.lev_checks,
            "shrink_checks": self.shrink_checks,
        }


def lev(inst: Instance, graph: EdgeLabeledGraph) -> int:
    """Maximal size of a domain containing a semilattice edge; 0 if none."""
    return max((len(dom) for dom in {inst.domains[v] for v in inst.variables}
                if not is_semilattice_free(dom, graph)), default=0)


def _solve_affine(inst: Instance, variables: list, m) -> SolveResult:
    """Solve the constraints on `variables` with the Maltsev solver."""
    order = {v: i for i, v in enumerate(variables)}
    domains = [sorted(inst.domains[v]) for v in variables]
    constraints = []
    for scope, rel in inst.constraints:
        if scope[0] in order:
            constraints.append(([order[v] for v in scope], rel.tuples))
    row = solve_with_maltsev(domains, constraints, m)
    if row is None:
        return UNSAT
    return sat(dict(zip(variables, row)))


def _search(engine: Propagator, variables: list,
            majority: bool) -> SolveResult:
    """Complete search over `variables` from an established engine,
    propagating every choice.

    Choice points live on an explicit stack and a failed choice is undone
    through the engine's trail, so depth is not bounded by recursion.  On
    majority-only domains (`majority`) a 3-minimal instance never
    dead-ends (bounded strict width), so a failed choice is an internal
    error there."""
    stack = []  # (trail mark, variable, values still to try)
    while True:
        open_vars = [v for v in variables if len(engine.doms[v]) > 1]
        if not open_vars:
            return sat({v: min(engine.doms[v]) for v in variables})
        v = min(open_vars, key=lambda u: len(engine.doms[u]))
        first, *rest = sorted(engine.doms[v])
        stack.append((engine.mark(), v, rest))
        ok = engine.assign(v, first)
        if not ok and majority:
            raise InternalInvariantError(
                f"search on majority domains dead-ended at {v!r}; "
                "bounded strict width violated")
        while not ok:
            while stack and not stack[-1][2]:
                stack.pop()
            if not stack:
                return UNSAT
            mark, v, rest = stack[-1]
            engine.undo(mark)
            ok = engine.assign(v, rest.pop(0))


def solve_semilattice_free(inst: Instance, graph: EdgeLabeledGraph,
                           alg: Algebra,
                           engine: Optional[Propagator]) -> SolveResult:
    """Base solver on a semilattice-free instance, one connected component
    of its constraint graph at a time.

    A component whose domains hold only affine pairs goes to the Maltsev
    solver; any other is searched on `engine`, the 3-minimality engine that
    establish_3_minimality returned together with `inst`.  No engine table
    links two components, so a search on one leaves the others at the
    fixpoint.  Without an engine every component must be affine-only.
    """
    if lev(inst, graph):
        raise InvalidArgumentError("instance is not semilattice-free")
    m = derive_m(alg)
    kinds_of: dict = {}  # domain -> the kinds of its pairs
    for v in inst.variables:
        dom = inst.domains[v]
        if dom not in kinds_of:
            bad = gmm_violations(m, dom, graph)
            if bad:
                raise InternalInvariantError(
                    f"derived operation misbehaves on domain of {v!r}: "
                    f"{bad[0]}")
            kinds_of[dom] = pair_kinds(dom, graph)
    assignment = {}
    for variables in connected_groups(inst.variables,
                                      [c.scope for c in inst.constraints]):
        kinds = set().union(*(kinds_of[inst.domains[v]] for v in variables))
        if kinds <= {AFFINE}:
            res = _solve_affine(inst, variables, m)
        elif engine is None:
            raise InternalInvariantError(
                f"component of {variables[0]!r} needs the search and the "
                "node has no 3-minimality engine")
        else:
            res = _search(engine, variables, kinds <= {MAJORITY})
        if not res.is_sat:
            return UNSAT
        assignment.update(res.assignment)
    res = sat({v: assignment[v] for v in inst.variables})
    if verify_assignment(inst, res.assignment):
        raise InternalInvariantError("base solver produced a non-solution")
    return res


def solve(inst: Instance, alg: Algebra, graph: EdgeLabeledGraph
          ) -> tuple[SolveResult, SolveTrace]:
    """Full recursive solver; returns the verdict and a recursion trace."""
    trace = SolveTrace()

    def measure(i: Instance) -> tuple[int, int]:
        return (lev(i, graph), summ(i))

    def check_less(child: Instance, parent_measure: tuple[int, int], what: str):
        trace.shrink_checks += 1
        if not measure(child) < parent_measure:
            raise InternalInvariantError(
                f"termination measure did not decrease into {what}: "
                f"{measure(child)} !< {parent_measure}")

    def check_lev(child: Instance, parent_lev: int, what: str):
        trace.lev_checks += 1
        if not lev(child, graph) < parent_lev:
            raise InternalInvariantError(
                f"lev did not decrease into {what}: "
                f"{lev(child, graph)} !< {parent_lev}")

    def inner(cur: Instance, depth: int) -> SolveResult:
        trace.nodes += 1
        trace.depth = max(trace.depth, depth)
        while True:
            if all(pair_kinds(dom, graph) <= {AFFINE}
                   for dom in set(cur.domains.values())):
                trace.bump("sfree")
                return solve_semilattice_free(cur, graph, alg, None)
            est = establish_3_minimality(cur)
            if est is None:
                return UNSAT
            pruned, engine = est
            here = measure(pruned)

            if here[0] == 0:
                trace.bump("sfree")
                return solve_semilattice_free(pruned, graph, alg, engine)

            has_proper = any(as_components(d, graph) != [d]
                             for d in set(pruned.domains.values()))

            if has_proper:
                trace.bump("exclusion")
                coll = find_consistent_collection(pruned, graph, engine)
                # the strands split_by_strands leaves out: one value each
                solutions = [{v: min(c) for v, c in coll.items()
                              if len(c) == 1}]
                for strand, sub in split_by_strands(pruned, coll):
                    check_less(sub, here, "a strand sub-instance")
                    res = inner(sub, depth + 1)
                    if not res.is_sat:
                        break
                    solutions.append(res.assignment)
                else:
                    return sat(combine_solutions(pruned, coll, solutions))
                trace.bump("exclusion-restart")
                nxt = exclude_components(pruned, coll, strand)
                if nxt is None:
                    return UNSAT
                check_less(nxt, here, "the exclusion restart")
                cur = nxt
                continue

            trace.bump("retraction")
            parent_lev = here[0]

            def sub_solve(sub: Instance, kind: str) -> SolveResult:
                trace.bump(kind)
                check_lev(sub, parent_lev, kind)
                return inner(sub, depth + 1)

            outcome = retraction_step(pruned, graph, alg, sub_solve)
            if outcome.kind == "solved":
                return sat(outcome.assignment)
            if outcome.kind == "no-solution":
                return UNSAT
            trace.bump("retract-loop")
            nxt = retract_instance(pruned, outcome.maps)
            check_less(nxt, here, "the retraction loop")
            cur = nxt

    result = inner(inst, 0)
    if result.is_sat:
        bad = verify_assignment(inst, result.assignment)
        if bad:
            raise InternalInvariantError("solver returned a non-solution")
    return result, trace


@dataclass(frozen=True)
class PipelineResult:
    status: str  # "sat" | "unsat" | "np-complete"
    assignment: Optional[dict] = None
    witness_pair: Optional[tuple[int, int]] = None
    trace: Optional[dict] = None
    oracle_used: bool = False


def run_pipeline(inst: Instance, verdict: Optional[ClassifierVerdict],
                 force_oracle: bool = False) -> PipelineResult:
    """The one path from an instance and its language's verdict to a result.

    First the checks, which raise InvalidArgumentError: the instance's own
    invariants always, and for a tractable verdict the algebra's laws and
    that it preserves every constraint, since the solver's verdicts hold
    only then.  Then an NP-complete verdict is refused, unless
    `force_oracle` asks the brute-force oracle; without a verdict the
    oracle answers.  A tractable verdict is solved.
    """
    alg = verdict.algebra if verdict else None
    attached = Instance(inst.variables, inst.domains, inst.constraints, alg)
    problems = ((check_uniformity_laws(alg, verdict.graph) if alg else [])
                or validate_instance(attached))
    if problems:
        raise InvalidArgumentError(problems[0])
    if alg is None:
        witness = verdict.witness_pair if verdict else None
        if verdict and not force_oracle:
            return PipelineResult("np-complete", witness_pair=witness)
        res = brute_force_solve(inst)
        return PipelineResult(res.status, res.assignment,
                              witness_pair=witness, oracle_used=True)
    res, trace = solve(attached, alg, verdict.graph)
    return PipelineResult(res.status, res.assignment, trace=trace.as_dict())
