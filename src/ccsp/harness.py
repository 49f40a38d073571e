"""Brute-force oracle, seeded generators, the canonical 3-element algebra,
and the randomized law suite.

All randomness flows through `Rng`, a splittable seeded generator threaded
explicitly; identical seeds reproduce identical artifacts bit for bit.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .classify import (AFFINE, MAJORITY, SEMILATTICE, EdgeLabeledGraph,
                       PairLabel, canonical_algebra, semilattice_label)
from .errors import InvalidArgumentError, OracleBudgetError
from .model import (UNSAT, Algebra, Constraint, Instance, Relation,
                    close_under_ops, relation, sat, SolveResult)
from .structure import as_components, check_law, find_path

DEFAULT_BUDGET = 2_000_000


class Rng(random.Random):
    """Seeded generator that can split off independent child streams."""

    def __init__(self, seed: int):
        self.seed_value = int(seed)
        super().__init__(self.seed_value)

    def split(self, *tags) -> "Rng":
        material = f"{self.seed_value}|{'/'.join(map(str, tags))}".encode()
        child = int.from_bytes(hashlib.sha256(material).digest()[:8], "big")
        return Rng(child)


def oracle_budget() -> int:
    raw = os.environ.get("CCSP_BUDGET")
    return int(raw) if raw else DEFAULT_BUDGET


def brute_force_solve(inst: Instance,
                      budget: Optional[int] = None) -> SolveResult:
    """Exact verdict by exhaustive backtracking over all assignments, in
    variable order and ascending values, on an explicit stack."""
    limit = budget if budget is not None else oracle_budget()
    total = 1
    for v in inst.variables:
        if not inst.domains[v]:
            return UNSAT
        total *= len(inst.domains[v])
        if total > limit:
            raise OracleBudgetError(
                f"assignment space exceeds the oracle budget ({limit})")
    order = list(inst.variables)
    position = {v: i for i, v in enumerate(order)}
    cons = []
    for scope, rel in inst.constraints:
        last = max(position[v] for v in scope)
        cons.append((last, scope, rel.tuples))

    assignment: dict = {}

    def feasible(upto: int) -> bool:
        for last, scope, tuples in cons:
            if last > upto:
                fixed = [(i, assignment[v]) for i, v in enumerate(scope)
                         if v in assignment]
                if not any(all(t[i] == a for i, a in fixed) for t in tuples):
                    return False
            elif last == upto:
                if tuple(assignment[v] for v in scope) not in tuples:
                    return False
        return True

    choices: list = []  # per position so far: the values still to try
    i = 0
    while i < len(order):
        v = order[i]
        if i == len(choices):
            choices.append(iter(sorted(inst.domains[v])))
        for a in choices[i]:
            assignment[v] = a
            if feasible(i):
                i += 1
                break
        else:  # every value of v failed: back to the previous position
            choices.pop()
            del assignment[v]
            if i == 0:
                return UNSAT
            i -= 1
    return sat(assignment)


def brute_force_solutions(inst: Instance,
                          budget: Optional[int] = None) -> set[tuple]:
    """All solutions as value tuples in variable order (bounded enumeration)."""
    limit = budget if budget is not None else oracle_budget()
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


# ---------------------------------------------------------------------------
# the canonical 3-element algebra

def canonical_a3() -> tuple[Algebra, EdgeLabeledGraph]:
    """The fixed 3-element test algebra: 0->1 semilattice, {1,2} affine,
    {0,2} majority."""
    graph = EdgeLabeledGraph(3, {
        (0, 1): semilattice_label([(0, 1)]),
        (1, 2): PairLabel(AFFINE),
        (0, 2): PairLabel(MAJORITY),
    })
    return canonical_algebra(graph), graph


# ---------------------------------------------------------------------------
# generators

@dataclass(frozen=True)
class GeneratorConfig:
    seed: int = 0
    domain_size: int = 3
    variable_count: int = 5
    constraint_count: int = 6
    max_arity: int = 3
    label_weights: tuple[float, float, float] = (1.0, 1.0, 1.0)  # sl, maj, aff
    samples: int = 100

    def __post_init__(self):
        if min(self.domain_size, self.variable_count,
               self.constraint_count, self.max_arity) < 1 or self.samples < 0:
            raise InvalidArgumentError("generator counts must be positive")
        if any(w < 0 for w in self.label_weights) or \
                not any(self.label_weights):
            raise InvalidArgumentError(
                "label weights must be nonnegative and not all zero")


def gen_label_graph(size: int, rng: Rng,
                    weights: Sequence[float] = (1.0, 1.0, 1.0)
                    ) -> EdgeLabeledGraph:
    labels = {}
    kinds = (SEMILATTICE, MAJORITY, AFFINE)
    for a, b in itertools.combinations(range(size), 2):
        kind = rng.choices(kinds, weights=weights)[0]
        if kind == SEMILATTICE:
            direction = (a, b) if rng.random() < 0.5 else (b, a)
            labels[(a, b)] = semilattice_label([direction])
        else:
            labels[(a, b)] = PairLabel(kind)
    return EdgeLabeledGraph(size, labels)


def gen_algebra(cfg: GeneratorConfig) -> tuple[Algebra, EdgeLabeledGraph]:
    rng = Rng(cfg.seed).split("algebra")
    graph = gen_label_graph(cfg.domain_size, rng, cfg.label_weights)
    return canonical_algebra(graph), graph


def gen_closed_relation(alg: Algebra, domains: Sequence[frozenset],
                        rng: Rng, seeds: int = 3) -> Relation:
    """Closure of random seed tuples inside the given per-position domains,
    signed by its projections (subdirect, as the structural laws assume)."""
    pool = [sorted(d) for d in domains]
    chosen = {tuple(rng.choice(p) for p in pool)
              for _ in range(max(1, seeds))}
    return close_under_ops(chosen, alg)


def gen_instance(alg: Algebra, graph: EdgeLabeledGraph,
                 cfg: GeneratorConfig) -> Instance:
    rng = Rng(cfg.seed).split("instance")
    names = [f"x{i}" for i in range(cfg.variable_count)]
    doms = {}
    for v in names:
        k = rng.randint(1, alg.size)
        doms[v] = frozenset(rng.sample(range(alg.size), k))
    cons = []
    for _ in range(cfg.constraint_count):
        arity = rng.randint(1, min(cfg.max_arity, len(names)))
        scope = tuple(rng.sample(names, arity))
        rel = gen_closed_relation(alg, [doms[v] for v in scope], rng,
                                  seeds=rng.randint(1, 3))
        cons.append(Constraint(scope, rel))
    return Instance(names, doms, cons, alg)


def gen_planted_instance(alg: Algebra, graph: EdgeLabeledGraph,
                         cfg: GeneratorConfig) -> Instance:
    """Like gen_instance, but every constraint seed includes the image of a
    planted assignment, so the instance is satisfiable by construction."""
    rng = Rng(cfg.seed).split("planted")
    names = [f"x{i}" for i in range(cfg.variable_count)]
    doms = {}
    for v in names:
        k = rng.randint(2, alg.size) if alg.size > 1 else 1
        doms[v] = frozenset(rng.sample(range(alg.size), k))
    planted = {v: rng.choice(sorted(doms[v])) for v in names}
    cons = []
    for _ in range(cfg.constraint_count):
        arity = rng.randint(2, min(cfg.max_arity, len(names)))
        scope = tuple(rng.sample(names, arity))
        pool = [sorted(doms[v]) for v in scope]
        seeds = {tuple(rng.choice(p) for p in pool)
                 for _ in range(rng.randint(3, 5))}
        seeds.add(tuple(planted[v] for v in scope))
        cons.append(Constraint(scope, close_under_ops(seeds, alg)))
    return Instance(names, doms, cons, alg)


# ---------------------------------------------------------------------------
# law suite

@dataclass
class LawSuiteReport:
    samples: int = 0
    counts: dict = field(default_factory=dict)  # law -> {pass, fail, hyp}
    extension_pass: int = 0
    extension_fail: int = 0
    failures: list = field(default_factory=list)

    def record(self, law: str, status: str, detail: str = ""):
        slot = self.counts.setdefault(law, {"pass": 0, "fail": 0,
                                            "hypothesis-not-met": 0})
        slot[status] += 1
        if status == "fail" and len(self.failures) < 20:
            self.failures.append((law, detail))

    @property
    def ok(self) -> bool:
        return (all(c["fail"] == 0 for c in self.counts.values())
                and self.extension_fail == 0)

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "laws": {k: dict(v) for k, v in sorted(self.counts.items())},
            "collection-extension": {"pass": self.extension_pass,
                                     "fail": self.extension_fail},
            "failures": list(self.failures),
            "ok": self.ok,
        }


def _component_of(value: int, comps: Iterable[frozenset]) -> Optional[frozenset]:
    for c in comps:
        if value in c:
            return c
    return None


def _witnessed_components(rel: Relation, graph: EdgeLabeledGraph,
                          rng: Rng) -> Optional[list[frozenset]]:
    """Per-position components all containing one common witness tuple."""
    comps_per_pos = [as_components(rel.signature[i], graph)
                     for i in range(rel.arity)]
    rows = rel.sorted_tuples()
    rng.shuffle(rows)
    for t in rows:
        chosen = [_component_of(t[i], comps_per_pos[i])
                  for i in range(rel.arity)]
        if all(c is not None for c in chosen):
            return chosen
    return None


def run_law_suite(cfg: GeneratorConfig,
                  algebra_graph: Optional[tuple] = None) -> LawSuiteReport:
    """Exercise the structural laws on seeded random closed relations."""
    report = LawSuiteReport()
    root = Rng(cfg.seed)
    for i in range(cfg.samples):
        rng = root.split("law", i)
        if algebra_graph is None:
            graph = gen_label_graph(cfg.domain_size, rng.split("labels"),
                                    cfg.label_weights)
            alg = canonical_algebra(graph)
        else:
            alg, graph = algebra_graph
        arity = rng.randint(2, max(2, cfg.max_arity))
        domains = []
        for _ in range(arity):
            k = rng.randint(1, alg.size)
            domains.append(frozenset(rng.sample(range(alg.size), k)))
        rel = gen_closed_relation(alg, domains, rng, seeds=rng.randint(1, 3))
        report.samples += 1

        comps = _witnessed_components(rel, graph, rng.split("components"))
        if comps is None:
            comps = [rng.choice(as_components(rel.signature[i], graph))
                     for i in range(rel.arity)]

        for law in ("connectivity", "rectangularity", "crt"):
            res = check_law(law, {"relation": rel, "graph": graph,
                                  "components": comps})
            report.record(law, res.status, res.detail)

        # linked-rectangularity on a binary projection re-signed to be subdirect
        idx = sorted(rng.sample(range(rel.arity), 2))
        btuples = {(t[idx[0]], t[idx[1]]) for t in rel.tuples}
        brel = relation(btuples)
        bcomps = _witnessed_components(brel, graph, rng.split("bin"))
        res = check_law("linked-rectangularity",
                        {"relation": brel, "graph": graph,
                         "components": bcomps or
                         [as_components(brel.signature[i], graph)[0]
                          for i in range(2)]})
        report.record(res.law, res.status, res.detail)

        # max-extension from a component-valued partial tuple
        k = rng.randint(1, rel.arity - 1) if rel.arity > 1 else 1
        indices = sorted(rng.sample(range(rel.arity), k))
        partial = None
        for t in rel.sorted_tuples():
            vals = [_component_of(t[i], as_components(rel.signature[i], graph))
                    for i in indices]
            if all(v is not None for v in vals):
                partial = tuple(t[i] for i in indices)
                break
        if partial is None:
            report.record("max-extension", "hypothesis-not-met",
                          "no component-valued partial tuple")
        else:
            res = check_law("max-extension",
                            {"relation": rel, "graph": graph,
                             "indices": indices, "partial": partial})
            report.record(res.law, res.status, res.detail)

        # path-extension over a random projection path
        pidx = sorted(rng.sample(range(rel.arity),
                                 rng.randint(1, rel.arity - 1)
                                 if rel.arity > 1 else 1))
        from .model import project
        proj = project(rel, pidx)
        ptuples = proj.sorted_tuples()
        path = None
        for _ in range(4):
            a = rng.choice(ptuples)
            b = rng.choice(ptuples)
            if a == b:
                continue
            path = find_path(proj, graph, a, b)
            if path is not None and len(path) >= 2:
                break
            path = None
        if path is None:
            report.record("path-extension", "hypothesis-not-met",
                          "no nontrivial path in the projection")
        else:
            res = check_law("path-extension",
                            {"relation": rel, "graph": graph, "algebra": alg,
                             "indices": pidx, "path": path})
            report.record(res.law, res.status, res.detail)

        # consistent-collection extension on the last position
        if comps is not None and rel.arity >= 2:
            head = comps[:-1]
            ok = False
            for cand in as_components(rel.signature[-1], graph):
                trial = head + [cand]
                pairwise = all(
                    any(t[i] in trial[i] and t[j] in trial[j]
                        for t in rel.tuples)
                    for i, j in itertools.combinations(range(rel.arity), 2))
                if pairwise:
                    ok = True
                    break
            if ok:
                report.extension_pass += 1
            else:
                head_consistent = all(
                    any(t[i] in head[i] and t[j] in head[j]
                        for t in rel.tuples)
                    for i, j in itertools.combinations(range(rel.arity - 1), 2))
                if head_consistent:
                    report.extension_fail += 1
    return report
