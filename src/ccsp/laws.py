"""Executable structural laws on as-components, and their randomized suite.

`check_law` checks one law the solver relies on -- connectivity,
rectangularity, the consistent-collection laws and path extension -- on
explicit finite inputs, separating "hypothesis not met" from a genuine
failure of the conclusion.  `run_law_suite` runs every law on seeded
random closed relations.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .classify import AFFINE, SEMILATTICE, EdgeLabeledGraph, canonical_algebra
from .errors import InvalidArgumentError
from .harness import GeneratorConfig, Rng, gen_closed_relation, gen_label_graph
from .model import (Relation, apply_componentwise, project,
                    restrict_relation)
from .structure import (as_components, as_components_of_relation, first_path,
                        is_linked, strands_of_relation, tuple_edge_kind)


@dataclass(frozen=True)
class LawResult:
    law: str
    status: str  # "pass" | "fail" | "hypothesis-not-met"
    detail: str = ""
    counterexample: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


# a handler returns the fields of its LawResult after the law's name
_PASS = ("pass",)


def _hyp(detail):
    return "hypothesis-not-met", detail


def _fail(detail, ce=None):
    return "fail", detail, ce


def _unmet(rel: Relation, graph: EdgeLabeledGraph,
           comps: Optional[Sequence] = None, box: bool = True
           ) -> Optional[str]:
    """Why the common hypotheses fail, or None: the relation is non-empty
    and subdirect and, given `comps`, they are one as-component per
    position whose box (when `box`) meets the relation."""
    if not rel.tuples:
        return "empty relation"
    if not rel.is_subdirect():
        return "relation is not subdirect on its factors"
    if comps is None:
        return None
    if len(comps) != rel.arity:
        return "one component per position required"
    for i, c in enumerate(comps):
        if frozenset(c) not in as_components(rel.signature[i], graph):
            return f"component {i} is not an as-component of its domain"
    if box and not restrict_relation(rel, comps).tuples:
        return "relation misses the component box"
    return None


def _inconsistent_pair(rel: Relation,
                       comps: Sequence) -> Optional[tuple[int, int]]:
    """The first positions (i, j) whose components no tuple meets at once,
    or None when the collection on the first len(comps) positions is
    pairwise consistent."""
    for i, j in itertools.combinations(range(len(comps)), 2):
        if not any(t[i] in comps[i] and t[j] in comps[j] for t in rel.tuples):
            return i, j
    return None


def _component_of(value: int,
                  comps: Iterable[frozenset]) -> Optional[frozenset]:
    for c in comps:
        if value in c:
            return c
    return None


def _law_path_extension(relation, graph, algebra, indices, path):
    indices = list(indices)
    path = [tuple(t) for t in path]
    if not path:
        return _hyp("empty path")
    proj = project(relation, indices)
    kinds = []
    for t in path:
        if t not in proj:
            return _hyp(f"path tuple {t} not in the projection")
    for u, v in zip(path, path[1:]):
        kind = tuple_edge_kind(u, v, graph)
        if kind not in (SEMILATTICE, AFFINE):
            return _hyp(f"step {u}->{v} is not a semilattice/affine edge")
        kinds.append(kind)

    def extension(target):
        for t in relation.sorted_tuples():
            if tuple(t[i] for i in indices) == target:
                return t
        return None

    cur = extension(path[0])
    lifted = [cur]
    for step_to, kind in zip(path[1:], kinds):
        w = extension(step_to)
        if w is None:
            return _fail(f"no extension of {step_to} in the relation")
        pw = apply_componentwise(algebra.p, (w, cur))
        if kind == SEMILATTICE:
            nxt = apply_componentwise(algebra.f, (cur, pw))
            lifted.append(nxt)
        else:
            mid = apply_componentwise(algebra.f, (cur, pw))
            nxt = apply_componentwise(algebra.f, (pw, cur))
            lifted.extend([mid, nxt])
        cur = nxt

    cleaned = [t for t, _ in itertools.groupby(lifted)]
    for t in cleaned:
        if t not in relation:
            return _fail(f"constructed tuple {t} leaves the relation", (t,))
    for u, v in zip(cleaned, cleaned[1:]):
        if tuple_edge_kind(u, v, graph) not in (SEMILATTICE, AFFINE):
            return _fail(f"constructed step {u}->{v} is not an edge", (u, v))
    stripped = [p for p, _ in itertools.groupby(
        tuple(t[i] for i in indices) for t in cleaned)]
    if stripped != list(dict.fromkeys(path)) and stripped != path:
        return _fail(f"lifted path projects to {stripped}, wanted {path}")
    return _PASS


def _law_connectivity(relation, graph, components):
    bad = _unmet(relation, graph, components)
    if bad:
        return _hyp(bad)
    inside = restrict_relation(relation, components)
    if not inside.is_subdirect():
        return _fail("restriction is not subdirect on the components")
    if inside.tuples not in as_components_of_relation(relation, graph):
        return _fail("component box is not an as-component of the relation")
    return _PASS


def _law_max_extension(relation, graph, indices, partial):
    indices, partial = list(indices), tuple(partial)
    bad = _unmet(relation, graph)
    if bad:
        return _hyp(bad)
    if partial not in project(relation, indices):
        return _hyp("partial tuple not in the projection")
    per_pos = [as_components(d, graph) for d in relation.signature]
    for i, v in zip(indices, partial):
        if _component_of(v, per_pos[i]) is None:
            return _hyp(f"value at projected position {i} is outside "
                        "every as-component")
    for t in relation.sorted_tuples():
        if tuple(t[i] for i in indices) != partial:
            continue
        if all(_component_of(v, c) is not None for v, c in zip(t, per_pos)):
            return _PASS
    return _fail("no extension with all values inside as-components")


def _law_rectangularity(relation, graph, components):
    bad = _unmet(relation, graph, components)
    if bad:
        return _hyp(bad)
    factors = [(idx, restrict_relation(project(relation, idx),
                                       [components[i] for i in idx]).tuples)
               for idx in map(sorted, strands_of_relation(relation,
                                                          components))]
    for combo in itertools.product(*(inside for _, inside in factors)):
        merged = [None] * relation.arity
        for (idx, _), part in zip(factors, combo):
            for i, v in zip(idx, part):
                merged[i] = v
        if tuple(merged) not in relation:
            return _fail(f"product tuple {tuple(merged)} missing",
                         (tuple(merged),))
    return _PASS


def _law_crt(relation, graph, components):
    bad = _unmet(relation, graph, components, box=False)
    if bad:
        return _hyp(bad)
    pair = _inconsistent_pair(relation, components)
    if pair:
        return _hyp("collection not consistent at positions (%d,%d)" % pair)
    if restrict_relation(relation, components).tuples:
        return _PASS
    return _fail("pairwise consistent collection misses the relation")


def _law_collection_extension(relation, graph, components):
    """The components on all positions but the last, when pairwise
    consistent, extend by some as-component of the last position to a
    pairwise consistent collection (the last given component is only
    checked to be an as-component)."""
    bad = _unmet(relation, graph, components, box=False)
    if bad:
        return _hyp(bad)
    head = list(components[:-1])
    pair = _inconsistent_pair(relation, head)
    if pair:
        return _hyp("head collection not consistent at positions (%d,%d)"
                    % pair)
    for cand in as_components(relation.signature[-1], graph):
        if _inconsistent_pair(relation, head + [cand]) is None:
            return _PASS
    return _fail("no as-component of the last position extends the "
                 "collection")


def _law_linked_rectangularity(relation, graph, components):
    if relation.arity != 2 or not is_linked(relation):
        return _hyp("law needs a linked binary relation")
    bad = _unmet(relation, graph, components)
    if bad:
        return _hyp(bad)
    for a in sorted(components[0]):
        for b in sorted(components[1]):
            if (a, b) not in relation:
                return _fail(f"({a},{b}) missing from the box", ((a, b),))
    return _PASS


_HANDLERS = {
    "path-extension": _law_path_extension,
    "connectivity": _law_connectivity,
    "max-extension": _law_max_extension,
    "rectangularity": _law_rectangularity,
    "crt": _law_crt,
    "linked-rectangularity": _law_linked_rectangularity,
    "collection-extension": _law_collection_extension,
}
LAWS = tuple(_HANDLERS)


def check_law(law: str, inputs: dict) -> LawResult:
    """Run one structural law of `LAWS` on explicit inputs.

    Every law reads "relation" and "graph"; path-extension also reads
    "algebra", "indices" and "path", max-extension "indices" and
    "partial", and the others "components" (one set per position).
    Hypotheses are verified first and reported as hypothesis-not-met,
    distinct from a genuine failure of the conclusion.
    """
    if law not in _HANDLERS:
        raise InvalidArgumentError(f"unknown law {law!r}")
    return LawResult(law, *_HANDLERS[law](**inputs))


# ---------------------------------------------------------------------------
# law suite

@dataclass
class LawSuiteReport:
    samples: int = 0
    counts: dict = field(default_factory=dict)  # law -> {pass, fail, hyp}
    failures: list = field(default_factory=list)

    def record(self, res: LawResult):
        slot = self.counts.setdefault(res.law, {"pass": 0, "fail": 0,
                                                "hypothesis-not-met": 0})
        slot[res.status] += 1
        if res.status == "fail" and len(self.failures) < 20:
            self.failures.append((res.law, res.detail))

    @property
    def ok(self) -> bool:
        return all(c["fail"] == 0 for c in self.counts.values())

    def as_dict(self) -> dict:
        return {
            "samples": self.samples,
            "laws": {k: dict(v) for k, v in sorted(self.counts.items())},
            "failures": list(self.failures),
            "ok": self.ok,
        }


def _witnessed_components(rel: Relation, comps_per_pos: Sequence[list],
                          rng: Rng) -> Optional[list[frozenset]]:
    """Per-position components all containing one common witness tuple."""
    rows = rel.sorted_tuples()
    rng.shuffle(rows)
    for t in rows:
        chosen = [_component_of(v, comps)
                  for v, comps in zip(t, comps_per_pos)]
        if None not in chosen:
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
        # rel is subdirect, so each projection keeps these components
        per_pos = [as_components(d, graph) for d in rel.signature]

        comps = _witnessed_components(rel, per_pos, rng.split("components"))
        if comps is None:
            comps = [rng.choice(c) for c in per_pos]
        for law in ("connectivity", "rectangularity", "crt",
                    "collection-extension"):
            report.record(check_law(law, {"relation": rel, "graph": graph,
                                          "components": comps}))

        # linked-rectangularity on a binary projection
        idx = sorted(rng.sample(range(rel.arity), 2))
        brel = project(rel, idx)
        bcomps = _witnessed_components(brel, [per_pos[i] for i in idx],
                                       rng.split("bin"))
        report.record(check_law("linked-rectangularity", {
            "relation": brel, "graph": graph,
            "components": bcomps or [per_pos[i][0] for i in idx]}))

        # max-extension from a component-valued partial tuple
        indices = sorted(rng.sample(range(rel.arity),
                                    rng.randint(1, rel.arity - 1)))
        partial = next((tuple(t[i] for i in indices)
                        for t in rel.sorted_tuples()
                        if all(_component_of(t[i], per_pos[i]) is not None
                               for i in indices)), None)
        if partial is None:
            report.record(LawResult("max-extension", "hypothesis-not-met",
                                    "no component-valued partial tuple"))
        else:
            report.record(check_law("max-extension", {
                "relation": rel, "graph": graph, "indices": indices,
                "partial": partial}))

        # path-extension over a path joining a random pair of projection
        # tuples, when any pair is joined
        pidx = sorted(rng.sample(range(rel.arity),
                                 rng.randint(1, rel.arity - 1)))
        proj = project(rel, pidx)
        ptuples = proj.sorted_tuples()
        pairs = [(a, b) for a in ptuples for b in ptuples if a != b]
        rng.shuffle(pairs)
        path = first_path(proj, graph, pairs)
        if path is None:
            report.record(LawResult("path-extension", "hypothesis-not-met",
                                    "no nontrivial path in the projection"))
        else:
            report.record(check_law("path-extension", {
                "relation": rel, "graph": graph, "algebra": alg,
                "indices": pidx, "path": path}))
    return report
