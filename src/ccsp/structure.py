"""Structure of the affine/semilattice digraph: components, paths, strands.

The SA digraph on a domain has one arc a -> b per semilattice pair oriented
a -> b and a pair of opposite arcs for each affine pair.  An as-component
is a sink strongly-connected component of that digraph: internally strongly
connected, with no semilattice or affine arc leaving it.  The same notions
lift to relations through componentwise edges between tuples.

`check_law` turns the structural laws the solver relies on into
executable checks over explicit finite inputs, separating "hypothesis not
met" from genuine failures.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .classify import AFFINE, MAJORITY, SEMILATTICE, EdgeLabeledGraph
from .errors import InvalidArgumentError
from .model import Algebra, Instance, Relation, apply_componentwise, project

LAWS = ("path-extension", "connectivity", "max-extension", "rectangularity",
        "crt", "linked-rectangularity")


def sa_arcs(domain: Iterable[int], graph: EdgeLabeledGraph) -> dict[int, set[int]]:
    """Adjacency of the semilattice/affine digraph restricted to a domain."""
    dom = sorted(domain)
    adj: dict[int, set[int]] = {a: set() for a in dom}
    for a, b in itertools.combinations(dom, 2):
        kind = graph.kind(a, b)
        if kind == AFFINE:
            adj[a].add(b)
            adj[b].add(a)
        elif kind == SEMILATTICE:
            if graph.semilattice_arc(a, b):
                adj[a].add(b)
            else:
                adj[b].add(a)
    return adj


def _bfs(adj: dict, start) -> dict:
    """Breadth-first parents from `start`, neighbours in sorted order; the
    keys are the nodes `start` reaches, itself (parent None) included."""
    parents = {start: None}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in sorted(adj[u]):
            if v not in parents:
                parents[v] = u
                queue.append(v)
    return parents


def _sink_sccs(adj: dict) -> list[frozenset]:
    """Sink strongly-connected components: a node lies in one iff every
    node it reaches reaches it back, and the component is its reach."""
    reach = {v: frozenset(_bfs(adj, v)) for v in adj}
    sinks = {r for v, r in reach.items() if all(v in reach[u] for u in r)}
    return sorted(sinks, key=min)


def as_components(domain: Iterable[int], graph: EdgeLabeledGraph) -> list[frozenset]:
    """Sink SCCs of the SA digraph on a domain; disjoint, at least one."""
    dom = set(domain)
    if not dom:
        raise InvalidArgumentError("as-components of an empty domain")
    return _sink_sccs(sa_arcs(dom, graph))


def is_semilattice_free(domain: Iterable[int], graph: EdgeLabeledGraph) -> bool:
    """No semilattice pair inside the domain."""
    dom = sorted(domain)
    return all(graph.kind(a, b) != SEMILATTICE
               for a, b in itertools.combinations(dom, 2))


def tuple_edge_kind(u: tuple, v: tuple, graph: EdgeLabeledGraph) -> Optional[str]:
    """Componentwise edge kind between distinct tuples, or None.

    "semilattice" means directed from u to v.
    """
    if u == v:
        return None
    kinds = set()
    for a, b in zip(u, v):
        if a == b:
            continue
        k = graph.kind(a, b)
        if k == SEMILATTICE:
            if not graph.semilattice_arc(a, b):
                return None
            kinds.add(SEMILATTICE)
        elif k in (MAJORITY, AFFINE):
            kinds.add(k)
        else:
            return None
        if len(kinds) > 1:
            return None
    return kinds.pop() if kinds else None


def _tuple_sa_adjacency(rows: Sequence[tuple], graph: EdgeLabeledGraph) -> dict:
    adj: dict = {u: set() for u in rows}
    for u, v in itertools.combinations(rows, 2):
        for x, y in ((u, v), (v, u)):
            kind = tuple_edge_kind(x, y, graph)
            if kind == SEMILATTICE:
                adj[x].add(y)
            elif kind == AFFINE:
                adj[x].add(y)
                adj[y].add(x)
                break
    return adj


def find_path(rel: Relation, graph: EdgeLabeledGraph, a: tuple,
              b: tuple) -> Optional[list[tuple]]:
    """Breadth-first path from a to b over semilattice/affine tuple edges."""
    a, b = tuple(a), tuple(b)
    if a not in rel or b not in rel:
        raise InvalidArgumentError("path endpoints must lie in the relation")
    prev = _bfs(_tuple_sa_adjacency(rel.sorted_tuples(), graph), a)
    if b not in prev:
        return None
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def as_components_of_relation(rel: Relation,
                              graph: EdgeLabeledGraph) -> list[frozenset]:
    """Sink SCCs of the tuple-level SA digraph of a relation."""
    rows = rel.sorted_tuples()
    if not rows:
        raise InvalidArgumentError("as-components of an empty relation")
    return _sink_sccs(_tuple_sa_adjacency(rows, graph))


def strands_of_relation(rel: Relation,
                        components: Sequence[Iterable[int]]) -> list[frozenset[int]]:
    """Partition positions by the membership biconditional over all tuples.

    Positions i, j fall together iff every tuple is inside component i
    exactly when it is inside component j.
    """
    if len(components) != rel.arity:
        raise InvalidArgumentError("one component per position required")
    comps = [frozenset(c) for c in components]
    for i, c in enumerate(comps):
        if not c <= rel.signature[i]:
            raise InvalidArgumentError(
                f"component at position {i} leaves the signature")
    rows = rel.sorted_tuples()
    profile = {
        i: tuple(t[i] in comps[i] for t in rows) for i in range(rel.arity)
    }
    blocks: dict[tuple, set[int]] = {}
    for i in range(rel.arity):
        blocks.setdefault(profile[i], set()).add(i)
    return sorted((frozenset(b) for b in blocks.values()), key=min)


def connected_groups(variables: Sequence, links: Iterable[Sequence]
                     ) -> list[list]:
    """Union-find: the groups of `variables` that the links join, each in
    the order of `variables` and ordered by its first variable."""
    parent = {v: v for v in variables}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for link in links:
        root = find(link[0])
        for v in link[1:]:
            other = find(v)
            if other != root:
                parent[other] = root
    groups: dict = {}
    for v in variables:
        groups.setdefault(find(v), []).append(v)
    return list(groups.values())


def strands_of_instance(inst: Instance, coll: dict) -> list[frozenset]:
    """Merge variables that share a strand of any constraint's relation."""
    links = [[scope[i] for i in block] for scope, rel in inst.constraints
             for block in strands_of_relation(rel, [coll[v] for v in scope])]
    return [frozenset(g) for g in connected_groups(inst.variables, links)]


def is_linked(rel: Relation) -> bool:
    """Binary subdirect relation: both share-a-neighbor closures are total.

    Equivalent to connectivity of the bipartite incidence graph.
    """
    if rel.arity != 2:
        raise InvalidArgumentError("linkedness is defined for binary relations")
    if not rel.tuples:
        return False
    adj: dict[tuple, set[tuple]] = {}  # (position, value) nodes
    for a, b in rel.tuples:
        adj.setdefault((0, a), set()).add((1, b))
        adj.setdefault((1, b), set()).add((0, a))
    return len(_bfs(adj, next(iter(adj)))) == len(adj)


@dataclass(frozen=True)
class LawResult:
    law: str
    status: str  # "pass" | "fail" | "hypothesis-not-met"
    detail: str = ""
    counterexample: Optional[tuple] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _hyp(law, detail):
    return LawResult(law, "hypothesis-not-met", detail)


def _fail(law, detail, ce=None):
    return LawResult(law, "fail", detail, ce)


def _pass(law, detail=""):
    return LawResult(law, "pass", detail)


def _components_ok(rel: Relation, graph, comps) -> Optional[str]:
    if len(comps) != rel.arity:
        return "one component per position required"
    for i, c in enumerate(comps):
        if not frozenset(c) <= rel.signature[i]:
            return f"component {i} leaves the signature"
        if frozenset(c) not in as_components(rel.signature[i], graph):
            return f"component {i} is not an as-component of its domain"
    return None


def check_law(law: str, inputs: dict) -> LawResult:
    """Run one structural law on explicit inputs.

    Laws: path-extension, connectivity, max-extension, rectangularity, crt,
    linked-rectangularity.  Hypotheses are verified first and reported as
    hypothesis-not-met, distinct from a genuine failure of the conclusion.
    """
    if law not in LAWS:
        raise InvalidArgumentError(f"unknown law {law!r}")
    handler = {
        "path-extension": _law_path_extension,
        "connectivity": _law_connectivity,
        "max-extension": _law_max_extension,
        "rectangularity": _law_rectangularity,
        "crt": _law_crt,
        "linked-rectangularity": _law_linked_rectangularity,
    }[law]
    return handler(inputs)


def _law_path_extension(inputs) -> LawResult:
    law = "path-extension"
    rel: Relation = inputs["relation"]
    graph: EdgeLabeledGraph = inputs["graph"]
    alg: Algebra = inputs["algebra"]
    indices: Sequence[int] = list(inputs["indices"])
    path: Sequence[tuple] = [tuple(t) for t in inputs["path"]]
    if not path:
        return _hyp(law, "empty path")
    proj = project(rel, indices)
    kinds = []
    for t in path:
        if t not in proj:
            return _hyp(law, f"path tuple {t} not in the projection")
    for u, v in zip(path, path[1:]):
        kind = tuple_edge_kind(u, v, graph)
        if kind not in (SEMILATTICE, AFFINE):
            return _hyp(law, f"step {u}->{v} is not a semilattice/affine edge")
        kinds.append(kind)

    def extension(target):
        for t in rel.sorted_tuples():
            if tuple(t[i] for i in indices) == target:
                return t
        return None

    cur = extension(path[0])
    lifted = [cur]
    for step_to, kind in zip(path[1:], kinds):
        w = extension(step_to)
        if w is None:
            return _fail(law, f"no extension of {step_to} in the relation")
        pw = apply_componentwise(alg.p, (w, cur))
        if kind == SEMILATTICE:
            nxt = apply_componentwise(alg.f, (cur, pw))
            lifted.append(nxt)
        else:
            mid = apply_componentwise(alg.f, (cur, pw))
            nxt = apply_componentwise(alg.f, (pw, cur))
            lifted.extend([mid, nxt])
        cur = nxt

    cleaned = [lifted[0]]
    for t in lifted[1:]:
        if t != cleaned[-1]:
            cleaned.append(t)
    for t in cleaned:
        if t not in rel:
            return _fail(law, f"constructed tuple {t} leaves the relation", (t,))
    for u, v in zip(cleaned, cleaned[1:]):
        if tuple_edge_kind(u, v, graph) not in (SEMILATTICE, AFFINE):
            return _fail(law, f"constructed step {u}->{v} is not an edge", (u, v))
    want = [tuple(t[i] for i in indices) for t in cleaned]
    stripped = [want[0]]
    for t in want[1:]:
        if t != stripped[-1]:
            stripped.append(t)
    if stripped != list(dict.fromkeys(path)) and stripped != list(path):
        return _fail(law, f"lifted path projects to {stripped}, wanted {list(path)}")
    return _pass(law)


def _law_connectivity(inputs) -> LawResult:
    law = "connectivity"
    rel: Relation = inputs["relation"]
    graph = inputs["graph"]
    comps = [frozenset(c) for c in inputs["components"]]
    if not rel.tuples:
        return _hyp(law, "empty relation")
    if not rel.is_subdirect():
        return _hyp(law, "relation is not subdirect on its factors")
    bad = _components_ok(rel, graph, comps)
    if bad:
        return _hyp(law, bad)
    inside = frozenset(t for t in rel.tuples
                       if all(t[i] in comps[i] for i in range(rel.arity)))
    if not inside:
        return _hyp(law, "relation misses the component box")
    for i in range(rel.arity):
        if {t[i] for t in inside} != set(comps[i]):
            return _fail(law, f"restriction is not subdirect at position {i}")
    sinks = as_components_of_relation(rel, graph)
    if inside not in sinks:
        return _fail(law, "component box is not an as-component of the relation")
    return _pass(law)


def _law_max_extension(inputs) -> LawResult:
    law = "max-extension"
    rel: Relation = inputs["relation"]
    graph = inputs["graph"]
    indices: Sequence[int] = list(inputs["indices"])
    partial: tuple = tuple(inputs["partial"])
    if not rel.tuples:
        return _hyp(law, "empty relation")
    if not rel.is_subdirect():
        return _hyp(law, "relation is not subdirect on its factors")
    proj = project(rel, indices)
    if partial not in proj:
        return _hyp(law, "partial tuple not in the projection")
    comp_cache = {i: as_components(rel.signature[i], graph)
                  for i in range(rel.arity)}

    def in_component(i, v):
        return any(v in c for c in comp_cache[i])

    for k, i in enumerate(indices):
        if not in_component(i, partial[k]):
            return _hyp(law, f"value at projected position {i} is outside "
                             "every as-component")
    for t in rel.sorted_tuples():
        if tuple(t[i] for i in indices) != partial:
            continue
        if all(in_component(i, t[i]) for i in range(rel.arity)):
            return _pass(law)
    return _fail(law, "no extension with all values inside as-components")


def _law_rectangularity(inputs) -> LawResult:
    law = "rectangularity"
    rel: Relation = inputs["relation"]
    graph = inputs["graph"]
    comps = [frozenset(c) for c in inputs["components"]]
    if not rel.tuples:
        return _hyp(law, "empty relation")
    if not rel.is_subdirect():
        return _hyp(law, "relation is not subdirect on its factors")
    bad = _components_ok(rel, graph, comps)
    if bad:
        return _hyp(law, bad)
    if not any(all(t[i] in comps[i] for i in range(rel.arity)) for t in rel.tuples):
        return _hyp(law, "relation misses the component box")
    blocks = strands_of_relation(rel, comps)
    factors = []
    for block in blocks:
        idx = sorted(block)
        proj = project(rel, idx)
        inside = [t for t in proj.tuples
                  if all(t[k] in comps[i] for k, i in enumerate(idx))]
        factors.append((idx, inside))
    for combo in itertools.product(*(f[1] for f in factors)):
        merged = [None] * rel.arity
        for (idx, _), part in zip(factors, combo):
            for k, i in enumerate(idx):
                merged[i] = part[k]
        if tuple(merged) not in rel:
            return _fail(law, f"product tuple {tuple(merged)} missing",
                         (tuple(merged),))
    return _pass(law)


def _law_crt(inputs) -> LawResult:
    law = "crt"
    rel: Relation = inputs["relation"]
    graph = inputs["graph"]
    comps = [frozenset(c) for c in inputs["components"]]
    if not rel.tuples:
        return _hyp(law, "empty relation")
    if not rel.is_subdirect():
        return _hyp(law, "relation is not subdirect on its factors")
    bad = _components_ok(rel, graph, comps)
    if bad:
        return _hyp(law, bad)
    for i, j in itertools.combinations(range(rel.arity), 2):
        if not any(t[i] in comps[i] and t[j] in comps[j] for t in rel.tuples):
            return _hyp(law, f"collection not consistent at positions ({i},{j})")
    if any(all(t[i] in comps[i] for i in range(rel.arity)) for t in rel.tuples):
        return _pass(law)
    return _fail(law, "pairwise consistent collection misses the relation")


def _law_linked_rectangularity(inputs) -> LawResult:
    law = "linked-rectangularity"
    rel: Relation = inputs["relation"]
    graph = inputs["graph"]
    comps = [frozenset(c) for c in inputs["components"]]
    if rel.arity != 2:
        return _hyp(law, "law needs a binary relation")
    if not rel.tuples:
        return _hyp(law, "empty relation")
    if not rel.is_subdirect():
        return _hyp(law, "relation is not subdirect")
    if not is_linked(rel):
        return _hyp(law, "relation is not linked")
    bad = _components_ok(rel, graph, comps)
    if bad:
        return _hyp(law, bad)
    if not any(t[0] in comps[0] and t[1] in comps[1] for t in rel.tuples):
        return _hyp(law, "relation misses the component box")
    for a in sorted(comps[0]):
        for b in sorted(comps[1]):
            if (a, b) not in rel:
                return _fail(law, f"({a},{b}) missing from the box", ((a, b),))
    return _pass(law)
