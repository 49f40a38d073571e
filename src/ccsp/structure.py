"""Structure of the affine/semilattice digraph: components, paths, strands.

The SA digraph on a domain has one arc a -> b per semilattice pair oriented
a -> b and a pair of opposite arcs for each affine pair.  An as-component
is a sink strongly-connected component of that digraph: internally strongly
connected, with no semilattice or affine arc leaving it.  The same notions
lift to relations through componentwise edges between tuples.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable, Optional, Sequence

from .classify import AFFINE, MAJORITY, SEMILATTICE, EdgeLabeledGraph
from .errors import InvalidArgumentError
from .model import Instance, Relation


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
