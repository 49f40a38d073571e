"""The classifier against the list-homomorphism dichotomies.

The conservative CSP of a graph H (one symmetric binary relation, its
edges) is list H-colouring, whose complexity is known in graph terms:

- reflexive H is tractable iff H is an interval graph (Feder and Hell,
  JCTB 72(2), 1998);
- irreflexive H that is not bipartite is NP-complete even without lists
  (Hell and Nesetril, JCTB 48(1), 1990).

A graph is an interval graph iff it is chordal and has no asteroidal
triple (Lekkerkerker and Boland, Fund. Math. 51, 1962); both are tested
here by brute force, which suffices at these sizes.  Nothing of ccsp is
used but the language type, `relation` and the classifier.
"""

import itertools
import random

import numpy as np

from ccsp import ConstraintLanguage, classify_language, relation


def _neighbours(n, edges):
    """Per vertex, its neighbours other than itself."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return adj


def _is_chordal(adj):
    """Removing simplicial vertices (neighbours pairwise adjacent) one by
    one empties a graph iff it is chordal."""
    left = set(range(len(adj)))
    while left:
        simplicial = [v for v in left if all(
            b in adj[a] for a, b in itertools.combinations(adj[v] & left, 2))]
        if not simplicial:
            return False
        left.remove(simplicial[0])
    return True


def _joined_avoiding(adj, a, b, blocked):
    """Whether a path joins a and b through vertices outside `blocked`."""
    seen, stack = {a}, [a]
    while stack:
        v = stack.pop()
        if v == b:
            return True
        for w in adj[v] - blocked - seen:
            seen.add(w)
            stack.append(w)
    return False


def _has_asteroidal_triple(adj):
    """Three pairwise non-adjacent vertices, each two joined by a path
    that avoids the closed neighbourhood of the third."""
    for triple in itertools.combinations(range(len(adj)), 3):
        if any(b in adj[a] for a, b in itertools.combinations(triple, 2)):
            continue
        if all(_joined_avoiding(adj, a, b, adj[c] | {c})
               for a, b, c in ((triple[0], triple[1], triple[2]),
                               (triple[0], triple[2], triple[1]),
                               (triple[1], triple[2], triple[0]))):
            return True
    return False


def _is_interval(adj):
    return _is_chordal(adj) and not _has_asteroidal_triple(adj)


def _graph_relation(n, edges, reflexive):
    """The symmetric edge relation of a graph on range(n), with a loop at
    every vertex when `reflexive`."""
    tuples = {t for u, v in edges for t in ((u, v), (v, u))}
    if reflexive:
        tuples |= {(v, v) for v in range(n)}
    return relation(tuples)


def _cycle(n):
    return [(v, (v + 1) % n) for v in range(n)]


def _random_edges(n, rng):
    density = rng.uniform(0.35, 0.65)
    return [e for e in itertools.combinations(range(n), 2)
            if rng.random() < density]


def _is_conservative_polymorphism(table, arity, rel):
    """Whether an `arity`-ary table picks one of its arguments everywhere
    and maps every `arity` rows of the binary `rel` componentwise into
    `rel`."""
    t = np.asarray(table)
    args = np.array(list(itertools.product(range(len(t)), repeat=arity)))
    out = t[tuple(args.T)]
    if not (out[:, None] == args).any(axis=1).all():
        return False
    rows = np.array(sorted(rel.tuples))
    member = np.zeros((len(t), len(t)), dtype=bool)
    member[tuple(rows.T)] = True
    picks = np.array(list(itertools.product(range(len(rows)), repeat=arity)))
    image = [t[tuple(rows[picks, position].T)] for position in range(2)]
    return bool(member[image[0], image[1]].all())


def _check_reflexive_graph(n, edges):
    """Classify the reflexive graph: it must be tractable exactly when it
    is an interval graph, and a tractable verdict's f, p, g and h must be
    conservative polymorphisms of its edges.  Returns whether it is an
    interval graph."""
    rel = _graph_relation(n, edges, reflexive=True)
    verdict = classify_language(ConstraintLanguage(n, (rel,)))
    interval = _is_interval(_neighbours(n, edges))
    assert verdict.tractable == interval, (n, edges, verdict.kind)
    if verdict.tractable:
        alg = verdict.algebra
        for name, table, arity in (("f", alg.f, 2), ("p", alg.p, 2),
                                   ("g", alg.g, 3), ("h", alg.h, 3)):
            assert _is_conservative_polymorphism(
                table, arity, rel), (n, edges, name)
    return interval


def test_reflexive_graphs_are_tractable_exactly_when_interval():
    rng = random.Random(17)
    verdicts = {True: 0, False: 0}
    for k in range(150):
        n = 4 + k % 3
        verdicts[_check_reflexive_graph(n, _random_edges(n, rng))] += 1
    assert min(verdicts.values()) >= 30, verdicts


def test_random_reflexive_graphs_at_seven_and_eight_vertices():
    """Random graphs, most of them not interval graphs."""
    rng = random.Random(29)
    verdicts = {True: 0, False: 0}
    for k in range(24):
        n = 7 + k % 2
        verdicts[_check_reflexive_graph(n, _random_edges(n, rng))] += 1
    assert min(verdicts.values()) >= 4, verdicts


def _random_interval_graph(n, rng):
    """The edges of the intersection graph of n random closed intervals,
    each starting in range(2n) and 0-5 long: an interval graph by
    construction."""
    spans = []
    for _ in range(n):
        left = rng.randrange(2 * n)
        spans.append((left, left + rng.randrange(6)))
    return [(u, v) for u, v in itertools.combinations(range(n), 2)
            if spans[u][0] <= spans[v][1] and spans[v][0] <= spans[u][1]]


def test_reflexive_interval_graphs_at_seven_and_eight_vertices():
    rng = random.Random(23)
    for k in range(16):
        n = 7 + k % 2
        edges = _random_interval_graph(n, rng)
        assert _check_reflexive_graph(n, edges), (n, edges)


def test_irreflexive_graphs_with_an_odd_cycle_are_np_complete():
    graphs = [(n, _cycle(n)) for n in (5, 7)]
    rng = random.Random(19)
    for k in range(20):
        n = 4 + k % 3
        a, b, c = rng.sample(range(n), 3)
        graphs.append((n, _random_edges(n, rng) + [(a, b), (b, c), (a, c)]))
    for n, edges in graphs:
        rel = _graph_relation(n, edges, reflexive=False)
        verdict = classify_language(ConstraintLanguage(n, (rel,)))
        assert verdict.kind == "np-complete", (n, edges)


def test_the_interval_recognizer_on_known_graphs():
    """C4 and C5 are not chordal; the net (a triangle with a pendant edge
    at each corner) is chordal with an asteroidal triple; paths, cliques
    and a triangle with one pendant edge are interval graphs."""
    net = [(0, 1), (1, 2), (0, 2), (0, 3), (1, 4), (2, 5)]
    assert not _is_chordal(_neighbours(4, _cycle(4)))
    assert not _is_chordal(_neighbours(5, _cycle(5)))
    assert _is_chordal(_neighbours(6, net))
    assert _has_asteroidal_triple(_neighbours(6, net))
    assert _is_interval(_neighbours(5, [(v, v + 1) for v in range(4)]))
    assert _is_interval(_neighbours(
        5, list(itertools.combinations(range(5), 2))))
    assert _is_interval(_neighbours(4, [(0, 1), (1, 2), (0, 2), (2, 3)]))


def test_the_polymorphism_check_on_a_reflexive_path():
    """max is a polymorphism of the reflexive path 0-1-2; changing the
    first projection at (1, 2) to 2 maps the edges (1, 0) and (2, 1) to
    the non-edge (2, 0); a table answering 2 at (0, 1) is not
    conservative."""
    path = _graph_relation(3, [(0, 1), (1, 2)], reflexive=True)
    first = [[x] * 3 for x in range(3)]
    assert _is_conservative_polymorphism(
        [[max(x, y) for y in range(3)] for x in range(3)], 2, path)
    assert _is_conservative_polymorphism(first, 2, path)
    first[1][2] = 2
    assert not _is_conservative_polymorphism(first, 2, path)
    first[1][2], first[0][1] = 1, 2
    assert not _is_conservative_polymorphism(first, 2, path)
