import itertools

import pytest

from ccsp.classify import (MAJORITY, PairLabel, EdgeLabeledGraph,
                           semilattice_label)
from ccsp.errors import InvalidArgumentError
from ccsp.harness import (Rng, canonical_a3, gen_closed_relation,
                          gen_label_graph)
from ccsp.laws import check_law
from ccsp.model import Instance, close_under_ops, project, relation
from ccsp.solver import lev
from ccsp.structure import (as_components, as_components_of_relation,
                            first_path, is_linked, is_semilattice_free,
                            sa_arcs, strands_of_instance, strands_of_relation,
                            tuple_edge_kind)


@pytest.fixture(scope="module")
def a3():
    return canonical_a3()


def all_majority_graph(n=3):
    return EdgeLabeledGraph(n, {p: PairLabel(MAJORITY)
                                for p in itertools.combinations(range(n), 2)})


def chain_graph():
    return EdgeLabeledGraph(2, {(0, 1): semilattice_label([(0, 1)])})


def test_as_components_all_majority():
    comps = as_components({0, 1, 2}, all_majority_graph())
    assert comps == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_as_components_a3(a3):
    _, graph = a3
    assert as_components({0, 1, 2}, graph) == [frozenset({1, 2})]


def test_as_components_chain():
    assert as_components({0, 1}, chain_graph()) == [frozenset({1})]


def test_as_components_properties(a3):
    """Blocks are disjoint, internally strongly connected, no outgoing arcs."""
    rng = Rng(5)
    for i in range(30):
        r = rng.split(i)
        graph = gen_label_graph(4, r)
        dom = frozenset(r.sample(range(4), r.randint(1, 4)))
        comps = as_components(dom, graph)
        adj = sa_arcs(dom, graph)
        seen = set()
        for comp in comps:
            assert not (comp & seen)
            seen |= comp
            for v in comp:
                assert set(adj[v]) <= comp  # sink
            for u, v in itertools.permutations(comp, 2):
                # strong connectivity inside the block
                reach, stack = {u}, [u]
                while stack:
                    x = stack.pop()
                    for y in adj[x]:
                        if y in comp and y not in reach:
                            reach.add(y)
                            stack.append(y)
                assert v in reach


def test_semilattice_free(a3):
    _, graph = a3
    assert is_semilattice_free({1, 2}, graph)
    assert not is_semilattice_free({0, 1, 2}, graph)
    assert is_semilattice_free({0, 1, 2}, all_majority_graph())
    inst = Instance(["v"], {"v": {0, 1}}, [], None)
    assert lev(inst, chain_graph()) == 2


def test_find_path_trivial_and_affine(a3):
    _, graph = a3
    r = relation(itertools.product((1, 2), repeat=2))
    assert first_path(r, graph, [((1, 1), (1, 1))]) == [(1, 1)]
    path = first_path(r, graph, [((1, 1), (2, 2))])
    assert path[0] == (1, 1) and path[-1] == (2, 2)
    for u, v in zip(path, path[1:]):
        assert tuple_edge_kind(u, v, graph) in ("semilattice", "affine")


def test_find_path_none_without_edges():
    graph = all_majority_graph(2)
    r = relation([(0, 0), (1, 1)])
    assert first_path(r, graph, [((0, 0), (1, 1))]) is None


def test_strands_examples(a3):
    _, graph = a3
    rr = relation([(0, 1), (0, 2), (1, 1), (1, 2)])     # {0,1} x {1,2}
    assert strands_of_relation(rr, [{1}, {1, 2}]) == [frozenset({0}),
                                                      frozenset({1})]
    assert strands_of_relation(rr, [{0, 1}, {1, 2}]) == [frozenset({0, 1})]
    diag = relation([(1, 1), (2, 2)])
    assert strands_of_relation(diag, [{1, 2}, {1, 2}]) == [frozenset({0, 1})]


def test_strands_component_outside_signature():
    rr = relation([(0, 1)])
    with pytest.raises(InvalidArgumentError):
        strands_of_relation(rr, [{5}, {1}])


def test_strands_invariant_under_position_permutation(a3):
    alg, graph = a3
    rng = Rng(9)
    for i in range(20):
        r = rng.split(i)
        rel = gen_closed_relation(alg, [frozenset({0, 1, 2})] * 3, r, seeds=2)
        comps = [r.choice(as_components(rel.signature[k], graph))
                 for k in range(3)]
        blocks = strands_of_relation(rel, comps)
        perm = list(range(3))
        r.shuffle(perm)
        prel = relation([tuple(t[perm[k]] for k in range(3)) for t in rel.tuples])
        pcomps = [comps[perm[k]] for k in range(3)]
        pblocks = strands_of_relation(prel, pcomps)
        mapped = {frozenset(perm[j] for j in b) for b in pblocks}
        assert set(blocks) == mapped


def test_strands_of_instance_merging(a3):
    _, graph = a3
    diag = relation([(1, 1), (2, 2)], signature=[{1, 2}, {1, 2}])
    inst = Instance(["v", "w", "z"],
                    {"v": {1, 2}, "w": {1, 2}, "z": {1, 2}},
                    [(("v", "w"), diag)], None)
    coll = {"v": frozenset({1, 2}), "w": frozenset({1, 2}),
            "z": frozenset({1, 2})}
    strands = strands_of_instance(inst, coll)
    assert frozenset({"v", "w"}) in strands
    assert frozenset({"z"}) in strands


def test_strands_of_instance_no_constraints():
    inst = Instance(["a", "b"], {"a": {0}, "b": {0}}, [], None)
    assert strands_of_instance(inst, {"a": frozenset({0}), "b": frozenset({0})}) \
        == [frozenset({"a"}), frozenset({"b"})]


def test_is_linked_examples():
    assert is_linked(relation(itertools.product((0, 1), repeat=2)))
    assert not is_linked(relation([(0, 0), (1, 1)]))
    assert is_linked(relation([(0, 0), (0, 1), (1, 1)]))
    with pytest.raises(InvalidArgumentError):
        is_linked(relation([(0, 0, 0)]))


# -- laws --------------------------------------------------------------------

def test_law_rejects_unknown_name(a3):
    with pytest.raises(InvalidArgumentError):
        check_law("nonsense", {})


def test_rectangularity_on_product(a3):
    _, graph = a3
    rr = relation([(1, 1), (1, 2)])  # {1} x {1,2}
    res = check_law("rectangularity",
                    {"relation": rr, "graph": graph,
                     "components": [{1}, {1, 2}]})
    assert res.passed


def test_crt_on_closed_relation(a3):
    alg, graph = a3
    rel = close_under_ops([(1, 1, 2), (2, 2, 1)], alg)
    rel = relation(rel.tuples)
    comps = [as_components(rel.signature[i], graph)[0] for i in range(3)]
    res = check_law("crt", {"relation": rel, "graph": graph,
                            "components": comps})
    assert res.status in ("pass", "hypothesis-not-met")
    if res.status == "pass":
        assert any(all(t[i] in comps[i] for i in range(3)) for t in rel.tuples)


def test_connectivity_law_and_path_reachability(a3):
    alg, graph = a3
    rng = Rng(31)
    checked = 0
    for i in range(40):
        r = rng.split(i)
        doms = [frozenset(r.sample(range(3), r.randint(1, 3)))
                for _ in range(r.randint(2, 3))]
        rel = gen_closed_relation(alg, doms, r, seeds=r.randint(1, 3))
        comps = []
        ok = True
        for k in range(rel.arity):
            cs = as_components(rel.signature[k], graph)
            comps.append(cs[0])
        res = check_law("connectivity", {"relation": rel, "graph": graph,
                                         "components": comps})
        assert res.status != "fail", res.detail
        if res.passed:
            checked += 1
            inside = [t for t in rel.tuples
                      if all(t[k] in comps[k] for k in range(rel.arity))]
            sub = relation(inside, signature=rel.signature)
            for u in inside:
                for v in inside:
                    assert first_path(sub, graph, [(u, v)]) is not None
    assert checked > 5


def test_path_extension_law(a3):
    alg, graph = a3
    rel = close_under_ops([(0, 1, 1), (1, 1, 2), (1, 2, 1)], alg)
    rel = relation(rel.tuples)
    proj = project(rel, [0])
    found = False
    for a in proj.sorted_tuples():
        for b in proj.sorted_tuples():
            if a != b:
                path = first_path(proj, graph, [(a, b)])
                if path and len(path) >= 2:
                    res = check_law("path-extension",
                                    {"relation": rel, "graph": graph,
                                     "algebra": alg, "indices": [0],
                                     "path": path})
                    assert res.passed, res.detail
                    found = True
    assert found


def test_linked_rectangularity_law(a3):
    alg, graph = a3
    rel = relation(itertools.product((1, 2), repeat=2))
    res = check_law("linked-rectangularity",
                    {"relation": rel, "graph": graph,
                     "components": [{1, 2}, {1, 2}]})
    assert res.passed
    bij = relation([(1, 1), (2, 2)])
    res = check_law("linked-rectangularity",
                    {"relation": bij, "graph": graph,
                     "components": [{1, 2}, {1, 2}]})
    assert res.status == "hypothesis-not-met"


def test_max_extension_law(a3):
    alg, graph = a3
    rel = close_under_ops([(1, 1), (2, 2), (1, 2)], alg)
    rel = relation(rel.tuples)
    res = check_law("max-extension", {"relation": rel, "graph": graph,
                                      "indices": [0], "partial": (1,)})
    assert res.passed


def test_collection_extension_law(a3):
    _, graph = a3
    # not closed under a3: the head {0} x {0} meets only the last value 0,
    # which lies in no as-component of {0, 1, 2} (whose only one is {1, 2})
    rel = relation([(0, 0, 0), (2, 2, 1), (2, 2, 2)])

    def status(comps):
        return check_law("collection-extension",
                         {"relation": rel, "graph": graph,
                          "components": comps}).status
    assert status([{2}, {2}, {1, 2}]) == "pass"
    assert status([{0}, {2}, {1, 2}]) == "hypothesis-not-met"
    assert status([{0}, {0}, {1, 2}]) == "fail"
