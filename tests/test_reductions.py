import itertools

import pytest

from ccsp.classify import EdgeLabeledGraph, PairLabel, MAJORITY, \
    semilattice_label
from ccsp.errors import InternalInvariantError, InvalidArgumentError
from ccsp.harness import (GeneratorConfig, brute_force_solve, canonical_a3,
                          canonical_algebra, gen_algebra, gen_instance,
                          gen_planted_instance)
from ccsp import solver
from ccsp.minimality import establish_3_minimality
from ccsp.model import (Constraint, Instance, close_under_ops, project,
                        relation, restrict_relation, summ, verify_assignment)
from ccsp.structure import as_components, strands_of_instance
from ccsp.reductions import (arc_free_elements, arc_free_restriction,
                             combine_solutions, exclude_components,
                             find_consistent_collection, idempotent_power,
                             is_permutational, maps_from_solution,
                             multiplied_instance, retract_instance,
                             retraction_step, split_by_strands)


@pytest.fixture(scope="module")
def a3():
    return canonical_a3()


def chain_setup():
    graph = EdgeLabeledGraph(2, {(0, 1): semilattice_label([(0, 1)])})
    return canonical_algebra(graph), graph


def all_majority(n=3):
    graph = EdgeLabeledGraph(n, {p: PairLabel(MAJORITY) for p in
                                 itertools.combinations(range(n), 2)})
    return canonical_algebra(graph), graph


# -- consistent collections --------------------------------------------------

def collection(inst, graph):
    """The consistent collection of the 3-minimal instance, which keeps
    the domains of each instance below."""
    pruned, engine = establish_3_minimality(inst)
    assert pruned.domains == inst.domains
    return find_consistent_collection(pruned, graph, engine)


def test_collection_no_constraints(a3):
    alg, graph = a3
    inst = Instance(["v", "w"], {"v": {0, 1, 2}, "w": {0, 1}}, [], alg)
    coll = collection(inst, graph)
    assert coll["v"] == frozenset({1, 2})
    assert coll["w"] == frozenset({1})


def test_collection_diagonal(a3):
    alg, graph = a3
    diag = relation([(a, a) for a in range(3)])
    inst = Instance(["v", "w"], {"v": {0, 1, 2}, "w": {0, 1, 2}},
                    [(("v", "w"), diag)], alg)
    coll = collection(inst, graph)
    assert coll == {"v": frozenset({1, 2}), "w": frozenset({1, 2})}


def test_collection_single_majority_variable():
    alg, graph = all_majority()
    inst = Instance(["v"], {"v": {0, 1, 2}}, [], alg)
    coll = collection(inst, graph)
    assert coll["v"] == frozenset({0})


def test_collection_nonempty_invariant(a3):
    alg, graph = a3
    rel = close_under_ops([(1, 1), (2, 2), (1, 2)], alg)
    inst = Instance(["v", "w"], {"v": {1, 2}, "w": {1, 2}},
                    [(("v", "w"), rel)], alg)
    coll = collection(inst, graph)
    for scope, r in inst.constraints:
        assert any(all(t[i] in coll[scope[i]] for i in range(len(scope)))
                   for t in r.tuples)


# -- strand splitting ---------------------------------------------------------

def test_split_product_into_unary(a3):
    alg, graph = a3
    rr = relation([(0, 1), (0, 2), (1, 1), (1, 2)],
                  signature=[{0, 1}, {1, 2}])
    inst = Instance(["v", "w"], {"v": {0, 1}, "w": {1, 2}},
                    [(("v", "w"), rr)], alg)
    coll = {"v": frozenset({1}), "w": frozenset({1, 2})}
    assert strands_of_instance(inst, coll) == [{"v"}, {"w"}]
    # v's strand has no choice left, so only w's is returned
    [(strand, sub)] = split_by_strands(inst, coll)
    assert strand == {"w"}
    assert sub.variables == ("w",)
    assert sub.domains == {"w": {1, 2}}
    assert list(sub.constraints) == _strand_constraints(inst, coll, strand)


def test_split_single_strand_keeps_instance(a3):
    alg, graph = a3
    diag = relation([(1, 1), (2, 2)], signature=[{1, 2}, {1, 2}])
    inst = Instance(["v", "w"], {"v": {1, 2}, "w": {1, 2}},
                    [(("v", "w"), diag)], alg)
    coll = {"v": frozenset({1, 2}), "w": frozenset({1, 2})}
    [(strand, sub)] = split_by_strands(inst, coll)
    assert strand == {"v", "w"}
    assert sub.variables == ("v", "w")


def test_split_disjoint_clusters(a3):
    alg, graph = a3
    diag = relation([(1, 1), (2, 2)], signature=[{1, 2}, {1, 2}])
    inst = Instance(["a", "b", "c", "d"],
                    {v: {1, 2} for v in "abcd"},
                    [(("a", "b"), diag), (("c", "d"), diag)], alg)
    coll = {v: frozenset({1, 2}) for v in "abcd"}
    split = split_by_strands(inst, coll)
    assert len(split) == 2
    assert split[0][0] == {"a", "b"}
    assert set(split[0][1].variables) == {"a", "b"}


def _strand_constraints(inst, coll, strand):
    """A strand's constraints by definition: each constraint meeting the
    strand projected onto its positions there, then restricted to the
    chosen components; a repeat of an earlier one is dropped."""
    cons, seen = [], set()
    for scope, rel in inst.constraints:
        positions = [i for i, v in enumerate(scope) if v in strand]
        if not positions:
            continue
        sub_scope = tuple(scope[i] for i in positions)
        sub = restrict_relation(project(rel, positions),
                                [coll[v] for v in sub_scope])
        if (sub_scope, sub.tuples) not in seen:
            seen.add((sub_scope, sub.tuples))
            cons.append(Constraint(sub_scope, sub))
    return cons


def test_split_cuts_positions_of_one_strand_apart(a3):
    # the product has a strand per position; the diagonal merges them
    alg, graph = a3
    box = relation(itertools.product(range(3), repeat=2))
    diag = relation([(a, a) for a in range(3)])
    inst = Instance(["a", "b"], {v: {0, 1, 2} for v in "ab"},
                    [(("a", "b"), box), (("b", "a"), diag)], alg)
    coll = {v: frozenset({1, 2}) for v in "ab"}
    [(strand, sub)] = split_by_strands(inst, coll)
    assert strand == {"a", "b"}
    assert list(sub.constraints) == _strand_constraints(inst, coll, strand)
    assert sub.constraints[0].relation.tuples == set(
        itertools.product((1, 2), repeat=2))


def test_split_matches_project_then_restrict():
    checked = several = 0
    for seed in range(400):
        cfg = GeneratorConfig(seed=seed, domain_size=3 + seed % 2,
                              variable_count=4 + seed % 7,
                              constraint_count=3 + seed % 6, max_arity=3)
        alg, graph = gen_algebra(cfg)
        gen = gen_planted_instance if seed % 2 else gen_instance
        out = establish_3_minimality(gen(alg, graph, cfg))
        if out is None:
            continue
        pruned, engine = out
        if all(as_components(d, graph) == [d]
               for d in pruned.domains.values()):
            continue
        coll = find_consistent_collection(pruned, graph, engine)
        split = split_by_strands(pruned, coll)
        strands = [strand for strand, _sub in split]
        left_out = [strand for strand in strands_of_instance(pruned, coll)
                    if strand not in strands]
        assert all(strands), seed
        assert sum(map(len, strands + left_out)) == len(pruned.variables), \
            seed
        assert set().union(*strands, *left_out) == set(pruned.variables), \
            seed
        for strand, sub in split:
            assert any(len(coll[v]) > 1 for v in strand), seed
            assert sub.variables == tuple(v for v in pruned.variables
                                          if v in strand), seed
            assert sub.domains == {v: coll[v] for v in strand}, seed
            assert list(sub.constraints) == _strand_constraints(
                pruned, coll, strand), seed
        for strand in left_out:
            forced = {v: min(coll[v]) for v in strand}
            assert all(len(coll[v]) == 1 for v in strand), seed
            assert all(tuple(forced[v] for v in scope) in rel
                       for scope, rel in _strand_constraints(
                           pruned, coll, strand)), seed
        checked += 1
        several += len(strands + left_out) > 1
    assert checked >= 200 and several >= 50, (checked, several)


def test_combine_solutions_verifies(a3):
    alg, graph = a3
    diag = relation([(1, 1), (2, 2)], signature=[{1, 2}, {1, 2}])
    inst = Instance(["a", "b", "c"], {v: {1, 2} for v in "abc"},
                    [(("a", "b"), diag)], alg)
    coll = {v: frozenset({1, 2}) for v in "abc"}
    merged = combine_solutions(inst, coll, [{"a": 1, "b": 1}, {"c": 2}])
    assert merged == {"a": 1, "b": 1, "c": 2}
    with pytest.raises(InternalInvariantError):
        combine_solutions(inst, coll, [{"a": 1, "b": 2}, {"c": 2}])
    with pytest.raises(InternalInvariantError):
        combine_solutions(inst, coll, [{"a": 1, "b": 1}])


# -- exclusion ----------------------------------------------------------------

def test_exclude_drops_component(a3):
    alg, graph = a3
    inst = Instance(["v", "w"], {"v": {0, 1, 2}, "w": {0, 1}}, [], alg)
    coll = {"v": frozenset({1, 2}), "w": frozenset({1})}
    out = exclude_components(inst, coll, frozenset({"v"}))
    assert out.domains["v"] == {0}
    assert out.domains["w"] == {0, 1}
    assert summ(out) < summ(inst)


def test_exclude_emptying_domain_signals_unsat(a3):
    alg, graph = a3
    inst = Instance(["v"], {"v": {1, 2}}, [], alg)
    coll = {"v": frozenset({1, 2})}
    assert exclude_components(inst, coll, frozenset({"v"})) is None


def test_exclude_restricts_tuples(a3):
    alg, graph = a3
    rel = close_under_ops([(0, 0), (1, 1), (2, 2)], alg)
    inst = Instance(["v", "w"], {"v": {0, 1, 2}, "w": {0, 1, 2}},
                    [(("v", "w"), rel)], alg)
    coll = {"v": frozenset({1, 2}), "w": frozenset({1, 2})}
    out = exclude_components(inst, coll, frozenset({"v"}))
    for scope, r in out.constraints:
        for t in r.tuples:
            assert t[0] in out.domains["v"]


# -- arc-free machinery -------------------------------------------------------

def test_arc_free_elements_examples(a3):
    _, graph3 = a3
    (_, chain) = chain_setup()
    _, majority = all_majority()
    assert arc_free_elements({0, 1, 2}, majority) == {0, 1, 2}
    assert arc_free_elements({0, 1, 2}, graph3) == {0, 2}
    assert arc_free_elements({0, 1}, chain) == {0}


def test_arc_free_restriction(a3):
    alg, graph = a3
    inst = Instance(["v"], {"v": {0, 1, 2}}, [], alg)
    out = arc_free_restriction(inst, graph)
    assert out.domains["v"] == {0, 2}

    alg_c, chain = chain_setup()
    with_unary = Instance(["v"], {"v": {0, 1}},
                          [(("v",), relation([(1,)], signature=[{0, 1}]))],
                          alg_c)
    out = arc_free_restriction(with_unary, chain)
    # domain shrinks to {0}; the unary relation loses its only tuple
    assert out.domains["v"] == {0}
    assert out.constraints[0].relation.tuples == frozenset()

    sl_free = Instance(["v"], {"v": {1, 2}}, [], alg)
    out = arc_free_restriction(sl_free, graph)
    assert out.domains["v"] == {1, 2}


# -- multiplied instance ------------------------------------------------------

def test_multiplied_chain_example():
    (alg, chain) = chain_setup()
    inst = Instance(["v"], {"v": {0, 1}},
                    [(("v",), relation([(0,), (1,)], signature=[{0, 1}]))],
                    alg)
    t = multiplied_instance(inst, alg)
    assert t.variables == (("v", 0), ("v", 1))
    assert t.domains[("v", 0)] == {0, 1}
    assert t.domains[("v", 1)] == {1}
    align = t.constraints[0]
    assert align.scope == (("v", 0), ("v", 1))
    assert align.relation.tuples == {(0, 1), (1, 1)}


def test_multiplied_semilattice_free_is_trivial(a3):
    alg, graph = a3
    inst = Instance(["v", "w"], {"v": {1, 2}, "w": {0, 2}}, [], alg)
    t = multiplied_instance(inst, alg)
    for var in t.variables:
        assert t.domains[var] == {var[1]}


def test_multiplied_forced_maps():
    (alg, chain) = chain_setup()
    inst = Instance(["v"], {"v": {0, 1}}, [], alg)
    t = multiplied_instance(inst, alg, forced=("v", 1))
    sol = brute_force_solve(t)
    assert sol.is_sat
    maps = maps_from_solution(inst, sol.assignment)
    assert maps["v"] == {0: alg.f[0][1], 1: alg.f[1][1]} == {0: 1, 1: 1}
    assert not is_permutational(maps)


def test_multiplied_relations_are_closed(a3):
    alg, graph = a3
    rel = close_under_ops([(0, 1), (1, 2)], alg)
    inst = Instance(["v", "w"], {"v": {0, 1, 2}, "w": {0, 1, 2}},
                    [(("v", "w"), rel)], alg)
    t = multiplied_instance(inst, alg)
    from ccsp.model import validate_instance
    assert validate_instance(t) == []


def test_maps_from_solution_identity(a3):
    alg, graph = a3
    inst = Instance(["v"], {"v": {1, 2}}, [], alg)
    t = multiplied_instance(inst, alg)
    sol = brute_force_solve(t)
    assert sol.is_sat
    maps = maps_from_solution(inst, sol.assignment)
    assert maps["v"] == {1: 1, 2: 2}


# -- idempotent power ---------------------------------------------------------

def test_idempotent_power_identity_and_constant():
    ident = {"v": {0: 0, 1: 1}}
    assert idempotent_power(ident) == ident
    const = {"v": {0: 1, 1: 1}}
    assert idempotent_power(const) == const


def test_idempotent_power_cycle_with_collapse():
    # 2-cycle on {0,1} composed with a collapse of 2 onto the cycle
    p = {"v": {0: 1, 1: 0, 2: 0}}
    out = idempotent_power(p)["v"]
    assert all(out[out[b]] == out[b] for b in out)
    assert out[0] == 0 and out[1] == 1  # even power fixes the cycle
    assert out[2] in (0, 1)


def test_idempotent_power_odd_cycle():
    p = {"v": {0: 1, 1: 2, 2: 0, 3: 0}}
    out = idempotent_power(p)["v"]
    assert all(out[out[b]] == out[b] for b in out)


def _cycle(n):
    return {b: (b + 1) % n for b in range(n)}


def test_idempotent_power_exponent_past_a_thousand():
    # cycles of 5, 7, 8 and 9: the least idempotent power is the 2520th
    maps = {"a": {0: 1, 1: 1}, "b": _cycle(5), "c": _cycle(7),
            "d": _cycle(8), "e": _cycle(9)}
    power = {v: dict(p) for v, p in maps.items()}
    for _ in range(2520 - 1):
        power = {v: {b: maps[v][q[b]] for b in q} for v, q in power.items()}
    out = idempotent_power(maps)
    assert out == power
    assert all(q[q[b]] == q[b] for q in out.values() for b in q)


# -- retraction ---------------------------------------------------------------

def test_retract_constant_maps(a3):
    alg, graph = a3
    diag = relation([(1, 1), (2, 2)], signature=[{1, 2}, {1, 2}])
    inst = Instance(["v", "w"], {"v": {1, 2}, "w": {1, 2}},
                    [(("v", "w"), diag)], alg)
    maps = {"v": {1: 1, 2: 1}, "w": {1: 1, 2: 1}}
    out = retract_instance(inst, maps)
    assert out.domains == {"v": frozenset({1}), "w": frozenset({1})}
    assert summ(out) < summ(inst)


def test_retract_rejects_identity(a3):
    alg, graph = a3
    inst = Instance(["v"], {"v": {1, 2}}, [], alg)
    with pytest.raises(InvalidArgumentError):
        retract_instance(inst, {"v": {1: 1, 2: 2}})


def test_retract_chain_collapse():
    (alg, chain) = chain_setup()
    inst = Instance(["v"], {"v": {0, 1}}, [], alg)
    out = retract_instance(inst, {"v": {0: 1, 1: 1}})
    assert out.domains["v"] == {1}


def mapped_retraction(inst, maps):
    """Reference retraction: every tuple of every constraint mapped through
    the maps, each domain replaced by its image."""
    doms = {v: frozenset(maps[v][b] for b in maps[v]) for v in inst.variables}
    cons = [Constraint(scope, relation(
        {tuple(maps[v][a] for v, a in zip(scope, t)) for t in rel.tuples},
        signature=[doms[v] for v in scope]))
        for scope, rel in inst.constraints]
    return Instance(inst.variables, doms, cons, inst.algebra)


def test_retract_instance_matches_tuple_mapping(monkeypatch):
    """On the retractions solve makes, restricting to the images equals
    mapping every tuple, and every retracted relation lies in its
    original."""
    calls = []

    def spy(inst, maps):
        out = retract_instance(inst, maps)
        calls.append((inst, maps, out))
        return out

    monkeypatch.setattr(solver, "retract_instance", spy)
    for weights in [(1, 0, 0), (1, 1, 0), (1, 1, 1)]:
        for a in range(4):
            alg, graph = gen_algebra(GeneratorConfig(
                seed=a, domain_size=4, label_weights=weights))
            for seed in range(10):
                cfg = GeneratorConfig(
                    seed=seed, domain_size=4, variable_count=8,
                    constraint_count=12, max_arity=3, label_weights=weights)
                inst = gen_planted_instance(alg, graph, cfg)
                assert solver.solve(inst, alg, graph)[0].is_sat
    assert len(calls) >= 30, len(calls)
    for inst, maps, out in calls:
        ref = mapped_retraction(inst, maps)
        assert out.variables == ref.variables
        assert out.domains == ref.domains
        assert len(out.constraints) == len(ref.constraints)
        for got, want, orig in zip(out.constraints, ref.constraints,
                                   inst.constraints):
            assert got == want
            assert got.relation.tuples <= orig.relation.tuples
        assert out.algebra is inst.algebra


# -- the full reduction step --------------------------------------------------

def _solve_by_oracle(inst, kind):
    return brute_force_solve(inst)


def test_retraction_step_solved_via_restriction(a3):
    alg, graph = a3
    inst = Instance(["v", "w"], {"v": {0, 1, 2}, "w": {0, 1, 2}}, [], alg)
    out = retraction_step(inst, graph, alg, _solve_by_oracle)
    assert out.kind == "solved"
    assert verify_assignment(inst, out.assignment) == []


def test_retraction_step_chain_traces_the_reduction():
    (alg, chain) = chain_setup()
    inst = Instance(["v"], {"v": {0, 1}},
                    [(("v",), relation([(1,)], signature=[{0, 1}]))], alg)
    out = retraction_step(inst, chain, alg, _solve_by_oracle)
    assert out.kind == "retract"
    assert out.maps["v"] == {0: 1, 1: 1}
    retracted = retract_instance(inst, out.maps)
    assert retracted.domains["v"] == {1}
    assert brute_force_solve(retracted).is_sat


def test_retraction_step_no_solution():
    (alg, chain) = chain_setup()
    # contradictory unary constraints; unary relations are always closed
    inst = Instance(["v"], {"v": {0, 1}},
                    [(("v",), relation([(1,)], signature=[{0, 1}])),
                     (("v",), relation([(0,)], signature=[{0, 1}]))], alg)
    out = retraction_step(inst, chain, alg, _solve_by_oracle)
    assert out.kind == "no-solution"


def test_multiplied_instance_solvable_when_original_is():
    """A solution of the original induces one of the multiplied instance."""
    from ccsp.harness import GeneratorConfig, gen_algebra, gen_instance

    checked = 0
    for seed in range(30):
        cfg = GeneratorConfig(seed=seed, domain_size=2 + seed % 3,
                              variable_count=3 + seed % 3,
                              constraint_count=2 + seed % 4, max_arity=3)
        alg, graph = gen_algebra(cfg)
        inst = gen_instance(alg, graph, cfg)
        sol = brute_force_solve(inst)
        if not sol.is_sat:
            continue
        t = multiplied_instance(inst, alg)
        lifted = {(v, b): alg.f[b][sol.assignment[v]]
                  for v in inst.variables for b in inst.domains[v]}
        assert verify_assignment(t, lifted) == []
        maps = maps_from_solution(inst, lifted)
        assert maps is not None
        checked += 1
    assert checked > 5
