import itertools

import pytest

from ccsp.classify import (AFFINE, MAJORITY, ConstraintLanguage,
                           EdgeLabeledGraph, PairLabel, classify_language,
                           semilattice_label)
from ccsp import minimality, solver
from ccsp.errors import InternalInvariantError, InvalidArgumentError
from ccsp.harness import (GeneratorConfig, Rng, brute_force_solve, canonical_a3,
                          canonical_algebra, gen_algebra, gen_instance)
from ccsp.minimality import establish_3_minimality
from ccsp.model import Instance, close_under_ops, relation, verify_assignment
from ccsp.reductions import find_consistent_collection
from ccsp.solver import (_search, lev, run_pipeline, solve,
                         solve_semilattice_free)
from ccsp.structure import strands_of_instance
from test_maltsev import (PARITY_ALG, PARITY_GRAPH, gf2_consistent,
                          parity_instance)
from test_minimality import mixed_instances


def graph_of(n, kind):
    return EdgeLabeledGraph(n, {p: PairLabel(kind) for p in
                                itertools.combinations(range(n), 2)})


def test_lev_measure():
    alg, graph = canonical_a3()
    inst = Instance(["v", "w"], {"v": {0, 1, 2}, "w": {1, 2}}, [], alg)
    assert lev(inst, graph) == 3
    sl_free = Instance(["v"], {"v": {1, 2}}, [], alg)
    assert lev(sl_free, graph) == 0


# -- semilattice-free base solver ---------------------------------------------

def base_solve(inst, graph, alg):
    """The base solver on the instance's 3-minimality fixpoint, as the
    driver calls it."""
    pruned, engine = establish_3_minimality(inst)
    return solve_semilattice_free(pruned, graph, alg, engine)


def test_triangle_disequality_unsat():
    graph = graph_of(2, MAJORITY)
    alg = canonical_algebra(graph)
    neq = relation([(0, 1), (1, 0)])
    inst = Instance(["x", "y", "z"], {v: {0, 1} for v in "xyz"},
                    [(("x", "y"), neq), (("y", "z"), neq), (("x", "z"), neq)],
                    alg)
    assert establish_3_minimality(inst) is None
    assert not brute_force_solve(inst).is_sat


def test_xor_system_sat():
    graph = graph_of(2, AFFINE)
    alg = canonical_algebra(graph)
    xor1 = relation([(0, 1), (1, 0)])   # x + y = 1
    eq = relation([(0, 0), (1, 1)])     # x + z = 0
    inst = Instance(["x", "y", "z"], {v: {0, 1} for v in "xyz"},
                    [(("x", "y"), xor1), (("y", "z"), xor1), (("x", "z"), eq)],
                    alg)
    res = base_solve(inst, graph, alg)
    assert res.is_sat
    assert verify_assignment(inst, res.assignment) == []


def test_empty_constraints_sat():
    graph = graph_of(3, MAJORITY)
    alg = canonical_algebra(graph)
    inst = Instance(["x", "y"], {"x": {0, 2}, "y": {1}}, [], alg)
    res = base_solve(inst, graph, alg)
    assert res.is_sat


def test_sl_free_rejects_semilattice_domains():
    alg, graph = canonical_a3()
    inst = Instance(["v"], {"v": {0, 1}}, [], alg)
    with pytest.raises(InvalidArgumentError):
        base_solve(inst, graph, alg)


def test_sl_free_without_engine_refuses_a_search():
    graph = graph_of(2, MAJORITY)
    alg = canonical_algebra(graph)
    inst = Instance(["x"], {"x": {0, 1}}, [], alg)
    with pytest.raises(InternalInvariantError, match="no 3-minimality engine"):
        solve_semilattice_free(inst, graph, alg, None)


def test_mixed_base_solver():
    alg, graph = canonical_a3()
    # domain {0,2} is majority, {1,2} affine; mix both in one instance
    rel = close_under_ops([(0, 1), (2, 2), (0, 2)], alg)
    inst = Instance(["a", "b"], {"a": {0, 2}, "b": {1, 2}},
                    [(("a", "b"), relation(
                        {t for t in rel.tuples if t[0] in (0, 2) and t[1] in (1, 2)},
                        signature=[{0, 2}, {1, 2}]))], alg)
    res = base_solve(inst, graph, alg)
    assert res.status == brute_force_solve(inst).status


def mixed_graph():
    return EdgeLabeledGraph(3, {(0, 1): PairLabel(AFFINE),
                                (0, 2): PairLabel(MAJORITY),
                                (1, 2): PairLabel(MAJORITY)})


def backtracking_instances():
    """The harness's majority/affine instances, and seeded 3-XOR systems
    over the affine pair {0, 1} with one idle {0, 1, 2} variable, which
    3-minimality mostly cannot refute."""
    yield from mixed_instances()
    alg = canonical_algebra(mixed_graph())
    xor = {c: relation([t for t in itertools.product((0, 1), repeat=3)
                        if sum(t) % 2 == c]) for c in (0, 1)}
    for seed in range(60):
        rng = Rng(seed)
        names = [f"x{i}" for i in range(10 + seed % 4)]
        cons = [(tuple(rng.sample(names, 3)), xor[rng.randint(0, 1)])
                for _ in range(len(names) - 2 + seed % 4)]
        doms = {**{v: {0, 1} for v in names}, "idle": {0, 1, 2}}
        yield seed, Instance(names + ["idle"], doms, cons, alg)


def test_mixed_backtracking_matches_brute_force():
    searched = {"sat": 0, "unsat": 0}
    for seed, inst in backtracking_instances():
        want = brute_force_solve(inst)
        out = establish_3_minimality(inst)
        if out is None:
            assert not want.is_sat, seed
            continue
        res = _search(out[1], out[1].variables, majority=False)
        assert res.status == want.status, seed
        if res.is_sat:
            assert verify_assignment(inst, res.assignment) == [], seed
        searched[res.status] += 1
    assert searched["sat"] >= 50 and searched["unsat"] >= 10


def test_constraint_free_mixed_instance_beyond_recursion_limit():
    graph = mixed_graph()
    alg = canonical_algebra(graph)
    names = [f"x{i}" for i in range(1200)]
    inst = Instance(names, {v: {0, 1, 2} for v in names}, [], alg)
    res, _trace = solve(inst, alg, graph)
    assert res.is_sat
    assert verify_assignment(inst, res.assignment) == []


# -- driver --------------------------------------------------------------------

def test_chain_of_order_constraints():
    graph = EdgeLabeledGraph(2, {(0, 1): semilattice_label([(0, 1)])})
    alg = canonical_algebra(graph)
    order = close_under_ops([(0, 0), (0, 1), (1, 1)], alg)
    names = [f"v{i}" for i in range(5)]
    cons = [((names[i], names[i + 1]), order) for i in range(4)]
    inst = Instance(names, {v: {0, 1} for v in names}, cons, alg)
    res, trace = solve(inst, alg, graph)
    assert res.is_sat
    assert verify_assignment(inst, res.assignment) == []


def test_single_variable_unary():
    alg, graph = canonical_a3()
    inst = Instance(["v"], {"v": {0, 1, 2}},
                    [(("v",), relation([(0,)], signature=[{0, 1, 2}]))], alg)
    res, trace = solve(inst, alg, graph)
    assert res.is_sat and res.assignment == {"v": 0}


def test_exclusion_path_reaches_leftover_domain():
    alg, graph = canonical_a3()
    # force the {1,2} component of v to fail so {0} remains
    diag = relation([(1, 1), (2, 2), (0, 0)])
    pin2 = relation([(2,)], signature=[{0, 1, 2}])
    pin1 = relation([(1,)], signature=[{0, 1, 2}])
    inst = Instance(["v", "a", "b"],
                    {"v": {0, 1, 2}, "a": {0, 1, 2}, "b": {0, 1, 2}},
                    [(("v", "a"), diag)], alg)
    res, trace = solve(inst, alg, graph)
    assert res.status == brute_force_solve(inst).status


def test_measure_counters_clean_across_random_suite():
    lev_checks = 0
    for seed in range(80):
        cfg = GeneratorConfig(seed=seed, domain_size=2 + seed % 3,
                              variable_count=4 + seed % 4,
                              constraint_count=3 + seed % 5, max_arity=3,
                              label_weights=[(3, 1, 2), (1, 1, 1)][seed % 2])
        alg, graph = gen_algebra(cfg)
        inst = gen_instance(alg, graph, cfg)
        res, trace = solve(inst, alg, graph)
        lev_checks += trace.lev_checks
        want = brute_force_solve(inst)
        assert res.status == want.status
    assert lev_checks > 0  # the retraction branch was really exercised


def retraction_instance():
    """All domains are as-components but a semilattice edge is present."""
    graph = EdgeLabeledGraph(3, {
        (0, 1): semilattice_label([(0, 1)]),
        (0, 2): PairLabel(AFFINE),
        (1, 2): PairLabel(AFFINE)})
    alg = canonical_algebra(graph)
    rel = close_under_ops([(0, 1), (1, 2), (2, 0)], alg)
    inst = Instance(["x", "y"], {"x": {0, 1, 2}, "y": {0, 1, 2}},
                    [(("x", "y"), relation(rel.tuples,
                                           signature=[{0, 1, 2}] * 2))], alg)
    return inst, alg, graph


def test_retraction_branch_end_to_end():
    inst, alg, graph = retraction_instance()
    res, trace = solve(inst, alg, graph)
    want = brute_force_solve(inst)
    assert res.status == want.status
    if res.is_sat:
        assert verify_assignment(inst, res.assignment) == []


def strand_keeping_lev_instance():
    """A strand sub-instance with the parent's lev: only summ decreases."""
    cfg = GeneratorConfig(seed=2, domain_size=4, variable_count=6,
                          constraint_count=5, max_arity=3,
                          label_weights=(3, 1, 2))
    alg, graph = gen_algebra(cfg)
    return gen_instance(alg, graph, cfg), alg, graph


@pytest.mark.parametrize("measure, make, message", [
    ("lev", retraction_instance, "lev did not decrease into restriction"),
    ("summ", strand_keeping_lev_instance,
     "termination measure did not decrease into a strand"),
])
def test_stalled_measure_raises(monkeypatch, measure, make, message):
    inst, alg, graph = make()
    solve(inst, alg, graph)
    monkeypatch.setattr(solver, measure, lambda *args: 7)
    with pytest.raises(InternalInvariantError, match=message):
        solve(inst, alg, graph)


# -- affine-only nodes skip the 3-minimality fixpoint --------------------------

def spy_on(monkeypatch, name, module=solver):
    """Replace `module.<name>` by a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def spied(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spied)
    return calls


def xor_equations(n, count, tag):
    rng = Rng(n).split("xor", tag)
    return [(*rng.sample(range(n), 3), rng.randint(0, 1))
            for _ in range(count)]


def check_parity_verdict(n, equations, res):
    assert res.is_sat == gf2_consistent(equations), (n, equations)
    assert not res.is_sat or all(
        res.assignment[f"x{i}"] ^ res.assignment[f"x{j}"]
        ^ res.assignment[f"x{k}"] == c for i, j, k, c in equations)


def test_three_xor_systems_skip_the_fixpoint(monkeypatch):
    """Every domain of a 3-XOR system is the affine pair {0,1}: the root
    goes to the Maltsev solver with no fixpoint and no engine, and the
    verdicts are brute force's and GF(2) elimination's."""
    fixpoints = spy_on(monkeypatch, "establish_3_minimality")
    propagators = spy_on(monkeypatch, "Propagator", minimality)
    verdicts = []
    for n in (10, 12, 14):
        for seed in range(6):
            equations = xor_equations(n, n * (7 + seed) // 10, f"{n}/{seed}")
            inst = parity_instance(n, equations)
            res, trace = solve(inst, PARITY_ALG, PARITY_GRAPH)
            assert res.status == brute_force_solve(inst).status
            check_parity_verdict(n, equations, res)
            assert trace.branch_counts == {"sfree": 1}
            verdicts.append(res.is_sat)
    for density in (0.8, 1.0):
        equations = xor_equations(120, int(density * 120), f"120/{density}")
        res, _trace = solve(parity_instance(120, equations), PARITY_ALG,
                            PARITY_GRAPH)
        check_parity_verdict(120, equations, res)
        verdicts.append(res.is_sat)
    assert fixpoints == [] and propagators == []
    assert True in verdicts and False in verdicts


def test_contradicting_equations_on_one_triple_unsat_by_maltsev(monkeypatch):
    """x+y+z = 0 and x+y+z = 1, which the fixpoint refutes on its own;
    the node is affine-only, so the verdict comes from the Maltsev
    solver."""
    fixpoints = spy_on(monkeypatch, "establish_3_minimality")
    maltsev_calls = spy_on(monkeypatch, "solve_with_maltsev")
    inst = parity_instance(3, [(0, 1, 2, 0), (0, 1, 2, 1)])
    assert establish_3_minimality(inst) is None
    res, trace = solve(inst, PARITY_ALG, PARITY_GRAPH)
    assert not res.is_sat and not brute_force_solve(inst).is_sat
    assert trace.branch_counts == {"sfree": 1}
    assert fixpoints == [] and len(maltsev_calls) == 1


def test_singleton_domains_solved(monkeypatch):
    """Singleton domains hold no pair, so the node is affine-only even in
    an algebra with majority and semilattice pairs; each component goes to
    the Maltsev solver."""
    fixpoints = spy_on(monkeypatch, "establish_3_minimality")
    searches = spy_on(monkeypatch, "_search")
    alg, graph = canonical_a3()
    inst = Instance(["x", "y", "z"], {"x": {1}, "y": {0}, "z": {2}},
                    [(("x", "y"), relation([(1, 0)]))], alg)
    res, trace = solve(inst, alg, graph)
    assert res.is_sat and res.assignment == {"x": 1, "y": 0, "z": 2}
    assert trace.branch_counts == {"sfree": 1}
    assert fixpoints == [] and searches == []


def test_singleton_domains_after_the_fixpoint_go_to_maltsev(monkeypatch):
    """A {0,2} majority domain that the fixpoint pins to one value leaves
    a component of singletons: it goes to the Maltsev solver, not the
    search."""
    searches = spy_on(monkeypatch, "_search")
    maltsev_calls = spy_on(monkeypatch, "solve_with_maltsev")
    alg = canonical_algebra(mixed_graph())
    pin = relation([(0,)], signature=[{0, 2}])
    inst = Instance(["a", "b"], {"a": {0, 2}, "b": {0, 2}},
                    [(("a",), pin), (("a", "b"), relation([(0, 2)]))], alg)
    res, trace = solve(inst, alg, mixed_graph())
    assert res.is_sat and res.assignment == {"a": 0, "b": 2}
    assert trace.branch_counts == {"sfree": 1}
    assert searches == [] and len(maltsev_calls) == 1


def test_pruned_mixed_domain_reaches_maltsev_not_search(monkeypatch):
    """w starts on {0,1,2}, with majority pairs, and an equality with x0
    cuts it to {0,1}.  The node is not affine-only, so the fixpoint runs,
    and the kinds are decided on the pruned domains: w's component, the
    whole 3-XOR system, goes to the Maltsev solver."""
    fixpoints = spy_on(monkeypatch, "establish_3_minimality")
    searches = spy_on(monkeypatch, "_search")
    affine = spy_on(monkeypatch, "_solve_affine")
    equations = xor_equations(30, 24, "pruned-w")
    inst = parity_instance(30, equations)
    equal = relation([(0, 0), (1, 1)])
    inst = Instance([*inst.variables, "w"], {**inst.domains, "w": {0, 1, 2}},
                    [*inst.constraints, (("w", "x0"), equal)], PARITY_ALG)
    res, trace = solve(inst, PARITY_ALG, PARITY_GRAPH)
    check_parity_verdict(30, equations, res)
    assert res.is_sat and res.assignment["w"] == res.assignment["x0"]
    assert len(fixpoints) == 1 and searches == []
    assert trace.branch_counts == {"sfree": 1}
    (pruned, variables, _m), = [call for call in affine if "w" in call[1]]
    assert "x0" in variables and len(variables) > 2
    assert pruned.domains["w"] == {0, 1}


# -- run_pipeline on a classified language -----------------------------------

XOR3 = ConstraintLanguage(
    2, (relation([t for t in itertools.product((0, 1), repeat=3)
                  if sum(t) % 2 == 0]),))


def test_run_pipeline_solves_affine_language():
    rel = relation([t for t in itertools.product((0, 1), repeat=3)
                    if sum(t) % 2 == 0])
    inst = Instance(["x", "y", "z"], {v: {0, 1} for v in "xyz"},
                    [(("x", "y", "z"), rel)])
    out = run_pipeline(inst, classify_language(XOR3))
    assert out.status == "sat"
    assert out.trace is not None


def _parity_with_top() -> tuple:
    """Affine pair {0,1} under two semilattice arcs from 2.

    Distinct triples containing 2 evaluate to their first non-2 argument,
    which keeps parity relations with an all-2 escape tuple closed exactly.
    """
    from ccsp.model import Algebra

    graph = EdgeLabeledGraph(3, {(0, 1): PairLabel(AFFINE),
                                 (0, 2): semilattice_label([(2, 0)]),
                                 (1, 2): semilattice_label([(2, 1)])})
    f = ((0, 0, 0), (1, 1, 1), (0, 1, 2))

    def complete(affine_rule):
        def value(x, y, z):
            s = {x, y, z}
            if len(s) == 1:
                return x
            if len(s) == 3:
                return x if x != 2 else (y if y != 2 else z)
            if sorted(s) == [0, 1]:
                return affine_rule(x, y, z)
            return f[f[x][y]][z]
        return tuple(tuple(tuple(value(x, y, z) for z in range(3))
                           for y in range(3)) for x in range(3))

    g = complete(lambda x, y, z: x)
    h = complete(lambda x, y, z: (x + y + z) % 2)
    alg = Algebra(3, f, f, g, h)
    return alg, graph


def test_exclusion_restart_on_failed_parity_strand():
    """A width-4 parity contradiction inside the {0,1} component forces the
    strand to fail; excluding the component leaves the all-2 solution."""
    from ccsp.classify import check_uniformity_laws

    alg, graph = _parity_with_top()
    assert check_uniformity_laws(alg, graph) == []
    even = {t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0}
    odd = {t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 1}
    ce = close_under_ops(even | {(2, 2, 2)}, alg)
    co = close_under_ops(odd | {(2, 2, 2)}, alg)
    assert len(ce) == 5 and len(co) == 5
    sig3 = [{0, 1, 2}] * 3
    re = relation(ce.tuples, signature=sig3)
    ro = relation(co.tuples, signature=sig3)
    names = ["x1", "x2", "x3", "x4", "x5", "x6"]
    cons = [(("x1", "x2", "x3"), re), (("x3", "x4", "x5"), re),
            (("x5", "x6", "x1"), re), (("x2", "x4", "x6"), ro)]
    inst = Instance(names, {v: {0, 1, 2} for v in names}, cons, alg)
    res, trace = solve(inst, alg, graph)
    assert res.status == brute_force_solve(inst).status == "sat"
    assert res.assignment == {v: 2 for v in names}
    assert trace.branch_counts.get("exclusion-restart", 0) >= 1


# -- component exclusion decides singleton strands in place ------------------

def singleton_strand_instance(pin_x: bool):
    """A root exclusion node: 1 -> 0 is a semilattice arc, so every {0,1}
    domain has the one component {0}, and {0,2} is affine, the component
    of {0,1,2}.  u, w and y fall into one-variable strands of singleton
    components; the diagonal ties v and x into one strand on {0,2}, the
    only one with a choice left.  `pin_x` cuts x to {1,2}, whose chosen
    component is {1}, so then no strand has a choice left."""
    graph = EdgeLabeledGraph(3, {(0, 1): semilattice_label([(1, 0)]),
                                 (0, 2): PairLabel(AFFINE),
                                 (1, 2): PairLabel(MAJORITY)})
    alg = canonical_algebra(graph)
    order = close_under_ops([(0, 0), (0, 1), (1, 1)], alg)
    link = close_under_ops([(0, 0), (0, 2), (1, 1)], alg)
    diag = relation([(a, a) for a in range(3)])
    doms = {"u": {0, 1}, "v": {0, 1, 2}, "w": {0, 1}, "x": {0, 1, 2},
            "y": {0, 1}}
    cons = [(("u", "w"), order), (("v", "x"), diag), (("w", "v"), link)]
    if pin_x:
        cons.append((("x",), relation([(1,), (2,)], signature=[{0, 1, 2}])))
    return Instance(list(doms), doms, cons, alg), alg, graph


@pytest.mark.parametrize("pin_x, choice_strands", [(False, 1), (True, 0)])
def test_exclusion_recurses_only_into_strands_with_a_choice(
        monkeypatch, pin_x, choice_strands):
    """The base solver never runs on a singleton strand: the root and one
    node per strand with a choice left are all the nodes there are."""
    base_calls = spy_on(monkeypatch, "solve_semilattice_free")
    inst, alg, graph = singleton_strand_instance(pin_x)
    pruned, engine = establish_3_minimality(inst)
    coll = find_consistent_collection(pruned, graph, engine)
    strands = strands_of_instance(pruned, coll)
    assert len(strands) == 4
    res, trace = solve(inst, alg, graph)
    assert trace.branch_counts["exclusion"] == 1
    assert trace.nodes == 1 + choice_strands < 1 + len(strands)
    assert len(base_calls) == choice_strands
    assert all(any(len(sub.domains[v]) > 1 for v in sub.variables)
               for sub, *_rest in base_calls)
    want = brute_force_solve(inst)
    assert res.status == want.status == "sat"
    assert res.assignment == want.assignment


def test_broken_singleton_component_fails_the_combination(monkeypatch):
    """A collection whose singleton component breaks a constraint is caught
    when the strand solutions are merged, not returned as a solution."""
    inst, alg, graph = singleton_strand_instance(False)
    bad = {"u": frozenset({1}), "v": frozenset({0, 2}), "w": frozenset({0}),
           "x": frozenset({0, 2}), "y": frozenset({0})}
    assert (1, 0) not in inst.constraints[0].relation
    monkeypatch.setattr(solver, "find_consistent_collection",
                        lambda *args: bad)
    with pytest.raises(InternalInvariantError,
                       match="strand combination violates"):
        solve(inst, alg, graph)


def test_repeated_variable_scope_through_full_solve():
    alg, graph = canonical_a3()
    rel = close_under_ops([(1, 1), (2, 2), (1, 2)], alg)
    rel3 = close_under_ops([(1, 1, 2), (2, 2, 1), (1, 1, 1)], alg)
    inst = Instance(["a", "b"], {"a": {0, 1, 2}, "b": {0, 1, 2}},
                    [(("a", "a"), relation(rel.tuples,
                                           signature=[{0, 1, 2}] * 2)),
                     (("a", "b", "a"), relation(rel3.tuples,
                                                signature=[{0, 1, 2}] * 3))],
                    alg)
    res, trace = solve(inst, alg, graph)
    want = brute_force_solve(inst)
    assert res.status == want.status
    if res.is_sat:
        assert verify_assignment(inst, res.assignment) == []


def test_classify_synthesize_solve_three_element_language():
    """Relations generated by closure over a 3-element algebra classify as
    tractable, synthesis passes the uniformity laws, and the pipeline's
    verdicts agree with the oracle."""
    from ccsp.classify import ConstraintLanguage, check_uniformity_laws, \
        classify_language
    from ccsp.harness import Rng
    from ccsp.model import preservation_witness

    alg0, graph0 = canonical_a3()
    rng = Rng(314)
    rels = []
    for i in range(2):
        r = rng.split(i)
        seeds = {tuple(r.choice(range(3)) for _ in range(2)) for _ in range(2)}
        rels.append(relation(close_under_ops(seeds, alg0).tuples))
    lang = ConstraintLanguage(3, tuple(rels))
    verdict = classify_language(lang)
    assert verdict.tractable
    assert check_uniformity_laws(verdict.algebra, verdict.graph) == []
    assert all(preservation_witness(tab, lang.relations) is None
               for tab in verdict.algebra.all_ops().values())
    inst = Instance(["u", "v", "w"], {x: {0, 1, 2} for x in "uvw"},
                    [(("u", "v"), rels[0]), (("v", "w"), rels[1])],
                    verdict.algebra)
    res, _ = solve(inst, verdict.algebra, verdict.graph)
    assert res.status == brute_force_solve(inst).status
