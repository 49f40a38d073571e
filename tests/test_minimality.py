import contextlib
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ccsp.errors import InvalidArgumentError
from ccsp.harness import (GeneratorConfig, gen_algebra, gen_instance,
                          gen_planted_instance)
from ccsp.minimality import Propagator, establish_3_minimality
from ccsp.model import Instance, relation, restrict_instance
from ccsp.solver import solve
from enumeration import brute_force_solutions, reference_fixpoint


EQ = relation([(0, 0), (1, 1)])
NEQ = relation([(0, 1), (1, 0)])


def chain_equalities():
    return Instance(["x", "y", "z"],
                    {v: {0, 1} for v in "xyz"},
                    [(("x", "y"), EQ), (("y", "z"), EQ), (("x", "z"), EQ)])


def test_no_constraints_tables_are_full():
    inst = Instance(["a", "b", "c", "d"], {v: {0, 1} for v in "abcd"}, [])
    pruned, engine = establish_3_minimality(inst)
    assert list(engine.nontrivial_items()) == []
    assert engine.table(("a", "b", "c")) == frozenset(
        itertools.product((0, 1), repeat=3))


def test_table_rejects_more_than_three_variables():
    _pruned, engine = establish_3_minimality(
        Instance(["a", "b", "c", "d"], {v: {0, 1} for v in "abcd"}, []))
    for ws in ("abcd", ""):
        with pytest.raises(InvalidArgumentError):
            engine.table(ws)
    with pytest.raises(ValueError):  # what callers caught before
        engine.table("abcd")


def test_equality_triangle_table():
    pruned, engine = establish_3_minimality(chain_equalities())
    assert engine.table(("x", "y", "z")) == {(0, 0, 0), (1, 1, 1)}


def test_disequality_triangle_unsat():
    inst = Instance(["x", "y", "z"], {v: {0, 1} for v in "xyz"},
                    [(("x", "y"), NEQ), (("y", "z"), NEQ), (("x", "z"), NEQ)])
    assert establish_3_minimality(inst) is None


def test_pairwise_tables_survive_but_triple_empties():
    # the same triangle: every pairwise table alone is nonempty
    inst = Instance(["x", "y"], {v: {0, 1} for v in "xy"}, [(("x", "y"), NEQ)])
    pruned, engine = establish_3_minimality(inst)
    assert engine.table(("y", "x")) == {(0, 1), (1, 0)}


def test_idempotence_of_establish():
    pruned, engine = establish_3_minimality(chain_equalities())
    again, engine2 = establish_3_minimality(pruned)
    assert again.domains == pruned.domains
    for key, val in engine.nontrivial_items():
        assert engine2.table(key) == val
    assert_matches_reference(engine, chain_equalities())


def test_repeated_variable_scope():
    # tuples with unequal entries at a repeated variable can never match
    rel = relation([(0, 1), (1, 1)])
    inst = Instance(["x"], {"x": {0, 1}}, [(("x", "x"), rel)])
    pruned, engine = establish_3_minimality(inst)
    assert pruned.domains["x"] == {1}


@pytest.mark.parametrize("seed", range(25))
def test_solution_preservation_random(seed):
    cfg = GeneratorConfig(seed=seed, domain_size=2 + seed % 3,
                          variable_count=4 + seed % 4,
                          constraint_count=3 + seed % 5, max_arity=3)
    alg, graph = gen_algebra(cfg)
    inst = gen_instance(alg, graph, cfg)
    before = brute_force_solutions(inst)
    out = establish_3_minimality(inst)
    if out is None:
        assert before == set()
        return
    pruned, engine = out
    assert brute_force_solutions(pruned) == before
    assert_matches_reference(engine, inst)


def test_tables_monotone_under_propagation():
    inst = chain_equalities()
    engine = Propagator(inst)
    initial_pair = engine.pair_value(("x", "y"))
    engine.run()
    assert engine.pair_value(("x", "y")) <= initial_pair


def test_assign_and_repropagate():
    engine = Propagator(chain_equalities())
    assert engine.run()
    assert engine.assign("x", 1)
    assert engine.doms["y"] == {1} and engine.doms["z"] == {1}
    engine2 = Propagator(chain_equalities())
    engine2.run()
    assert engine2.assign("x", 0)
    assert engine2.doms["z"] == {0}


# -- differential checks of the worklist engine --------------------------------

def mixed_instances(count=100):
    """Harness instances over semilattice-free (majority/affine) algebras."""
    for seed in range(count):
        cfg = GeneratorConfig(seed=seed, domain_size=3 + seed % 2,
                              variable_count=10 + seed % 3,
                              constraint_count=4 + seed % 5, max_arity=3,
                              label_weights=(0, 1, 1))
        alg, graph = gen_algebra(cfg)
        yield seed, gen_instance(alg, graph, cfg)


def assert_same_fixpoint(seed, engine, pruned, ref_tables, ref_tuples):
    for key, want in ref_tables.items():
        assert engine.table(key) == want, (seed, key)
    assert [c.relation.tuples for c in pruned.constraints] == ref_tuples, seed


def test_fixpoint_matches_reference_on_mixed_instances():
    sat_count = 0
    for seed, inst in mixed_instances():
        ref = reference_fixpoint(inst)
        out = establish_3_minimality(inst)
        assert (out is None) == (ref is None), seed
        if out is None:
            continue
        sat_count += 1
        pruned, engine = out
        assert_same_fixpoint(seed, engine, pruned, *ref)
    assert sat_count >= 30


def test_assign_on_established_engine_matches_fresh_fixpoint():
    checked = 0
    for seed, inst in mixed_instances():
        out = establish_3_minimality(inst)
        if out is None:
            continue
        pruned, engine = out
        pairs, triples = dict(engine.pairs), dict(engine.triples)
        mark = engine.mark()
        for v in pruned.variables:
            if len(pruned.domains[v]) < 2:
                continue
            a = max(pruned.domains[v])
            fixed = restrict_instance(pruned, {**pruned.domains, v: {a}})
            fresh, ref = establish_3_minimality(fixed), reference_fixpoint(fixed)
            assert (fresh is None) == (ref is None), (seed, v)
            assert engine.assign(v, a) == (fresh is not None), (seed, v)
            if fresh is not None:
                got = engine.snapshot()
                assert got.domains == fresh[0].domains, (seed, v)
                assert_same_fixpoint(seed, engine, got, *ref)
                checked += 1
            engine.undo(mark)
            back = engine.snapshot()
            assert back.domains == pruned.domains, (seed, v)
            assert engine.pairs == pairs, (seed, v)
            assert engine.triples == triples, (seed, v)
            assert back.constraints == pruned.constraints, (seed, v)
    assert checked >= 100


@st.composite
def small_instances(draw):
    """4-6 variables over a 2-4-element universe, 1-8 constraints of arity
    1-3.  About half are 3-XOR equations over {0, 1} on distinct
    variables (3-minimality does not decide systems of those); the others
    hold at least half of all tuples, may repeat a scope variable and may
    leave the domains."""
    size = draw(st.integers(2, 4))
    values = st.integers(0, size - 1)
    variables = [f"v{i}" for i in range(draw(st.integers(4, 6)))]
    domains = {v: draw(st.sets(values, min_size=2)) for v in variables}
    constraints = []
    for _ in range(draw(st.integers(1, 8))):
        if draw(st.booleans()):
            scope = draw(st.permutations(variables))[:3]
            rhs = draw(st.integers(0, 1))
            tuples = [t for t in itertools.product((0, 1), repeat=3)
                      if sum(t) % 2 == rhs]
        else:
            arity = draw(st.integers(1, 3))
            scope = draw(st.lists(st.sampled_from(variables),
                                  min_size=arity, max_size=arity))
            tuples = draw(st.sets(st.tuples(*[values] * arity),
                                  min_size=size ** arity // 2))
        constraints.append((tuple(scope), relation(tuples)))
    return Instance(variables, domains, constraints)


@st.composite
def triangle_instances(draw):
    """3-5 variables with domains of 2-4 values in a 4-element universe,
    and 3-12 constraints of arity 2 or 3 on distinct variables, so that
    most pairs and triples lie in several scopes and the triangles between
    them tighten the pair tables.  Each relation keeps half or three
    quarters of the tuples inside its domains, at random."""
    variables = [f"v{i}" for i in range(draw(st.integers(3, 5)))]
    domains = {v: draw(st.sets(st.integers(0, 3), min_size=2))
               for v in variables}
    constraints = []
    for _ in range(draw(st.integers(3, 12))):
        scope = draw(st.permutations(variables))[:draw(st.integers(2, 3))]
        box = list(itertools.product(*(sorted(domains[v]) for v in scope)))
        cut = draw(st.integers(1, 2))
        marks = draw(st.lists(st.integers(0, 3), min_size=len(box),
                              max_size=len(box)))
        tuples = [t for t, mark in zip(box, marks) if mark >= cut]
        constraints.append((tuple(scope), relation(
            tuples, signature=[domains[v] for v in scope])))
    return Instance(variables, domains, constraints)


def assert_matches_reference(engine, inst):
    ref = reference_fixpoint(inst)
    assert ref is not None
    assert_same_fixpoint(None, engine, engine.snapshot(), *ref)
    assert not engine.queue


def walk_assign_and_undo(inst, data, check):
    """Establish `inst`, then assign and undo at random from the fixpoints
    reached; check(engine, instance) sees every fixpoint reached, and
    check(None, instance) every instance whose fixpoint fails."""
    out = establish_3_minimality(inst)
    if out is None:
        check(None, inst)
        return
    _pruned, engine = out
    check(engine, inst)
    stack = [(engine.mark(), inst.domains)]  # fixpoints to undo back to
    for _ in range(data.draw(st.integers(0, 8), label="steps")):
        open_vars = [v for v in inst.variables if len(engine.doms[v]) > 1]
        if open_vars and data.draw(st.booleans(), label="assign"):
            v = data.draw(st.sampled_from(open_vars), label="variable")
            a = data.draw(st.sampled_from(sorted(engine.doms[v])), label="value")
            doms = {**stack[-1][1], v: {a}}
            fixed = restrict_instance(inst, doms)
            mark = engine.mark()
            if engine.assign(v, a):
                check(engine, fixed)
                stack.append((mark, doms))
            else:
                check(None, fixed)
                engine.undo(mark)
        elif len(stack) > 1:
            engine.undo(stack.pop()[0])
            check(engine, restrict_instance(inst, stack[-1][1]))


def check_against_reference(engine, inst):
    if engine is None:
        assert reference_fixpoint(inst) is None
    else:
        assert_matches_reference(engine, inst)


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.one_of(small_instances(), triangle_instances()), st.data())
def test_engine_matches_reference_through_assign_and_undo(inst, data):
    walk_assign_and_undo(inst, data, check_against_reference)


@contextlib.contextmanager
def cuts_checked():
    """Assert on every `Propagator._cut` that `allowed` lies inside the
    table it cuts, read before the cut (a triple with no table yet is its
    join); yields the set of (key size, cause type) of the cuts checked."""
    cut, seen = Propagator._cut, set()

    def checked(self, key, allowed, cause):
        table = self.doms[key[0]] if len(key) == 1 else self.table(key)
        assert set(allowed) <= table, (key, cause)
        seen.add((len(key), type(cause).__name__))
        cut(self, key, allowed, cause)

    with mock.patch.object(Propagator, "_cut", checked):
        yield seen


@settings(derandomize=True, max_examples=600, deadline=None)
@given(st.one_of(small_instances(), triangle_instances()), st.data())
def test_cuts_lie_inside_their_tables_through_assign_and_undo(inst, data):
    with cuts_checked():
        walk_assign_and_undo(inst, data, check_against_reference)


def solve_planted(count=24):
    """Solve seeded planted instances over four label mixes; each is sat."""
    for seed in range(count):
        weights = [(1, 0, 0), (1, 1, 0), (1, 1, 1), (0, 1, 1)][seed % 4]
        cfg = GeneratorConfig(seed=seed, domain_size=4,
                              variable_count=8 + seed % 5,
                              constraint_count=12, max_arity=3,
                              label_weights=weights)
        alg, graph = gen_algebra(cfg)
        inst = gen_planted_instance(alg, graph, cfg)
        assert solve(inst, alg, graph)[0].is_sat, seed


def test_cuts_lie_inside_their_tables_in_planted_solves():
    with cuts_checked() as seen:
        solve_planted()
    # constraint revisions cut all sizes, triple revisions pairs and
    # triples, and assign a domain
    assert {(1, "int"), (2, "int"), (3, "int"), (1, "NoneType"),
            (2, "tuple"), (3, "tuple")} <= seen, seen


def test_no_pair_revision_is_ever_queued():
    """Only constraints and triples are revised: no key of two variables
    reaches the queue, through fixpoints, assigns and undos on mixed
    instances and through planted solves."""
    queue, queued = Propagator._queue, []

    def spy(self, revisions, cause=None):
        revisions = list(revisions)
        queued.extend(revisions)
        queue(self, revisions, cause)

    with mock.patch.object(Propagator, "_queue", spy):
        for _seed, inst in mixed_instances():
            out = establish_3_minimality(inst)
            if out is None:
                continue
            pruned, engine = out
            mark = engine.mark()
            for v in pruned.variables:
                for a in sorted(pruned.domains[v])[1:]:
                    engine.assign(v, a)
                    engine.undo(mark)
        solve_planted()
    kinds = {len(r) if type(r) is tuple else type(r).__name__
             for r in queued}
    assert kinds == {"int", 3}, kinds


def test_run_at_fixpoint_revises_nothing(monkeypatch):
    calls = []
    for name in ("_revise_constraint", "_revise_triple"):
        method = getattr(Propagator, name)
        monkeypatch.setattr(Propagator, name,
                            lambda self, r, method=method: (
                                calls.append(r), method(self, r)))
    checked, kinds = 0, set()
    for seed, inst in mixed_instances(40):
        out = establish_3_minimality(inst)
        if out is None:
            continue
        _pruned, engine = out
        assert calls and not engine.queue, seed
        kinds.update(type(r) for r in calls)
        calls.clear()
        assert engine.run() and calls == [] and not engine.queue, seed
        checked += 1
    assert checked >= 10 and kinds == {int, tuple}, (checked, kinds)


def test_triple_revision_reads_a_pending_domain_cut():
    """A materialized triple's revision cuts it to its join, the domain of
    its third variable included, also while a cut of that domain has not
    yet reached the two materialized pairs on it: they still hold the
    values cut, so only the domain check removes them."""
    checked = 0
    for seed in range(12):
        cfg = GeneratorConfig(seed=seed, domain_size=3 + seed % 2,
                              variable_count=6, constraint_count=10,
                              max_arity=3, label_weights=(1, 1, 1))
        alg, graph = gen_algebra(cfg)
        _pruned, engine = establish_3_minimality(
            gen_planted_instance(alg, graph, cfg))
        for key, triple in list(engine.triples.items()):
            a, b, c = key
            if (a, c) not in engine.pairs or (b, c) not in engine.pairs:
                continue
            for z in {t[2] for t in triple} - {max(engine.doms[c])}:
                mark = engine.mark()
                engine._cut((c,), engine.doms[c] - {z}, None)
                assert any(t[1] == z for t in engine.pairs[(a, c)])
                engine._revise_triple(key)
                assert engine.triples[key] == triple & engine._join(key), seed
                engine.undo(mark)
                checked += 1
    assert checked >= 20, checked
