import itertools
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from ccsp import model
from ccsp.classify import (AFFINE, MAJORITY, EdgeLabeledGraph, PairLabel,
                           canonical_algebra)
from ccsp.errors import InvalidArgumentError
from ccsp.harness import canonical_a3
from ccsp.model import (Algebra, Instance, algebra_violations,
                        apply_componentwise, at, close_under_ops,
                        is_closed_under_ops, nest, project, relation,
                        restrict_instance, restrict_relation, summ,
                        table_arity, validate_instance, verify_assignment)


@pytest.fixture(scope="module")
def a3():
    return canonical_a3()


def test_project_constant_column():
    r = relation([(0, 1), (1, 1)])
    assert project(r, [1]).tuples == {(1,)}


def test_project_identity():
    r = relation([(0, 1), (1, 1), (1, 0)])
    assert project(r, range(2)).tuples == r.tuples


def test_project_drops_first_column():
    r = relation([(0, 0, 1), (0, 1, 0), (1, 0, 0)])
    assert project(r, [1, 2]).tuples == {(0, 0), (0, 1), (1, 0)}


def test_project_rejects_bad_indices():
    r = relation([(0, 1)])
    with pytest.raises(InvalidArgumentError):
        project(r, [])
    with pytest.raises(InvalidArgumentError):
        project(r, [2])


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_project_composes(data):
    arity = data.draw(st.integers(2, 4))
    tuples = data.draw(st.sets(
        st.tuples(*([st.integers(0, 2)] * arity)), min_size=1, max_size=8))
    r = relation(tuples)
    outer = data.draw(st.lists(st.integers(0, arity - 1), min_size=1,
                               max_size=arity, unique=True))
    inner = data.draw(st.lists(st.integers(0, len(outer) - 1), min_size=1,
                               max_size=len(outer), unique=True))
    via = project(project(r, outer), inner)
    direct = project(r, [outer[i] for i in inner])
    assert via.tuples == direct.tuples


def test_apply_componentwise_idempotent(a3):
    alg, _ = a3
    assert apply_componentwise(alg.f, ((1, 1), (1, 1))) == (1, 1)


def test_apply_componentwise_f_on_a3(a3):
    alg, _ = a3
    assert apply_componentwise(alg.f, ((0, 2), (1, 0))) == (1, 2)


def test_apply_componentwise_maltsev_identity():
    # all-affine pair {0,1}: h is the parity operation there
    alg, _ = canonical_a3()
    t, s = (1, 2), (2, 1)
    assert apply_componentwise(alg.h, (t, t, s)) == s


def test_apply_componentwise_arity_mismatch(a3):
    alg, _ = a3
    with pytest.raises(InvalidArgumentError):
        apply_componentwise(alg.f, ((0, 1), (0, 1), (0, 1)))
    with pytest.raises(InvalidArgumentError):
        apply_componentwise(alg.f, ((0, 1), (0,)))


def test_close_singleton(a3):
    alg, _ = a3
    assert close_under_ops([(1, 1)], alg).tuples == {(1, 1)}


def test_close_full_product(a3):
    alg, _ = a3
    prod = set(itertools.product((0, 1), (1, 2)))
    assert close_under_ops(prod, alg).tuples == prod


def test_close_forces_p_image(a3):
    alg, _ = a3
    closed = close_under_ops([(1, 1), (2, 2), (1, 0)], alg)
    assert (1, 2) in closed.tuples
    assert apply_componentwise(alg.p, ((1, 0), (2, 2))) == (1, 2)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_close_idempotent_and_monotone(data):
    alg, _ = canonical_a3()
    seed = data.draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                             min_size=1, max_size=5))
    closed = close_under_ops(seed, alg)
    again = close_under_ops(closed.tuples, alg)
    assert again.tuples == closed.tuples
    bigger = data.draw(st.sets(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                               min_size=0, max_size=3))
    sup = close_under_ops(seed | bigger, alg)
    assert closed.tuples <= sup.tuples


def _random_conservative_algebra(size, rng):
    """Idempotent conservative f, p, g, h drawn cell by cell, each cell the
    first argument with a probability drawn per algebra (the closer the
    tables are to projections, the smaller the closures)."""
    first = rng.random()

    def table(arity):
        return nest([args[0] if rng.random() < first else rng.choice(args)
                     for args in itertools.product(range(size), repeat=arity)],
                    size, arity)
    return Algebra(size, table(2), table(2), table(3), table(3))


def _reference_closure(seed, alg):
    """Apply every operation to every combination until nothing is new."""
    closed = set(seed)
    while True:
        images = {apply_componentwise(tab, rows)
                  for tab in alg.all_ops().values()
                  for rows in itertools.product(closed,
                                                repeat=table_arity(tab))}
        if images <= closed:
            return closed
        closed |= images


def test_close_matches_reference_closure(monkeypatch):
    rng = random.Random(11)
    grown_to_product = short_of_product = 0
    for _ in range(150):
        size = rng.randint(2, 4)
        alg = _random_conservative_algebra(size, rng)
        arity = rng.randint(1, 4)
        pools = [rng.sample(range(size), rng.randint(2, min(size, 3)))
                 for _ in range(arity)]
        seed = {tuple(rng.choice(p) for p in pools)
                for _ in range(rng.randint(2, 5))}
        closed = close_under_ops(seed, alg)
        assert closed.tuples == _reference_closure(seed, alg)
        with monkeypatch.context() as patch:  # one first argument per slice
            patch.setattr(model, "_STEP_ELEMENTS", 1)
            assert close_under_ops(seed, alg).tuples == closed.tuples
        signature = tuple(frozenset(t[i] for t in seed) for i in range(arity))
        assert closed.signature == signature
        product = math.prod(map(len, signature))
        if len(closed) < product:
            short_of_product += 1
        elif len(seed) < product:
            grown_to_product += 1
    assert grown_to_product >= 20 and short_of_product >= 20
    # A closure whose steps need several slices at the real slice size:
    # under the affine pair's canonical algebra (f, p, g projections,
    # h = x ^ y ^ z) it is the affine hull over GF(2).
    alg = canonical_algebra(EdgeLabeledGraph(2, {(0, 1): PairLabel(AFFINE)}))
    assert (alg.f, alg.p, alg.g) == (((0, 0), (1, 1)),) * 2 + (
        (((0, 0), (0, 0)), ((1, 1), (1, 1))),)
    seed = [tuple(rng.randint(0, 1) for _ in range(32)) for _ in range(7)]
    hull = {seed[0]}
    for t in seed[1:]:
        hull |= {tuple(a ^ b ^ c for a, b, c in zip(u, seed[0], t))
                 for u in hull}
    assert 32 * len(hull) ** 3 > model._STEP_ELEMENTS  # several slices
    assert close_under_ops(seed, alg).tuples == hull


def test_close_guards_the_code_space():
    alg = canonical_algebra(EdgeLabeledGraph(2, {(0, 1): PairLabel(AFFINE)}))
    with pytest.raises(InvalidArgumentError, match="64 bits"):
        close_under_ops([(0,) * 65, (1,) * 65], alg)
    # a value outside the universe would share its code with another tuple
    for seed in ([(2, 0), (0, 1)], [(-1,)]):
        with pytest.raises(InvalidArgumentError, match="universe"):
            close_under_ops(seed, alg)
    # 2**64 codes still fit: the all-ones tuple has the largest code
    ends = {(0,) * 64, (1,) * 64}
    assert close_under_ops(ends, alg).tuples == ends
    mixed = {(0, 1) * 32, (1, 0) * 32, (1, 1) * 32}
    assert close_under_ops(mixed, alg).tuples == mixed | {(0, 0) * 32}


def test_closure_check_codes_a_wide_relation_over_its_values(a3, monkeypatch):
    """{0,1}^8 x 0^33 would need 3**41 codes over the universe, but only
    2**8 over the values it takes: the closure decides, not the table by
    table check."""
    alg, _ = a3
    rel = relation([t + (0,) * 33
                    for t in itertools.product((0, 1), repeat=8)])
    monkeypatch.setattr(model, "preservation_witness", None)
    start = time.perf_counter()
    assert is_closed_under_ops(rel, alg) is None
    assert time.perf_counter() - start < 0.5


def test_closure_check_codes_positions_by_the_rank_of_their_values(
        a3, monkeypatch):
    """Each of 41 positions takes {0, 2}: 2**41 codes by the rank of a value
    among those its position takes, where one past the largest value, 3,
    would need 3**41 and the table by table check.  Position i of the
    tuple for t in {0,1}^6 is 2 * t[i mod 6]."""
    alg, _ = a3
    rel = relation([tuple(2 * t[i % 6] for i in range(41))
                    for t in itertools.product((0, 1), repeat=6)])
    monkeypatch.setattr(model, "preservation_witness", None)
    start = time.perf_counter()
    assert is_closed_under_ops(rel, alg) is None
    assert time.perf_counter() - start < 2.0


def test_close_grows_a_closure_coded_by_rank():
    """41 positions over {0, 2}, affine under h: 3**41 value codes overflow,
    2**41 rank codes do not, and the closure of three tuples is their
    affine hull."""
    alg = canonical_algebra(EdgeLabeledGraph(3, {
        (0, 1): PairLabel(MAJORITY), (0, 2): PairLabel(AFFINE),
        (1, 2): PairLabel(MAJORITY)}))
    rng = random.Random(5)
    seed = [tuple(rng.choice((0, 2)) for _ in range(41)) for _ in range(3)]
    hull = set(seed) | {tuple(a ^ b ^ c for a, b, c in zip(*seed))}
    assert close_under_ops(seed, alg).tuples == hull


def test_closure_check_goes_table_by_table_past_64_bit_codes(a3,
                                                             monkeypatch):
    """Three values at each of 41 positions need 3**41 > 2**64 codes."""
    alg, _ = a3
    monkeypatch.setattr(model, "close_under_ops", None)
    assert is_closed_under_ops(
        relation([(v,) * 41 for v in range(3)]), alg) is None
    _assert_real_witness(relation([(0, 1) + (0,) * 39, (1, 0) + (1,) * 39,
                                   (2,) * 41]), alg)


def test_close_codes_one_valued_positions_past_2_64_codes():
    """Positions that take one value add no digit, even where the running
    product of the radices before them has reached 2**64."""
    alg = canonical_algebra(EdgeLabeledGraph(2, {(0, 1): PairLabel(AFFINE)}))
    ends = {(0,) * 64 + (0, 0), (1,) * 64 + (0, 0)}
    assert close_under_ops(ends, alg).tuples == ends


def test_closure_is_polymorphism_invariant(a3):
    alg, _ = a3
    closed = close_under_ops([(0, 1, 2), (1, 1, 0), (2, 0, 1)], alg)
    assert is_closed_under_ops(closed, alg) is None


def _assert_real_witness(rel, alg):
    witness = is_closed_under_ops(rel, alg)
    assert witness is not None
    name, rows, image = witness
    op = alg.all_ops()[name]
    assert all(t in rel for t in rows)
    assert image == apply_componentwise(op, rows)
    assert image not in rel
    return name


def test_unclosed_witness_is_real(a3):
    alg, _ = a3
    # {(1,0),(2,2)}: f and p are first projection on it, p maps onto (1,2)
    rel = relation([(1, 0), (2, 2)])
    assert _assert_real_witness(rel, alg) == "p"
    rng = random.Random(7)
    found = 0
    for _ in range(200):
        arity = rng.randint(1, 3)
        rows = {tuple(rng.randrange(3) for _ in range(arity))
                for _ in range(rng.randint(1, 4))}
        rel = relation(rows)
        if close_under_ops(rows, alg).tuples != rel.tuples:
            _assert_real_witness(rel, alg)
            found += 1
        else:
            assert is_closed_under_ops(rel, alg) is None
    assert found >= 50


def test_restrict_relation_drops_and_signs():
    r = relation([(0, 1), (1, 1), (2, 0)])
    sub = restrict_relation(r, [{0, 1}, {1, 2}])
    assert sub.tuples == {(0, 1), (1, 1)}
    assert sub.signature == (frozenset({0, 1}), frozenset({1, 2}))
    empty = restrict_relation(r, [{2}, {1}])
    assert empty.tuples == frozenset() and empty.signature == ({2}, {1})


def test_restrict_instance(a3):
    alg, _ = a3
    neq = relation([(0, 1), (1, 0), (1, 2), (2, 1)])
    one = relation([(0,), (2,)])
    inst = Instance(["u", "w"], {"u": {0, 1, 2}, "w": {0, 1, 2}},
                    [(("u", "w"), neq), (("w",), one), (("w", "u"), neq)], alg)
    smaller = restrict_instance(inst, {"u": {1, 2}, "w": {1}})
    assert smaller.variables == inst.variables and smaller.algebra is alg
    assert smaller.domains == {"u": {1, 2}, "w": {1}}
    assert [c.scope for c in smaller.constraints] == \
        [("u", "w"), ("w",), ("w", "u")]
    assert [c.relation.tuples for c in smaller.constraints] == \
        [{(2, 1)}, frozenset(), {(1, 2)}]
    assert [c.relation.signature for c in smaller.constraints] == \
        [({1, 2}, {1}), ({1},), ({1}, {1, 2})]
    assert restrict_instance(inst, {"u": {1, 2}, "w": set()}) is None


def test_algebra_violations_clean(a3):
    alg, _ = a3
    assert algebra_violations(alg) == []


def test_algebra_violations_flag_nonconservative(a3):
    alg, _ = a3
    f = [list(r) for r in alg.f]
    f[0][1] = 2
    from ccsp.model import Algebra
    bad = Algebra(3, tuple(tuple(r) for r in f), alg.p, alg.g, alg.h)
    assert any("not conservative" in v for v in algebra_violations(bad))


def _changed(table, size, changes):
    """The table with the values of `changes` at its cells."""
    arity = table_arity(table)
    return nest([changes.get(c, at(table, c))
                 for c in itertools.product(range(size), repeat=arity)],
                size, arity)


def test_algebra_violations_report_a_non_idempotent_ternary_cell(a3):
    alg, _ = a3
    g = _changed(alg.g, 3, {(1, 1, 1): 2})
    bad = Algebra(3, alg.f, alg.p, g, alg.h)
    assert algebra_violations(bad) == ["g(1, 1, 1)=2 is not idempotent"]


def test_algebra_violations_report_each_non_conservative_cell_once(a3):
    """p and h leave their arguments at three cells, one of them constant;
    each is reported once, in cell order, and nothing else is."""
    alg, _ = a3
    p = _changed(alg.p, 3, {(0, 1): 2, (1, 0): 2, (2, 2): 0})
    h = _changed(alg.h, 3, {(1, 2, 1): 0})
    assert algebra_violations(Algebra(3, alg.f, p, alg.g, h)) == [
        "p(0, 1)=2 is not conservative", "p(1, 0)=2 is not conservative",
        "p(2, 2)=0 is not idempotent", "h(1, 2, 1)=0 is not conservative"]


def test_nest_lays_out_cells_in_product_order_and_at_reads_them():
    assert nest([0, 1, 1, 0], 2, 2) == ((0, 1), (1, 0))
    assert nest([4], 1, 3) == (((4,),),)
    for size in range(1, 5):
        for arity in range(1, 4):
            cells = list(itertools.product(range(size), repeat=arity))
            values = list(range(len(cells)))[::-1]
            table = nest(values, size, arity)
            assert table_arity(table) == arity and len(table) == size
            assert [at(table, c) for c in cells] == values


def _tiny_instance(alg):
    rel = close_under_ops([(1, 1), (2, 2)], alg)
    return Instance(["u", "w"], {"u": {1, 2}, "w": {1, 2}},
                    [(("u", "w"), rel)], alg)


def test_validate_wellformed(a3):
    alg, _ = a3
    assert validate_instance(_tiny_instance(alg)) == []


def test_validate_tuple_outside_domain(a3):
    alg, _ = a3
    rel = relation([(0, 1), (1, 1)])
    inst = Instance(["u", "w"], {"u": {1}, "w": {1}}, [(("u", "w"), rel)], alg)
    problems = validate_instance(inst)
    assert any("leaves" in p for p in problems)


def test_validate_detects_unclosed_relation(a3):
    alg, _ = a3
    # {(1,0),(2,2)} is not closed: p maps it onto (1,2)
    rel = relation([(1, 0), (2, 2)], signature=[{1, 2}, {0, 2}])
    inst = Instance(["u", "w"], {"u": {1, 2}, "w": {0, 2}},
                    [(("u", "w"), rel)], alg)
    problems = validate_instance(inst)
    assert any("not closed under" in p for p in problems)


def test_validate_lawless_algebra_and_values_outside_universe(a3):
    alg, _ = a3
    f = [list(r) for r in alg.f]
    f[0][1] = 2
    bad = Algebra(3, tuple(map(tuple, f)), alg.p, alg.g, alg.h)
    # {0, 1} is its own product, which a non-conservative f can leave
    inst = Instance(["u"], {"u": {0, 1}},
                    [(("u",), relation([(0,), (1,)]))], bad)
    assert any("not conservative" in p for p in validate_instance(inst))
    far = Instance(["u"], {"u": {0, 5}}, [(("u",), relation([(5,)]))], alg)
    assert validate_instance(far) == ["domain of 'u' leaves the universe"]


def test_summ_and_verify(a3):
    alg, _ = a3
    inst = _tiny_instance(alg)
    assert summ(inst) == 4
    assert verify_assignment(inst, {"u": 1, "w": 1}) == []
    assert verify_assignment(inst, {"u": 1, "w": 2}) != []
