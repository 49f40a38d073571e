import itertools
import time
from collections import Counter

import pytest

from ccsp import classify
from ccsp.classify import (AFFINE, MAJORITY, NONE, SEMILATTICE,
                           ConstraintLanguage, EdgeLabeledGraph, PairLabel,
                           check_uniformity_laws, classify_language,
                           classify_pair, derive_m, semilattice_label,
                           synthesize_uniform_ops)
from ccsp.errors import InvalidArgumentError, SynthesisFailureError
from ccsp.harness import (GeneratorConfig, Rng, canonical_a3,
                          canonical_algebra, gen_algebra, gen_closed_relation)
from ccsp.indicator import Network, search_operation
from ccsp.model import (Algebra, at, close_under_ops, nest,
                        preservation_witness, relation)


def lang2(*tuple_sets):
    return ConstraintLanguage(2, tuple(relation(ts) for ts in tuple_sets))


ORDER = lang2([(0, 0), (0, 1), (1, 1)])
NEQ = lang2([(0, 1), (1, 0)])
XOR3 = lang2([t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0])
ONE_IN_3 = lang2([(1, 0, 0), (0, 1, 0), (0, 0, 1)])


def test_order_is_semilattice_smaller_source_first():
    assert classify_pair(ORDER, 0, 1) == PairLabel(SEMILATTICE, (0, 1))
    # the reverse orientation exists too; the label keeps the first found
    net = Network(2, 2, ORDER.relations)
    assert search_operation(net, {(1, 0): 0, (0, 1): 0}) is not None


def test_neq_is_majority():
    assert classify_pair(NEQ, 0, 1).kind == MAJORITY


def test_xor_is_affine():
    assert classify_pair(XOR3, 0, 1).kind == AFFINE


def test_one_in_three_is_none():
    assert classify_pair(ONE_IN_3, 0, 1).kind == NONE


def test_classify_pair_rejects_bad_pair():
    with pytest.raises(InvalidArgumentError):
        classify_pair(ORDER, 0, 0)
    with pytest.raises(InvalidArgumentError):
        classify_pair(ORDER, 0, 5)


# -- independent cross-check by full table enumeration ----------------------

def enumerate_conservative_tables(size, arity):
    """Every conservative table, as a nested table; exponential."""
    cells = itertools.product(range(size), repeat=arity)
    for values in itertools.product(*(dict.fromkeys(c) for c in cells)):
        yield nest(values, size, arity)


def _oracle_label(lang):
    """Expected label of pair {0,1} by enumerating every conservative table."""
    binary = list(enumerate_conservative_tables(2, 2))
    ternary = list(enumerate_conservative_tables(2, 3))
    sl = any(preservation_witness(t, lang.relations) is None and
             ((t[0][1] == 1 and t[1][0] == 1) or (t[0][1] == 0 and t[1][0] == 0))
             for t in binary)
    if sl:
        return SEMILATTICE
    maj = any(preservation_witness(t, lang.relations) is None and
              t[0][0][1] == 0 and t[0][1][0] == 0 and t[1][0][0] == 0 and
              t[1][1][0] == 1 and t[1][0][1] == 1 and t[0][1][1] == 1
              for t in ternary)
    if maj:
        return MAJORITY
    aff = any(preservation_witness(t, lang.relations) is None and
              t[0][0][1] == 1 and t[0][1][0] == 1 and t[1][0][0] == 1 and
              t[1][1][0] == 0 and t[1][0][1] == 0 and t[0][1][1] == 0
              for t in ternary)
    if aff:
        return AFFINE
    return NONE


def _oracle_exists(size, arity, rels, pinned):
    """Independent recursive enumerator: is there a conservative table
    preserving `rels` that matches the pinned cells?  Chronological order,
    full rescans, no shared machinery with the production search."""
    cells = list(itertools.product(range(size), repeat=arity))

    def ok_so_far(partial):
        for rel in rels:
            rows = sorted(rel.tuples)
            for combo in itertools.product(rows, repeat=arity):
                image = []
                for i in range(rel.arity):
                    cell = tuple(t[i] for t in combo)
                    if cell not in partial:
                        image = None
                        break
                    image.append(partial[cell])
                if image is not None and tuple(image) not in rel.tuples:
                    return False
        return True

    def rec(i, partial):
        if i == len(cells):
            return True
        cell = cells[i]
        options = [pinned[cell]] if cell in pinned else list(dict.fromkeys(cell))
        for v in options:
            if v not in cell:
                return False
            partial[cell] = v
            if ok_so_far(partial) and rec(i + 1, partial):
                return True
            del partial[cell]
        return False

    return rec(0, {})


def _oracle_label_3(lang, a, b):
    """Expected label of {a, b} over a 3-element universe."""
    for src, snk in ((min(a, b), max(a, b)), (max(a, b), min(a, b))):
        if _oracle_exists(3, 2, lang.relations,
                          {(src, snk): snk, (snk, src): snk}):
            return SEMILATTICE
    def cells(vals):
        return {c: vals(*c) for c in itertools.product((a, b), repeat=3)
                if len(set(c)) == 2}
    maj = cells(lambda x, y, z: x if (x == y or x == z) else y)
    if _oracle_exists(3, 3, lang.relations, maj):
        return MAJORITY
    mino = cells(lambda x, y, z: z if x == y else (x if y == z else y))
    if _oracle_exists(3, 3, lang.relations, mino):
        return AFFINE
    return NONE


@pytest.mark.parametrize("lang,expected", [
    (ORDER, SEMILATTICE), (NEQ, MAJORITY), (XOR3, AFFINE), (ONE_IN_3, NONE)])
def test_crafted_labels_match_enumeration(lang, expected):
    assert _oracle_label(lang) == expected
    assert classify_pair(lang, 0, 1).kind == expected


def test_precedence_against_enumeration_on_random_languages():
    rng = Rng(77)
    for i in range(40):
        r = rng.split("lang", i)
        rels = []
        for _ in range(r.randint(1, 2)):
            arity = r.randint(1, 3)
            pool = list(itertools.product((0, 1), repeat=arity))
            rels.append(relation(r.sample(pool, r.randint(1, len(pool)))))
        lang = ConstraintLanguage(2, tuple(rels))
        assert classify_pair(lang, 0, 1).kind == _oracle_label(lang)


def test_precedence_on_three_element_universe():
    rng = Rng(78)
    for i in range(12):
        r = rng.split("lang3", i)
        rels = []
        for _ in range(r.randint(1, 2)):
            arity = r.randint(1, 2)
            pool = list(itertools.product(range(3), repeat=arity))
            rels.append(relation(r.sample(pool, r.randint(2, min(6, len(pool))))))
        lang = ConstraintLanguage(3, tuple(rels))
        a, b = sorted(r.sample(range(3), 2))
        assert classify_pair(lang, a, b).kind == _oracle_label_3(lang, a, b)


def test_classify_language_single_element():
    verdict = classify_language(ConstraintLanguage(1, ()))
    assert verdict.tractable
    assert verdict.graph.pairs() == []


def test_classify_language_affine_and_hard():
    assert classify_language(XOR3).tractable
    v = classify_language(ONE_IN_3)
    assert not v.tractable and v.witness_pair == (0, 1)


def test_classify_language_deterministic():
    a = classify_language(XOR3)
    b = classify_language(XOR3)
    assert a.algebra == b.algebra and a.graph == b.graph


# -- synthesis ---------------------------------------------------------------

def test_synthesize_order_language():
    v = classify_language(ORDER)
    alg = v.algebra
    assert alg.f[0][1] == alg.f[1][0] == 1          # join toward 1
    assert alg.p == alg.f
    for x, y, z in itertools.product((0, 1), repeat=3):
        assert alg.g[x][y][z] == alg.f[alg.f[x][y]][z]
        assert alg.h[x][y][z] == alg.f[alg.f[x][y]][z]


def test_synthesize_xor_language():
    v = classify_language(XOR3)
    alg = v.algebra
    for x, y, z in itertools.product((0, 1), repeat=3):
        assert alg.h[x][y][z] == (x + y + z) % 2
        assert alg.g[x][y][z] == x
    for x, y in itertools.product((0, 1), repeat=2):
        assert alg.f[x][y] == x and alg.p[x][y] == x


def test_synthesize_free_language_prefers_first_argument():
    graph = EdgeLabeledGraph(3, {
        (0, 1): PairLabel(MAJORITY), (0, 2): PairLabel(MAJORITY),
        (1, 2): PairLabel(MAJORITY)})
    alg = synthesize_uniform_ops(ConstraintLanguage(3, ()), graph)
    for x, y, z in itertools.permutations(range(3)):
        assert alg.g[x][y][z] == x
        assert alg.h[x][y][z] == x


def test_synthesize_checks_f_and_p_against_the_relations():
    # f joining toward 1 maps the rows (0,1), (1,0) of NEQ to (1,1); as a
    # majority pair p is the second projection, which preserves NEQ
    with pytest.raises(SynthesisFailureError):
        synthesize_uniform_ops(NEQ, EdgeLabeledGraph(
            2, {(0, 1): semilattice_label([(0, 1)])}))
    alg = synthesize_uniform_ops(NEQ, EdgeLabeledGraph(
        2, {(0, 1): PairLabel(MAJORITY)}))
    assert alg.f == ((0, 0), (1, 1)) and alg.p == ((0, 1), (0, 1))
    # f preserves R, but p, the second projection on the majority pair
    # {0,2}, maps the rows (2,2), (0,1) of R to (0,2)
    graph = EdgeLabeledGraph(3, {(0, 1): semilattice_label([(0, 1)]),
                                 (0, 2): PairLabel(MAJORITY),
                                 (1, 2): PairLabel(AFFINE)})
    rel = relation([(0, 1), (2, 1), (2, 2)])
    assert preservation_witness(canonical_algebra(graph).f, [rel]) is None
    with pytest.raises(SynthesisFailureError):
        synthesize_uniform_ops(ConstraintLanguage(3, (rel,)), graph)


def test_synthesize_rejects_a_partial_graph():
    graph = EdgeLabeledGraph(3, {(0, 1): PairLabel(MAJORITY),
                                 (0, 2): PairLabel(MAJORITY)})
    with pytest.raises(InvalidArgumentError, match="fully labeled"):
        synthesize_uniform_ops(ConstraintLanguage(3, ()), graph)
    with pytest.raises(InvalidArgumentError, match="fully labeled"):
        synthesize_uniform_ops(ORDER, EdgeLabeledGraph(2, {(0, 1): PairLabel(NONE)}))


def _semilattice_pairs(graph):
    return sum(graph.kind(a, b) == SEMILATTICE for (a, b) in graph.pairs())


def _count_synthesis_searches(monkeypatch):
    """Make synthesis fail as soon as it makes more searches than its graph
    has semilattice pairs plus three (one witness per pair, then p, g and
    h); the returned dict holds the count of the last synthesis."""
    search, synthesize = classify.search_operation, classify.synthesize_uniform_ops
    count = {"calls": 0, "limit": None}

    def counting_search(network, pinned):
        if count["limit"] is not None:
            count["calls"] += 1
            if count["calls"] > count["limit"]:
                raise AssertionError(f"synthesis made over {count['limit']} searches")
        return search(network, pinned)

    def counted_synthesis(lang, graph, networks=None):
        count.update(calls=0, limit=_semilattice_pairs(graph) + 3)
        try:
            return synthesize(lang, graph, networks)
        finally:
            count["limit"] = None

    monkeypatch.setattr(classify, "search_operation", counting_search)
    monkeypatch.setattr(classify, "synthesize_uniform_ops", counted_synthesis)
    return count


def _check_tractable_verdict(lang, verdict):
    assert verdict.tractable
    assert check_uniformity_laws(verdict.algebra, verdict.graph) == []
    assert all(preservation_witness(tab, lang.relations) is None
               for tab in verdict.algebra.all_ops().values())


def test_synthesis_searches_once_per_semilattice_pair(monkeypatch):
    """All 28 pairs of this language are semilattice, and many orientation
    choices fail before one realizes them all; composing one witness per
    pair needs no choice."""
    lang = ConstraintLanguage(8, (
        relation([(0, 0), (0, 7), (5, 0)]),
        relation([(1, 0, 3), (1, 2, 3), (2, 2, 3), (6, 2, 3)]),
        relation([(2, 0, 5), (4, 0, 5), (4, 7, 5), (7, 0, 5)])))
    count = _count_synthesis_searches(monkeypatch)
    start = time.perf_counter()
    verdict = classify_language(lang)
    assert time.perf_counter() - start < 1
    assert _semilattice_pairs(verdict.graph) == 28
    assert count["calls"] <= 28 + 3
    _check_tractable_verdict(lang, verdict)


def test_synthesis_composes_any_witness(monkeypatch):
    """Over the empty language every conservative table is a polymorphism,
    so the witness joining {0, 1} may be either projection on each other
    pair; f still comes out as the first projection on all of them.  A
    witness that joins a pair labeled majority fails synthesis."""
    graph = EdgeLabeledGraph(4, {
        (a, b): semilattice_label([(0, 1)]) if (a, b) == (0, 1)
        else PairLabel(MAJORITY) for a, b in itertools.combinations(range(4), 2)})
    lang = ConstraintLanguage(4, ())
    others = graph.pairs()[1:]
    search = classify.search_operation
    for sides in itertools.product((0, 1, "join"), repeat=len(others)):
        witness = {(x, x): x for x in range(4)}
        witness[(0, 1)] = witness[(1, 0)] = 1
        for (a, b), side in zip(others, sides):
            if side == "join":
                witness[(a, b)] = witness[(b, a)] = b
            else:  # the first projection at 0, the second at 1
                witness[(a, b)], witness[(b, a)] = (a, b)[side], (b, a)[side]
        table = nest([witness[c] for c in itertools.product(range(4), repeat=2)],
                     4, 2)
        monkeypatch.setattr(
            classify, "search_operation",
            lambda net, pinned, w=table: w if pinned == {(0, 1): 1, (1, 0): 1}
            else search(net, pinned))
        if "join" in sides:
            with pytest.raises(SynthesisFailureError, match="majority pair"):
                synthesize_uniform_ops(lang, graph)
            continue
        alg = synthesize_uniform_ops(lang, graph)
        assert check_uniformity_laws(alg, graph) == [], sides


def _composed(f, p0, g0, h0, n):
    """p, g and h from the synthesis docstring: tables following the pair
    rules for f, made from any tables p0, g0, h0 that follow them for some
    f0 joining the same pairs."""
    p = tuple(tuple(f[p0[x][y]][f[x][y]] for y in range(n)) for x in range(n))
    g, h = (tuple(tuple(tuple(f[t[x][y][z]][f[f[x][y]][z]] for z in range(n))
                        for y in range(n)) for x in range(n))
            for t in (g0, h0))
    return p, g, h


def _keeping_relations(alg, graph):
    """Relations closed under alg that keep its majority and affine labels:
    disequality on each majority pair rules out a semilattice there, and
    even parity on each affine pair rules out a semilattice and majority."""
    out = []
    for (a, b) in graph.pairs():
        if graph.kind(a, b) == MAJORITY:
            out.append(close_under_ops({(a, b), (b, a)}, alg))
        elif graph.kind(a, b) == AFFINE:
            out.append(close_under_ops(
                {(a, a, a), (a, b, b), (b, a, b), (b, b, a)}, alg))
    return tuple(out)


def test_fuzzed_languages_synthesize_within_one_search_per_pair(monkeypatch):
    """Languages on 6-8 elements closed under generated algebras: each
    classifies tractable in under a second, with one search per semilattice
    pair and one each for p, g and h.  Random closed relations seldom rule
    out a semilattice, so every fourth language also keeps the generating
    labels; there the docstring's formulas turn the generating tables into
    p, g and h for the composed f."""
    rng = Rng(81)
    count = _count_synthesis_searches(monkeypatch)
    same_kinds = 0
    for i in range(104):
        size = 6 + i % 3
        alg, graph = gen_algebra(GeneratorConfig(seed=8100 + i, domain_size=size))
        r = rng.split("fuzz", i)
        rels = tuple(
            gen_closed_relation(
                alg, [frozenset(r.sample(range(size), r.randint(2, 3)))
                      for _ in range(arity)], r, seeds=r.randint(2, 3))
            for arity in (2, 3, 3))
        if i % 4 == 1:
            rels += _keeping_relations(alg, graph)
        lang = ConstraintLanguage(size, rels)
        start = time.perf_counter()
        verdict = classify_language(lang)
        assert time.perf_counter() - start < 1, i
        _check_tractable_verdict(lang, verdict)
        assert count["calls"] <= _semilattice_pairs(verdict.graph) + 3
        if all(verdict.graph.kind(a, b) == graph.kind(a, b)
               for (a, b) in graph.pairs()):
            same_kinds += 1
            f = verdict.algebra.f
            p, g, h = _composed(f, alg.p, alg.g, alg.h, size)
            assert check_uniformity_laws(Algebra(size, f, p, g, h),
                                         verdict.graph) == [], i
    assert same_kinds >= 26, same_kinds


def test_check_uniformity_clean_on_synthesized_and_canonical():
    v = classify_language(ORDER)
    assert check_uniformity_laws(v.algebra, v.graph) == []
    assert all(preservation_witness(tab, ORDER.relations) is None
               for tab in v.algebra.all_ops().values())
    alg, graph = canonical_a3()
    assert check_uniformity_laws(alg, graph) == []


def test_check_uniformity_flags_bad_p():
    alg, graph = canonical_a3()
    p = [list(r) for r in alg.p]
    p[0][2] = 0  # must be the second projection on the majority pair {0,2}
    bad = Algebra(3, alg.f, tuple(tuple(r) for r in p), alg.g, alg.h)
    assert any("p(0, 2)=0 should be 2 on majority pair (0,2)" in v
               for v in check_uniformity_laws(bad, graph))


# -- derived operation -------------------------------------------------------

def test_derive_m_majority_pair():
    alg, graph = canonical_a3()
    m = derive_m(alg)
    for x, y, z in itertools.product((0, 2), repeat=3):
        expected = x if (x == y or x == z) else y
        assert m[x][y][z] == expected


def test_derive_m_affine_pair():
    alg, graph = canonical_a3()
    m = derive_m(alg)
    for x, y in itertools.product((1, 2), repeat=2):
        assert m[x][y][y] == x and m[y][y][x] == x


def test_synthesized_tables_and_m_are_polymorphisms():
    for lang in (ORDER, NEQ, XOR3):
        v = classify_language(lang)
        alg = v.algebra
        for table in (alg.f, alg.p, alg.g, alg.h, derive_m(alg)):
            assert preservation_witness(table, lang.relations) is None


def test_preserves_checks_constant_row_combinations():
    # not idempotent: f(0,0) = 1 maps the row (0,0) of EQ0 out of it
    eq0 = [relation([(0, 0)])]
    assert preservation_witness(((1, 0), (1, 1)), eq0) is not None
    assert preservation_witness(((0, 0), (1, 1)), eq0) is None
    assert preservation_witness(((0, 1), (0, 0)), NEQ.relations) is not None


# -- search order: the first preserving table, found by enumeration ----------

def _static_order(size, arity, rels):
    """Cells in the search's order: in most non-constant row combinations
    first, then fewer distinct entries, then lexicographic."""
    degree = Counter()
    for rel in {id(r): r for r in rels if r.tuples}.values():
        for combo in itertools.product(sorted(rel.tuples), repeat=arity):
            if len(set(combo)) > 1:
                degree.update({tuple(t[i] for t in combo)
                               for i in range(rel.arity)})
    cells = itertools.product(range(size), repeat=arity)
    return sorted(cells, key=lambda c: (-degree[c], len(set(c)), c))


def _first_tables(size, arity, rels, pinned):
    """The first preserving table matching the pins in the search's cell
    order, and the first in the reverse of that order (None when none)."""
    order = _static_order(size, arity, rels)

    def rank(cells):  # each cell's value by its position among the entries
        return lambda t: tuple(list(dict.fromkeys(c)).index(at(t, c))
                               for c in cells)

    found = [t for t in enumerate_conservative_tables(size, arity)
             if all(at(t, c) == v for c, v in pinned.items())
             and preservation_witness(t, rels) is None]
    return (min(found, key=rank(order), default=None),
            min(found, key=rank(order[::-1]), default=None))


def _check_first_tables(size, arity, rels, pinned, outcomes):
    want, reverse = _first_tables(size, arity, rels, pinned)
    got = search_operation(Network(size, arity, rels), pinned)
    assert got == want, (size, arity, rels, pinned)
    outcomes["none" if got is None else
             "order-sensitive" if want != reverse else "found"] += 1


def _random_relations(r, size, arities, fewest):
    rels = []
    for _ in range(r.randint(1, 3)):
        pool = list(itertools.product(range(size), repeat=r.choice(arities)))
        rels.append(relation(r.sample(pool, r.randint(fewest, min(6, len(pool))))))
    return rels


def test_search_returns_first_table_in_static_order():
    rng = Rng(79)
    outcomes = Counter()
    triples = [c for c in itertools.product((0, 1), repeat=3) if len(set(c)) == 2]
    for i in range(80):
        r = rng.split("search", i)
        size = 2 + i % 2
        rels = _random_relations(r, size, (1, 2, 3), 1)
        a, b = sorted(r.sample(range(size), 2))
        for src, snk in ((a, b), (b, a), (None, None)):
            pinned = {} if src is None else {(src, snk): snk, (snk, src): snk}
            _check_first_tables(size, 2, rels, pinned, outcomes)
        if size == 2:
            for value in (lambda c: max(c, key=c.count),   # majority
                          lambda c: min(c, key=c.count)):  # minority
                _check_first_tables(2, 3, rels, {c: value(c) for c in triples},
                                    outcomes)
    assert outcomes["none"] > 20 and outcomes["found"] > 100
    # Two cells pinned against the first argument make the others compete,
    # so the first table found depends on the cell order now and then.
    sensitive = Counter()
    for i in range(300):
        r = rng.split("order", i)
        rels = _random_relations(r, 2, (3,), 3)
        pinned = {c: c[-1] for c in r.sample(triples, 2)}
        _check_first_tables(2, 3, rels, pinned, sensitive)
    assert sensitive["order-sensitive"] >= 5, sensitive


def test_search_rejects_a_pin_outside_the_table():
    net = Network(2, 2, ORDER.relations)
    for foreign in ({(0, 1, 1): 1}, {(0, 2): 2}, {(0, 1): 1, (1,): 1}):
        with pytest.raises(InvalidArgumentError, match="not a cell"):
            search_operation(net, foreign)
    assert search_operation(net, {(0, 1): 1, (1, 0): 1}) is not None


def test_shared_network_searches_as_fresh_ones():
    """One network searched under a sequence of pins (it keeps its unpinned
    fixpoint between searches) answers each as a freshly compiled one."""
    rng = Rng(80)
    found = Counter()
    for i in range(40):
        r = rng.split("shared", i)
        size = 2 + i % 2
        rels = _random_relations(r, size, (2, 3), 2)
        net = Network(size, 2, rels)
        pins = [{}]
        for a, b in itertools.permutations(range(size), 2):
            pins.append({(a, b): b, (b, a): b})
        for pinned in r.sample(pins, len(pins)) + [{}]:
            got = search_operation(net, pinned)
            assert got == search_operation(Network(size, 2, rels), pinned), rels
            found[got is None] += 1
    assert found[True] > 20 and found[False] > 20, found
