import hashlib
import itertools
from collections import Counter

from ccsp.classify import ConstraintLanguage, classify_language
from ccsp.harness import Rng, canonical_algebra, gen_label_graph
from ccsp.indicator import Network
from ccsp.model import at, close_under_ops, relation, table_arity


# -- the cut maps, against their constraints' rows ---------------------------

def _reductions(size, arity, rels):
    """Per non-constant row combination, in the network's order: its
    non-constant cells, each once, and the rows of its relation fitting the
    constant and repeated cells of the combination, over those cells."""
    out = []
    for rel in {id(r): r for r in rels if r.tuples}.values():
        rows = sorted(rel.tuples)
        for combo in itertools.product(rows, repeat=arity):
            if len(set(combo)) == 1:
                continue
            cells = list(zip(*combo))
            scope = list(dict.fromkeys(c for c in cells if len(set(c)) > 1))
            fits = [t for t in rows
                    if all(t[p] == c[0] for p, c in enumerate(cells)
                           if len(set(c)) == 1)
                    and all(t[p] == t[cells.index(c)]
                            for p, c in enumerate(cells))]
            assert set(combo) <= set(fits)  # its own rows always fit
            firsts = [cells.index(c) for c in scope]
            out.append((tuple(scope),
                        {tuple(t[p] for p in firsts) for t in fits}))
    return out


def _is_product(rows):
    """Whether `rows` are the product of their projections."""
    product = 1
    for column in zip(*rows):
        product *= len(set(column))
    return len(rows) == product


def _scoped_rows(size, arity, rels):
    """The reductions of more than one cell whose rows are not the product
    of their projections: the network's constraints, in its order."""
    return [(scope, rows) for scope, rows in _reductions(size, arity, rels)
            if len(scope) > 1 and not _is_product(rows)]


def _direct_cut(rows, doms):
    """Per position, the union of the values of the rows inside `doms`, as
    bitmasks, or None when no row is inside."""
    inside = [t for t in rows if all(d >> v & 1 for d, v in zip(doms, t))]
    if not inside:
        return None
    return tuple(sum({1 << v for v in values}) for values in zip(*inside))


def _small_languages():
    """60 seeded (size, arity, relations): 2 or 3 elements, binary or
    ternary tables, one to three relations of arity 2 or 3."""
    rng = Rng(253)
    for i in range(60):
        r = rng.split("cuts", i)
        size, arity = 2 + i % 2, 2 + i // 2 % 2
        rels = []
        for _ in range(r.randint(1, 3)):
            pool = list(itertools.product(range(size),
                                          repeat=r.randint(2, 3)))
            rels.append(relation(
                r.sample(pool, r.randint(2, min(6, len(pool))))))
        yield size, arity, rels


def test_every_cut_a_network_fills_is_its_rows_inside_the_domains():
    checked = 0
    for size, arity, rels in _small_languages():
        net = Network(size, arity, rels)
        for a, b in itertools.permutations(range(size), 2):
            net.search({(a,) * (arity - 1) + (b,): b})
        expected = _scoped_rows(size, arity, rels)
        assert [tuple(net.grid[c] for c in scope)
                for scope, _cuts in net.constraints] == \
            [scope for scope, _rows in expected]
        seen = set()  # constraints reduced alike share their cut map
        for (_scope, cuts), (_cells, rows) in zip(net.constraints, expected):
            if (id(cuts), frozenset(rows)) in seen:
                continue
            seen.add((id(cuts), frozenset(rows)))
            for doms, cut in cuts.items():
                assert cut == _direct_cut(rows, doms), (rels, doms)
                checked += 1
    assert checked >= 200, checked


def test_every_combination_a_network_leaves_out_admits_all_its_values():
    """A combination without a constraint allows every combination of its
    cells' conservative values, so it can cut no domain inside them."""
    left_out = Counter()
    for size, arity, rels in _small_languages():
        net = Network(size, arity, rels)
        built = Counter(
            (tuple(net.grid[c] for c in scope),
             frozenset(tuple(b.bit_length() - 1 for b in bits)
                       for bits in cuts.rows))
            for scope, cuts in net.constraints)
        every = Counter((scope, frozenset(rows))
                        for scope, rows in _reductions(size, arity, rels))
        assert not built - every
        for scope, rows in every - built:
            assert set(itertools.product(*map(set, scope))) <= rows, \
                (rels, scope)
            left_out[len(scope) > 1] += 1
    assert left_out[False] >= 400 and left_out[True] >= 200, left_out


def test_the_cell_order_counts_every_non_constant_combination():
    """Most constrained first by the degree over all non-constant
    combinations, built or not, then fewer distinct values, then the
    cell."""
    moved = 0
    for size, arity, rels in _small_languages():
        net = Network(size, arity, rels)
        grid = list(itertools.product(range(size), repeat=arity))

        def order(scopes):
            degree = Counter(itertools.chain.from_iterable(scopes))
            return sorted((c for c in grid if len(set(c)) > 1),
                          key=lambda c: (-degree[c], len(set(c)), c))

        want = order(scope for scope, _ in _reductions(size, arity, rels))
        assert [net.grid[g] for g in net.order] == want, rels
        moved += want != order(
            scope for scope, _ in _scoped_rows(size, arity, rels))
    assert moved >= 10, moved


def test_a_repeated_pin_set_gets_an_equal_tuple_table():
    """Semilattices join {0, 1} toward 1 but not toward 0 in this
    relation.  A repeat, in any order of the pins, returns the memoized
    table, a nested tuple that no caller can change."""
    net = Network(3, 2, [relation([(1, 0), (1, 2), (2, 1), (2, 2)])])
    pinned = {(0, 1): 1, (1, 0): 1}
    first = net.search(pinned)
    second = net.search(dict(reversed(pinned.items())))
    assert isinstance(first, tuple) and second == first
    assert table_arity(first) == 2 and at(first, (0, 1)) == 1
    assert net.search(pinned) == first
    for _ in range(2):
        assert net.search({(0, 1): 0, (1, 0): 0}) is None


# -- verdicts on 3-element languages with ternary relations ------------------

def _closed_relation(alg, arity, rng):
    """The closure of a few random tuples, redrawn (up to ten times) while
    it is a product of its projections, which every conservative operation
    preserves."""
    for _ in range(10):
        doms = [rng.sample(range(3), rng.randint(2, 3)) for _ in range(arity)]
        seeds = {tuple(rng.choice(d) for d in doms)
                 for _ in range(rng.randint(2, 4))}
        rel = close_under_ops(seeds, alg)
        product = 1
        for position in rel.signature:
            product *= len(position)
        if len(rel) < product:
            break
    return rel


def _three_element_languages(count):
    """Languages on {0, 1, 2}: one binary and two ternary relations closed
    under the canonical algebra of a random labeled graph; every third one
    also holds 1-in-3 on a random pair."""
    rng = Rng(251)
    for k in range(count):
        r = rng.split("language", k)
        alg = canonical_algebra(gen_label_graph(3, r))
        rels = [_closed_relation(alg, arity, r) for arity in (2, 3, 3)]
        if k % 3 == 2:
            a, b = r.sample(range(3), 2)
            rels.append(relation([(b, a, a), (a, b, a), (a, a, b)]))
        yield ConstraintLanguage(3, tuple(rels))


def _verdict_text(verdict):
    if not verdict.tractable:
        return repr((verdict.kind, verdict.witness_pair))
    alg, graph = verdict.algebra, verdict.graph
    labels = [(pair, lab.kind, lab.orientation)
              for pair, lab in sorted(graph.labels.items())]
    return repr((verdict.kind, alg.f, alg.p, alg.g, alg.h, labels))


def test_three_element_verdicts_match_the_recorded_digest():
    """Verdicts, witness pairs, the four tables and the orientations on 90
    three-element languages with ternary relations hash to the digest
    recorded when the indicator search was last rewritten; the first-table
    reference tests enumerate ternary tables on two elements only."""
    h = hashlib.sha256()
    kinds = set()
    for lang in _three_element_languages(90):
        verdict = classify_language(lang)
        kinds.add(verdict.kind)
        h.update(_verdict_text(verdict).encode())
    assert kinds == {"tractable", "np-complete"}
    assert h.hexdigest() == DIGEST


DIGEST = "3a545127bd9f3f039cd2d4a8ad82e9a1eaaa3654ed6702154f923cb0ec642035"
