"""Tests of the benchmark's own oracles and checkers.

    python3 -m pytest perfbench/test_oracles.py
"""

import itertools
import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import oracles  # noqa: E402


def brute_force_parity(n, equations):
    return [bits for bits in itertools.product((0, 1), repeat=n)
            if oracles.parity_equations_hold(equations, bits)]


def random_system(rng, n, m):
    return [tuple(rng.sample(range(n), 3)) + (rng.randint(0, 1),)
            for _ in range(m)]


def test_gf2_agrees_with_enumeration():
    rng = random.Random(7)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(3, 9)
        eqs = random_system(rng, n, rng.randint(0, 2 * n))
        solution = oracles.gf2_solve(n, eqs)
        expected = brute_force_parity(n, eqs)
        assert (solution is not None) == bool(expected)
        if solution is not None:
            assert tuple(solution) in expected
        verdicts.add(solution is not None)
    assert verdicts == {True, False}


def test_gf2_repeated_triple_with_both_constants_is_unsat():
    assert oracles.gf2_solve(4, [(0, 1, 2, 0), (2, 1, 0, 1)]) is None
    assert oracles.gf2_solve(4, [(0, 1, 2, 1), (2, 1, 0, 1)]) is not None


def xor_instance(n, equations):
    variables = [f"x{i}" for i in range(n)]
    domains = {v: {0, 1} for v in variables}
    rels = {c: frozenset(t for t in itertools.product((0, 1), repeat=3)
                         if t[0] ^ t[1] ^ t[2] == c) for c in (0, 1)}
    constraints = [((variables[i], variables[j], variables[k]), rels[c])
                   for i, j, k, c in equations]
    return variables, domains, constraints


def test_assignment_checker_accepts_solution_and_rejects_mutations():
    rng = random.Random(3)
    n = 8
    eqs = [(0, 1, 2, 1), (2, 3, 4, 0), (4, 5, 6, 1), (6, 7, 0, 0)]
    variables, domains, constraints = xor_instance(n, eqs)
    bits = oracles.gf2_solve(n, eqs)
    good = {v: b for v, b in zip(variables, bits)}
    assert oracles.assignment_violations(variables, domains, constraints,
                                         good) == []
    for v in variables:  # every variable occurs in some equation
        flipped = dict(good, **{v: 1 - good[v]})
        assert oracles.assignment_violations(variables, domains, constraints,
                                             flipped)
    v = rng.choice(variables)
    assert oracles.assignment_violations(variables, domains, constraints,
                                         dict(good, **{v: 2}))
    missing = {u: b for u, b in good.items() if u != v}
    assert oracles.assignment_violations(variables, domains, constraints,
                                         missing)


def minority(x, y, z):
    return x ^ y ^ z


def majority(x, y, z):
    return (x & y) | (x & z) | (y & z)


def ternary_table(fn, size=2):
    return tuple(tuple(tuple(fn(x, y, z) for z in range(size))
                       for y in range(size)) for x in range(size))


XOR0 = frozenset(t for t in itertools.product((0, 1), repeat=3)
                 if t[0] ^ t[1] ^ t[2] == 0)


def test_table_checker_accepts_polymorphism_and_rejects_mutations():
    h = ternary_table(minority)
    assert oracles.table_violations(2, {"h": h}, {"h": 3}, [XOR0]) == []
    assert oracles.table_violations(2, {"g": ternary_table(majority)},
                                    {"g": 3}, [XOR0])
    nested = [[list(row) for row in plane] for plane in h]
    nested[0][0][1] = 0  # still conservative, no longer minority
    assert oracles.table_violations(2, {"h": nested}, {"h": 3}, [XOR0])
    f = [[0, 0], [1, 1]]  # first projection
    assert oracles.table_violations(2, {"f": f}, {"f": 2}, [XOR0]) == []
    assert any("not conservative" in v for v in
               oracles.table_violations(3, {"f": [[0, 2, 0], [1, 1, 1],
                                                  [2, 2, 2]]},
                                        {"f": 2}, []))


def test_table_checker_accepts_ccsp_canonical_tables():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    ccsp = pytest.importorskip("ccsp")
    alg, _graph = ccsp.canonical_a3()
    rng = random.Random(11)
    rels = []
    for _ in range(6):
        seeds = {tuple(rng.randrange(3) for _ in range(3)) for _ in range(3)}
        rels.append(ccsp.close_under_ops(seeds, alg).tuples)
    tables = {"f": alg.f, "p": alg.p, "g": alg.g, "h": alg.h}
    arities = {"f": 2, "p": 2, "g": 3, "h": 3}
    assert oracles.table_violations(3, tables, arities, rels) == []


def conservative_tables(arity):
    """Every conservative operation on {0, 1} of the given arity."""
    cells = [c for c in itertools.product((0, 1), repeat=arity)
             if len(set(c)) == 2]
    for values in itertools.product((0, 1), repeat=len(cells)):
        table = dict(zip(cells, values))
        table.update({(a,) * arity: a for a in (0, 1)})
        if arity == 2:
            yield [[table[(x, y)] for y in (0, 1)] for x in (0, 1)], table
        else:
            yield [[[table[(x, y, z)] for z in (0, 1)] for y in (0, 1)]
                   for x in (0, 1)], table


@pytest.mark.parametrize("arity", [2, 3])
def test_one_in_three_is_preserved_by_projections_only(arity):
    rel = oracles.one_in_three(0, 1)
    assert rel == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    survivors = [table for nested, table in conservative_tables(arity)
                 if not oracles.table_violations(
                     2, {"t": nested}, {"t": arity}, [rel])]
    projections = [{c: c[i] for c in itertools.product((0, 1), repeat=arity)}
                   for i in range(arity)]
    assert sorted(map(sorted, (t.items() for t in survivors))) == \
        sorted(map(sorted, (p.items() for p in projections)))


def test_one_in_three_needs_two_elements():
    with pytest.raises(ValueError):
        oracles.one_in_three(2, 2)
