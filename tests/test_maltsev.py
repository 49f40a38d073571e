import itertools
import random

import pytest

from ccsp import maltsev, solver
from ccsp.classify import AFFINE, MAJORITY, EdgeLabeledGraph, PairLabel
from ccsp.harness import Rng, brute_force_solve, canonical_algebra
from ccsp.maltsev import (Representation, _fibers, extend, restrict,
                          solve_with_maltsev)
from ccsp.model import Instance, relation
from ccsp.solver import solve

# Oracles for the compact representation.  They apply m on their own and
# share no helper with `restrict` and `extend`, whose output they check.


def apply_m(m, x, y, z):
    return tuple(m[a][b][c] for a, b, c in zip(x, y, z))


def m_closure(seed, m):
    """Brute-force closure of a tuple set under componentwise m."""
    done = set(map(tuple, seed))
    frontier = list(done)
    while frontier:
        fresh = []
        all_rows = list(done)
        for t in frontier:
            for u in all_rows:
                for v in all_rows:
                    for cand in (apply_m(m, t, u, v), apply_m(m, u, t, v),
                                 apply_m(m, u, v, t)):
                        if cand not in done:
                            done.add(cand)
                            fresh.append(cand)
        frontier = fresh
    return frozenset(done)


def signature_of(rows):
    """All (q, a, b) with two tuples agreeing before q and valued a, b at q."""
    rows = list(rows)
    sig = set()
    for i, t in enumerate(rows):
        for u in rows[i:]:
            for q in range(len(t)):
                sig.add((q, t[q], u[q]))
                sig.add((q, u[q], t[q]))
                if t[q] != u[q]:
                    break
    return sig


def member(rep, target, m):
    """Membership in the relation a representation generates: walk its first
    row to the target one position at a time through the witness pairs.  A
    pair agreeing before q leaves those positions alone, as m(x, y, y) = x."""
    if rep.empty:
        return False
    g = rep.rows[0]
    for q in range(rep.n):
        if g[q] != target[q]:
            hit = rep.catalog.get((q, g[q], target[q]))
            if hit is None:
                return False
            g = apply_m(m, g, rep.rows[hit[0]], rep.rows[hit[1]])
    return g == target


def add_row(rep, row):
    """Insert a row into a representation, cataloguing its first difference
    with every row."""
    if row in rep._index:
        return
    idx = len(rep.rows)
    for j, other in enumerate(rep.rows):
        q = next((q for q, (a, b) in enumerate(zip(other, row))
                  if a != b), None)
        if q is not None:
            rep.catalog.setdefault((q, other[q], row[q]), (j, idx))
            rep.catalog.setdefault((q, row[q], other[q]), (idx, j))
    rep._insert(row)
    for values, a in zip(rep.values, row):
        values.add(a)


def product_representation(domains, m):
    """Representation of the full product: the empty row, extended by the
    product of the domains."""
    rep = Representation(n=0)
    add_row(rep, ())
    return extend(rep, [], _fibers(range(len(domains)),
                                   itertools.product(*domains), 0), m)


def random_maltsev_table(size, rng):
    m = [[[None] * size for _ in range(size)] for _ in range(size)]
    for x in range(size):
        for y in range(size):
            for z in range(size):
                if y == z:
                    m[x][y][z] = x
                elif x == y:
                    m[x][y][z] = z
                elif x == z:
                    m[x][y][z] = rng.choice([x, y])
                else:
                    m[x][y][z] = rng.choice([x, y, z])
    return tuple(tuple(tuple(r) for r in plane) for plane in m)


def random_representation(rel, n, rng):
    """Adversarial minimal representation: random witnesses per fork."""
    rows = sorted(rel)
    rep = Representation(n=n)
    sig = signature_of(rows)
    keys = sorted(k for k in sig if k[1] != k[2])
    rng.shuffle(keys)
    chosen = set()
    for (q, a, b) in keys:
        cands = [(t, u) for t in rows for u in rows
                 if t[:q] == u[:q] and t[q] == a and u[q] == b]
        t, u = rng.choice(cands)
        chosen.add(t)
        chosen.add(u)
    for q in range(n):
        for a in {t[q] for t in rows}:
            if not any(t[q] == a for t in chosen):
                chosen.add(rng.choice([t for t in rows if t[q] == a]))
    for t in sorted(chosen):
        add_row(rep, t)
    assert signature_of(rep.rows) == sig
    return rep


def test_product_representation_generates_full_product():
    domains = [[0, 1], [0, 2, 3], [1]]
    m = random_maltsev_table(4, Rng(1))
    rep = product_representation(domains, m)
    full = set(itertools.product(*domains))
    assert signature_of(rep.rows) == signature_of(full)
    for t in full:
        assert member(rep, t, m)
    assert not member(rep, (1, 1, 1), m)


@pytest.mark.parametrize("seed", range(40))
def test_append_coordinates_generates_the_product(seed):
    """`extend` by new coordinates only, C a product: R x D_1 x ... x D_k."""
    rng = Rng(seed).split("append")
    size = rng.choice([2, 3, 4])
    n = rng.randint(1, 4)
    m = random_maltsev_table(size, rng)
    domains = [sorted(rng.sample(range(size), rng.randint(1, size)))
               for _ in range(n)]
    pool = list(itertools.product(*domains))
    R = frozenset(m_closure(rng.sample(pool, min(len(pool), 3)), m))
    rep = random_representation(R, n, rng)
    extra = [sorted(rng.sample(range(size), rng.randint(1, size)))
             for _ in range(rng.randint(0, 2))]
    out = extend(rep, [], _fibers(range(n, n + len(extra)),
                                  itertools.product(*extra), n), m)
    product = {t + u for t in R for u in itertools.product(*extra)}
    assert out.n == n + len(extra)
    assert signature_of(out.rows) == signature_of(product)
    assert out.values == [{t[q] for t in product} for q in range(out.n)]
    for t in itertools.product(*domains, *[range(size)] * len(extra)):
        assert member(out, t, m) == (t in product)


@pytest.mark.parametrize("covers", [True, False])
@pytest.mark.parametrize("seed", range(60))
def test_extend_matches_bruteforce(seed, covers):
    """The join of R with a closed C on 0-2 of R's coordinates and 1-2 new
    ones, some of them repeated in C's scope.  When pr_O(C) misses points
    of pr_O(R), R is cut to it by `restrict` first."""
    rng = Rng(seed).split("extend")
    size = rng.choice([2, 2, 3, 3, 4])
    n = rng.choice([2, 3, 4])
    m = random_maltsev_table(size, rng)
    domains = [sorted(rng.sample(range(size), rng.randint(1, size)))
               for _ in range(n)]
    pool = list(itertools.product(*domains))
    R = m_closure(rng.sample(pool, min(len(pool), rng.randint(1, 4))), m)
    rep = random_representation(R, n, rng)
    old = rng.sample(range(n), rng.randint(0, 2))
    new = list(range(n, n + rng.randint(1, 2)))
    scope = old + new
    scope += [rng.choice(scope) for _ in range(rng.randint(1, 2))]
    rng.shuffle(scope)
    # the new coordinates are numbered in the order the scope reaches them
    order = [p for p in dict.fromkeys(scope) if p >= n]
    scope = [n + order.index(p) if p >= n else p for p in scope]

    def on_scope(t):
        return tuple(t[p] for p in scope)

    def sample(t):  # a tuple of R extended by random new values
        return t + tuple(rng.randrange(size) for _ in new)

    base = [on_scope(sample(rng.choice(sorted(R))))
            for _ in range(rng.randint(1, 3))]
    if covers:
        base += [on_scope(sample(t)) for t in sorted(R)]
    C = m_closure(base, m)
    O = sorted(set(old))
    cut_to = {tuple(t[scope.index(p)] for p in O) for t in C
              if all(t[i] == t[scope.index(p)] for i, p in enumerate(scope))}
    inside = {t for t in R if tuple(t[p] for p in O) in cut_to}
    if covers:
        assert inside == R
    else:
        rep = restrict(rep, O, cut_to, m)
        if rep.empty:
            assert not inside
            return
    out = extend(rep, O, _fibers(scope, C, n), m)

    join = {t + f for t in inside
            for f in itertools.product(range(size), repeat=len(new))
            if on_scope(t + f) in C}
    assert out.n == n + len(new)
    assert set(out.rows) <= join
    assert signature_of(out.rows) == signature_of(join)
    assert out.values == [{t[q] for t in join} for q in range(out.n)]
    for t in itertools.product(*domains, *[range(size)] * len(new)):
        assert member(out, t, m) == (t in join)


def test_extend_gives_each_fiber_its_own_witnesses():
    """C = {(0,0), (1,1), (1,2)} is closed under the minority of each pair
    that gives 0 on three distinct values.  Its fork (1, 2) lies over the
    point 1 of R's first coordinate, which R's first row does not take:
    `extend` walks there for the witnesses."""
    m = tuple(tuple(tuple(x if y == z else z if x == y else y if x == z
                          else 0 for z in range(3)) for y in range(3))
              for x in range(3))
    C = {(0, 0), (1, 1), (1, 2)}
    assert m_closure(C, m) == C
    rep = Representation(n=2)
    for t in [(0, 0), (0, 1), (1, 0)]:
        add_row(rep, t)
    join = {(a, b, f) for a, b in itertools.product((0, 1), repeat=2)
            for a2, f in C if a2 == a}
    out = extend(rep, [0], _fibers([0, 2], C, 2), m)
    assert set(out.rows) <= join
    assert signature_of(out.rows) == signature_of(join)
    for t in itertools.product(range(3), repeat=3):
        assert member(out, t, m) == (t in join)


@pytest.mark.parametrize("seed", range(150))
def test_restrict_matches_bruteforce(seed):
    rng = Rng(seed).split("maltsev")
    size = rng.choice([2, 2, 3, 3, 4])
    n = rng.choice([3, 4, 5])
    m = random_maltsev_table(size, rng)
    domains = [sorted(rng.sample(range(size), rng.randint(1, size)))
               for _ in range(n)]
    pool = list(itertools.product(*domains))
    seeds = rng.sample(pool, min(len(pool), rng.randint(1, 4)))
    R = frozenset(m_closure(seeds, m))
    rep = random_representation(R, n, rng)
    k = rng.randint(1, min(3, n))
    scope = rng.sample(range(n), k)
    sub_pool = sorted({tuple(t[s] for s in scope) for t in R})
    extra = list(itertools.product(*[domains[s] for s in scope]))
    base = rng.sample(sub_pool, min(len(sub_pool), rng.randint(1, 3))) \
        if sub_pool else []
    base += rng.sample(extra, min(len(extra), rng.randint(0, 2)))
    if not base:
        base = [rng.choice(extra)]
    allowed = m_closure(base, m)
    R_new = frozenset(t for t in R if tuple(t[s] for s in scope) in allowed)

    out = restrict(rep, scope, allowed, m)
    assert set(out.rows) <= R_new
    assert signature_of(out.rows) == signature_of(R_new)
    assert out.values == [{t[q] for t in R_new} for q in range(n)]

    probe = rng.choice(sorted(R))
    assert member(rep, probe, m)
    outside = tuple(rng.choice(domains[i]) for i in range(n))
    assert member(rep, outside, m) == (outside in R)


@pytest.mark.parametrize("seed", range(60))
def test_restrict_returns_r_when_its_scope_projection_is_allowed(seed):
    rng = Rng(seed).split("subset")
    size = rng.choice([2, 3, 4])
    n = rng.choice([3, 4, 5])
    m = random_maltsev_table(size, rng)
    domains = [sorted(rng.sample(range(size), rng.randint(1, size)))
               for _ in range(n)]
    pool = list(itertools.product(*domains))
    R = frozenset(m_closure(rng.sample(pool, min(len(pool), 3)), m))
    rep = random_representation(R, n, rng)
    scope = rng.sample(range(n), rng.randint(1, min(3, n)))
    extra = list(itertools.product(*[domains[s] for s in scope]))
    allowed = ({tuple(t[s] for s in scope) for t in R}
               | set(rng.sample(extra, min(len(extra), 2))))
    out = restrict(rep, scope, allowed, m)
    assert out is rep
    for t in pool:
        assert member(out, t, m) == (t in R)


def random_maltsev_instance(rng):
    """Domains, zero to six constraints closed under a random Maltsev table
    m, and m.  One coordinate is in no scope and the first scope repeats a
    coordinate."""
    size = rng.choice([2, 2, 3, 4])
    n = rng.choice([3, 4, 5, 6])
    m = random_maltsev_table(size, rng)
    domains = [sorted(rng.sample(range(size), rng.randint(1, size)))
               for _ in range(n)]
    idle = rng.randrange(n)
    used = [c for c in range(n) if c != idle]
    cons = []
    for i in range(rng.randint(0, 6)):
        scope = rng.sample(used, rng.randint(1, min(3, n - 1)))
        if i == 0:
            scope.append(scope[0])
        extra = list(itertools.product(*[domains[s] for s in scope]))
        base = rng.sample(extra, rng.randint(1, min(4, len(extra))))
        allowed = frozenset(t for t in m_closure(base, m)
                            if all(a in domains[s] for a, s in zip(t, scope)))
        if not allowed:
            allowed = frozenset(base[:1])
        cons.append((scope, allowed))
    return domains, cons, m


def solutions(domains, cons):
    return [t for t in itertools.product(*domains)
            if all(tuple(t[s] for s in sc) in al for sc, al in cons)]


@pytest.mark.parametrize("seed", range(120))
def test_chained_solve_matches_bruteforce(seed):
    """One coordinate is in no scope, the first scope repeats a
    coordinate, and some instances have no constraint."""
    domains, cons, m = random_maltsev_instance(Rng(seed).split("chain"))
    got = solve_with_maltsev(domains, cons, m)
    sols = solutions(domains, cons)
    assert (got is not None) == bool(sols)
    if got is not None:
        assert got in sols

    rep = product_representation(domains, m)
    for sc, al in cons:
        rep = restrict(rep, sc, al, m)
    assert signature_of(rep.rows) == signature_of(sols)
    assert set(rep.rows) <= set(sols)


MINORITY = tuple(tuple(tuple(x ^ y ^ z for z in (0, 1)) for y in (0, 1))
                 for x in (0, 1))


def test_parity_relation_representation():
    """Global parity structure must survive a chain of restrictions."""
    n = 6
    domains = [[0, 1]] * n
    even = [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0]
    odd = [t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 1]
    cons = [((0, 1, 2), even), ((2, 3, 4), even), ((4, 5, 0), odd),
            ((1, 3, 5), even)]
    got = solve_with_maltsev(domains, cons, MINORITY)
    sols = [t for t in itertools.product((0, 1), repeat=n)
            if all(tuple(t[s] for s in sc) in set(al) for sc, al in cons)]
    assert (got is not None) == bool(sols)
    if got:
        assert got in sols
    # and an unsatisfiable parity cycle
    cons_bad = [((0, 1, 2), even), ((2, 3, 4), even), ((4, 5, 0), even),
                ((1, 3, 5), even), ((0, 1, 2), odd)]
    assert solve_with_maltsev(domains, cons_bad, MINORITY) is None


# The canonical algebra of {0,1} affine and {0,2}, {1,2} majority: 3-XOR
# systems live on {0,1}, and a variable with domain {0,1,2} brings majority
# pairs into the instance.
PARITY_GRAPH = EdgeLabeledGraph(3, {(0, 1): PairLabel(AFFINE),
                                    (0, 2): PairLabel(MAJORITY),
                                    (1, 2): PairLabel(MAJORITY)})
PARITY_ALG = canonical_algebra(PARITY_GRAPH)
XOR = {c: relation([t for t in itertools.product((0, 1), repeat=3)
                    if sum(t) % 2 == c]) for c in (0, 1)}


def gf2_consistent(equations):
    """Gaussian elimination over GF(2) on x_i + x_j + x_k = c equations,
    one row per pivot (its lowest variable bit)."""
    pivots = {}
    for i, j, k, c in equations:
        mask, rhs = (1 << i) ^ (1 << j) ^ (1 << k), c
        while mask:
            low = mask & -mask
            if low not in pivots:
                pivots[low] = (mask, rhs)
                break
            pivot_mask, pivot_rhs = pivots[low]
            mask ^= pivot_mask
            rhs ^= pivot_rhs
        if not mask and rhs:
            return False
    return True


@pytest.mark.parametrize("seed", range(40))
def test_solve_is_independent_of_constraint_order(seed):
    """Shuffled copies of one constraint list get the verdict of brute
    force (a random Maltsev table) or of GF(2) elimination (a 3-XOR system
    near the threshold), and every returned row satisfies every
    constraint."""
    rng = Rng(seed).split("order")
    domains, cons, m = random_maltsev_instance(rng)
    small = (domains, cons, m, bool(solutions(domains, cons)))
    n = rng.randint(20, 40)
    equations = [(*rng.sample(range(n), 3), rng.randint(0, 1))
                 for _ in range(rng.randint(n * 8 // 10, n))]
    xor = ([[0, 1]] * n, [((i, j, k), XOR[c].tuples)
                          for i, j, k, c in equations],
           MINORITY, gf2_consistent(equations))
    for domains, cons, m, truth in (small, xor):
        for _ in range(4):
            got = solve_with_maltsev(domains, rng.sample(cons, len(cons)), m)
            assert (got is not None) == truth
            assert got is None or all(tuple(got[s] for s in sc) in al
                                      for sc, al in cons)


def test_contradiction_between_first_and_last_constraint_ends_at_once(
        monkeypatch):
    """The last constraint reaches no new coordinate once the first has
    been taken, so it is taken second and empties the representation: the
    first only extends it, the second only restricts it."""
    calls = []

    def spy(name, step):
        def spied(rep, scope, allowed, m):
            calls.append(name)
            return step(rep, scope, allowed, m)
        return spied

    monkeypatch.setattr(maltsev, "restrict", spy("restrict", restrict))
    monkeypatch.setattr(maltsev, "extend", spy("extend", extend))
    rng = random.Random("first-and-last")
    middle = [(*rng.sample(range(3, 40), 3), rng.randint(0, 1))
              for _ in range(30)]
    equations = [(0, 1, 2, 0), *middle, (2, 0, 1, 1)]
    cons = [((i, j, k), XOR[c].tuples) for i, j, k, c in equations]
    assert solve_with_maltsev([[0, 1]] * 40, cons, MINORITY) is None
    assert calls == ["extend", "restrict"]


def parity_instance(n, equations, idle=False):
    names = [f"x{i}" for i in range(n)]
    domains = {v: {0, 1} for v in names}
    if idle:
        names.append("idle")
        domains["idle"] = {0, 1, 2}
    cons = [((f"x{i}", f"x{j}", f"x{k}"), XOR[c]) for i, j, k, c in equations]
    return Instance(names, domains, cons, PARITY_ALG)


def test_parity_systems_match_gf2_elimination():
    """3-XOR systems around the satisfiability threshold, n = 10..60, each
    also with an idle {0,1,2} variable: its own component of the
    constraint graph, searched apart while the XOR variables still go to
    the Maltsev solver."""
    verdicts, mismatches = [], []
    for n in (10, 12, 14, 20, 30, 40, 50, 60):
        for density in (0.6, 0.8, 0.9, 1.0, 1.2):
            for seed in range(4):
                rng = random.Random(f"gf2/{n}/{density}/{seed}")
                equations = [(*rng.sample(range(n), 3), rng.randint(0, 1))
                             for _ in range(int(density * n))]
                truth = gf2_consistent(equations)
                for idle in (False, True):
                    res, _trace = solve(parity_instance(n, equations, idle),
                                        PARITY_ALG, PARITY_GRAPH)
                    verdicts.append(truth)
                    if res.is_sat != truth or res.is_sat and not all(
                            res.assignment[f"x{i}"] ^ res.assignment[f"x{j}"]
                            ^ res.assignment[f"x{k}"] == c
                            for i, j, k, c in equations):
                        mismatches.append((n, density, seed, idle))
    assert verdicts.count(True) >= 20 and verdicts.count(False) >= 20
    assert not mismatches, f"{len(mismatches)} of {len(verdicts)} wrong: " \
        f"{mismatches}"


def test_parity_systems_at_ladder_scale_match_gf2_elimination():
    """One 3-XOR system per density at n = 120 and n = 200, and at n = 400
    and n = 800 one on each side of the threshold."""
    cases = [(n, density) for n in (120, 200)
             for density in (0.6, 0.8, 0.9, 1.0, 1.2)]
    top = []
    for n, density in cases + [(n, density) for n in (400, 800)
                               for density in (0.9, 1.0)]:
        rng = random.Random(f"gf2-ladder/{n}/{density}")
        equations = [(*rng.sample(range(n), 3), rng.randint(0, 1))
                     for _ in range(int(density * n))]
        res, _trace = solve(parity_instance(n, equations), PARITY_ALG,
                            PARITY_GRAPH)
        assert res.is_sat == gf2_consistent(equations), (n, density)
        assert not res.is_sat or all(
            res.assignment[f"x{i}"] ^ res.assignment[f"x{j}"]
            ^ res.assignment[f"x{k}"] == c for i, j, k, c in equations)
        if n >= 400:
            top.append(res.is_sat)
    assert top == [True, False, True, False]


def test_idle_mixed_variable_leaves_xor_variables_to_maltsev(monkeypatch):
    """One idle {0,1,2} variable (majority pairs {0,2}, {1,2}) must not
    send the 3-XOR system beside it to the search."""
    seen = []

    def spy(domains, constraints, m):
        seen.extend(domains)
        return solve_with_maltsev(domains, constraints, m)

    monkeypatch.setattr(solver, "solve_with_maltsev", spy)
    rng = random.Random("idle/40")
    equations = [(*rng.sample(range(40), 3), rng.randint(0, 1))
                 for _ in range(36)]
    res, _trace = solve(parity_instance(40, equations, idle=True),
                        PARITY_ALG, PARITY_GRAPH)
    assert res.is_sat == gf2_consistent(equations)
    assert len(seen) == 40 and all(d == [0, 1] for d in seen)


def test_ten_variable_parity_system_matches_brute_force():
    graph = EdgeLabeledGraph(3, {(0, 1): PairLabel(AFFINE),
                                 (0, 2): PairLabel(MAJORITY),
                                 (1, 2): PairLabel(MAJORITY)})
    alg = canonical_algebra(graph)
    xor = {c: relation([t for t in itertools.product((0, 1), repeat=3)
                        if sum(t) % 2 == c]) for c in (0, 1)}
    rng = random.Random(0)
    names = [f"x{i}" for i in range(10)]
    cons = []
    for _ in range(9):
        scope = tuple(rng.sample(names, 3))
        cons.append((scope, xor[rng.randint(0, 1)]))
    inst = Instance(names, {v: {0, 1} for v in names}, cons, alg)
    assert brute_force_solve(inst).is_sat
    res, _trace = solve(inst, alg, graph)
    assert res.is_sat
