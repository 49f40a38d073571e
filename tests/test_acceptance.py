"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with `pytest -s`) and
asserts the criterion at its stated size and tolerance.
"""

import itertools
import time

from ccsp.classify import (AFFINE, MAJORITY, NONE, SEMILATTICE,
                           EdgeLabeledGraph, PairLabel, check_uniformity_laws,
                           classify_pair, ConstraintLanguage,
                           semilattice_label)
from ccsp.harness import (GeneratorConfig, Rng, brute_force_solutions,
                          brute_force_solve, canonical_a3, canonical_algebra,
                          gen_algebra, gen_instance, gen_planted_instance)
from ccsp.laws import run_law_suite
from ccsp.minimality import establish_3_minimality, is_3_minimal
from ccsp.model import Algebra, Instance, close_under_ops, relation, \
    verify_assignment
from ccsp.solver import solve


def report(criterion: int, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def _suite_configs(count, base_seed=0):
    for i in range(count):
        yield GeneratorConfig(
            seed=base_seed + i,
            domain_size=2 + i % 3,                    # |A| in 2..4
            variable_count=4 + i % 7,                 # |V| in 4..10
            constraint_count=3 + i % 13,              # up to 15 constraints
            max_arity=3,
            label_weights=[(1, 1, 1), (3, 1, 1), (1, 3, 1), (1, 1, 3),
                           (2, 0, 2)][i % 5])


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    total = sat_n = unsat_n = 0
    for cfg in _suite_configs(500):
        alg, graph = gen_algebra(cfg)
        inst = gen_instance(alg, graph, cfg)
        want = brute_force_solve(inst)
        got, trace = solve(inst, alg, graph)
        assert got.status == want.status, \
            f"verdict mismatch at seed {cfg.seed}: {got.status} vs {want.status}"
        if got.is_sat:
            assert verify_assignment(inst, got.assignment) == []
            sat_n += 1
        else:
            unsat_n += 1
        total += 1
    dt = time.time() - t0
    report(1, total == 500 and dt < 300,
           f"{total} instances ({sat_n} sat, {unsat_n} unsat) matched the "
           f"oracle in {dt:.1f}s")


def _enumerate_tables(arity):
    cells = list(itertools.product((0, 1), repeat=arity))
    options = [list(dict.fromkeys(c)) for c in cells]
    for values in itertools.product(*options):
        table = dict(zip(cells, values))
        yield table


def _preserves(table, arity, rels):
    for rel in rels:
        for combo in itertools.product(sorted(rel.tuples), repeat=arity):
            image = tuple(table[tuple(t[i] for t in combo)]
                          for i in range(rel.arity))
            if image not in rel.tuples:
                return False
    return True


def _expected_label(rels):
    sl = any(_preserves(t, 2, rels) and t[(0, 1)] == t[(1, 0)]
             for t in _enumerate_tables(2))
    if sl:
        return SEMILATTICE
    majority = {c: (c[0] if c.count(c[0]) >= 2 else c[1])
                for c in itertools.product((0, 1), repeat=3)}
    if any(_preserves(t, 3, rels) and
           all(t[c] == majority[c] for c in majority)
           for t in _enumerate_tables(3)):
        return MAJORITY
    minority = {c: majority[c] ^ (0 if len(set(c)) == 1 else 1)
                for c in itertools.product((0, 1), repeat=3)}
    if any(_preserves(t, 3, rels) and
           all(t[c] == minority[c] for c in minority)
           for t in _enumerate_tables(3)):
        return AFFINE
    return NONE


def test_criterion_2_classifier_calibration():
    crafted = [
        ("order", [(0, 0), (0, 1), (1, 1)], SEMILATTICE),
        ("disequality", [(0, 1), (1, 0)], MAJORITY),
        ("parity", [t for t in itertools.product((0, 1), repeat=3)
                    if sum(t) % 2 == 0], AFFINE),
        ("one-in-three", [(1, 0, 0), (0, 1, 0), (0, 0, 1)], NONE),
    ]
    mismatches = []
    for name, tuples, expected in crafted:
        lang = ConstraintLanguage(2, (relation(tuples),))
        got = classify_pair(lang, 0, 1).kind
        oracle = _expected_label(lang.relations)
        if got != expected or oracle != expected:
            mismatches.append((name, got, oracle, expected))
    report(2, not mismatches,
           f"4 crafted languages labeled correctly, cross-checked by "
           f"exhaustive table enumeration ({mismatches or 'no mismatches'})")


def test_criterion_3_uniformity_law_suite():
    alg, graph = canonical_a3()
    failures = []
    if check_uniformity_laws(alg, graph):
        failures.append("canonical-a3")
    algebras = []
    for i in range(100):
        cfg = GeneratorConfig(seed=1000 + i, domain_size=2 + i % 4)  # |A| <= 5
        a, g = gen_algebra(cfg)
        algebras.append((a, g))
        if check_uniformity_laws(a, g):
            failures.append(f"seed {cfg.seed}")

    rng = Rng(999)
    undetected = []
    for k in range(20):
        r = rng.split("mutate", k)
        a, g = algebras[r.randrange(len(algebras))]
        op = r.choice(["f", "p", "g", "h"])
        n = a.size
        if op in ("f", "p"):
            x, y = r.sample(range(n), 2)
            table = [list(row) for row in getattr(a, op)]
            table[x][y] = y if table[x][y] == x else x
            mutated = Algebra(n, **{**{"f": a.f, "p": a.p, "g": a.g, "h": a.h},
                                    op: tuple(tuple(row) for row in table)})
        else:
            x, y = r.sample(range(n), 2)
            cells = [c for c in itertools.product((x, y), repeat=3)
                     if len(set(c)) == 2]
            cx, cy, cz = r.choice(cells)
            table = [[list(row) for row in plane] for plane in getattr(a, op)]
            old = table[cx][cy][cz]
            table[cx][cy][cz] = y if old == x else x
            frozen = tuple(tuple(tuple(row) for row in plane)
                           for plane in table)
            mutated = Algebra(n, **{**{"f": a.f, "p": a.p, "g": a.g, "h": a.h},
                                    op: frozen})
        if not check_uniformity_laws(mutated, g):
            undetected.append(k)
    ok = not failures and not undetected
    report(3, ok, f"canonical + 100 generated algebras clean; "
                  f"20/20 single-entry corruptions detected "
                  f"(failures={failures}, undetected={undetected})")


def test_criterion_4_structural_law_suite():
    cfg = GeneratorConfig(seed=4, domain_size=4, max_arity=4, samples=1000)
    rep = run_law_suite(cfg)
    fails = sum(c["fail"] for c in rep.counts.values())
    checks = sum(c["pass"] + c["fail"] for c in rep.counts.values())
    report(4, rep.samples == 1000 and fails == 0,
           f"{rep.samples} relations, {checks} law checks with hypotheses "
           f"met, {fails} failures "
           f"(hypothesis-not-met reported separately: "
           f"{ {k: v['hypothesis-not-met'] for k, v in sorted(rep.counts.items())} })")


def test_criterion_5_minimality_contract():
    bad_idem = []
    bad_preserve = []
    for i in range(200):
        cfg = GeneratorConfig(seed=5000 + i, domain_size=2 + i % 3,
                              variable_count=4 + i % 5,     # |V| <= 8
                              constraint_count=3 + i % 6, max_arity=3)
        alg, graph = gen_algebra(cfg)
        inst = gen_instance(alg, graph, cfg)
        before = brute_force_solutions(inst)
        out = establish_3_minimality(inst)
        if out is None:
            if before:
                bad_preserve.append(cfg.seed)
            continue
        pruned, engine = out
        if not is_3_minimal(engine):
            bad_idem.append(cfg.seed)
        again = establish_3_minimality(pruned)
        if again is None or again[0].domains != pruned.domains:
            bad_idem.append(cfg.seed)
        if brute_force_solutions(pruned) != before:
            bad_preserve.append(cfg.seed)
    report(5, not bad_idem and not bad_preserve,
           f"200 instances: idempotence and solution-set preservation hold "
           f"(idempotence failures={bad_idem}, preservation failures={bad_preserve})")


def _retraction_prone_instances():
    """Instances whose domains are as-components containing semilattice
    edges, so the retraction reduction must run."""
    shapes = []
    for seed in range(25):
        rng = Rng(seed).split("prone")
        graph = EdgeLabeledGraph(3, {
            (0, 1): semilattice_label([(0, 1)]),
            (0, 2): PairLabel(AFFINE),
            (1, 2): PairLabel(AFFINE)})
        alg = canonical_algebra(graph)
        seeds = {tuple(rng.choice(range(3)) for _ in range(2))
                 for _ in range(rng.randint(1, 3))}
        rel = close_under_ops(seeds, alg)
        inst = Instance(["x", "y", "z"],
                        {v: {0, 1, 2} for v in "xyz"},
                        [(("x", "y"), relation(rel.tuples,
                                               signature=[{0, 1, 2}] * 2)),
                         (("y", "z"), relation(rel.tuples,
                                               signature=[{0, 1, 2}] * 2))],
                        alg)
        shapes.append((inst, alg, graph))
    return shapes


def _exclusion_restart_instance():
    """Width-4 parity contradiction inside a component with an all-2 escape."""
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

    alg = Algebra(3, f, f, complete(lambda x, y, z: x),
                  complete(lambda x, y, z: (x + y + z) % 2))
    even = {t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 0}
    odd = {t for t in itertools.product((0, 1), repeat=3) if sum(t) % 2 == 1}
    sig3 = [{0, 1, 2}] * 3
    re = relation(close_under_ops(even | {(2, 2, 2)}, alg).tuples,
                  signature=sig3)
    ro = relation(close_under_ops(odd | {(2, 2, 2)}, alg).tuples,
                  signature=sig3)
    names = ["x1", "x2", "x3", "x4", "x5", "x6"]
    cons = [(("x1", "x2", "x3"), re), (("x3", "x4", "x5"), re),
            (("x5", "x6", "x1"), re), (("x2", "x4", "x6"), ro)]
    inst = Instance(names, {v: {0, 1, 2} for v in names}, cons, alg)
    return inst, alg, graph


def test_criterion_6_reduction_measures():
    lev_checks = shrink_checks = 0
    for cfg in _suite_configs(200, base_seed=6000):
        alg, graph = gen_algebra(cfg)
        inst = gen_instance(alg, graph, cfg)
        res, trace = solve(inst, alg, graph)
        lev_checks += trace.lev_checks
        shrink_checks += trace.shrink_checks
    extras = list(_retraction_prone_instances()) + [_exclusion_restart_instance()]
    restarts = 0
    for inst, alg, graph in extras:
        res, trace = solve(inst, alg, graph)
        assert res.status == brute_force_solve(inst).status
        lev_checks += trace.lev_checks
        shrink_checks += trace.shrink_checks
        restarts += trace.branch_counts.get("exclusion-restart", 0)
        restarts += trace.branch_counts.get("retract-loop", 0)
    report(6, lev_checks > 0 and shrink_checks > 0 and restarts > 0,
           f"{lev_checks} lev-decrease checks and {shrink_checks} shrink "
           f"checks ({restarts} restart/retract loop iterations), none "
           f"violated (a violation raises)")


def test_criterion_7_scaling_smoke():
    rows = []
    ok = True
    for mix, weights in (("majority", (0.0, 1.0, 0.0)),
                         ("affine", (0.0, 0.0, 1.0))):
        for seed in (70, 71):
            cfg = GeneratorConfig(seed=seed, domain_size=4,
                                  variable_count=100, constraint_count=150,
                                  max_arity=3, label_weights=weights)
            alg, graph = gen_algebra(cfg)
            inst = gen_planted_instance(alg, graph, cfg)
            t0 = time.time()
            res, trace = solve(inst, alg, graph)
            dt = time.time() - t0
            if not res.is_sat or dt >= 60:
                ok = False
            guideline = 2 * max(len(inst.domains[v]) for v in inst.variables)
            rows.append(f"{mix}/seed{seed}: {dt:.1f}s depth={trace.depth} "
                        f"(2k guideline {guideline})")
    report(7, ok, "; ".join(rows))
