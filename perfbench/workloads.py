"""Seeded input lists for the three workloads, with their checks.

Each workload function returns the same ordered list of cases for one
seed.  A case carries the timed verdict call into ccsp's public API, a
check of the verdict against the benchmark's own computation (see
oracles.py), and a canonical key from which the run's input digest is
made.  The make-up of every list is fixed; the seed only draws labels,
tuples, scopes and right-hand sides, so each run does comparable work.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass
from typing import Callable, Optional

from ccsp import (AFFINE, MAJORITY, SEMILATTICE, ConstraintLanguage,
                  EdgeLabeledGraph, GeneratorConfig, Instance, PairLabel,
                  canonical_algebra, classify_language, close_under_ops,
                  gen_algebra, gen_planted_instance, relation,
                  semilattice_label, solve)

import oracles


@dataclass
class Case:
    name: str
    call: Callable[[], object]              # the timed verdict call
    check: Callable[[object], Optional[str]]  # None, or why it is wrong
    key: str                                # canonical text of the input
    known_fault: Optional[str] = None       # reason prefix of a kept fault


def _rng(seed: int, *tags) -> random.Random:
    return random.Random("/".join(map(str, (seed,) + tags)))


def _int_seed(seed: int, *tags) -> int:
    text = "/".join(map(str, (seed,) + tags)).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def digest(cases: list[Case]) -> str:
    h = hashlib.sha256()
    for case in cases:
        h.update(case.name.encode())
        h.update(case.key.encode())
    return h.hexdigest()[:16]


def _instance_key(inst: Instance) -> str:
    doms = [sorted(inst.domains[v]) for v in inst.variables]
    cons = [(scope, sorted(rel.tuples)) for scope, rel in inst.constraints]
    return repr((inst.variables, doms, cons))


def _check_sat(inst: Instance, result) -> Optional[str]:
    """A sat verdict whose assignment passes the benchmark's checker."""
    if not result.is_sat:
        return f"wrong verdict: {result.status}, expected sat"
    bad = oracles.assignment_violations(
        inst.variables, inst.domains,
        [(scope, rel.tuples) for scope, rel in inst.constraints],
        result.assignment)
    return f"bad assignment: {bad[0]}" if bad else None


# ---------------------------------------------------------------------------
# classify: languages, tractable by construction or carrying 1-in-3

CLASSIFY_SIZE = 3               # universe of the seeded languages
CLASSIFY_COUNT = 240            # every third one is NP-complete
# (arity, fewest tuples, most tuples) of each relation of a language.
# Narrow ranges of small relations: the indicator search's work grows as
# |R|^3, so they keep the verdict times of one list close together, and
# many short verdicts make the list's quantiles steady from seed to seed.
CLASSIFY_RELATIONS = ((2, 3, 3), (3, 4, 5), (3, 4, 5))


def _random_graph(size: int, rng: random.Random) -> EdgeLabeledGraph:
    labels = {}
    for a, b in itertools.combinations(range(size), 2):
        kind = rng.choice((SEMILATTICE, MAJORITY, AFFINE))
        if kind == SEMILATTICE:
            labels[(a, b)] = semilattice_label([rng.choice(((a, b), (b, a)))])
        else:
            labels[(a, b)] = PairLabel(kind)
    return EdgeLabeledGraph(size, labels)


def _closed_relation(alg, size: int, arity: int, fewest: int, most: int,
                     rng: random.Random):
    """Closure of random seed tuples, redrawn until its size is in range
    and it is not a product of its projections.

    The range keeps the indicator search's work, which grows as |R|^3,
    alike from language to language and from seed to seed.  A product is
    preserved by every conservative operation, so it adds nothing to the
    classification.
    """
    while True:
        doms = [rng.sample(range(size), rng.randint(2, min(3, size)))
                for _ in range(arity)]
        seeds = {tuple(rng.choice(d) for d in doms)
                 for _ in range(rng.randint(2, 4))}
        rel = close_under_ops(seeds, alg)
        product = 1
        for position in rel.signature:
            product *= len(position)
        if fewest <= len(rel) <= most and len(rel) < product:
            return rel


def _check_classify(lang: ConstraintLanguage, hard: bool,
                    verdict) -> Optional[str]:
    if hard:
        if verdict.tractable:
            return "wrong verdict: tractable, expected np-complete"
        return None
    if not verdict.tractable:
        return f"wrong verdict: np-complete at {verdict.witness_pair}, " \
               "expected tractable"
    alg = verdict.algebra
    bad = oracles.table_violations(
        lang.size, {"f": alg.f, "p": alg.p, "g": alg.g, "h": alg.h},
        {"f": 2, "p": 2, "g": 3, "h": 3},
        [rel.tuples for rel in lang.relations])
    return f"bad tables: {bad[0]}" if bad else None


def _case_of_language(name: str, lang: ConstraintLanguage, hard: bool) -> Case:
    return Case(name, functools.partial(classify_language, lang),
                functools.partial(_check_classify, lang, hard),
                repr((lang.size, hard,
                      [sorted(r.tuples) for r in lang.relations])))


def _random_language(size: int, hard: bool,
                     rng: random.Random) -> ConstraintLanguage:
    alg = canonical_algebra(_random_graph(size, rng))
    rels = [_closed_relation(alg, size, arity, fewest, most, rng)
            for arity, fewest, most in CLASSIFY_RELATIONS]
    if hard:
        a, b = rng.sample(range(size), 2)
        rels.append(relation(oracles.one_in_three(a, b)))
    return ConstraintLanguage(size, tuple(rels))


def classify_cases(seed: int) -> list[Case]:
    cases = []
    for k in range(CLASSIFY_COUNT):
        hard = k % 3 == 2
        lang = _random_language(CLASSIFY_SIZE, hard,
                                _rng(seed, "classify", CLASSIFY_SIZE, k))
        cases.append(_case_of_language(
            f"classify/{CLASSIFY_SIZE}/{k:03d}", lang, hard))
    return cases


# ---------------------------------------------------------------------------
# planted: satisfiable instances over 4-element algebras

PLANTED_MIXES = {                       # label weights (sl, maj, aff)
    "majority": (0.0, 1.0, 0.0),
    "semilattice": (1.0, 0.0, 0.0),
    "semilattice+majority": (1.0, 1.0, 0.0),
    "majority+affine": (0.0, 1.0, 1.0),
    "all": (1.0, 1.0, 1.0),
}
# Variables per instance, with half as many constraints again.  Many
# small instances on an even ladder of sizes: every call is short enough
# that its fastest time over a run's rounds is the program's and not the
# machine's, and the quantiles fall among many like instances, so the
# instances drawn from one seed weigh little.
PLANTED_VARIABLES = tuple(range(10, 26))
# Algebras per mix.  How the semilattice pairs are oriented sets the depth
# of the reductions, so the algebras come from fixed seeds and --seed draws
# the instances: seeds then differ in instances, not in algebras.
PLANTED_ALGEBRAS = 3


def planted_cases(seed: int) -> list[Case]:
    cases = []
    for mix, weights in PLANTED_MIXES.items():
        for j in range(PLANTED_ALGEBRAS):
            alg, graph = gen_algebra(GeneratorConfig(
                seed=_int_seed(0, "planted-algebra", mix, j), domain_size=4,
                label_weights=weights))
            for nv in PLANTED_VARIABLES:
                nc = nv * 3 // 2
                cfg = GeneratorConfig(
                    seed=_int_seed(seed, "planted", mix, j, nv),
                    domain_size=4, variable_count=nv, constraint_count=nc,
                    max_arity=3, label_weights=weights)
                inst = gen_planted_instance(alg, graph, cfg)
                cases.append(Case(
                    f"planted/{mix}/{j}/{nv}x{nc}",
                    functools.partial(solve, inst, alg, graph),
                    lambda out, inst=inst: _check_sat(inst, out[0]),
                    _instance_key(inst)))
    return cases


# ---------------------------------------------------------------------------
# parity: 3-XOR systems over one affine pair

# restrict() in maltsev.py loses solutions of about half of all random
# satisfiable systems, and which half depends on the seed.  So the systems
# drawn from --seed are inconsistent ones, around the satisfiability
# threshold, and the satisfiable ones are a fixed block from a fixed seed:
# the same ones fail in every run and the failed share stays constant.
# Systems per density and number of variables, on an even ladder of sizes:
# over a hundred inputs, so that ten lie beyond the 90th percentile, each
# call short enough that its fastest time over a run's rounds is the
# program's.
PARITY_VARIABLES = tuple(range(20, 30))
PARITY_DENSITIES = (0.8, 0.9, 1.0, 1.1, 1.2)      # equations per variable
PARITY_COPIES = 2
PARITY_FIXED_SEED = 0
PARITY_FIXED_SHAPE = (24, 19)
PARITY_FIXED_COUNT = 8

_PARITY_GRAPH = EdgeLabeledGraph(2, {(0, 1): PairLabel(AFFINE)})
_PARITY_ALG = canonical_algebra(_PARITY_GRAPH)
_XOR = {c: relation([t for t in itertools.product((0, 1), repeat=3)
                     if t[0] ^ t[1] ^ t[2] == c]) for c in (0, 1)}


def _parity_instance(n: int, equations) -> Instance:
    names = [f"x{i}" for i in range(n)]
    cons = [((names[i], names[j], names[k]), _XOR[c])
            for i, j, k, c in equations]
    return Instance(names, {v: (0, 1) for v in names}, cons, _PARITY_ALG)


def _check_parity(n: int, equations, out) -> Optional[str]:
    result = out[0]
    truth = oracles.gf2_solve(n, equations) is not None
    if result.is_sat != truth:
        return f"wrong verdict: {result.status}, GF(2) elimination says " \
               f"{'sat' if truth else 'unsat'}"
    if result.is_sat:
        bits = [result.assignment[f"x{i}"] for i in range(n)]
        if not oracles.parity_equations_hold(equations, bits):
            return "bad assignment: an equation is violated"
    return None


def _parity_case(name: str, n: int, equations,
                 known_fault: Optional[str] = None) -> Case:
    inst = _parity_instance(n, equations)
    return Case(name,
                functools.partial(solve, inst, _PARITY_ALG, _PARITY_GRAPH),
                functools.partial(_check_parity, n, equations),
                repr((n, equations)), known_fault)


def _unsat_system(n: int, m: int, rng: random.Random):
    """Equations on distinct variable triples, redrawn until GF(2)
    elimination finds them inconsistent.

    Two equations on one triple could contradict each other outright,
    which 3-minimality settles before the Maltsev solver runs.
    """
    while True:
        triples = set()
        while len(triples) < m:
            triples.add(frozenset(rng.sample(range(n), 3)))
        eqs = [tuple(sorted(t)) + (rng.randint(0, 1),)
               for t in sorted(triples, key=sorted)]
        rng.shuffle(eqs)
        if oracles.gf2_solve(n, eqs) is None:
            return eqs


def _planted_system(n: int, m: int, rng: random.Random):
    bits = [rng.randint(0, 1) for _ in range(n)]
    eqs = []
    for _ in range(m):
        i, j, k = rng.sample(range(n), 3)
        eqs.append((i, j, k, bits[i] ^ bits[j] ^ bits[k]))
    return eqs


def parity_cases(seed: int) -> list[Case]:
    cases = []
    for n in PARITY_VARIABLES:
        for density in PARITY_DENSITIES:
            m = round(n * density)
            for k in range(PARITY_COPIES):
                eqs = _unsat_system(n, m, _rng(seed, "parity", n, m, k))
                cases.append(_parity_case(f"parity/unsat/{n}x{m}/{k}", n, eqs))
    n, m = PARITY_FIXED_SHAPE
    for k in range(PARITY_FIXED_COUNT):
        eqs = _planted_system(n, m, _rng(PARITY_FIXED_SEED, "parity-fixed", k))
        cases.append(_parity_case(f"parity/fixed-sat/{n}x{m}/{k}", n, eqs,
                                  known_fault="wrong verdict: unsat"))
    return cases


WORKLOADS = {
    "classify": classify_cases,
    "planted": planted_cases,
    "parity": parity_cases,
}
