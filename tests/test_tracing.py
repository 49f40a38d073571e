"""The benchmark's per-layer tracer still finds every entry point it wraps.

`perfbench/tracing.py` patches ccsp's module globals by name and reads
counts off their return values; a rename or a changed return shape would
otherwise only show when the benchmark runs with tracing on.
"""

import importlib.util
import itertools
from pathlib import Path

from ccsp import maltsev
from ccsp.classify import (AFFINE, ConstraintLanguage, EdgeLabeledGraph,
                           PairLabel, classify_language)
from ccsp.harness import (GeneratorConfig, Rng, canonical_algebra,
                          gen_algebra, gen_planted_instance)
from ccsp.maltsev import restrict
from ccsp.model import Instance, relation
from ccsp.solver import solve
from test_solver import singleton_strand_instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patched_targets(tracing):
    return [getattr(*tracing._resolve(module, attr))
            for module, attr, _layer, _observe in tracing.PATCHES]


def test_tracer_wraps_every_target_and_restores_it():
    tracing = load_tracing()
    originals = patched_targets(tracing)
    cfg = GeneratorConfig(seed=0, domain_size=3, variable_count=6,
                          constraint_count=6, max_arity=3,
                          label_weights=(0, 1, 0))
    alg, graph = gen_algebra(cfg)
    inst = gen_planted_instance(alg, graph, cfg)
    lang = ConstraintLanguage(2, (relation([(0, 0), (0, 1), (1, 1)]),))
    with tracing.installed(tracing.Tracer()) as tracer:
        wrapped = patched_targets(tracing)
        res, trace = solve(inst, alg, graph)
        verdict = classify_language(lang)
    assert all(w.__wrapped__ is o for w, o in zip(wrapped, originals))
    assert res.is_sat and trace.branch_counts == {"sfree": 1}
    assert verdict.tractable
    assert tracer.counts["minimality.pair_tables"] > 0
    assert tracer.counts["classify.pairs"] > 0
    layers = {span[0] for span in tracer.spans}
    assert {"minimality", "solver.base", "classify.label",
            "classify.synthesis", "indicator.search"} <= layers
    assert all(a is b for a, b in zip(patched_targets(tracing), originals))


def test_tracer_counts_maltsev_restricts(monkeypatch):
    """The fourth equation closes a cycle: it reaches no new variable and
    cuts the representation, so it takes a `restrict`."""
    graph = EdgeLabeledGraph(2, {(0, 1): PairLabel(AFFINE)})
    alg = canonical_algebra(graph)
    xor = {c: relation([t for t in itertools.product((0, 1), repeat=3)
                        if sum(t) % 2 == c]) for c in (0, 1)}
    names = [f"x{i}" for i in range(6)]
    equations = [(0, 1, 2, 1), (2, 3, 4, 0), (4, 5, 0, 1), (1, 3, 5, 0)]
    inst = Instance(names, {v: {0, 1} for v in names},
                    [((names[i], names[j], names[k]), xor[c])
                     for i, j, k, c in equations], alg)
    restricts = []

    def spy(*args):
        restricts.append(args)
        return restrict(*args)

    monkeypatch.setattr(maltsev, "restrict", spy)
    tracing = load_tracing()
    with tracing.installed(tracing.Tracer()) as tracer:
        res, _trace = solve(inst, alg, graph)
    assert res.is_sat
    assert tracer.counts["maltsev.restricts"] == len(restricts) >= 1
    assert tracer.counts["maltsev.rows"] > 0
    assert "maltsev" in {span[0] for span in tracer.spans}


def test_trace_shows_parity_nodes_skip_the_fixpoint():
    """A 3-XOR system over the affine pair {0,1} records Maltsev spans and
    no 3-minimality span: its node goes to the Maltsev solver directly."""
    graph = EdgeLabeledGraph(2, {(0, 1): PairLabel(AFFINE)})
    alg = canonical_algebra(graph)
    xor = {c: relation([t for t in itertools.product((0, 1), repeat=3)
                        if sum(t) % 2 == c]) for c in (0, 1)}
    rng = Rng(0).split("traced-parity")
    names = [f"x{i}" for i in range(24)]
    inst = Instance(names, {v: {0, 1} for v in names},
                    [(tuple(rng.sample(names, 3)), xor[rng.randint(0, 1)])
                     for _ in range(20)], alg)
    tracing = load_tracing()
    with tracing.installed(tracing.Tracer()) as tracer:
        _res, trace = solve(inst, alg, graph)
    layers = [span[0] for span in tracer.spans]
    assert trace.branch_counts == {"sfree": 1}
    assert "maltsev" in layers and "solver.base" in layers
    assert "minimality" not in layers
    assert tracer.counts["minimality.pair_tables"] == 0
    assert tracer.self_times()["minimality"] == 0.0


def test_trace_shows_singleton_strands_skip_the_base_solver():
    """Of the four strands of an exclusion node, only the one with a
    choice left records a base-solver and a Maltsev span; the singleton
    strands are decided in place."""
    inst, alg, graph = singleton_strand_instance(False)
    tracing = load_tracing()
    with tracing.installed(tracing.Tracer()) as tracer:
        res, trace = solve(inst, alg, graph)
    assert res.is_sat
    assert trace.branch_counts == {"exclusion": 1, "sfree": 1}
    assert tracer.outermost("solver.base") == 1
    assert tracer.outermost("maltsev") == 1
    assert tracer.outermost("reductions.exclusion") >= 1
