import copy
import functools
import itertools
import json
import operator
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from ccsp import cli, solver
from ccsp.classify import (AFFINE, EdgeLabeledGraph, PairLabel,
                           canonical_algebra, check_uniformity_laws)
from ccsp.cli import main
from ccsp.errors import OracleBudgetError
from ccsp.harness import (GeneratorConfig, Rng, brute_force_solve,
                          canonical_a3, gen_algebra, gen_instance,
                          gen_planted_instance)
from ccsp.jsonio import (algebra_to_obj, instance_from_obj, instance_to_obj,
                         load_algebra, result_to_obj, var_str)
from ccsp.laws import run_law_suite
from ccsp.model import Algebra, Instance, relation, validate_instance
from ccsp.solver import PipelineResult, solve
from enumeration import brute_force_solutions


def test_rng_split_determinism():
    a = Rng(42).split("x", 1)
    b = Rng(42).split("x", 1)
    c = Rng(42).split("x", 2)
    assert a.random() == b.random()
    assert a.seed_value != c.seed_value


def test_brute_force_examples():
    inst = Instance(["a", "b"], {"a": {0, 1}, "b": {0, 1}}, [])
    assert brute_force_solve(inst).is_sat
    neq = relation([(0, 1), (1, 0)])
    tri = Instance(["x", "y", "z"], {v: {0, 1} for v in "xyz"},
                   [(("x", "y"), neq), (("y", "z"), neq), (("x", "z"), neq)])
    assert not brute_force_solve(tri).is_sat
    sol = brute_force_solve(Instance(["x", "y"], {"x": {0, 1}, "y": {0, 1}},
                                     [(("x", "y"), neq)]))
    assert sol.is_sat and sol.assignment["x"] != sol.assignment["y"]


def test_brute_force_budget(monkeypatch):
    monkeypatch.setenv("CCSP_BUDGET", "1000")
    inst = Instance([f"v{i}" for i in range(30)],
                    {f"v{i}": {0, 1, 2, 3} for i in range(30)}, [])
    with pytest.raises(OracleBudgetError):
        brute_force_solve(inst)
    with pytest.raises(OracleBudgetError):
        brute_force_solutions(inst)


def test_canonical_a3_tables_match_expected():
    alg, graph = canonical_a3()
    assert alg.f == ((0, 1, 0), (1, 1, 1), (2, 2, 2))
    assert alg.p == ((0, 1, 2), (1, 1, 1), (0, 2, 2))
    assert alg.g[0][2][0] == 0 and alg.g[0][2][2] == 2     # majority on {0,2}
    assert alg.g[1][2][2] == 1                              # first proj on {1,2}
    assert alg.h[1][2][2] == 1 and alg.h[1][1][2] == 2      # affine on {1,2}
    assert alg.h[0][2][2] == 0                              # first proj on {0,2}
    assert alg.g[0][1][2] == 0 and alg.h[2][0][1] == 2      # first argument
    assert check_uniformity_laws(alg, graph) == []


def test_gen_algebra_reproducible_and_lawful():
    cfg = GeneratorConfig(seed=7, domain_size=4)
    a1, g1 = gen_algebra(cfg)
    a2, g2 = gen_algebra(cfg)
    assert a1 == a2 and g1 == g2
    for seed in range(30):
        alg, graph = gen_algebra(GeneratorConfig(seed=seed,
                                                 domain_size=2 + seed % 4))
        assert check_uniformity_laws(alg, graph) == []


def test_gen_instance_reproducible_valid_and_sized():
    cfg = GeneratorConfig(seed=3, domain_size=3, variable_count=6,
                          constraint_count=7, max_arity=3)
    alg, graph = gen_algebra(cfg)
    i1 = gen_instance(alg, graph, cfg)
    i2 = gen_instance(alg, graph, cfg)
    assert instance_to_obj(i1) == instance_to_obj(i2)
    assert len(i1.variables) == 6
    assert len(i1.constraints) == 7
    assert all(len(c.scope) <= 3 for c in i1.constraints)
    assert validate_instance(i1) == []


def test_gen_planted_instance_is_sat():
    for seed in range(10):
        cfg = GeneratorConfig(seed=seed, domain_size=3, variable_count=6,
                              constraint_count=6, max_arity=3)
        alg, graph = gen_algebra(cfg)
        inst = gen_planted_instance(alg, graph, cfg)
        assert brute_force_solve(inst).is_sat


def test_law_suite_canonical_a3_zero_failures():
    cfg = GeneratorConfig(seed=5, domain_size=3, max_arity=3, samples=120)
    report = run_law_suite(cfg, algebra_graph=canonical_a3())
    assert report.ok, report.failures


def _law_counts(passed, hyp):
    return {"pass": passed, "fail": 0, "hypothesis-not-met": hyp}


@pytest.mark.parametrize("seed,samples,expected", [
    (0, 200, {"connectivity": (200, 0), "crt": (200, 0),
              "linked-rectangularity": (194, 6), "max-extension": (200, 0),
              "path-extension": (66, 134), "rectangularity": (200, 0),
              "collection-extension": (200, 0)}),
    (4, 1000, {"connectivity": (1000, 0), "crt": (1000, 0),
               "linked-rectangularity": (958, 42),
               "max-extension": (1000, 0), "path-extension": (330, 670),
               "rectangularity": (1000, 0),
               "collection-extension": (1000, 0)}),
])
def test_law_suite_counts_pinned(seed, samples, expected):
    cfg = GeneratorConfig(seed=seed, domain_size=4, max_arity=4,
                          samples=samples)
    laws = run_law_suite(cfg).as_dict()["laws"]
    assert laws == {law: _law_counts(*c) for law, c in expected.items()}


def test_law_suite_empty_config():
    report = run_law_suite(GeneratorConfig(seed=0, samples=0))
    assert report.samples == 0 and report.ok


def test_law_suite_detects_planted_corruption():
    alg, graph = canonical_a3()
    f = [list(r) for r in alg.f]
    f[0][1] = 0  # break the join on the semilattice pair
    bad = Algebra(3, tuple(tuple(r) for r in f), alg.p, alg.g, alg.h)
    assert check_uniformity_laws(bad, graph) != []
    report = run_law_suite(GeneratorConfig(seed=5, domain_size=3, max_arity=3,
                                           samples=60),
                           algebra_graph=(bad, graph))
    assert not report.ok


def test_solver_trace_deterministic():
    cfg = GeneratorConfig(seed=12, domain_size=3, variable_count=6,
                          constraint_count=6, max_arity=3)
    alg, graph = gen_algebra(cfg)
    inst = gen_instance(alg, graph, cfg)
    r1, t1 = solve(inst, alg, graph)
    r2, t2 = solve(inst, alg, graph)
    assert r1 == r2
    assert t1.as_dict() == t2.as_dict()


# -- serialization -------------------------------------------------------------

def test_algebra_roundtrip():
    alg, graph = canonical_a3()
    obj = algebra_to_obj(alg, graph)
    verdict = load_algebra(obj)
    assert verdict.algebra == alg and verdict.graph == graph


def test_algebra_from_relations_only():
    xor = [list(t) for t in itertools.product((0, 1), repeat=3)
           if sum(t) % 2 == 0]
    verdict = load_algebra({"universe": [0, 1], "relations": [xor]})
    assert verdict.algebra.h[0][0][1] == 1


def test_instance_roundtrip(tmp_path):
    cfg = GeneratorConfig(seed=4, domain_size=3, variable_count=5,
                          constraint_count=5)
    alg, graph = gen_algebra(cfg)
    inst = gen_instance(alg, graph, cfg)
    obj = instance_to_obj(inst, algebra=algebra_to_obj(alg, graph))
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    loaded = instance_from_obj(path)
    assert instance_to_obj(loaded) == instance_to_obj(inst)
    assert loaded.algebra is None
    verdict = load_algebra(json.loads(path.read_text())["algebra"])
    assert verdict.algebra == alg and verdict.graph == graph


def test_result_roundtrip():
    res = PipelineResult("sat", {"x": 1, ("v", 0): 2}, trace={"nodes": 3})
    obj = result_to_obj(res)
    assert obj["status"] == "sat"
    assert obj["assignment"] == {"x": 1, "v@0": 2}
    assert obj["trace"] == {"nodes": 3}
    assert var_str(("a", 1)) == "a@1"


# -- CLI -------------------------------------------------------------------------

def test_cli_gen_solve_oracle_roundtrip(tmp_path):
    inst_path = tmp_path / "inst.json"
    rc = main(["gen", "instance", "--seed", "9", "--variables", "5",
               "--constraints", "5", "-o", str(inst_path)])
    assert rc == 0
    rc_solve = main(["solve", str(inst_path), "--json"])
    rc_oracle = main(["oracle", str(inst_path)])
    assert rc_solve == rc_oracle
    assert rc_solve in (0, 1)


def test_cli_solve_agrees_with_oracle_across_seeds(tmp_path, capsys):
    for seed in (1, 2, 3, 4, 5):
        inst_path = tmp_path / f"i{seed}.json"
        main(["gen", "instance", "--seed", str(seed), "-o", str(inst_path)])
        assert main(["solve", str(inst_path)]) == main(["oracle", str(inst_path)])
    capsys.readouterr()


def test_cli_classify_exit_codes(tmp_path):
    hard = tmp_path / "hard.json"
    hard.write_text(json.dumps(
        {"universe": [0, 1],
         "relations": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}))
    assert main(["classify", str(hard)]) == 3
    easy = tmp_path / "easy.json"
    easy.write_text(json.dumps(
        {"universe": [0, 1], "relations": [[[0, 0], [0, 1], [1, 1]]]}))
    assert main(["classify", str(easy)]) == 0


def test_cli_invalid_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["classify", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    one = {"variables": ["x"], "domains": {"x": [0, 1]}}
    wrong_types = [
        ("oracle", "'variables'", {"variables": 3, "domains": {}}),
        ("oracle", "'variables'", {"variables": [["x"]], "domains": {}}),
        ("oracle", "domain of 'x'", {"variables": ["x"], "domains": {"x": 5},
                                     "constraints": []}),
        ("oracle", "domain of 'x'", {"variables": ["x"],
                                     "domains": {"x": ["a", 1]}}),
        ("oracle", "'tuples'", {**one, "constraints": [{"scope": ["x"],
                                                        "tuples": [3]}]}),
        ("oracle", "domain of 'x'", {"variables": ["x"],
                                     "domains": {"x": [True, 0]}}),
        ("oracle", "a tuple", {**one, "constraints": [{"scope": ["x"],
                                                       "tuples": [[False]]}]}),
        ("oracle", "'variables'", {"variables": ["x", "x"],
                                   "domains": {"x": [0, 1]}}),
        ("classify", "'universe'", {"universe": 3}),
        ("classify", "a tuple", {"universe": [0, 1], "relations": [[3]]}),
    ]
    ragged = {"universe": [0, 1], "relations": [[[0, 1], [1]]]}
    empty = {"universe": [], "relations": []}
    for language, field in ((ragged, "arity"), (empty, "'universe'")):
        wrong_types += [("classify", field, language),
                        ("solve", field, {**one, "algebra": language})]
    alg = algebra_to_obj(*_affine_pair_algebra())
    pair = {"pair": [0, 1], "label": "affine"}
    for field, damage in [
            ("'universe'", {"universe": [], "labels": [],
                            **dict.fromkeys("fpgh", [])}),
            ("'f'", {"f": [[0, True], [1, 1]]}),
            ("'pair'", {"labels": [{**pair, "pair": [False, True]}]}),
            ("'f'", {"f": 3}),
            ("'f'", {"f": [[0]]}),
            ("'f'", {"f": [[0, 7], [1, 1]]}),
            ("'f'", {"f": [[0, -1], [1, 1]]}),
            ("'p'", {"p": [[0, "a"], [1, 1]]}),
            ("'g'", {"g": [[0, 1], [1, 0]]}),
            ("'h'", {"h": [[[0, 0], [0, 1]], [[0, 1], [1, 1], [1, 1]]]}),
            ("'labels'", {"labels": 3}),
            ("'labels'", {"labels": [pair, {**pair, "pair": [1, 0]}]}),
            ("'labels'", {"labels": [{**pair, "pair": [1, 0]}, pair]}),
            ("'pair'", {"labels": [{**pair, "pair": 3}]}),
            ("'pair'", {"labels": [{**pair, "pair": [0, 1, 1]}]}),
            ("'direction'", {"labels": [{**pair, "label": "semilattice",
                                          "direction": [0, 5]}]})]:
        wrong_types.append(("solve", field, {**one,
                                             "algebra": {**alg, **damage}}))
    for command, field, obj in wrong_types:
        bad.write_text(json.dumps(obj))
        assert main([command, str(bad)]) == 2
        assert field in capsys.readouterr().err


EMPTY = '{"variables": [], "domains": {}'


@pytest.mark.parametrize("command, content, flags, message", [
    ("solve", None, [], "Is a directory"),
    ("oracle", None, [], "Is a directory"),
    ("solve", EMPTY + "}", ["--algebra", "."], "Is a directory"),
    ("solve", EMPTY + ', "algebra": ""}', [], "Is a directory"),
    ("oracle", '{"variables": ["\xff"]}', [], "can't decode"),  # byte 0xff
    ("oracle", "[" * 100_000 + "]" * 100_000, [], "recursion"),
], ids=["instance-dir", "oracle-instance-dir", "algebra-flag-dir",
        "algebra-key-dir", "not-utf8", "deep-nesting"])
def test_cli_unreadable_input_exits_invalid(tmp_path, capsys, monkeypatch,
                                            command, content, flags, message):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "inst.json"
    if content is None:
        path.mkdir()
    else:
        path.write_text(content, encoding="latin-1")
    assert main([command, str(path), *flags]) == cli.EXIT_INVALID == 2
    assert message in capsys.readouterr().err


def test_cli_oracle_and_solve_reject_an_empty_domain(tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"variables": ["x"], "domains": {"x": []},
                                "algebra": algebra_to_obj(*canonical_a3())}))
    for command in ("oracle", "solve"):
        assert main([command, str(path)]) == cli.EXIT_INVALID == 2
        assert "domain of 'x' is empty" in capsys.readouterr().err


def test_cli_oracle_beyond_recursion_limit(tmp_path, capsys):
    names = [f"v{i}" for i in range(1200)]
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"variables": names,
                                "domains": {v: [0] for v in names},
                                "constraints": []}))
    assert main(["oracle", str(path)]) == cli.EXIT_OK == 0
    assert capsys.readouterr().out.startswith("sat\n")


@pytest.mark.parametrize("argv, message", [
    (["gen", "algebra", "-o", "."], "cannot write"),
    (["gen", "instance", "--weights", "a,b,c"], "three comma-separated"),
    (["gen", "instance", "--planted", "--variables", "1"], "planted"),
    (["gen", "instance", "--planted", "--max-arity", "1"], "planted"),
    (["gen", "algebra", "--weights", "nan,1,1"], "finite sum"),
    (["gen", "instance", "--weights", "1,inf,1"], "finite sum"),
    (["gen", "instance", "--weights", "1,1,1e999"], "finite sum"),
    (["gen", "algebra", "--weights", "1e308,1e308,0"], "finite sum"),
], ids=["gen-output-dir", "gen-weights", "planted-variables",
        "planted-max-arity", "gen-weights-nan", "gen-weights-inf",
        "gen-weights-overflow", "gen-weights-sum-overflow"])
def test_cli_bad_arguments_exit_invalid(tmp_path, capsys, monkeypatch, argv,
                                        message):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == cli.EXIT_INVALID == 2
    assert message in capsys.readouterr().err


def _affine_pair_algebra():
    graph = EdgeLabeledGraph(2, {(0, 1): PairLabel(AFFINE)})
    return canonical_algebra(graph), graph


def test_cli_solve_rejects_constraint_the_algebra_does_not_preserve(
        tmp_path, capsys):
    # 1-in-3 constraints under the affine pair's minority h: the Maltsev
    # solver used to answer unsat on this satisfiable instance (exit 1)
    rng = random.Random(278)
    names = [f"x{i}" for i in range(rng.randint(5, 9))]
    one_in_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    constraints = [{"scope": rng.sample(names, 3), "tuples": one_in_3}
                   for _ in range(rng.randint(2, len(names)))]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"variables": names,
                                "domains": {v: [0, 1] for v in names},
                                "constraints": constraints}))
    alg = tmp_path / "alg.json"
    alg.write_text(json.dumps(algebra_to_obj(*_affine_pair_algebra())))
    assert main(["solve", str(inst), "--algebra", str(alg)]) == 2
    assert "constraint 0 not closed under h" in capsys.readouterr().err
    assert main(["oracle", str(inst)]) == 0
    assert capsys.readouterr().out.startswith("sat")


def _wide_instance_file(tmp_path, tuples) -> str:
    """One constraint on all variables, each over {0,1,2}, with the canonical
    three-element algebra embedded."""
    alg, graph = canonical_a3()
    names = [f"x{i}" for i in range(len(tuples[0]))]
    inst = Instance(names, {v: {0, 1, 2} for v in names},
                    [(tuple(names), relation(tuples))])
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(instance_to_obj(
        inst, algebra=algebra_to_obj(alg, graph))))
    return str(path)


@pytest.mark.parametrize("n", [40, 41])
def test_cli_solve_accepts_a_closed_constraint_past_64_bit_codes(
        tmp_path, capsys, n):
    """A tuple code has one digit per position for the rank of its value
    among the values the tuples take there, three here: 3**41 overflows 64
    bits, so at 41 variables the closure check goes table by table instead
    of through `close_under_ops`."""
    path = _wide_instance_file(tmp_path, [(0,) * n, (1,) * n, (2,) * n])
    assert main(["solve", path]) == 0
    assert capsys.readouterr().out.startswith("sat")


def test_cli_solve_rejects_a_wide_constraint_that_is_not_closed(tmp_path,
                                                                capsys):
    path = _wide_instance_file(tmp_path, [(0, 1) + (0,) * 39,
                                          (1, 0) + (0,) * 39])
    assert main(["solve", path]) == cli.EXIT_INVALID == 2
    assert "constraint 0 not closed under f" in capsys.readouterr().err


def test_cli_solve_rejects_algebra_breaking_the_pair_laws(tmp_path, capsys):
    alg, graph = _affine_pair_algebra()
    obj = algebra_to_obj(alg, graph)
    obj["labels"] = [{"pair": [0, 1], "label": "majority"}]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({"algebra": obj, "variables": ["x"],
                                "domains": {"x": [0, 1]}}))
    assert main(["solve", str(inst)]) == 2
    assert "on majority pair (0,1)" in capsys.readouterr().err


def test_cli_solve_with_algebra_flag(tmp_path):
    alg_path = tmp_path / "alg.json"
    main(["gen", "algebra", "--seed", "2", "-o", str(alg_path)])
    cfg = GeneratorConfig(seed=2, domain_size=3)
    alg, graph = gen_algebra(cfg)
    inst = gen_instance(alg, graph, cfg)
    inst_path = tmp_path / "inst.json"
    inst_path.write_text(json.dumps(instance_to_obj(inst)))
    rc = main(["solve", str(inst_path), "--algebra", str(alg_path)])
    want = brute_force_solve(inst)
    assert rc == (0 if want.is_sat else 1)


def test_cli_solve_refuses_np_complete_language(tmp_path):
    lang = tmp_path / "lang.json"
    lang.write_text(json.dumps(
        {"universe": [0, 1],
         "relations": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}))
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "algebra": "lang.json",
        "variables": ["x", "y", "z"],
        "domains": {"x": [0, 1], "y": [0, 1], "z": [0, 1]},
        "constraints": [{"scope": ["x", "y", "z"],
                         "tuples": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}]}))
    assert main(["solve", str(inst)]) == 3
    assert main(["solve", str(inst), "--force-oracle"]) == 0


def _embedded_one_in_3_instance(tmp_path):
    """An instance file whose embedded language holds 1-in-3 (NP-complete)."""
    one_in_3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    inst = tmp_path / "inst.json"
    inst.write_text(json.dumps({
        "algebra": {"universe": [0, 1], "relations": [one_in_3]},
        "variables": ["x", "y", "z", "w"],
        "domains": {v: [0, 1] for v in "xyzw"},
        "constraints": [{"scope": ["x", "y", "z"], "tuples": one_in_3},
                        {"scope": ["y", "z", "w"], "tuples": one_in_3}]}))
    return inst


def test_cli_solve_refuses_embedded_np_complete_language(tmp_path, capsys):
    inst = _embedded_one_in_3_instance(tmp_path)
    assert main(["solve", str(inst), "--json"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out == {"status": "np-complete", "witness_pair": [0, 1]}
    assert main(["solve", str(inst), "--force-oracle", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)  # y = 1, the rest 0
    assert out["status"] == "sat" and out["oracle_used"]


def test_cli_oracle_ignores_embedded_algebra(tmp_path, capsys):
    inst = _embedded_one_in_3_instance(tmp_path)
    assert main(["oracle", str(inst), "--json"]) == 0
    oracle = json.loads(capsys.readouterr().out)
    assert main(["solve", str(inst), "--force-oracle", "--json"]) == 0
    forced = json.loads(capsys.readouterr().out)
    assert oracle["status"] == "sat" and oracle["oracle_used"]
    assert oracle["assignment"] == forced["assignment"]


@pytest.mark.parametrize("key, damage", [
    ("'variables'", lambda obj: obj.pop("variables")),
    ("'domains'", lambda obj: obj.pop("domains")),
    ("'y'", lambda obj: obj["domains"].pop("y")),
    ("'scope'", lambda obj: obj["constraints"][0].pop("scope")),
    ("'tuples'", lambda obj: obj["constraints"][1].pop("tuples")),
    ("'pair'", lambda obj: obj["algebra"]["labels"][0].pop("pair")),
    ("'label'", lambda obj: obj["algebra"]["labels"][0].pop("label")),
])
def test_cli_missing_key_exits_invalid(tmp_path, capsys, key, damage):
    alg, graph = canonical_a3()
    obj = instance_to_obj(Instance(
        ["x", "y"], {"x": {0, 1}, "y": {0, 1}},
        [(("x", "y"), relation([(0, 1), (1, 0)])),
         (("y",), relation([(0,), (1,)]))]), algebra=algebra_to_obj(alg, graph))
    damage(obj)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert main(["solve", str(path)]) == cli.EXIT_INVALID == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "oracle", "classify"])
@pytest.mark.parametrize("text", ["[1, 2]", '"x"', "3"])
def test_cli_non_object_json_exits_invalid(tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_text(text)
    assert main([command, str(path)]) == cli.EXIT_INVALID == 2
    assert "expected a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("damage", [
    lambda obj: obj.update(domains=[[0, 1], [0, 1]]),
    lambda obj: obj["constraints"].append(3),
])
def test_cli_non_object_entry_exits_invalid(tmp_path, capsys, damage):
    obj = instance_to_obj(Instance(["x", "y"], {"x": {0, 1}, "y": {0, 1}},
                                   [(("x", "y"), relation([(0, 1)]))]))
    damage(obj)
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", str(path)]) == cli.EXIT_INVALID == 2
    assert "must be a JSON object" in capsys.readouterr().err


def _fuzz_base() -> dict:
    """A valid instance file: two constraints (arity 2 and 3) on three
    variables, with the canonical three-element algebra embedded."""
    alg, graph = canonical_a3()
    cfg = GeneratorConfig(seed=0, domain_size=3, variable_count=3,
                          constraint_count=2, max_arity=3)
    inst = gen_planted_instance(alg, graph, cfg)
    return instance_to_obj(inst, algebra=algebra_to_obj(alg, graph))


def _paths(node, path=()):
    """The path of every node below `node`, as tuples of keys and indices."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


FUZZ_BASE = _fuzz_base()
FUZZ_VALUES = [None, False, True, 0, 1, 7, -1, 0.5, "", "x0", [], [0], [[0]],
               {}, {"x0": 0}]


def _mutate(obj: dict, path: tuple, mutation: tuple) -> dict:
    """A copy of obj with the node at `path` replaced by a value, deleted,
    or duplicated: a list item twice in a row, a key's value also under its
    next sibling key."""
    obj = copy.deepcopy(obj)
    *up, last = path
    parent = functools.reduce(operator.getitem, up, obj)
    kind, value = mutation
    if kind == "replace":
        parent[last] = value
    elif kind == "delete":
        del parent[last]
    elif isinstance(parent, list):
        parent.insert(last, copy.deepcopy(parent[last]))
    else:
        keys = list(parent)
        sibling = keys[(keys.index(last) + 1) % len(keys)]
        parent[sibling] = copy.deepcopy(parent[last])
    return obj


def _present(node, path: tuple) -> bool:
    """True if the node at `path` is there: an earlier mutation may have
    deleted it or replaced one of its ancestors."""
    for key in path:
        if not (isinstance(node, dict) and key in node or
                isinstance(node, list) and isinstance(key, int)
                and key < len(node)):
            return False
        node = node[key]
    return True


FUZZ_MUTATIONS = st.tuples(
    st.sampled_from(list(_paths(FUZZ_BASE))),
    st.one_of(st.tuples(st.just("replace"), st.sampled_from(FUZZ_VALUES)),
              st.tuples(st.sampled_from(["delete", "duplicate"]), st.none())))


@settings(max_examples=200, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(mutations=st.lists(FUZZ_MUTATIONS, min_size=1, max_size=3))
@example(mutations=[(("algebra",), ("replace", ""))])  # a directory
@example(mutations=[(("algebra", "f", 0, 1), ("replace", 7))])  # not in 0..2
@example(mutations=[(("algebra", "labels", 0), ("duplicate", None))])
def test_cli_mutated_instance_exits_with_a_documented_code(tmp_path,
                                                           mutations):
    """One to three nodes of a valid instance file replaced (by a value of
    any JSON type, so also by an integer outside the universe), deleted or
    duplicated, in turn; a mutation whose node an earlier one removed is
    skipped.  `solve` and `oracle` still exit 0, 1, 2 or 3, never 4."""
    obj = FUZZ_BASE
    for path, mutation in mutations:
        if _present(obj, path):
            obj = _mutate(obj, path, mutation)
    file = tmp_path / "inst.json"
    file.write_text(json.dumps(obj))
    for command in ("solve", "oracle"):
        assert main([command, str(file)]) in (0, 1, 2, 3)


# The CLI argument fuzz.  No run asks for more than 6 variables (the gen
# default): the largest count drawn is 2.  `bench` is left out, as each
# run would start a benchmark; its own tests are below.
ARG_NUMBERS = ["0", "1", "-1", "2", "nan", "inf", "", "x"]
ARG_WEIGHTS = ["1,1,1", "0,1,0", "1,1", "1,1,1,1", "nan,1,1", "1,inf,1",
               "1,1,1e999", "-1,1,1", "0,0,0", "a,b,c", "1,,1", ""]
ARG_FILES = ["inst.json", "lang.json", "hard.json", "empty.json",
             "missing.json", "."]
ARG_FLAG = [True]
# Per subcommand, each argument with its pool: positionals (in <>) and the
# options in ARG_ALWAYS run with their pool's first value unless chosen,
# other options are left out.  --samples is always passed, so that its
# default (200 law samples) never runs.
ARG_COMMANDS = {
    "classify": {"<language>": ["lang.json", "hard.json", "inst.json",
                                "empty.json", "missing.json", "."],
                 "--json": ARG_FLAG},
    "solve": {"<instance>": ARG_FILES, "--algebra": ARG_FILES,
              "--json": ARG_FLAG, "--force-oracle": ARG_FLAG},
    "oracle": {"<instance>": ARG_FILES, "--json": ARG_FLAG},
    "laws": {"--samples": ARG_NUMBERS, "--seed": ARG_NUMBERS,
             "--domain-size": ARG_NUMBERS, "--max-arity": ARG_NUMBERS,
             "--json": ARG_FLAG},
    "gen": {"<kind>": ["algebra", "instance", "x"], "--seed": ARG_NUMBERS,
            "--domain-size": ARG_NUMBERS, "--variables": ARG_NUMBERS,
            "--constraints": ARG_NUMBERS, "--max-arity": ARG_NUMBERS,
            "--weights": ARG_WEIGHTS, "--planted": ARG_FLAG,
            "-o": ["out.json", "", ".", "no/out.json"]},
}
ARG_ALWAYS = {"--samples"}


def _fuzz_argv(command: str, chosen: dict) -> list[str]:
    argv = [command]
    for name, pool in ARG_COMMANDS[command].items():
        if name in chosen or name.startswith("<") or name in ARG_ALWAYS:
            value = chosen.get(name, pool[0])
            argv += ([value] if name.startswith("<") else
                     [name] if value is True else [name, value])
    return argv


@pytest.mark.parametrize("command", sorted(ARG_COMMANDS))
def test_cli_fuzzed_arguments_exit_with_a_documented_code(
        tmp_path, monkeypatch, capsys, command):
    """Each argument of the subcommand set alone to every value of its pool
    (numbers, non-numbers, empty strings, malformed sizes and weights,
    unreadable files), then 150 seeded draws of three arguments at once:
    each run exits 0, 1, 2 or 3 (argparse's own refusals exit 2), never 4."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "inst.json").write_text(json.dumps(FUZZ_BASE))
    (tmp_path / "lang.json").write_text(json.dumps(
        {"universe": [0, 1], "relations": [[[0, 0], [0, 1], [1, 1]]]}))
    (tmp_path / "hard.json").write_text(json.dumps(  # 1-in-3: NP-complete
        {"universe": [0, 1], "relations": [[[1, 0, 0], [0, 1, 0], [0, 0, 1]]]}))
    (tmp_path / "empty.json").write_text("")
    arguments = ARG_COMMANDS[command]
    rng = random.Random(f"cli-arguments/{command}")
    runs = [{name: value} for name, pool in arguments.items() for value in pool]
    runs += [{name: rng.choice(arguments[name])
              for name in rng.sample(sorted(arguments), min(3, len(arguments)))}
             for _ in range(150)]
    for chosen in runs:
        argv = _fuzz_argv(command, chosen)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refused the arguments
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2, 3) and "internal" not in err, (argv, err)


@pytest.mark.parametrize("child, code", [(0, 0), (2, 2), (3, 4), (1, 4),
                                         (-9, 4)])
def test_cli_bench_runs_the_benchmark_with_its_arguments(monkeypatch, child,
                                                         code):
    """`ccsp bench ARGS` runs this checkout's perfbench/run.py with ARGS,
    `-h` included, under the same Python; the runner's exits 0 and 2 pass
    through, any other is reported as 4."""
    calls = []

    def spy(argv, **kwargs):
        calls.append((argv, kwargs))
        return subprocess.CompletedProcess(argv, child)
    monkeypatch.setattr(subprocess, "run", spy)
    args = ["--workload", "planted", "--seed", "3", "--seconds", "1", "-h"]
    assert main(["bench", *args]) == code
    script = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
    assert calls == [([sys.executable, script, *args], {})]


def test_cli_bench_without_the_benchmark_exits_invalid(tmp_path, monkeypatch,
                                                       capfd):
    """Outside a source checkout there is no perfbench/run.py to run."""
    script = tmp_path / "perfbench" / "run.py"
    monkeypatch.setattr(cli, "BENCH_SCRIPT", script)
    assert main(["bench", "--workload", "parity"]) == cli.EXIT_INVALID == 2
    assert str(script) in capfd.readouterr().err


def test_cli_other_commands_refuse_extra_arguments(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["laws", "--samples", "1", "--workload", "parity"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workload parity" in capsys.readouterr().err


def test_cli_bench_runs_a_checked_benchmark(capfd):
    assert main(["bench"]) == cli.EXIT_INVALID == 2  # the runner's refusal
    assert "--workload" in capfd.readouterr().err
    assert main(["bench", "--workload", "parity", "--seed", "1",
                 "--seconds", "0"]) == 0
    last = capfd.readouterr().out.splitlines()[-1]
    assert json.loads(last)["correct"] is True, last


def test_fuzz_base_is_a_valid_sat_instance(tmp_path):
    file = tmp_path / "inst.json"
    file.write_text(json.dumps(FUZZ_BASE))
    assert main(["solve", str(file)]) == main(["oracle", str(file)]) == 0


def test_cli_key_error_inside_solver_exits_internal(tmp_path, monkeypatch,
                                                    capsys):
    path = tmp_path / "inst.json"
    assert main(["gen", "instance", "--seed", "3", "-o", str(path)]) == 0

    def broken_solve(*args):
        raise KeyError("x0")
    monkeypatch.setattr(solver, "solve", broken_solve)
    assert main(["solve", str(path)]) == cli.EXIT_INTERNAL == 4
    assert "KeyError" in capsys.readouterr().err


def test_cli_crash_exits_internal(monkeypatch, capsys):
    for exc in (RecursionError("maximum recursion depth exceeded"),
                ValueError("two\nlines")):
        def crash(args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "cmd_laws", crash)
        assert main(["laws"]) == cli.EXIT_INTERNAL == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and type(exc).__name__ in err


def test_cli_laws_ok():
    assert main(["laws", "--samples", "40", "--seed", "1"]) == 0


def test_oracle_env_budget(monkeypatch):
    monkeypatch.setenv("CCSP_BUDGET", "100")
    inst = Instance([f"v{i}" for i in range(12)],
                    {f"v{i}": {0, 1} for i in range(12)}, [])
    with pytest.raises(OracleBudgetError):
        brute_force_solve(inst)
    monkeypatch.delenv("CCSP_BUDGET")
    assert brute_force_solve(inst).is_sat


@pytest.mark.parametrize("raw", ["abc", "1e6"])
def test_cli_oracle_bad_env_budget_exits_invalid(tmp_path, monkeypatch,
                                                 capsys, raw):
    path = tmp_path / "inst.json"
    assert main(["gen", "instance", "-o", str(path)]) == 0
    monkeypatch.setenv("CCSP_BUDGET", raw)
    assert main(["oracle", str(path)]) == cli.EXIT_INVALID == 2
    assert "CCSP_BUDGET" in capsys.readouterr().err
