"""Command-line interface.

Subcommands: classify, solve, oracle, laws, gen, bench.  Exit codes:
0 sat/ok, 1 unsat, 2 invalid input, 3 NP-complete refusal, 4 internal
invariant failure or any other crash.

`solve` and `oracle` read the instance with `jsonio.instance_from_obj`;
`solve` resolves the algebra with `jsonio.load_algebra`.  Both hand the
instance to `solver.run_pipeline`, which runs the checks and gives the
verdict, and `_report` prints every result and picks its exit code.

`bench` runs the checkout's `perfbench/run.py` in a child process with
every argument after `bench`; exits 0 and 2 pass through, others become 4.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from .classify import classify_language
from .errors import (InternalInvariantError, InvalidArgumentError,
                     OracleBudgetError)
from .harness import (GeneratorConfig, gen_algebra, gen_instance,
                      gen_planted_instance)
from .jsonio import (_as_obj, algebra_to_obj, dump, instance_from_obj,
                     instance_to_obj, language_from_obj, load_algebra,
                     result_to_obj)
from .laws import run_law_suite
from .solver import PipelineResult, run_pipeline

EXIT_OK = 0
EXIT_UNSAT = 1
EXIT_INVALID = 2
EXIT_NP_COMPLETE = 3
EXIT_INTERNAL = 4
BENCH_SCRIPT = Path(__file__).resolve().parents[2] / "perfbench" / "run.py"


def _emit(obj: dict, as_json: bool, lines: list[str]):
    if as_json:
        print(dump(obj))
    else:
        for line in lines:
            print(line)


def cmd_classify(args) -> int:
    lang = language_from_obj(Path(args.language))
    verdict = classify_language(lang)
    if verdict.tractable:
        obj = {"status": "tractable",
               "algebra": algebra_to_obj(verdict.algebra, verdict.graph)}
        _emit(obj, args.json, ["tractable"])
        return EXIT_OK
    obj = {"status": "np-complete", "witness_pair": list(verdict.witness_pair)}
    _emit(obj, args.json,
          [f"np-complete (witness pair {verdict.witness_pair})"])
    return EXIT_NP_COMPLETE


def _report(res: PipelineResult, as_json: bool) -> int:
    """Print a `solve` or `oracle` result and return its exit code."""
    if res.status == "np-complete":
        lines = [f"np-complete language (witness pair {res.witness_pair}); "
                 "refusing to solve (pass --force-oracle to override)"]
        code = EXIT_NP_COMPLETE
    else:
        forced = res.oracle_used and res.witness_pair is not None
        lines = [res.status + (" (oracle; language is NP-complete)"
                               if forced else "")]
        code = EXIT_OK if res.status == "sat" else EXIT_UNSAT
    if res.assignment is not None:
        lines.append(" ".join(f"{v}={a}" for v, a in
                              sorted(res.assignment.items(), key=str)))
    _emit(result_to_obj(res), as_json, lines)
    return code


def cmd_solve(args) -> int:
    obj = _as_obj(args.instance)
    inst = instance_from_obj(obj)
    ref, base_dir = obj.get("algebra"), Path(args.instance).parent
    if args.algebra:
        ref, base_dir = args.algebra, None
    if ref is None:
        raise InvalidArgumentError(
            "no algebra available: pass --algebra or embed one in the instance")
    verdict = load_algebra(ref, base_dir)
    return _report(run_pipeline(inst, verdict, args.force_oracle), args.json)


def cmd_oracle(args) -> int:
    return _report(run_pipeline(instance_from_obj(args.instance), None),
                   args.json)


def cmd_laws(args) -> int:
    cfg = GeneratorConfig(seed=args.seed, domain_size=args.domain_size,
                          max_arity=args.max_arity, samples=args.samples)
    obj = run_law_suite(cfg).as_dict()
    lines = [f"samples: {obj['samples']}"]
    for law, counts in obj["laws"].items():
        lines.append(f"  {law}: {counts['pass']} pass, {counts['fail']} fail, "
                     f"{counts['hypothesis-not-met']} hypothesis-not-met")
    lines.append("OK" if obj["ok"] else "FAILURES PRESENT")
    _emit(obj, args.json, lines)
    return EXIT_OK if obj["ok"] else EXIT_INTERNAL


def _parse_weights(raw: str) -> tuple[float, float, float]:
    try:
        a, b, c = (float(x) for x in raw.split(","))
    except ValueError:
        raise InvalidArgumentError(
            "weights must be three comma-separated numbers") from None
    return a, b, c


def cmd_gen(args) -> int:
    cfg = GeneratorConfig(seed=args.seed, domain_size=args.domain_size,
                          variable_count=args.variables,
                          constraint_count=args.constraints,
                          max_arity=args.max_arity,
                          label_weights=_parse_weights(args.weights))
    alg, graph = gen_algebra(cfg)
    if args.kind == "algebra":
        obj = algebra_to_obj(alg, graph)
    else:
        gen = gen_planted_instance if args.planted else gen_instance
        inst = gen(alg, graph, cfg)
        obj = instance_to_obj(inst, algebra=algebra_to_obj(alg, graph))
    text = dump(obj, args.output)
    if args.output is None:
        print(text)
    return EXIT_OK


def cmd_bench(args) -> int:
    # Python itself exits 2 on a missing script: a copy outside a checkout
    code = subprocess.run([sys.executable, BENCH_SCRIPT, *args.rest]).returncode
    return code if code in (EXIT_OK, EXIT_INVALID) else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ccsp",
        description="Classify conservative constraint languages and solve "
                    "tractable instances.")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="dichotomy verdict for a language file")
    p.add_argument("language")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("solve", help="solve an instance file")
    p.add_argument("instance")
    p.add_argument("--algebra", help="algebra/language file overriding the "
                                     "instance's own reference")
    p.add_argument("--json", action="store_true")
    p.add_argument("--force-oracle", action="store_true")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force verdict for an instance file")
    p.add_argument("instance")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("laws", help="run the randomized law suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--domain-size", type=int, default=4)
    p.add_argument("--max-arity", type=int, default=4)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_laws)

    p = sub.add_parser("gen", help="generate a random algebra or instance")
    p.add_argument("kind", choices=("algebra", "instance"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain-size", type=int, default=3)
    p.add_argument("--variables", type=int, default=6)
    p.add_argument("--constraints", type=int, default=8)
    p.add_argument("--max-arity", type=int, default=3)
    p.add_argument("--weights", default="1,1,1",
                   help="semilattice,majority,affine label weights")
    p.add_argument("--planted", action="store_true",
                   help="plant a solution (instance generation only)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("bench", add_help=False, help="run perfbench/run.py")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args, rest = ap.parse_known_args(argv)
    if rest and args.command != "bench":
        ap.error(f"unrecognized arguments: {' '.join(rest)}")
    args.rest = rest
    try:
        return args.func(args)
    except (InvalidArgumentError, OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except InternalInvariantError as exc:
        print(f"internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:  # a crash must not read as a verdict
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
