"""ccsp benchmark: timed, checked verdicts on seeded input lists.

    python3 perfbench/run.py --workload planted --seed 3 --seconds 26 --trace 0

Run from the root of a source checkout; ccsp is imported from src/.  The
run builds the workload's fixed, ordered list of inputs from --seed (set
up several times, to time set-up), then works through whole rounds of that
list, one verdict call at a time, and stops at the end of the round
nearest to --seconds, once at least MIN_VERDICTS verdicts are in.  Every
verdict is checked against the benchmark's own computation outside the
timed region.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced rounds and reports per-layer self times, counts and sizes per
round, plus the tracing overhead.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from time import perf_counter

STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402  (imports no ccsp module until installed)

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

SETUPS = 3          # set-ups per run; setup_s takes their median
MIN_VERDICTS = 100  # so that verdict_s.p90 has ten samples beyond it
EXIT_NO_PROGRAM = 2


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("classify", "planted", "parity"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def import_program():
    """Import ccsp from this checkout's src/, never from elsewhere."""
    if not (SRC / "ccsp" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import ccsp
    if Path(ccsp.__file__).resolve().parent != (SRC / "ccsp").resolve():
        return None
    return ccsp


class Tally:
    """Verdict times and failures over all rounds of a run."""

    def __init__(self):
        self.times: list[float] = []
        self.by_case: dict[str, list[float]] = {}
        self.failures: Counter = Counter()     # reason -> count
        self.failed_cases: dict[str, str] = {}  # case name -> reason
        self.unexpected = 0                    # failures not of a kept fault

    def record(self, case, seconds, out, error):
        self.times.append(seconds)
        self.by_case.setdefault(case.name, []).append(seconds)
        if error is not None:
            reason = f"exception: {type(error).__name__}: {error}"
        else:
            try:
                reason = case.check(out)
            except Exception as exc:  # malformed output is a failed verdict
                reason = f"unreadable output: {type(exc).__name__}: {exc}"
        if reason is None:
            return
        self.failures[reason] += 1
        self.failed_cases[case.name] = reason
        if case.known_fault is None or not reason.startswith(case.known_fault):
            self.unexpected += 1


def run_round(cases, tally, tracer=None):
    for case in cases:
        out = error = None
        if tracer is None:
            start = perf_counter()
            try:
                out = case.call()
            except Exception as exc:
                error = exc
            seconds = perf_counter() - start
        else:
            index = tracer.enter("verdict")
            try:
                out = case.call()
            except Exception as exc:
                error = exc
            finally:
                tracer.exit(index)
            span = tracer.spans[index]
            seconds = span[3] - span[2]
            if isinstance(out, tuple):  # solve() returns (result, SolveTrace)
                solve_trace = out[1]
                tracer.counts["solver.nodes"] += solve_trace.nodes
                tracer.counts["solver.depth"] = max(
                    tracer.counts["solver.depth"], solve_trace.depth)
                for kind, n in solve_trace.branch_counts.items():
                    tracer.counts[f"solver.branch.{kind}"] += n
        tally.record(case, seconds, out, error)


def end_to_end(tally, setup_s):
    """Verdict metrics over each input's fastest time across rounds.

    A verdict is a deterministic computation, so time beyond its fastest
    run is the machine's: on a shared host, slow-downs from other tenants
    last tens of seconds and move every call in them by up to a half.
    """
    times = [min(t) for t in tally.by_case.values()]
    return {
        "verdicts_per_s": (len(times) / sum(times), "1/s"),
        "verdict_s.p50": (statistics.median(times), "s"),
        "verdict_s.p90": (statistics.quantiles(times, n=10)[8], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(tracer, rounds, untraced_wall):
    c = tracer.counts
    wall = tracer.wall()
    out = {tracing.SELF_TIME_METRICS[layer]: (seconds / rounds, "s")
           for layer, seconds in tracer.self_times().items()}
    for name in ("indicator.searches", "classify.pairs",
                 "minimality.pair_tables", "minimality.triple_tables",
                 "maltsev.restricts", "maltsev.rows", "solver.nodes",
                 "reductions.multiplied_vars",
                 "reductions.multiplied_constraints", "model.closures"):
        out[name] = (c[name] / rounds, "count")
    out["minimality.calls"] = (tracer.outermost("minimality") / rounds,
                               "count")
    out["solver.depth"] = (c["solver.depth"], "count")
    for kind in tracing.BRANCH_KINDS:
        out[f"solver.branch.{kind}"] = (c[f"solver.branch.{kind}"] / rounds,
                                        "count")
    out["indicator.found_ratio"] = (
        c["indicator.found"] / c["indicator.searches"]
        if c["indicator.searches"] else 0.0, "ratio")
    out["reductions.forced_hit_ratio"] = (
        c["reductions.forced_hits"] / c["reductions.forced_tries"]
        if c["reductions.forced_tries"] else 0.0, "ratio")
    out["trace.wall_s"] = (wall / rounds, "s")
    out["trace.overhead_s"] = ((wall - untraced_wall) / rounds, "s")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    if import_program() is None:
        print(f"perfbench: no ccsp package under {SRC}; run from the root "
              "of a full source checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    import workloads
    import_s = perf_counter() - STARTED

    build = workloads.WORKLOADS[args.workload]
    generation, digests = [], set()
    for _ in range(SETUPS):
        # one list at a time, so that peak_rss_mb holds one set-up's inputs
        cases = None
        gc.collect()
        start = perf_counter()
        cases = build(args.seed)
        generation.append(perf_counter() - start)
        digests.add(workloads.digest(cases))
    if len(digests) != 1:
        print(f"perfbench: seed {args.seed} gave different inputs on "
              f"different set-ups: {sorted(digests)}", file=sys.stderr)
        return 3
    setup_s = import_s + statistics.median(generation)

    tally = Tally()
    tracer = tracing.Tracer() if args.trace else None
    untraced = Tally()
    min_verdicts = MIN_VERDICTS if tracer is None else 1
    rounds = 0
    longest = 0.0   # the longest pass so far
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        # end at the pass boundary nearest to --seconds
        if (rounds and len(tally.times) >= min_verdicts
                and elapsed + longest / 2 >= args.seconds):
            break
        if tracer is None:
            run_round(cases, tally)
        else:
            run_round(cases, untraced)
            with tracing.installed(tracer):
                run_round(cases, tally, tracer)
        rounds += 1
        longest = max(longest, perf_counter() - start - elapsed)

    attempted = len(tally.times) + len(untraced.times)
    failed = sum(tally.failures.values()) + sum(untraced.failures.values())
    unexpected = tally.unexpected + untraced.unexpected
    if tracer is None:
        metrics = end_to_end(tally, setup_s)
    else:
        metrics = per_layer(tracer, rounds, sum(untraced.times))

    print(f"workload {args.workload}, seed {args.seed}: {len(cases)} inputs, "
          f"digest {digests.pop()}")
    print(f"set-up {setup_s:.3f} s: import {import_s:.3f} s, generation "
          + ", ".join(f"{g:.3f}" for g in generation) + " s")
    print(f"attempted {attempted} verdicts in {rounds} rounds"
          + (" of untraced and traced passes" if tracer else "")
          + f", failed {failed}")
    for reason, n in sorted((tally.failures + untraced.failures).items()):
        names = sorted(k for k, r in {**untraced.failed_cases,
                                      **tally.failed_cases}.items()
                       if r == reason)
        print(f"  failed {n}: {reason} [{', '.join(names)}]")
    if unexpected:
        print(f"  {unexpected} failures are not the known fault",
              file=sys.stderr)
    if tracer is not None:
        unattributed = metrics["trace.unattributed_s"][0]
        layers = sum(tracer.self_times().values()) / rounds - unattributed
        wall = metrics["trace.wall_s"][0]
        print(f"trace, per round: layer self times {layers:.6f} s + "
              f"unattributed {unattributed:.6f} s = "
              f"{layers + unattributed:.6f} s, traced wall {wall:.6f} s; "
              f"unattributed "
              f"{unattributed / wall:.1%} of wall; "
              f"{len(tracer.spans) // rounds} spans")
        write_spans(tracer, args)

    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    raw = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    raw.write_text(json.dumps({**result, "verdict_s": tally.times,
                               "setup_generation_s": generation,
                               "import_s": import_s}))
    print(json.dumps(result))
    return 0


def write_spans(tracer, args):
    """One JSON line per span: layer, parent index, start and end seconds."""
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
    with path.open("w") as fh:
        for layer, parent, start, end in tracer.spans:
            fh.write(f'["{layer}",{parent},{start:.9f},{end:.9f}]\n')


if __name__ == "__main__":
    sys.exit(main())
