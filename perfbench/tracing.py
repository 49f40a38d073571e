"""Per-layer tracing of ccsp from outside the package.

`installed(tracer)` replaces ccsp's public entry points, where the calling
modules bind them, by wrappers that record a span (layer, parent, start,
end) and read counts and sizes off the returned values.  The originals are
restored on exit.  A layer's self time is its spans' durations minus the
time covered by their child spans; the root span of each verdict call keeps
what no wrapped entry point covers, reported as `trace.unattributed_s`, so
the self times add up to the traced wall time exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from collections import Counter
from time import perf_counter

ROOT = "verdict"

# layer -> self-time metric
SELF_TIME_METRICS = {
    "indicator.search": "indicator.search_s",
    "classify.label": "classify.label_s",
    "classify.synthesis": "classify.synthesis_s",
    "minimality": "minimality.s",
    "maltsev": "maltsev.s",
    "solver.base": "solver.base_s",
    "reductions.exclusion": "reductions.exclusion_s",
    "reductions.multiplied": "reductions.multiplied_s",
    "reductions.retraction": "reductions.retraction_s",
    "model.closure": "model.closure_s",
    "model.verify": "model.verify_s",
    "structure": "structure.s",
    ROOT: "trace.unattributed_s",
}

# branch kinds SolveTrace.bump records in solver.py
BRANCH_KINDS = ("sfree", "exclusion", "exclusion-restart", "retraction",
                "restriction-solve", "multiplied-probe", "forced-multiplied",
                "retract-loop")


def _count_search(counts, args, kwargs, result):
    counts["indicator.searches"] += 1
    counts["indicator.found"] += result is not None


def _count_pair(counts, args, kwargs, result):
    counts["classify.pairs"] += 1


def _count_tables(counts, args, kwargs, result):
    if result is not None:
        _pruned, tables = result
        counts["minimality.pair_tables"] += len(tables.pairs)
        counts["minimality.triple_tables"] += len(tables.triples)


def _count_restrict(counts, args, kwargs, result):
    counts["maltsev.restricts"] += 1
    counts["maltsev.rows"] += len(result.rows)


def _count_multiplied(counts, args, kwargs, result):
    counts["reductions.multiplied_vars"] += len(result.variables)
    counts["reductions.multiplied_constraints"] += len(result.constraints)
    forced = kwargs.get("forced", args[2] if len(args) > 2 else None)
    counts["reductions.forced_tries"] += forced is not None


def _count_retraction(counts, args, kwargs, result):
    counts["reductions.forced_hits"] += result.kind == "retract"


def _count_closure(counts, args, kwargs, result):
    counts["model.closures"] += 1


# (module, attribute or "Class.method", layer, observer)
PATCHES = (
    ("classify", "search_operation", "indicator.search", _count_search),
    ("classify", "classify_pair", "classify.label", _count_pair),
    ("classify", "synthesize_uniform_ops", "classify.synthesis", None),
    ("solver", "establish_3_minimality", "minimality", _count_tables),
    ("minimality", "Propagator.run", "minimality", None),
    ("solver", "solve_with_maltsev", "maltsev", None),
    ("maltsev", "restrict", "maltsev", _count_restrict),
    ("solver", "solve_semilattice_free", "solver.base", None),
    ("solver", "find_consistent_collection", "reductions.exclusion", None),
    ("solver", "split_by_strands", "reductions.exclusion", None),
    ("solver", "combine_solutions", "reductions.exclusion", None),
    ("solver", "exclude_components", "reductions.exclusion", None),
    ("solver", "retraction_step", "reductions.retraction", _count_retraction),
    ("solver", "retract_instance", "reductions.retraction", None),
    ("reductions", "arc_free_restriction", "reductions.retraction", None),
    ("reductions", "maps_from_solution", "reductions.retraction", None),
    ("reductions", "idempotent_power", "reductions.retraction", None),
    ("reductions", "multiplied_instance", "reductions.multiplied",
     _count_multiplied),
    ("reductions", "close_under_ops", "model.closure", _count_closure),
    ("solver", "verify_assignment", "model.verify", None),
    ("reductions", "verify_assignment", "model.verify", None),
    ("solver", "as_components", "structure", None),
    ("solver", "strands_of_instance", "structure", None),
    ("solver", "is_semilattice_free", "structure", None),
    ("reductions", "as_components", "structure", None),
    ("reductions", "strands_of_instance", "structure", None),
)


class Tracer:
    """Spans kept in memory as [layer, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def enter(self, layer: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, parent, perf_counter(), None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def exit(self, index: int):
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, layer: str, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if observe is not None:
                observe(self.counts, args, kwargs, result)
            return result
        return traced

    def self_times(self) -> dict[str, float]:
        """Seconds per layer, outside the layer's child spans."""
        own = [end - start for _layer, _parent, start, end in self.spans]
        for _layer, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        out = dict.fromkeys(SELF_TIME_METRICS, 0.0)
        for (layer, _parent, _start, _end), seconds in zip(self.spans, own):
            out[layer] += seconds
        return out

    def wall(self) -> float:
        return sum(end - start for layer, parent, start, end in self.spans
                   if parent < 0)

    def outermost(self, layer: str) -> int:
        """Spans of a layer not nested directly in a span of the same layer."""
        spans = self.spans
        return sum(1 for name, parent, _s, _e in spans if name == layer
                   and (parent < 0 or spans[parent][0] != layer))


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"ccsp.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for module, attr, layer, observe in PATCHES:
            owner, name = _resolve(module, attr)
            original = getattr(owner, name)
            saved.append((owner, name, original))
            setattr(owner, name, tracer.wrap(original, layer, observe))
        yield tracer
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)
