"""JSON file formats for algebras, languages, instances, and results.

Algebra files carry the universe, the pair labels (with the operative
direction for semilattice pairs), and the four tables.  Tables may be
omitted when a "relations" list is present; loading then classifies the
language, and the verdict carries either the synthesized tables or the
NP-complete witness pair.

`_as_obj` is the one reader: every file goes through it, and whatever
keeps a file from being read as JSON (missing, a directory, not UTF-8,
not JSON, nested too deep) comes out as an InvalidArgumentError.  An
instance's "algebra" reference is not resolved when the instance is read;
`load_algebra` is the one resolver.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Optional, Union

from .classify import (AFFINE, MAJORITY, SEMILATTICE,
                       ClassifierVerdict, ConstraintLanguage,
                       EdgeLabeledGraph, PairLabel, classify_language,
                       semilattice_label)
from .errors import InvalidArgumentError
from .model import Algebra, Constraint, Instance, relation
from .solver import PipelineResult

JsonLike = Union[dict, str, Path]


def _as_obj(source: JsonLike) -> dict:
    """A JSON object given inline or as a file path."""
    obj = source
    if isinstance(source, (str, Path)):
        try:
            obj = json.loads(Path(source).read_text(encoding="utf-8"))
        except OSError as exc:  # missing, a directory, unreadable
            raise InvalidArgumentError(
                f"cannot read {source}: {exc.strerror}") from None
        except (ValueError, RecursionError) as exc:  # not UTF-8 or JSON; deep
            raise InvalidArgumentError(
                f"{source} is not a JSON file: {exc}") from None
    if not isinstance(obj, dict):
        raise InvalidArgumentError(
            f"expected a JSON object, got {type(obj).__name__}")
    return obj


def _field(obj: dict, key, what: str):
    """obj[key], or an InvalidArgumentError naming the missing key."""
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"{what} must be a JSON object")
    if key not in obj:
        raise InvalidArgumentError(f"{what} is missing {key!r}")
    return obj[key]


_ITEMS = {None: "", str: " of strings", int: " of integers", list: " of lists"}


def _list(value, what: str, item: Optional[type] = None) -> list:
    """value, or an InvalidArgumentError naming the field unless it is a
    list (of `item`s when given; JSON true and false are no integers)."""
    if not isinstance(value, list) or item is not None and not all(
            type(x) is item for x in value):
        raise InvalidArgumentError(f"{what} must be a JSON list{_ITEMS[item]}")
    return value


def _table(value, size: int, depth: int, error: str) -> tuple:
    """value as a nested-tuple table if it is `depth` levels of `size`-long
    lists around integers below `size`; else an InvalidArgumentError(error)."""
    if depth == 0 and type(value) is int and 0 <= value < size:
        return value
    if depth and isinstance(value, list) and len(value) == size:
        return tuple(_table(x, size, depth - 1, error) for x in value)
    raise InvalidArgumentError(error)


def var_str(v) -> str:
    """Serialized variable name; multiplied-instance pairs become 'v@b'."""
    if isinstance(v, tuple) and len(v) == 2:
        return f"{var_str(v[0])}@{v[1]}"
    return str(v)


def graph_to_obj(graph: EdgeLabeledGraph) -> list:
    out = []
    for (a, b) in graph.pairs():
        lab = graph.label(a, b)
        entry = {"pair": [a, b], "label": lab.kind}
        if lab.kind == SEMILATTICE:
            entry["direction"] = list(lab.orientation)
        out.append(entry)
    return out


def _pair(value, what: str) -> tuple[int, int]:
    if not (isinstance(value, list) and len(value) == 2
            and all(type(x) is int for x in value)):
        raise InvalidArgumentError(f"{what} must be a JSON list of two integers")
    return tuple(value)


def graph_from_obj(size: int, labels: list) -> EdgeLabeledGraph:
    out = {}
    for entry in _list(labels, "'labels'"):
        a, b = _pair(_field(entry, "pair", "label entry"), "'pair'")
        if (min(a, b), max(a, b)) in out:
            raise InvalidArgumentError(f"'labels' names the pair {a, b} twice")
        kind = _field(entry, "label", "label entry")
        if kind == SEMILATTICE:
            direction = _pair(entry.get("direction", [min(a, b), max(a, b)]),
                              "'direction'")
            if sorted(direction) != sorted((a, b)):
                raise InvalidArgumentError("'direction' must order its pair")
            out[(min(a, b), max(a, b))] = semilattice_label([direction])
        elif kind in (MAJORITY, AFFINE):
            out[(min(a, b), max(a, b))] = PairLabel(kind)
        else:
            raise InvalidArgumentError(f"unknown label {kind!r}")
    return EdgeLabeledGraph(size, out)


def algebra_to_obj(alg: Algebra, graph: EdgeLabeledGraph) -> dict:
    return {
        "universe": list(range(alg.size)),
        "labels": graph_to_obj(graph),
        "f": [list(r) for r in alg.f],
        "p": [list(r) for r in alg.p],
        "g": [[list(r) for r in plane] for plane in alg.g],
        "h": [[list(r) for r in plane] for plane in alg.h],
    }


def language_from_obj(source: JsonLike) -> ConstraintLanguage:
    obj = _as_obj(source)
    universe = obj.get("universe")
    if universe is None:
        raise InvalidArgumentError("language file needs a universe")
    size = len(_list(universe, "'universe'"))
    rels = []
    for tuples in _list(obj.get("relations", []), "'relations'", list):
        rels.append(relation([tuple(_list(t, "a tuple", int))
                              for t in tuples],
                             signature=None if tuples else [range(size)]))
    return ConstraintLanguage(size, tuple(rels))


def load_algebra(ref: JsonLike, base_dir: Optional[Path] = None
                 ) -> ClassifierVerdict:
    """Resolve an algebra reference, an inline object or a file path (a
    relative path taken from `base_dir` when given), to a verdict.  A file
    with tables is tractable with those tables; a file with relations only
    gets `classify_language`'s verdict, which may be NP-complete."""
    if isinstance(ref, str) and base_dir is not None:
        ref = base_dir / ref  # an absolute ref stays as it is
    obj = _as_obj(ref)
    universe = obj.get("universe")
    if universe is None:
        raise InvalidArgumentError("algebra file needs a universe")
    size = len(_list(universe, "'universe'"))
    if all(k in obj for k in ("f", "p", "g", "h")):
        if size < 1:
            raise InvalidArgumentError("the 'universe' must not be empty")
        tables = [_table(obj[op], size, k, f"'{op}' must be a "
                         f"{'x'.join([str(size)] * k)} JSON list of "
                         f"integers below {size}")
                  for op, k in zip("fpgh", (2, 2, 3, 3))]
        alg = Algebra(size, *tables)
        graph = graph_from_obj(size, obj.get("labels", []))
        if len(graph.labels) != size * (size - 1) // 2:
            raise InvalidArgumentError("labels must cover every pair")
        return ClassifierVerdict("tractable", graph, alg)
    if "relations" not in obj:
        raise InvalidArgumentError(
            "algebra file needs either tables or relations to synthesize from")
    return classify_language(language_from_obj(obj))


def instance_to_obj(inst: Instance,
                    algebra: Optional[Union[dict, str]] = None) -> dict:
    obj = {
        "variables": [var_str(v) for v in inst.variables],
        "domains": {var_str(v): sorted(inst.domains[v])
                    for v in inst.variables},
        "constraints": [
            {"scope": [var_str(v) for v in c.scope],
             "tuples": sorted(list(t) for t in c.relation.tuples)}
            for c in inst.constraints
        ],
    }
    if algebra is not None:
        obj["algebra"] = algebra
    return obj


def instance_from_obj(source: JsonLike) -> Instance:
    """The instance in a JSON object or file, without an algebra: its
    "algebra" reference, if any, is left to `load_algebra`."""
    obj = _as_obj(source)
    variables = _list(_field(obj, "variables", "instance"), "'variables'", str)
    if len(set(variables)) < len(variables):
        raise InvalidArgumentError("'variables' names a variable twice")
    raw_domains = _field(obj, "domains", "instance")
    domains = {v: frozenset(_list(_field(raw_domains, v, "domains"),
                                  f"the domain of {v!r}", int))
               for v in variables}
    cons = []
    for c in _list(obj.get("constraints", []), "'constraints'"):
        scope = tuple(_list(_field(c, "scope", "constraint"), "'scope'", str))
        for v in scope:
            if v not in domains:
                raise InvalidArgumentError(f"scope names unknown variable {v!r}")
        tuples = [tuple(_list(t, "a tuple", int)) for t in
                  _list(_field(c, "tuples", "constraint"), "'tuples'", list)]
        sig = [domains[v] for v in scope]
        cons.append(Constraint(scope, relation(tuples, signature=sig)))
    return Instance(variables, domains, cons)


def result_to_obj(res: PipelineResult) -> dict:
    out: dict = {"status": res.status}
    if res.assignment is not None:
        out["assignment"] = {var_str(v): a for v, a in
                             sorted(res.assignment.items(), key=lambda kv: var_str(kv[0]))}
    if res.witness_pair is not None:
        out["witness_pair"] = list(res.witness_pair)
    if res.trace is not None:
        out["trace"] = res.trace
    if res.oracle_used:
        out["oracle_used"] = True
    return out


def dump(obj: dict, path: Optional[Union[str, Path]] = None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=False)
    if path is not None:
        try:
            Path(path).write_text(text + "\n")
        except OSError as exc:  # a directory, a missing parent, read-only
            raise InvalidArgumentError(
                f"cannot write {path}: {exc.strerror}") from None
    return text
