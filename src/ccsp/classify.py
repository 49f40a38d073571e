"""Dichotomy classifier: pair labels, the edge-labeled graph, uniform ops.

For each 2-element subset {a, b} of a language's universe we search for a
conservative polymorphism whose restriction to {a, b} is semilattice,
majority, or affine (in that precedence order).  A language with every pair
labeled is tractable; a single unlabeled pair makes it NP-complete.  For
tractable languages we synthesize one quadruple of operation tables
(f, p, g, h) behaving uniformly on all pairs: f is composed from one
semilattice witness per pair, and p, g and h are searched once each.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InvalidArgumentError, SynthesisFailureError
from .indicator import Network, search_operation
from .model import ARITY, Algebra, Relation, algebra_violations, at, nest

SEMILATTICE = "semilattice"
MAJORITY = "majority"
AFFINE = "affine"
NONE = "none"


@dataclass(frozen=True)
class PairLabel:
    kind: str
    # the semilattice orientation, as a (source, sink) arc
    orientation: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.kind not in (SEMILATTICE, MAJORITY, AFFINE, NONE):
            raise InvalidArgumentError(f"unknown label kind {self.kind!r}")
        if self.kind == SEMILATTICE and not self.orientation:
            raise InvalidArgumentError("semilattice label needs a direction")


def semilattice_label(directions: Sequence[tuple[int, int]]) -> PairLabel:
    # smaller source wins
    return PairLabel(SEMILATTICE, min(map(tuple, directions), default=None))


class EdgeLabeledGraph:
    """Complete pair labeling of a universe; semilattice pairs are oriented."""

    def __init__(self, size: int, labels: dict[tuple[int, int], PairLabel]):
        self.size = size
        self.labels = {}
        for (a, b), lab in labels.items():
            if a == b or not (0 <= a < size and 0 <= b < size):
                raise InvalidArgumentError(f"bad pair ({a},{b})")
            self.labels[(min(a, b), max(a, b))] = lab

    def pairs(self) -> list[tuple[int, int]]:
        return sorted(self.labels)

    def label(self, a: int, b: int) -> PairLabel:
        if a == b:
            raise InvalidArgumentError("label of a loop requested")
        return self.labels[(min(a, b), max(a, b))]

    def kind(self, a: int, b: int) -> str:
        return self.label(a, b).kind

    def semilattice_arc(self, a: int, b: int) -> bool:
        """True if a -> b is the operative semilattice orientation."""
        lab = self.label(a, b)
        return lab.kind == SEMILATTICE and lab.orientation == (a, b)

    def with_orientations_from(self, f) -> "EdgeLabeledGraph":
        """Re-orient semilattice pairs to match a concrete f table."""
        return EdgeLabeledGraph(self.size, {
            (a, b): PairLabel(SEMILATTICE, (a, b) if f[a][b] == f[b][a] == b
                              else (b, a)) if lab.kind == SEMILATTICE else lab
            for (a, b), lab in self.labels.items()})

    def __eq__(self, other):
        return (isinstance(other, EdgeLabeledGraph)
                and self.size == other.size and self.labels == other.labels)


@dataclass(frozen=True)
class ConstraintLanguage:
    size: int
    relations: tuple[Relation, ...]

    def __post_init__(self):
        if self.size < 1:
            raise InvalidArgumentError("the 'universe' must not be empty")
        for rel in self.relations:
            for dom in rel.signature:
                if any(v not in range(self.size) for v in dom):
                    raise InvalidArgumentError("relation leaves the universe")


@dataclass(frozen=True)
class ClassifierVerdict:
    kind: str  # "tractable" | "np-complete"
    graph: Optional[EdgeLabeledGraph] = None
    algebra: Optional[Algebra] = None
    witness_pair: Optional[tuple[int, int]] = None

    @property
    def tractable(self) -> bool:
        return self.kind == "tractable"


def _majority_value(x: int, y: int, z: int) -> int:
    if x == y or x == z:
        return x
    return y  # y == z in the two-distinct-values case


def _minority_value(x: int, y: int, z: int) -> int:
    if x == y:
        return z
    if y == z:
        return x
    return y  # x == z


def _pair_cells(a: int, b: int, arity: int):
    for cell in itertools.product((a, b), repeat=arity):
        if len(set(cell)) == 2:
            yield cell


def _network(lang: ConstraintLanguage, arity: int,
             networks: dict[int, Network]) -> Network:
    """The language's preservation network at `arity`, compiled on first use."""
    if arity not in networks:
        networks[arity] = Network(lang.size, arity, lang.relations)
    return networks[arity]


def _semilattice_witness(lang: ConstraintLanguage, arc: tuple[int, int],
                         networks: dict[int, Network]):
    """A binary polymorphism joining toward the sink of `arc`, or None."""
    src, snk = arc
    return search_operation(_network(lang, 2, networks),
                            {(src, snk): snk, (snk, src): snk})


def classify_pair(lang: ConstraintLanguage, a: int, b: int,
                  networks: Optional[dict[int, Network]] = None) -> PairLabel:
    """Label one pair by searching for conservative polymorphisms.

    Precedence: semilattice (smaller source first) beats majority beats
    affine; `none` means no tractable restriction exists.  `networks` holds
    the language's compiled networks by arity, shared between calls on the
    same language and filled as needed.
    """
    if a == b or a not in range(lang.size) or b not in range(lang.size):
        raise InvalidArgumentError(f"bad pair ({a}, {b})")
    nets = {} if networks is None else networks
    for arc in ((min(a, b), max(a, b)), (max(a, b), min(a, b))):
        if _semilattice_witness(lang, arc, nets) is not None:
            return PairLabel(SEMILATTICE, arc)

    for kind, value in ((MAJORITY, _majority_value), (AFFINE, _minority_value)):
        pinned = {c: value(*c) for c in _pair_cells(a, b, 3)}
        if search_operation(_network(lang, 3, nets), pinned) is not None:
            return PairLabel(kind)

    return PairLabel(NONE)


def _pair_rule(op: str, kind: str, f, cell: tuple[int, ...]) -> int:
    """The value `op` ("f", "p", "g" or "h") takes on a two-valued cell of a
    pair labeled `kind`, given f.

    Semilattice pairs fold the cell with f: f(x,y) and p(x,y) are f's own
    value and g = h = f(f(x,y),z).  On majority pairs f and h are the first
    projection, p the second and g majority; on affine pairs f, p and g are
    the first projection and h minority.
    """
    if kind == SEMILATTICE:
        value = cell[0]
        for v in cell[1:]:
            value = f[value][v]
        return value
    if kind == MAJORITY:
        if op == "g":
            return _majority_value(*cell)
        return cell[1] if op == "p" else cell[0]
    if kind == AFFINE:
        return _minority_value(*cell) if op == "h" else cell[0]
    raise InvalidArgumentError(f"no {op} rule on an unlabeled pair")


def _pair_pins(graph: EdgeLabeledGraph, f, op: str) -> dict:
    """`_pair_rule` on every two-valued cell of every pair of the graph."""
    pins = {}
    for (a, b) in graph.pairs():
        kind = graph.kind(a, b)
        for cell in _pair_cells(a, b, ARITY[op]):
            pins[cell] = _pair_rule(op, kind, f, cell)
    return pins


def _first_argument_table(size: int, op: str, pins: dict):
    """The table of `op` taking the pinned values, and its first argument
    elsewhere."""
    arity = ARITY[op]
    cells = itertools.product(range(size), repeat=arity)
    return nest([pins.get(cell, cell[0]) for cell in cells], size, arity)


def canonical_algebra(graph: EdgeLabeledGraph) -> Algebra:
    """Tables determined by the labels alone: f joins along the labels'
    semilattice orientations, p, g and h follow `_pair_rule`, and every
    table takes its first argument elsewhere."""
    n = graph.size
    f = _first_argument_table(n, "f", {
        cell: graph.label(a, b).orientation[1] for (a, b) in graph.pairs()
        if graph.kind(a, b) == SEMILATTICE for cell in ((a, b), (b, a))})
    p, g, h = (_first_argument_table(n, op, _pair_pins(graph, f, op))
               for op in "pgh")
    return Algebra(n, f, p, g, h)


def synthesize_uniform_ops(lang: ConstraintLanguage, graph: EdgeLabeledGraph,
                           networks: Optional[dict[int, Network]] = None
                           ) -> Algebra:
    """Operation tables realizing the uniform pair behavior.

    f starts as the first projection.  For each semilattice pair {a, b} it
    does not join, a polymorphism w joining {a, b} along the label is
    searched, and f(x,y) becomes w(f(x,y), f(y,x)), which keeps f's joins.
    Last, f(x,y) becomes f(f(x,y), x), the first projection on every pair
    f does not join.  f preserves the relations as a composition of
    polymorphisms; `classify_language` re-reads its orientations.  No
    polymorphism joins a pair that `classify_pair` labels majority or
    affine; under other labels such a join fails synthesis.

    p, g and h are searched once each with their `_pair_pins`; free
    ternary cells prefer their first argument.  If any (f0, p0, g0, h0)
    realizes the labels, then p = f(p0(x,y), f(x,y)),
    g = f(g0(x,y,z), f(f(x,y),z)) and h = f(h0(x,y,z), f(f(x,y),z)) follow
    `_pair_rule` for this f, so the complete search cannot fail.
    `networks` as for `classify_pair`.
    """
    nets = {} if networks is None else networks
    n = lang.size
    if graph.pairs() != list(itertools.combinations(range(n), 2)) \
            or any(graph.kind(a, b) == NONE for (a, b) in graph.pairs()):
        raise InvalidArgumentError("synthesis requires a fully labeled graph")
    f = [[x] * n for x in range(n)]
    for (a, b) in graph.pairs():
        if graph.kind(a, b) != SEMILATTICE or f[a][b] == f[b][a]:
            continue
        w = _semilattice_witness(lang, graph.label(a, b).orientation, nets)
        if w is None:
            raise SynthesisFailureError(f"no semilattice witness on pair "
                                        f"({a},{b}) along its label")
        f = [[w[f[x][y]][f[y][x]] for y in range(n)] for x in range(n)]
    f = tuple(tuple(f[f[x][y]][x] for y in range(n)) for x in range(n))
    for (a, b) in graph.pairs():
        if graph.kind(a, b) != SEMILATTICE and f[a][b] == f[b][a]:
            raise SynthesisFailureError(
                f"f joins the {graph.kind(a, b)} pair ({a},{b})")
    tables = [f]
    for op in "pgh":
        table = search_operation(_network(lang, ARITY[op], nets),
                                 _pair_pins(graph, f, op))
        if table is None:
            raise SynthesisFailureError(
                f"no {op} table realizes the uniform pair behavior")
        tables.append(table)
    return Algebra(n, *tables)


def classify_language(lang: ConstraintLanguage) -> ClassifierVerdict:
    """Full dichotomy verdict; deterministic given the language."""
    networks: dict[int, Network] = {}  # compiled once, dropped on return
    labels = {}
    for a, b in itertools.combinations(range(lang.size), 2):
        lab = classify_pair(lang, a, b, networks)
        if lab.kind == NONE:
            return ClassifierVerdict("np-complete", witness_pair=(a, b))
        labels[(a, b)] = lab
    graph = EdgeLabeledGraph(lang.size, labels)
    alg = synthesize_uniform_ops(lang, graph, networks)
    graph = graph.with_orientations_from(alg.f)
    return ClassifierVerdict("tractable", graph, alg)


def check_uniformity_laws(alg: Algebra, graph: EdgeLabeledGraph) -> list[str]:
    """Exhaustively verify the uniform pair behavior of f, p, g, h.

    Returns violation records with witnesses; empty means all laws hold.
    """
    out = list(algebra_violations(alg))
    f = alg.f
    for (a, b) in graph.pairs():
        kind = graph.kind(a, b)
        if kind == NONE:
            out.append(f"pair ({a},{b}) is unlabeled")
            continue
        if kind == SEMILATTICE:
            src, snk = graph.label(a, b).orientation
            if not f[src][snk] == f[snk][src] == snk:
                out.append(f"f must join toward {snk} on semilattice pair ({a},{b})")
        for name, table in alg.all_ops().items():
            for cell in _pair_cells(a, b, ARITY[name]):
                got = at(table, cell)
                want = _pair_rule(name, kind, f, cell)
                if got != want:
                    out.append(f"{name}{cell}={got} should be {want} "
                               f"on {kind} pair ({a},{b})")
    return out


@functools.lru_cache(maxsize=64)
def derive_m(alg: Algebra):
    """Compose m(x,y,z) = h(g(x,y,z), g(y,z,x), g(z,x,y)) as a table;
    computed once per algebra (an immutable value) and then reused."""
    n, g = alg.size, alg.g
    return nest([alg.h[g[x][y][z]][g[y][z][x]][g[z][x][y]]
                 for x, y, z in itertools.product(range(n), repeat=3)], n, 3)


def gmm_violations(m, domain: Iterable[int], graph: EdgeLabeledGraph) -> list[str]:
    """Check m is majority on majority pairs and Maltsev on affine pairs."""
    out = []
    dom = sorted(domain)
    for a, b in itertools.combinations(dom, 2):
        kind = graph.kind(a, b)
        if kind == MAJORITY:
            for cell in _pair_cells(a, b, 3):
                x, y, z = cell
                if m[x][y][z] != _majority_value(x, y, z):
                    out.append(f"m not majority at ({x},{y},{z})")
        elif kind == AFFINE:
            for x, y in ((a, b), (b, a)):
                if m[x][y][y] != x or m[y][y][x] != x:
                    out.append(f"m not Maltsev on affine pair ({a},{b})")
    return out
