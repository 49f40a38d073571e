"""Dichotomy classifier: pair labels, the edge-labeled graph, uniform ops.

For each 2-element subset {a, b} of a language's universe we search for a
conservative polymorphism whose restriction to {a, b} is semilattice,
majority, or affine (in that precedence order).  A language with every pair
labeled is tractable; a single unlabeled pair makes it NP-complete.  For
tractable languages we synthesize one quadruple of operation tables
(f, p, g, h) behaving uniformly on all pairs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .errors import InvalidArgumentError, SynthesisFailureError
from .indicator import Network, search_operation, table_from_assignment
from .model import Algebra, Relation, algebra_violations

SEMILATTICE = "semilattice"
MAJORITY = "majority"
AFFINE = "affine"
NONE = "none"


@dataclass(frozen=True)
class PairLabel:
    kind: str
    # achievable semilattice orientations, as (source, sink) arcs
    directions: tuple[tuple[int, int], ...] = ()
    # the orientation the synthesized f realizes (semilattice only)
    orientation: Optional[tuple[int, int]] = None

    def __post_init__(self):
        if self.kind not in (SEMILATTICE, MAJORITY, AFFINE, NONE):
            raise InvalidArgumentError(f"unknown label kind {self.kind!r}")
        if self.kind == SEMILATTICE and not self.directions:
            raise InvalidArgumentError("semilattice label needs a direction")


def semilattice_label(directions: Sequence[tuple[int, int]]) -> PairLabel:
    dirs = tuple(dict.fromkeys(tuple(d) for d in directions))
    return PairLabel(SEMILATTICE, dirs, min(dirs))  # smaller source wins


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
        new = {}
        for (a, b), lab in self.labels.items():
            if lab.kind == SEMILATTICE:
                ori = (a, b) if f[a][b] == b and f[b][a] == b else (b, a)
                dirs = lab.directions if ori in lab.directions \
                    else lab.directions + (ori,)
                new[(a, b)] = PairLabel(SEMILATTICE, dirs, ori)
            else:
                new[(a, b)] = lab
        return EdgeLabeledGraph(self.size, new)

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


def classify_pair(lang: ConstraintLanguage, a: int, b: int,
                  networks: Optional[dict[int, Network]] = None) -> PairLabel:
    """Label one pair by searching for conservative polymorphisms.

    Precedence: semilattice (either orientation) beats majority beats
    affine; `none` means no tractable restriction exists.  `networks` holds
    the language's compiled networks by arity, shared between calls on the
    same language and filled as needed.
    """
    if a == b or a not in range(lang.size) or b not in range(lang.size):
        raise InvalidArgumentError(f"bad pair ({a}, {b})")
    nets = {} if networks is None else networks
    dirs = []
    for (src, snk) in ((min(a, b), max(a, b)), (max(a, b), min(a, b))):
        found = search_operation(_network(lang, 2, nets),
                                 {(src, snk): snk, (snk, src): snk})
        if found is not None:
            dirs.append((src, snk))
    if dirs:
        return semilattice_label(dirs)

    pinned_maj = {c: _majority_value(*c) for c in _pair_cells(a, b, 3)}
    if search_operation(_network(lang, 3, nets), pinned_maj) is not None:
        return PairLabel(MAJORITY)

    pinned_aff = {c: _minority_value(*c) for c in _pair_cells(a, b, 3)}
    if search_operation(_network(lang, 3, nets), pinned_aff) is not None:
        return PairLabel(AFFINE)

    return PairLabel(NONE)


# The arity of each uniform table.
_ARITY = {"f": 2, "p": 2, "g": 3, "h": 3}


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
    arity = _ARITY[op]
    pins = {}
    for (a, b) in graph.pairs():
        kind = graph.kind(a, b)
        for cell in _pair_cells(a, b, arity):
            pins[cell] = _pair_rule(op, kind, f, cell)
    return pins


def _first_argument_table(size: int, arity: int, pins: dict):
    """The table taking the pinned values, and its first argument elsewhere."""
    return table_from_assignment(size, arity, {
        cell: pins.get(cell, cell[0])
        for cell in itertools.product(range(size), repeat=arity)})


def _build_f(size: int, orientation):
    """f joins toward the sink of each oriented (source, sink) pair and is
    the first projection elsewhere."""
    pins = {}
    for src, snk in orientation:
        pins[(src, snk)] = pins[(snk, src)] = snk
    return _first_argument_table(size, 2, pins)


def canonical_algebra(graph: EdgeLabeledGraph) -> Algebra:
    """Tables determined by the labels alone: f joins along the labels'
    semilattice orientations, p, g and h follow `_pair_rule`, and every
    table takes its first argument elsewhere."""
    n = graph.size
    f = _build_f(n, [graph.label(a, b).orientation for (a, b) in graph.pairs()
                     if graph.kind(a, b) == SEMILATTICE])
    p, g, h = (_first_argument_table(n, _ARITY[op], _pair_pins(graph, f, op))
               for op in "pgh")
    return Algebra(n, f, p, g, h)


def synthesize_uniform_ops(lang: ConstraintLanguage, graph: EdgeLabeledGraph,
                           networks: Optional[dict[int, Network]] = None
                           ) -> Algebra:
    """Search operation tables realizing the uniform pair behavior.

    For each choice of semilattice orientations, smaller source first, f,
    p, g and h are searched in turn on the language's networks with their
    `_pair_pins`.  f and p are pinned on every non-constant cell, so their
    searches check that they preserve the relations; free ternary cells
    prefer their first argument.  `networks` as for `classify_pair`.
    """
    nets = {} if networks is None else networks
    if graph.pairs() != list(itertools.combinations(range(lang.size), 2)) \
            or any(graph.kind(a, b) == NONE for (a, b) in graph.pairs()):
        raise InvalidArgumentError("synthesis requires a fully labeled graph")
    choice_lists = [sorted(graph.label(a, b).directions)
                    for (a, b) in graph.pairs()
                    if graph.kind(a, b) == SEMILATTICE]

    for combo in itertools.product(*choice_lists):
        f = _build_f(lang.size, combo)
        tables = []
        for op, arity in _ARITY.items():
            cells = search_operation(_network(lang, arity, nets),
                                     _pair_pins(graph, f, op))
            if cells is None:
                break
            tables.append(table_from_assignment(lang.size, arity, cells))
        else:
            return Algebra(lang.size, *tables)
    raise SynthesisFailureError(
        "no conservative tables realize the uniform pair behavior; "
        "the labeling is wrong or the language violates the classifier's hypotheses")


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
    f, p, g, h = alg.f, alg.p, alg.g, alg.h
    for (a, b) in graph.pairs():
        kind = graph.kind(a, b)
        if kind == NONE:
            out.append(f"pair ({a},{b}) is unlabeled")
            continue
        if kind == SEMILATTICE:
            src, snk = graph.label(a, b).orientation
            if not (f[src][snk] == snk and f[snk][src] == snk):
                out.append(f"f must join toward {snk} on semilattice pair ({a},{b})")
        else:
            if f[a][b] != a or f[b][a] != b:
                out.append(f"f must be first projection on {kind} pair ({a},{b})")
        for name, table in (("p", p), ("g", g), ("h", h)):
            for cell in _pair_cells(a, b, _ARITY[name]):
                got = functools.reduce(lambda node, x: node[x], cell, table)
                want = _pair_rule(name, kind, f, cell)
                if got != want:
                    out.append(f"{name}{cell}={got} should be {want} "
                               f"on {kind} pair ({a},{b})")
    return out


@functools.lru_cache(maxsize=64)
def derive_m(alg: Algebra):
    """Compose m(x,y,z) = h(g(x,y,z), g(y,z,x), g(z,x,y)) as a table;
    computed once per algebra (an immutable value) and then reused."""
    n = alg.size
    return tuple(
        tuple(
            tuple(alg.h[alg.g[x][y][z]][alg.g[y][z][x]][alg.g[z][x][y]]
                  for z in range(n))
            for y in range(n))
        for x in range(n))


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
