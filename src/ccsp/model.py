"""Core data model: operation tables, relations, instances, assignments.

Elements of an algebra are dense integer ids 0..size-1.  All values here are
treated as immutable after construction; every operation is a pure function.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidArgumentError

# entries of one step's image array in close_under_ops (8 bytes each)
_STEP_ELEMENTS = 1 << 21

ValueTuple = tuple[int, ...]


@dataclass(frozen=True)
class Algebra:
    """A finite algebra with two binary (f, p) and two ternary (g, h) tables.

    Tables are nested tuples indexed by element id.  The intended algebras
    are conservative (op value is always one of its arguments) and
    idempotent; `algebra_violations` checks this.
    """

    size: int
    f: tuple[tuple[int, ...], ...]
    p: tuple[tuple[int, ...], ...]
    g: tuple[tuple[tuple[int, ...], ...], ...]
    h: tuple[tuple[tuple[int, ...], ...], ...]

    def binary_ops(self) -> dict[str, tuple[tuple[int, ...], ...]]:
        return {"f": self.f, "p": self.p}

    def ternary_ops(self) -> dict[str, tuple]:
        return {"g": self.g, "h": self.h}

    def all_ops(self) -> dict[str, tuple]:
        return {**self.binary_ops(), **self.ternary_ops()}


def table_arity(table) -> int:
    """Nesting depth of an operation table."""
    arity = 0
    node = table
    while isinstance(node, (tuple, list)):
        arity += 1
        node = node[0]
    return arity


def algebra_violations(alg: Algebra) -> list[str]:
    """Check conservativity, idempotency and the absorption identity.

    Absorption: f(x, f(x, y)) == f(x, y) for all x, y.  Returns a list of
    human-readable violation records; empty means all laws hold.
    """
    out: list[str] = []
    n = alg.size
    for name, tab in alg.binary_ops().items():
        for a in range(n):
            for b in range(n):
                v = tab[a][b]
                if v not in (a, b):
                    out.append(f"{name}({a},{b})={v} is not conservative")
        for a in range(n):
            if tab[a][a] != a:
                out.append(f"{name}({a},{a})={tab[a][a]} is not idempotent")
    for name, tab in alg.ternary_ops().items():
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    v = tab[a][b][c]
                    if v not in (a, b, c):
                        out.append(f"{name}({a},{b},{c})={v} is not conservative")
        for a in range(n):
            if tab[a][a][a] != a:
                out.append(f"{name}({a},{a},{a}) is not idempotent")
    for a in range(n):
        for b in range(n):
            if alg.f[a][alg.f[a][b]] != alg.f[a][b]:
                out.append(f"absorption fails: f({a},f({a},{b})) != f({a},{b})")
    return out


@dataclass(frozen=True)
class Relation:
    """An explicit finite set of equal-length tuples with per-position domains."""

    arity: int
    tuples: frozenset[ValueTuple]
    signature: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.arity < 1:
            raise InvalidArgumentError("relation arity must be positive")
        if len(self.signature) != self.arity:
            raise InvalidArgumentError("signature length must equal arity")
        for t in self.tuples:
            if len(t) != self.arity:
                raise InvalidArgumentError(f"tuple {t} has wrong arity")
            for i, v in enumerate(t):
                if v not in self.signature[i]:
                    raise InvalidArgumentError(
                        f"tuple {t} leaves signature at position {i}")

    def __iter__(self):
        return iter(self.tuples)

    def __len__(self):
        return len(self.tuples)

    def __contains__(self, t) -> bool:
        return t in self.tuples

    def sorted_tuples(self) -> list[ValueTuple]:
        return sorted(self.tuples)

    def is_subdirect(self) -> bool:
        """True if every position's projection covers its signature domain."""
        for i, dom in enumerate(self.signature):
            if {t[i] for t in self.tuples} != set(dom):
                return False
        return True


def relation(tuples: Iterable[Sequence[int]],
             signature: Optional[Sequence[Iterable[int]]] = None) -> Relation:
    """Build a Relation; signature defaults to per-position value sets."""
    tups = frozenset(tuple(t) for t in tuples)
    if not tups:
        if signature is None:
            raise InvalidArgumentError("empty relation needs an explicit signature")
        sig = tuple(frozenset(d) for d in signature)
        return Relation(len(sig), tups, sig)
    arity = len(next(iter(tups)))
    if signature is None:
        if any(len(t) != arity for t in tups):
            raise InvalidArgumentError("relation tuples differ in arity")
        sig = tuple(frozenset(t[i] for t in tups) for i in range(arity))
    else:
        sig = tuple(frozenset(d) for d in signature)
    return Relation(arity, tups, sig)


def project(rel: Relation, indices: Sequence[int]) -> Relation:
    """Project a relation onto the given 0-based positions, preserving order.

    Output tuples are deduplicated; the signature is restricted accordingly.
    """
    idx = list(indices)
    if not idx:
        raise InvalidArgumentError("projection index set must be nonempty")
    for i in idx:
        if not 0 <= i < rel.arity:
            raise InvalidArgumentError(f"projection index {i} out of range")
    tups = frozenset(tuple(t[i] for i in idx) for t in rel.tuples)
    sig = tuple(rel.signature[i] for i in idx)
    return Relation(len(idx), tups, sig)


def apply_componentwise(table, args: Sequence[ValueTuple]) -> ValueTuple:
    """Apply an operation table position by position to argument tuples."""
    k = table_arity(table)
    if len(args) != k:
        raise InvalidArgumentError(f"operation needs {k} arguments, got {len(args)}")
    arity = len(args[0])
    for t in args:
        if len(t) != arity:
            raise InvalidArgumentError("argument tuples must share arity")
    out = []
    for i in range(arity):
        node = table
        for t in args:
            node = node[t[i]]
        out.append(node)
    return tuple(out)


def close_under_ops(seed: Iterable[Sequence[int]], alg: Algebra) -> Relation:
    """Least superset of the seed closed under componentwise f, p, g, h.

    Conservative operations never introduce new per-position values, so the
    signature is the seed's per-position value sets and the closure lies in
    their product.  Tuples are held as sorted codes in base `alg.size`; f, p,
    g and h are applied in turn to every combination of them until four in
    a row add no tuple or the product is reached.  An operation's images are
    built in slices of its first argument, so that one step's arrays stay
    under a fixed size until a single first argument's images exceed it.
    """
    seed_tuples = [tuple(t) for t in seed]
    if not seed_tuples:
        raise InvalidArgumentError("closure needs a nonempty seed")
    arity = len(seed_tuples[0])
    if any(len(t) != arity for t in seed_tuples):
        raise InvalidArgumentError("seed tuples must share arity")
    size = alg.size
    if not all(0 <= v < size for t in seed_tuples for v in t):
        raise InvalidArgumentError("seed values must lie in the universe")
    if size ** arity > 2 ** 64:
        raise InvalidArgumentError(f"{size}**{arity} tuple codes overflow 64 bits")
    signature = [{t[i] for t in seed_tuples} for i in range(arity)]
    product = math.prod(map(len, signature))
    # uint64 throughout: numpy promotes int64 with uint64 to float64
    powers = np.array([size ** i for i in range(arity)], dtype=np.uint64)
    codes = np.unique(np.array(seed_tuples, dtype=np.uint64) @ powers)
    tables = itertools.cycle([np.array(t, dtype=np.uint64)
                              for t in (alg.f, alg.p, alg.g, alg.h)])
    idle = 0
    while True:
        cols = codes // powers[:, None] % np.uint64(size)  # (arity, n)
        if idle == 4 or len(codes) == product:
            return relation(map(tuple, cols.T.tolist()), signature=signature)
        tab = next(tables)
        # argument j varies along axis j of the (arity, n, ..., n) images
        args = [cols.reshape((arity,) + (1,) * j + (-1,)
                             + (1,) * (tab.ndim - 1 - j))
                for j in range(tab.ndim)]
        # slices of the first argument's axis keep each image array under
        # _STEP_ELEMENTS entries, or at one first argument per slice
        first = args[0]
        rows = _STEP_ELEMENTS // (arity * len(codes) ** (tab.ndim - 1)) or 1
        grown = codes
        for lo in range(0, len(codes), rows):
            args[0] = first[:, lo:lo + rows]
            images = tab[tuple(args)].reshape(arity, -1)
            grown = np.union1d(grown, powers @ images)
        idle = idle + 1 if len(grown) == len(codes) else 0
        codes = grown


def preservation_witness(table, relations: Sequence[Relation]
                         ) -> Optional[tuple[ValueTuple, ...]]:
    """The first combination of rows of a relation that the nested-tuple
    table maps, componentwise, outside that relation; None if there is none.

    The arity is the table's nesting depth; constant row combinations are
    checked too, so the table need not be idempotent.
    """
    arity = table_arity(table)
    flat = [table]
    for _ in range(arity):
        flat = [x for row in flat for x in row]
    weights = [len(table) ** (arity - 1 - j) for j in range(arity)]
    for rel in relations:
        # row t as the j-th argument adds t[i] * weights[j] to the flat
        # index of the cell read for position i
        scaled = [[tuple(v * w for v in t) for t in rel.tuples] for w in weights]
        for combo in itertools.product(*scaled):
            image = tuple(map(flat.__getitem__, map(sum, zip(*combo))))
            if image not in rel.tuples:
                return tuple(tuple(v // w for v in t)
                             for t, w in zip(combo, weights))
    return None


def is_closed_under_ops(rel: Relation, alg: Algebra) -> Optional[tuple]:
    """Return None if closed; else a witness (op_name, arg_tuples, image).
    The closure decides, so the algebra must be conservative."""
    if not rel.tuples or len(close_under_ops(rel.tuples, alg)) == len(rel):
        return None
    for name, tab in alg.all_ops().items():
        rows = preservation_witness(tab, (rel,))
        if rows is not None:
            return name, rows, apply_componentwise(tab, rows)
    return None


def restrict_relation(rel: Relation, domains: Sequence[frozenset]) -> Relation:
    """The tuples of `rel` inside the per-position domains, signed with them."""
    return relation((t for t in rel.tuples
                     if all(v in d for v, d in zip(t, domains))),
                    signature=domains)


class Constraint(NamedTuple):
    scope: tuple  # variable names, possibly with repetition
    relation: Relation


class Instance:
    """A CSP instance: variables, per-variable domains, constraints."""

    def __init__(self, variables: Sequence, domains: Mapping,
                 constraints: Iterable, algebra: Optional[Algebra] = None):
        self.variables = tuple(variables)
        self.domains = {v: frozenset(domains[v]) for v in self.variables}
        cons = []
        for c in constraints:
            scope, rel = c
            cons.append(Constraint(tuple(scope), rel))
        self.constraints = tuple(cons)
        self.algebra = algebra

    def __repr__(self):
        return (f"Instance({len(self.variables)} vars, "
                f"{len(self.constraints)} constraints)")


def restrict_instance(inst: Instance, domains: Mapping) -> Optional[Instance]:
    """The instance over the given domains, every constraint restricted to
    them (see `restrict_relation`); None if a domain is empty."""
    if not all(domains[v] for v in inst.variables):
        return None
    cons = [Constraint(scope, restrict_relation(rel, [domains[v] for v in scope]))
            for scope, rel in inst.constraints]
    return Instance(inst.variables, domains, cons, inst.algebra)


def summ(inst: Instance) -> int:
    """Size measure: total count of domain values over all variables."""
    return sum(len(inst.domains[v]) for v in inst.variables)


def verify_assignment(inst: Instance, assignment: Mapping) -> list[Constraint]:
    """Return the constraints an assignment violates (empty list = solution)."""
    bad = []
    for c in inst.constraints:
        try:
            image = tuple(assignment[v] for v in c.scope)
        except KeyError:
            bad.append(c)
            continue
        if image not in c.relation:
            bad.append(c)
    for v in inst.variables:
        if v in assignment and assignment[v] not in inst.domains[v]:
            bad.append(Constraint((v,), relation([(a,) for a in inst.domains[v]],
                                                 signature=[inst.domains[v]])))
    return bad


@dataclass(frozen=True)
class SolveResult:
    status: str  # "sat" | "unsat"
    assignment: Optional[dict] = None

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


def sat(assignment: Mapping) -> SolveResult:
    return SolveResult("sat", dict(assignment))


UNSAT = SolveResult("unsat", None)


def validate_instance(inst: Instance) -> list[str]:
    """Collect violations of the instance invariants: with an algebra, also
    its `algebra_violations` or, if none, each relation it does not preserve.
    """
    out: list[str] = algebra_violations(inst.algebra) if inst.algebra else []
    size = inst.algebra.size if inst.algebra else None
    for v in inst.variables:
        dom = inst.domains[v]
        if not dom:
            out.append(f"domain of {v!r} is empty")
        if size is not None and any(a not in range(size) for a in dom):
            out.append(f"domain of {v!r} leaves the universe")
    # closedness is decided by a closure: conservative ops, tuples in universe
    check_closure = inst.algebra is not None and not out
    for k, c in enumerate(inst.constraints):
        for v in c.scope:
            if v not in inst.domains:
                out.append(f"constraint {k} scope names unknown variable {v!r}")
        if len(c.scope) != c.relation.arity:
            out.append(f"constraint {k} arity mismatch")
            continue
        if any(v not in inst.domains for v in c.scope):
            continue
        for i, v in enumerate(c.scope):
            if not c.relation.signature[i] <= inst.domains[v]:
                out.append(
                    f"constraint {k} signature at position {i} leaves domain of {v!r}")
        for t in c.relation.tuples:
            if any(t[i] not in inst.domains[c.scope[i]] for i in range(len(t))):
                out.append(f"constraint {k} tuple {t} leaves the domains")
                break
        else:
            witness = (is_closed_under_ops(c.relation, inst.algebra)
                       if check_closure else None)
            if witness is not None:
                name, args, image = witness
                out.append(
                    f"constraint {k} not closed under {name}: "
                    f"{name}{args} = {image} missing")
    return out
