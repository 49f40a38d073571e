"""Establish and test 3-minimality: the partial-solution tables.

The tables keep, for every variable set W with |W| <= 3, the candidate
partial assignments on W surviving mutual filtering against all constraints
and against each other on overlaps.  Tables whose value equals the obvious
join of smaller tables are never materialized: a pair table defaults to the
product of the two domains, a triple table to the pairwise join.  A triple
whose three pair tables include at most one non-default pair cannot tighten
anything once pairs project onto domains, so propagation only visits
materialized triples and triples with at least two materialized pairs.

`Propagator` is a worklist engine (AC-3 style): each round revises only the
constraints, materialized pairs and candidate triples on the variables whose
domain, pair or triple table shrank.  Constraints are pre-indexed by an item
getter per sub-scope, and project their supports again only after losing
tuples (until then their tables can only shrink below unmoved supports).
The filters are monotone, so the fixpoint does not depend on the order of
revision.  Tables are replaced, never mutated, so a trail of replaced values
can undo a branch (`mark` / `undo`).

The engine at its fixpoint is the one carrier of a node's tables:
`establish_3_minimality` returns it beside the pruned instance, the base
solvers assign on it, and `is_3_minimal` re-checks it in place.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, Optional

from .model import Constraint, Instance, relation

VarSet = tuple
_MISSING = object()


class _Domains(dict):
    """Variable domains; writing one schedules its variable for revision."""

    def __setitem__(self, v, value):
        super().__setitem__(v, value)
        self.dirty.add(v)


class Propagator:
    """Worklist fixpoint engine behind establish_3_minimality; every
    variable starts scheduled."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.variables = inst.variables
        self._order = {v: i for i, v in enumerate(self.variables)}
        self.dirty: set = set(self.variables)
        self.doms = _Domains(inst.domains)
        self.doms.dirty = self.dirty
        self.pairs: dict[VarSet, frozenset] = {}
        self.triples: dict[VarSet, frozenset] = {}
        self.keys_on: dict = {}  # variable -> materialized pairs, triples on it
        self.cons_on: dict = {v: [] for v in self.variables}
        self.cons: list[tuple[tuple, list]] = []  # (scope, [(key, getter)])
        self.rels: dict[int, frozenset] = {}  # current tuples, by constraint
        for i, (scope, rel) in enumerate(inst.constraints):
            svars = self.sort_vars(scope)
            first = {v: scope.index(v) for v in svars}
            subs = [(key, itemgetter(*[first[v] for v in key]))
                    for size in (1, 2, 3)
                    for key in itertools.combinations(svars, size)]
            tuples = rel.tuples
            if len(svars) < len(scope):  # a repeated variable takes one value
                tuples = frozenset(t for t in tuples if all(
                    t[j] == t[first[v]] for j, v in enumerate(scope)))
            for v in svars:
                self.cons_on[v].append(i)
            self.cons.append((scope, subs))
            self.rels[i] = tuples
        # constraints whose supports were never projected onto the tables
        self.fresh: set[int] = set(self.rels)
        self.failed = False
        self.shrinks = 0
        self.trail: Optional[list] = None

    def sort_vars(self, ws: Iterable) -> VarSet:
        return tuple(sorted(set(ws), key=self._order.__getitem__))

    # -- table access -------------------------------------------------
    def pair_value(self, key: VarSet) -> frozenset:
        if key in self.pairs:
            return self.pairs[key]
        a, b = key
        return frozenset(itertools.product(self.doms[a], self.doms[b]))

    def _join(self, key: VarSet) -> frozenset:
        a, b, c = key
        ab, ac, bc = (self.pair_value(k) for k in ((a, b), (a, c), (b, c)))
        return frozenset((x, y, z) for (x, y) in ab for z in self.doms[c]
                         if (x, z) in ac and (y, z) in bc)

    def table(self, ws: Iterable) -> frozenset:
        """The current table on a set of one to three variables."""
        key = self.sort_vars(ws)
        if len(key) == 1:
            return frozenset((a,) for a in self.doms[key[0]])
        if len(key) == 2:
            return self.pair_value(key)
        if len(key) == 3:
            return self.triples[key] if key in self.triples else self._join(key)
        raise ValueError("tables exist only for 1..3 variables")

    def nontrivial_items(self):
        """Materialized (variable-set, tuple-set) pairs, pairs then triples."""
        for table in (self.pairs, self.triples):
            for key in sorted(table, key=lambda k: [*map(self._order.get, k)]):
                yield key, table[key]

    # -- writes -------------------------------------------------------
    def _store(self, table: dict, k, value):
        if self.trail is not None:
            self.trail.append((table, k, table.get(k, _MISSING)))
        dict.__setitem__(table, k, value)

    def _set(self, key: VarSet, value: frozenset, shrunk: bool = True):
        """Replace the table on `key`; a shrink schedules its variables."""
        table = (self.doms, self.pairs, self.triples)[len(key) - 1]
        k = key[0] if len(key) == 1 else key
        if k not in table:  # a pair or triple gets materialized
            for v in key:
                self.keys_on.setdefault(v, set()).add(key)
        self._store(table, k, value)
        if shrunk:
            self.dirty.update(key)
            self.shrinks += 1
            self.failed = self.failed or not value

    def _shrink(self, key: VarSet, allowed: set):
        """Intersect a table with `allowed`; triples are materialized."""
        if len(key) == 3:
            old = self.triples[key] if key in self.triples else self._join(key)
        else:
            old = self.doms[key[0]] if len(key) == 1 else self.pair_value(key)
        new = old & allowed
        if len(new) < len(old):
            self._set(key, new)
        elif len(key) == 3 and key not in self.triples:
            self._set(key, new, shrunk=False)

    # -- revisions ----------------------------------------------------
    def _revise_constraint(self, i: int):
        tuples = kept = self.rels[i]
        subs = self.cons[i][1]
        for key, get in subs:
            table = (self.doms[key[0]] if len(key) == 1 else
                     (self.pairs if len(key) == 2 else self.triples).get(key))
            if table is not None:
                kept = [t for t in kept if get(t) in table]
        if len(kept) < len(tuples):
            self._store(self.rels, i, frozenset(kept))
            self.shrinks += 1
            self.failed = not kept
        elif i not in self.fresh:
            return
        for key, get in subs:
            if self.failed:
                return
            self._shrink(key, set(map(get, kept)))
        self.fresh.discard(i)

    def _revise_pair(self, key: VarSet):
        a, b = key
        self._shrink(key, set(itertools.product(self.doms[a], self.doms[b])))
        self._shrink((a,), {t[0] for t in self.pairs[key]})
        self._shrink((b,), {t[1] for t in self.pairs[key]})

    def _revise_triple(self, key: VarSet):
        a, b, c = key
        self._shrink(key, self._join(key))
        val = self.triples[key]
        self.failed = self.failed or not val
        for (i, j), pkey in (((0, 1), (a, b)), ((0, 2), (a, c)),
                             ((1, 2), (b, c))):
            self._shrink(pkey, {(t[i], t[j]) for t in val})

    def _round(self):
        """Revise the constraints, materialized pairs and triples on the
        scheduled variables, and the triples where one joins two
        materialized pairs: a triple gets its second materialized pair only
        with both ends scheduled, so this finds every new candidate."""
        vs = set(self.dirty)
        self.dirty.clear()
        for i in sorted({i for v in vs for i in self.cons_on[v]}):
            if self.failed:
                return
            self._revise_constraint(i)
        near = {k for v in vs for k in self.keys_on.get(v, ())}
        for v in vs:  # pairs are materialized now for this round's triples
            partners = [w for k in self.keys_on.get(v, ()) if len(k) == 2
                        for w in k if w != v]
            near.update(self.sort_vars((v, x, z)) for x, z in
                        itertools.combinations(partners, 2))
        for key in sorted(near, key=lambda k: (len(k), *map(self._order.get, k))):
            if self.failed:
                return
            (self._revise_pair if len(key) == 2 else self._revise_triple)(key)

    def run(self) -> bool:
        """Propagate to the global fixpoint; False means inconsistent."""
        while self.dirty and not self.failed:
            self._round()
        return not self.failed

    def assign(self, v, a) -> bool:
        """Restrict a variable to one value and re-propagate."""
        if a not in self.doms[v]:
            return False
        self._set((v,), frozenset((a,)))
        return self.run()

    def mark(self) -> int:
        """Record replaced tables from this fixpoint on, for undo(mark)."""
        if self.trail is None:
            self.trail = []
        return len(self.trail)

    def undo(self, mark: int):
        """Roll back to the fixpoint at which `mark` was taken."""
        while len(self.trail) > mark:
            table, k, old = self.trail.pop()
            if old is _MISSING:
                del table[k]
                for v in k:
                    self.keys_on[v].discard(k)
            else:
                dict.__setitem__(table, k, old)
        self.dirty.clear()
        self.failed = False

    def snapshot(self) -> Instance:
        """The instance pruned to the current domains and constraint tuples."""
        cons = []
        for old, tuples in zip(self.inst.constraints, self.rels.values()):
            sig = tuple(self.inst.domains[v] & self.doms[v] for v in old.scope)
            if tuples == old.relation.tuples and sig == old.relation.signature:
                cons.append(old)  # nothing shrank: no tuple to check again
            else:
                cons.append(Constraint(old.scope,
                                       relation(tuples, signature=sig)))
        return Instance(self.variables, self.doms, cons, self.inst.algebra)


def establish_3_minimality(inst: Instance
                           ) -> Optional[tuple[Instance, Propagator]]:
    """Mutually filter tables, constraints and domains to a fixpoint.

    Returns the pruned, solution-equivalent instance together with the
    engine at that fixpoint, or None when some table empties (the instance
    is unsatisfiable).
    """
    engine = Propagator(inst)
    if not engine.run():
        return None
    return engine.snapshot(), engine


def is_3_minimal(engine: Propagator) -> bool:
    """True iff one more filtering pass over every constraint and table of
    the engine changes nothing; the engine is left as it was."""
    mark, shrinks = engine.mark(), engine.shrinks
    dirty, fresh = set(engine.dirty), set(engine.fresh)
    engine.dirty.update(engine.variables)
    engine.fresh.update(engine.rels)
    quiet = engine.run() and engine.shrinks == shrinks
    engine.undo(mark)
    engine.dirty.update(dirty)
    engine.fresh = fresh
    return quiet
