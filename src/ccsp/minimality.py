"""Establish 3-minimality: the partial-solution tables.

The tables keep, for every variable set W with |W| <= 3, the candidate
partial assignments on W surviving mutual filtering against all constraints
and against each other on overlaps.  Tables whose value equals the obvious
join of smaller tables are never materialized: a pair table defaults to the
product of the two domains, a triple table to the pairwise join.  A triple
whose three pair tables include at most one non-default pair cannot tighten
anything once pairs project onto domains, so propagation only visits
materialized triples and candidate triples, those with at least two
materialized pairs.

`Propagator` runs a FIFO queue of revisions, AC-3 style (Mackworth,
"Consistency in networks of relations", 1977) over the table lattice.  A
constraint revision filters the constraint's tuples by the domains and
materialized tables on its scope and projects the survivors back onto
them, but only when first revised and after losing some tuples (until then
its tables can only shrink below unmoved supports); a triple revision cuts
the triple to its join and projects it onto its pairs.  A shrunken table
queues these of its readers, except the revision that shrank it and left
it a projection of what that revision read:

- a domain: the constraints on the variable;
- a pair: the constraints on both variables, and the materialized and
  candidate triples holding the pair;
- a triple: the constraints on all three variables.

No pair is revised on its own (cut to the product of its domains), nor
is a triple on a shrunken domain: at the fixpoint of the rest neither
would shrink anything.  There, every table on the scope of a constraint
is a projection of its tuples (a default pair holds it); a pair that no
constraint covers was materialized by a triple whose two other pairs
were, and each materialized pair of a triple is its projection.  By
induction on the order of materialization, every materialized pair
projects onto exactly the domains of its variables; a materialized triple
has a materialized pair on each variable, so it lies in the domains and
its join keeps it.

Every write to a table is one cut (`_cut`) to a subset of it: the table
shrinks exactly when the subset is smaller, and a default pair's size is
|D_a|*|D_b|, with no product built.  A constraint revision projects tuples
that every table on its scope filtered, so each projection lies in its
table, and in the join of a triple with no table yet, as default pairs are
products of domains.  The join is the set of triples over D_c whose pairs
lie in their tables, so a triple revision gets triple & join by keeping
the tuples whose pairs lie in the materialized pairs and whose values lie
in the domains that the join reads; the projections of that lie in the
pairs.  Only a candidate triple's first revision builds the join.  A
triple with no table yet takes a constraint's projection unmeasured and
queues its readers.

The filters are monotone, so the fixpoint does not depend on the order of
revision, and queueing a revision too many is safe.  Tables are replaced,
never mutated, so a trail of replaced values can undo a branch (`mark` /
`undo`).

Before any revision, a fresh engine cuts its domains and its constraints'
tuples to generalized arc consistency, reading only the domains: each
constraint keeps its tuples inside the domains and cuts each domain to
their projection, until nothing moves; a constraint left with no tuple
fails the engine.  Every constraint stays fresh and queued.  The fixpoint
is the same: at it the tuples of each constraint lie in the domains and
each domain is their projection (the tables on a constraint's scope are
its projections, above), so it lies below every state the phase reaches,
and the filters are monotone, so from there the revisions reach it
again.  Fewer tables get materialized: a constraint's first revision
projects onto domains that the other constraints have already cut, so a
pair whose projection is the product of the arc-consistent domains stays
a default pair, and no candidate triple is queued for it.

The engine at its fixpoint is the one carrier of a node's tables:
`establish_3_minimality` returns it beside the pruned instance, and the
base solvers assign on it.
"""

from __future__ import annotations

import itertools
from collections import deque
from operator import itemgetter
from typing import Iterable, Optional

from .errors import InvalidArgumentError
from .model import Constraint, Instance, Relation

VarSet = tuple
_MISSING = object()
# a triple's pairs, by position, and getters of its values on them
_PAIR_POS = ((0, 1), (0, 2), (1, 2))
_GET = {pos: itemgetter(*pos) for pos in ((0,), (1,), (2,), *_PAIR_POS)}


class Propagator:
    """Worklist fixpoint engine behind establish_3_minimality.  A revision
    is a constraint's index (each starts queued) or a triple's key."""

    def __init__(self, inst: Instance):
        self.inst = inst
        self.variables = inst.variables
        self._order = {v: i for i, v in enumerate(self.variables)}
        self.doms: dict = dict(inst.domains)
        self.pairs: dict[VarSet, frozenset] = {}
        self.triples: dict[VarSet, frozenset] = {}
        # variable -> materialized pairs and triples on it (a dict: ordered)
        self.keys_on: dict = {v: {} for v in self.variables}
        self.readers: dict = {}  # variable set -> constraints on all of it
        self.subs: list[list] = []  # per constraint: [(key, getter)]
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
            for key, _get in subs:
                self.readers.setdefault(key, []).append(i)
            self.subs.append(subs)
            self.rels[i] = tuples
        # constraints whose supports were never projected onto the tables
        self.fresh: set[int] = set(self.rels)
        self.queue: deque = deque()
        self.queued: set = set()
        self._queue(self.rels)
        self.failed = False
        self.trail: Optional[list] = None
        self._arc_consistency()

    def _arc_consistency(self):
        """Cut the domains and the constraints' tuples to generalized arc
        consistency, reading only the domains: a constraint keeps its
        tuples inside the domains and cuts each domain to its projection,
        which queues the other constraints on that variable.  Fails the
        engine when a constraint has no tuple left."""
        doms, rels = self.doms, self.rels
        todo, waiting = deque(rels), set(rels)
        while todo:
            i = todo.popleft()
            waiting.discard(i)
            unary = [(key[0], get) for key, get in self.subs[i]
                     if len(key) == 1]
            kept = rels[i]
            for v, get in unary:
                dom = doms[v]
                kept = [t for t in kept if get(t) in dom]
            if not kept:
                self.failed = True
                return
            if len(kept) < len(rels[i]):
                rels[i] = frozenset(kept)
            for v, get in unary:
                proj = set(map(get, kept))
                if len(proj) < len(doms[v]):
                    doms[v] = frozenset(proj)
                    for j in self.readers[(v,)]:
                        if j != i and j not in waiting:
                            waiting.add(j)
                            todo.append(j)

    def sort_vars(self, ws: Iterable) -> VarSet:
        return tuple(sorted(set(ws), key=self._order.__getitem__))

    # -- table access -------------------------------------------------
    def pair_value(self, key: VarSet) -> frozenset:
        if key in self.pairs:
            return self.pairs[key]
        return frozenset(itertools.product(*map(self.doms.get, key)))

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
        raise InvalidArgumentError("tables exist only for 1..3 variables")

    def nontrivial_items(self):
        """Materialized (variable-set, tuple-set) pairs, pairs then triples."""
        for table in (self.pairs, self.triples):
            for key in sorted(table, key=lambda k: [*map(self._order.get, k)]):
                yield key, table[key]

    # -- scheduling ---------------------------------------------------
    def _queue(self, revisions: Iterable, cause=None):
        queued = self.queued
        for r in revisions:
            if r not in queued and r != cause:
                queued.add(r)
                self.queue.append(r)

    def _schedule(self, key: VarSet, cause=None):
        """Queue the listed readers of the table on `key`, which the
        revision `cause` (None: an `assign`) cut."""
        todo = list(self.readers.get(key, ()))
        if len(key) == 2:
            a, b = key
            thirds = [w for k in self.keys_on[a] if len(k) == 2 or b in k
                      for w in k if w != a and w != b]
            thirds += [w for k in self.keys_on[b] if len(k) == 2
                       for w in k if w != a and w != b]
            todo += [self.sort_vars((a, b, x)) for x in dict.fromkeys(thirds)]
        self._queue(todo, cause)

    # -- writes -------------------------------------------------------
    def _store(self, table: dict, k, value):
        if self.trail is not None:
            self.trail.append((table, k, table.get(k, _MISSING)))
        table[k] = value

    def _cut(self, key: VarSet, allowed, cause):
        """Replace the table on `key` by `allowed`, a subset of it, in the
        revision `cause` (None: an `assign`), if that shrinks it; then
        queue the table's readers.  A triple with no table yet takes
        `allowed` unmeasured, as its join is never built here."""
        table = (self.doms, self.pairs, self.triples)[len(key) - 1]
        k = key[0] if len(key) == 1 else key
        if k in table:
            if len(allowed) >= len(table[k]):
                return
        else:  # a default pair, or a triple with no table yet
            if len(key) == 2 and len(allowed) >= (
                    len(self.doms[key[0]]) * len(self.doms[key[1]])):
                return
            for v in key:
                self.keys_on[v][key] = None
        self._store(table, k, frozenset(allowed))
        self.failed = self.failed or not allowed
        self._schedule(key, cause)

    # -- revisions ----------------------------------------------------
    def _revise_constraint(self, i: int):
        tuples = kept = self.rels[i]
        subs = self.subs[i]
        for key, get in subs:
            table = (self.doms[key[0]] if len(key) == 1 else
                     (self.pairs if len(key) == 2 else self.triples).get(key))
            if table is not None:
                kept = [t for t in kept if get(t) in table]
        if len(kept) < len(tuples):
            self._store(self.rels, i, frozenset(kept))
            self.failed = not kept
        elif i not in self.fresh:
            return
        for key, get in subs:
            if self.failed:
                return
            self._cut(key, set(map(get, kept)), i)
        self.fresh.discard(i)

    def _revise_triple(self, key: VarSet):
        kept = self.triples.get(key)
        if kept is None:  # a candidate triple's first revision
            kept = self._join(key)
        else:  # triple & join, checked against what the join reads
            checks = {}
            for pos in _PAIR_POS:
                pair = self.pairs.get(tuple(key[p] for p in pos))
                if pair is None:
                    checks.update({(p,): self.doms[key[p]] for p in pos})
                else:
                    checks[pos] = pair
            checks[(2,)] = self.doms[key[2]]
            for pos, table in checks.items():
                get = _GET[pos]
                kept = [t for t in kept if get(t) in table]
        self._cut(key, kept, key)
        if self.failed:
            return
        val = self.triples[key]
        for pos in _PAIR_POS:
            self._cut(tuple(key[p] for p in pos), set(map(_GET[pos], val)),
                      key)

    def run(self) -> bool:
        """Propagate to the global fixpoint; False means inconsistent."""
        queue, queued = self.queue, self.queued
        while queue and not self.failed:
            r = queue.popleft()
            queued.discard(r)
            if type(r) is int:
                self._revise_constraint(r)
            else:
                self._revise_triple(r)
        return not self.failed

    def assign(self, v, a) -> bool:
        """Restrict a variable to one value and re-propagate."""
        if a not in self.doms[v]:
            return False
        self._cut((v,), {a}, None)
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
                    del self.keys_on[v][k]
            else:
                table[k] = old
        self.queue.clear()
        self.queued.clear()
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
                                       Relation(len(sig), tuples, sig)))
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
