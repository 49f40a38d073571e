"""Compact-representation solver for instances with a Maltsev polymorphism.

Used by the semilattice-free base solver on domains whose pairs are all
affine: there the derived ternary operation m satisfies m(x,y,y) = x and
m(y,y,x) = x on every domain, and every constraint relation is closed under
componentwise m.

A relation R over coordinates 0..n-1 is handled through a *representation*
(Bulatov & Dalmau, "A simple algorithm for Mal'tsev constraints", 2006): a
subset of R holding, for every position q and values a, b, a witness pair
of tuples agreeing before q and valued a, b at q whenever R has one.  Such
a subset walks any tuple of R to any other, t -> m(t, w, w'), one position
at a time, so it generates R and decides membership.  A pair at q leaves
the positions before q alone, so the points of R on a few positions O,
pr_O(R), are the closure of one tuple's point under all of R's pairs, and
the tuples of R sharing t's first q values are the closure of t under the
pairs at positions >= q.  `_Walks` searches these closures on O.

`restrict` builds a representation of R ∩ C exactly.  It rests on
rectangularity: if tuples of R with prefix p take values a and b at q, and
one with prefix p' takes a, then m(p'a.., pa.., pb..) gives p' the value b.
So the values at q fall into blocks, one per prefix, equal or disjoint.
Position by position, `restrict` finds one tuple of R ∩ C in every block:
walking a tuple g of R ∩ C through the output's witness pairs before q
reaches every prefix, so the values those pairs give g[q] meet every block.
Then it completes the block of each such tuple t: a value b of t's block in
R stays iff the fiber of u = m(t, w, w'), for R's witness pair (w, w') of
(q, t[q], b), meets C; the fiber is the tuples of R sharing u's first q+1
values.  It is the closure of u under R's witness pairs at positions after
q, and on the scope it has at most |dom|^|scope| points.  The same closure
over all of R's pairs is pr_scope(R) and finds g.  When R's first row
already lies in C, `restrict` also searches it for a point outside C and
returns R itself when there is none.

`extend` builds a representation of the join {(r, f) : r in R, (r|O, f) in
C} of R with a constraint C on some of R's positions O and k new ones,
placed last, when pr_O(R) lies in pr_O(C).  It is exact.  Each row r of R
gets one completion f with (r|O, f) in C, so the rows lie in the join and
keep their indices.  The join projects onto R, and two of its tuples that
agree before an old position q project to two tuples of R that do; so the
join's signature at q is R's, and R's witness pairs, completed, stay
witness pairs.  Two tuples of the join that agree before a new position
share r, so they lie in {r} x C_p for the fiber C_p = {f : (p, f) in C}
over p = r|O: the join's signature there is the union over p in pr_O(R)
of the fibers' signatures.  So for each such p, one tuple r of R over p
and, in each block of C_p (its tuples sharing the values before the new
position, one per value there), the completions r + f give witness pairs
for every two values of the block.  Blocks whose values and pairs are
catalogued already are skipped, and when every block of every fiber of C
is, pr_O(R) is not searched.

`solve_with_maltsev` grows the representation with the constraints.  Its
positions are the caller's coordinates in the order the constraints, as
taken (below), first reach them.  It starts from the relation on zero
coordinates, whose one row is empty.  For each constraint C, with O the
coordinates of its scope already in the representation, it first cuts R
to pr_O(C) with `restrict`, unless pr_O(C) holds every point of the
product of the values R takes on O, and then joins the result with C by
`extend` when C reaches new coordinates.  The two steps give R x D^new ∩
C, for the domains D of the new coordinates, as C is first cut to them.
So `restrict` walks only the coordinates seen so far and runs only when a
constraint cuts them, and a constraint that reaches new coordinates
through a full product on the old ones only extends R.  Coordinates in no
scope take their least value.

The constraints are taken fewest new coordinates first: the next one is
the pending constraint whose scope holds the fewest coordinates not yet
in the representation, the earliest in the caller's order on a tie.  The
order is free, since intersection commutes and the answer is the
intersection of all constraints.  It is cheaper because each `restrict`
and `extend` rebuilds every row of R: a constraint that reaches no new
coordinate runs on a representation that has not grown, and the
constraints of a dense subsystem meet before the rest is joined, so a
contradiction among them empties R at the size of that subsystem.  Taken
in the caller's order, a random 3-XOR system has over half of its
coordinates in R after a third of its constraints, and every later
constraint rebuilds them.
"""

from __future__ import annotations

from math import prod
from typing import Callable, Iterable, Optional, Sequence

Row = tuple[int, ...]


def m_apply(m: Sequence, x: Row, y: Row, z: Row) -> Row:
    return tuple([m[a][b][c] for a, b, c in zip(x, y, z)])


def _step(m: Sequence, t: Row, w: Row, w2: Row, q: int) -> Row:
    """m(t, w, w2) for a pair agreeing before q: t keeps its first q values."""
    return t[:q] + m_apply(m, t[q:], w[q:], w2[q:])


class Representation:
    """Rows, a witness catalog keyed by (position, value-at, value-to),
    and the values the rows take at each position."""

    def __init__(self, n: int):
        self.n = n
        self.rows: list[Row] = []
        self.catalog: dict[tuple[int, int, int], tuple[int, int]] = {}
        self.values: list[set[int]] = [set() for _ in range(n)]
        self._index: dict[Row, int] = {}

    @property
    def empty(self) -> bool:
        return not self.rows

    def _insert(self, row: Row) -> int:
        idx = self._index.get(row)
        if idx is None:
            idx = self._index[row] = len(self.rows)
            self.rows.append(row)
        return idx

    def add_block(self, q: int, rows: Sequence[Row]):
        """Insert rows that agree before q and differ at q, cataloguing
        every pair of them as witnesses at q."""
        idx = [self._insert(row) for row in rows]
        self.values[q].update([t[q] for t in rows])
        for i, t in zip(idx, rows):
            for j, u in zip(idx, rows):
                if i != j:
                    self.catalog[(q, t[q], u[q])] = (i, j)

    def catalogued(self, q: int, values: Iterable[int]) -> bool:
        """Whether the rows take every one of the values at q and the
        catalog holds a witness pair for every two of them."""
        values = set(values)
        return values <= self.values[q] and all(
            (q, a, b) in self.catalog for a in values for b in values
            if a != b)


class _Walks:
    """R's witness pairs acting on R's points on the positions `coords`.

    Only the distinct actions on those points count, and the pairs at
    positions >= lo are actions[:upto[lo]]; past the last of the positions
    they are the identity."""

    def __init__(self, rep: Representation, coords: Sequence[int],
                 m: Sequence):
        self.coords, self.m = coords, m
        actions: dict[tuple[Row, Row], tuple[Row, Row]] = {}
        self.upto = [0] * (rep.n + 1)
        for p in range(max(coords, default=-1), -1, -1):
            for a in rep.values[p]:
                for b in rep.values[p]:
                    hit = rep.catalog.get((p, a, b))
                    if hit is not None:
                        w, w2 = rep.rows[hit[0]], rep.rows[hit[1]]
                        actions.setdefault((self.point(w), self.point(w2)),
                                           (w, w2))
            self.upto[p] = len(actions)
        self.actions = list(actions.items())

    def point(self, t: Row) -> Row:
        return tuple([t[p] for p in self.coords])

    def search(self, start: Row, lo: int, goal: Callable[[Row], bool]):
        """Breadth-first search over the points that R's pairs at >= lo
        reach from start's: the tree grown (each point's parent point and
        pair, None at the root) and the first point meeting `goal`, or
        None when no point does."""
        m = self.m
        tree = {self.point(start): None}
        queue = list(tree)
        actions = self.actions[:self.upto[lo]]
        for x in queue:
            if goal(x):
                return tree, x
            for (a, b), pair in actions:
                y = tuple([m[xi][ai][bi] for xi, ai, bi in zip(x, a, b)])
                if y not in tree:
                    tree[y] = (x, pair)
                    queue.append(y)
        return tree, None

    def walk(self, start: Row, tree: dict, x: Row) -> Row:
        """The tuple of R that the tree's pairs walk start to: its point
        is x."""
        path = []
        while tree[x] is not None:
            x, pair = tree[x]
            path.append(pair)
        for pair in reversed(path):
            start = m_apply(self.m, start, *pair)
        return start


def _fibers(scope: Sequence[int], allowed: Iterable[Row],
            n: int) -> dict[Row, list[Row]]:
    """The constraint `allowed` on `scope` as a map from its points on its
    positions below n to the sorted tuples it allows on the others, each
    in ascending position order.  Tuples giving a position that the scope
    repeats two values are left out."""
    first: dict[int, int] = {}
    for i, p in enumerate(scope):
        first.setdefault(p, i)
    old = [first[p] for p in sorted(first) if p < n]
    new = [first[p] for p in sorted(first) if p >= n]
    repeats = [(i, first[p]) for i, p in enumerate(scope) if i != first[p]]
    if repeats:
        allowed = [t for t in allowed
                   if all(t[i] == t[j] for i, j in repeats)]
    fibers: dict[Row, list[Row]] = {}
    for t in allowed:
        fibers.setdefault(tuple([t[i] for i in old]), []).append(
            tuple([t[i] for i in new]))
    return {x: sorted(fiber) for x, fiber in fibers.items()}


def _blocks(fiber: Sequence[Row], n: int
            ) -> Iterable[tuple[int, dict[int, Row]]]:
    """(n + i, block) for each index i of the fiber's tuples and each block
    there: the tuples sharing their values before i, one per value at i,
    keyed by that value."""
    for i in range(len(fiber[0])):
        blocks: dict[Row, dict[int, Row]] = {}
        for f in fiber:
            blocks.setdefault(f[:i], {}).setdefault(f[i], f)
        for block in blocks.values():
            yield n + i, block


def restrict(rep: Representation, scope: Sequence[int],
             allowed: Iterable[Row], m: Sequence) -> Representation:
    """Representation of {t in R : t[scope] in allowed} from one of R."""
    out = Representation(n=rep.n)
    if rep.empty:
        return out
    allowed = frozenset(tuple(t) for t in allowed)
    coords = sorted(set(scope))
    pick = [coords.index(s) for s in scope]
    walks = _Walks(rep, coords, m)

    def fits(point: Row) -> bool:
        return tuple([point[i] for i in pick]) in allowed

    def reach(start: Row, lo: int) -> Optional[Row]:
        """A tuple of C in the closure of start under R's pairs at >= lo."""
        tree, hit = walks.search(start, lo, fits)
        return None if hit is None else walks.walk(start, tree, hit)

    pairs_from: dict[tuple[int, int], list[tuple[Row, Row]]] = {}
    for (p, a, _b), (i, j) in rep.catalog.items():
        pairs_from.setdefault((p, a), []).append((rep.rows[i], rep.rows[j]))
    g = reach(rep.rows[0], 0)
    if g is None:
        return out
    # When no point of pr_scope(R) lies outside C, R ∩ C = R.  A walk to g
    # that moved started outside C.
    if g == rep.rows[0] and walks.search(
            g, 0, lambda x: not fits(x))[1] is None:
        return rep
    links: list[tuple[Row, Row]] = []  # the output's witness pairs so far
    for q in range(rep.n):
        below, everything, covered = len(links), rep.values[q], set()
        found, todo, moves = {g[q]: g}, [g[q]], None
        while todo and covered != everything:
            a = todo.pop()
            t = found[a]
            if a not in covered:
                block = [t]
                for w, w2 in pairs_from.get((q, a), ()):
                    u = w2 if w is t else _step(m, t, w, w2, q)  # m(t,t,w2)=w2
                    u = u if fits(walks.point(u)) else reach(u, q + 1)
                    if u is not None:
                        block.append(u)
                out.add_block(q, block)
                links.extend((t, u) for u in block[1:])
                covered.update(u[q] for u in block)
                if covered == everything:
                    break
            if moves is None:
                moves = {}
                for w, w2 in links[:below]:
                    moves.setdefault((w[q], w2[q]), (w, w2))
                    moves.setdefault((w2[q], w[q]), (w2, w))
            for w, w2 in moves.values():
                b = m[a][w[q]][w2[q]]
                if b not in found:
                    found[b] = m_apply(m, t, w, w2)
                    todo.append(b)
    return out


def extend(rep: Representation, old: Sequence[int],
           fibers: dict[Row, list[Row]], m: Sequence) -> Representation:
    """Representation of {(r, f) : r in R, f in fibers[r|O]} from one of R.

    O is `old`, ascending positions of R, and `fibers` is a constraint's
    `_fibers`: f gives the new positions rep.n, rep.n + 1, ...  Every point
    of R on O must be a key of `fibers`, which is not empty; `restrict`
    cuts R to them."""
    out = Representation(n=rep.n + len(next(iter(fibers.values()))[0]))
    if rep.empty:
        return out
    for row in rep.rows:
        out._insert(row + fibers[tuple([row[p] for p in old])][0])
    out.catalog = dict(rep.catalog)
    out.values[:rep.n] = map(set, rep.values)
    for q in range(rep.n, out.n):
        out.values[q] = {row[q] for row in out.rows}

    todo = {x: [(q, block) for q, block in _blocks(fiber, rep.n)
                if not out.catalogued(q, block)]
            for x, fiber in fibers.items()}
    if not any(todo.values()):
        return out
    walks = _Walks(rep, old, m)
    start = rep.rows[0]
    tree, _ = walks.search(start, 0, lambda x: False)
    for x in tree:
        base = None
        for q, block in todo[x]:
            if not out.catalogued(q, block):
                if base is None:
                    base = walks.walk(start, tree, x)
                out.add_block(q, [base + f for f in block.values()])
    return out


def _covers(rep: Representation, coords: Sequence[int],
            points: Iterable[Row]) -> bool:
    """Whether `points` holds every point of the product of the values R
    takes on coords."""
    values = [rep.values[p] for p in coords]
    inside = sum(all(a in v for a, v in zip(x, values)) for x in points)
    return inside == prod(map(len, values))


def solve_with_maltsev(domains: Sequence[Sequence[int]],
                       constraints: Sequence[tuple[Sequence[int], Iterable[Row]]],
                       m: Sequence) -> Optional[Row]:
    """Solve a positional CSP whose relations are all closed under m.

    `constraints` pair coordinate lists with allowed-tuple sets.  Returns a
    solution tuple or None.  The constraints are taken fewest new
    coordinates first, and the representation grows with them: its
    positions are the caller's coordinates in the order they first appear
    in a scope taken.
    """
    if any(len(d) == 0 for d in domains):
        return None
    within = [set(d) for d in domains]
    position: dict[int, int] = {}  # caller's coordinate -> position
    # fresh[j]: coordinates of constraint j not yet in the representation
    fresh = [len(set(scope)) for scope, _ in constraints]
    reaching: dict[int, list[int]] = {}  # coordinate -> constraints on it
    for j, (scope, _) in enumerate(constraints):
        for c in set(scope):
            reaching.setdefault(c, []).append(j)
    rep = Representation(n=0)
    rep._insert(())
    pending = list(range(len(constraints)))
    while pending:
        j = min(pending, key=fresh.__getitem__)
        pending.remove(j)
        scope, allowed = constraints[j]
        new = [i for i, c in enumerate(scope) if c not in position]
        if new:
            allowed = [t for t in allowed
                       if all(t[i] in within[scope[i]] for i in new)]
        for c in scope:
            if c not in position:
                position[c] = len(position)
                for k in reaching[c]:
                    fresh[k] -= 1
        at = [position[c] for c in scope]
        fibers = _fibers(at, allowed, rep.n)
        old = sorted({p for p in at if p < rep.n})
        if not _covers(rep, old, fibers):
            rep = restrict(rep, old, fibers, m)
            if rep.empty:
                return None
        if new:
            rep = extend(rep, old, fibers, m)
    row = min(rep.rows)
    return tuple([row[position[c]] if c in position else min(domains[c])
                  for c in range(len(domains))])
