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
at a time, so it generates R and decides membership.

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

`solve_with_maltsev` grows the representation with the constraints.  Its
positions are the caller's coordinates in the order the constraints, as
taken (below), first reach them; coordinates in no scope come last.  It
starts from the relation on zero coordinates, whose one row is empty, and
before each constraint C appends the coordinates C newly reaches as a
product with their domains.  This is exact: for R = R' x D^rest with C's
scope inside the coordinates of R', R ∩ C = (R' ∩ C) x D^rest.  So
`restrict` walks only the coordinates seen so far, and a constraint's
scope sits near the end.

The constraints are taken fewest new coordinates first: the next one is
the pending constraint whose scope holds the fewest coordinates not yet
in the representation, the earliest in the caller's order on a tie.  The
order is free, since intersection commutes and the answer is the
intersection of all constraints.  It is cheaper because each `restrict`
walks every position of R: a constraint that reaches no new coordinate
runs on a representation that has not grown, and the constraints of a
dense subsystem meet before the rest is appended, so a contradiction
among them empties R at the size of that subsystem.  Taken in the
caller's order, a random 3-XOR system has over half of its coordinates in
R after a third of its constraints, and every later constraint walks them.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

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

    def add(self, row: Row) -> bool:
        """Insert a row, cataloguing its first difference with every row."""
        if row in self._index:
            return False
        idx = len(self.rows)
        for j, other in enumerate(self.rows):
            q = next((q for q, (a, b) in enumerate(zip(other, row))
                      if a != b), None)
            if q is not None:
                self.catalog.setdefault((q, other[q], row[q]), (j, idx))
                self.catalog.setdefault((q, row[q], other[q]), (idx, j))
        self._insert(row)
        for values, a in zip(self.values, row):
            values.add(a)
        return True

    def add_block(self, q: int, rows: Sequence[Row]):
        """Insert rows that agree before q and differ at q, cataloguing
        every pair of them as witnesses at q."""
        idx = [self._insert(row) for row in rows]
        self.values[q].update([t[q] for t in rows])
        for i, t in zip(idx, rows):
            for j, u in zip(idx, rows):
                if i != j:
                    self.catalog[(q, t[q], u[q])] = (i, j)


def append_coordinates(rep: Representation,
                       domains: Sequence[Sequence[int]]) -> Representation:
    """Representation of R x D_1 x ... x D_k from one of R.

    Every row of R is extended by the least value of each new domain, so
    the old rows keep their indices and their witness pairs stay valid;
    each new position gets one block through the first row."""
    if not domains:
        return rep
    out = Representation(n=rep.n + len(domains))
    tail = tuple(min(d) for d in domains)
    for row in rep.rows:
        out._insert(row + tail)
    out.catalog = dict(rep.catalog)
    out.values[:rep.n] = map(set, rep.values)
    base = out.rows[0]
    for q, dom in enumerate(domains, start=rep.n):
        out.add_block(q, [base[:q] + (a,) + base[q + 1:] for a in sorted(dom)])
    return out


def restrict(rep: Representation, scope: Sequence[int],
             allowed: Iterable[Row], m: Sequence) -> Representation:
    """Representation of {t in R : t[scope] in allowed} from one of R."""
    out = Representation(n=rep.n)
    if rep.empty:
        return out
    allowed = frozenset(tuple(t) for t in allowed)
    coords = sorted(set(scope))
    pick = [coords.index(s) for s in scope]

    def on_scope(t: Row) -> Row:
        return tuple([t[s] for s in coords])

    def fits(point: Row) -> bool:
        return tuple([point[i] for i in pick]) in allowed

    pairs_from: dict[tuple[int, int], list[tuple[Row, Row]]] = {}
    for (p, a, _b), (i, j) in rep.catalog.items():
        pairs_from.setdefault((p, a), []).append((rep.rows[i], rep.rows[j]))
    # The distinct actions on the scope of R's witness pairs at positions
    # >= p are actions[:upto[p]]; past the scope they are the identity.
    actions: dict[tuple[Row, Row], tuple[Row, Row]] = {}
    upto = [0] * (rep.n + 1)
    for p in range(max(coords, default=-1), -1, -1):
        for a in rep.values[p]:
            for w, w2 in pairs_from.get((p, a), ()):
                actions.setdefault((on_scope(w), on_scope(w2)), (w, w2))
        upto[p] = len(actions)
    actions = list(actions.items())

    def path_to(start: Row, lo: int, goal) -> Optional[list]:
        """R's pairs at >= lo that walk start to a tuple whose scope point
        meets `goal`, by breadth-first search over the scope points."""
        parent = {on_scope(start): None}
        queue = list(parent)
        for x in queue:
            if goal(x):
                path = []
                while parent[x] is not None:
                    x, pair = parent[x]
                    path.append(pair)
                return path[::-1]
            for (a, b), pair in actions[:upto[lo]]:
                y = tuple([m[xi][ai][bi] for xi, ai, bi in zip(x, a, b)])
                if y not in parent:
                    parent[y] = (x, pair)
                    queue.append(y)
        return None

    def reach(start: Row, lo: int) -> Optional[Row]:
        """A tuple of C in the closure of start under R's pairs at >= lo."""
        path = path_to(start, lo, fits)
        if path is None:
            return None
        for pair in path:
            start = m_apply(m, start, *pair)
        return start

    g = reach(rep.rows[0], 0)
    if g is None:
        return out
    # pr_scope(R) is the closure of one point under all of R's pairs: when
    # no point of it lies outside C, R ∩ C = R.  A walk to g that moved
    # started outside C.
    if g == rep.rows[0] and path_to(g, 0, lambda x: not fits(x)) is None:
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
                    u = u if fits(on_scope(u)) else reach(u, q + 1)
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
    position: dict[int, int] = {}  # caller's coordinate -> position

    def grow(rep: Representation, coords: Iterable[int]) -> Representation:
        fresh = [c for c in dict.fromkeys(coords) if c not in position]
        for c in fresh:
            position[c] = len(position)
        return append_coordinates(rep, [domains[c] for c in fresh])

    rep = Representation(n=0)
    rep.add(())
    pending = list(constraints)
    while pending:
        i = min(range(len(pending)), key=lambda j: len(
            {c for c in pending[j][0] if c not in position}))
        scope, allowed = pending.pop(i)
        rep = grow(rep, scope)
        rep = restrict(rep, [position[c] for c in scope], allowed, m)
        if rep.empty:
            return None
    rep = grow(rep, range(len(domains)))
    row = min(rep.rows)
    return tuple([row[position[c]] for c in range(len(domains))])
