"""Search for conservative operation tables preserving given relations.

A candidate k-ary operation is a table assigning to each k-tuple of
elements one of its own entries (conservativity; idempotency follows on
constant tuples).  Preserving a relation R means: for every k-tuple of rows
of R, the componentwise image is again in R.  Each non-constant row
combination links the table cells found in its columns; it becomes a
constraint only when it can cut.

`Network` compiles these constraints once per (relations, arity), naming
each cell by its index in the grid of cells.  The cells of every row
combination are built column by column: per position of R, one product of
that position's values gives the cells there, with their constant values.
Constant cells are substituted and repeated cells merged; the rows of R
fitting those cells, over the cells left, are the combination's
reduction.  Two kinds of reduction can never cut a domain, and build no
constraint:

- one cell left.  A combination's own rows fit its reduction: row i
  holds at position p the i-th entry of that position's cell, so the value
  of a constant cell, and equal values at repeated cells.  The values left
  thus include every conservative value of the cell, and its domain holds
  no other.
- more cells, whose rows are the product of their projections.  Each
  cell's conservative values are values of the combination's own rows
  there, so every combination of them is a row.  Domains hold only
  conservative values and never empty, so the rows inside any domains
  give back the domains.

Both kinds still count toward the degree of their cells, so the static
cell order is the one all non-constant combinations give.  The
constraints reduced alike share one cut map: the domains of their cells
-> per cell, the values of the rows lying in those domains, filled on
first use.  A search pins some cells and assigns the rest in a fixed
most-constrained-first order, maintaining arc consistency (MAC): each
constraint revised cuts its cells' domains to its cut of them, and fails
when no row is left.  Pruning only removes dead subtrees, so the table
found is the first one in the static cell and value order, returned as
the nested table of `model`.  A network searches each pin set once and
answers a repeat from its memo.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter, deque
from operator import itemgetter, or_
from typing import Iterable, Optional, Sequence

from .errors import InvalidArgumentError
from .model import Relation, nest

Cell = tuple[int, ...]


def _options(cell: Cell) -> tuple[int, ...]:
    """Conservative values of a cell, first argument first."""
    return tuple(dict.fromkeys(cell))


class _Cuts(dict):
    """Domains of a constraint's cells, as a tuple of bitmasks -> per cell,
    the bitmask of the values of the rows lying in those domains, or None
    when no row does; filled on first use.  Each row holds, per cell, the
    one-bit mask of its value."""

    def __init__(self, rows: set[tuple[int, ...]]):
        super().__init__()
        self.rows = rows

    def __missing__(self, doms: tuple[int, ...]) -> Optional[tuple[int, ...]]:
        cut = None
        for bits in self.rows:
            for d, b in zip(doms, bits):
                if not d & b:
                    break
            else:
                cut = bits if cut is None else tuple(map(or_, cut, bits))
        self[doms] = cut
        return cut


def _reduce(rows, consts, repeats):
    """The reduction of a row combination whose cell at position p is
    constant with value consts[p] (None if not constant) and repeats the
    cell first seen at position repeats[p]: the rows agreeing with those
    constants and repeats, over the cells left.  Returns the getter of the
    tuple of cells left from the combination's cells, and the `_Cuts` of
    those rows, or None when they cannot cut: one cell is left, or they are
    the product of their projections (see the module docstring).
    """
    slots = [p for p, q in enumerate(repeats) if p == q and consts[p] is None]
    if len(slots) == 1:
        return itemgetter(slice(slots[0], slots[0] + 1)), None
    pick = itemgetter(*slots)
    checks = list(enumerate(zip(repeats, consts)))
    fits = {pick(t) for t in rows if all(t[p] == (t[q] if c is None else c)
                                         for p, (q, c) in checks)}
    if len(fits) == math.prod(len(set(column)) for column in zip(*fits)):
        return pick, None
    return pick, _Cuts({tuple([1 << v for v in t]) for t in fits})


class Network:
    """Preservation constraints of `relations` on conservative k-ary tables:
    one per non-constant row combination whose reduction can cut, while
    every non-constant combination counts toward the cell order.

    Built once and searched under any number of `pinned` cell sets; it
    keeps the arc-consistent domains without pins, found by its first
    search, and the table found for each pin set, so it must not outlive
    the relations it was compiled from.
    """

    def __init__(self, size: int, arity: int, relations: Sequence[Relation]):
        self.size, self.arity = size, arity
        self.grid = grid = list(itertools.product(range(size), repeat=arity))
        # A cell is its index in the grid.  Constant cells keep their one
        # value; the others are searched.
        distinct = [len(set(c)) for c in grid]
        constant = [c[0] if d == 1 else None for c, d in zip(grid, distinct)]
        scopes = []  # (cells, cuts) of the combinations that can cut
        inert = []  # cells of the combinations that cannot
        for rel in {id(rel): rel for rel in relations if rel.tuples}.values():
            rows = rel.sorted_tuples()
            reduced: dict = {}  # by constants and repeats of the cells
            # Per position, the cells of every row combination in turn.
            columns = []
            for column in zip(*rows):
                cells = column
                for _ in range(arity - 1):
                    cells = [c * size + v for c in cells for v in column]
                columns.append(cells)
            for cells, consts in zip(zip(*columns), zip(*(
                    map(constant.__getitem__, column) for column in columns))):
                if None not in consts:  # one row repeated
                    continue
                key = (consts, tuple(map(cells.index, cells)))
                found = reduced.get(key)
                if found is None:
                    found = reduced[key] = _reduce(rows, *key)
                pick, cuts = found
                if cuts is None:
                    inert.append(pick(cells))
                else:
                    scopes.append((pick(cells), cuts))
        degree = Counter(itertools.chain.from_iterable(inert))
        degree.update(itertools.chain.from_iterable(
            cells for cells, _cuts in scopes))

        # Searched cells in the static order, most constrained first.
        self.order = sorted((g for g, v in enumerate(constant) if v is None),
                            key=lambda g: (-degree[g], distinct[g], g))
        self.index = {c: g for g, c in enumerate(grid)}
        self.options = [_options(c) for c in grid]
        self.domains = [sum(1 << v for v in opts) for opts in self.options]
        self.start = [opts[0] for opts in self.options]
        # (scope, cuts), and per cell the constraints on it; constraints
        # reduced alike share their cuts
        self.constraints = scopes
        self.on_cell: list[list[int]] = [[] for _ in grid]
        for k, (scope, _cuts) in enumerate(scopes):
            for c in scope:
                self.on_cell[c].append(k)
        self._root: Optional[list[int]] = None  # arc consistent, unpinned
        self._found: dict = {}  # pinned items -> the table found, or None

    def _propagate(self, dom: list[int], start: Iterable[int],
                   trail: list) -> bool:
        """Arc consistency from the constraints in `start`: every value
        left in a domain lies in a row of each constraint on its cell whose
        values all lie in the domains.  False when a domain empties."""
        on_cell, constraints = self.on_cell, self.constraints
        queue = deque(start)
        waiting = set(queue)
        while queue:
            k = queue.popleft()
            waiting.discard(k)
            scope, cuts = constraints[k]
            doms = tuple([dom[c] for c in scope])
            cut = cuts[doms]
            if cut is None:
                return False
            if cut == doms:
                continue
            for c, new, old in zip(scope, cut, doms):
                if new != old:
                    trail.append((c, old))
                    dom[c] = new
                    fresh = [j for j in on_cell[c]
                             if j != k and j not in waiting]
                    waiting.update(fresh)
                    queue += fresh
        return True

    def _dfs(self, dom: list[int], val: list[int]) -> bool:
        """Assign the searched cells in order, first option first, keeping
        arc consistency; True once all are assigned (`val` holds the
        table), False if none fits."""
        order, options, on_cell = self.order, self.options, self.on_cell
        trail: list[tuple[int, int]] = []
        tried = [0] * (len(order) + 1)  # next option index per depth
        marks = [0] * (len(order) + 1)  # trail length on reaching a depth
        depth = 0
        while depth < len(order):
            while len(trail) > marks[depth]:
                c, old = trail.pop()
                dom[c] = old
            cell = order[depth]
            opts, mask, k = options[cell], dom[cell], tried[depth]
            while k < len(opts) and not mask >> opts[k] & 1:
                k += 1
            if k == len(opts):
                if depth == 0:
                    return False
                depth -= 1
                continue
            tried[depth] = k + 1
            val[cell] = v = opts[k]
            if mask != 1 << v:  # a domain of one value is propagated already
                trail.append((cell, mask))
                dom[cell] = 1 << v
                if not self._propagate(dom, on_cell[cell], trail):
                    continue
            depth += 1
            tried[depth] = 0
            marks[depth] = len(trail)
        return True

    def search(self, pinned: dict[Cell, int]) -> Optional[tuple]:
        """The first conservative table preserving the relations, as a
        nested table, or None.  Every pinned cell must be a cell of the
        table.  Each pin set is searched once; a repeat returns the
        memoized table itself, which as a tuple cannot change."""
        key = frozenset(pinned.items())
        if key not in self._found:
            self._found[key] = self._search(pinned)
        return self._found[key]

    def _search(self, pinned: dict[Cell, int]) -> Optional[tuple]:
        cut = {}  # pinned cell -> its one value as a bitmask
        for cell, want in pinned.items():
            c = self.index.get(cell)
            if c is None:
                raise InvalidArgumentError(
                    f"pinned cell {cell} is not a cell of a {self.size}-element "
                    f"{self.arity}-ary table")
            if want not in self.options[c]:
                raise InvalidArgumentError(
                    f"pinned value {want} at {cell} is not conservative")
            cut[c] = 1 << want
        if self._root is None:
            dom = list(self.domains)
            if not self._propagate(dom, range(len(self.constraints)), []):
                dom = []
            self._root = dom
        if not self._root:
            return None
        dom = list(self._root)
        queue: dict = {}  # constraints on the cells the pins cut, once each
        for c, mask in cut.items():
            if dom[c] != mask:
                if not dom[c] & mask:
                    return None
                dom[c] = mask
                queue.update(dict.fromkeys(self.on_cell[c]))
        val = list(self.start)
        if not (self._propagate(dom, queue, []) and self._dfs(dom, val)):
            return None
        return nest(val, self.size, self.arity)


def search_operation(network: Network, pinned: dict[Cell, int]
                     ) -> Optional[tuple]:
    """Find a conservative table preserving the network's relations, or
    None.  `pinned` fixes chosen cells (values must be conservative); free
    cells try their first argument first."""
    return network.search(pinned)

