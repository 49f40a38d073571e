"""Search for conservative operation tables preserving given relations.

A candidate k-ary operation is a table assigning to each k-tuple of
elements one of its own entries (conservativity; idempotency follows on
constant tuples).  Preserving a relation R means: for every k-tuple of rows
of R, the componentwise image is again in R.  Each non-constant row
combination yields one constraint linking the table cells found in its
columns.

`Network` compiles these constraints once per (relations, arity).  The
cells of every row combination are built column by column: per position
of R, one product of that position's values gives the cells there, with
their constant values.  Constant cells are substituted, repeated cells
merged, one-cell constraints folded into the cell domains, and the
constraints reduced alike share one cut map: the domains of their cells
-> per cell, the values of the rows lying in those domains, filled on
first use.  A search pins some cells and assigns the rest in a fixed
most-constrained-first order, maintaining arc consistency (MAC): each
constraint revised cuts its cells' domains to its cut of them, and fails
when no row is left.  Pruning only removes dead subtrees, so the table
found is the first one in the static cell and value order.  A network
searches each pin set once and answers a repeat from its memo.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from operator import itemgetter, or_
from typing import Iterable, Optional, Sequence

from .errors import InvalidArgumentError
from .model import Relation

Cell = tuple[int, ...]


def _options(cell: Cell) -> tuple[int, ...]:
    """Conservative values of a cell, first argument first."""
    return tuple(dict.fromkeys(cell))


def _cell_order_key(cell: Cell) -> tuple:
    return (len(set(cell)), cell)


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
    """A row combination's constraint once its constant cells (consts[p]
    the value, else None) are substituted and each cell repeated at
    position p (first seen at repeats[p]) is merged.

    None if no row fits.  Else (number of cells left, getter of those cells
    from the combination's cells, allowed): allowed is the bitmask of the
    values left when one cell is left, otherwise the `_Cuts` of the rows
    over the cells left.
    """
    slots = [p for p, q in enumerate(repeats) if p == q and consts[p] is None]
    checks = list(enumerate(zip(repeats, consts)))
    fits = [t for t in rows if all(t[p] == (t[q] if c is None else c)
                                   for p, (q, c) in checks)]
    if not fits:
        return None
    if len(slots) == 1:
        allowed = sum({1 << t[slots[0]] for t in fits})
    else:
        allowed = _Cuts({tuple(1 << t[p] for p in slots) for t in fits})
    return len(slots), itemgetter(*slots), allowed


class Network:
    """Preservation constraints of `relations` on conservative k-ary tables.

    Built once and searched under any number of `pinned` cell sets; it
    keeps the arc-consistent domains without pins, found by its first
    search, and the table found for each pin set, so it must not outlive
    the relations it was compiled from.
    """

    def __init__(self, size: int, arity: int, relations: Sequence[Relation]):
        self.size, self.arity = size, arity
        self.grid = list(itertools.product(range(size), repeat=arity))
        # Constant cells keep their one value; the others are searched.
        constant = {c: c[0] for c in self.grid if len(set(c)) == 1}
        self.feasible = True
        unary = []  # (cell, bitmask of its values allowed)
        scopes = []  # (cells, cuts of the rows allowed over them)
        for rel in {id(rel): rel for rel in relations if rel.tuples}.values():
            rows = rel.sorted_tuples()
            reduced: dict = {}  # by constants and repeats of the cells
            # Per position, the cells of every row combination in turn.
            columns = [list(itertools.product(column, repeat=arity))
                       for column in zip(*rows)]
            for cells, consts in zip(zip(*columns), zip(*(
                    map(constant.get, column) for column in columns))):
                if None not in consts:  # one row repeated
                    continue
                key = (consts, tuple(map(cells.index, cells)))
                if key not in reduced:
                    reduced[key] = _reduce(rows, *key)
                found = reduced[key]
                if found is None:
                    self.feasible = False
                    continue
                left, pick, allowed = found
                (unary if left == 1 else scopes).append((pick(cells), allowed))
        degree = Counter(cell for cell, _mask in unary)
        degree.update(itertools.chain.from_iterable(
            cells for cells, _cuts in scopes))

        # Searched cells in the static order, most constrained first, then
        # the constant cells.
        order = sorted((c for c in self.grid if c not in constant),
                       key=lambda c: (-degree[c], _cell_order_key(c)))
        self.searched = len(order)
        order += constant
        self.index = index = {c: i for i, c in enumerate(order)}
        self.options = [_options(c) for c in order]
        self.domains = [sum(1 << v for v in opts) for opts in self.options]
        self.start = [opts[0] for opts in self.options]
        for cell, mask in unary:
            self.domains[index[cell]] &= mask
        # (scope in search order, cuts), and per cell the constraints on
        # it; constraints reduced alike share their cuts
        self.constraints = [(tuple(map(index.__getitem__, cells)), cuts)
                            for cells, cuts in scopes]
        self.on_cell: list[list[int]] = [[] for _ in order]
        for k, (scope, _cuts) in enumerate(self.constraints):
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
        trail: list[tuple[int, int]] = []
        tried = [0] * (self.searched + 1)  # next option index per cell
        marks = [0] * (self.searched + 1)  # trail length on reaching a cell
        cell = 0
        while cell < self.searched:
            while len(trail) > marks[cell]:
                c, old = trail.pop()
                dom[c] = old
            options, mask, k = self.options[cell], dom[cell], tried[cell]
            while k < len(options) and not mask >> options[k] & 1:
                k += 1
            if k == len(options):
                if cell == 0:
                    return False
                cell -= 1
                continue
            tried[cell] = k + 1
            val[cell] = v = options[k]
            if mask != 1 << v:  # a domain of one value is propagated already
                trail.append((cell, mask))
                dom[cell] = 1 << v
                if not self._propagate(dom, self.on_cell[cell], trail):
                    continue
            cell += 1
            tried[cell] = 0
            marks[cell] = len(trail)
        return True

    def search(self, pinned: dict[Cell, int]) -> Optional[dict[Cell, int]]:
        """The first conservative table preserving the relations, or None.
        Every pinned cell must be a cell of the table.  Each pin set is
        searched once; every call gets its own copy of the table."""
        key = frozenset(pinned.items())
        if key not in self._found:
            self._found[key] = self._search(pinned)
        table = self._found[key]
        return None if table is None else dict(table)

    def _search(self, pinned: dict[Cell, int]) -> Optional[dict[Cell, int]]:
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
            if not (self.feasible and all(dom) and self._propagate(
                    dom, range(len(self.constraints)), [])):
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
        index = self.index
        return {c: val[index[c]] for c in self.grid}


def search_operation(network: Network, pinned: dict[Cell, int]
                     ) -> Optional[dict[Cell, int]]:
    """Find a conservative table preserving the network's relations, or
    None.  `pinned` fixes chosen cells (values must be conservative); free
    cells try their first argument first."""
    return network.search(pinned)


def table_from_assignment(size: int, arity: int, assignment: dict[Cell, int]):
    """Materialize a nested-tuple table from a full cell assignment."""
    nested = [assignment[cell]
              for cell in itertools.product(range(size), repeat=arity)]
    for _ in range(arity):
        nested = [tuple(nested[i:i + size]) for i in range(0, len(nested), size)]
    return nested[0]
