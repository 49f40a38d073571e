"""Reference computations the benchmark checks ccsp's verdicts against.

Nothing here imports ccsp: the checks must stay independent of the code
they judge.  Inputs are plain Python data (ints, tuples, sets, dicts).
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

Equation = tuple[int, int, int, int]  # x_i xor x_j xor x_k = c


def gf2_solve(n: int, equations: Iterable[Equation]):
    """Gaussian elimination over GF(2).

    Returns one solution as a list of n bits, or None when the system is
    inconsistent.  Rows are int bitmasks; a pivot is a row's highest bit.
    """
    pivots: dict[int, tuple[int, int]] = {}
    for i, j, k, c in equations:
        row = (1 << i) ^ (1 << j) ^ (1 << k)
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = (row, c)
                break
            prow, pc = pivots[top]
            row ^= prow
            c ^= pc
        else:
            if c:
                return None
    # back-substitute from the lowest pivot up; free variables are 0
    bits = [0] * n
    for top in sorted(pivots):
        row, c = pivots[top]
        rest = row & ~(1 << top)
        while rest:
            low = rest & -rest
            c ^= bits[low.bit_length() - 1]
            rest ^= low
        bits[top] = c
    return bits


def parity_equations_hold(equations: Iterable[Equation],
                          bits: Sequence[int]) -> bool:
    return all(bits[i] ^ bits[j] ^ bits[k] == c for i, j, k, c in equations)


def assignment_violations(variables: Sequence, domains: Mapping,
                          constraints: Iterable[tuple[tuple, frozenset]],
                          assignment: Mapping) -> list[str]:
    """Every reason an assignment is not a solution; empty means it is one.

    Loops over every variable's domain and every constraint, with no
    shortcut through the solver's own data structures.
    """
    out = []
    for v in variables:
        if v not in assignment:
            out.append(f"{v!r} is unassigned")
        elif assignment[v] not in domains[v]:
            out.append(f"{v!r}={assignment[v]!r} leaves its domain")
    for k, (scope, tuples) in enumerate(constraints):
        if any(v not in assignment for v in scope):
            continue
        image = tuple(assignment[v] for v in scope)
        if image not in tuples:
            out.append(f"constraint {k} on {scope} rejects {image}")
    return out


def _cell(table, args: Sequence[int]) -> int:
    for a in args:
        table = table[a]
    return table


def table_violations(size: int, tables: Mapping[str, object],
                     arities: Mapping[str, int],
                     relations: Iterable[frozenset]) -> list[str]:
    """Every way the named tables fail to be conservative polymorphisms.

    A table is conservative when each cell's value is one of its
    arguments; it preserves a relation when its componentwise image of
    every choice of rows is again a row.
    """
    out = []
    rels = [frozenset(r) for r in relations if r]
    for name, table in tables.items():
        k = arities[name]
        for args in itertools.product(range(size), repeat=k):
            if _cell(table, args) not in args:
                out.append(f"{name}{args}={_cell(table, args)} "
                           "is not conservative")
        for r, rel in enumerate(rels):
            arity = len(next(iter(rel)))
            for rows in itertools.product(sorted(rel), repeat=k):
                image = tuple(_cell(table, [row[q] for row in rows])
                              for q in range(arity))
                if image not in rel:
                    out.append(f"{name} maps rows {rows} of relation {r} "
                               f"to {image}")
                    break
    return out


def one_in_three(a: int, b: int) -> frozenset:
    """The 1-in-3 relation on the pair {a, b}, with b as the 'one'.

    Only projections among the conservative operations on {a, b} preserve
    it, so by Schaefer's theorem a conservative language containing it is
    NP-complete.
    """
    if a == b:
        raise ValueError("1-in-3 needs two distinct elements")
    return frozenset({(b, a, a), (a, b, a), (a, a, b)})
