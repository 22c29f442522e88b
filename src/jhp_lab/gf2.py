"""
Linear algebra over the two-element field, with vectors as Python ints.

A vector in F2^n is an int whose bit k is coordinate k (0 <= k < n).
A subspace is kept in reduced row echelon form: a tuple of nonzero row
vectors with strictly increasing pivots, each pivot column cleared in the
other rows.  Echelon tuples are canonical, so they double as dict keys.

A linear map F2^a -> F2^b is a tuple of `a` column vectors, each an int
over the `b` target coordinates.
"""
from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

Vec = int
Echelon = tuple[int, ...]
Cols = tuple[int, ...]


def pivot(v: Vec) -> int:
    """Index of the lowest set bit of a nonzero vector."""
    return (v & -v).bit_length() - 1


def rref(vectors: Iterable[Vec]) -> Echelon:
    """Reduced row echelon form of the span of `vectors`."""
    rows: list[int] = []
    for v in vectors:
        for r in rows:
            if v >> pivot(r) & 1:
                v ^= r
        if v:
            for i, r in enumerate(rows):
                if r >> pivot(v) & 1:
                    rows[i] = r ^ v
            rows.append(v)
    rows.sort(key=pivot)
    return tuple(rows)


def reduce_vec(rows: Iterable[Vec], v: Vec) -> Vec:
    """Residual of v after elimination against echelon rows."""
    for r in rows:
        if v >> pivot(r) & 1:
            v ^= r
    return v


def in_span(rows: Iterable[Vec], v: Vec) -> bool:
    return reduce_vec(rows, v) == 0

def contains(big: Echelon, small: Echelon) -> bool:
    """Is span(small) a subspace of span(big)?"""
    return all(in_span(big, r) for r in small)


def coords_in_span(rows: Echelon, v: Vec) -> Vec:
    """Coefficient mask c with v = XOR of rows[k] over set bits k of c.

    `v` must lie in the span; raises ValueError otherwise.
    """
    c = 0
    for k, r in enumerate(rows):
        if v >> pivot(r) & 1:
            v ^= r
            c |= 1 << k
    if v:
        raise ValueError("vector not in span")
    return c


def rank(vectors: Iterable[Vec]) -> int:
    """Dimension of the span, by elimination on the lowest set bit."""
    rows: dict[int, Vec] = {}  # lowest set bit -> the kept row with it
    for v in vectors:
        while v:
            low = v & -v
            r = rows.get(low)
            if r is None:
                rows[low] = v
                break
            v ^= r
    return len(rows)


def apply_cols(cols: Cols, v: Vec) -> Vec:
    """Apply the map with columns `cols` to the vector v."""
    w = 0
    while v:
        low = v & -v
        w ^= cols[low.bit_length() - 1]
        v ^= low
    return w


def compose_cols(outer: Cols, inner: Cols) -> Cols:
    """Columns of outer o inner."""
    return tuple(apply_cols(outer, c) for c in inner)


def identity_cols(n: int) -> Cols:
    return tuple(1 << k for k in range(n))


def subspaces(n: int) -> Iterator[Echelon]:
    """All subspaces of F2^n, one canonical echelon tuple each.

    Enumerates reduced echelon forms directly: choose pivot columns, then
    fill the free entries (positions right of the own pivot and outside the
    pivot columns) in all ways.
    """
    for r in range(n + 1):
        for pivots in combinations(range(n), r):
            free = [
                [c for c in range(p + 1, n) if c not in pivots]
                for p in pivots
            ]
            slots = [(t, c) for t, cs in enumerate(free) for c in cs]
            for fill in range(1 << len(slots)):
                rows = [1 << p for p in pivots]
                for k, (t, c) in enumerate(slots):
                    if fill >> k & 1:
                        rows[t] |= 1 << c
                yield tuple(rows)


def nullity(rows: list[Vec], unknowns: int) -> int:
    """Dimension of the solution space of the homogeneous system `rows`."""
    return unknowns - rank(rows)


def nullspace(rows: list[Vec], unknowns: int) -> list[Vec]:
    """Basis of the solution space of the homogeneous system."""
    ech = rref(rows)
    pivots = {pivot(r) for r in ech}
    basis = []
    for j in range(unknowns):
        if j in pivots:
            continue
        v = 1 << j
        for r in ech:
            if r >> j & 1:
                v |= 1 << pivot(r)
        basis.append(v)
    return basis


def invertible(cols: Cols, dim: int) -> bool:
    return len(cols) == dim and rank(cols) == dim
