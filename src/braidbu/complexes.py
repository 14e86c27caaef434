"""Discrete configuration complexes of a graph and their cyclic quotients.

A cell of the m-particle complex is an m-tuple of graph cells (vertices or
edges) whose closures are pairwise disjoint; the dimension is the number of
edge coordinates.  Facets of a cell replace one edge coordinate by one of
its endpoints.  The symmetric group acts by permuting coordinates, and
whether a tuple is a cell does not depend on the order of its coordinates.
So the complex is stored by coordinate set: ``sets_by_dim`` lists each set
once, as its ascending tuple, and ``set_key`` names the set of any ordering.
Constructing a complex checks that listing against the closed-form set
counts of ``count_sets``, so every complex a caller holds has passed it.

The cyclic subgroup generated by the full rotation acts freely on cells,
since their coordinates are distinct, and exactly one rotation of a cell
puts its smallest-key coordinate first: the orbit's representative.  So
the quotient is a view of the same sets, with nothing of its own stored: its
cells are the orderings of a set that keep the set's smallest coordinate
first, and an orbit's members are rotated out of its representative on
demand.  So one class serves both levels, and the quotient differs only
in where it puts a cell (``place``, ``project``, and ``_place_ends``, which
places an edge's ends with one rank comparison each) and which tuples it has.
The cells are listed only on demand (``cells_by_dim``, sorted;
``cells_unsorted``, streamed set by set), keeping a set's first ``fixed``
coordinates in place: none upstairs, one in the quotient.
"""
from __future__ import annotations

from collections.abc import Mapping, Sequence
from itertools import permutations
from math import comb, factorial
from operator import lt
from typing import Iterator, Optional

from .errors import InvalidParameterError, PreconditionError, StructuralError
from .graphs import Coord, Graph, find, is_sufficiently_subdivided, join
from .perms import Perm

Cell = tuple[Coord, ...]

# build_dconf refuses complexes of more than MAX_CELLS ordered cells before
# enumerating them: only the upstairs critical lists touch every ordering.
# Lollipop m=6 (7 490 160 cells) fits; m=7 is refused by its 0-cells alone
# (at least 17 297 280, ``check_room``).
MAX_CELLS = 8_000_000


def cell_dim(cell: Cell) -> int:
    return list(map(type, cell)).count(str)


def act(sigma: Perm, cell: Cell) -> Cell:
    """Coordinate action: position i of the result holds coordinate sigma(i)."""
    return tuple(cell[v - 1] for v in sigma.images)


class CubeComplex:
    """The m-particle configuration complex of a graph, stored by coordinate
    set; ``QuotientComplex`` is this class with another ``place``.

    ``sets_by_dim`` lists, per dimension and in sort order, each coordinate
    set once, as its ascending tuple.  A cell is an ordering of a set that
    keeps its first ``fixed`` coordinates in place, so each set has
    (m - fixed)! cells: every ordering here (``fixed`` is 0).  ``rank``
    numbers the graph cells in key order, ``bit`` gives each the bit of its
    rank, and ``set_key`` adds the bits of a cell's coordinates.  ``counts``
    is ``count_sets(graph, m)``, which construction checks the sets against
    (``_check_sets``).

    ``place`` puts a cell on the level, unchecked, and ``project`` is the
    covering map onto it, checked in the quotient: here both are the
    identity, unchecked, since the flow reads upstairs ends on its hot path.
    """

    fixed = 0
    # ``tuple`` of a tuple is the tuple, without a Python-level call.
    place = project = staticmethod(tuple)

    def __init__(self, graph: Graph, m: int, sets_by_dim: dict[int, tuple[Cell, ...]], counts: Sequence[int]):
        self.graph = graph
        self.m = m
        keys = graph.coord_keys
        self.rank = {c: i for i, c in enumerate(sorted(keys, key=keys.__getitem__))}
        self.bit = {c: 1 << i for c, i in self.rank.items()}
        self.sets_by_dim = sets_by_dim
        self._check_sets(counts)
        self.base: Cell = sets_by_dim[0][0]  # the smallest 0-cell in sort order

    def _check_sets(self, counts: Sequence[int]) -> None:
        """Each dimension lists ``counts[d]`` sets, each strictly ascending,
        and the list strictly increasing in sort order (compared by
        ``rank``, which keeps the key order).  So no set is listed twice,
        and a missing set leaves its dimension's count short."""
        rank, expected = self.rank.__getitem__, dict(enumerate(counts))
        for d in expected.keys() | self.sets_by_dim.keys():
            sets = self.sets_by_dim.get(d, ())
            if len(sets) != expected.get(d, 0):
                raise StructuralError(
                    f"the {d}-cells are not every ordering of their coordinate sets: "
                    f"{len(sets)} sets, {expected.get(d, 0)} by the closed form"
                )
            last: tuple[int, ...] = ()
            for c in sets:
                ranks = tuple(map(rank, c))
                if ranks <= last or not all(map(lt, ranks, ranks[1:])):
                    raise StructuralError(
                        f"the {d}-cells are not every ordering of their coordinate sets: {c!r} is out of order"
                    )
                last = ranks

    def sort_key(self, cell: Cell):
        return tuple(map(self.graph.coord_keys.__getitem__, cell))

    @property
    def cells_by_dim(self) -> dict[int, Sequence[Cell]]:
        """The cells of each dimension, listed in sort order when iterated;
        the lengths are counts."""
        return {d: _Orderings(self, d) for d in self.sets_by_dim}

    def all_cells(self) -> Iterator[Cell]:
        for d in sorted(self.sets_by_dim):
            yield from _Orderings(self, d)

    def num_cells(self, dim: int) -> int:
        return factorial(self.m - self.fixed) * len(self.sets_by_dim.get(dim, ()))

    def cells_unsorted(self, dim: int) -> Iterator[Cell]:
        """The cells of the dimension, one set at a time, made as they are
        read and not sorted."""
        fixed = self.fixed
        return (s[:fixed] + rest for s in self.sets_by_dim.get(dim, ()) for rest in permutations(s[fixed:]))

    @property
    def top_dim(self) -> int:
        return max(self.sets_by_dim)

    def set_key(self, cell: Cell) -> int:
        """The name of the cell's coordinate set, whatever their order: the
        sum of one bit per coordinate.  A repeated coordinate carries, so a
        tuple of m graph cells with a repeat has fewer than m bits set and
        names no set.  Raises KeyError on an unknown coordinate."""
        return sum(map(self.bit.__getitem__, cell))

    def has(self, cell: Cell) -> bool:
        """Whether the tuple is a cell: m graph cells whose closures are
        pairwise disjoint, tested on their vertex bit masks."""
        if len(cell) != self.m:
            return False
        masks, used = self.graph.closure_masks, 0
        for coord in cell:
            mask = masks.get(coord)
            if mask is None or used & mask:
                return False
            used |= mask
        return True

    def facets(self, cell: Cell) -> tuple[Cell, ...]:
        """The 2d codimension-one faces of the cell's projection, pairing
        each edge coordinate with its ends, placed on the level."""
        cell, place, out = self.project(cell), self.place, []
        for r, coord in enumerate(cell):
            if isinstance(coord, str):
                _, lo, hi, _, _ = self.graph.edge_by_name[coord]
                out.append(place(cell[:r] + (lo,) + cell[r + 1:]))
                out.append(place(cell[:r] + (hi,) + cell[r + 1:]))
        return tuple(out)

    def edge_endpoints(self, cell: Cell) -> tuple[Cell, Cell]:
        """(source, target) of a 1-cell's projection, following the graph
        edge orientation, placed on the level.  The ends of a cell are cells,
        so only the cell is checked, by the quotient's ``project``."""
        cell = self.project(cell)
        r = -1
        for i, c in enumerate(cell):
            if c.__class__ is str:
                if r >= 0:
                    break  # a second edge coordinate
                r = i
        else:
            if r >= 0:
                _, lo, hi, _, _ = self.graph.edge_by_name[cell[r]]
                return self._place_ends(cell, r, lo, hi)
        raise InvalidParameterError(f"not a 1-cell: {cell!r}")

    @staticmethod
    def _place_ends(cell: Cell, r: int, lo: int, hi: int) -> tuple[Cell, Cell]:
        """The cell with lo, then hi, in place r, placed on the level."""
        return cell[:r] + (lo,) + cell[r + 1:], cell[:r] + (hi,) + cell[r + 1:]


class _Orderings(Sequence):
    """One dimension's cells on either level, listed in sort order when
    iterated or indexed; its length is a count."""

    def __init__(self, cx: CubeComplex, dim: int):
        self._cx = cx
        self._dim = dim

    def __len__(self) -> int:
        return self._cx.num_cells(self._dim)

    def __iter__(self) -> Iterator[Cell]:
        return iter(sorted(self._cx.cells_unsorted(self._dim), key=self._cx.sort_key))

    def __getitem__(self, index):
        return list(self)[index]


def check_room(vertices: int, m: int) -> None:
    """Refuse m particles on a graph of this many vertices when its ordered
    0-cells alone, perm(vertices, m) since any m distinct vertices form one,
    number more than ``MAX_CELLS``, or none.  The product stops as soon as
    it passes the bound, so a huge m costs nothing."""
    if m > vertices:
        raise PreconditionError(f"no room for {m} particles on this graph")
    count = 1
    for factor in range(vertices, vertices - m, -1):
        count *= factor
        if count > MAX_CELLS:
            raise PreconditionError(
                f"the {m}-particle complex has at least {count} ordered 0-cells, more than {MAX_CELLS}"
            )


def build_dconf(graph: Graph, m: int) -> CubeComplex:
    """Enumerate the coordinate sets of the m-particle complex, never an
    ordering of one.

    The depth-first walk tries the graph cells in ``coord_keys`` order and,
    after each, only those of larger key, so it lists each set once, as its
    ascending tuple.  Those keys are distinct, so the sets come out in
    lexicographic key order, which is ``sort_key`` order within each
    dimension.  A prefix carries the union of its closures as a bit mask of
    vertices, and its count of edge coordinates, so a finished set goes
    straight into its dimension.  Complexes of more than ``MAX_CELLS``
    ordered cells are refused: first by their 0-cells alone
    (``check_room``), before any other work, then by every cell, counted by
    ``count_sets``, whose counts the complex is then checked against.
    """
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    check_room(graph.num_vertices, m)
    if not is_sufficiently_subdivided(graph, m):
        raise PreconditionError(f"graph is not sufficiently subdivided for {m} particles")
    counts = count_sets(graph, m)
    total = sum(counts) * factorial(m)
    if total > MAX_CELLS:
        raise PreconditionError(f"the {m}-particle complex has {total} cells, more than the {MAX_CELLS} allowed")
    keys = graph.coord_keys
    masks = graph.closure_masks
    steps = [(c, masks[c], c.__class__ is str) for c in sorted(keys, key=keys.__getitem__)]
    sets: list[list[Cell]] = [[] for _ in range(m + 1)]

    def extend(prefix: Cell, used: int, dim: int, start: int) -> None:
        if len(prefix) == m - 1:
            for c, mask, is_edge in steps[start:]:
                if not used & mask:
                    sets[dim + is_edge].append(prefix + (c,))
            return
        for k in range(start, len(steps)):
            c, mask, is_edge = steps[k]
            if not used & mask:
                extend(prefix + (c,), used | mask, dim + is_edge, k + 1)

    extend((), 0, 0, 0)
    return CubeComplex(graph, m, {d: tuple(cells) for d, cells in enumerate(sets) if cells}, counts)


def count_sets(graph: Graph, m: int) -> list[int]:
    """[S_0, ..., S_m]: the number of coordinate sets of the m-particle
    complex's j-cells, without enumerating them.

    A j-cell's set holds j edges forming a matching and m - j of the V - 2j
    vertices those edges leave free, so S_j = M_j * C(V - 2j, m - j), M_j
    the number of j-edge matchings.
    """
    if m < 1:
        raise InvalidParameterError(f"need m >= 1, got {m}")
    size = graph.num_vertices
    return [
        count * comb(size - 2 * j, m - j) if 2 * j <= size else 0
        for j, count in enumerate(_matching_counts(graph, m))
    ]


def count_cells(graph: Graph, m: int) -> int:
    """Number of cells of the m-particle complex: m! orderings of each set."""
    return sum(count_sets(graph, m)) * factorial(m)


def _matching_counts(graph: Graph, top: int) -> list[int]:
    """[M_0, ..., M_top]: the numbers of j-edge matchings of the graph.

    Matchings of the spanning tree are counted leaves first; those through
    the non-tree edge {u, w}, if there is one, are those of the tree without
    u and w, with the edge added.
    """
    counts = _tree_matchings(graph, top, ())
    loop = graph.loop_edge
    if loop is not None and top > 0:
        through = _tree_matchings(graph, top - 1, (loop.lo, loop.hi))
        counts = [counts[0]] + [a + b for a, b in zip(counts[1:], through)]
    return counts


def _tree_matchings(graph: Graph, top: int, deleted: tuple[int, ...]) -> list[int]:
    """Matching counts up to ``top`` edges of the spanning tree with ``deleted`` removed.

    Each vertex v gets two truncated generating polynomials over the matchings
    of the subtree below it: ``free[v]`` counts those leaving v unmatched and
    ``taken[v]`` those matching v to a child.
    """

    def mul(p: list[int], q: list[int]) -> list[int]:
        out = [0] * (top + 1)
        for i, a in enumerate(p):
            if a:
                for j in range(top + 1 - i):
                    out[i + j] += a * q[j]
        return out

    size = graph.num_vertices
    adjacency: list[list[int]] = [[] for _ in range(size)]
    for e in graph.edges:
        if e.in_tree and e.lo not in deleted and e.hi not in deleted:
            adjacency[e.lo].append(e.hi)
            adjacency[e.hi].append(e.lo)
    one = [1] + [0] * top
    total = one
    parent: dict[int, Optional[int]] = {}
    for root in range(size):
        if root in parent or root in deleted:
            continue
        parent[root] = None
        order, stack = [], [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in adjacency[v]:
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
        free: dict[int, list[int]] = {}
        taken: dict[int, list[int]] = {}
        for v in reversed(order):
            f, t = one, [0] * (top + 1)
            for c in adjacency[v]:
                if c == parent[v]:
                    continue
                either = [a + b for a, b in zip(free[c], taken[c])]
                via_c = [0] + mul(f, free[c])[:top]  # the edge v-c joins, both ends were free
                f, t = mul(f, either), [a + b for a, b in zip(mul(t, either), via_c)]
            free[v], taken[v] = f, t
        total = mul(total, [a + b for a, b in zip(free[root], taken[root])])
    return total


class QuotientComplex(CubeComplex):
    """Quotient of a configuration complex by the cyclic rotation action,
    read off the complex's coordinate sets with nothing of its own stored.

    The rotation act(c1, -) moves every coordinate one place left, so an
    orbit is the m rotations of a cell.  A cell's coordinates are distinct,
    so no rotation but the identity fixes one, every orbit is free, and
    exactly one rotation puts the smallest-key coordinate first; that
    rotation, the orbit member that comes first in sort order, is the
    orbit's representative.  A set's ascending tuple has its smallest-key
    coordinate first, so the representatives of its (m-1)! orbits are that
    coordinate followed by each ordering of the rest (``fixed`` is 1), and
    ``cells_by_dim`` lists them in sort order.  ``place`` is the rotation
    to that, ``project`` the same after checking the tuple is a cell
    upstairs, ``has`` a cell upstairs whose first coordinate has the
    smallest rank, and ``members_of[rep]`` the orbit as rep rotated left by
    0..m-1 places, made on demand.
    """

    fixed = 1

    def __init__(self, fm: CubeComplex):
        self.fm = fm
        self.graph = fm.graph
        self.m = fm.m
        self.sets_by_dim = fm.sets_by_dim
        self.rank, self.bit = fm.rank, fm.bit  # a representative is a cell upstairs
        self.members_of: Mapping[Cell, tuple[Cell, ...]] = _Orbits(self)
        self.base: Cell = fm.base  # ascending, so a representative

    def place(self, cell: Cell) -> Cell:
        """The cell rotated to put its smallest-key coordinate first: its
        orbit's representative, unchecked."""
        ranks = list(map(self.rank.__getitem__, cell))
        first = ranks.index(min(ranks))
        return cell[first:] + cell[:first]

    def project(self, cell: Cell) -> Cell:
        """The representative of the cell's orbit.  Raises KeyError on a
        non-cell."""
        if not self.fm.has(cell):
            raise KeyError(cell)
        return self.place(cell)

    def _place_ends(self, rep: Cell, r: int, lo: int, hi: int) -> tuple[Cell, Cell]:
        """``place`` of rep with lo, then hi, in place r.  rep's first
        coordinate ranks lowest, so for r > 0 one rank comparison says
        whether the new vertex goes first instead."""
        if r == 0:
            return self.place((lo,) + rep[1:]), self.place((hi,) + rep[1:])
        rank, head, tail = self.rank, rep[:r], rep[r + 1:]
        first = rank[rep[0]]
        return (
            (lo,) + tail + head if rank[lo] < first else head + (lo,) + tail,
            (hi,) + tail + head if rank[hi] < first else head + (hi,) + tail,
        )

    def has(self, cell: Cell) -> bool:
        """Whether the tuple is an orbit's representative."""
        if not self.fm.has(cell):
            return False
        rank = self.rank
        return min(map(rank.__getitem__, cell)) == rank[cell[0]]


class CellMap(Mapping):
    """A mapping keyed by the cells of a level, its values made when asked
    for; its length is a count."""

    def __init__(self, cx: CubeComplex):
        self._cx = cx

    def __iter__(self) -> Iterator[Cell]:
        return self._cx.all_cells()

    def __len__(self) -> int:
        return sum(map(self._cx.num_cells, self._cx.sets_by_dim))


class _Orbits(CellMap):
    """Each representative's orbit, rotated out of it when asked for."""

    def __getitem__(self, rep: Cell) -> tuple[Cell, ...]:
        if not self._cx.has(rep):
            raise KeyError(rep)
        return tuple(rep[t:] + rep[:t] for t in range(len(rep)))


def build_quotient(fm: CubeComplex) -> QuotientComplex:
    return QuotientComplex(fm)


def components(cx: CubeComplex) -> int:
    """Number of connected components of the 1-skeleton, by a union-find
    over every ordered 0-cell; the 1-cells are read unsorted, one at a
    time, and not kept."""
    parent = {v: v for v in cx.cells_unsorted(0)}
    for edge in cx.cells_unsorted(1):
        join(parent, *cx.edge_endpoints(edge))
    return len({find(parent, v) for v in parent})
