"""Farley-Sabalka discrete gradient field on a configuration complex.

Farley and Sabalka ("Discrete Morse theory and graph braid groups", AGT 5,
2005) order cells through a spanning tree rooted at a leaf and numbered
depth-first (``Graph.tree_order``).  e(v) is the tree edge from v toward the
root; a tree edge e has ends i(e), away from the root, and t(e).  In a cell,
a vertex v is blocked when it is the root or t(e(v)) lies in another
coordinate's closure.  A tree edge e respects the order unless some vertex
coordinate u is a child of t(e) with t(e) < u < i(e); a non-tree edge never
does.  A cell is redundant when its smallest unblocked vertex v lies below
i(e) for every order-respecting edge e, and pairs with v grown into e(v).
It is collapsible when its smallest order-respecting edge e has i(e) below
every unblocked vertex, and pairs with e shrunk to i(e).  Every other cell
is critical.  The field is stored as this matching (Forman, "Morse theory
for cell complexes", Adv. Math. 134, 1998): each cell maps to its partner,
or to None when critical, and a cell's kind is read off its partner's
dimension.  Building a field checks that the matching is an involution on
cells one dimension apart.

The rule reads a cell's coordinates, not their places, so it commutes with
permuting coordinates.  The field classifies one cell per coordinate set,
its ascending ordering; the partner changes one coordinate, a swap (old,
new), and every other ordering takes the partner that swaps ``old`` in its
own place.  The ascending cell's one-place rotation, the deck generator of
the cyclic quotient, is classified directly as a check on that
translation.  Because that translation makes the matching commute with
every permutation, the involution check too runs once per coordinate set:
a count shows that every set is present in all its orderings, and each
ascending cell's partner must pair back with it.  The matching of a cyclic
quotient is then read off the upstairs one, one orbit representative at a
time, and checked cell by cell.

The 0-cells and the 1-cells matched with them form a maximal forest, and
each of its trees holds one critical 0-cell.  The flow follows it: a
matched 0-cell steps along its partner edge to that edge's other end, and
every 0-cell reaches its tree's critical 0-cell, its sink (``sink``,
``flow``).  Steps are memoised, so the flow touches only the 0-cells it is
asked about.  ``build_field`` checks that every step moves a vertex toward
the root, which proves that the flow ends and that the forest is acyclic.
On the lollipop the numbering is the identity and every tree edge respects
the order.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import compress, permutations, repeat
from math import factorial
from operator import is_, ne
from typing import Optional, Union

from .complexes import Cell, CubeComplex, QuotientComplex, cell_dim
from .errors import InvalidParameterError, StructuralError
from .graphs import Graph
from .perms import Perm, sorting_permutation

KIND_CRITICAL = "critical"
KIND_REDUNDANT = "redundant"
KIND_COLLAPSIBLE = "collapsible"


def is_blocked(cell: Cell, r: int, graph: Graph) -> bool:
    """Whether the vertex coordinate at 0-based position r is blocked.

    The root is always blocked; any other vertex v is blocked when the far
    end of e(v) lies in the closure of some other coordinate.
    """
    far = graph.tree_order.parent[cell[r]]
    if far is None:
        return True
    closures = graph.closures
    # cell[r]'s own closure is {cell[r]}, which never holds its parent, so
    # the scan need not skip position r.
    for coord in cell:
        if far in closures[coord]:
            return True
    return False


def classify_cell(c: Cell, cx: CubeComplex) -> Optional[Cell]:
    """The partner of one cell of a configuration complex under the
    Farley-Sabalka matching; None when the cell is critical."""
    graph = cx.graph
    order = graph.tree_order
    if not cx.has(c):
        raise InvalidParameterError(f"cell not in complex: {c!r}")
    number, parent, child_end = order.number, order.parent, order.child_end
    vertices = [coord for coord in c if coord.__class__ is int]
    # (number, position) of the smallest unblocked vertex and of the
    # order-respecting edge whose far-from-root end is smallest.
    unblocked = respecting = None
    for r, coord in enumerate(c):
        if coord.__class__ is int:
            if (unblocked is None or number[coord] < unblocked[0]) and not is_blocked(c, r, graph):
                unblocked = (number[coord], r)
            continue
        child = child_end.get(coord)  # None on a non-tree edge: it never respects the order
        if child is None or (respecting is not None and number[child] > respecting[0]):
            continue
        top, place = parent[child], number[child]
        for u in vertices:
            if parent[u] == top and number[u] < place:
                break
        else:
            respecting = (place, r)

    if unblocked is not None and (respecting is None or unblocked < respecting):
        r = unblocked[1]
        return c[:r] + (order.up_edge[c[r]],) + c[r + 1:]
    if respecting is not None and (unblocked is None or respecting < unblocked):
        r = respecting[1]
        return c[:r] + (child_end[c[r]],) + c[r + 1:]
    return None


Step = tuple[Cell, int]  # (1-cell, +1 along its orientation / -1 against)


class GradientField:
    """A discrete gradient field as its matching: ``classes`` maps every cell
    to its partner, or to None when the cell is critical.  ``critical``
    holds the critical cells of each dimension in ``cells_by_dim`` order,
    as ``build_field`` finds them."""

    def __init__(
        self,
        cx: Union[CubeComplex, QuotientComplex],
        classes: dict[Cell, Optional[Cell]],
        critical: Mapping[int, Iterable[Cell]],
    ):
        self.complex = cx
        self.classes = classes
        self._critical = {d: tuple(cells) for d, cells in critical.items()}
        # The memoised steps of the matched 0-cells, and the sink of each
        # 0-cell walked from; a critical 0-cell maps to itself, so a flow
        # ends on the complex's own tuple.
        self._steps: dict[Cell, tuple[Cell, int, Cell]] = {}
        self._sinks = {c: c for c in self.critical(0)}
        self._most = len(cx.cells_by_dim[0])  # no flow is longer

    def kind(self, cell: Cell) -> str:
        return _kind(self.classes[cell], cell_dim(cell))

    def critical(self, dim: Optional[int] = None) -> tuple[Cell, ...]:
        if dim is not None:
            return self._critical.get(dim, ())
        return tuple(c for d in sorted(self._critical) for c in self._critical[d])

    def census(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = {}
        classes = self.classes
        for d, cells in self.complex.cells_by_dim.items():
            for c in cells:
                key = (d, _kind(classes[c], d))
                out[key] = out.get(key, 0) + 1
        return out

    def _step(self, v: Cell) -> tuple[Cell, int, Cell]:
        """The matched 0-cell v's partner edge, the sign that leaves v along
        it, and the edge's other end."""
        step = self._steps.get(v)
        if step is None:
            edge = self.classes[v]
            src, tgt = self.complex.edge_endpoints(edge)
            if v == src:
                step = (edge, 1, tgt)
            elif v == tgt:
                step = (edge, -1, src)
            else:
                raise StructuralError(f"{v!r} is not an end of its partner {edge!r}")
            self._steps[v] = step
        return step

    def flow(self, v: Cell) -> tuple[list[Step], Cell]:
        """The steps from the 0-cell v down the forest to its sink, and the
        sink, a critical 0-cell.  A field from ``build_field`` descends at
        every step, so its flows end; a longer one is refused."""
        classes, steps = self.classes, []
        while classes[v] is not None:
            if len(steps) == self._most:
                raise StructuralError(f"the flow from {v!r} does not end")
            edge, sign, v = self._step(v)
            steps.append((edge, sign))
        return steps, self._sinks[v]

    def sink(self, v: Cell) -> Cell:
        """The critical 0-cell that v flows to, memoised for every 0-cell on
        the way."""
        sinks, walked = self._sinks, []
        while v not in sinks:
            if len(walked) == self._most:
                raise StructuralError(f"the flow from {v!r} does not end")
            walked.append(v)
            v = self._step(v)[2]
        sinks.update(dict.fromkeys(walked, sinks[v]))
        return sinks[v]


def _kind(partner: Optional[Cell], d: int) -> str:
    """The kind of a d-cell matched with ``partner``."""
    if partner is None:
        return KIND_CRITICAL
    return KIND_REDUNDANT if cell_dim(partner) > d else KIND_COLLAPSIBLE


def _check_involution(
    classes: dict[Cell, Optional[Cell]], cells_by_dim: Mapping[int, Iterable[Cell]]
) -> None:
    """Each listed cell's partner pairs back with it, one dimension away."""
    for d, cells in cells_by_dim.items():
        for c in cells:
            partner = classes[c]
            if partner is not None and (
                classes.get(partner) != c or abs(cell_dim(partner) - d) != 1
            ):
                raise StructuralError(f"matching is not an involution at {c!r}")


def _match_orderings(c: Cell, cx: CubeComplex, out: dict[Cell, Optional[Cell]]) -> None:
    """Classify the ascending cell c, and enter every ordering of its
    coordinate set into ``out`` with its partner.

    The ordering act(sigma, c) pairs with act(sigma, partner), which is that
    ordering with the swapped coordinate replaced in its own place, so the
    permutations of c and of its partner, taken in step, list the pairs.
    """
    partner = classify_cell(c, cx)
    if partner is None:
        out.update(zip(permutations(c), repeat(None)))
    elif len(partner) == len(c) and sum(map(ne, c, partner)) == 1:
        out.update(zip(permutations(c), permutations(partner)))
    else:
        raise StructuralError(f"matching is not an involution at {c!r}")
    rotated = c[1:] + c[:1]
    if classify_cell(rotated, cx) != out[rotated]:
        raise StructuralError(f"matching is not equivariant at {rotated!r}")


def _check_descent(cx: CubeComplex, ascending: Iterable[Cell], classes: Mapping[Cell, Optional[Cell]]) -> None:
    """Each matched ascending 0-cell's partner is an edge at one of its
    coordinates' places, with that coordinate as one end and an end of
    smaller ``tree_order.number`` as the other."""
    number, edge_by_name = cx.graph.tree_order.number, cx.graph.edge_by_name
    for c in ascending:
        partner = classes[c]
        if partner is None:
            continue
        r = next(i for i, (old, new) in enumerate(zip(c, partner)) if old != new)
        edge = edge_by_name.get(partner[r])
        if edge is None or c[r] not in (edge.lo, edge.hi):
            raise StructuralError(f"{c!r} is not an end of its partner {partner!r}")
        other = edge.hi if c[r] == edge.lo else edge.lo
        if number[other] >= number[c[r]]:
            raise StructuralError(f"the flow from {c!r} does not move toward the root")


def build_field(
    cx: Union[CubeComplex, QuotientComplex], upstairs: Optional[GradientField] = None
) -> GradientField:
    """Match every cell; a quotient's matching is induced from the upstairs one.

    On a configuration complex only one ordering per coordinate set goes
    through ``classify_cell``: the first in ``cells_by_dim`` order, which is
    the ascending one.  Its partner must differ from it in one place, a swap
    (old, new), and every other ordering of the set pairs with itself with
    ``old`` replaced in its own place (``_match_orderings``).  The ascending
    cell's one-place rotation ``c[1:] + c[:1]``, the deck generator of the
    cyclic quotient, is classified too and must get that translated
    partner; otherwise the matching is not equivariant and this raises
    ``StructuralError``.  On a quotient the orbit takes the orbit of its
    representative's partner in ``upstairs``, the field of ``cx.fm``, which
    is built here when not given; no cell is classified again.  The
    critical cells of each dimension are listed as the matching is filled.

    Both matchings are checked to be involutions on cells one dimension
    apart.  The quotient's is checked cell by cell, which also tests
    ``project``, the minimal rotation that names each partner's orbit; a
    partner that is not a cell upstairs is refused.  The upstairs one is
    checked once per coordinate set, in two parts:

    1. Closure count: each dimension holds distinct cells, m! per ascending
       cell.  Every cell is an ordering of some ascending cell, so every
       coordinate set is present in all m! orderings, with distinct
       coordinates.
    2. Ascending check: each ascending cell c with partner p has
       ``classes[p] == c``, and their dimensions differ by one.

    That is enough.  By construction ``classes[sigma c] == sigma p`` for
    every permutation sigma, and p is ``tau c'`` for the ascending cell c'
    of its own set, whose orderings are all cells by the count.  So
    ``classes[sigma p] == sigma classes[p] == sigma c``, and sigma c and
    sigma p have the dimensions of c and p.

    The flow (``GradientField.flow``) is checked once per coordinate set as
    well (``_check_descent``).  Let s(v) be the sum of ``tree_order.number``
    over the coordinates of a 0-cell v.  Each matched ascending 0-cell c must
    be an end of its partner edge p, and the step to p's other end must
    lower the number of the coordinate it moves, so it lowers s.  That
    covers every step on both levels, because s does not depend on the
    order of the coordinates:

    * upstairs, a 0-cell sigma c has the partner sigma p, whose ends are
      the ends of p permuted by sigma, so its step is sigma of c's step;
    * in the quotient, a representative's partner is the orbit of its
      upstairs partner, and the ends of that orbit edge are the orbits of
      the upstairs ends, rotations of them.

    So every step lowers s, and three facts follow:

    1. Every flow ends, since s is a non-negative integer.
    2. The forest, the 0-cells with the edges matched to them, is acyclic.
       Each forest edge is matched with one of its ends, and no two edges
       with the same one.  So the k edges of a cycle through k 0-cells are
       matched with all k of them, and the flow from any of them would
       stay on the cycle forever, against 1.
    3. Each tree of the forest holds one critical 0-cell: its V - 1 edges
       are matched with V - 1 of its V vertices.

    So the forest and c0 - 1 edges that join the c0 critical 0-cells into a
    tree (``covering.maximal_tree`` and ``covering.tree_parents``) span the
    1-skeleton as a tree.  That is as strong as a check that V - 1 edges
    reach every 0-cell, without a walk over every 0-cell.
    """
    classes: dict[Cell, Optional[Cell]] = {}
    critical: dict[int, list[Cell]] = {}
    if isinstance(cx, QuotientComplex):
        if upstairs is None:
            upstairs = build_field(cx.fm)
        elif upstairs.complex is not cx.fm:
            raise InvalidParameterError("upstairs field is not on the quotient's complex")
        up, project = upstairs.classes, cx.project_near
        try:
            for d in sorted(cx.cells_by_dim):
                found = critical[d] = []
                for rep in cx.cells_by_dim[d]:
                    partner = up[rep]
                    if partner is None:
                        classes[rep] = None
                        found.append(rep)
                    else:
                        classes[rep] = project(rep, partner)
        except KeyError as missing:
            raise StructuralError(f"{missing.args[0]!r} is not a cell of the upstairs complex") from None
        _check_involution(classes, cx.cells_by_dim)
    else:
        per_set = factorial(cx.m)
        ascending: dict[int, list[Cell]] = {}
        for d in sorted(cx.cells_by_dim):
            cells = cx.cells_by_dim[d]
            orderings: dict[Cell, Optional[Cell]] = {}
            firsts = ascending[d] = []
            for c in cells:
                if c not in orderings:  # the first ordering of its set in sort order: ascending
                    _match_orderings(c, cx, orderings)
                    firsts.append(c)
            size = len(classes)  # the closure count: classes grows by distinct cells, m! per set
            partners = list(map(orderings.__getitem__, cells))
            classes.update(zip(cells, partners))
            if not len(classes) - size == len(cells) == per_set * len(firsts):
                raise StructuralError(f"the {d}-cells are not every ordering of their coordinate sets")
            critical[d] = list(compress(cells, map(is_, partners, repeat(None))))
        _check_involution(classes, ascending)
        _check_descent(cx, ascending[0], classes)
    return GradientField(cx, classes, critical)


# -- critical edges --------------------------------------------------------


def type_tuple(b: int, m: int) -> Cell:
    """The ascending critical edge of type b: (0,..,b-2, a, m,..,2m-b-1)."""
    if not 1 <= b <= m:
        raise InvalidParameterError(f"type must be in 1..{m}, got {b}")
    return tuple(range(b - 1)) + ("a",) + tuple(range(m, 2 * m - b))


@lru_cache(maxsize=None)
def type_coordinate_sets(m: int) -> dict[frozenset, int]:
    return {frozenset(type_tuple(b, m)): b for b in range(1, m + 1)}


def edge_type(cell: Cell, m: int) -> int:
    """The unique b whose coordinate set matches the critical edge's."""
    b = type_coordinate_sets(m).get(frozenset(cell))
    if b is None:
        raise StructuralError(f"coordinate set of {cell!r} matches no critical type")
    return b


def edge_source(cell: Cell, graph: Graph) -> Cell:
    loop = graph.loop_edge
    return tuple(loop.lo if c == loop.name else c for c in cell)


def edge_target(cell: Cell, graph: Graph) -> Cell:
    loop = graph.loop_edge
    return tuple(loop.hi if c == loop.name else c for c in cell)


def associated_permutation(v: Cell) -> Perm:
    """The permutation sending each slot to the rank of its vertex ordinal."""
    if any(not isinstance(c, int) for c in v):
        raise InvalidParameterError(f"not a vertex tuple: {v!r}")
    return sorting_permutation(v)


def edge_data(cell: Cell, graph: Graph, m: int) -> tuple[Perm, int]:
    """(source permutation, type) of a critical edge."""
    return associated_permutation(edge_source(cell, graph)), edge_type(cell, m)
