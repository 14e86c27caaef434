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

The 0-cells and the collapsible 1-cells form a maximal forest whose trees are
labelled by the permutation sorting their coordinates' places in the
numbering (``forest``).  On the lollipop the numbering is the identity and
every tree edge respects the order.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, repeat
from math import factorial
from operator import ne
from typing import Optional, Union

from .complexes import Cell, CubeComplex, QuotientComplex, cell_dim
from .errors import InvalidParameterError, StructuralError
from .graphs import Graph, union_find
from .perms import Perm, cyclic_canonical, sorting_permutation

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


class GradientField:
    """A discrete gradient field as its matching: ``classes`` maps every cell
    to its partner, or to None when the cell is critical."""

    def __init__(self, cx: Union[CubeComplex, QuotientComplex], classes: dict[Cell, Optional[Cell]]):
        self.complex = cx
        self.classes = classes

    def kind(self, cell: Cell) -> str:
        return _kind(self.classes[cell], cell_dim(cell))

    def critical(self, dim: Optional[int] = None) -> list[Cell]:
        dims = sorted(self.complex.cells_by_dim) if dim is None else [dim]
        return [c for d in dims for c in self.complex.cells_by_dim.get(d, ()) if self.classes[c] is None]

    @property
    def forest_edges(self) -> list[Cell]:
        """The 1-cells matched with 0-cells; together with all 0-cells they span."""
        classes = self.classes
        return [classes[v] for v in self.complex.cells_by_dim.get(0, ()) if classes[v] is not None]

    def census(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = {}
        classes = self.classes
        for d, cells in self.complex.cells_by_dim.items():
            for c in cells:
                key = (d, _kind(classes[c], d))
                out[key] = out.get(key, 0) + 1
        return out


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
    is built here when not given; no cell is classified again.

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
    """
    classes: dict[Cell, Optional[Cell]] = {}
    if isinstance(cx, QuotientComplex):
        if upstairs is None:
            upstairs = build_field(cx.fm)
        elif upstairs.complex is not cx.fm:
            raise InvalidParameterError("upstairs field is not on the quotient's complex")
        up, project = upstairs.classes, cx.project_near
        try:
            for rep in cx.all_cells():
                partner = up[rep]
                classes[rep] = None if partner is None else project(rep, partner)
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
            classes.update(zip(cells, map(orderings.__getitem__, cells)))
            if not len(classes) - size == len(cells) == per_set * len(firsts):
                raise StructuralError(f"the {d}-cells are not every ordering of their coordinate sets")
        _check_involution(classes, ascending)
    return GradientField(cx, classes)


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


# -- the maximal forest ----------------------------------------------------


@dataclass(frozen=True)
class ForestTree:
    label: Perm
    vertices: frozenset[Cell]
    edges: frozenset[Cell]


def _vertex_label(cell: Cell, number: tuple[int, ...], quotient: bool) -> Perm:
    sigma = sorting_permutation(tuple(number[v] for v in cell))
    if not quotient:
        return sigma
    canonical, _ = cyclic_canonical(sigma)
    return canonical


def forest(field: GradientField) -> list[ForestTree]:
    """Connected components of (0-cells plus forest 1-cells), with labels.

    A 0-cell is labelled by the permutation sorting its coordinates' places
    in ``Graph.tree_order`` (on the lollipop, the coordinates themselves).
    Every tree's vertices share one label (one coset of it, in the quotient);
    a mismatch is a structural failure of the field.
    """
    cx = field.complex
    quotient = isinstance(cx, QuotientComplex)
    number = cx.graph.tree_order.number
    ends = {e: cx.edge_endpoints(e) for e in field.forest_edges}
    root_of, closing = union_find(cx.cells_by_dim[0], ends)
    if closing:
        raise StructuralError(f"forest contains a cycle through {closing[0]!r}")

    groups: dict[Cell, list[Cell]] = {}
    for v in cx.cells_by_dim[0]:
        groups.setdefault(root_of[v], []).append(v)
    edges_by_root: dict[Cell, list[Cell]] = {}
    for e, (src, _) in ends.items():
        edges_by_root.setdefault(root_of[src], []).append(e)

    trees = []
    for root, vertices in groups.items():
        labels = {_vertex_label(v, number, quotient) for v in vertices}
        if len(labels) != 1:
            raise StructuralError("one forest tree carries several sorting permutations")
        trees.append(
            ForestTree(labels.pop(), frozenset(vertices), frozenset(edges_by_root.get(root, ())))
        )
    trees.sort(key=lambda t: t.label.images)
    return trees
