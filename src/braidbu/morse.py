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
is critical; building a field checks that the pairing is an involution.

On the lollipop the numbering is the identity and every tree edge respects
the order; there the 0-cells and the collapsible 1-cells form a maximal
forest whose trees are labelled by the permutation sorting their vertex
tuples (``forest``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .complexes import Cell, CubeComplex, QuotientComplex, cell_dim
from .errors import InvalidParameterError, StructuralError
from .graphs import Graph, union_find
from .perms import Perm, cyclic_canonical, sorting_permutation

KIND_CRITICAL = "critical"
KIND_REDUNDANT = "redundant"
KIND_COLLAPSIBLE = "collapsible"


@dataclass(frozen=True)
class CellClass:
    kind: str
    pair: Optional[Cell] = None  # partner cell for the non-critical kinds
    pivot: Optional[tuple[int, object]] = None  # (1-based coordinate index, graph cell)


def is_blocked(cell: Cell, r: int, graph: Graph) -> bool:
    """Whether the vertex coordinate at 0-based position r is blocked.

    The root is always blocked; any other vertex v is blocked when the far
    end of e(v) lies in the closure of some other coordinate.
    """
    far = graph.tree_order.parent[cell[r]]
    if far is None:
        return True
    return any(
        far in graph.closure(other)
        for s, other in enumerate(cell)
        if s != r
    )


def classify_cell(c: Cell, cx: CubeComplex) -> CellClass:
    """Classify one cell of a configuration complex by the Farley-Sabalka rule."""
    graph = cx.graph
    order = graph.tree_order
    if not cx.has(c):
        raise InvalidParameterError(f"cell not in complex: {c!r}")
    number, parent = order.number, order.parent
    vertices = [coord for coord in c if isinstance(coord, int)]
    # (number, position) of the smallest unblocked vertex and of the
    # order-respecting edge whose far-from-root end is smallest.
    unblocked = respecting = None
    for r, coord in enumerate(c):
        if isinstance(coord, int):
            if (unblocked is None or number[coord] < unblocked[0]) and not is_blocked(c, r, graph):
                unblocked = (number[coord], r)
            continue
        child = order.child_end.get(coord)  # None on a non-tree edge: it never respects the order
        if child is None or (respecting is not None and number[child] > respecting[0]):
            continue
        if not any(parent[u] == parent[child] and number[u] < number[child] for u in vertices):
            respecting = (number[child], r)

    if unblocked is not None and (respecting is None or unblocked < respecting):
        r = unblocked[1]
        grown = order.up_edge[c[r]]
        return CellClass(KIND_REDUNDANT, c[:r] + (grown,) + c[r + 1:], (r + 1, grown))
    if respecting is not None and (unblocked is None or respecting < unblocked):
        r = respecting[1]
        vertex = order.child_end[c[r]]
        return CellClass(KIND_COLLAPSIBLE, c[:r] + (vertex,) + c[r + 1:], (r + 1, vertex))
    return CellClass(KIND_CRITICAL)


class GradientField:
    """Total classification of a complex, with the derived maximal forest."""

    def __init__(self, cx: Union[CubeComplex, QuotientComplex], classes: dict[Cell, CellClass]):
        self.complex = cx
        self.classes = classes

    def kind(self, cell: Cell) -> str:
        return self.classes[cell].kind

    def pair(self, cell: Cell) -> Optional[Cell]:
        return self.classes[cell].pair

    def critical(self, dim: Optional[int] = None) -> list[Cell]:
        dims = sorted(self.complex.cells_by_dim) if dim is None else [dim]
        return [
            c
            for d in dims
            for c in self.complex.cells_by_dim.get(d, ())
            if self.classes[c].kind == KIND_CRITICAL
        ]

    @property
    def forest_edges(self) -> list[Cell]:
        """The 1-cells paired with 0-cells; together with all 0-cells they span."""
        return [
            c
            for c in self.complex.cells_by_dim.get(1, ())
            if self.classes[c].kind == KIND_COLLAPSIBLE
        ]

    def census(self) -> dict[tuple[int, str], int]:
        out: dict[tuple[int, str], int] = {}
        for d, cells in self.complex.cells_by_dim.items():
            for c in cells:
                key = (d, self.classes[c].kind)
                out[key] = out.get(key, 0) + 1
        return out


def _check_involution(cx, classes: dict[Cell, CellClass]) -> None:
    for c, cls in classes.items():
        if cls.kind == KIND_REDUNDANT:
            partner = classes.get(cls.pair)
            if (
                partner is None
                or partner.kind != KIND_COLLAPSIBLE
                or partner.pair != c
                or cell_dim(cls.pair) != cell_dim(c) + 1
            ):
                raise StructuralError(f"pairing is not an involution at {c!r}")
        elif cls.kind == KIND_COLLAPSIBLE:
            partner = classes.get(cls.pair)
            if partner is None or partner.kind != KIND_REDUNDANT or partner.pair != c:
                raise StructuralError(f"pairing is not an involution at {c!r}")


def build_field(cx: Union[CubeComplex, QuotientComplex]) -> GradientField:
    """Classify every cell; quotient fields are induced on orbit representatives.

    For a quotient complex the representative's class is used, and every
    orbit member is checked to classify compatibly (the field is equivariant
    under coordinate permutations).
    """
    if isinstance(cx, QuotientComplex):
        base = cx.fm
        classes: dict[Cell, CellClass] = {}
        for rep in cx.all_cells():
            rep_class = classify_cell(rep, base)
            for member in cx.members_of[rep]:
                member_class = classify_cell(member, base)
                if member_class.kind != rep_class.kind:
                    raise StructuralError(f"orbit of {rep!r} classifies inconsistently")
                if rep_class.kind != KIND_CRITICAL and cx.project(member_class.pair) != cx.project(rep_class.pair):
                    raise StructuralError(f"orbit of {rep!r} pairs inconsistently")
            if rep_class.kind == KIND_CRITICAL:
                classes[rep] = rep_class
            else:
                classes[rep] = CellClass(rep_class.kind, cx.project(rep_class.pair), rep_class.pivot)
        _check_involution(cx, classes)
        return GradientField(cx, classes)

    classes = {c: classify_cell(c, cx) for c in cx.all_cells()}
    _check_involution(cx, classes)
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


def _vertex_label(cell: Cell, quotient: bool) -> Perm:
    sigma = associated_permutation(cell)
    if not quotient:
        return sigma
    canonical, _ = cyclic_canonical(sigma)
    return canonical


def forest(field: GradientField) -> list[ForestTree]:
    """Connected components of (0-cells plus forest 1-cells), with labels.

    Every tree's vertices share one sorting permutation (one coset of it, in
    the quotient); a mismatch is a structural failure of the field.
    """
    cx = field.complex
    quotient = isinstance(cx, QuotientComplex)
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
        labels = {_vertex_label(v, quotient) for v in vertices}
        if len(labels) != 1:
            raise StructuralError("one forest tree carries several sorting permutations")
        trees.append(
            ForestTree(labels.pop(), frozenset(vertices), frozenset(edges_by_root.get(root, ())))
        )
    trees.sort(key=lambda t: t.label.images)
    return trees
