"""Discrete gradient field on the lollipop configuration complex.

Every cell is classified as critical, redundant, or collapsible by the
blocked-vertex rule, which relies on the lollipop's ordinal structure (the
tree edge of ordinal i joins vertices i-1 and i).  Redundant cells pair with
the collapsible cell one dimension up obtained by growing the pivot vertex
into its tree edge; the pairing is an involution.  The 0-cells together with
the collapsible 1-cells form a maximal forest whose trees are labelled by
the permutation sorting their vertex tuples.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

from .complexes import Cell, CubeComplex, QuotientComplex, cell_dim
from .errors import InvalidParameterError, StructuralError
from .graphs import Graph, lollipop_size, union_find
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

    Vertex 0 is always blocked; vertex v > 0 is blocked when v-1 lies in the
    closure of some other coordinate.
    """
    v = cell[r]
    if v == 0:
        return True
    return any(
        v - 1 in graph.closure(other)
        for s, other in enumerate(cell)
        if s != r
    )


def _require_lollipop(graph: Graph) -> int:
    m = lollipop_size(graph)
    if m is None:
        raise InvalidParameterError("the gradient field is defined only on lollipop graphs")
    return m


def classify_cell(c: Cell, cx: CubeComplex) -> CellClass:
    """Classify one cell of the lollipop configuration complex."""
    graph = cx.graph
    _require_lollipop(graph)
    if not cx.has(c):
        raise InvalidParameterError(f"cell not in complex: {c!r}")
    loop_name = graph.loop_edge.name

    unblocked = sorted(
        (coord, r)
        for r, coord in enumerate(c)
        if isinstance(coord, int) and not is_blocked(c, r, graph)
    )
    edge_ordinals = sorted(
        (graph.edge_by_name[coord].ordinal, r)
        for r, coord in enumerate(c)
        if isinstance(coord, str)
    )
    min_edge_ord = edge_ordinals[0][0] if edge_ordinals else None

    if unblocked:
        v, r = unblocked[0]
        if min_edge_ord is None or min_edge_ord > v:
            grown = graph.tree_edge_between[(v - 1, v)]
            pair = c[:r] + (grown.name,) + c[r + 1:]
            return CellClass(KIND_REDUNDANT, pair, (r + 1, grown.name))

    min_unblocked = unblocked[0][0] if unblocked else None
    for ordinal, r in edge_ordinals:
        if ordinal == float("inf"):
            continue  # the loop edge never collapses
        if min_unblocked is not None and min_unblocked < ordinal:
            break
        vertex = int(ordinal)
        pair = c[:r] + (vertex,) + c[r + 1:]
        return CellClass(KIND_COLLAPSIBLE, pair, (r + 1, vertex))

    edge_names = [coord for coord in c if isinstance(coord, str)]
    if unblocked or any(name != loop_name for name in edge_names):
        raise StructuralError(f"classification fell through on {c!r}")
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
