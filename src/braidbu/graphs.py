"""Ordered graphs with a distinguished spanning tree.

Vertices are the integers 0..V-1 and double as their own ordinals.  Every
edge is oriented from its smaller-ordinal endpoint ``lo`` to its larger one
``hi``.  Tree edges carry pairwise distinct finite ordinals; at most one
extra (non-tree) edge is allowed and it carries the ordinal infinity, so the
ordinals restrict to linear orders on vertices and on edges.  The gradient
field orders vertices differently: ``Graph.tree_order`` roots the spanning
tree at its smallest vertex of tree degree at most 1 and numbers it
depth-first.  On a tree and on the lollipop that is the graph's smallest
leaf; on a cycle it is an end of the non-tree edge.

The central construction is the "lollipop": a cycle on m+1 vertices with a
path of m-1 extra vertices attached, which is the m-fold subdivided form of
a circle wedge an interval.
"""
from __future__ import annotations

import math
from collections import deque
from functools import cached_property
from typing import Hashable, Iterable, Mapping, NamedTuple, Optional, Union

from .errors import InvalidParameterError
from .frozen import Frozen

ORD_INF = math.inf

Coord = Union[int, str]  # a graph cell: vertex ordinal or edge name


def union_find(vertices: Iterable, edges: Mapping[Hashable, tuple]) -> tuple[dict, list]:
    """Components of a graph given by its edges' endpoint pairs.

    Returns the root of every vertex's component, and the edges, in order,
    whose endpoints were already joined by earlier edges (the edges that
    close a cycle).
    """
    parent = {v: v for v in vertices}
    closing = [e for e, (u, v) in edges.items() if not join(parent, u, v)]
    return {v: find(parent, v) for v in parent}, closing


def find(parent: dict, x):
    """The root of x in the forest ``parent``, halving its path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def join(parent: dict, u, v) -> bool:
    """Join the trees of u and v in the forest ``parent``; False when they
    were one tree already."""
    ru, rv = find(parent, u), find(parent, v)
    if ru == rv:
        return False
    parent[ru] = rv
    return True


class Edge(NamedTuple):
    name: str
    lo: int
    hi: int
    ordinal: float  # int for tree edges, math.inf for the non-tree edge
    in_tree: bool


class TreeOrder(NamedTuple):
    """The spanning tree rooted at its smallest vertex of tree degree at
    most 1 (a leaf, or the only vertex), numbered depth-first.

    ``number[v]`` is v's place in a depth-first walk over tree edges that
    visits neighbours by increasing vertex; the root gets 0.  ``parent[v]`` is
    the far end of e(v), the tree edge from v toward the root, and
    ``up_edge[v]`` names e(v); both are None at the root.  ``child_end`` maps
    each tree edge's name to its endpoint away from the root.
    """

    number: tuple[int, ...]
    parent: tuple[Optional[int], ...]
    up_edge: tuple[Optional[str], ...]
    child_end: Mapping[str, int]


class Graph(Frozen):
    """A graph on the vertices 0..num_vertices-1, checked when made.

    Equality and hash are those of the tuple ``(num_vertices, edges)``.  The
    lookup tables below are computed once, into the instance's ``__dict__``.
    """

    def __init__(self, num_vertices: int, edges: tuple[Edge, ...]) -> None:
        object.__setattr__(self, "num_vertices", num_vertices)
        object.__setattr__(self, "edges", edges)
        if self.num_vertices < 1:
            raise InvalidParameterError("graph needs at least one vertex")
        names = set()
        for e in self.edges:
            if not (0 <= e.lo < e.hi < self.num_vertices):
                raise InvalidParameterError(f"bad endpoints on edge {e.name}: {e.lo},{e.hi}")
            if not e.name or any(ch.isspace() for ch in e.name):
                raise InvalidParameterError(f"bad edge name {e.name!r}")
            if e.name in names:
                raise InvalidParameterError(f"duplicate edge name {e.name}")
            names.add(e.name)
            if e.in_tree and e.ordinal == ORD_INF:
                raise InvalidParameterError(f"tree edge {e.name} cannot have infinite ordinal")
            if not e.in_tree and e.ordinal != ORD_INF:
                raise InvalidParameterError(f"non-tree edge {e.name} must have infinite ordinal")
        tree = [e for e in self.edges if e.in_tree]
        ordinals = [e.ordinal for e in tree]
        if len(set(ordinals)) != len(ordinals):
            raise InvalidParameterError("tree edge ordinals must be pairwise distinct")
        if len(self.edges) - len(tree) > 1:
            raise InvalidParameterError("at most one non-tree edge is supported")
        if len(tree) != self.num_vertices - 1:
            raise InvalidParameterError("tree edges must number V-1")
        _, closing = union_find(range(self.num_vertices), {e: (e.lo, e.hi) for e in tree})
        if closing:
            raise InvalidParameterError("tree edges contain a cycle")
        # V-1 acyclic edges on V vertices are automatically spanning.

    def __repr__(self) -> str:
        return f"Graph(num_vertices={self.num_vertices!r}, edges={self.edges!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.num_vertices, self.edges) == (other.num_vertices, other.edges)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.edges))

    # -- lookups ---------------------------------------------------------

    @cached_property
    def edge_by_name(self) -> dict[str, Edge]:
        return {e.name: e for e in self.edges}

    @cached_property
    def loop_edge(self) -> Optional[Edge]:
        """The unique non-tree edge, if present."""
        extras = [e for e in self.edges if not e.in_tree]
        return extras[0] if extras else None

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        deg = [0] * self.num_vertices
        for e in self.edges:
            deg[e.lo] += 1
            deg[e.hi] += 1
        return tuple(deg)

    @cached_property
    def essential_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.num_vertices) if self.degrees[v] >= 3)

    @cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, str], ...], ...]:
        adj: list[list[tuple[int, str]]] = [[] for _ in range(self.num_vertices)]
        for e in self.edges:
            adj[e.lo].append((e.hi, e.name))
            adj[e.hi].append((e.lo, e.name))
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def tree_order(self) -> TreeOrder:
        """Computed once per graph.  The root is the smallest vertex of
        spanning-tree degree at most 1: its degree, less one at each end of
        the non-tree edge.  A tree has a leaf, or is one vertex, so every
        graph has one."""
        loop = self.loop_edge
        ends = (loop.lo, loop.hi) if loop else ()
        size = self.num_vertices
        number, parent, up_edge = [0] * size, [None] * size, [None] * size
        child_end = {}
        stack, count = [min(v for v in range(size) if self.degrees[v] - ends.count(v) <= 1)], 0
        while stack:
            u = stack.pop()
            number[u], count = count, count + 1
            for v, name in reversed(self.adjacency[u]):
                if self.edge_by_name[name].in_tree and v != parent[u]:
                    parent[v], up_edge[v], child_end[name] = u, name, v
                    stack.append(v)
        return TreeOrder(tuple(number), tuple(parent), tuple(up_edge), child_end)

    @property
    def euler_characteristic(self) -> int:
        return self.num_vertices - len(self.edges)

    @property
    def is_tree(self) -> bool:
        return len(self.edges) == self.num_vertices - 1

    @cached_property
    def closure_masks(self) -> dict[Coord, int]:
        """Each graph cell's closure, the vertices of the closed cell it
        names, as a bit mask."""
        out = {v: 1 << v for v in range(self.num_vertices)}
        out.update((e.name, 1 << e.lo | 1 << e.hi) for e in self.edges)
        return out

    @cached_property
    def morse_rules(self) -> dict[Coord, tuple[int, int, int, Optional[int], Optional[Coord], int]]:
        """The gradient field's rule per graph cell, as bit masks over the
        vertices (``morse.classify_cell``): a plain tuple (closure, children
        of the closure, own bit of a vertex or 0, key, swap, breaks).  The
        key is the ``number`` of v or of i(e); the swap is ``up_edge[v]`` or
        ``child_end[e]``, None where the cell never moves (the root, a
        non-tree edge); breaks are the children of t(e) below i(e)."""
        order, masks, size = self.tree_order, self.closure_masks, self.num_vertices
        number, parent = order.number, order.parent
        kids = [sum(1 << u for u in range(size) if parent[u] == v) for v in range(size)]
        out = {v: (masks[v], kids[v], masks[v], number[v], order.up_edge[v], 0) for v in range(size)}
        for e in self.edges:
            i, key, breaks = order.child_end.get(e.name), None, 0  # no i(e) on a non-tree edge
            if i is not None:
                key, top = number[i], parent[i]
                breaks = sum(1 << u for u in range(size) if parent[u] == top and number[u] < key)
            out[e.name] = (masks[e.name], kids[e.lo] | kids[e.hi], 0, key, i, breaks)
        return out

    @cached_property
    def coord_keys(self) -> dict[Coord, tuple[float, int]]:
        """Sort key of each graph cell: by ordinal, vertices before edges on ties."""
        out: dict[Coord, tuple[float, int]] = {v: (v, 0) for v in range(self.num_vertices)}
        out.update((e.name, (e.ordinal, 1)) for e in self.edges)
        return out


# -- constructors ---------------------------------------------------------


def make_lollipop(m: int) -> Graph:
    """Cycle on vertices m-1..2m-1 with the path 0..m-1 attached.

    Vertices are 0..2m-1.  Tree edge ``a<i>`` joins i-1 and i with ordinal i;
    the extra edge ``a`` joins m-1 and 2m-1 and closes the cycle.
    """
    if m < 2:
        raise InvalidParameterError(f"need m >= 2, got {m}")
    edges = [Edge(f"a{i}", i - 1, i, i, True) for i in range(1, 2 * m)]
    edges.append(Edge("a", m - 1, 2 * m - 1, ORD_INF, False))
    return Graph(2 * m, tuple(edges))


def make_path(n: int) -> Graph:
    """Path on n vertices 0..n-1."""
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    return Graph(n, tuple(Edge(f"e{i}", i - 1, i, i, True) for i in range(1, n)))


def make_cycle(n: int) -> Graph:
    """Cycle on n vertices; the closing edge ``c`` is the non-tree edge."""
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")
    edges = [Edge(f"e{i}", i - 1, i, i, True) for i in range(1, n)]
    edges.append(Edge("c", 0, n - 1, ORD_INF, False))
    return Graph(n, tuple(edges))


def make_star(legs: int, leg_length: int) -> Graph:
    """Star with the given number of legs, each subdivided into leg_length edges.

    Vertex 0 is the center; remaining ordinals are assigned breadth-first,
    one layer of the legs at a time.
    """
    if legs < 3:
        raise InvalidParameterError(f"need legs >= 3, got {legs}")
    if leg_length < 1:
        raise InvalidParameterError(f"need leg_length >= 1, got {leg_length}")

    def vid(leg: int, depth: int) -> int:
        return 0 if depth == 0 else 1 + (depth - 1) * legs + leg

    edges = []
    k = 0
    for depth in range(1, leg_length + 1):
        for leg in range(legs):
            k += 1
            u, v = vid(leg, depth - 1), vid(leg, depth)
            edges.append(Edge(f"e{k}", min(u, v), max(u, v), k, True))
    return Graph(1 + legs * leg_length, tuple(edges))


# -- subdivision and action utilities -------------------------------------


def _distances_from(graph: Graph, start: int, skip_edge: Optional[str] = None) -> list[float]:
    dist: list[float] = [math.inf] * graph.num_vertices
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v, name in graph.adjacency[u]:
            if name == skip_edge:
                continue
            if dist[v] == math.inf:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def girth(graph: Graph) -> float:
    """Number of edges (= vertices touched) on a shortest cycle; inf for forests.
    The one cycle is the non-tree edge closed through the tree, so it is the
    tree distance between that edge's ends, plus one: 2 for an edge parallel
    to a tree edge."""
    loop = graph.loop_edge
    if loop is None:
        return math.inf
    return _distances_from(graph, loop.lo, skip_edge=loop.name)[loop.hi] + 1


def is_sufficiently_subdivided(graph: Graph, m: int) -> bool:
    """Whether m particles fit on the graph without distorting its homotopy.

    Requires (i) every path between two distinct essential vertices to touch
    at least m vertices, and (ii) every homotopically essential cycle to
    touch at least m+1 vertices.
    """
    essential = graph.essential_vertices
    for i, u in enumerate(essential):
        dist = _distances_from(graph, u)
        for v in essential[i + 1:]:
            if dist[v] + 1 < m:
                return False
    return girth(graph) >= m + 1


# -- line-based text format ------------------------------------------------


def emit_graph_text(graph: Graph) -> str:
    lines = [f"V {graph.num_vertices}"]
    tree = sorted((e for e in graph.edges if e.in_tree), key=lambda e: e.ordinal)
    for e in tree:
        lines.append(f"E {e.name} {e.lo} {e.hi}")
    for e in graph.edges:
        if not e.in_tree:
            lines.append(f"E {e.name} {e.lo} {e.hi} loop")
    return "\n".join(lines) + "\n"


def _parse_int(field: str, lineno: int) -> int:
    try:
        return int(field)
    except ValueError:
        raise InvalidParameterError(f"line {lineno}: not an integer: {field!r}") from None


def parse_graph_text(text: str) -> Graph:
    num_vertices = None
    edges: list[Edge] = []
    next_ordinal = 1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "V" and len(fields) == 2:
            if num_vertices is not None:
                raise InvalidParameterError("duplicate V line")
            num_vertices = _parse_int(fields[1], lineno)
        elif fields[0] == "E" and len(fields) in (4, 5):
            name, u, v = fields[1], _parse_int(fields[2], lineno), _parse_int(fields[3], lineno)
            loop = len(fields) == 5 and fields[4] == "loop"
            if len(fields) == 5 and not loop:
                raise InvalidParameterError(f"bad edge flag: {fields[4]!r}")
            lo, hi = min(u, v), max(u, v)
            if loop:
                edges.append(Edge(name, lo, hi, ORD_INF, False))
            else:
                edges.append(Edge(name, lo, hi, next_ordinal, True))
                next_ordinal += 1
        else:
            raise InvalidParameterError(f"unparseable line: {raw!r}")
    if num_vertices is None:
        raise InvalidParameterError("missing V line")
    return Graph(num_vertices, tuple(edges))

