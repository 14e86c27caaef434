"""Farley-Sabalka discrete gradient field on a configuration complex.

Farley and Sabalka ("Discrete Morse theory and graph braid groups", AGT 5,
2005) order cells through a spanning tree rooted at a vertex of tree degree
at most 1 and numbered depth-first (``Graph.tree_order``), so every
connected graph has a field.  e(v) is the tree edge from v toward the root;
a tree edge e has ends i(e), away from the root, and t(e).  In a cell,
a vertex v is blocked when it is the root or t(e(v)) lies in another
coordinate's closure.  A tree edge e respects the order unless some vertex
coordinate u is a child of t(e) with t(e) < u < i(e); a non-tree edge never
does.  A cell is redundant when its smallest unblocked vertex v lies below
i(e) for every order-respecting edge e, and pairs with v grown into e(v).
It is collapsible when its smallest order-respecting edge e has i(e) below
every unblocked vertex, and pairs with e shrunk to i(e).  Every other cell
is critical.  ``classify_cell`` reads this as bit tests on a table made
once per graph (``Graph.morse_rules``): v is unblocked unless it is the
root or a child of some coordinate's closure, and e respects the order
unless a vertex coordinate is among its breaks, the children of t(e) below
i(e), and answers the swap (old, new) that puts new in old's place.  The
field is this matching (Forman, "Morse theory for cell
complexes", Adv. Math. 134, 1998): each cell maps to its partner, or to
None when critical.  Building a field checks that the matching is an
involution on cells one dimension apart.

The rule reads a cell's coordinates, not their places, so it commutes with
permuting coordinates.  The upstairs field is stored by coordinate set, as
the complex is: it classifies each set's ascending tuple and keeps only
its swap, or None, under the set's key.  The partner of any ordering is
the same swap made in its own places (``classes`` reads it on demand), and
a cell's kind is its set's: redundant when the swap puts an edge in,
collapsible when it takes one out (``kind``, ``census``).  The ascending
cell's one-place rotation, the deck generator of the cyclic quotient, is
classified directly and must get the same swap, and the involution is
checked once per set, on the table; the sets themselves were checked
against their closed-form counts when the complex was made.  The matching of a cyclic quotient is
read off the same table: a representative's partner is its set's swap made
in its own places and rotated back to a representative.  Rotation permutes
places, so that pairs back as the upstairs matching does, and nothing is
classified or checked again.  So one field class serves both levels, built
from the table alone: they differ only in the complex's ``place``
(``CubeComplex``).

The 0-cells and the 1-cells matched with them form a maximal forest, and
each of its trees holds one critical 0-cell.  The flow follows it: a
matched 0-cell steps along its partner edge to that edge's other end, and
every 0-cell reaches its tree's critical 0-cell, its sink (``sink``,
``flow``).  A step is read off the 0-cell's set's swap (old, new): old
moves along the edge new to its other end, in its own place.  So the flow
of every ordering of a set makes the same moves, walked once per 0-set,
memoised for every 0-set on the way and shared by both levels
(``_walk``): ``flow`` replays them in the 0-cell's own places, ``sink``
and ``morse_ends`` move its coordinates where they end, in place (rotated
to a representative in the quotient).  ``build_field`` checks that every
step moves a vertex toward the root, which proves that the flow ends and
that the forest is acyclic.  On the lollipop the numbering is the identity
and every tree edge respects the order.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping
from itertools import permutations
from math import factorial
from typing import Optional

from .complexes import Cell, CellMap, CubeComplex, QuotientComplex, cell_dim
from .errors import InvalidParameterError, StructuralError
from .graphs import Coord

KIND_CRITICAL = "critical"
KIND_REDUNDANT = "redundant"
KIND_COLLAPSIBLE = "collapsible"

Step = tuple[Cell, int]  # (1-cell, +1 along its orientation / -1 against)
Swap = tuple[Coord, Coord]  # (old, new): the partner has new in old's place
Move = tuple[Coord, Coord, Coord, int, int]  # (old, new, far, sign, next 0-set key)


def classify_cell(c: Cell, cx: CubeComplex) -> Optional[Swap]:
    """The swap (old, new) that makes one cell's partner under the
    Farley-Sabalka matching, new in old's place; None when the cell is
    critical.  One pass over the rule table checks the cell
    (InvalidParameterError on a wrong length, an unknown coordinate, or
    closures that meet) and gathers the children of its closures and its
    vertices; a second finds the movable coordinate of smallest key.
    Closures are disjoint, so no two keys tie."""
    rules = cx.graph.morse_rules
    if len(c) != cx.m:
        raise InvalidParameterError(f"cell not in complex: {c!r}")
    used = kids = vmask = 0
    for coord in c:
        rule = rules.get(coord)
        if rule is None or used & rule[0]:
            raise InvalidParameterError(f"cell not in complex: {c!r}")
        mask, children, vbit, _, _, _ = rule
        used |= mask
        kids |= children
        vmask |= vbit
    best = out = None
    for coord in c:
        _, _, vbit, key, new, breaks = rules[coord]
        if new is None or vbit & kids or breaks & vmask or (best is not None and key > best):
            continue
        best, out = key, (coord, new)
    return out


class GradientField:
    """A discrete gradient field on either level, read off the upstairs swap
    table ``swaps`` alone.  ``classes`` maps every cell of the level to its
    partner, or to None, made on demand.  ``critical`` holds the critical
    cells of each dimension in ``cells_by_dim`` order: the orderings of the
    critical sets that keep their first ``fixed`` coordinates in place."""

    def __init__(self, cx: CubeComplex, swaps: dict[int, Optional[Swap]]):
        self.complex = cx
        self.swaps = swaps
        self.classes: Mapping[Cell, Optional[Cell]] = _Partners(cx, swaps)
        fixed, critical = cx.fixed, {d: [] for d in cx.sets_by_dim}
        for key, swap in swaps.items():
            if swap is None:
                s = _set_of(cx.bit, key)
                critical[cell_dim(s)].extend(s[:fixed] + rest for rest in permutations(s[fixed:]))
        self._critical = {d: tuple(sorted(cells, key=cx.sort_key)) for d, cells in critical.items()}
        # A critical 0-cell maps to itself, so a flow ends on the field's
        # own tuple.  ``_flows`` holds each walked 0-set's flow by set key
        # (``_walk``); a quotient field shares its upstairs field's, since
        # both read one table.
        self._ends = {c: c for c in self.critical(0)}
        self._flows: dict[int, tuple[dict[Coord, Coord], Optional[Move]]] = {}
        self._most = len(cx.sets_by_dim[0])  # no flow visits a 0-set twice

    def kind(self, cell: Cell) -> str:
        """The cell's kind, read off its set's swap.  Raises KeyError on a
        tuple that is not a cell of the level."""
        if not self.complex.has(cell):
            raise KeyError(cell)
        return _kind(self.swaps[self.complex.set_key(cell)])

    def critical(self, dim: Optional[int] = None) -> tuple[Cell, ...]:
        if dim is not None:
            return self._critical.get(dim, ())
        return tuple(c for d in sorted(self._critical) for c in self._critical[d])

    def census(self) -> dict[tuple[int, str], int]:
        """The number of cells of each (dimension, kind): each set's kind,
        (m - fixed)! times, without listing an ordering."""
        cx, swaps, out = self.complex, self.swaps, {}
        per_set = factorial(cx.m - cx.fixed)
        for d, sets in cx.sets_by_dim.items():
            for key in map(cx.set_key, sets):
                kind = (d, _kind(swaps[key]))
                out[kind] = out.get(kind, 0) + per_set
        return out

    def is_forest_edge(self, edge: Cell) -> bool:
        """Whether the 1-cell is matched with a 0-cell.  A cell of either
        level is an upstairs cell, and it is when its set's swap trades it
        for a vertex: one lookup in ``swaps``."""
        swap = self.swaps.get(self.complex.set_key(edge))
        return swap is not None and swap[1].__class__ is int

    def _enter(self, v: Cell) -> None:
        """Refuse a tuple that is not a 0-cell of the level (in the
        quotient, a representative): a flow checks where it starts, and
        each step stays on the level."""
        if not self.complex.has(v) or cell_dim(v):
            raise InvalidParameterError(f"not a 0-cell of the complex: {v!r}")

    def _end(self, v: Cell) -> Cell:
        """The field's own tuple for the critical 0-cell v; a flow that
        ends anywhere else is refused."""
        end = self._ends.get(v)
        if end is None:
            raise StructuralError(f"the flow ends at {v!r}, which is not a critical 0-cell")
        return end

    def flow(self, v: Cell) -> tuple[list[Step], Cell]:
        """The steps from the 0-cell v down the forest to its sink, and the
        sink, a critical 0-cell: its set's moves made in its own places."""
        self._enter(v)
        flows, place, steps = self._flows, self.complex.place, []
        move = self._walk(self.complex.set_key(v))[1]
        while move is not None:
            old, new, far, sign, key = move
            r = v.index(old)
            steps.append((place(v[:r] + (new,) + v[r + 1:]), sign))
            v = v[:r] + (far,) + v[r + 1:]
            move = flows[key][1]
        return steps, self._end(place(v))

    def sink(self, v: Cell) -> Cell:
        """The critical 0-cell that v flows to: v's own coordinates carried
        in place to its sink set, placed on the level."""
        self._enter(v)
        carried = self._walk(self.complex.set_key(v))[0]
        return self._end(self.complex.place(tuple(map(carried.get, v, v))))

    def morse_ends(self, edges: Iterable[Cell]) -> dict[Cell, tuple[Cell, Cell]]:
        """The critical 0-cells that each critical 1-cell's source and
        target flow to.  The ends of a critical 1-set are 0-sets, its edge
        replaced by the edge's ends, whose flows are read once per 1-set;
        each ordering's are then its own coordinates, moved in place.
        Refuses a tuple that is not a critical 1-cell of the level."""
        cx, bit, ends, by_set, out = self.complex, self.complex.bit, self._ends, {}, {}
        for e in edges:
            if not cx.has(e):
                raise InvalidParameterError(f"not a critical 1-cell of the complex: {e!r}")
            key = cx.set_key(e)
            if key not in by_set:
                if key not in self.swaps or self.swaps[key] is not None or cell_dim(e) != 1:
                    raise InvalidParameterError(f"not a critical 1-cell of the complex: {e!r}")
                name = next(coord for coord in e if coord.__class__ is str)
                _, lo, hi, _, _ = cx.graph.edge_by_name[name]
                moved = by_set[key] = []
                for v in (lo, hi):  # the edge moves to v, then v's 0-set flows
                    carried = self._walk(key - bit[name] + bit[v])[0]
                    moved.append({**carried, name: carried.get(v, v)})
            from_src, from_tgt = by_set[key]
            src, tgt = cx.place(tuple(map(from_src.get, e, e))), cx.place(tuple(map(from_tgt.get, e, e)))
            out[e] = ends.get(src) or self._end(src), ends.get(tgt) or self._end(tgt)
        return out

    def _walk(self, key: int) -> tuple[dict[Coord, Coord], Optional[Move]]:
        """The 0-set ``key``'s flow, memoised for every 0-set on the way:
        where its coordinates end in its sink set, the unmoved ones left
        out, and its first move (old, new, far, sign, next set key), None at
        a sink.  A move is read off the set's swap (old, new): old moves
        along the edge new to its other end, far, leaving old by sign."""
        flows, swaps, bit, start, walked = self._flows, self.swaps, self.complex.bit, key, []
        while key not in flows:
            swap = swaps.get(key)
            if swap is None:  # critical, or no 0-set, which the sink check refuses
                flows[key] = ({}, None)
                break
            if len(walked) == self._most:
                raise StructuralError(f"the flow from {_set_of(bit, start)!r} does not end")
            old, new = swap
            far, sign = _far(self.complex, key, swap)
            nxt = key + bit[far] - bit[old]
            walked.append((key, (old, new, far, sign, nxt)))
            key = nxt
        carried = flows[key][0]
        for key, move in reversed(walked):
            carried = dict(carried)
            carried[move[0]] = carried.pop(move[2], move[2])
            flows[key] = carried, move
        return flows[start]


class _Partners(CellMap):
    """Each cell's partner on its level, read off its coordinate set's swap:
    the same swap made in the cell's own places, placed on the level
    (rotated back to a representative in the quotient).  Raises KeyError on
    a tuple that is not a cell of the level, and StructuralError on a
    partner that is not a cell upstairs."""

    def __init__(self, cx: CubeComplex, swaps: dict[int, Optional[Swap]]):
        super().__init__(cx)
        self._swaps = swaps

    def __getitem__(self, cell: Cell) -> Optional[Cell]:
        cx = self._cx
        if not cx.has(cell):
            raise KeyError(cell)
        key = cx.set_key(cell)
        swap = self._swaps[key]
        if swap is None:
            return None
        # The partner's set key trades old's bit for new's; a repeated
        # coordinate carries, so it names no set of the table.
        old, new = swap
        bit = cx.bit
        if new not in bit or key - bit[old] + bit[new] not in self._swaps:
            raise StructuralError(f"{_swapped(cell, swap)!r} is not a cell of the upstairs complex")
        return cx.place(_swapped(cell, swap))


def _far(cx: CubeComplex, key: int, swap: Swap) -> tuple[Coord, int]:
    """The 0-set ``key``'s swap (old, new) moves old along the edge new: the
    edge's other end, and the sign that leaves old along it.  Raises
    StructuralError when old is not an end of new."""
    old, new = swap
    edge = cx.graph.edge_by_name.get(new)
    if edge is not None:
        _, lo, hi, _, _ = edge
        if old == lo:
            return hi, 1
        if old == hi:
            return lo, -1
    c = _set_of(cx.bit, key)
    raise StructuralError(f"{c!r} is not an end of its partner {_swapped(c, swap)!r}")


def _set_of(bit: dict[Coord, int], key: int) -> Cell:
    """The coordinates named by a set key, in rank order."""
    return tuple(coord for coord, b in bit.items() if key & b)


def _swapped(cell: Cell, swap: Swap) -> Cell:
    """The cell with the swap (old, new) made in old's place."""
    r = cell.index(swap[0])
    return cell[:r] + (swap[1],) + cell[r + 1:]


def _kind(swap: Optional[Swap]) -> str:
    """The kind of a cell whose set has this swap: redundant when the swap
    puts an edge in place of a vertex, collapsible when the reverse."""
    if swap is None:
        return KIND_CRITICAL
    return KIND_REDUNDANT if swap[1].__class__ is str else KIND_COLLAPSIBLE


def _check_swaps(cx: CubeComplex, swaps: dict[int, Optional[Swap]]) -> None:
    """The involution, checked on the table: each set's partner set is in
    it and swaps back, and the swap trades a vertex for an edge or back."""
    bit = cx.bit
    for key, swap in swaps.items():
        if swap is not None:
            old, new = swap
            if (
                new not in bit
                or swaps.get(key - bit[old] + bit[new]) != (new, old)
                or (old.__class__ is int) is (new.__class__ is int)
            ):
                raise StructuralError(f"matching is not an involution at {_set_of(bit, key)!r}")


def _classify_set(c: Cell, cx: CubeComplex) -> Optional[Swap]:
    """Classify the ascending cell c: the swap (old, new) that makes its
    partner, or None when it is critical.  The swap must change one place:
    old is in c and new is not.  Its rotation is classified too and must
    get the same swap, which it makes in its own places."""
    swap = classify_cell(c, cx)
    if swap is not None and (swap[0] not in c or swap[1] in c):
        raise StructuralError(f"matching is not an involution at {c!r}")
    rotated = c[1:] + c[:1]
    if classify_cell(rotated, cx) != swap:
        raise StructuralError(f"matching is not equivariant at {rotated!r}")
    return swap


def _check_descent(cx: CubeComplex, swaps: dict[int, Optional[Swap]]) -> None:
    """Each matched ascending 0-cell's swap (old, new) puts an edge in
    place of one of its vertices, with that vertex old as one end and an
    end of smaller ``tree_order.number`` as the other."""
    number, set_key = cx.graph.tree_order.number, cx.set_key
    for c in cx.sets_by_dim[0]:
        key = set_key(c)
        swap = swaps[key]
        if swap is not None and number[_far(cx, key, swap)[0]] >= number[swap[0]]:
            raise StructuralError(f"the flow from {c!r} does not move toward the root")


def build_field(cx: CubeComplex, upstairs: Optional[GradientField]) -> GradientField:
    """Match every cell; a quotient's matching is induced from the upstairs one.

    ``upstairs`` is the field of ``cx.fm`` when cx is a quotient, and None
    when cx is a configuration complex.

    On a configuration complex only the coordinate sets go through
    ``classify_cell``, each as its ascending tuple, which answers a swap
    (old, new).  It must change one place, ``old`` in the tuple and ``new``
    not, and the field keeps only that swap, under the set's ``set_key``;
    every ordering of the set pairs with itself with ``old`` replaced in its
    own place (``_Partners``).  The ascending cell's one-place rotation
    ``c[1:] + c[:1]``, the deck generator of the cyclic quotient, is
    classified too and must get the same swap; otherwise the matching is not
    equivariant and this raises ``StructuralError``.  On a quotient the same table is read, and
    no cell is classified again.  On either level ``GradientField`` reads
    the rest off the table: a cell's partner is its set's swap made in its
    own places and put on the level with ``place`` (rotated back to a
    representative in the quotient; ``_Partners``), and the critical cells
    of each dimension are the orderings of the critical sets that keep
    their first ``fixed`` coordinates in place, in sort order.

    Both matchings are checked to be involutions on cells one dimension
    apart.  The upstairs one is checked once per coordinate set, in two
    parts:

    1. The complex's invariant, checked when it was made
       (``CubeComplex``): each dimension lists S_d sets, the closed form of
       ``count_sets``, each strictly ascending, in strictly increasing sort
       order.  So no set is repeated, and ``classify_cell`` refuses a tuple
       that is not a cell in its first pass over the rule table, before
       it reads the rule; so the lists hold every coordinate set once, and
       a missing set leaves the count short.  The ordered cells are every
       ordering of these sets, by construction.
    2. Table check (``_check_swaps``): each set's swap (old, new) trades a
       vertex for an edge or back, and the set with new in old's place is
       in the table with the swap (new, old).  So each ascending cell c
       with partner p has ``classes[p] == c``, one dimension away.

    That is enough.  By construction ``classes[sigma c] == sigma p`` for
    every permutation sigma, and p is ``tau c'`` for the ascending cell c'
    of its own set.  So ``classes[sigma p] == sigma classes[p] == sigma c``,
    and sigma c and sigma p have the dimensions of c and p.

    The quotient's matching needs no check of its own.  A swap is made in
    places, and a rotation rho permutes places, so the upstairs partner of
    rho c is rho of c's partner.  Every upstairs cell c projects to a
    rotation rho c of itself (``project``, which is ``place`` on a cell), so
    with ``classes_q[r] = place(classes[r])`` for a representative r,
    ``classes_q[project(c)] == project(classes[rho c]) == project(rho
    classes[c]) == project(classes[c])``.  For a representative r with
    upstairs partner p, that gives ``classes_q[classes_q[r]] ==
    classes_q[project(p)] == project(classes[p]) == project(r) == r``, and
    ``project(p)``, a rotation of p, has p's dimension, one away from r's.
    So the table check above gives the quotient involution too.  A partner
    that is not a cell upstairs, from a table changed after the check, is
    refused when it is read.  A representative is critical exactly when its
    set is, so the quotient's critical cells are the representatives among
    the upstairs ones: the orderings of the critical sets that keep their
    smallest-key coordinate, the first of the ascending tuple, in place.

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

    The same two facts carry the flows and sinks (``GradientField.flow``,
    ``sink``).  Upstairs the flow of sigma c is sigma applied to c's flow,
    so sink(sigma c) == sigma sink(c): the sink of any ordering is its own
    coordinates, each moved where the flow of its set moves it, in place.
    In the quotient each step is the projection of the upstairs one, so the
    sink of a representative is its upstairs sink rotated to a
    representative.  Both read the swap table alone, one walk per 0-set.
    """
    if isinstance(cx, QuotientComplex):
        if upstairs is None or upstairs.complex is not cx.fm:
            raise InvalidParameterError("upstairs field is not build_field's field of the quotient's complex")
        swaps = upstairs.swaps
    elif upstairs is not None:
        raise InvalidParameterError("a configuration complex's field is built without an upstairs field")
    else:
        bit = cx.bit.__getitem__  # ``set_key``, without a call per set
        swaps = {sum(map(bit, c)): _classify_set(c, cx) for sets in cx.sets_by_dim.values() for c in sets}
        _check_swaps(cx, swaps)
        _check_descent(cx, swaps)
    field = GradientField(cx, swaps)
    if upstairs is not None:
        field._flows = upstairs._flows
    return field

