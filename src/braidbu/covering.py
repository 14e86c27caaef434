"""The covering of a configuration complex over its cyclic quotient.

A ``Level`` is one side of the m-to-1 covering F -> F/Z_m: a complex, the
letter naming the based loop of each letter edge, and a spanning tree built
from the gradient field and the letters alone -- the field's forest plus the
critical edges that name no letter, the selected edges.  It is read off the
Morse complex, never off every 0-cell.  The field's flow takes a 0-cell down
the forest to its critical 0-cell (``GradientField.flow``).  The Morse
complex joins the critical 0-cells by the critical edges, their ends flowed
(``skeleton``), and the selected edges are its spanning tree
(``maximal_tree``), with parent pointers from the base's sink
(``tree_parents``).  One rule builds every tree path: a critical edge
expanded along the flow from the sink of its source to the sink of its
target (``Level._expand``).  The path to a critical 0-cell expands each
edge of its Morse-tree path; ``loop`` closes a letter's expanded edge into
a based loop through the paths to its sinks; and ``express`` reads a path's
letters off in order, skipping the forest's and the selected edges.

``build_fields(graph, n)`` gives the gradient fields of both sides, and
``Covering`` builds its two levels from them, ``up`` (the configuration
complex) and ``down`` (its quotient), naming letters through ``_letters``:
by default the critical edges that close a cycle, as for every tree target;
``BraidSystem`` names the lollipop's.  The upstairs cells over the quotient
base are the m sheets, numbered by deck exponent.  One lazily filled table
answers every question about lifting: ``lift_letter(sheet, letter)`` lifts
the letter's quotient loop from that sheet and returns the word of the
lift, read upstairs without closing it, with the sheet it ends on.
The maps of the paper are read off the covering:

* ``theta_letter`` / ``theta_word`` -- the sheet on which ``_walk``, the one
  walk of a word's letter lifts across the sheets from sheet 0, ends (the
  classifying map theta onto Z_m); ``unit_word`` is a word it sends to 1;
* ``rewrite`` -- the product of the same walk's lifts, or None when it ends
  off sheet 0 (restriction along the covering);
* ``iota_word`` -- each upstairs letter mapped through one per-letter cache
  filled by the hook ``iota_letter``, by default ``iota_by_projection``:
  push the letter's loop down cell-wise and express it against the quotient
  tree (the injection iota);
* ``p1_word`` -- the sum of ``p1_oracle`` over the letters: coordinate 0's
  signed crossings of the graph's loop edge along each letter's loop (the
  first particle's image in the graph's fundamental group, 0 on a tree).

The module functions below work on any complex through its 1-skeleton:
vertices are 0-cells, edges are 1-cells with a (source, target) orientation.
"""
from __future__ import annotations

from collections import deque
from typing import Callable, Iterable, Mapping, NamedTuple, Optional

from .complexes import Cell, QuotientComplex, act, build_dconf, build_quotient
from .errors import InvalidParameterError, PreconditionError, StructuralError
from .graphs import Graph, union_find
from .morse import GradientField, Step, build_field
from .perms import Perm
from .words import FreeWord

class EdgePath(NamedTuple):
    start: Cell
    steps: tuple[Step, ...]
    end: Cell


def _step_endpoints(cx, step: Step) -> tuple[Cell, Cell]:
    edge, sign = step
    src, tgt = cx.edge_endpoints(edge)
    return (src, tgt) if sign == 1 else (tgt, src)


def make_path(cx, start: Cell, steps: Iterable[Step]) -> EdgePath:
    """Assemble and validate a path: consecutive steps must chain up."""
    cur = start
    steps = tuple(steps)
    for step in steps:
        frm, to = _step_endpoints(cx, step)
        if frm != cur:
            raise InvalidParameterError(f"step {step!r} does not start at {cur!r}")
        cur = to
    return EdgePath(start, steps, cur)


# -- the Morse complex and its spanning tree -----------------------------------


def skeleton(field: GradientField) -> tuple[dict[Cell, tuple[Cell, Cell]], dict[Cell, Cell], list[Cell]]:
    """The 1-skeleton of the Morse complex: each critical 1-cell's ends
    flowed to their critical 0-cells, and one ``union_find`` over them, in
    ``critical(1)`` order: each critical 0-cell's root and the edges closing
    a cycle.  The forest the flow follows has no cycle and joins each 0-cell
    to its sink (``build_field``), so these are the components and the
    closing edges of the whole 1-skeleton with the forest taken first."""
    ends = field.morse_ends(field.critical(1))
    return (ends, *union_find(field.critical(0), ends))


def maximal_tree(field: GradientField, selected: frozenset[Cell]) -> frozenset[Cell]:
    """The selected critical edges, checked to number c0 - 1: with the
    forest they span the 1-skeleton as a tree once ``tree_parents`` finds
    that they reach every critical 0-cell (``build_field``)."""
    sinks = len(field.critical(0))
    if len(selected) != sinks - 1:
        raise StructuralError(f"candidate tree has {len(selected)} edges on {sinks} critical vertices")
    return frozenset(selected)


def tree_parents(
    vertices: Iterable[Cell], ends: Mapping[Cell, tuple[Cell, Cell]], base: Cell
) -> dict[Cell, Optional[tuple[Cell, int, Cell]]]:
    """Breadth-first parent pointers within a spanning set of edges.

    ``ends`` maps each edge to its (source, target) among ``vertices``.
    parents[v] = (edge, sign, parent), where traversing edge with sign leads
    from parent to v; the base maps to None.  A tree's paths from the base
    are unique, so the edges' order does not matter.  Raises if the edges
    miss a vertex, as c0 - 1 edges with a cycle do.
    """
    adjacency: dict[Cell, list[tuple[Cell, int, Cell]]] = {v: [] for v in vertices}
    for e, (src, tgt) in ends.items():
        adjacency[src].append((e, 1, tgt))
        adjacency[tgt].append((e, -1, src))
    parents: dict[Cell, Optional[tuple[Cell, int, Cell]]] = {base: None}
    queue = deque([base])
    while queue:
        u = queue.popleft()
        for edge, sign, v in adjacency[u]:
            if v not in parents:
                parents[v] = (edge, sign, u)
                queue.append(v)
    if len(parents) != len(adjacency):
        raise StructuralError("tree does not span the critical 0-cells")
    return parents


def _reduce(steps: Iterable[Step]) -> list[Step]:
    """Cancel each step that retraces the one before it."""
    out: list[Step] = []
    for edge, sign in steps:
        if out and out[-1] == (edge, -sign):
            out.pop()
        else:
            out.append((edge, sign))
    return out


def _reversed(steps: list[Step]) -> list[Step]:
    return [(e, -s) for e, s in reversed(steps)]


# -- loop expression ---------------------------------------------------------


def express_loop(path: EdgePath, is_tree: Callable[[Cell], bool], letter_of: Callable[[Cell], object]) -> FreeWord:
    """Read off, in order, the non-tree edges a path traverses.

    The path need not be closed: the tree's edges read the identity, so
    closing a path through the tree never changes its word.  letter_of maps
    a non-tree 1-cell to the letter naming its based loop; it should raise
    KeyError on unknown edges.
    """
    pieces = []
    for edge, sign in path.steps:
        if is_tree(edge):
            continue
        try:
            letter = letter_of(edge)
        except KeyError:
            raise StructuralError(f"path traverses an inexpressible edge {edge!r}") from None
        pieces.append((letter, sign))
    return FreeWord.of(pieces)


# -- projection and lifting ---------------------------------------------------


def project_path(q: QuotientComplex, path: EdgePath) -> EdgePath:
    """Push a path in the configuration complex down to the quotient."""
    return EdgePath(
        q.project(path.start),
        tuple((q.project(e), s) for e, s in path.steps),
        q.project(path.end),
    )


def lift_path(q: QuotientComplex, qpath: EdgePath, start: Cell) -> EdgePath:
    """Lift a quotient path through the m-to-1 projection, given a start cell.

    A step's lift at cur is the rotation of its orbit edge whose start is
    cur.  The orbit edge's own start holds distinct coordinates, so the
    place of cur's first coordinate in it fixes the rotation, and no other
    rotation can start at cur.
    """
    if q.project(start) != qpath.start:
        raise InvalidParameterError("start cell does not lie over the path start")
    cur = start
    steps: list[Step] = []
    for orbit_edge, sign in qpath.steps:
        frm, to = _step_endpoints(q.fm, (orbit_edge, sign))
        t = frm.index(cur[0]) if cur[0] in frm else 0  # 0: the check below fails
        if frm[t:] + frm[:t] != cur:
            raise StructuralError(f"{orbit_edge!r} has no lift at {cur!r}")
        steps.append((orbit_edge[t:] + orbit_edge[:t], sign))
        cur = to[t:] + to[:t]
    return EdgePath(start, tuple(steps), cur)


# -- the covering --------------------------------------------------------------


class _TreeEdges(dict):
    """Whether each 1-cell asked about is in a level's spanning tree:
    selected, or in the field's forest.  Filled on the first ask, so a loop
    step costs one dict lookup; loops share most of their edges."""

    def __init__(self, selected: Iterable[Cell], is_forest_edge: Callable[[Cell], bool]):
        super().__init__(dict.fromkeys(selected, True))
        self._is_forest_edge = is_forest_edge

    def __missing__(self, edge: Cell) -> bool:
        tree = self[edge] = self._is_forest_edge(edge)
        return tree


class Level:
    """One side of the covering: a complex and its letters, with the field
    whose flow and Morse tree turn letters into loops and paths into words.

    ``letters`` maps critical 1-cells of the field to the letter naming their
    based loop.  The other critical 1-cells, ``selected``, join the critical
    0-cells into the Morse tree, with parent pointers (``parents``) from the
    base's sink.  The level's spanning tree is the field's forest, the
    1-cells matched with 0-cells, together with the selected edges;
    ``is_tree_edge`` answers membership in it.
    """

    def __init__(self, field: GradientField, letters: Mapping[Cell, object]):
        # The field is kept: the flow reads its matching, and ``express``
        # reads it to tell the forest's edges from the rest.
        self.complex = cx = field.complex
        self.field = field
        self.letters = letters
        self.selected = maximal_tree(field, frozenset(e for e in field.critical(1) if e not in letters))
        ends = field.morse_ends(self.selected)
        to_root, root = field.flow(cx.base)
        self.parents = tree_parents(field.critical(0), ends, root)
        if make_path(cx, cx.base, to_root).end != root:
            raise StructuralError(f"the flow from the base does not end at {root!r}")
        self._paths: dict[Cell, tuple[Step, ...]] = {root: tuple(to_root)}
        self._edge = {letter: edge for edge, letter in letters.items()}
        self._loops: dict[object, EdgePath] = {}
        self.is_tree_edge = _TreeEdges(self.selected, field.is_forest_edge).__getitem__

    def _expand(self, edge: Cell) -> tuple[Cell, list[Step], Cell]:
        """A critical edge expanded along the flow into its Morse edge: the
        sink of its source, the steps -- the source's flow backwards, the
        edge, and the target's flow -- and the sink of its target.  The
        steps are checked once, when expanded, to chain from one sink to the
        other."""
        src, tgt = self.complex.edge_endpoints(edge)
        (back, frm), (ahead, to) = self.field.flow(src), self.field.flow(tgt)
        steps = [*_reversed(back), (edge, 1), *ahead]
        if make_path(self.complex, frm, steps).end != to:
            raise StructuralError(f"the expansion of {edge!r} does not end at {to!r}")
        return frm, steps, to

    def _to_sink(self, u: Cell) -> tuple[Step, ...]:
        """The steps of the tree path from the base to a critical 0-cell,
        memoised: the base's flow to the root of the Morse tree, and below
        it the parent's path, then the cell's Morse edge expanded
        (``_expand``), reversed when it leads up and checked to join the
        parent to the cell.  The walk stays in the spanning tree, so once
        freely reduced it is the tree path.  The recursion is as deep as the
        cell in the Morse tree (15 at m=6)."""
        if u not in self._paths:
            edge, sign, parent = self.parents[u]
            frm, expanded, to = self._expand(edge)
            if sign == -1:
                frm, expanded, to = to, _reversed(expanded), frm
            if (frm, to) != (parent, u):
                raise StructuralError(f"the Morse edge {edge!r} does not join {parent!r} to {u!r}")
            self._paths[u] = tuple(_reduce([*self._to_sink(parent), *expanded]))
        return self._paths[u]

    def loop(self, letter) -> EdgePath:
        """The based loop that reads the single letter: the tree path to the
        sink of its edge's source, the edge expanded, and the tree path back
        from the sink of its target, freely reduced."""
        if letter not in self._loops:
            frm, expanded, to = self._expand(self._edge[letter])
            steps = _reduce([*self._to_sink(frm), *expanded, *_reversed(self._to_sink(to))])
            self._loops[letter] = EdgePath(self.complex.base, tuple(steps), self.complex.base)
        return self._loops[letter]

    def express(self, path: EdgePath) -> FreeWord:
        """The word of a path, open or closed: its letter edges, read in
        order; the tree's edges read the identity."""
        return express_loop(path, self.is_tree_edge, self.letters.__getitem__)


def build_fields(graph: Graph, n: int) -> tuple[GradientField, GradientField]:
    """The gradient fields of the graph's n-particle configuration complex
    and of its quotient.  A field with critical cells of dimension two or
    more leaves the letters no free basis; it is refused before the quotient
    is built, whose critical cells are the orbits of these."""
    field_fm = build_field(build_dconf(graph, n), None)
    fm = field_fm.complex
    if any(field_fm.critical(d) for d in range(2, fm.top_dim + 1)):
        raise PreconditionError(
            f"braid group of the tree has no free basis for n={n}: critical cells of dimension >= 2"
        )
    return field_fm, build_field(build_quotient(fm), field_fm)


class Covering:
    """The covering ``up`` -> ``down`` of a configuration complex over its
    quotient, one ``Level`` built from each field of ``build_fields``; words
    on either level are words in that level's letters, a free basis.

    ``fm`` and ``quotient`` name the two levels' complexes, ``graph`` the
    graph the particles move on and ``m`` their number.
    """

    def __init__(self, field_fm: GradientField, field_q: GradientField):
        self.fm = fm = field_fm.complex
        self.quotient = field_q.complex
        self.graph = fm.graph
        self.m = n = fm.m
        self.up = Level(field_fm, self._letters(field_fm))
        self.down = Level(field_q, self._letters(field_q))
        self._lifts: dict[tuple[int, object], tuple[FreeWord, int]] = {}
        self._iota: dict[object, FreeWord] = {}
        self.c1 = Perm.cycle(1, n)
        # The deck group is identified with Z_n through the inverse rotation:
        # under it the canonical type-1 lollipop generator measures +1.
        self._sheets = [act(self.c1 ** (-t % n), fm.base) for t in range(n)]
        self._deck = {cell: t for t, cell in enumerate(self._sheets)}

    def _letters(self, field: GradientField) -> dict[Cell, object]:
        """The level's letters: each critical edge that closes a cycle with
        the forest and the critical edges before it, in the Morse complex
        (``skeleton``), is named by itself.  Refuses a disconnected complex."""
        _, roots, closing = skeleton(field)
        if len(set(roots.values())) != 1:
            raise PreconditionError(f"configuration complex of the tree is disconnected for n={self.m}")
        return {e: e for e in closing}

    def deck_exponent(self, vertex: Cell) -> int:
        """t in Z_n with vertex == act(c1^-t, base)."""
        try:
            return self._deck[vertex]
        except KeyError:
            raise StructuralError(f"{vertex!r} is not in the base orbit") from None

    def lift_letter(self, sheet: int, letter) -> tuple[FreeWord, int]:
        """Lift the letter's quotient loop from the given sheet; the word the
        lift reads upstairs, and its end sheet."""
        key = (sheet, letter)
        if key not in self._lifts:
            lifted = lift_path(self.quotient, self.down.loop(letter), self._sheets[sheet])
            self._lifts[key] = (self.up.express(lifted), self.deck_exponent(lifted.end))
        return self._lifts[key]

    def theta_letter(self, letter) -> int:
        """The sheet on which the letter's lift from sheet 0 ends."""
        return self.lift_letter(0, letter)[1]

    def _walk(self, word: FreeWord) -> tuple[list[FreeWord], int]:
        """Walk the word's letters across the sheets from sheet 0: each
        letter's lift from the running sheet, and the sheet reached.  A
        syllable g^-1 at sheet t is the reversed lift of g from sheet
        t - theta(g)."""
        sheet, n, pieces = 0, self.m, []
        for letter, sign in word:
            if sign == 1:
                piece, sheet = self.lift_letter(sheet, letter)
            else:
                sheet = (sheet - self.theta_letter(letter)) % n
                piece = self.lift_letter(sheet, letter)[0].inverse()
            pieces.append(piece)
        return pieces, sheet

    def theta_by_lift(self, word: FreeWord) -> int:
        """The sheet the word's walk from sheet 0 reaches."""
        return self._walk(word)[1]

    theta_word = theta_by_lift

    def rewrite(self, word: FreeWord) -> Optional[FreeWord]:
        """The upstairs word over a quotient word: the product of its walk's
        lifts, or None when the walk ends off sheet 0 (the word lies outside
        the covering subgroup)."""
        pieces, sheet = self._walk(word)
        return FreeWord.product(pieces) if sheet == 0 else None

    def iota_by_projection(self, letter) -> FreeWord:
        """Push the upstairs letter's loop down cell-wise; its quotient word."""
        return self.down.express(project_path(self.quotient, self.up.loop(letter)))

    iota_letter = iota_by_projection  # the per-letter hook iota_word caches

    def iota_word(self, word: FreeWord) -> FreeWord:
        cache = self._iota
        for letter in word.support() - cache.keys():
            cache[letter] = self.iota_letter(letter)
        return FreeWord.product(cache[l] if sign == 1 else cache[l].inverse() for l, sign in word)

    def p1_oracle(self, letter) -> int:
        """Trace coordinate 0 along the upstairs letter's loop; its signed
        crossings of the graph's loop edge (0 on a graph without one)."""
        path = self.up.loop(letter)
        loop_edge = self.graph.loop_edge
        cur = path.start[0]
        count = 0
        for edge_cell, sign in path.steps:
            if not isinstance(edge_cell[0], str):
                continue  # coordinate 0 rests on a vertex
            e = self.graph.edge_by_name[edge_cell[0]]
            _, lo, hi, _, _ = e
            if cur != (lo if sign == 1 else hi):
                raise StructuralError("first-coordinate trace lost the walk")
            cur = hi if sign == 1 else lo
            if e is loop_edge:
                count += sign
        if cur != path.start[0]:
            raise StructuralError("first-coordinate trace did not close up")
        return count

    def p1_word(self, word: FreeWord) -> int:
        return word.evaluate_additive(self.p1_oracle)

    def unit_word(self) -> FreeWord:
        """A quotient word with theta value 1, by running gcds of letter values."""
        g, word = self.m, FreeWord()
        for letter in self.down.letters.values():
            t = self.theta_letter(letter)
            if t == 0:
                continue
            g2, x, y = _ext_gcd(g, t)
            word = (word ** x) * (FreeWord.gen(letter) ** y)
            g = g2
            if g == 1:
                break
        if g != 1 or self.theta_word(word) != 1:
            raise StructuralError("classifying map is not surjective on letters")
        return word


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) = x*a + y*b."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y
