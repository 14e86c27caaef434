"""The covering of a configuration complex over its cyclic quotient.

``Covering`` holds the two sides of the m-to-1 covering F -> F/Z_m: the
configuration complex ``fm`` and its quotient, and on each side a letter map
naming the based loop of every letter edge.  It is built from a gradient
field and the letter map of each side, and builds each side's spanning tree
from these two alone: the field's forest plus the critical edges that name
no letter (``maximal_tree``), with parent pointers from the base.  The
upstairs cells over the quotient base are the m sheets, numbered by deck
exponent.  One lazily filled table answers every question about lifting: ``lift_letter(sheet, letter)`` lifts the letter's
quotient loop from that sheet, closes the lift through the upstairs tree
paths from the base and back, and returns its upstairs word with the sheet
it ends on.  The maps of the paper are read off it:

* ``theta_letter`` / ``theta_word`` -- the end sheet of a lift, walked letter
  by letter from sheet 0 (the classifying map theta onto Z_m);
* ``rewrite`` -- the product of the letters' lifts along the running sheet,
  or None when the walk ends off sheet 0 (restriction along the covering);
* ``iota_word`` -- each upstairs letter mapped through one per-letter cache
  filled by the hook ``iota_letter``, by default ``iota_by_projection``:
  push the letter's loop down cell-wise and express it against the quotient
  tree (the injection iota).

The module functions below work on any complex through its 1-skeleton:
vertices are 0-cells, edges are 1-cells with a (source, target) orientation.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional

from .complexes import Cell, QuotientComplex, act
from .errors import InvalidParameterError, StructuralError
from .graphs import union_find
from .morse import GradientField
from .perms import Perm
from .words import FreeWord

Step = tuple[Cell, int]  # (1-cell, +1 along orientation / -1 against)


@dataclass(frozen=True)
class EdgePath:
    start: Cell
    steps: tuple[Step, ...]
    end: Cell

    def __len__(self) -> int:
        return len(self.steps)

    def is_closed(self) -> bool:
        return self.start == self.end


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


def concat(cx, *paths: EdgePath) -> EdgePath:
    out = paths[0]
    for p in paths[1:]:
        if p.start != out.end:
            raise InvalidParameterError("paths do not concatenate")
        out = EdgePath(out.start, out.steps + p.steps, p.end)
    return out


def reverse_path(path: EdgePath) -> EdgePath:
    return EdgePath(path.end, tuple((e, -s) for e, s in reversed(path.steps)), path.start)


# -- spanning trees ----------------------------------------------------------

Parents = Mapping[Cell, Optional[tuple[Cell, int, Cell]]]


def maximal_tree(field: GradientField, selected: frozenset[Cell]) -> frozenset[Cell]:
    """Forest edges plus the selected critical edges; checked to span."""
    cx = field.complex
    edges = list(field.forest_edges) + sorted(selected, key=cx.sort_key)
    vertices = cx.cells_by_dim[0]
    if len(edges) != len(vertices) - 1:
        raise StructuralError(
            f"candidate tree has {len(edges)} edges on {len(vertices)} vertices"
        )
    _, closing = union_find(vertices, {e: cx.edge_endpoints(e) for e in edges})
    if closing:
        raise StructuralError(f"candidate tree has a cycle through {closing[0]!r}")
    return frozenset(edges)


def tree_parents(cx, tree_edges: frozenset[Cell], base: Cell) -> dict[Cell, Optional[tuple[Cell, int, Cell]]]:
    """Breadth-first parent pointers within a spanning set of 1-cells.

    parents[v] is (edge, sign, parent) where traversing edge with sign leads
    from parent to v; the base maps to None.  Raises if the tree does not
    reach every 0-cell.
    """
    adjacency: dict[Cell, list[tuple[Cell, int, Cell]]] = {v: [] for v in cx.cells_by_dim[0]}
    for e in sorted(tree_edges, key=cx.sort_key):
        src, tgt = cx.edge_endpoints(e)
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
    if len(parents) != len(cx.cells_by_dim[0]):
        raise StructuralError("tree does not span the 0-skeleton")
    return parents


def tree_path_to(cx, parents: Parents, v: Cell) -> EdgePath:
    """The unique tree path from the base to v."""
    steps: list[Step] = []
    cur = v
    while parents[cur] is not None:
        edge, sign, parent = parents[cur]
        steps.append((edge, sign))
        cur = parent
    steps.reverse()
    return make_path(cx, cur, steps)


def generator_loop(cx, parents: Parents, base: Cell, edge: Cell) -> EdgePath:
    """The based loop of a non-tree edge: tree to its source, edge, tree back."""
    src, tgt = cx.edge_endpoints(edge)
    to_src = tree_path_to(cx, parents, src)
    to_tgt = tree_path_to(cx, parents, tgt)
    if to_src.start != base or to_tgt.start != base:
        raise StructuralError("tree paths do not start at the base")
    return concat(cx, to_src, make_path(cx, src, [(edge, 1)]), reverse_path(to_tgt))


# -- loop expression ---------------------------------------------------------


def express_loop(path: EdgePath, tree_edges: frozenset[Cell], letter_of: Callable[[Cell], object]) -> FreeWord:
    """Read off, in order, the non-tree edges a closed path traverses.

    letter_of maps a non-tree 1-cell to the letter naming its based loop; it
    should raise KeyError on unknown edges.
    """
    if not path.is_closed():
        raise InvalidParameterError("path is not closed")
    pieces = []
    for edge, sign in path.steps:
        if edge in tree_edges:
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
    """Lift a quotient path through the m-to-1 projection, given a start cell."""
    if q.project(start) != qpath.start:
        raise InvalidParameterError("start cell does not lie over the path start")
    cur = start
    steps: list[Step] = []
    for orbit_edge, sign in qpath.steps:
        hits = []
        for member in q.members_of[orbit_edge]:
            src, tgt = q.fm.edge_endpoints(member)
            if (sign == 1 and src == cur) or (sign == -1 and tgt == cur):
                hits.append(member)
        if len(hits) != 1:
            raise StructuralError(f"lift of {orbit_edge!r} at {cur!r} is not unique")
        member = hits[0]
        src, tgt = q.fm.edge_endpoints(member)
        steps.append((member, sign))
        cur = tgt if sign == 1 else src
    return EdgePath(start, tuple(steps), cur)


# -- the covering --------------------------------------------------------------


class Covering:
    """The covering fm -> quotient, with a spanning tree on each side.

    ``letter_fm`` and ``letter_q`` map critical 1-cells of their side's
    gradient field to the letter naming their based loop; words on either
    side are words in these letters.  The other critical 1-cells join the
    field's forest in that side's spanning tree.
    """

    def __init__(
        self,
        field_fm: GradientField,
        field_q: GradientField,
        letter_fm: Mapping[Cell, object],
        letter_q: Mapping[Cell, object],
    ):
        # The fields are not kept: a tree target needs them only here, and
        # every cached tree system would otherwise hold its matchings.
        self.fm = fm = field_fm.complex
        self.quotient = quotient = field_q.complex
        self.tree_fm, self.tree_q = (
            maximal_tree(field, frozenset(e for e in field.critical(1) if e not in letters))
            for field, letters in ((field_fm, letter_fm), (field_q, letter_q))
        )
        self.parents_fm = tree_parents(fm, self.tree_fm, fm.base)
        self.parents_q = tree_parents(quotient, self.tree_q, quotient.base)
        self.letter_fm = letter_fm
        self.letter_q = letter_q
        self._edge_fm = {letter: edge for edge, letter in letter_fm.items()}
        self._edge_q = {letter: edge for edge, letter in letter_q.items()}
        self._loops_fm: dict[object, EdgePath] = {}
        self._loops_q: dict[object, EdgePath] = {}
        self._lifts: dict[tuple[int, object], tuple[FreeWord, int]] = {}
        self._iota: dict[object, FreeWord] = {}
        n = fm.m
        self.c1 = Perm.cycle(1, n)
        # The deck group is identified with Z_n through the inverse rotation:
        # under it the canonical type-1 lollipop generator measures +1.
        self._sheets = [act(self.c1 ** (-t % n), fm.base) for t in range(n)]
        self._deck = {cell: t for t, cell in enumerate(self._sheets)}

    # -- loops and their words ----------------------------------------------

    def loop_fm(self, letter) -> EdgePath:
        """The based upstairs loop that reads the single letter."""
        if letter not in self._loops_fm:
            edge = self._edge_fm[letter]
            self._loops_fm[letter] = generator_loop(self.fm, self.parents_fm, self.fm.base, edge)
        return self._loops_fm[letter]

    def loop_q(self, letter) -> EdgePath:
        """The based quotient loop that reads the single letter."""
        if letter not in self._loops_q:
            edge = self._edge_q[letter]
            q = self.quotient
            self._loops_q[letter] = generator_loop(q, self.parents_q, q.base, edge)
        return self._loops_q[letter]

    def express_fm(self, path: EdgePath) -> FreeWord:
        return express_loop(path, self.tree_fm, self.letter_fm.__getitem__)

    def express_q(self, path: EdgePath) -> FreeWord:
        return express_loop(path, self.tree_q, self.letter_q.__getitem__)

    # -- the maps of the covering ---------------------------------------------

    def deck_exponent(self, vertex: Cell) -> int:
        """t in Z_n with vertex == act(c1^-t, base)."""
        try:
            return self._deck[vertex]
        except KeyError:
            raise StructuralError(f"{vertex!r} is not in the base orbit") from None

    def lift_letter(self, sheet: int, letter) -> tuple[FreeWord, int]:
        """Lift the letter's quotient loop from the given sheet; the upstairs
        word of the lift closed through the tree paths, and its end sheet."""
        key = (sheet, letter)
        if key not in self._lifts:
            start = self._sheets[sheet]
            lifted = lift_path(self.quotient, self.loop_q(letter), start)
            closed = concat(
                self.fm,
                tree_path_to(self.fm, self.parents_fm, start),
                lifted,
                reverse_path(tree_path_to(self.fm, self.parents_fm, lifted.end)),
            )
            self._lifts[key] = (self.express_fm(closed), self.deck_exponent(lifted.end))
        return self._lifts[key]

    def theta_letter(self, letter) -> int:
        """The sheet on which the letter's lift from sheet 0 ends."""
        return self.lift_letter(0, letter)[1]

    def theta_by_lift(self, word: FreeWord) -> int:
        """Walk the word's letters across the sheets from sheet 0; the sheet
        reached.  A syllable g^-1 steps back by theta(g)."""
        sheet, n = 0, self.fm.m
        for letter, sign in word:
            if sign == 1:
                sheet = self.lift_letter(sheet, letter)[1]
            else:
                sheet = (sheet - self.theta_letter(letter)) % n
        return sheet

    theta_word = theta_by_lift

    def rewrite(self, word: FreeWord) -> Optional[FreeWord]:
        """The upstairs word over a quotient word: the product of its letters'
        lifts along the running sheet, or None when the walk ends off sheet 0
        (the word lies outside the covering subgroup).  A syllable g^-1 at
        sheet t is the reversed lift of g from sheet t - theta(g)."""
        sheet, n, pieces = 0, self.fm.m, []
        for letter, sign in word:
            if sign == 1:
                piece, sheet = self.lift_letter(sheet, letter)
            else:
                sheet = (sheet - self.theta_letter(letter)) % n
                piece = self.lift_letter(sheet, letter)[0].inverse()
            pieces.append(piece)
        return FreeWord.product(pieces) if sheet == 0 else None

    def iota_by_projection(self, letter) -> FreeWord:
        """Push the upstairs letter's loop down cell-wise; its quotient word."""
        return self.express_q(project_path(self.quotient, self.loop_fm(letter)))

    iota_letter = iota_by_projection  # the per-letter hook iota_word caches

    def iota_word(self, word: FreeWord) -> FreeWord:
        cache = self._iota
        for letter in word.support() - cache.keys():
            cache[letter] = self.iota_letter(letter)
        return FreeWord.product(cache[l] if sign == 1 else cache[l].inverse() for l, sign in word)
