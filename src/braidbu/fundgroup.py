"""Free bases for the fundamental groups of the lollipop configuration
complex and its cyclic quotient, and the three structural homomorphisms.

For m particles on the lollipop, both fundamental groups are free: critical
1-cells that are not selected into the maximal tree give the basis.  Three
homomorphisms are computed twice, from closed formulas and from independent
geometric oracles:

* ``iota`` -- the injection of the upstairs group into the quotient group,
  induced by the m-to-1 projection.  Oracle: push the basis loop down
  cell-wise and read it off against the quotient maximal tree.
* ``p1`` -- evaluation of the first particle in the underlying graph's
  fundamental group (infinite cyclic on the loop edge ``a``).  Oracle: trace
  the first coordinate of the basis loop and count signed ``a`` crossings.
* ``theta`` -- the classifying map of the covering onto the deck group Z_m.
  Oracle: lift the word letter by letter across the sheets and read the
  deck rotation reached.

``BraidSystem`` is the ``Covering`` of the lollipop configuration complex
over its quotient whose letters are the basis elements; the three oracles
are that covering's projection and lifting.  ``rs_rewrite`` inverts ``iota``
on its image with the covering's one rewriting: each quotient letter is
lifted from the sheet the word has reached so far, and the lifts multiply.
The closed-form theta decides whether a word has a preimage, and the lift
must agree with it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .complexes import Cell, act, build_dconf, build_quotient
from .covering import Covering, EdgePath
from .errors import InvalidParameterError, StructuralError
from .graphs import make_lollipop, union_find
from .morse import GradientField, build_field, edge_data, type_tuple
from .perms import Perm, cyclic_canonical
from .words import FreeWord

SPACE_FM = "fm"
SPACE_QUOTIENT = "quotient"


@dataclass(frozen=True)
class GeneratorId:
    """A basis element: the critical edge act(sigma, O_b) of its space.

    ``sigma`` is the sorting permutation of the edge's source vertex; for the
    quotient it is the canonical coset representative (sigma(1) == 1).
    """

    space: str
    sigma: Perm
    type_b: int

    @property
    def m(self) -> int:
        return self.sigma.n

    def cell(self) -> Cell:
        return act(self.sigma, type_tuple(self.type_b, self.m))

    def name(self) -> str:
        core = f"O{self.type_b}"
        if not self.sigma.is_identity():
            core = f"s{self.sigma.oneline()}*{core}"
        return core if self.space == SPACE_FM else f"[{core}]"


class BraidSystem(Covering):
    """Everything attached to one particle count m on the lollipop: the
    covering of its configuration complex, whose letters are the basis
    elements of both free groups."""

    def __init__(self, m: int):
        if m < 2:
            raise InvalidParameterError(f"need m >= 2, got {m}")
        self.m = m
        self.graph = make_lollipop(m)
        self.loop_name = self.graph.loop_edge.name
        fm = build_dconf(self.graph, m)
        quotient = build_quotient(fm, m)
        self.field_fm: GradientField = build_field(fm)
        self.field_q: GradientField = build_field(quotient, self.field_fm)

        self.selected_fm = self._selected_fm()
        self.selected_q = self._selected_q()
        letter_fm = {
            cell: GeneratorId(SPACE_FM, *edge_data(cell, self.graph, m))
            for cell in self.field_fm.critical(1)
            if cell not in self.selected_fm
        }
        letter_q = {}
        for rep in self.field_q.critical(1):
            if rep not in self.selected_q:
                sigma, b = edge_data(rep, self.graph, m)
                letter_q[rep] = GeneratorId(SPACE_QUOTIENT, cyclic_canonical(sigma)[0], b)
        super().__init__(
            fm,
            quotient,
            maximal_tree(self.field_fm, self.selected_fm),
            maximal_tree(self.field_q, self.selected_q),
            letter_fm,
            letter_q,
        )
        by_type = lambda g: (g.type_b, g.sigma.images)
        self.basis_fm: list[GeneratorId] = sorted(letter_fm.values(), key=by_type)
        self.basis_q: list[GeneratorId] = sorted(letter_q.values(), key=by_type)

        self._iota_oracle_cache: dict[GeneratorId, FreeWord] = {}

    # -- selection -----------------------------------------------------------

    @staticmethod
    def _is_selected_tuple(cell: Cell, b: int) -> bool:
        """Selection rule on a critical edge: the first b-1 coordinates are the
        minimal vertices 0..b-2 but the b-th coordinate is not the loop edge."""
        return all(cell[i] == i for i in range(b - 1)) and cell[b - 1] != "a"

    @staticmethod
    def _selected_sigma(sigma: Perm, b: int) -> bool:
        return all(sigma(i) == i for i in range(1, b)) and sigma(b) != b

    def _selected_fm(self) -> frozenset[Cell]:
        out = set()
        for cell in self.field_fm.critical(1):
            _, b = edge_data(cell, self.graph, self.m)
            if b <= self.m - 1 and self._is_selected_tuple(cell, b):
                out.add(cell)
        return frozenset(out)

    def _selected_q(self) -> frozenset[Cell]:
        out = set()
        for rep in self.field_q.critical(1):
            sigma, b = edge_data(rep, self.graph, self.m)
            if b < 2 or b > self.m - 1:
                continue
            canonical, _ = cyclic_canonical(sigma)
            if self._is_selected_tuple(act(canonical, type_tuple(b, self.m)), b):
                out.add(rep)
        return frozenset(out)

    # -- bases and loops ------------------------------------------------------

    def basis(self, space: str) -> list[GeneratorId]:
        return list(self.basis_fm if space == SPACE_FM else self.basis_q)

    def selected(self, space: str) -> frozenset[Cell]:
        return self.selected_fm if space == SPACE_FM else self.selected_q

    def orbit_of_gen(self, gen: GeneratorId) -> Cell:
        return self.quotient.project(gen.cell())

    def loop(self, gen: GeneratorId) -> EdgePath:
        """The based loop of a basis element, in the space it belongs to."""
        return self.loop_fm(gen) if gen.space == SPACE_FM else self.loop_q(gen)

    # -- iota -------------------------------------------------------------

    def _bracket(self, sigma: Perm, b: int) -> Optional[GeneratorId]:
        """Quotient letter for the orbit of act(sigma, O_b); None when the
        orbit is selected (its loop lies in the maximal tree)."""
        canonical, _ = cyclic_canonical(sigma)
        if b >= 2 and self._selected_sigma(canonical, b) and b <= self.m - 1:
            return None
        return GeneratorId(SPACE_QUOTIENT, canonical, b)

    def iota_closed_form(self, gen: GeneratorId) -> FreeWord:
        """Image of an upstairs basis element in the quotient basis."""
        if gen.space != SPACE_FM:
            raise InvalidParameterError("iota takes generators of the m-particle space")
        sigma, b, m = gen.sigma, gen.type_b, self.m
        c1 = self.c1

        def type1_run(tau_of_i, count) -> FreeWord:
            letters = [self._bracket(tau_of_i(i), 1) for i in range(1, count + 1)]
            if None in letters:
                raise StructuralError("type-1 orbit can never be selected")
            return FreeWord.product(FreeWord.gen(letter) for letter in letters)

        if b == 1:
            return type1_run(lambda i: sigma * c1 ** (-(i - 1)), m)

        s = sigma(1)
        if s == 1:
            letter = self._bracket(sigma, b)
            if letter is None:
                raise StructuralError("a canonical basis edge cannot be selected")
            return FreeWord.gen(letter)

        prefix = type1_run(lambda i: sigma * c1 ** (-(i - 1)), s - 1)
        mid_letter = self._bracket(sigma, b)
        middle = FreeWord() if mid_letter is None else FreeWord.gen(mid_letter)
        cb_inv = Perm.cycle(b, m).inverse()
        count = (s - 1) if s < b else (m - 1) if s == b else (s - 2)
        suffix = type1_run(lambda i: sigma * cb_inv * c1 ** (-(i - 1)), count)
        return FreeWord.product((prefix.inverse(), middle, suffix))

    def iota_oracle(self, gen: GeneratorId) -> FreeWord:
        """Project the basis loop cell-wise and read it off downstairs."""
        if gen not in self._iota_oracle_cache:
            self._iota_oracle_cache[gen] = self.iota_by_projection(gen)
        return self._iota_oracle_cache[gen]

    iota_letter = iota_closed_form
    # Bound in this class body: perfbench/tracing.py wraps it in BraidSystem.__dict__.
    iota_word = Covering.iota_word

    # -- p1 ---------------------------------------------------------------

    def p1_closed_form(self, gen: GeneratorId) -> int:
        if gen.space != SPACE_FM:
            raise InvalidParameterError("p1 takes generators of the m-particle space")
        return 1 if gen.cell()[0] == self.loop_name else 0

    def p1_oracle(self, gen: GeneratorId) -> int:
        """Trace the first coordinate along the basis loop; count signed
        crossings of the loop edge."""
        path = self.loop(gen)
        cur = path.start[0]
        count = 0
        for edge_cell, sign in path.steps:
            r = next(i for i, c in enumerate(edge_cell) if isinstance(c, str))
            if r != 0:
                continue
            e = self.graph.edge_by_name[edge_cell[0]]
            expected = e.lo if sign == 1 else e.hi
            if cur != expected:
                raise StructuralError("first-coordinate trace lost the walk")
            cur = e.hi if sign == 1 else e.lo
            if edge_cell[0] == self.loop_name:
                count += sign
        if cur != path.start[0]:
            raise StructuralError("first-coordinate trace did not close up")
        return count

    def p1_word(self, word: FreeWord) -> int:
        return word.evaluate_additive(self.p1_closed_form)

    # -- theta --------------------------------------------------------------

    def theta_closed_form(self, gen: GeneratorId) -> int:
        """theta on a quotient basis element, normalized so the canonical
        type-1 generator maps to 1."""
        if gen.space != SPACE_QUOTIENT:
            raise InvalidParameterError("theta takes quotient generators")
        if gen.type_b >= 2:
            return 0
        return (gen.sigma.inverse()(2) - 1) % self.m

    def theta_word(self, word: FreeWord) -> int:
        return word.evaluate_additive(self.theta_closed_form) % self.m

    # Bound in this class body: perfbench/tracing.py wraps it in BraidSystem.__dict__.
    theta_oracle = Covering.theta_by_lift

    # -- rewriting -------------------------------------------------------------

    @property
    def z(self) -> GeneratorId:
        """The canonical type-1 quotient generator (theta value 1)."""
        return GeneratorId(SPACE_QUOTIENT, Perm.identity(self.m), 1)

    def rs_rewrite(self, word: FreeWord) -> Optional[FreeWord]:
        """Rewrite a quotient word as an upstairs word, or None when the
        word lies outside the index-m subgroup (nonzero closed-form theta)."""
        if self.theta_word(word) != 0:
            return None
        upstairs = self.rewrite(word)
        if upstairs is None:
            raise StructuralError("the lift of the word does not close although its closed-form theta is 0")
        return upstairs


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


@lru_cache(maxsize=None)
def get_system(m: int) -> BraidSystem:
    return BraidSystem(m)

