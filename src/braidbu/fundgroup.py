"""Free bases for the fundamental groups of the lollipop configuration
complex and its cyclic quotient, and the three structural homomorphisms.

For m particles on the lollipop, both fundamental groups are free: critical
1-cells that are not selected into the maximal tree give the basis.  Each
critical edge of either level is act(sigma, O_b), and ``BraidSystem.name_edge``
reads (sigma, b) off it in closed form.  The selection rule lives in
``BraidSystem._letter``: it names each critical edge of either level by its
letter, or returns None when the edge is selected, and the closed-form iota
reuses it to name quotient orbits.  Three
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
over its quotient whose letters are the basis elements: it overrides only
``_letters``, through ``_letter``, and adds the closed forms.  The three
oracles are the covering's own projection, coordinate-0 trace and lifting
of the levels' basis loops.  ``rs_rewrite`` inverts ``iota`` on its image
with the covering's one sheet walk: each quotient letter is lifted from the
sheet the word has reached so far, and the lifts multiply.
The closed-form theta decides whether a word has a preimage, and the lift
must agree with it.
"""
from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Optional

from .complexes import Cell, act, check_room
from .covering import Covering, build_fields
# Bound here as well: perfbench/tracing.py patches it by looking up fundgroup.maximal_tree.
from .covering import maximal_tree  # noqa: F401
from .errors import InvalidParameterError, StructuralError
from .frozen import Frozen
from .graphs import make_lollipop
from .morse import GradientField
from .perms import Perm, cyclic_canonical
from .words import FreeWord

SPACE_FM = "fm"
SPACE_QUOTIENT = "quotient"


def type_tuple(b: int, m: int) -> Cell:
    """The ascending critical edge of type b: (0,..,b-2, a, m,..,2m-b-1)."""
    if not 1 <= b <= m:
        raise InvalidParameterError(f"type must be in 1..{m}, got {b}")
    return tuple(range(b - 1)) + ("a",) + tuple(range(m, 2 * m - b))


class GeneratorId(Frozen):
    """A basis element: the critical edge act(sigma, O_b) of its space.

    ``sigma`` is the sorting permutation of the edge's source vertex; for the
    quotient it is the canonical coset representative (sigma(1) == 1).
    Equality and hash are those of the tuple ``(space, sigma, type_b)``.
    """

    __slots__ = ("space", "sigma", "type_b")

    def __init__(self, space: str, sigma: Perm, type_b: int) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "type_b", type_b)

    def __reduce__(self):
        return GeneratorId, (self.space, self.sigma, self.type_b)

    def __repr__(self) -> str:
        return f"GeneratorId(space={self.space!r}, sigma={self.sigma!r}, type_b={self.type_b!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.space, self.sigma, self.type_b) == (other.space, other.sigma, other.type_b)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.space, self.sigma, self.type_b))

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
        check_room(2 * m, m)  # the lollipop has 2m vertices; refused before it is built
        fields = build_fields(make_lollipop(m), m)
        # Each type set's key names its type b and the place of each of its
        # coordinates in O_b; ``_letters`` reads it while the levels are built.
        set_key, self._types = fields[0].complex.set_key, {}
        for b in range(1, m + 1):
            o = type_tuple(b, m)
            self._types[set_key(o)] = b, {c: i for i, c in enumerate(o, 1)}
        super().__init__(*fields)

    def name_edge(self, cell: Cell) -> tuple[Perm, int]:
        """(sigma, b) of a critical edge of either level, the cell
        act(sigma, O_b): b is named by its coordinate set's key, and sigma(i)
        is the place in O_b of its i-th coordinate.  The loop's end m-1 sorts
        where ``a`` stands in O_b, so sigma is its source's sorting
        permutation.  Raises StructuralError when the set is no type set."""
        named = self._types.get(self.fm.set_key(cell))
        if named is None:
            raise StructuralError(f"coordinate set of {cell!r} matches no critical type")
        b, places = named
        return Perm(tuple(map(places.__getitem__, cell))), b

    def _letters(self, field: GradientField) -> dict[Cell, GeneratorId]:
        """Each critical edge named by ``_letter``; the selected ones are left out."""
        space = SPACE_FM if field.complex is self.fm else SPACE_QUOTIENT
        named = ((cell, self._letter(space, *self.name_edge(cell))) for cell in field.critical(1))
        return {cell: letter for cell, letter in named if letter is not None}

    # -- selection -----------------------------------------------------------

    @staticmethod
    def _letter(space: str, sigma: Perm, b: int) -> Optional[GeneratorId]:
        """The letter of the critical edge act(sigma, O_b) of the space, or
        None when the edge is selected into the maximal tree.

        A quotient edge is named by its orbit's canonical representative
        (sigma(1) == 1).  The edge is selected when sigma fixes 1..b-1 but
        moves b: its first b-1 coordinates are the minimal vertices 0..b-2
        and its b-th is not the loop edge.  So no type-m edge is selected
        (fixing 1..m-1 fixes m), nor a type-1 orbit (its representative
        fixes 1).
        """
        if space == SPACE_QUOTIENT:
            sigma = cyclic_canonical(sigma)[0]
        if all(sigma(i) == i for i in range(1, b)) and sigma(b) != b:
            return None
        return GeneratorId(space, sigma, b)

    # -- bases ----------------------------------------------------------------

    def basis(self, space: str) -> list[GeneratorId]:
        level = self.up if space == SPACE_FM else self.down
        return sorted(level.letters.values(), key=lambda g: (g.type_b, g.sigma.images))

    basis_fm = cached_property(lambda self: self.basis(SPACE_FM))
    basis_q = cached_property(lambda self: self.basis(SPACE_QUOTIENT))

    # -- iota -------------------------------------------------------------

    def iota_closed_form(self, gen: GeneratorId) -> FreeWord:
        """Image of an upstairs basis element in the quotient basis."""
        if gen.space != SPACE_FM:
            raise InvalidParameterError("iota takes generators of the m-particle space")
        sigma, b, m = gen.sigma, gen.type_b, self.m
        c1 = self.c1

        def type1_run(tau_of_i, count) -> FreeWord:
            letters = [self._letter(SPACE_QUOTIENT, tau_of_i(i), 1) for i in range(1, count + 1)]
            if None in letters:
                raise StructuralError("type-1 orbit can never be selected")
            return FreeWord.product(FreeWord.gen(letter) for letter in letters)

        if b == 1:
            return type1_run(lambda i: sigma * c1 ** (-(i - 1)), m)

        s = sigma(1)
        if s == 1:
            letter = self._letter(SPACE_QUOTIENT, sigma, b)
            if letter is None:
                raise StructuralError("a canonical basis edge cannot be selected")
            return FreeWord.gen(letter)

        prefix = type1_run(lambda i: sigma * c1 ** (-(i - 1)), s - 1)
        mid_letter = self._letter(SPACE_QUOTIENT, sigma, b)
        middle = FreeWord() if mid_letter is None else FreeWord.gen(mid_letter)
        cb_inv = Perm.cycle(b, m).inverse()
        count = (s - 1) if s < b else (m - 1) if s == b else (s - 2)
        suffix = type1_run(lambda i: sigma * cb_inv * c1 ** (-(i - 1)), count)
        return FreeWord.product((prefix.inverse(), middle, suffix))

    iota_letter = iota_closed_form
    # Bound in this class body: perfbench/tracing.py wraps them in BraidSystem.__dict__.
    iota_oracle = Covering.iota_by_projection
    iota_word = Covering.iota_word

    # -- p1 ---------------------------------------------------------------

    def p1_closed_form(self, gen: GeneratorId) -> int:
        if gen.space != SPACE_FM:
            raise InvalidParameterError("p1 takes generators of the m-particle space")
        return 1 if gen.cell()[0] == self.graph.loop_edge.name else 0

    # Bound in this class body: perfbench/tracing.py wraps it in BraidSystem.__dict__.
    p1_oracle = Covering.p1_oracle

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


@lru_cache(maxsize=None)
def get_system(m: int) -> BraidSystem:
    """The lollipop system for m particles, built once per process.  The
    cache needs no bound: ``BraidSystem`` refuses a complex of more than
    ``complexes.MAX_CELLS`` ordered 0-cells before building anything
    (``complexes.check_room``), which stops m at 6, so at most one system
    per m = 2..6 is ever kept."""
    return BraidSystem(m)

