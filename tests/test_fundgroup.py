import math
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from braidbu.covering import concat, express_loop, make_path as make_edge_path
from braidbu.errors import StructuralError
from braidbu.fundgroup import GeneratorId, get_system, maximal_tree
from braidbu.oracle import chi_oracle
from braidbu.perms import Perm
from braidbu.words import FreeWord


@pytest.fixture(scope="module")
def sys2():
    return get_system(2)


@pytest.fixture(scope="module")
def sys3():
    return get_system(3)


def quotient_gen(m, images, b):
    return GeneratorId("quotient", Perm(images), b)


def fm_gen(images, b):
    return GeneratorId("fm", Perm(images), b)


def words_over(letters, max_size=10):
    syllables = st.tuples(st.sampled_from(letters), st.sampled_from([1, -1]))
    return st.lists(syllables, max_size=max_size).map(FreeWord.of)


class TestSelection:
    def test_m2_selected(self, sys2):
        assert sys2.selected("fm") == frozenset({(2, "a")})
        assert sys2.selected("quotient") == frozenset()

    def test_m3_counts(self, sys3):
        by_type = {}
        for cell in sys3.selected("fm"):
            from braidbu.morse import edge_type

            by_type[edge_type(cell, 3)] = by_type.get(edge_type(cell, 3), 0) + 1
        assert by_type == {1: 4, 2: 1}
        assert len(sys3.selected("fm")) == math.factorial(3) - 1
        assert sys3.selected("quotient") == frozenset({(0, 3, "a")})

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_totals(self, m):
        assert len(get_system(m).selected("fm")) == math.factorial(m) - 1
        assert len(get_system(m).selected("quotient")) == math.factorial(m - 1) - 1


class TestMaximalTrees:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("space", ["fm", "quotient"])
    def test_spanning(self, m, space):
        system = get_system(m)
        field = system.field_fm if space == "fm" else system.field_q
        tree = maximal_tree(field, system.selected(space))
        assert len(tree) == len(field.complex.cells_by_dim[0]) - 1

    def test_bad_selection_caught(self, sys2):
        with pytest.raises(StructuralError):
            maximal_tree(sys2.field_fm, frozenset())  # too few edges to span


class TestBases:
    def test_m2_fm_basis(self, sys2):
        cells = {g.cell() for g in sys2.basis("fm")}
        assert cells == {("a", 2), (0, "a"), ("a", 0)}

    def test_m2_quotient_basis(self, sys2):
        names = [g.name() for g in sys2.basis("quotient")]
        assert names == ["[O1]", "[O2]"]

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_rank_formula(self, m):
        system = get_system(m)
        assert len(system.basis_fm) == m * math.factorial(m) - math.factorial(m) + 1
        assert len(system.basis_fm) == 1 - chi_oracle(system.fm)
        assert len(system.basis_q) == 1 - chi_oracle(system.quotient)

    def test_m3_rank(self, sys3):
        assert len(sys3.basis_fm) == 13
        assert len(sys3.basis_q) == 5


class TestExpressLoop:
    def test_tree_only_path_is_trivial(self, sys2):
        # a there-and-back walk inside the maximal tree
        edge = next(iter(sys2.tree_fm))
        src, tgt = sys2.fm.edge_endpoints(edge)
        path = make_edge_path(sys2.fm, src, [(edge, 1), (edge, -1)])
        assert express_loop(path, sys2.tree_fm, lambda e: e).is_identity()

    def test_generator_loop_reads_one_letter(self, sys2):
        for gen in sys2.basis_fm:
            word = sys2.express_fm(sys2.loop(gen))
            assert word == FreeWord.gen(gen)

    def test_concatenation_multiplies(self, sys2):
        g1, g2 = sys2.basis_fm[0], sys2.basis_fm[1]
        path = concat(sys2.fm, sys2.loop(g1), sys2.loop(g2))
        assert sys2.express_fm(path) == FreeWord.gen(g1) * FreeWord.gen(g2)

    def test_open_path_rejected(self, sys2):
        edge = next(iter(sys2.tree_fm))
        src, _tgt = sys2.fm.edge_endpoints(edge)
        path = make_edge_path(sys2.fm, src, [(edge, 1)])
        with pytest.raises(Exception):
            express_loop(path, sys2.tree_fm, lambda e: e)


class TestIota:
    def test_m2_closed_forms(self, sys2):
        o1, o2 = quotient_gen(2, (1, 2), 1), quotient_gen(2, (1, 2), 2)
        z, w = FreeWord.gen(o1), FreeWord.gen(o2)
        assert sys2.iota_closed_form(fm_gen((1, 2), 1)) == z * z
        assert sys2.iota_closed_form(fm_gen((1, 2), 2)) == w
        assert sys2.iota_closed_form(fm_gen((2, 1), 2)) == z.inverse() * w * z

    @pytest.mark.parametrize("m", [2, 3])
    def test_closed_form_equals_oracle(self, m):
        system = get_system(m)
        for gen in system.basis_fm:
            assert system.iota_closed_form(gen) == system.iota_oracle(gen)

    @pytest.mark.parametrize("m", [2, 3])
    def test_theta_kills_the_image(self, m):
        system = get_system(m)
        for gen in system.basis_fm:
            assert system.theta_word(system.iota_closed_form(gen)) == 0

    def test_injective_on_short_words(self, sys2):
        gens = sys2.basis_fm
        letters = [(g, 1) for g in gens] + [(g, -1) for g in gens]
        words = {FreeWord()}
        frontier = [FreeWord()]
        for _ in range(3):
            nxt = []
            for w in frontier:
                for letter in letters:
                    extended = w * FreeWord.of([letter])
                    if len(extended) == len(w) + 1 and extended not in words:
                        words.add(extended)
                        nxt.append(extended)
            frontier = nxt
        images = {w: sys2.iota_word(w) for w in words}
        assert len(set(images.values())) == len(words)

    def test_selected_middle_bracket_resolves_to_identity(self, sys3):
        # the type-2 generator whose middle bracket orbit sits in the tree
        gen = fm_gen((2, 1, 3), 2)
        closed = sys3.iota_closed_form(gen)
        assert all(letter.type_b == 1 for letter, _sign in closed)
        assert closed == sys3.iota_oracle(gen)


class TestP1:
    def test_m2_values(self, sys2):
        assert sys2.p1_closed_form(fm_gen((1, 2), 1)) == 1  # first coordinate is the loop edge
        assert sys2.p1_closed_form(fm_gen((1, 2), 2)) == 0
        assert sys2.p1_closed_form(fm_gen((2, 1), 2)) == 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_closed_form_equals_oracle(self, m):
        system = get_system(m)
        for gen in system.basis_fm:
            assert system.p1_closed_form(gen) == system.p1_oracle(gen)


class TestTheta:
    def test_m2_values(self, sys2):
        assert sys2.theta_closed_form(quotient_gen(2, (1, 2), 1)) == 1
        assert sys2.theta_closed_form(quotient_gen(2, (1, 2), 2)) == 0

    def test_m3_type1_value(self, sys3):
        # canonical sigma swapping 2 and 3: theta = sigma^-1(2) - 1 = 2
        assert sys3.theta_closed_form(quotient_gen(3, (1, 3, 2), 1)) == 2

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_closed_form_equals_oracle(self, m):
        system = get_system(m)
        for gen in system.basis_q:
            assert system.theta_closed_form(gen) == system.theta_oracle(FreeWord.gen(gen))

    @pytest.mark.parametrize("m", [2, 3])
    def test_oracle_is_a_homomorphism(self, m):
        system = get_system(m)
        gens = system.basis_q
        for g1, g2 in product(gens[:3], gens[:3]):
            w = FreeWord.gen(g1) * FreeWord.gen(g2, -1)
            assert system.theta_oracle(w) == (
                system.theta_closed_form(g1) - system.theta_closed_form(g2)
            ) % m

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_onto(self, m):
        system = get_system(m)
        # the canonical type-1 generator already maps to 1, so theta is onto
        assert system.theta_closed_form(system.z) == 1
        hit = {system.theta_word(FreeWord.gen(system.z) ** k) for k in range(m)}
        assert hit == set(range(m))


class TestCorollaryIdentities:
    @pytest.mark.parametrize("m", [2, 3])
    def test_rotated_top_generators(self, m):
        system = get_system(m)
        z = FreeWord.gen(system.z)
        om = FreeWord.gen(quotient_gen(m, tuple(range(1, m + 1)), m))
        for r in range(m):
            gen = GeneratorId("fm", Perm.cycle(1, m) ** r, m)
            assert system.iota_closed_form(gen) == (z ** -r) * om * (z ** r)
            assert system.iota_oracle(gen) == (z ** -r) * om * (z ** r)

    @pytest.mark.parametrize("m", [2, 3])
    def test_conjugation_shift(self, m):
        system = get_system(m)
        z = FreeWord.gen(system.z)
        for r in range(1, m):
            lhs = z * system.iota_closed_form(GeneratorId("fm", Perm.cycle(1, m) ** r, m)) * z.inverse()
            rhs = system.iota_closed_form(GeneratorId("fm", Perm.cycle(1, m) ** (r - 1), m))
            assert lhs == rhs


class TestRewriting:
    def test_square_of_z(self, sys2):
        z = FreeWord.gen(sys2.z)
        assert sys2.rs_rewrite(z * z) == FreeWord.gen(fm_gen((1, 2), 1))

    def test_not_in_subgroup(self, sys2):
        assert sys2.rs_rewrite(FreeWord.gen(sys2.z)) is None

    def test_empty_word(self, sys2):
        assert sys2.rs_rewrite(FreeWord()) == FreeWord()

    @pytest.mark.parametrize("m", [2, 3])
    def test_inverts_iota_on_basis(self, m):
        system = get_system(m)
        for gen in system.basis_fm:
            assert system.rs_rewrite(system.iota_closed_form(gen)) == FreeWord.gen(gen)

    def test_inverts_iota_on_words(self, sys3):
        g1, g2, g3 = sys3.basis_fm[0], sys3.basis_fm[5], sys3.basis_fm[9]
        w = FreeWord.gen(g1) * FreeWord.gen(g2, -1) * FreeWord.gen(g3)
        assert sys3.rs_rewrite(sys3.iota_word(w)) == w

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_inverts_iota_on_random_words(self, data):
        system = get_system(data.draw(st.integers(2, 4)))
        w = data.draw(words_over(system.basis_fm))
        assert system.rs_rewrite(system.iota_word(w)) == w

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_no_preimage_exactly_off_the_subgroup(self, data):
        system = get_system(data.draw(st.integers(2, 4)))
        w = data.draw(words_over(system.basis_q))
        upstairs = system.rs_rewrite(w)
        assert (upstairs is None) == (system.theta_word(w) != 0)
        assert (system.rewrite(w) is None) == (upstairs is None)
        if upstairs is not None:
            assert system.iota_word(upstairs) == w

    def test_letter_lifts_end_on_the_shifted_sheet(self, sys3):
        for letter in sys3.basis_q:
            for sheet in range(3):
                _word, end = sys3.lift_letter(sheet, letter)
                assert end == (sheet + sys3.theta_letter(letter)) % 3

    def test_lift_disagreeing_with_closed_form_raises(self, sys2, monkeypatch):
        monkeypatch.setattr(sys2, "theta_closed_form", lambda gen: 0)
        with pytest.raises(StructuralError):
            sys2.rs_rewrite(FreeWord.gen(sys2.z))
