import math
from collections import deque
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from braidbu import complexes, decide, fundgroup
from braidbu.complexes import act, build_dconf, build_quotient, components
from braidbu.covering import (
    Covering,
    EdgePath,
    express_loop,
    lift_path,
    make_path as make_edge_path,
    maximal_tree,
    skeleton,
    tree_parents,
)
from braidbu.decide import tree_system
from braidbu.errors import InvalidParameterError, PreconditionError, StructuralError
from braidbu.fundgroup import BraidSystem, GeneratorId, get_system, type_tuple
from braidbu.graphs import Graph, make_cycle, make_lollipop, make_path, make_star
from braidbu.morse import build_field
from braidbu.oracle import chi_oracle
from braidbu.perms import Perm, all_perms, cyclic_canonical, sorting_permutation
from braidbu.words import FreeWord
from test_morse import morse_ends


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


def _named_by_sort_and_frozenset(cell, graph, m):
    """(sigma, b) of a critical edge by sorting and by set: the sorting
    permutation of its source, the loop edge replaced by its smaller end, and
    the type whose coordinate set, as a frozenset, is the cell's."""
    loop = graph.loop_edge
    types = {frozenset(type_tuple(b, m)): b for b in range(1, m + 1)}
    return sorting_permutation(tuple(loop.lo if c == loop.name else c for c in cell)), types[frozenset(cell)]


class TestEdgeNaming:
    """``BraidSystem.name_edge`` reads (sigma, b) off a critical edge
    act(sigma, O_b) of either level."""

    def test_type_tuples(self):
        assert type_tuple(1, 2) == ("a", 2)
        assert type_tuple(2, 2) == (0, "a")
        assert type_tuple(2, 3) == (0, "a", 3)

    def test_type_examples(self, sys2, sys3):
        assert sys2.name_edge(("a", 2)) == (Perm.identity(2), 1)
        assert sys2.name_edge((0, "a")) == (Perm.identity(2), 2)
        assert sys2.name_edge(("a", 0)) == (Perm((2, 1)), 2)
        assert sys3.name_edge((0, "a", 3)) == (Perm.identity(3), 2)
        assert sys3.name_edge((3, 0, "a")) == (Perm((3, 1, 2)), 2)

    def test_non_type_set_is_refused(self, sys3):
        with pytest.raises(StructuralError, match="matches no critical type"):
            sys3.name_edge((0, "a", 4))

    def test_source_and_target(self, sys2):
        assert sys2.fm.edge_endpoints(("a", 2)) == ((1, 2), (3, 2))

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_names_equal_the_sort_and_frozenset_oracle(self, m):
        system = get_system(m)
        for level in (system.up, system.down):
            for cell in level.field.critical(1):
                assert system.name_edge(cell) == _named_by_sort_and_frozenset(cell, system.graph, m)

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_basis_cells_name_their_generators(self, m):
        system = get_system(m)
        for g in system.basis_fm + system.basis_q:
            assert system.name_edge(g.cell()) == (g.sigma, g.type_b)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_permutation_shift_rule(self, m):
        system = get_system(m)
        for cell in system.up.field.critical(1):
            b = system.name_edge(cell)[1]
            src, tgt = map(sorting_permutation, system.fm.edge_endpoints(cell))
            assert tgt == src * Perm.cycle(b, m).inverse()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_permutation_shift_rule_quotient(self, m):
        # The quotient places each end on the level, a rotation of the
        # upstairs end, which moves its sorting permutation within its coset.
        system = get_system(m)
        for rep in system.down.field.critical(1):
            b = system.name_edge(rep)[1]
            src, tgt = map(sorting_permutation, system.quotient.edge_endpoints(rep))
            assert cyclic_canonical(tgt)[0] == cyclic_canonical(src * Perm.cycle(b, m).inverse())[0]

    @pytest.mark.parametrize("m", [2, 3])
    def test_reconstruction_from_source_permutation(self, m):
        system = get_system(m)
        for cell in system.up.field.critical(1):
            sigma, b = system.name_edge(cell)
            src = system.fm.edge_endpoints(cell)[0]
            assert sigma == sorting_permutation(src)
            assert cell == act(sigma, type_tuple(b, m))
            assert src == act(sigma, tuple(sorted(src)))

    def test_action_on_sorted_tuples(self, sys3):
        ascending = [v for v in sys3.fm.cells_by_dim[0] if tuple(sorted(v)) == v]
        for sigma in all_perms(3):
            for v in ascending:
                assert sorting_permutation(act(sigma, v)) == sigma


class TestSelection:
    def test_m2_selected(self, sys2):
        assert sys2.up.selected == frozenset({(2, "a")})
        assert sys2.down.selected == frozenset()

    def test_m3_counts(self, sys3):
        by_type = {}
        for cell in sys3.up.selected:
            b = sys3.name_edge(cell)[1]
            by_type[b] = by_type.get(b, 0) + 1
        assert by_type == {1: 4, 2: 1}
        assert len(sys3.up.selected) == math.factorial(3) - 1
        assert sys3.down.selected == frozenset({(0, 3, "a")})

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_totals(self, m):
        assert len(get_system(m).up.selected) == math.factorial(m) - 1
        assert len(get_system(m).down.selected) == math.factorial(m - 1) - 1


class TestMaximalTrees:
    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("space", ["fm", "quotient"])
    def test_spanning(self, m, space):
        system = get_system(m)
        field = system.up.field if space == "fm" else system.down.field
        level = system.up if space == "fm" else system.down
        tree = maximal_tree(field, level.selected)
        assert tree == level.selected
        assert len(tree) == len(field.critical(0)) - 1
        assert level.parents.keys() == set(field.critical(0))

    def test_bad_selection_caught(self, sys2):
        with pytest.raises(StructuralError):
            maximal_tree(sys2.up.field, frozenset())  # too few edges to span

    def test_cycle_with_a_spanning_count_caught(self, sys3):
        # Swap a selected edge for a letter edge that is a loop of the Morse
        # complex: still c0 - 1 edges, but one closes a cycle, so they no
        # longer reach every critical 0-cell from the base's sink.
        level, field = sys3.up, sys3.up.field
        loop_edge = next(e for e in level.letters if len(set(morse_ends(field, e))) == 1)
        candidate = (level.selected - {next(iter(level.selected))}) | {loop_edge}
        assert maximal_tree(field, candidate) == candidate
        ends = {e: morse_ends(field, e) for e in candidate}
        with pytest.raises(StructuralError, match="does not span"):
            tree_parents(field.critical(0), ends, field.sink(sys3.fm.base))


# (graph, particles, components of the 1-skeleton); the stars are the
# benchmark's tree targets, and `dconf stats` reads its components this way.
SKELETONS = {
    **{
        f"star({legs},{length})-n{n}": (make_star(legs, length), n, 1)
        for legs, length, n in ((3, 2, 2), (4, 3, 2), (5, 2, 2), (3, 2, 3), (4, 2, 3), (3, 3, 3), (5, 2, 3))
    },
    **{f"lollipop-m{m}": (make_lollipop(m), m, 1) for m in (2, 3, 4, 5)},
    "claw-n3": (make_star(3, 1), 3, 6),
    "path(3)-m2": (make_path(3), 2, 2),
    "path(5)-m3": (make_path(5), 3, 6),
    "path(7)-m4": (make_path(7), 4, 24),
    # A cycle roots at an end of its non-tree edge: (m-1)! cyclic orders.
    **{f"cycle({n})-m{m}": (make_cycle(n), m, math.factorial(m - 1)) for n, m in ((3, 2), (4, 3), (6, 4), (8, 5))},
    "cycle(2)-m1": (make_cycle(2), 1, 1),
    "point-m1": (Graph(1, ()), 1, 1),
}


class TestSkeleton:
    @pytest.mark.parametrize("name", sorted(SKELETONS))
    def test_forest_and_critical_edges_give_the_components(self, name):
        graph, m, count = SKELETONS[name]
        fm = build_dconf(graph, m)
        field = build_field(fm, None)
        _, roots, _ = skeleton(field)
        assert len(set(roots.values())) == components(fm) == count
        q = build_quotient(fm)
        _, roots, _ = skeleton(build_field(q, field))
        assert len(set(roots.values())) == components(q)


COVERINGS = {
    "lollipop-m2": lambda: get_system(2),
    "lollipop-m3": lambda: get_system(3),
    "lollipop-m4": lambda: get_system(4),
    "star(3,2)-n2": lambda: tree_system(make_star(3, 2), 2),
    "star(4,3)-n3": lambda: tree_system(make_star(4, 3), 3),
}


class TestCoveringContract:
    """Both levels of every covering keep the ``Level`` contract."""

    @pytest.mark.parametrize("name", sorted(COVERINGS))
    def test_letters_and_selected_edges_partition_critical_edges(self, name):
        system = COVERINGS[name]()
        field_fm = build_field(system.fm, None)
        for field, level in ((field_fm, system.up), (build_field(system.quotient, field_fm), system.down)):
            assert level.selected | set(level.letters) == set(field.critical(1))
            assert not level.selected & set(level.letters)

    @pytest.mark.parametrize("name", sorted(COVERINGS))
    def test_parents_agree_with_a_sorted_walk(self, name):
        # The walk over sort_key-sorted selected edges of the Morse complex.
        system = COVERINGS[name]()
        for level in (system.up, system.down):
            cx, field = level.complex, level.field
            adjacency = {v: [] for v in field.critical(0)}
            for e in sorted(level.selected, key=cx.sort_key):
                src, tgt = morse_ends(field, e)
                adjacency[src].append((e, 1, tgt))
                adjacency[tgt].append((e, -1, src))
            root = field.sink(cx.base)
            parents, queue = {root: None}, deque([root])
            while queue:
                u = queue.popleft()
                for edge, sign, v in adjacency[u]:
                    if v not in parents:
                        parents[v] = (edge, sign, u)
                        queue.append(v)
            assert parents == level.parents

    @pytest.mark.parametrize("name", ["lollipop-m4", "star(4,3)-n3"])
    def test_parents_hold_the_complexs_own_vertices(self, name):
        system = COVERINGS[name]()
        for level in (system.up, system.down):
            own = {id(v) for v in level.field.critical(0)}
            assert all(id(v) in own for v in level.parents)
            assert all(id(entry[2]) in own for entry in level.parents.values() if entry is not None)

    @pytest.mark.parametrize("name", sorted(COVERINGS))
    def test_every_letter_loop_is_based_and_reads_its_letter(self, name):
        system = COVERINGS[name]()
        for level in (system.up, system.down):
            for letter in level.letters.values():
                loop = level.loop(letter)
                assert loop.start == loop.end == level.complex.base
                assert level.express(loop) == FreeWord.gen(letter)

    @pytest.mark.parametrize("name", sorted(COVERINGS))
    def test_system_class(self, name):
        # Trees need no class of their own: tree_system builds a plain Covering.
        want = BraidSystem if name.startswith("lollipop") else Covering
        assert type(COVERINGS[name]()) is want

    @pytest.mark.parametrize("name", sorted(COVERINGS))
    def test_unit_word_has_theta_one(self, name):
        system = COVERINGS[name]()
        unit = system.unit_word()
        assert system.theta_word(unit) == system.theta_by_lift(unit) == 1

    @pytest.mark.parametrize("name", ["star(3,2)-n2", "star(4,3)-n3"])
    def test_p1_oracle_is_zero_on_a_tree(self, name):
        system = COVERINGS[name]()
        assert system.graph.loop_edge is None
        assert all(system.p1_oracle(letter) == 0 for letter in system.up.letters.values())

    @pytest.mark.parametrize("name", ["star(3,2)-n2", "star(4,3)-n3"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_walk_theta_is_a_homomorphism(self, name, data):
        # A tree covering's theta_word is the sheet walk itself.
        system = COVERINGS[name]()
        letters = list(system.down.letters.values())
        u, v = data.draw(words_over(letters)), data.draw(words_over(letters))
        assert system.theta_word(u * v) == (system.theta_word(u) + system.theta_word(v)) % system.fm.m


def _lift_by_search(q, qpath, start):
    """lift_path by trying every rotation of each orbit edge at each step."""
    cur, steps = start, []
    for orbit_edge, sign in qpath.steps:
        hits = []
        for member in q.members_of[orbit_edge]:
            src, tgt = q.fm.edge_endpoints(member)
            frm, to = (src, tgt) if sign == 1 else (tgt, src)
            if frm == cur:
                hits.append((member, to))
        assert len(hits) == 1
        member, cur = hits[0]
        steps.append((member, sign))
    return tuple(steps), cur


def _spanning_tree_paths(level):
    """Each 0-cell's path from the base in the spanning tree of the forest
    and the selected edges, by a breadth-first walk over every 0-cell."""
    cx, classes = level.complex, level.field.classes
    forest = [classes[v] for v in cx.cells_by_dim[0] if classes[v] is not None]
    adjacency = {v: (v, []) for v in cx.cells_by_dim[0]}
    for e in forest + sorted(level.selected, key=cx.sort_key):
        src, tgt = cx.edge_endpoints(e)
        (src, out), (tgt, into) = adjacency[src], adjacency[tgt]
        out.append((e, 1, tgt))
        into.append((e, -1, src))
    parents, queue = {cx.base: None}, deque([cx.base])
    while queue:
        u = queue.popleft()
        for edge, sign, v in adjacency[u][1]:
            if v not in parents:
                parents[v] = (edge, sign, u)
                queue.append(v)
    assert len(parents) == len(adjacency) == len(forest) + len(level.selected) + 1
    paths = {}
    for v in cx.cells_by_dim[0]:
        steps, cur = [], v
        while parents[cur] is not None:
            edge, sign, cur = parents[cur]
            steps.append((edge, sign))
        paths[v] = tuple(reversed(steps))
    return paths


def _closed_through_the_tree(level, paths, path):
    """The path closed into a based loop through the spanning tree walk's
    paths to its ends, walked again from the base."""
    back = [(e, -s) for e, s in reversed(paths[path.end])]
    return make_edge_path(level.complex, level.complex.base, [*paths[path.start], *path.steps, *back])


STAR_COVERINGS = {
    f"star({legs},{length})-n{n}": (legs, length, n)
    for legs, length, n in ((3, 2, 2), (4, 3, 2), (5, 2, 2), (3, 2, 3), (4, 2, 3), (3, 3, 3), (5, 2, 3))
}
LOLLIPOPS_AND_STARS = [f"lollipop-m{m}" for m in (2, 3, 4)] + sorted(STAR_COVERINGS)


def _lollipop_or_star(name):
    if name.startswith("lollipop"):
        return get_system(int(name[-1]))
    legs, length, n = STAR_COVERINGS[name]
    return tree_system(make_star(legs, length), n)


class TestMorseTree:
    """``loop`` builds every tree path from Morse edges expanded along the
    flow; a walk over every 0-cell of the spanning tree must find the same
    paths."""

    @pytest.mark.parametrize("name", LOLLIPOPS_AND_STARS)
    def test_loops_equal_the_spanning_tree_walk(self, name):
        system = _lollipop_or_star(name)
        for level in (system.up, system.down):
            paths, base = _spanning_tree_paths(level), level.complex.base
            for edge, letter in level.letters.items():
                src, tgt = level.complex.edge_endpoints(edge)
                back = tuple((e, -s) for e, s in reversed(paths[tgt]))
                assert level.loop(letter) == EdgePath(base, paths[src] + ((edge, 1),) + back, base)

    @pytest.mark.parametrize("name", LOLLIPOPS_AND_STARS)
    def test_every_loop_walks_from_the_base_back_to_it(self, name):
        system = _lollipop_or_star(name)
        for level in (system.up, system.down):
            base = level.complex.base
            for letter in level.letters.values():
                loop = level.loop(letter)
                assert make_edge_path(level.complex, base, loop.steps) == loop

    @pytest.mark.parametrize("level_name", ["up", "down"])
    def test_flow_step_that_does_not_chain_is_refused(self, level_name, monkeypatch):
        # A fresh system has expanded no edge yet.  Break the flow from a
        # letter edge's target with a step that starts elsewhere: the
        # expansion check refuses the letter's loop.
        system = BraidSystem(3)
        level = getattr(system, level_name)
        cx, flow = level.complex, level.field.flow
        edge, letter = next(iter(level.letters.items()))
        tgt = cx.edge_endpoints(edge)[1]
        stray = next(e for e in level.letters if cx.edge_endpoints(e)[0] != flow(tgt)[1])

        def broken(v):
            steps, sink = flow(v)
            return (steps + [(stray, 1)] if v == tgt else steps), sink

        monkeypatch.setattr(level.field, "flow", broken)
        with pytest.raises(InvalidParameterError, match="does not start at"):
            level.loop(letter)

    @pytest.mark.parametrize("level_name", ["up", "down"])
    def test_parent_whose_expansion_starts_elsewhere_is_refused(self, level_name):
        # Turn a parent pointer's sign round: its Morse edge, expanded that
        # way, starts at the cell, not at the parent, so the join check
        # refuses the path to the cell.
        system = BraidSystem(3)
        level = getattr(system, level_name)
        u, (edge, sign, parent) = next((s, entry) for s, entry in level.parents.items() if entry is not None)
        level.parents[u] = (edge, -sign, parent)
        with pytest.raises(StructuralError, match="does not join"):
            level._to_sink(u)

    @pytest.mark.parametrize("name", sorted(COVERINGS))
    def test_tree_edges_are_the_forest_and_the_selected_edges(self, name):
        system = COVERINGS[name]()
        for level in (system.up, system.down):
            classes = level.field.classes
            forest = {classes[v] for v in level.complex.cells_by_dim[0]} - {None}
            tree = {e for e in level.complex.cells_by_dim[1] if level.is_tree_edge(e)}
            assert tree == forest | level.selected


class TestLifting:
    @pytest.mark.parametrize("name", sorted(COVERINGS))
    def test_lifts_match_a_search_over_each_orbit(self, name):
        system = COVERINGS[name]()
        q = system.quotient
        for letter in system.down.letters.values():
            loop = system.down.loop(letter)
            for sheet in range(system.m):
                start = system._sheets[sheet]
                lifted = lift_path(q, loop, start)
                assert (lifted.steps, lifted.end) == _lift_by_search(q, loop, start)
                assert lifted.start == start

    @pytest.mark.parametrize("name", LOLLIPOPS_AND_STARS)
    def test_lift_words_equal_the_lifts_closed_through_the_tree(self, name):
        # The oracle closes each lift into a based loop upstairs, through
        # the tree paths to its ends, before reading it.
        system = _lollipop_or_star(name)
        up = system.up
        paths = _spanning_tree_paths(up)
        for letter in system.down.letters.values():
            for sheet in range(system.m):
                lifted = lift_path(system.quotient, system.down.loop(letter), system._sheets[sheet])
                closed = _closed_through_the_tree(up, paths, lifted)
                assert closed.start == closed.end == system.fm.base
                expected = (up.express(closed), system.deck_exponent(lifted.end))
                assert system.lift_letter(sheet, letter) == expected

    def test_start_off_the_path_start_is_refused(self, sys3):
        loop = sys3.down.loop(next(iter(sys3.down.letters.values())))
        off = next(v for v in sys3.fm.cells_by_dim[0] if sys3.quotient.project(v) != loop.start)
        with pytest.raises(InvalidParameterError, match="does not lie over"):
            lift_path(sys3.quotient, loop, off)

    def test_step_away_from_the_lift_is_refused(self, sys3):
        q = sys3.quotient
        edge = next(e for e in q.cells_by_dim[1] if q.base not in q.edge_endpoints(e))
        broken = EdgePath(q.base, ((edge, 1),), q.edge_endpoints(edge)[1])
        with pytest.raises(StructuralError, match="has no lift"):
            lift_path(q, broken, sys3._sheets[0])

    def test_deck_exponent_outside_the_base_orbit_is_refused(self, sys3):
        off = next(v for v in sys3.fm.cells_by_dim[0] if sys3.quotient.project(v) != sys3.quotient.base)
        with pytest.raises(StructuralError, match="not in the base orbit"):
            sys3.deck_exponent(off)
        assert [sys3.deck_exponent(v) for v in sys3._sheets] == [0, 1, 2]


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
        edge = next(iter(sys2.up.selected))
        src, tgt = sys2.fm.edge_endpoints(edge)
        path = make_edge_path(sys2.fm, src, [(edge, 1), (edge, -1)])
        assert express_loop(path, sys2.up.is_tree_edge, lambda e: e).is_identity()

    def test_generator_loop_reads_one_letter(self, sys2):
        for gen in sys2.basis_fm:
            word = sys2.up.express(sys2.up.loop(gen))
            assert word == FreeWord.gen(gen)

    def test_concatenation_multiplies(self, sys2):
        g1, g2 = sys2.basis_fm[0], sys2.basis_fm[1]
        path = make_edge_path(sys2.fm, sys2.fm.base, [*sys2.up.loop(g1).steps, *sys2.up.loop(g2).steps])
        assert sys2.up.express(path) == FreeWord.gen(g1) * FreeWord.gen(g2)

    @pytest.mark.parametrize("level_name", ["up", "down"])
    def test_open_path_reads_its_closure_through_the_tree(self, sys3, level_name):
        level = getattr(sys3, level_name)
        cx, paths = level.complex, _spanning_tree_paths(level)
        opened = 0
        for edge in [*level.letters, *level.selected]:
            # a critical edge with its ends flowed to their sinks: its Morse edge
            src, tgt = cx.edge_endpoints(edge)
            (to_src, sink), to_tgt = level.field.flow(src), level.field.flow(tgt)[0]
            path = make_edge_path(cx, sink, [*((e, -s) for e, s in reversed(to_src)), (edge, 1), *to_tgt])
            opened += path.start != path.end
            closed = _closed_through_the_tree(level, paths, path)
            assert closed.start == closed.end == cx.base
            word = FreeWord.gen(level.letters[edge]) if edge in level.letters else FreeWord()
            assert level.express(path) == level.express(closed) == word
        assert opened


class TestIota:
    def test_m2_closed_forms(self, sys2):
        o1, o2 = quotient_gen(2, (1, 2), 1), quotient_gen(2, (1, 2), 2)
        z, w = FreeWord.gen(o1), FreeWord.gen(o2)
        assert sys2.iota_closed_form(fm_gen((1, 2), 1)) == z * z
        assert sys2.iota_closed_form(fm_gen((1, 2), 2)) == w
        assert sys2.iota_closed_form(fm_gen((2, 1), 2)) == z.inverse() * w * z

    @pytest.mark.parametrize("m", [2, 3, 4])
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

    @pytest.mark.parametrize("m", [2, 3, 4])
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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_walk_agrees_with_closed_form_on_words(self, data):
        system = get_system(data.draw(st.integers(2, 4)))
        w = data.draw(words_over(system.basis_q))
        assert system.theta_oracle(w) == system.theta_word(w)

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


class TestM5:
    def test_fresh_m5_system(self):
        system = BraidSystem(5)
        assert (len(system.basis_fm), len(system.basis_q)) == (481, 97)
        for field, c0, c1 in ((system.up.field, 120, 600), (system.down.field, 24, 120)):
            assert (len(field.critical(0)), len(field.critical(1))) == (c0, c1)
            cx = field.complex
            assert not any(field.critical(d) for d in range(2, cx.top_dim + 1))
            assert sum((-1) ** d * cx.num_cells(d) for d in range(cx.top_dim + 1)) == c0 - c1


def test_oversized_system_is_refused_before_its_graph_is_built(monkeypatch):
    def building(m):
        raise AssertionError("built the graph of an oversized system")

    monkeypatch.setattr(fundgroup, "make_lollipop", building)
    for m in (7, 10**6):
        with pytest.raises(PreconditionError, match="ordered 0-cells"):
            BraidSystem(m)


def test_builds_and_decisions_never_list_the_ordered_cells(monkeypatch):
    # One listing class serves both levels, so this also proves that no
    # build or decision lists the quotient's representatives.
    def refuse(*args):
        raise AssertionError("the ordered cells were listed")

    monkeypatch.setattr(complexes._Orderings, "__iter__", refuse)
    monkeypatch.setattr(complexes._Orderings, "__getitem__", refuse)
    get_system.cache_clear()
    decide._tree_system_cached.cache_clear()
    system = get_system(4)
    assert (len(system.basis_fm), len(system.basis_q)) == (73, 19)
    for cx in (system.fm, system.quotient):
        with pytest.raises(AssertionError, match="were listed"):
            list(cx.cells_by_dim[0])
    for legs, length, n in STAR_COVERINGS.values():
        graph = make_star(legs, length)
        covering = tree_system(graph, n)
        assert all(type(cells) is complexes._Orderings for cells in covering.quotient.cells_by_dim.values())
        assert not decide.decide_tree(graph, n, decide.ActionData(n, 1, (1,))).holds
