import math

import pytest

from braidbu.complexes import act, build_dconf, build_quotient
from braidbu.errors import InvalidParameterError, StructuralError
from braidbu.fundgroup import get_system
from braidbu.graphs import make_cycle, make_lollipop, make_path
from braidbu.morse import (
    associated_permutation,
    build_field,
    classify_cell,
    edge_source,
    edge_target,
    edge_type,
    forest,
    type_tuple,
)
from braidbu.perms import Perm, all_perms, cyclic_canonical


@pytest.fixture(scope="module")
def sys2():
    return get_system(2)


@pytest.fixture(scope="module")
def sys3():
    return get_system(3)


class TestClassification:
    def test_blocked_vertices_make_criticals(self, sys2):
        assert classify_cell((0, 1), sys2.fm).kind == "critical"
        assert classify_cell((1, 0), sys2.fm).kind == "critical"

    def test_redundant_vertex(self, sys2):
        cls = classify_cell((2, 0), sys2.fm)
        assert cls.kind == "redundant"
        assert cls.pair == ("a2", 0)
        assert cls.pivot == (1, "a2")

    def test_critical_edges(self, sys2):
        assert classify_cell(("a", 0), sys2.fm).kind == "critical"
        assert classify_cell(("a", 2), sys2.fm).kind == "critical"

    def test_collapsible_edge(self, sys2):
        cls = classify_cell(("a2", 0), sys2.fm)
        assert cls.kind == "collapsible"
        assert cls.pair == (2, 0)
        assert cls.pivot == (1, 2)

    def test_redundant_edge_pairs_up_to_square(self, sys2):
        cls = classify_cell(("a3", 1), sys2.fm)
        assert cls.kind == "redundant"
        assert cls.pair == ("a3", "a1")
        square = classify_cell(("a3", "a1"), sys2.fm)
        assert square.kind == "collapsible"
        assert square.pair == ("a3", 1)

    def test_cell_not_in_complex(self, sys2):
        with pytest.raises(InvalidParameterError):
            classify_cell((0, 0), sys2.fm)

    def test_leafless_graph_rejected(self):
        cx = build_dconf(make_cycle(4), 2)
        with pytest.raises(InvalidParameterError):
            classify_cell(cx.base, cx)

    def test_path_census(self):
        # Two particles on a 3-vertex path: two contractible components.
        field = build_field(build_dconf(make_path(3), 2))
        assert field.census() == {
            (0, "critical"): 2,
            (0, "redundant"): 4,
            (1, "collapsible"): 4,
        }
        assert [field.kind(c) for c in ((0, 1), (1, 0), (2, 0))] == ["critical", "critical", "redundant"]

    def test_path_m3_criticals_are_one_per_component(self):
        field = build_field(build_dconf(make_path(5), 3))
        critical = {key: count for key, count in field.census().items() if key[1] == "critical"}
        assert critical == {(0, "critical"): math.factorial(3)}

    def test_full_census_m2(self, sys2):
        census = sys2.field_fm.census()
        assert census == {
            (0, "critical"): 2,
            (0, "redundant"): 10,
            (1, "collapsible"): 10,
            (1, "critical"): 4,
            (1, "redundant"): 2,
            (2, "collapsible"): 2,
        }

    @pytest.mark.parametrize("m", [2, 3])
    def test_critical_counts(self, m):
        system = get_system(m)
        assert len(system.field_fm.critical(0)) == math.factorial(m)
        assert len(system.field_fm.critical(1)) == m * math.factorial(m)
        assert len(system.field_q.critical(0)) == math.factorial(m - 1)
        assert len(system.field_q.critical(1)) == m * math.factorial(m - 1)
        for d in range(2, system.fm.top_dim + 1):
            assert not system.field_fm.critical(d)
            assert not system.field_q.critical(d)

    def test_equivariance_m2(self, sys2):
        for sigma in all_perms(2):
            for cell in sys2.fm.all_cells():
                a, b = classify_cell(cell, sys2.fm), classify_cell(act(sigma, cell), sys2.fm)
                assert a.kind == b.kind
                if a.pair is not None:
                    assert act(sigma, a.pair) == b.pair


class TestCriticalEdges:
    def test_type_tuples(self):
        assert type_tuple(1, 2) == ("a", 2)
        assert type_tuple(2, 2) == (0, "a")
        assert type_tuple(2, 3) == (0, "a", 3)

    def test_edge_type_examples(self):
        assert edge_type(("a", 2), 2) == 1
        assert edge_type((0, "a"), 2) == 2
        assert edge_type((0, "a", 3), 3) == 2

    def test_edge_type_rejects_non_critical_sets(self):
        with pytest.raises(StructuralError):
            edge_type((0, "a", 4), 3)

    def test_source_and_target(self, sys2):
        g = sys2.graph
        assert edge_source(("a", 2), g) == (1, 2)
        assert edge_target(("a", 2), g) == (3, 2)

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_permutation_shift_rule(self, m):
        system = get_system(m)
        for cell in system.field_fm.critical(1):
            b = edge_type(cell, m)
            src = associated_permutation(edge_source(cell, system.graph))
            tgt = associated_permutation(edge_target(cell, system.graph))
            assert tgt == src * Perm.cycle(b, m).inverse()

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_permutation_shift_rule_quotient(self, m):
        system = get_system(m)
        for rep in system.field_q.critical(1):
            b = edge_type(rep, m)
            src = associated_permutation(edge_source(rep, system.graph))
            tgt = associated_permutation(edge_target(rep, system.graph))
            assert cyclic_canonical(tgt)[0] == cyclic_canonical(src * Perm.cycle(b, m).inverse())[0]

    @pytest.mark.parametrize("m", [2, 3])
    def test_reconstruction_from_source_permutation(self, m):
        system = get_system(m)
        for cell in system.field_fm.critical(1):
            b = edge_type(cell, m)
            src = edge_source(cell, system.graph)
            sigma = associated_permutation(src)
            assert cell == act(sigma, type_tuple(b, m))
            assert src == act(sigma, tuple(sorted(src)))


class TestAssociatedPermutation:
    def test_paper_style_example(self):
        assert associated_permutation((8, 2, 5, 9, 4, 3)).images == (5, 1, 4, 6, 3, 2)

    def test_sorted_tuple(self):
        assert associated_permutation((0, 1, 2)).is_identity()

    def test_action_on_sorted_tuples(self, sys3):
        ascending = [
            v for v in sys3.fm.cells_by_dim[0] if tuple(sorted(v)) == v
        ]
        for sigma in all_perms(3):
            for v in ascending:
                assert associated_permutation(act(sigma, v)) == sigma


class TestForest:
    def test_two_trees_m2(self, sys2):
        trees = forest(sys2.field_fm)
        assert len(trees) == 2
        assert [t.label.images for t in trees] == [(1, 2), (2, 1)]
        for t in trees:
            assert len(t.vertices) == 6 and len(t.edges) == 5

    def test_m3_trees_and_quotient_labels(self, sys3):
        assert len(forest(sys3.field_fm)) == 6
        qtrees = forest(sys3.field_q)
        assert len(qtrees) == 2
        assert [t.label.images for t in qtrees] == [(1, 2, 3), (1, 3, 2)]

    @pytest.mark.parametrize("m", [2, 3])
    def test_forest_edges_join_equal_permutations(self, m):
        system = get_system(m)
        for e in system.field_fm.forest_edges:
            src, tgt = system.fm.edge_endpoints(e)
            assert associated_permutation(src) == associated_permutation(tgt)

    @pytest.mark.parametrize("m", [2, 3])
    def test_forest_partitions_vertices(self, m):
        system = get_system(m)
        trees = forest(system.field_fm)
        all_vertices = [v for t in trees for v in t.vertices]
        assert len(all_vertices) == len(set(all_vertices)) == len(system.fm.cells_by_dim[0])


class TestQuotientField:
    @pytest.mark.parametrize("m", [2, 3])
    def test_orbit_classification_matches_members(self, m):
        system = get_system(m)
        q = system.quotient
        for rep in q.all_cells():
            kinds = {classify_cell(member, system.fm).kind for member in q.members_of[rep]}
            assert kinds == {system.field_q.kind(rep)}

    def test_build_field_on_fresh_quotient(self):
        cx = build_dconf(make_lollipop(2), 2)
        field = build_field(build_quotient(cx, 2))
        assert len(field.critical(0)) == 1
        assert len(field.critical(1)) == 2
