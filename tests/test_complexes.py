import itertools
import math
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from test_fuzz import trees

import braidbu.complexes as complexes
from braidbu.complexes import (
    MAX_CELLS,
    act,
    build_dconf,
    build_quotient,
    cell_dim,
    components,
    count_cells,
    count_sets,
)
from braidbu.covering import build_fields
from braidbu.errors import InvalidParameterError, PreconditionError
from braidbu.graphs import make_cycle, make_lollipop, make_path, make_star, parse_graph_text
from braidbu.oracle import chi_oracle
from braidbu.perms import Perm, all_perms


# (legs, leg length, particles) of the star targets the tree benchmarks use.
STAR_TARGETS = ((3, 2, 2), (4, 3, 2), (5, 2, 2), (3, 2, 3), (4, 2, 3), (3, 3, 3), (5, 2, 3))
TARGETS = [(make_lollipop(m), m) for m in (2, 3, 4)] + [
    (make_star(legs, length), n) for legs, length, n in STAR_TARGETS
]
TARGET_IDS = [f"lollipop-m{m}" for m in (2, 3, 4)] + [f"star({l},{k})-n{n}" for l, k, n in STAR_TARGETS]


def _ordered_walk(graph, m):
    """Every cell of the m-particle complex by dimension, and the rotation
    representatives, in sort order: the depth-first walk over every ordering
    that built the complex before it was stored by coordinate set."""
    keys, masks = graph.coord_keys, graph.closure_masks
    steps = [(c, masks[c], isinstance(c, str)) for c in sorted(keys, key=keys.__getitem__)]
    cells, reps = {}, {}

    def extend(prefix, used, dim, low, high):
        if len(prefix) == m:
            cells.setdefault(dim, []).append(prefix)
            if high is not None:
                reps.setdefault(dim, []).append(prefix)
            return
        for c, mask, is_edge in low:
            if not used & mask:
                extend(prefix + (c,), used | mask, dim + is_edge, steps, None)
        for c, mask, is_edge in high or ():
            if not used & mask:
                extend(prefix + (c,), used | mask, dim + is_edge, low, high)

    for j, (c, mask, is_edge) in enumerate(steps):
        extend((c,), mask, is_edge, steps[:j], steps[j + 1:])
    return cells, reps


@pytest.fixture(scope="module")
def f2():
    return build_dconf(make_lollipop(2), 2)


@pytest.fixture(scope="module")
def f3():
    return build_dconf(make_lollipop(3), 3)


class TestBuild:
    def test_path3_two_particles(self):
        cx = build_dconf(make_path(3), 2)
        assert cx.num_cells(0) == 6
        assert cx.num_cells(1) == 4
        assert cx.num_cells(2) == 0
        assert chi_oracle(cx) == 2

    def test_lollipop_chi(self, f2, f3):
        assert chi_oracle(f2) == math.factorial(2) - 2 * math.factorial(2)
        assert chi_oracle(f3) == math.factorial(3) - 3 * math.factorial(3)

    def test_insufficient_subdivision_rejected(self):
        with pytest.raises(PreconditionError):
            build_dconf(make_cycle(3), 3)

    def test_facets_stay_in_complex(self, f2):
        for cell in f2.all_cells():
            for facet in f2.facets(cell):
                assert f2.has(facet)

    def test_two_cells_have_four_facets(self, f2):
        for cell in f2.cells_by_dim[2]:
            assert len(f2.facets(cell)) == 4

    def test_base_cell(self, f3):
        assert f3.base == (0, 1, 2)

    @pytest.mark.parametrize("graph, m", TARGETS, ids=TARGET_IDS)
    def test_listing_equals_the_ordered_walk(self, graph, m):
        cells, reps = _ordered_walk(graph, m)
        cx = build_dconf(graph, m)
        assert {d: list(listing) for d, listing in cx.cells_by_dim.items()} == cells
        assert {d: list(r) for d, r in build_quotient(cx).cells_by_dim.items()} == reps
        ascending = {d: [c for c in cs if list(cx.sort_key(c)) == sorted(cx.sort_key(c))] for d, cs in cells.items()}
        assert {d: list(sets) for d, sets in cx.sets_by_dim.items()} == ascending
        assert all(cx.num_cells(d) == len(cs) for d, cs in cells.items())

    @pytest.mark.parametrize("graph, m", TARGETS, ids=TARGET_IDS)
    def test_cells_come_out_in_sort_order(self, graph, m):
        cx = build_dconf(graph, m)
        for d, cells in cx.cells_by_dim.items():
            keys = list(map(cx.sort_key, cells))
            assert all(a < b for a, b in zip(keys, keys[1:]))
            assert all(cell_dim(c) == d for c in cells)

    @pytest.mark.parametrize("graph, m", TARGETS[:2] + TARGETS[3:5], ids=TARGET_IDS[:2] + TARGET_IDS[3:5])
    def test_has_is_membership_over_every_tuple_of_graph_cells(self, graph, m):
        cx = build_dconf(graph, m)
        cells = set(cx.all_cells())
        coords = list(graph.closure_masks)
        hits = [cell for cell in itertools.product(coords, repeat=m) if cx.has(cell)]
        assert len(hits) == len(cells) and set(hits) == cells

    @pytest.mark.parametrize(
        "cell",
        [(0,), (0, 2, 3), (0, "b"), (0, 7), (2, 2), ("a2", "a2"), (1, "a2"), ("a2", "a3"), ("a", "a2")],
        ids=["short", "long", "unknown-edge", "unknown-vertex", "repeated-vertex", "repeated-edge",
             "vertex-in-edge", "edges-share-a-vertex", "loop-edge-shares-a-vertex"],
    )
    def test_has_refuses_a_non_cell(self, f2, cell):
        assert not f2.has(cell)

    def test_edge_endpoints_refuse_other_dimensions(self, f2):
        for cx in (f2, build_quotient(f2)):
            for cell in (f2.cells_by_dim[0][0], f2.cells_by_dim[2][0]):
                with pytest.raises(InvalidParameterError, match="not a 1-cell"):
                    cx.edge_endpoints(cell)


class TestCount:
    @pytest.mark.parametrize(
        "graph, m, expected",
        [(make_lollipop(m), m, n) for m, n in ((2, 30), (3, 444), (4, 8952))]
        + [(make_star(4, 3), 3, 9108), (make_star(5, 2), 3, 4650)]
        + [(make_path(6), 3, 378), (make_cycle(7), 3, 924)],
        ids=[
            "lollipop-m2", "lollipop-m3", "lollipop-m4", "star(4,3)-n3", "star(5,2)-n3", "path6-m3", "cycle7-m3"
        ],
    )
    def test_count_equals_enumeration(self, graph, m, expected):
        cx = build_dconf(graph, m)
        assert count_cells(graph, m) == sum(len(cells) for cells in cx.cells_by_dim.values()) == expected

    def test_m5_without_enumerating(self):
        assert count_cells(make_lollipop(5), 5) == 234240

    def test_0_cells_alone_are_bounded_before_the_subdivision_test(self, monkeypatch):
        # Any m distinct vertices form a 0-cell: perm(V, m) of them.
        def testing(graph, m):
            raise AssertionError("ran the subdivision test on an oversized complex")

        monkeypatch.setattr(complexes, "is_sufficiently_subdivided", testing)
        with pytest.raises(PreconditionError, match="ordered 0-cells"):
            build_dconf(make_lollipop(7), 7)
        with pytest.raises(PreconditionError, match="no room for 9 particles"):
            build_dconf(make_path(8), 9)
        complexes.check_room(12, 6)  # lollipop m=6: 665 280 0-cells, admitted
        with pytest.raises(PreconditionError, match="ordered 0-cells"):
            complexes.check_room(2 * 10**6, 10**6)

    def test_oversized_complex_refused_before_enumerating(self):
        # The bound counts ordered cells, m! per coordinate set; the 0-cells
        # alone, perm(14, 7), already pass it at m=7.
        assert count_cells(make_lollipop(6), 6) == 7490160 <= MAX_CELLS
        assert count_cells(make_lollipop(7), 7) > MAX_CELLS
        with pytest.raises(PreconditionError, match="17297280"):
            build_dconf(make_lollipop(7), 7)

    def test_few_sets_with_many_orderings_refused_before_enumerating(self, monkeypatch):
        # 181 coordinate sets, but 9! orderings of each.
        graph = make_path(11)
        assert sum(count_sets(graph, 9)) == 181

        def enumerating(graph):
            raise AssertionError("enumerated an oversized complex")

        monkeypatch.setattr(type(graph), "closure_masks", property(enumerating))
        # perm(11, 9) passes the bound after eight factors, 19 958 400.
        with pytest.raises(PreconditionError, match="19958400"):
            build_dconf(graph, 9)

    def test_set_counts_are_computed_once_per_cold_build(self, monkeypatch):
        # build_dconf's size guard and the complex's set check read one list.
        calls = []
        original = complexes._matching_counts

        def counting(graph, top):
            calls.append(top)
            return original(graph, top)

        monkeypatch.setattr(complexes, "_matching_counts", counting)
        build_fields(make_star(4, 3), 3)
        assert calls == [3]

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(trees())
    def test_count_equals_enumeration_on_random_graphs(self, text):
        try:
            graph = parse_graph_text(text)
        except InvalidParameterError:
            assume(False)
        for m in (1, 2, 3):
            try:
                cx = build_dconf(graph, m)
            except PreconditionError:
                continue
            assert count_cells(graph, m) == sum(len(cells) for cells in cx.cells_by_dim.values())


class TestAction:
    def test_identity(self, f2):
        e = Perm.identity(2)
        for cell in f2.all_cells():
            assert act(e, cell) == cell

    def test_swap_example(self):
        # swapping coordinates of (edge, vertex)
        assert act(Perm((2, 1)), ("a1", 2)) == (2, "a1")

    def test_composition_convention(self, f3):
        s1, s2 = Perm((2, 1, 3)), Perm((2, 3, 1))
        for cell in f3.all_cells():
            assert act(s1 * s2, cell) == act(s1, act(s2, cell))

    @pytest.mark.parametrize("m", [2, 3])
    def test_action_is_free_on_cells(self, m):
        cx = build_dconf(make_lollipop(m), m)
        for sigma in all_perms(m):
            if sigma.is_identity():
                continue
            assert all(act(sigma, cell) != cell for cell in cx.all_cells())

    def test_action_commutes_with_facets(self, f2):
        for sigma in all_perms(2):
            for cell in f2.all_cells():
                lhs = sorted(map(f2.sort_key, f2.facets(act(sigma, cell))))
                rhs = sorted(map(f2.sort_key, (act(sigma, f) for f in f2.facets(cell))))
                assert lhs == rhs

    @given(st.permutations(list(range(1, 5))))
    def test_action_preserves_membership(self, images):
        cx = build_dconf(make_lollipop(4), 4)
        sigma = Perm(tuple(images))
        for cell in cx.cells_by_dim[1][:25]:
            assert cx.has(act(sigma, cell))


class TestQuotient:
    def test_critical_edge_orbits_m2(self, f2):
        q = build_quotient(f2)
        assert q.project(("a", 2)) == q.project((2, "a"))
        assert q.project((0, "a")) == q.project(("a", 0))
        assert q.project(("a", 2)) != q.project((0, "a"))
        assert set(q.members_of[q.project(("a", 2))]) == {("a", 2), (2, "a")}
        assert set(q.members_of[q.project((0, "a"))]) == {(0, "a"), ("a", 0)}

    @pytest.mark.parametrize("m", [2, 3])
    def test_orbit_sizes(self, m):
        cx = build_dconf(make_lollipop(m), m)
        q = build_quotient(cx)
        for rep, members in q.members_of.items():
            assert len(set(members)) == m
            assert q.project(rep) == rep

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_representatives(self, m):
        cx = build_dconf(make_lollipop(m), m)
        q = build_quotient(cx)
        c1 = Perm.cycle(1, m)
        for rep, members in q.members_of.items():
            assert members == tuple(act(c1 ** t, rep) for t in range(m))
            assert rep == min(members, key=cx.sort_key)
        for d, reps in q.cells_by_dim.items():
            assert list(reps) == sorted(reps, key=cx.sort_key)
            assert set(reps) == {q.project(c) for c in cx.cells_by_dim[d]}

    @pytest.mark.parametrize("m", [2, 3])
    def test_quotient_chi(self, m):
        cx = build_dconf(make_lollipop(m), m)
        q = build_quotient(cx)
        assert chi_oracle(q) * m == chi_oracle(cx)

    def test_projection_is_m_to_one_and_onto(self, f3):
        q = build_quotient(f3)
        total = sum(len(cells) for cells in f3.cells_by_dim.values())
        orbits = sum(len(cells) for cells in q.cells_by_dim.values())
        assert total == 3 * orbits
        images = Counter(map(q.project, f3.all_cells()))
        assert set(images) == set(q.members_of)
        assert set(images.values()) == {3}

    @pytest.mark.parametrize("graph, m", TARGETS, ids=TARGET_IDS)
    def test_every_member_projects_to_its_representative(self, graph, m):
        q = build_quotient(build_dconf(graph, m))
        for rep in q.all_cells():
            assert q.has(rep) and all(q.project(member) == rep for member in q.members_of[rep])
            assert not any(q.has(member) for member in q.members_of[rep][1:])
        assert len(q.members_of) == sum(map(len, q.cells_by_dim.values())) == count_cells(graph, m) // m

    @pytest.mark.parametrize(
        "cell",
        [(0, 0), ("a2", "a2"), (1, "a2"), ("a2", "a3"), ("a", "a2"), (0,), (0, 2, 3), (0, "b"), (0, 7)],
        ids=["repeated-vertex", "repeated-edge", "vertex-in-edge", "edges-share-a-vertex",
             "loop-edge-shares-a-vertex", "short", "long", "unknown-edge", "unknown-vertex"],
    )
    def test_has_project_and_partners_refuse_a_non_cell(self, f2, cell):
        q = build_quotient(f2)
        assert not q.has(cell)
        for read in (q.project, q.facets, q.edge_endpoints):
            with pytest.raises(KeyError):
                read(cell)
        for field in build_fields(f2.graph, 2):
            with pytest.raises(KeyError):
                field.classes[cell]
            assert field.classes.get(cell) is None
            with pytest.raises(KeyError) as refused:
                field.kind(cell)
            assert refused.value.args == (cell,)

    def test_has_and_partners_refuse_a_cell_that_is_no_representative(self, f2):
        # (2, 0) is a cell upstairs; its orbit's representative is (0, 2).
        q = build_quotient(f2)
        field_q = build_fields(f2.graph, 2)[1]
        assert f2.has((2, 0)) and not q.has((2, 0)) and q.has((0, 2))
        assert q.project((2, 0)) == (0, 2)
        with pytest.raises(KeyError):
            field_q.classes[(2, 0)]
        with pytest.raises(KeyError):
            field_q.kind((2, 0))

    @pytest.mark.parametrize("graph, m", TARGETS, ids=TARGET_IDS)
    def test_projection_commutes_with_facets(self, graph, m):
        # Both levels' faces are written once, over ``place``; the
        # quotient's are the projections of the upstairs ones.
        fm = build_dconf(graph, m)
        q = build_quotient(fm)
        for d in fm.sets_by_dim:
            for cell in fm.cells_unsorted(d):
                rep = q.project(cell)
                lhs = sorted(map(q.sort_key, q.facets(rep)))
                rhs = sorted(map(q.sort_key, (q.project(f) for f in fm.facets(cell))))
                assert lhs == rhs
                if d == 1:
                    assert q.edge_endpoints(rep) == tuple(map(q.project, fm.edge_endpoints(cell)))

    @pytest.mark.parametrize(
        "graph, m", [(make_lollipop(5), 5)] + TARGETS, ids=["lollipop-m5"] + TARGET_IDS
    )
    def test_edge_endpoints_equal_the_upstairs_ends_placed(self, graph, m):
        # The quotient places each end with one rank comparison, or with
        # ``place``'s scan when the edge is first; ``place`` of each upstairs
        # end is the oracle, from the representative and from a rotation.
        fm = build_dconf(graph, m)
        q = build_quotient(fm)
        firsts = 0
        for rep in q.cells_unsorted(1):
            expected = tuple(map(q.place, fm.edge_endpoints(rep)))
            assert q.edge_endpoints(rep) == q.edge_endpoints(rep[1:] + rep[:1]) == expected
            firsts += isinstance(rep[0], str)
        assert 0 < firsts < q.num_cells(1)


class TestComponents:
    def test_path_components(self):
        assert components(build_dconf(make_path(3), 2)) == 2

    def test_star_connected(self):
        assert components(build_dconf(make_star(3, 2), 2)) == 1

    @pytest.mark.parametrize("m", [2, 3])
    def test_lollipop_connected(self, m):
        assert components(build_dconf(make_lollipop(m), m)) == 1
