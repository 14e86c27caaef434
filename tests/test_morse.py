import math
import random

import pytest

import braidbu.complexes as complexes
import braidbu.morse as morse
from braidbu.complexes import (
    CubeComplex,
    QuotientComplex,
    act,
    build_dconf,
    build_quotient,
    cell_dim,
    count_cells,
    count_sets,
)
from braidbu.covering import build_fields, make_path as make_edge_path
from braidbu.errors import InvalidParameterError, StructuralError
from braidbu.fundgroup import BraidSystem, get_system
from braidbu.graphs import make_cycle, make_lollipop, make_path, make_star, parse_graph_text
from braidbu.morse import (
    KIND_COLLAPSIBLE,
    KIND_CRITICAL,
    KIND_REDUNDANT,
    GradientField,
    _swapped,
    build_field,
    classify_cell,
)
from braidbu.perms import all_perms, cyclic_canonical, sorting_permutation
from test_complexes import _ordered_walk
from test_graphs import PAW


@pytest.fixture(scope="module")
def sys2():
    return get_system(2)


@pytest.fixture(scope="module")
def sys3():
    return get_system(3)


class TestClassification:
    def test_blocked_vertices_make_criticals(self, sys2):
        assert classify_cell((0, 1), sys2.fm) is None
        assert classify_cell((1, 0), sys2.fm) is None

    def test_redundant_vertex(self, sys2):
        assert classify_cell((2, 0), sys2.fm) == (2, "a2")
        assert sys2.up.field.kind((2, 0)) == "redundant"

    def test_critical_edges(self, sys2):
        assert classify_cell(("a", 0), sys2.fm) is None
        assert classify_cell(("a", 2), sys2.fm) is None

    def test_collapsible_edge(self, sys2):
        assert classify_cell(("a2", 0), sys2.fm) == ("a2", 2)
        assert sys2.up.field.kind(("a2", 0)) == "collapsible"

    def test_redundant_edge_pairs_up_to_square(self, sys2):
        assert classify_cell(("a3", 1), sys2.fm) == (1, "a1")
        assert sys2.up.field.kind(("a3", 1)) == "redundant"
        assert classify_cell(("a3", "a1"), sys2.fm) == ("a1", 1)
        assert sys2.up.field.kind(("a3", "a1")) == "collapsible"

    @pytest.mark.parametrize(
        "cell",
        [(0, 0), ("a1", "a1"), (0, "a1"), ("a1", "a2"), (0,), (0, 2, 4), (0, 99), (0, "zz"), (0, None)],
        ids=["repeated-vertex", "repeated-edge", "overlapping", "overlapping-edges", "short", "long",
             "unknown-vertex", "unknown-edge", "not-a-coordinate"],
    )
    def test_cell_not_in_complex(self, sys2, cell):
        assert not sys2.fm.has(cell)
        with pytest.raises(InvalidParameterError, match="not in complex"):
            classify_cell(cell, sys2.fm)

    @pytest.mark.parametrize(
        "n, m",
        [(n, m) for n in range(4, 9) for m in (2, 3, 4) if n > m],
        ids=[f"cycle({n})-m{m}" for n in range(4, 9) for m in (2, 3, 4) if n > m],
    )
    def test_cycle_field_passes_its_checks(self, n, m):
        # A cycle has no graph leaf; its spanning tree roots at an end of
        # the non-tree edge.  build_field checks the involution and the
        # descent upstairs; on both levels every partner pairs back one
        # dimension away, and every 0-cell flows to a critical 0-cell.
        fm = build_dconf(make_cycle(n), m)
        assert fm.graph.tree_order.number[0] == 0
        field_fm = build_field(fm, None)
        for field in (field_fm, build_field(build_quotient(fm), field_fm)):
            for d, cells in field.complex.cells_by_dim.items():
                for c in cells:
                    partner = field.classes[c]
                    if partner is not None:
                        assert field.classes[partner] == c and abs(cell_dim(partner) - d) == 1
            critical = set(field.critical(0))
            assert all(field.flow(v)[1] in critical for v in field.complex.cells_by_dim[0])

    def test_path_census(self):
        # Two particles on a 3-vertex path: two contractible components.
        field = build_field(build_dconf(make_path(3), 2), None)
        assert field.census() == {
            (0, "critical"): 2,
            (0, "redundant"): 4,
            (1, "collapsible"): 4,
        }
        assert [field.kind(c) for c in ((0, 1), (1, 0), (2, 0))] == ["critical", "critical", "redundant"]

    def test_path_m3_criticals_are_one_per_component(self):
        field = build_field(build_dconf(make_path(5), 3), None)
        critical = {key: count for key, count in field.census().items() if key[1] == "critical"}
        assert critical == {(0, "critical"): math.factorial(3)}

    def test_full_census_m2(self, sys2):
        census = sys2.up.field.census()
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
        assert len(system.up.field.critical(0)) == math.factorial(m)
        assert len(system.up.field.critical(1)) == m * math.factorial(m)
        assert len(system.down.field.critical(0)) == math.factorial(m - 1)
        assert len(system.down.field.critical(1)) == m * math.factorial(m - 1)
        for d in range(2, system.fm.top_dim + 1):
            assert not system.up.field.critical(d)
            assert not system.down.field.critical(d)

    def test_equivariance_m2(self, sys2):
        # Every ordering gets the same swap, made in its own places, so its
        # partner is the same permutation of the cell's.
        for sigma in all_perms(2):
            for cell in sys2.fm.all_cells():
                a, b = classify_cell(cell, sys2.fm), classify_cell(act(sigma, cell), sys2.fm)
                assert a == b
                assert (None if a is None else act(sigma, _swapped(cell, a))) == _partner(act(sigma, cell), sys2.fm)


# (legs, leg length, particles) of the seven star targets the tree decisions are checked on.
STAR_TARGETS = ((3, 2, 2), (4, 3, 2), (5, 2, 2), (3, 2, 3), (4, 2, 3), (3, 3, 3), (5, 2, 3))

# The lollipop at m=2..4 and the seven star targets: every field check runs on these.
FIELD_CASES = pytest.mark.parametrize(
    "graph, m",
    [(make_lollipop(m), m) for m in (2, 3, 4)]
    + [(make_star(legs, length), n) for legs, length, n in STAR_TARGETS],
    ids=[f"lollipop-m{m}" for m in (2, 3, 4)] + [f"star({l},{k})-n{n}" for l, k, n in STAR_TARGETS],
)

# The lollipop at m=2..5 and the seven star targets: the quotient matching's
# involution, argued in build_field, is tested on these.
QUOTIENT_CASES = pytest.mark.parametrize(
    "graph, m",
    [(make_lollipop(m), m) for m in (2, 3, 4, 5)]
    + [(make_star(legs, length), n) for legs, length, n in STAR_TARGETS],
    ids=[f"lollipop-m{m}" for m in (2, 3, 4, 5)] + [f"star({l},{k})-n{n}" for l, k, n in STAR_TARGETS],
)


def _partner(c, cx):
    """The partner of c: the swap ``classify_cell`` gives, made in c's own
    places; None when c is critical."""
    swap = classify_cell(c, cx)
    return None if swap is None else _swapped(c, swap)


def _closure(graph, coord):
    """The vertices of the closed graph cell."""
    if isinstance(coord, int):
        return {coord}
    edge = graph.edge_by_name[coord]
    return {edge.lo, edge.hi}


def _is_blocked(cell, r, graph):
    """Whether the vertex coordinate at position r is blocked: it is the
    root, or the far end of e(v) lies in some other coordinate's closure
    (its own closure, {v}, never holds it)."""
    far = graph.tree_order.parent[cell[r]]
    return far is None or any(far in _closure(graph, coord) for coord in cell)


def _classify_by_definition(c, cx):
    """The Farley-Sabalka partner of c, one coordinate at a time off
    ``tree_order`` and the closures: the reference the rule tables of
    ``classify_cell`` are checked against."""
    order = cx.graph.tree_order
    if not cx.has(c):
        raise InvalidParameterError(f"cell not in complex: {c!r}")
    number, parent, child_end = order.number, order.parent, order.child_end
    vertices = [coord for coord in c if isinstance(coord, int)]
    # (number, position) of the smallest unblocked vertex and of the
    # order-respecting edge whose far-from-root end is smallest.
    unblocked = respecting = None
    for r, coord in enumerate(c):
        if isinstance(coord, int):
            if (unblocked is None or number[coord] < unblocked[0]) and not _is_blocked(c, r, cx.graph):
                unblocked = (number[coord], r)
            continue
        child = child_end.get(coord)  # None on a non-tree edge: it never respects the order
        if child is None or (respecting is not None and number[child] > respecting[0]):
            continue
        top, place = parent[child], number[child]
        if not any(parent[u] == top and number[u] < place for u in vertices):
            respecting = (place, r)
    if unblocked is not None and (respecting is None or unblocked < respecting):
        r = unblocked[1]
        return c[:r] + (order.up_edge[c[r]],) + c[r + 1:]
    if respecting is not None and (unblocked is None or respecting < unblocked):
        r = respecting[1]
        return c[:r] + (child_end[c[r]],) + c[r + 1:]
    return None


# FIELD_CASES with the path and the claw: the rule tables are checked on these.
RULE_CASES = pytest.mark.parametrize(
    "graph, m",
    [(make_lollipop(m), m) for m in (2, 3, 4)]
    + [(make_star(legs, length), n) for legs, length, n in STAR_TARGETS]
    + [(make_path(5), 3), (make_star(3, 1), 2), (make_star(3, 1), 3)],
    ids=[f"lollipop-m{m}" for m in (2, 3, 4)]
    + [f"star({l},{k})-n{n}" for l, k, n in STAR_TARGETS]
    + ["path5-m3", "claw-m2", "claw-m3"],
)


class TestRuleTables:
    """``classify_cell`` reads the rule as bit tests on ``Graph.morse_rules``;
    the rule one coordinate at a time is the reference."""

    @RULE_CASES
    def test_every_ordered_cell_gets_the_reference_partner(self, graph, m):
        fm = build_dconf(graph, m)
        cells = list(fm.all_cells())
        assert len(cells) == count_cells(graph, m)
        wrong = [c for c in cells if _partner(c, fm) != _classify_by_definition(c, fm)]
        assert not wrong

    @pytest.mark.parametrize(
        "graph, m", [(make_lollipop(3), 3), (make_star(4, 3), 3)], ids=["lollipop-m3", "star(4,3)-n3"]
    )
    def test_blocked_and_respecting_bits_match_their_definitions(self, graph, m):
        # A vertex is movable when unblocked, a tree edge when it respects
        # the order; the root and a non-tree edge never are.
        rules, order = graph.morse_rules, graph.tree_order
        number, parent = order.number, order.parent
        moved = {"vertex": 0, "edge": 0}
        for cell in build_dconf(graph, m).all_cells():
            kids = vmask = 0
            for coord in cell:
                kids |= rules[coord][1]
                vmask |= rules[coord][2]
            for r, coord in enumerate(cell):
                _, _, vbit, _, swap, breaks = rules[coord]
                movable = swap is not None and not vbit & kids and not breaks & vmask
                if isinstance(coord, int):
                    far = parent[coord]
                    blocked = far is None or any(
                        far in _closure(graph, other) for s, other in enumerate(cell) if s != r
                    )
                    assert vbit == 1 << coord and movable == (not blocked)
                    moved["vertex"] += movable
                else:
                    child = order.child_end.get(coord)  # None on a non-tree edge, which never respects
                    respects = child is not None
                    if respects:
                        top = parent[child]
                        respects = not any(
                            isinstance(u, int) and parent[u] == top and number[top] < number[u] < number[child]
                            for u in cell
                        )
                    assert vbit == 0 and movable == respects
                    moved["edge"] += movable
        assert moved["vertex"] and moved["edge"]


def _label(v, cx):
    """The permutation sorting the places of v's coordinates in the tree
    numbering; in a quotient, its coset's canonical representative."""
    sigma = sorting_permutation(tuple(cx.graph.tree_order.number[c] for c in v))
    return cyclic_canonical(sigma)[0] if isinstance(cx, QuotientComplex) else sigma


def _flow_trees(field):
    """Each sink with the 0-cells that flow to it."""
    trees = {}
    for v in field.complex.cells_by_dim[0]:
        trees.setdefault(field.sink(v), []).append(v)
    return trees


class TestForest:
    """The flow follows the forest: every 0-cell reaches one sink, and every
    0-cell's sink carries its sorting permutation (a coset in the quotient)."""

    def test_two_trees_m2(self, sys2):
        trees = _flow_trees(sys2.up.field)
        assert sorted(_label(sink, sys2.fm).images for sink in trees) == [(1, 2), (2, 1)]
        for vertices in trees.values():
            edges = {sys2.up.field.classes[v] for v in vertices} - {None}
            assert len(vertices) == 6 and len(edges) == 5

    def test_m3_trees_and_quotient_labels(self, sys3):
        assert len(_flow_trees(sys3.up.field)) == 6
        qtrees = _flow_trees(sys3.down.field)
        assert sorted(_label(sink, sys3.quotient).images for sink in qtrees) == [(1, 2, 3), (1, 3, 2)]

    @pytest.mark.parametrize("m", [2, 3])
    def test_forest_edges_join_equal_permutations(self, m):
        system = get_system(m)
        classes = system.up.field.classes
        for v in system.fm.cells_by_dim[0]:
            if classes[v] is not None:
                src, tgt = system.fm.edge_endpoints(classes[v])
                assert sorting_permutation(src) == sorting_permutation(tgt)

    @pytest.mark.parametrize("legs, length, n", [(3, 2, 2), (4, 3, 3), (3, 3, 3)])
    def test_star_forests(self, legs, length, n):
        # Labels come from the depth-first numbering, not the raw vertex ids.
        fm = build_dconf(make_star(legs, length), n)
        field = build_field(fm, None)
        trees = _flow_trees(field)
        assert len(trees) == math.factorial(n)
        assert len({_label(sink, fm) for sink in trees}) == len(trees)
        q = build_quotient(fm)
        qtrees = _flow_trees(build_field(q, field))
        assert len(qtrees) == math.factorial(n - 1)
        assert len({_label(sink, q) for sink in qtrees}) == len(qtrees)

    @pytest.mark.parametrize("m", [2, 3])
    def test_forest_partitions_vertices(self, m):
        system = get_system(m)
        trees = _flow_trees(system.up.field)
        assert set(trees) == set(system.up.field.critical(0))
        all_vertices = [v for vertices in trees.values() for v in vertices]
        assert len(all_vertices) == len(set(all_vertices)) == len(system.fm.cells_by_dim[0])

    @FIELD_CASES
    def test_every_0_cell_carries_its_sinks_label(self, graph, m):
        fm = build_dconf(graph, m)
        field_fm = build_field(fm, None)
        for field in (field_fm, build_field(build_quotient(fm), field_fm)):
            cx = field.complex
            for v in cx.cells_by_dim[0]:
                steps, sink = field.flow(v)
                assert make_edge_path(cx, v, steps).end == sink
                assert _label(v, cx) == _label(sink, cx)

    @pytest.mark.parametrize(
        "cell, swap, error",
        [
            ((0, 2), (2, "a"), "not an end of its partner"),
            ((0, 2), (2, "a3"), "does not end"),
            ((1, 2), (2, "a2"), "not a critical 0-cell"),
        ],
        ids=["off-its-partner", "cycle", "onto-a-repeat"],
    )
    @pytest.mark.parametrize("level", ["up", "down"])
    def test_flow_of_an_unchecked_matching_is_refused(self, cell, swap, error, level):
        # The set {0, 2} swaps its 2 for 'a', which joins 1 and 3, not 2;
        # or for 'a3', which moves 2 to 3, and {0, 3} swaps its 3 for 'a3'
        # and moves it back.  {1, 2} moves its 2 to 1, which it holds.  The
        # table is checked when the field is built; changed after that, the
        # flow refuses it as it walks.
        field_fm, field_q = build_fields(make_lollipop(2), 2)
        field_fm.swaps[field_fm.complex.set_key(cell)] = swap
        field = field_fm if level == "up" else field_q
        for v in (cell, cell[::-1]) if level == "up" else (cell,):
            for walk in (field.flow, field.sink):
                with pytest.raises(StructuralError, match=error):
                    walk(v)

    @pytest.mark.parametrize(
        "level, v",
        [("up", (0, 0)), ("up", (0, 9)), ("up", (0, "a2")), ("down", (2, 0)), ("down", (0, 0)), ("down", (0, "a2"))],
        ids=["up-repeated", "up-unknown", "up-edge", "down-not-representative", "down-repeated", "down-edge"],
    )
    def test_flow_from_a_tuple_off_the_level_is_refused(self, level, v):
        # Upstairs a 0-cell; in the quotient, a representative of one.
        field = dict(zip(("up", "down"), build_fields(make_lollipop(2), 2)))[level]
        for walk in (field.flow, field.sink):
            with pytest.raises(InvalidParameterError, match="not a 0-cell"):
                walk(v)

    @QUOTIENT_CASES
    def test_flow_equals_the_walk_one_0_cell_at_a_time(self, graph, m):
        # The oracle walks one 0-cell at a time: each 0-cell's partner edge
        # from ``classes``, then the edge's ends from the complex's
        # ``edge_endpoints``.
        for field in build_fields(graph, m):
            cx, classes, steps = field.complex, field.classes, {}
            for v in cx.cells_unsorted(0):
                walk, cur = [], v
                while classes[cur] is not None:
                    if cur not in steps:
                        edge = classes[cur]
                        src, tgt = cx.edge_endpoints(edge)
                        assert cur in (src, tgt)
                        steps[cur] = (edge, 1, tgt) if cur == src else (edge, -1, src)
                    edge, sign, cur = steps[cur]
                    walk.append((edge, sign))
                assert field.flow(v) == (walk, cur)
                assert field.sink(v) == cur


def _leave(field, v):
    """The step out of the 0-cell v, read off its set's swap (old, new) at
    this one 0-cell: the partner edge, new in old's place, the sign that
    leaves v along it, and its other end, old moved along new; both placed
    on the level.  None when v's set is critical."""
    cx = field.complex
    key = cx.set_key(v)
    swap = field.swaps.get(key)
    if swap is None:
        return None
    far, sign = morse._far(cx, key, swap)
    r = v.index(swap[0])
    return cx.place(v[:r] + (swap[1],) + v[r + 1:]), sign, cx.place(v[:r] + (far,) + v[r + 1:])


def _walk(field, v):
    """The steps from the 0-cell v to where its flow ends, one ``_leave`` at
    a time: the oracle of ``GradientField.flow`` and ``sink``."""
    steps = []
    while (step := _leave(field, v)) is not None:
        assert len(steps) < len(field.complex.sets_by_dim[0]), f"the flow from {v!r} does not end"
        edge, sign, v = step
        steps.append((edge, sign))
    return steps, v


def morse_ends(field, edge):
    """The 0-cells that the edge's source and target flow to, each walked
    one 0-cell at a time: the oracle of ``GradientField.morse_ends``."""
    src, tgt = field.complex.edge_endpoints(edge)
    return _walk(field, src)[1], _walk(field, tgt)[1]


# QUOTIENT_CASES with C6 and the paw, whose spanning trees root at an end of
# the non-tree edge: the per-set ends and flows are checked on these.
PER_SET_CASES = pytest.mark.parametrize(
    "graph, m",
    [(make_lollipop(m), m) for m in (2, 3, 4, 5)]
    + [(make_star(legs, length), n) for legs, length, n in STAR_TARGETS]
    + [(make_cycle(6), 3), (parse_graph_text(PAW), 2)],
    ids=[f"lollipop-m{m}" for m in (2, 3, 4, 5)]
    + [f"star({l},{k})-n{n}" for l, k, n in STAR_TARGETS]
    + ["cycle(6)-m3", "paw-m2"],
)


class TestPerSetPaths:
    """Flows, sinks and Morse ends are read once per coordinate set; walks
    one 0-cell at a time are their oracles, on both levels."""

    @PER_SET_CASES
    def test_flows_and_sinks_equal_the_step_by_step_walk(self, graph, m):
        for field in build_fields(graph, m):
            critical = set(field.critical(0))
            for v in field.complex.cells_unsorted(0):
                walk = _walk(field, v)
                assert walk[1] in critical
                assert field.flow(v) == walk
                assert field.sink(v) == walk[1]

    @PER_SET_CASES
    def test_morse_ends_equal_the_walk(self, graph, m):
        # In critical(1) order, each end the field's own critical tuple.
        for field in build_fields(graph, m):
            edges = field.critical(1)
            ends = field.morse_ends(edges)
            assert list(ends.items()) == [(e, morse_ends(field, e)) for e in edges]
            own = {id(c) for c in field.critical(0)}
            assert all(id(src) in own and id(tgt) in own for src, tgt in ends.values())

    @pytest.mark.parametrize(
        "level, cell",
        [("up", (0, 0)), ("up", ("a2", 0)), ("up", (0, 1)), ("down", ("a", 0)), ("down", (0, "a2"))],
        ids=["up-repeated", "up-collapsible", "up-critical-0-cell", "down-not-representative", "down-collapsible"],
    )
    def test_morse_ends_of_what_is_not_a_critical_1_cell_are_refused(self, level, cell):
        field = dict(zip(("up", "down"), build_fields(make_lollipop(2), 2)))[level]
        with pytest.raises(InvalidParameterError, match="not a critical 1-cell"):
            field.morse_ends([cell])

    @pytest.mark.parametrize("level", ["up", "down"])
    def test_morse_end_off_the_critical_0_cells_is_refused(self, level):
        # The critical (2, 'a') has the end (2, 1), whose set now moves its
        # 2 along 'a2' to 1, which it holds.  The table is checked when the
        # field is built; changed after that, the end is refused.
        field_fm, field_q = build_fields(make_lollipop(2), 2)
        field_fm.swaps[field_fm.complex.set_key((1, 2))] = (2, "a2")
        field = field_fm if level == "up" else field_q
        with pytest.raises(StructuralError, match="not a critical 0-cell"):
            field.morse_ends(field.critical(1))


def _partner_kind(partner, cell):
    """The kind of a cell matched with ``partner``, by its dimension."""
    if partner is None:
        return KIND_CRITICAL
    return KIND_REDUNDANT if cell_dim(partner) > cell_dim(cell) else KIND_COLLAPSIBLE


def _field_with(monkeypatch, overrides):
    """The field of the m=2 lollipop complex, with ``classify_cell``
    answering the swap ``overrides[cell]`` for the cells listed there."""
    original = morse.classify_cell
    monkeypatch.setattr(
        morse, "classify_cell", lambda c, cx: overrides[c] if c in overrides else original(c, cx)
    )
    return build_field(build_dconf(make_lollipop(2), 2), None)


def _every_ordering(swaps):
    """The swap of each listed cell given to its reversal too: at m=2 that
    is its rotation, which must get the same swap."""
    return {c: swap for cell, swap in swaps.items() for c in (cell, cell[::-1])}


class TestInvolution:
    def test_partner_that_does_not_pair_back_is_refused(self, monkeypatch):
        # The critical (0, 1) swaps its 1 for 'a2', but (0, 'a2') stays
        # matched with (0, 2).
        with pytest.raises(StructuralError, match="not an involution"):
            _field_with(monkeypatch, _every_ordering({(0, 1): (1, "a2")}))

    def test_partner_of_the_same_dimension_is_refused(self, monkeypatch):
        # The two critical 1-sets {0, 'a'} and {2, 'a'} swap 0 and 2, each
        # matched with the other, and pair back.
        with pytest.raises(StructuralError, match="not an involution"):
            _field_with(monkeypatch, _every_ordering({(0, "a"): (0, 2), (2, "a"): (2, 0)}))

    def test_swap_of_two_vertices_is_refused(self, monkeypatch):
        # (0, 1) and (0, 2) swap one vertex for the other and pair back in
        # every ordering; (0, 'a2'), the partner (0, 2) had, turns critical.
        matching = {(0, 1): (1, 2), (0, 2): (2, 1), (0, "a2"): None}
        with pytest.raises(StructuralError, match="not an involution"):
            _field_with(monkeypatch, _every_ordering(matching))

    @pytest.mark.parametrize("swap", [(1, "a2"), (2, 0)], ids=["old-not-in-the-cell", "new-already-in-it"])
    def test_swap_that_does_not_change_one_place_is_refused(self, monkeypatch, swap):
        # Every ordering of {0, 2} gets the same swap, so the rotation check
        # passes; the swap must take out a coordinate the cell has and put
        # in one it lacks.
        fm = build_dconf(make_lollipop(2), 2)
        monkeypatch.setattr(morse, "classify_cell", lambda c, cx: swap)
        with pytest.raises(StructuralError, match=r"not an involution at \(0, 2\)"):
            morse._classify_set((0, 2), fm)


class TestDescent:
    """Every flow step must move a vertex toward the root; with the
    involution that proves the forest acyclic (``build_field``)."""

    def test_step_away_from_the_root_is_refused(self, monkeypatch):
        # Reverse the gradient path (0, 2) -> (0, 1): (0, 1) swaps its 1 for
        # 'a2', whose other end (0, 2) moves vertex 1 to 2, and (0, 2) turns
        # critical.  The matching is still an involution in every ordering.
        reversed_path = {(0, 1): (1, "a2"), (0, "a2"): ("a2", 1), (0, 2): None}
        with pytest.raises(StructuralError, match="does not move toward the root"):
            _field_with(monkeypatch, _every_ordering(reversed_path))

    def test_0_cell_matched_off_its_partner_is_refused(self, monkeypatch):
        # (0, 2) swaps its 2 for 'a', and the edge 'a' joins 1 and 3, not 2.
        matching = {(0, 2): (2, "a"), (0, "a"): ("a", 2), (0, "a2"): None}
        with pytest.raises(StructuralError, match="not an end of its partner"):
            _field_with(monkeypatch, _every_ordering(matching))


class TestInvolutionPerSet:
    """The upstairs matching is checked once per coordinate set; the old
    per-cell check must still pass on every field that check accepts."""

    @FIELD_CASES
    def test_per_cell_check_passes_on_both_fields(self, graph, m):
        fm = build_dconf(graph, m)
        field_fm = build_field(fm, None)
        field_q = build_field(build_quotient(fm), field_fm)
        for field in (field_fm, field_q):
            for d, cells in field.complex.cells_by_dim.items():
                for c in cells:
                    partner = field.classes[c]
                    if partner is not None:
                        assert field.classes.get(partner) == c and abs(cell_dim(partner) - d) == 1

    def test_equivariant_wrong_partner_is_refused(self, monkeypatch):
        # Every ordering of {0, 1, 3} swaps its 3 for 'a4', so the rotation
        # check passes; but (0, 1, 'a4') pairs back with (0, 1, 4).
        original = morse.classify_cell

        def wrong(c, cx):
            if set(c) == {0, 1, 3}:
                return 3, "a4"
            return original(c, cx)

        monkeypatch.setattr(morse, "classify_cell", wrong)
        with pytest.raises(StructuralError, match="not an involution"):
            build_field(build_dconf(make_lollipop(3), 3), None)

    @pytest.mark.parametrize("duplicate", [False, True], ids=["missing", "duplicated-in-its-place"])
    def test_coordinate_set_without_every_ordering_is_refused(self, duplicate):
        # A set left out would never be classified, so none of its orderings
        # would have a partner.  The complex refuses it when it is made: only
        # the count against the closed form sees it gone, and only the order
        # check sees the set before it listed in its place.
        fm = build_dconf(make_lollipop(3), 3)
        sets = list(fm.sets_by_dim[1])
        gone = sets.pop(5)
        if duplicate:
            sets.insert(5, sets[4])
        assert gone not in sets
        with pytest.raises(StructuralError, match="not every ordering"):
            CubeComplex(fm.graph, 3, {**fm.sets_by_dim, 1: tuple(sets)}, count_sets(fm.graph, 3))


class TestSymmetricField:
    """The field classifies one ordering per coordinate set and translates its
    partner to the others; direct classification must agree everywhere."""

    @FIELD_CASES
    def test_every_ordered_cell_matches_its_classification(self, graph, m):
        fm = build_dconf(graph, m)
        classes = build_field(fm, None).classes
        wrong = [c for c in fm.all_cells() if _partner(c, fm) != classes[c]]
        assert not wrong

    def test_sampled_ordered_cells_match_at_m5(self):
        fm = build_dconf(make_lollipop(5), 5)
        classes = build_field(fm, None).classes
        sample = random.Random(5).sample(list(fm.all_cells()), 2000)
        wrong = [c for c in sample if _partner(c, fm) != classes[c]]
        assert not wrong

    @pytest.mark.parametrize("answer", [None, (2, "a3")], ids=["critical", "another-set"])
    def test_misclassified_rotation_is_refused(self, monkeypatch, answer):
        # (0, 2) is classified as its set's ascending ordering; (2, 0) is its
        # rotation, checked directly, and must get the same swap (2, 'a2').
        with pytest.raises(StructuralError, match="not equivariant"):
            _field_with(monkeypatch, {(2, 0): answer})


class _DisjointCells:
    """A stand-in complex of m particles on a graph, with no cell listing:
    ``classify_cell`` reads only its graph and m, and checks itself that a
    tuple of m graph cells has pairwise disjoint closures."""

    def __init__(self, graph, m):
        self.graph = graph
        self.m = m


def _unordered_cells(graph, m):
    """Each set of m graph cells with pairwise disjoint closures, as its
    ascending tuple."""
    keys, closures = graph.coord_keys, {c: frozenset(_closure(graph, c)) for c in graph.coord_keys}
    order = sorted(keys, key=keys.__getitem__)

    def extend(prefix, used, start):
        if len(prefix) == m:
            yield prefix
            return
        for i in range(start, len(order)):
            coord = order[i]
            if not used & closures[coord]:
                yield from extend(prefix + (coord,), used | closures[coord], i + 1)

    return extend((), frozenset(), 0)


class TestSymmetricCensus:
    """The rule commutes with permuting coordinates, so one ascending tuple
    per unordered cell, times m!, gives the ordered census.  This needs no
    ordered complex, whose listing costs m! per set."""

    @pytest.mark.parametrize("m", [4, 5, 6, 7])
    def test_census_times_m_factorial(self, m):
        graph = make_lollipop(m)
        stub = _DisjointCells(graph, m)
        total = chi = 0
        critical = {}
        for cell in _unordered_cells(graph, m):
            d = cell_dim(cell)
            total += 1
            chi += (-1) ** d
            if classify_cell(cell, stub) is None:
                critical[d] = critical.get(d, 0) + 1
        per_set = math.factorial(m)
        assert {d: n * per_set for d, n in critical.items()} == {0: per_set, 1: m * per_set}
        assert total * per_set == count_cells(graph, m)
        assert chi * per_set == (critical[0] - critical[1]) * per_set == (1 - m) * per_set
        if m == 4:
            ordered = build_field(build_dconf(graph, m), None).census()
            assert {d: n * per_set for d, n in critical.items()} == {
                d: n for (d, kind), n in ordered.items() if kind == "critical"
            }


class TestOneFieldClass:
    """Both levels' fields are ``GradientField(cx, swaps)``, read off the
    upstairs swap table alone."""

    @FIELD_CASES
    def test_census_reads_the_swap_table(self, graph, m, monkeypatch):
        # The oracle counts every cell's kind through ``classes``; the
        # census lists no ordering.
        fields = build_fields(graph, m)
        oracles = []
        for field in fields:
            cx, counts = field.complex, {}
            for d in cx.sets_by_dim:
                for c in cx.cells_unsorted(d):
                    key = (d, _partner_kind(field.classes[c], c))
                    counts[key] = counts.get(key, 0) + 1
            oracles.append(counts)

        def refuse(*args):
            raise AssertionError("the ordered cells were listed")

        monkeypatch.setattr(complexes._Orderings, "__iter__", refuse)
        assert [field.census() for field in fields] == oracles

    @QUOTIENT_CASES
    def test_quotient_critical_cells_are_the_upstairs_representatives(self, graph, m):
        field_fm, field_q = build_fields(graph, m)
        q = field_q.complex
        for d in q.sets_by_dim:
            assert list(field_q.critical(d)) == [c for c in field_fm.critical(d) if q.has(c)]
        assert GradientField(q, field_fm.swaps).critical() == field_q.critical()
        assert GradientField(field_fm.complex, field_fm.swaps).critical() == field_fm.critical()


class TestQuotientField:
    @pytest.mark.parametrize("m", [2, 3])
    def test_orbit_classification_matches_members(self, m):
        # Each member classified on its own, its kind read off its
        # partner's dimension, against the quotient's kind off the table.
        system = get_system(m)
        q = system.quotient
        for rep in q.all_cells():
            kinds = {_partner_kind(_partner(member, system.fm), member) for member in q.members_of[rep]}
            assert kinds == {system.down.field.kind(rep)}

    @FIELD_CASES
    def test_derived_classes_match_representatives(self, graph, m):
        fm = build_dconf(graph, m)
        q = build_quotient(fm)
        field = build_field(q, build_field(fm, None))
        for rep in q.all_cells():
            partner = _partner(rep, fm)
            assert field.classes[rep] == (None if partner is None else q.project(partner))

    @QUOTIENT_CASES
    def test_quotient_matching_is_an_involution(self, graph, m):
        classes = build_fields(graph, m)[1].classes
        for d, cells in build_quotient(build_dconf(graph, m)).cells_by_dim.items():
            for rep in cells:
                partner = classes[rep]
                assert partner is None or (classes[partner] == rep and abs(cell_dim(partner) - d) == 1)

    @QUOTIENT_CASES
    def test_quotient_equals_the_ordered_walk_oracle(self, graph, m):
        # The representatives as the walk over every ordering listed them,
        # each critical when classify_cell finds it so, and otherwise paired
        # with the rotation of its partner that the walk listed.
        reps = _ordered_walk(graph, m)[1]
        listed = {rep for cells in reps.values() for rep in cells}
        fm = build_dconf(graph, m)
        q = build_quotient(fm)
        field_q = build_field(q, build_field(fm, None))
        assert {d: list(cells) for d, cells in q.cells_by_dim.items()} == reps
        for d, cells in reps.items():
            partners = [_partner(rep, fm) for rep in cells]
            assert list(field_q.critical(d)) == [rep for rep, p in zip(cells, partners) if p is None]
            oracle = [p and next(p[t:] + p[:t] for t in range(m) if p[t:] + p[:t] in listed) for p in partners]
            assert [field_q.classes[rep] for rep in cells] == oracle

    @pytest.mark.parametrize("outside", ["repeated", "overlapping", "unknown"])
    def test_representative_paired_outside_the_complex_is_refused(self, outside):
        # A redundant representative's set swaps its vertex for the other
        # vertex instead, so its partner (0, 0) repeats a coordinate; or for
        # an edge at the other vertex, whose closure overlaps it; or for a
        # coordinate of no graph.  The table is checked when the upstairs
        # field is built; changed after that, the quotient refuses the
        # partner when it reads it.
        fm = build_dconf(make_lollipop(2), 2)
        q = build_quotient(fm)
        field = build_field(fm, None)
        rep = next(c for c in q.all_cells() if field.kind(c) == KIND_REDUNDANT)
        swaps = field.swaps
        old = swaps[fm.set_key(rep)][0]
        other = next(c for c in rep if c != old)
        new = {
            "repeated": other,
            "overlapping": next(e.name for e in fm.graph.edges if other in (e.lo, e.hi)),
            "unknown": 999,
        }[outside]
        swaps[fm.set_key(rep)] = (old, new)
        field_q = build_field(q, field)
        with pytest.raises(StructuralError, match="not a cell"):
            field_q.classes[rep]

    def test_field_of_another_complex_is_refused(self):
        fm = build_dconf(make_lollipop(2), 2)
        other = build_field(build_dconf(make_lollipop(2), 2), None)
        with pytest.raises(InvalidParameterError):
            build_field(build_quotient(fm), other)

    def test_braid_system_classifies_each_cell_once(self, monkeypatch):
        calls = []
        original = morse.classify_cell

        def counting(cell, cx):
            calls.append(cell)
            return original(cell, cx)

        monkeypatch.setattr(morse, "classify_cell", counting)
        system = BraidSystem(3)
        # Each coordinate set's ascending ordering and its rotation, once each.
        unordered = {frozenset(c) for c in system.fm.all_cells()}
        assert len(calls) == len(set(calls)) == 2 * len(unordered)

    def test_build_field_on_fresh_quotient(self):
        cx = build_dconf(make_lollipop(2), 2)
        q = build_quotient(cx)
        field = build_field(q, build_field(cx, None))
        assert len(field.critical(0)) == 1
        assert len(field.critical(1)) == 2

    def test_field_levels_must_match_the_complex(self):
        # A quotient's field needs the upstairs one; an upstairs field takes none.
        cx = build_dconf(make_lollipop(2), 2)
        field = build_field(cx, None)
        with pytest.raises(InvalidParameterError, match="upstairs field"):
            build_field(build_quotient(cx), None)
        with pytest.raises(InvalidParameterError, match="upstairs field"):
            build_field(cx, field)
