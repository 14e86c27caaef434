import math
from collections import deque

import pytest

from braidbu.errors import InvalidParameterError
from braidbu.graphs import (
    Graph,
    emit_graph_text,
    girth,
    is_sufficiently_subdivided,
    make_cycle,
    make_lollipop,
    make_path,
    make_star,
    parse_graph_text,
)

PAW = "V 4\nE a 0 1\nE b 1 2\nE t 2 3\nE c 0 2 loop\n"  # triangle 0-1-2, tail 2-3


class TestConstructors:
    def test_lollipop_m2(self):
        g = make_lollipop(2)
        assert g.num_vertices == 4
        names = {(e.name, e.lo, e.hi) for e in g.edges}
        assert names == {("a1", 0, 1), ("a2", 1, 2), ("a3", 2, 3), ("a", 1, 3)}
        assert g.euler_characteristic == 0
        assert g.essential_vertices == (1,)

    def test_lollipop_m3(self):
        g = make_lollipop(3)
        assert g.num_vertices == 6 and len(g.edges) == 6
        assert (g.loop_edge.lo, g.loop_edge.hi) == (2, 5)

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_lollipop_shape(self, m):
        g = make_lollipop(m)
        assert g.euler_characteristic == 0
        assert g.essential_vertices == (m - 1,)
        assert sum(1 for e in g.edges if not e.in_tree) == 1
        # removing the loop edge leaves a spanning tree
        Graph(g.num_vertices, tuple(e for e in g.edges if e.in_tree))

    def test_path_cycle_star(self):
        assert make_path(3).euler_characteristic == 1
        assert make_cycle(4).euler_characteristic == 0
        star = make_star(3, 2)
        assert star.is_tree
        assert star.essential_vertices == (0,)
        assert star.degrees[0] == 3

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: make_lollipop(1),
            lambda: make_path(1),
            lambda: make_cycle(1),
            lambda: make_star(2, 1),
            lambda: make_star(3, 0),
        ],
    )
    def test_degenerate_parameters(self, builder):
        with pytest.raises(InvalidParameterError):
            builder()


class TestSubdivision:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_lollipop_is_sufficient(self, m):
        assert is_sufficiently_subdivided(make_lollipop(m), m)

    def test_small_cycle_is_not(self):
        assert not is_sufficiently_subdivided(make_cycle(3), 3)
        assert is_sufficiently_subdivided(make_cycle(3), 2)

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3), (5, 4)])
    def test_paths_always_sufficient(self, n, m):
        assert is_sufficiently_subdivided(make_path(n), m)

    def test_star_sufficient(self):
        assert is_sufficiently_subdivided(make_star(3, 2), 2)
        assert is_sufficiently_subdivided(make_star(3, 2), 3)

    def test_girth(self):
        assert girth(make_cycle(5)) == 5
        assert girth(make_path(4)) == float("inf")
        assert girth(make_lollipop(3)) == 4
        assert girth(make_cycle(2)) == 2  # parallel edges

    @pytest.mark.parametrize(
        "graph",
        [pytest.param(make_lollipop(m), id=f"lollipop-m{m}") for m in (2, 3, 4, 5)]
        + [pytest.param(make_cycle(n), id=f"C{n}") for n in range(2, 13)]
        + [pytest.param(make_path(n), id=f"path-{n}") for n in (2, 3, 7)]
        + [pytest.param(make_star(legs, k), id=f"star({legs},{k})") for legs, k in ((3, 1), (3, 2), (4, 3), (5, 2))]
        + [pytest.param(parse_graph_text(PAW), id="paw")],
    )
    def test_girth_equals_a_search_around_every_edge(self, graph):
        assert girth(graph) == _girth_by_every_edge(graph)


def _girth_by_every_edge(graph: Graph) -> float:
    """The shortest cycle through any edge: a breadth-first search from one
    end to the other without that edge, plus one, and 2 for parallel edges."""
    best = math.inf
    pairs = [(e.lo, e.hi) for e in graph.edges]
    if len(set(pairs)) < len(pairs):
        best = 2
    for e in graph.edges:
        dist = {e.lo: 0}
        queue = deque([e.lo])
        while queue:
            u = queue.popleft()
            for f in graph.edges:
                if f.name != e.name and u in (f.lo, f.hi):
                    v = f.hi if u == f.lo else f.lo
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
        best = min(best, dist.get(e.hi, math.inf) + 1)
    return best


def _root(graph: Graph) -> int:
    return graph.tree_order.number.index(0)


class TestTreeOrder:
    @pytest.mark.parametrize(
        "graph",
        [make_lollipop(m) for m in range(2, 7)]
        + [make_star(legs, length) for legs, length in ((3, 1), (3, 2), (4, 3), (5, 2), (4, 2), (3, 3))]
        + [make_path(2), make_path(5)],
    )
    def test_a_graph_with_a_leaf_roots_at_its_smallest_leaf(self, graph):
        assert _root(graph) == graph.degrees.index(1)

    def test_the_paw_roots_at_an_end_of_its_non_tree_edge(self):
        # Its only graph leaf is 3, but 0 is a leaf of the spanning tree.
        paw = parse_graph_text(PAW)
        assert paw.degrees == (2, 2, 3, 1)
        assert _root(paw) == 0
        assert paw.tree_order.parent == (None, 0, 1, 2)

    def test_one_vertex_roots_at_0(self):
        order = parse_graph_text("V 1\n").tree_order
        assert order == ((0,), (None,), (None,), {})


class TestTextFormat:
    @pytest.mark.parametrize(
        "graph", [make_lollipop(3), make_star(3, 2), make_cycle(4), make_path(5)]
    )
    def test_round_trip(self, graph):
        assert parse_graph_text(emit_graph_text(graph)) == graph

    def test_emitted_shape(self):
        text = emit_graph_text(make_lollipop(2))
        assert text.splitlines() == [
            "V 4",
            "E a1 0 1",
            "E a2 1 2",
            "E a3 2 3",
            "E a 1 3 loop",
        ]

    def test_parse_rejects_garbage(self):
        with pytest.raises(InvalidParameterError):
            parse_graph_text("V 3\nX what\n")
        with pytest.raises(InvalidParameterError):
            parse_graph_text("E e1 0 1\n")  # missing V

    def test_graph_invariants_enforced(self):
        # two non-tree edges break the linear edge order
        with pytest.raises(InvalidParameterError):
            parse_graph_text("V 3\nE e1 0 1\nE e2 1 2 loop\nE e3 0 2 loop\n")
        # not a spanning tree
        with pytest.raises(InvalidParameterError):
            parse_graph_text("V 4\nE e1 0 1\nE e2 0 1\nE e3 2 3\n")
