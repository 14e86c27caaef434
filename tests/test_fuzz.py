"""Fuzzing the graph input: bad text is refused as bad input, never as a crash.

``parse_graph_text`` may raise only ``InvalidParameterError``; the commands
that read a graph file may exit only 0 (success) or 2 (bad input, one line
on stderr).
"""
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from braidbu.cli import main
from braidbu.errors import InvalidParameterError
from braidbu.graphs import parse_graph_text

SMALL = st.integers(-2, 9)
NAMES = st.sampled_from(["e1", "e2", "e3", "a", "x-y", "E", "V"])
FLAGS = st.sampled_from(["", " loop", " loops", " loop extra"])


def _v_line(count):
    return f"V {count}"


def _e_line(name, u, v, flag):
    return f"E {name} {u} {v}{flag}"


LINES = st.one_of(
    st.builds(_v_line, SMALL),
    st.builds(_e_line, NAMES, SMALL, SMALL, FLAGS),
    st.sampled_from(["", "# comment", "V", "E a 0", "V 3 3", "V x", "E a 0 1.5", "E a 0 -"]),
    st.text(max_size=12),
)


@st.composite
def trees(draw):
    """A tree on 2..8 vertices, each vertex joined to an earlier one, with
    at most one extra edge marked ``loop``: mostly graphs that parse."""
    count = draw(st.integers(2, 8))
    lines = [f"V {count}"]
    lines += [f"E e{i} {draw(st.integers(0, i - 1))} {i}" for i in range(1, count)]
    if draw(st.booleans()):
        u, v = draw(st.integers(0, count - 1)), draw(st.integers(0, count - 1))
        lines.append(f"E a {u} {v} loop")
    return "\n".join(draw(st.permutations(lines)))


GRAPH_TEXTS = st.one_of(st.lists(LINES, max_size=8).map("\n".join), trees())
FUZZ = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(GRAPH_TEXTS)
def test_parse_raises_only_invalid_parameter(text):
    try:
        parse_graph_text(text)
    except InvalidParameterError:
        pass


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "graph.txt"


def _exit_code(argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    return code


@FUZZ
@given(
    text=GRAPH_TEXTS,
    command=st.sampled_from(["graph check", "dconf stats", "dconf stats --quotient", "decide"]),
    m=st.integers(-1, 3),
)
def test_graph_commands_exit_0_or_2(graph_file, text, command, m):
    graph_file.write_text(text, encoding="utf-8")
    if command == "decide":
        argv = ["decide", "--target", "tree", "--graph", str(graph_file), "--n", str(m)]
    else:
        argv = command.split() + ["--graph", str(graph_file), "--m", str(m)]
    assert _exit_code(argv) in (0, 2)
