"""Fuzzing the input: bad text or values are refused as bad input, never as a crash.

``parse_graph_text`` may raise only ``InvalidParameterError``; the commands
that read a graph file may exit only 0 (success) or 2 (bad input, one line
on stderr).  The numeric and list options of ``decide``, ``morse`` and
``pi1`` (``--n``, ``--m``, ``--k``, ``--r``, ``--theta``, ``--class``) may
exit only 0, 1 (a check failed) or 2, with at most m = 4 particles.
"""
import contextlib
import io

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from braidbu.cli import DECIDE_READS, main
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
    else:
        assert err.getvalue() == ""
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


# Particle counts and orders stay at most 4, so no example builds the m=5 system.
COUNTS = st.integers(-2, 4)


def _csv(values):
    return ",".join(map(str, values))


LISTS = st.one_of(
    st.lists(st.integers(-9, 9), max_size=9).map(_csv),
    st.text(alphabet="0123456789,-+ x", max_size=10),
    st.text(max_size=6),
)


def _int_list(size):
    return st.lists(st.integers(-9, 9), min_size=size, max_size=size).map(_csv)


def _mostly(fitting, anything):
    """Usually ``fitting``, else ``anything``; Hypothesis favours small
    draws, so the rare branch is the largest."""
    return st.integers(0, 3).flatmap(lambda i: anything if i == 3 else fitting)


@st.composite
def decide_argvs(draw):
    """A decide command line.  Values usually fit each other (an order of at
    least 2, one particle count, a theta of length r, a class of length
    1 + n*j), so that every target is also decided, not only refused.  Each
    option the target reads is usually given; some lines add an option it
    does not read."""
    target = draw(st.sampled_from(sorted(DECIDE_READS)))
    n = draw(_mostly(st.integers(2, 4), COUNTS))
    r = draw(_mostly(st.integers(1, 2), st.integers(-1, 4)))
    values = {
        "n": n,
        "m": draw(_mostly(st.just(n), COUNTS)),
        "k": draw(st.integers(-400, 400)),
        "r": r,
        "theta": draw(_mostly(_int_list(max(r, 0)), LISTS)),
        "cls": draw(_mostly(st.integers(0, 2).flatmap(lambda j: _int_list(1 + max(n, 0) * j)), LISTS)),
    }
    reads = DECIDE_READS[target]
    given = [dest for dest in values if dest in reads and draw(st.integers(0, 3)) < 3]
    if draw(st.integers(0, 3)) == 3:
        given.append(draw(st.sampled_from([dest for dest in values if dest not in reads])))
    argv = ["decide", "--target", target]
    for dest in given:
        option = "class" if dest == "cls" else dest
        argv.append(f"--{option}={values[dest]}")  # "=" keeps a leading "-" a value
    if draw(st.booleans()):
        argv.append("--emit-witness")
    return argv


@FUZZ
@given(decide_argvs())
def test_decide_options_exit_0_1_or_2(argv):
    assert _exit_code(argv) in (0, 1, 2)


MORSE_PI1_ARGVS = st.one_of(
    st.tuples(st.just(["morse", "critical"]), COUNTS, st.sampled_from([[], ["--quotient"], ["--by-type"]])),
    st.tuples(st.just(["morse", "verify-lemma47"]), COUNTS, st.just([])),
    st.tuples(
        st.sampled_from([["pi1", "basis", "--space", space] for space in ("fm", "quotient")]),
        COUNTS,
        st.just([]),
    ),
    st.tuples(
        st.sampled_from([["pi1", "map", "--which", which] for which in ("iota", "p1", "theta")]),
        COUNTS,
        st.sampled_from([[], ["--oracle-check"]]),
    ),
).map(lambda parts: parts[0] + [f"--m={parts[1]}"] + parts[2])


@FUZZ
@given(MORSE_PI1_ARGVS)
def test_morse_and_pi1_options_exit_0_1_or_2(argv):
    assert _exit_code(argv) in (0, 1, 2)
