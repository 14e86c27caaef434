import os
import subprocess
import sys
import time
from functools import cached_property
from pathlib import Path

import pytest

import braidbu.decide as dec
import braidbu.fundgroup as fundgroup
import braidbu.graphs as graphs
from braidbu.cli import _components, main
from braidbu.complexes import build_dconf, build_quotient, components
from braidbu.errors import StructuralError
from braidbu.graphs import Graph, emit_graph_text, make_cycle, make_lollipop, make_path, make_star
from braidbu.oracle import run_suite


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestGraphCommands:
    def test_build_lollipop(self, capsys):
        code, out = run(capsys, "graph", "build", "--kind", "lollipop", "--m", "2")
        assert code == 0
        assert "E a 1 3 loop" in out

    def test_build_star(self, capsys):
        code, out = run(capsys, "graph", "build", "--kind", "star", "--legs", "3", "--leg-length", "2")
        assert code == 0
        assert out.startswith("V 7")

    def test_check(self, capsys, tmp_path):
        code, out = run(capsys, "graph", "build", "--kind", "lollipop", "--m", "3")
        path = tmp_path / "g.txt"
        path.write_text(out)
        code, out = run(capsys, "graph", "check", "--graph", str(path), "--m", "3")
        assert code == 0
        assert "sufficiently_subdivided = true" in out
        assert "chi = 0" in out

    def test_invalid_parameter_is_usage_error(self, capsys):
        code, _ = run(capsys, "graph", "build", "--kind", "lollipop", "--m", "1")
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [("--kind", "path", "--n", "1000000"), ("--kind", "star", "--legs", "3", "--leg-length", "1000")],
        ids=["path-1000000", "star(3,1000)"],
    )
    def test_oversized_graph_is_refused_before_an_edge_is_made(self, capsys, monkeypatch, argv):
        # More than 2828 vertices: check_room refuses two particles on it.
        def unreachable(*args):
            raise AssertionError("an edge was made")

        monkeypatch.setattr("braidbu.cli.make_path", unreachable)
        monkeypatch.setattr("braidbu.cli.make_star", unreachable)
        code = main(["graph", "build", *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_largest_admitted_path_builds(self, capsys):
        code, out = run(capsys, "graph", "build", "--kind", "path", "--n", "2828")
        assert code == 0
        assert out.startswith("V 2828\n")

    def test_check_reads_girth_with_one_search(self, capsys, monkeypatch, tmp_path):
        # A cycle has no essential vertex, so the one search is girth's.
        calls, real = [], graphs._distances_from

        def counted(graph, start, skip_edge=None):
            calls.append(start)
            return real(graph, start, skip_edge)

        monkeypatch.setattr(graphs, "_distances_from", counted)
        path = tmp_path / "c.txt"
        path.write_text(emit_graph_text(make_cycle(2828)))
        code, out = run(capsys, "graph", "check", "--graph", str(path), "--m", "2")
        assert code == 0
        assert "sufficiently_subdivided = true" in out
        assert len(calls) == 1

    def test_check_refuses_an_oversized_graph_before_a_search(self, capsys, monkeypatch, tmp_path):
        # 2829 vertices: check_room refuses two particles on it, as graph build does.
        def unreachable(*args):
            raise AssertionError("the graph was searched")

        monkeypatch.setattr("braidbu.cli.is_sufficiently_subdivided", unreachable)
        path = tmp_path / "p.txt"
        path.write_text(emit_graph_text(make_path(2829)))
        code = main(["graph", "check", "--graph", str(path), "--m", "2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestDconf:
    def test_stats_records(self, capsys, tmp_path):
        _, text = run(capsys, "graph", "build", "--kind", "lollipop", "--m", "2")
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out = run(
            capsys, "--format", "records", "dconf", "stats", "--graph", str(path), "--m", "2"
        )
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines["cells.dim0"] == "12"
        assert lines["cells.dim1"] == "16"
        assert lines["cells.dim2"] == "2"
        assert lines["chi"] == "-2"
        assert lines["components"] == "1"

    def test_quotient_stats(self, capsys, tmp_path):
        _, text = run(capsys, "graph", "build", "--kind", "lollipop", "--m", "2")
        path = tmp_path / "g.txt"
        path.write_text(text)
        code, out = run(
            capsys,
            "--format",
            "records",
            "dconf",
            "stats",
            "--graph",
            str(path),
            "--m",
            "2",
            "--quotient",
        )
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines["chi"] == "-1"
        assert lines["orbits"] == "15"

    @pytest.mark.parametrize(
        "graph, m, count",
        [(make_lollipop(3), 3, 1), (make_path(5), 3, 6), (make_cycle(6), 4, 6)],
        ids=["lollipop-m3", "path(5)-m3", "cycle(6)-m4"],
    )
    def test_stats_components_equal_the_1_skeleton_walk(self, graph, m, count):
        # Read off the Morse skeleton on every graph, the cycle too, whose
        # field roots at an end of its non-tree edge
        # (tests/test_fundgroup.py::TestSkeleton runs that on more graphs).
        cx = build_dconf(graph, m)
        q = build_quotient(cx)
        assert _components(cx, cx) == components(cx) == count
        assert _components(cx, q) == components(q)

class TestMorseAndPi1:
    def test_critical_counts(self, capsys):
        code, out = run(capsys, "--format", "records", "morse", "critical", "--m", "3", "--by-type")
        assert code == 0
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert lines["critical.dim0"] == "6"
        assert lines["critical.dim1"] == "18"
        assert lines["critical.dim2plus"] == "0"
        assert lines["critical.type2"] == "6"

    def test_verify_shift_rule(self, capsys):
        code, out = run(capsys, "morse", "verify-lemma47", "--m", "2")
        assert code == 0
        assert "2/2 checks passed" in out

    def test_basis(self, capsys):
        code, out = run(capsys, "pi1", "basis", "--space", "fm", "--m", "2")
        assert code == 0
        assert "rank = 3" in out

    def test_map_with_oracle(self, capsys):
        code, out = run(capsys, "pi1", "map", "--which", "theta", "--m", "3", "--oracle-check")
        assert code == 0
        assert "5/5 checks passed" in out


class TestDecide:
    def test_interval(self, capsys):
        code, out = run(capsys, "decide", "--target", "interval")
        assert code == 0
        assert "borsuk_ulam = holds" in out

    def test_wedge_witness(self, capsys):
        code, out = run(
            capsys, "decide", "--target", "wedge", "--k", "1", "--m", "2", "--emit-witness"
        )
        assert code == 0
        assert "borsuk_ulam = fails" in out
        assert "witness.psi.x1 = [O1]" in out

    def test_circle(self, capsys):
        code, out = run(capsys, "decide", "--target", "circle", "--n", "2", "--class", "2,5,5")
        assert code == 0
        assert "borsuk_ulam = holds" in out

    def test_circle_needs_class(self, capsys):
        code, _ = run(capsys, "decide", "--target", "circle", "--n", "2")
        assert code == 2

    def test_tree_default_star(self, capsys):
        code, out = run(capsys, "decide", "--target", "tree", "--n", "2")
        assert code == 0
        assert "borsuk_ulam = fails" in out

    def test_wedge_theta_is_used(self, capsys):
        argv = ("decide", "--target", "wedge", "--m", "3", "--k", "5", "--emit-witness")
        code, with_two = run(capsys, *argv, "--theta", "2")
        assert code == 0
        _, with_one = run(capsys, *argv)
        assert with_two != with_one
        psi = dec.decide_wedge(5, 3, dec.ActionData(3, 1, (2,))).witness.psi.images[dec.x_letter(1)]
        assert f"witness.psi.x1 = {psi.format(lambda g: g.name())}\n" in with_two

    def test_wedge_reads_equal_n_and_m_as_one_count(self, capsys):
        code, both = run(capsys, "decide", "--target", "wedge", "--n", "3", "--m", "3", "--k", "5")
        assert code == 0
        assert both == run(capsys, "decide", "--target", "wedge", "--m", "3", "--k", "5")[1]

    def test_wedge_theta_not_a_unit_is_usage_error(self, capsys):
        code = main(["decide", "--target", "wedge", "--m", "4", "--k", "5", "--theta", "2"])
        assert code == 2
        assert "not surjective" in capsys.readouterr().err

    def test_unknown_target_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decide", "--target", "plane"])
        assert exc.value.code == 2


BAD_INPUTS = {
    "class-not-integer": ("decide", "--target", "circle", "--class", "1,x"),
    "zero-order": ("decide", "--target", "circle", "--n", "0", "--class", "1"),
    "theta-zero-order": ("decide", "--target", "wedge", "--m", "0", "--k", "1", "--theta", "1"),
    "class-length": ("decide", "--target", "circle", "--n", "2", "--class", "1,2"),
    "graph-not-integer": ("graph", "check", "--graph", "{graph}", "--m", "2"),
    "check-zero-m": ("graph", "check", "--graph", "{lollipop}", "--m", "0"),
    "check-negative-m": ("graph", "check", "--graph", "{lollipop}", "--m", "-3"),
    "tree-disconnected": ("decide", "--target", "tree", "--graph", "{claw}", "--n", "3"),
    "tree-not-free": ("decide", "--target", "tree", "--graph", "{two_essential}", "--n", "4"),
    "tree-not-subdivided": ("decide", "--target", "tree", "--graph", "{two_essential}", "--n", "5"),
    "wedge-rank-two": ("decide", "--target", "wedge", "--n", "2", "--k", "3", "--r", "2"),
    "too-many-cells": ("pi1", "basis", "--space", "fm", "--m", "7"),
    "huge-m-basis": ("pi1", "basis", "--space", "fm", "--m", "1000000"),
    "huge-n-wedge": ("decide", "--target", "wedge", "--n", "1000000", "--k", "1"),
    "tree-reads-no-m": ("decide", "--target", "tree", "--m", "3"),
    "circle-reads-no-r": ("decide", "--target", "circle", "--n", "3", "--class", "1,2,2,2", "--r", "5", "--theta", "7"),
    "wedge-n-differs-from-m": ("decide", "--target", "wedge", "--n", "3", "--m", "4", "--k", "1"),
    "interval-reads-no-n": ("decide", "--target", "interval", "--n", "5", "--k", "3"),
}

# Essential vertices 0 and 3; four particles can swap around both at once.
TWO_ESSENTIAL_TREE = "V 9\n" + "".join(
    f"E e{i} {u} {v}\n" for i, (u, v) in enumerate([(0, 1), (1, 2), (2, 3), (0, 4), (0, 5), (3, 6), (3, 7), (7, 8)], 1)
)


class TestBadInput:
    """Bad input exits 2 with a one-line message and no traceback."""

    @pytest.fixture
    def bad_graph(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("V abc\n")
        return str(path)

    @pytest.fixture
    def lollipop(self, tmp_path):
        path = tmp_path / "lollipop.txt"
        path.write_text(emit_graph_text(make_lollipop(2)))
        return str(path)

    @pytest.fixture
    def claw(self, tmp_path):
        path = tmp_path / "claw.txt"
        path.write_text(emit_graph_text(make_star(3, 1)))
        return str(path)

    @pytest.fixture
    def two_essential(self, tmp_path):
        path = tmp_path / "two_essential.txt"
        path.write_text(TWO_ESSENTIAL_TREE)
        return str(path)

    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_exit_code_and_message(self, case, bad_graph, lollipop, claw, two_essential, capsys):
        argv = [
            arg.format(graph=bad_graph, lollipop=lollipop, claw=claw, two_essential=two_essential)
            for arg in BAD_INPUTS[case]
        ]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_messages_name_the_fault(self, bad_graph, claw, two_essential, capsys):
        main(list(BAD_INPUTS["class-length"]))
        assert "n=2" in capsys.readouterr().err
        main([arg.format(graph=bad_graph) for arg in BAD_INPUTS["graph-not-integer"]])
        assert "line 1" in capsys.readouterr().err
        main([arg.format(claw=claw) for arg in BAD_INPUTS["tree-disconnected"]])
        assert "disconnected" in capsys.readouterr().err
        main([arg.format(two_essential=two_essential) for arg in BAD_INPUTS["tree-not-free"]])
        assert "no free basis" in capsys.readouterr().err
        main([arg.format(two_essential=two_essential) for arg in BAD_INPUTS["tree-not-subdivided"]])
        assert "not sufficiently subdivided for 5 particles" in capsys.readouterr().err
        main(list(BAD_INPUTS["wedge-rank-two"]))
        assert "Euler characteristic zero" in capsys.readouterr().err
        main(list(BAD_INPUTS["tree-reads-no-m"]))
        assert "does not read --m" in capsys.readouterr().err
        main(list(BAD_INPUTS["circle-reads-no-r"]))
        assert "does not read --r" in capsys.readouterr().err
        main(list(BAD_INPUTS["wedge-n-differs-from-m"]))
        assert "got 3 and 4" in capsys.readouterr().err
        main(list(BAD_INPUTS["interval-reads-no-n"]))
        assert "does not read --n" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["huge-m-basis", "huge-n-wedge"])
    def test_huge_particle_count_is_refused_at_once(self, case, capsys):
        # The lollipop's ordered 0-cells alone pass the bound, counted with
        # an early exit before the graph is built.
        start = time.perf_counter()
        code = main(list(BAD_INPUTS[case]))
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2 and err.count("\n") == 1 and "ordered 0-cells" in err
        assert seconds < 2

    def test_fresh_process(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "braidbu", *BAD_INPUTS["class-not-integer"]],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


class TestStartup:
    def test_fresh_import_leaves_out_slow_modules(self):
        """`dataclasses` (with `inspect`) and `traceback` cost a fresh process
        tens of milliseconds; the package imports none of them.  `-S` keeps
        the environment's own `site` imports out of the count."""
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        code = "import sys, braidbu.cli; print(*sorted({'dataclasses', 'inspect', 'traceback'} & set(sys.modules)))"
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


class TestInternalError:
    def test_structural_error_exits_3_on_one_line(self, capsys, monkeypatch):
        def broken_decide_wedge(k, m, action):
            raise StructuralError("wedge witness failed verification")

        monkeypatch.setattr(dec, "decide_wedge", broken_decide_wedge)
        code = main(["decide", "--target", "wedge", "--k", "1", "--m", "2"])
        err = capsys.readouterr().err
        assert code == 3
        assert err == "internal error: wedge witness failed verification\n"
        assert "Traceback" not in err


class TestSuite:
    def test_quick_suite_passes(self, capsys):
        code, out = run(capsys, "suite", "--level", "quick")
        assert code == 0
        assert "FAIL" not in out

    def test_records_are_deterministic(self, capsys):
        _, first = run(capsys, "--format", "records", "suite", "--level", "quick")
        _, second = run(capsys, "--format", "records", "suite", "--level", "quick")
        assert first == second

    def test_full_suite_passes(self, capsys):
        code, out = run(capsys, "--format", "records", "suite", "--level", "full")
        assert code == 0
        assert "level\tfull" in out.splitlines()
        checks = [line for line in out.splitlines() if line.startswith("check.")]
        assert len(checks) == 61
        assert all(line.endswith("\tpass") for line in checks)

    def test_broken_blocked_rule_fails_shift_checks(self, monkeypatch):
        # The top vertex, num_vertices - 1, is wrongly always blocked: every
        # graph built under the patch gets a rule table in which it never
        # moves.
        real = Graph.morse_rules.func

        def broken(graph):
            rules = real(graph)
            top = graph.num_vertices - 1
            rules[top] = rules[top][:4] + (None,) + rules[top][5:]
            return rules

        broken_rules = cached_property(broken)
        broken_rules.__set_name__(Graph, "morse_rules")
        clear = (fundgroup.get_system.cache_clear, dec._tree_system_cached.cache_clear)
        try:
            with monkeypatch.context() as patch:
                patch.setattr(Graph, "morse_rules", broken_rules)
                for cache_clear in clear:
                    cache_clear()
                report = run_suite("quick")
        finally:
            for cache_clear in clear:
                cache_clear()
        assert not report.all_pass
        assert any(
            check_id.startswith("lemma47") and not ok for check_id, ok, _ in report.checks
        )
        # No system built under the patch is left cached.
        assert all(ok for check_id, ok, _ in run_suite("quick").checks if check_id.startswith("lemma47"))
