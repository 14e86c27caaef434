import __future__
import inspect
import textwrap

import pytest

import braidbu.decide as dec
import braidbu.oracle as oracle
from braidbu.complexes import build_dconf, build_quotient
from braidbu.errors import InvalidParameterError
from braidbu.graphs import make_lollipop, make_path
from braidbu.oracle import Report, chi_oracle, morse_rank_check, run_suite


class TestChiOracle:
    def test_lollipop_two_particles(self):
        cx = build_dconf(make_lollipop(2), 2)
        assert chi_oracle(cx) == -2
        assert chi_oracle(build_quotient(cx)) == -1

    def test_path(self):
        assert chi_oracle(build_dconf(make_path(3), 2)) == 2


class TestMorseRankCheck:
    @pytest.mark.parametrize("m", [2, 3])
    def test_all_green(self, m):
        verdicts = morse_rank_check(m)
        assert verdicts and all(ok for _, ok, _ in verdicts)

    def test_m2_detail(self):
        detail = {vid: text for vid, ok, text in morse_rank_check(2)}
        assert detail["morserank.m2.fm"] == "2 - 4 vs chi -2"
        assert detail["morserank.m2.quotient"] == "1 - 2 vs chi -1"


class TestReport:
    def test_records_format(self):
        report = Report(command="demo", records=[("b", "2"), ("a", "1")])
        report.checks.append(("zcheck", True, "fine"))
        text = report.render_records()
        assert text.splitlines() == ["command\tdemo", "a\t1", "b\t2", "check.zcheck\tpass"]

    def test_failure_status(self):
        report = Report(command="demo", checks=[("x", False, "boom")])
        assert not report.all_pass
        assert "fail: boom" in report.render_records()
        assert "FAIL x" in report.render_text()


class TestSuite:
    def test_quick_passes(self):
        report = run_suite("quick")
        assert report.all_pass
        ids = [cid for cid, _, _ in report.checks]
        assert ids == sorted(ids)
        assert any(cid.startswith("census.m3") for cid in ids)
        assert not any(cid.startswith("census.m4") for cid in ids)

    def test_crashed_group_names_type_and_frame(self, monkeypatch):
        def exploding_circle_check(n):
            raise RuntimeError(f"no circle for n={n}")

        monkeypatch.setattr(oracle, "_check_circle", exploding_circle_check)
        detail = {cid: (ok, text) for cid, ok, text in run_suite("quick").checks}
        ok, text = detail["circle.n2"]
        assert not ok
        assert "RuntimeError" in text
        assert "test_oracle.py:" in text and "in exploding_circle_check" in text

    @pytest.mark.parametrize(
        "name, fault",
        [
            # every block counts as constant
            ("decide_circle", ("if cls[1 + i::n] != ks:", "if False:")),
            # any window value solves for d, whatever its residue
            ("circle_solver", ("range(lo + (1 - lo) % n, hi + 1, n)", "range(lo, hi + 1)")),
        ],
        ids=["decide_circle-block-constancy", "circle_solver-residue"],
    )
    def test_broken_circle_decider_fails_circle_check(self, monkeypatch, name, fault):
        monkeypatch.setattr(dec, name, _mutant(getattr(dec, name), *fault))
        detail = {cid: (ok, text) for cid, ok, text in run_suite("quick").checks}
        ok, text = detail["circle.n2"]
        assert not ok
        disagreements = int(text.split(", ")[1].split()[0])
        assert text.startswith("1331 classes, ") and disagreements > 0

    def test_unknown_level_rejected(self):
        with pytest.raises(InvalidParameterError):
            run_suite("paranoid")


def _mutant(func, old, new):
    """func recompiled from its own source with the one occurrence of old
    replaced by new, reading a copy of its module's globals."""
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{func.__name__} no longer contains {old!r}"
    code = compile(source.replace(old, new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = dict(func.__globals__)
    exec(code, namespace)
    return namespace[func.__name__]
