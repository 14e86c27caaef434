"""Per-layer spans recorded from outside the program.

``install(tracer)`` replaces each layer entry point with a timing wrapper in
every ``braidbu`` module namespace that binds it (module functions) or on its
class (methods), so callers pick the wrapper up through their usual name
lookup.  ``Tracer.uninstall`` restores the originals.  Nothing in the package
is edited on disk.

Three kinds of wrapper:

* span    -- each call becomes a span record (name, start, end, parent span,
  op id) kept in memory and aggregated into count and self time;
* hot     -- aggregated into count and self time only, for entry points
  called up to millions of times (``FreeWord`` arithmetic), where one record
  per call would dominate memory;
* counter -- counts calls and does nothing else (``classify_cell``), so its
  time stays in the enclosing span's self time.

A span's self time is its duration minus that of its wrapped children; the
program is single-threaded, so children nest and never overlap.
"""
from __future__ import annotations

import json
import sys
from time import perf_counter

SPAN, HOT, COUNTER = "span", "hot", "counter"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, object]] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.ranks: dict[int, tuple[int, int]] = {}
        self.op_id: object = None
        self.top_level_s = 0.0  # time inside outermost wrapped calls
        self.paused = False
        # Open frames: [name, start, child seconds, span index or -1].
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _parent_span(self) -> int:
        for frame in reversed(self._stack):
            if frame[3] >= 0:
                return frame[3]
        return -1

    def _wrap(self, name, fn, kind: str, before=None, after=None):
        """``name`` is the span name, or a function of the call's arguments."""
        tracer = self
        fixed = isinstance(name, str)

        if kind == COUNTER:
            def counting(*args, **kwargs):
                if not tracer.paused:
                    tracer.calls[name] = tracer.calls.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counting

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            label = name if fixed else name(args)
            if before is not None:
                before(tracer, args)
            stack = tracer._stack
            index = -1
            if kind == SPAN:
                index = len(tracer.spans)
                tracer.spans.append((label, 0.0, 0.0, tracer._parent_span(), tracer.op_id))
            frame = [label, perf_counter(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.top_level_s += duration
                tracer.calls[label] = tracer.calls.get(label, 0) + 1
                tracer.self_s[label] = tracer.self_s.get(label, 0.0) + duration - frame[2]
                if index >= 0:
                    _, _, _, parent, op = tracer.spans[index]
                    tracer.spans[index] = (label, frame[1], end, parent, op)
            if after is not None:
                after(tracer, args, result)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def patch_function(self, module, attr: str, name, kind: str = SPAN, before=None, after=None) -> None:
        """Wrap ``module.attr`` in every braidbu namespace that binds it."""
        original = getattr(module, attr)
        wrapper = self._wrap(name, original, kind, before, after)
        for mod in [m for key, m in sys.modules.items() if key == "braidbu" or key.startswith("braidbu.")]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, name, kind: str = SPAN, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, kind, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reports ------------------------------------------------------------

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for index, (label, start, end, parent, op) in enumerate(self.spans):
                handle.write(json.dumps({"id": index, "name": label, "start": start, "end": end,
                                         "parent": None if parent < 0 else parent, "op": op}) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point the per-layer metrics read."""
    import braidbu.cli as cli
    import braidbu.complexes as complexes
    import braidbu.covering as covering
    import braidbu.decide as decide
    import braidbu.fundgroup as fundgroup
    import braidbu.morse as morse
    import braidbu.oracle as oracle
    from braidbu.words import FreeWord

    def cells(t, args, cx):
        t.count("complexes.cells", sum(len(c) for c in cx.cells_by_dim.values()))

    def orbits(t, args, q):
        t.count("complexes.orbits", len(q.members_of))

    def field(t, args, fld):
        t.count("morse.cells_classified", len(fld.classes))
        t.count("morse.critical_cells", len(fld.critical()))

    def ranks(t, args, system):
        t.ranks[system.m] = (len(system.basis_fm), len(system.basis_q))

    def lift_steps(t, args, result):
        t.count("covering.lift_steps", len(args[1].steps))

    def syllables(t, args):
        t.count("words.syllables_in", len(args[0].letters) + len(args[1].letters))

    def relators(t, args):
        t.count("decide.tietze_relators", len(args[1]))

    def field_name(args):
        return "morse.field_q" if isinstance(args[0], complexes.QuotientComplex) else "morse.field_fm"

    tracer.patch_function(complexes, "build_dconf", "complexes.build_dconf", after=cells)
    tracer.patch_function(complexes, "build_quotient", "complexes.build_quotient", after=orbits)
    tracer.patch_function(morse, "build_field", field_name, after=field)
    tracer.patch_function(morse, "classify_cell", "morse.classify", kind=COUNTER)
    tracer.patch_function(fundgroup, "get_system", "fundgroup.get_system", after=ranks)
    tracer.patch_function(fundgroup, "maximal_tree", "fundgroup.maximal_tree")
    for method in ("iota_oracle", "p1_oracle", "theta_oracle", "rs_rewrite", "iota_word"):
        tracer.patch_method(fundgroup.BraidSystem, method, f"fundgroup.{method}")
    tracer.patch_function(covering, "tree_parents", "covering.tree_parents")
    tracer.patch_function(covering, "lift_path", "covering.lift_path", after=lift_steps)
    tracer.patch_function(covering, "express_loop", "covering.express_loop")
    tracer.patch_method(FreeWord, "__mul__", "words.mul", kind=HOT, before=syllables)
    tracer.patch_method(FreeWord, "__pow__", "words.pow", kind=HOT)
    tracer.patch_method(FreeWord, "substitute", "words.substitute", kind=HOT)
    tracer.patch_function(decide, "decide_wedge", "decide.decide_wedge")
    tracer.patch_function(decide, "verify_diagram", "decide.verify_diagram")
    tracer.patch_function(decide, "tree_system", "decide.tree_system")
    tracer.patch_function(decide, "eliminate_to_free_basis", "decide.tietze", before=relators)
    tracer.patch_function(decide, "decide_tree", "decide.decide_tree")
    tracer.patch_function(decide, "circle_solver", "decide.circle_solver")
    tracer.patch_function(oracle, "run_suite", "oracle.run_suite")
    tracer.patch_function(oracle, "morse_rank_check", "oracle.morse_rank_check")
    tracer.patch_function(cli, "main", "cli.main")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metric values, by the names BENCHMARK.json lists."""
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters
    classified = counters.get("morse.cells_classified", 0)
    rank_fm, rank_q = tracer.ranks[max(tracer.ranks)] if tracer.ranks else (0, 0)
    timed = (
        "complexes.build_dconf", "complexes.build_quotient", "morse.field_fm", "morse.field_q",
        "fundgroup.get_system", "fundgroup.maximal_tree", "fundgroup.iota_oracle",
        "fundgroup.p1_oracle", "fundgroup.theta_oracle", "fundgroup.rs_rewrite",
        "fundgroup.iota_word", "covering.tree_parents", "covering.lift_path",
        "covering.express_loop", "words.mul", "words.pow", "words.substitute",
        "decide.decide_wedge", "decide.verify_diagram", "decide.tree_system", "decide.tietze",
        "decide.decide_tree", "decide.circle_solver", "oracle.run_suite",
        "oracle.morse_rank_check", "cli.main",
    )
    out = {f"{name}_s": self_s.get(name, 0.0) for name in timed}
    out.update({
        "complexes.cells": counters.get("complexes.cells", 0),
        "complexes.orbits": counters.get("complexes.orbits", 0),
        "morse.classify_calls": calls.get("morse.classify", 0),
        "morse.classify_per_cell": calls.get("morse.classify", 0) / classified if classified else 0.0,
        "morse.critical_cells": counters.get("morse.critical_cells", 0),
        "fundgroup.rank_fm": rank_fm,
        "fundgroup.rank_q": rank_q,
        "fundgroup.rs_rewrite_calls": calls.get("fundgroup.rs_rewrite", 0),
        "covering.lift_steps": counters.get("covering.lift_steps", 0),
        "words.mul_calls": calls.get("words.mul", 0),
        "words.syllables_in": counters.get("words.syllables_in", 0),
        "words.substitute_calls": calls.get("words.substitute", 0),
        "decide.tietze_relators": counters.get("decide.tietze_relators", 0),
    })
    return out
