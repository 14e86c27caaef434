"""The benchmark's workloads: inputs made from a seed, the timed ops, and the
output check of each op, which runs outside the timed region.

Each workload has ``setup(seed, smoke, in_process)``, which returns the state
a pass needs, and ``run_pass(state, timer)``, which runs the workload's fixed
list of ops once through ``timer.op``.  ``smoke`` shrinks every workload to a
few seconds.  Import this module only after ``src`` is on ``sys.path``.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import random
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import braidbu.cli as cli
import braidbu.decide as decide
import braidbu.fundgroup as fundgroup
import braidbu.graphs as graphs
import braidbu.oracle as oracle
from braidbu.words import FreeWord

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Cache resets, taken before any tracing wrapper can replace the names.
_clear_systems = fundgroup.get_system.cache_clear
_clear_tree_systems = decide._tree_system_cached.cache_clear

# Expected outputs.  Ranks of the two free groups are m!(m-1)+1 upstairs and
# (m-1)!(m-1)+1 in the quotient; the suite check counts are fixed by level.
EXPECTED_RANKS = {5: (481, 97), 3: (13, 5)}
EXPECTED_SUITE_CHECKS = {"full": 61, "quick": 41}

# wedge-witness strata: (m, theta, sign of k, lowest |k|, highest |k|, ops).
# A seed picks the k values inside each stratum and the order of the ops,
# never how many ops fall in a stratum, because cost grows with k squared.
# The strata form five cost tiers, each about twice as dear as the one below
# (calibrated latencies on a 2-core Xeon):
#   35 ops under 10 ms, |k| <= 11, every m;
#   30 ops near 17 ms, one stratum, which holds the median op (rank 50);
#   18 ops of 30-100 ms, one stratum per m;
#   12 ops near 0.14 s, one stratum, which holds the p90 op (rank 90);
#    5 ops of 0.2-0.8 s, |k| up to 400.
# A percentile that fell between two tiers would jump with each seed and with
# host noise; inside a tier of ops of one (m, theta, sign) and a |k| range of
# three it moves only with their cost.
WEDGE_STRATA = (
    (2, 1, 1, 9, 11, 6), (2, 1, -1, 9, 11, 6),
    (3, 1, 1, 9, 11, 6), (3, 2, 1, 9, 11, 6),
    (4, 1, 1, 4, 6, 6), (4, 3, 1, 4, 6, 5),
    (2, 1, 1, 39, 41, 30),
    (2, 1, -1, 97, 103, 6), (3, 2, 1, 68, 72, 6), (4, 1, 1, 28, 32, 6),
    (2, 1, 1, 161, 163, 12),
    (4, 1, -1, 97, 103, 1), (3, 1, 1, 156, 164, 1), (4, 3, 1, 156, 164, 1),
    (3, 2, -1, 246, 254, 1), (2, 1, 1, 392, 400, 1),
)
WEDGE_SMOKE_STRATA = ((2, 1, 1, 1, 10, 3), (2, 1, -1, 1, 10, 2), (3, 1, 1, 1, 10, 3), (3, 2, -1, 1, 10, 2))

# tree-targets: (legs, leg length, n) of each star target.
TREE_TARGETS = ((3, 2, 2), (4, 3, 2), (5, 2, 2), (3, 2, 3), (4, 2, 3), (3, 3, 3), (5, 2, 3))
TREE_SMOKE_TARGETS = ((3, 2, 2),)


class OpTimer:
    """Times ops one at a time and counts those that raise or fail their check.

    With a ``meter`` (untraced passes), reference slices run right after each
    op stops its timer, before its check, so the host's speed is read next to
    every op.
    """

    def __init__(self, tracer=None, meter=None):
        self.tracer = tracer
        self.meter = meter
        self.durations: list[float] = []
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def wall_s(self) -> float:
        return sum(self.durations)

    def op(self, label: str, fn, check):
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id = len(self.durations)
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a raising op is a failed op
            self._stop(start)
            self._fail(f"{label}: raised {exc!r}")
            return None
        self._stop(start)
        if tracer is not None:
            tracer.paused = True
        try:
            ok = check(result)
        except Exception as exc:  # a check that cannot run fails the op
            ok = False
            label = f"{label}: check raised {exc!r}"
        finally:
            if tracer is not None:
                tracer.paused = False
        if not ok:
            self._fail(f"{label}: wrong output")
        return result

    def _stop(self, start: float) -> None:
        self.durations.append(perf_counter() - start)
        if self.meter is not None:
            self.meter.owe(start, self.durations[-1])

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)


class Workload:
    """Base of the workloads below; their ops run in this process."""

    def peak_rss_mb(self, state) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _agree(pair) -> bool:
    closed_form, oracle_value = pair
    return closed_form == oracle_value


# -- lollipop-m5 ----------------------------------------------------------------


class Lollipop(Workload):
    """Cold get_system(m), every closed form against its oracle, ranks."""

    name = "lollipop-m5"

    def setup(self, seed: int, smoke: bool, in_process: bool):
        # The seed only orders the generator ops; the inputs are fixed by m.
        return {"m": 3 if smoke else 5, "rng": random.Random(seed)}

    def run_pass(self, state, timer: OpTimer) -> None:
        m, rng = state["m"], state["rng"]
        _clear_systems()
        want_fm, want_q = EXPECTED_RANKS[m]
        system = timer.op(
            f"get_system({m})",
            lambda: fundgroup.get_system(m),
            lambda s: (len(s.basis_fm), len(s.basis_q)) == (want_fm, want_q),
        )
        if system is None:
            return
        maps = {
            "iota": lambda g: (system.iota_closed_form(g), system.iota_oracle(g)),
            "p1": lambda g: (system.p1_closed_form(g), system.p1_oracle(g)),
            "theta": lambda g: (system.theta_closed_form(g), system.theta_oracle(FreeWord.gen(g))),
        }
        # The three maps are interleaved, so that each map's latencies are
        # sampled across the whole oracle phase rather than one short stretch
        # of it, where a burst of load on the host would skew them all.
        fm_ops = [op for g in rng.sample(system.basis_fm, len(system.basis_fm)) for op in (("iota", g), ("p1", g))]
        q_ops = [("theta", g) for g in rng.sample(system.basis_q, len(system.basis_q))]
        step = len(fm_ops) / len(q_ops)
        schedule = sorted(
            [(i, op) for i, op in enumerate(fm_ops)] + [((j + 0.5) * step, op) for j, op in enumerate(q_ops)],
            key=lambda item: item[0],
        )
        for _, (kind, g) in schedule:
            timer.op(f"{kind} {g.name()}", lambda: maps[kind](g), _agree)
        timer.op(
            f"morse_rank_check({m})",
            lambda: oracle.morse_rank_check(m),
            lambda verdicts: len(verdicts) == 4 and all(ok for _, ok, _ in verdicts),
        )


# -- wedge-witness -----------------------------------------------------------------


def _units(m: int) -> list[int]:
    return [t for t in range(1, m) if math.gcd(t, m) == 1]


def _verified(verdict, action, system, alpha_value) -> bool:
    """A failing verdict whose witness passes verify_diagram again."""
    if verdict.holds or verdict.witness is None:
        return False
    phi, psi = verdict.witness.phi, verdict.witness.psi
    alpha = decide.GroupHom({kappa: alpha_value for kappa in phi.images})
    return bool(decide.verify_diagram(phi, psi, alpha, action, system))


def _once(verified: dict, key, check):
    """``check``, run in full only until it passes for ``key``.

    Every pass repeats the same ops, so a later pass's output passes when it
    equals the output that was checked in full; any other output gets the
    full check.
    """
    def run(result) -> bool:
        if key in verified and verified[key] == result:
            return True
        ok = check(result)
        if ok:
            verified[key] = result
        return ok

    return run


class Wedge(Workload):
    """decide_wedge on warm systems, |k| stratified so every seed costs alike."""

    name = "wedge-witness"

    def setup(self, seed: int, smoke: bool, in_process: bool):
        rng = random.Random(seed)
        ops = []
        for m, theta, sign, lo, hi, count in WEDGE_SMOKE_STRATA if smoke else WEDGE_STRATA:
            ops.extend((m, sign * rng.randint(lo, hi), theta) for _ in range(count))
        rng.shuffle(ops)
        # Declared warm-up: build each system and fill its loop and rewriting
        # tables with one tiny decision per (m, theta, sign).
        for m in sorted({m for m, _, _ in ops}):
            fundgroup.get_system(m)
            for theta in _units(m):
                for k in (1, -1):
                    decide.decide_wedge(k, m, decide.ActionData(m, 1, (theta,)))
        return {"ops": ops, "verified": {}}

    def run_pass(self, state, timer: OpTimer) -> None:
        for i, (m, k, theta) in enumerate(state["ops"]):
            action = decide.ActionData(m, 1, (theta,))
            timer.op(
                f"decide_wedge(k={k}, m={m}, theta={theta})",
                lambda: decide.decide_wedge(k, m, action),
                _once(state["verified"], i, lambda v: _verified(v, action, fundgroup.get_system(m), k)),
            )


# -- tree-targets -------------------------------------------------------------------


class Tree(Workload):
    """decide_tree on star targets, each target system built cold per pass.

    One op is one target: its three decisions, the first of which builds the
    target's system.  The median op is then the middle target, and p90 lies
    between the two dearest.  With one op per decision, p90 would fall at the
    edge between two cold builds of very different cost.
    """

    name = "tree-targets"

    def setup(self, seed: int, smoke: bool, in_process: bool):
        rng = random.Random(seed)
        ops = []
        for legs, length, n in TREE_SMOKE_TARGETS if smoke else TREE_TARGETS:
            actions = []
            for r in (1, 2, 3):
                # theta is a unit vector: the seed picks which generator maps
                # to 1.  Larger or denser thetas lengthen the witness words
                # and would make op_p50_s depend on the seed.
                one = rng.randrange(r)
                actions.append(decide.ActionData(n, r, tuple(int(i == one) for i in range(r))))
            ops.append((f"star({legs},{length})/n={n}", graphs.make_star(legs, length), n, actions))
        return {"ops": ops, "verified": {}}

    def run_pass(self, state, timer: OpTimer) -> None:
        _clear_tree_systems()
        for label, graph, n, actions in state["ops"]:
            def check(verdicts):
                system = decide.tree_system(graph, n)
                return len(verdicts) == len(actions) and all(
                    _verified(v, a, system, 0) for v, a in zip(verdicts, actions))

            timer.op(
                f"decide_tree({label}, r=1,2,3)",
                lambda: [decide.decide_tree(graph, n, action) for action in actions],
                _once(state["verified"], label, check),
            )


# -- cli-suite ----------------------------------------------------------------------


def _suite_passed(level: str, result) -> bool:
    code, output = result
    statuses = [line.split("\t", 1)[1] for line in output.splitlines() if line.startswith("check.")]
    return code == 0 and len(statuses) == EXPECTED_SUITE_CHECKS[level] and all(s == "pass" for s in statuses)


class CliSuite(Workload):
    """`python -m braidbu --format records suite`, one fresh process per op.

    With ``in_process`` (the traced run) the op calls ``braidbu.cli.main``
    instead, after clearing the system caches a fresh process would not have.
    """

    name = "cli-suite"

    def setup(self, seed: int, smoke: bool, in_process: bool):
        # The suite takes no inputs, so the seed has nothing to choose.  The
        # level comes from argv alone, in the child and in this process.
        os.environ.pop("BU_SUITE_LEVEL", None)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        level = "quick" if smoke else "full"
        return {"level": level, "env": env, "in_process": in_process, "child_rss_kb": 0,
                "argv": ["--format", "records", "suite", "--level", level]}

    def peak_rss_mb(self, state) -> float:
        return state["child_rss_kb"] / 1024

    def _in_process(self, state):
        _clear_systems()
        _clear_tree_systems()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(state["argv"])
        return code, out.getvalue()

    def _child(self, state):
        proc = subprocess.Popen(
            [sys.executable, "-m", "braidbu", *state["argv"]],
            cwd=ROOT, env=state["env"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        with proc.stdout:
            output = proc.stdout.read().decode()
        # wait4 gives this child's own peak memory, unlike RUSAGE_CHILDREN.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        state["child_rss_kb"] = max(state["child_rss_kb"], usage.ru_maxrss)
        return proc.returncode, output

    def run_pass(self, state, timer: OpTimer) -> None:
        run = self._in_process if state["in_process"] else self._child
        timer.op(f"suite --level {state['level']}", lambda: run(state),
                 lambda result: _suite_passed(state["level"], result))


WORKLOADS = {w.name: w for w in (Lollipop(), Wedge(), Tree(), CliSuite())}
