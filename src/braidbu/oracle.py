"""Cross-checking utilities: raw Euler characteristics, rank consistency,
and the property suite wiring every closed form to its independent oracle."""
from __future__ import annotations

import itertools
import math
import os
import random
from typing import Callable, Iterable, NamedTuple, Optional

from . import decide as dec
from .complexes import build_dconf, components
from .errors import InvalidParameterError
from .covering import Level
from .fundgroup import GeneratorId, get_system
from .graphs import make_path, make_star
from .perms import Perm, all_perms, cyclic_canonical, sorting_permutation
from .words import FreeWord

Verdict = tuple[str, bool, str]


def chi_oracle(cx) -> int:
    """Alternating sum of raw cell counts; independent of the gradient field."""
    return sum((1 if d % 2 == 0 else -1) * cx.num_cells(d) for d in cx.cells_by_dim)


class _Level(NamedTuple):
    """One level of the lollipop covering, as the suite checks it."""

    label: str
    level: Level
    basis: list
    orbit: int  # cells per orbit: 1 upstairs, m in the quotient


def _levels(m: int) -> tuple[_Level, _Level]:
    system = get_system(m)
    return (
        _Level("fm", system.up, system.basis_fm, 1),
        _Level("quotient", system.down, system.basis_q, m),
    )


def _count_types(cells: Iterable, m: int) -> dict[int, int]:
    name_edge, counts = get_system(m).name_edge, {b: 0 for b in range(1, m + 1)}
    for cell in cells:
        counts[name_edge(cell)[1]] += 1
    return counts


def morse_rank_check(m: int) -> list[Verdict]:
    """Critical counts against raw Euler characteristics, both spaces."""
    out = []
    for lv in _levels(m):
        chi = chi_oracle(lv.level.complex)
        crit0, crit1 = len(lv.level.field.critical(0)), len(lv.level.field.critical(1))
        out.append((f"morserank.m{m}.{lv.label}", crit0 - crit1 == chi, f"{crit0} - {crit1} vs chi {chi}"))
        rank = len(lv.basis)
        out.append((f"rank.m{m}.{lv.label}", rank == 1 - chi, f"rank {rank} vs 1 - chi {1 - chi}"))
    return out


def hom_table(system) -> dict[str, tuple[list[GeneratorId], Callable, Callable]]:
    """(basis, closed form, oracle) of each structural map, on its basis."""
    return {
        "iota": (system.basis_fm, system.iota_closed_form, system.iota_oracle),
        "p1": (system.basis_fm, system.p1_closed_form, system.p1_oracle),
        "theta": (system.basis_q, system.theta_closed_form, lambda g: system.theta_oracle(FreeWord.gen(g))),
    }


# -- individual suite checks -------------------------------------------------


def _check_census(m: int) -> list[Verdict]:
    out = []
    for lv in _levels(m):
        field, expect = lv.level.field, math.factorial(m) // lv.orbit
        counts = _count_types(field.critical(1), m)
        ok = (
            len(field.critical(0)) == expect
            and all(count == expect for count in counts.values())
            and not any(field.critical(d) for d in range(2, lv.level.complex.top_dim + 1))
        )
        out.append((f"census.m{m}.{lv.label}", ok, f"crit0={len(field.critical(0))} by_type={counts}"))
    return out


def _check_selection(m: int) -> list[Verdict]:
    out = []
    for lv in _levels(m):
        counts = _count_types(lv.level.selected, m)
        # Quotient orbits are named by representatives fixing 1: none of type 1 is selected.
        lowest = 1 if lv.orbit == 1 else 2
        expect = {b: math.factorial(m - b) * (m - b) if lowest <= b < m else 0 for b in range(1, m + 1)}
        ok = counts == expect and sum(counts.values()) == math.factorial(m) // lv.orbit - 1
        out.append((f"selection.m{m}.{lv.label}", ok, f"{counts} vs {expect}"))
    return out


def _check_lemma47(m: int) -> list[Verdict]:
    """Target permutation = source permutation * c_b^-1 on every critical
    edge, sorting its ends (``edge_endpoints``); in the quotient, whose ends
    are placed on the level, up to the cyclic action."""
    name_edge, out = get_system(m).name_edge, []
    for lv in _levels(m):
        normal = (lambda p: p) if lv.orbit == 1 else (lambda p: cyclic_canonical(p)[0])
        cx, ok = lv.level.complex, True
        for cell in lv.level.field.critical(1):
            src, tgt = map(sorting_permutation, cx.edge_endpoints(cell))
            if normal(tgt) != normal(src * Perm.cycle(name_edge(cell)[1], m).inverse()):
                ok = False
                break
        noun = "critical edges" if lv.orbit == 1 else "orbit edges"
        out.append((f"lemma47.m{m}.{lv.label}", ok, f"{m * math.factorial(m) // lv.orbit} {noun}"))
    return out


def _check_trees(m: int) -> list[Verdict]:
    """The Morse tree has c0 - 1 edges and reaches every critical 0-cell.

    The forest is acyclic with one critical 0-cell per tree (checked when
    the field is built), so the forest and the Morse tree span the level;
    the detail counts their edges, the matched 0-cells and the selected
    edges."""
    out = []
    for lv in _levels(m):
        sinks, selected = lv.level.field.critical(0), lv.level.selected
        ok = len(selected) == len(sinks) - 1 and lv.level.parents.keys() == set(sinks)
        edges = lv.level.complex.num_cells(0) - len(sinks) + len(selected)
        out.append((f"trees.m{m}.{lv.label}", ok, f"{edges} edges"))
    return out


def _check_homs(m: int, include_iota_p1: bool) -> list[Verdict]:
    table = hom_table(get_system(m))
    out = []
    for name in ("iota", "p1", "theta") if include_iota_p1 else ("theta",):
        basis, closed_form, oracle = table[name]
        bad = [g.name() for g in basis if closed_form(g) != oracle(g)]
        out.append((f"{name}.m{m}", not bad, f"disagreements: {bad}"))
    return out


def _check_cor419(m: int) -> list[Verdict]:
    system = get_system(m)
    z = FreeWord.gen(system.z)
    om = FreeWord.gen(GeneratorId("quotient", Perm.identity(m), m))
    ok1 = all(
        system.iota_closed_form(GeneratorId("fm", Perm.cycle(1, m) ** r, m))
        == (z ** (-r)) * om * (z ** r)
        for r in range(m)
    )
    ok2 = all(
        z
        * system.iota_closed_form(GeneratorId("fm", Perm.cycle(1, m) ** r, m))
        * z.inverse()
        == system.iota_closed_form(GeneratorId("fm", Perm.cycle(1, m) ** (r - 1), m))
        for r in range(1, m)
    )
    return [
        (f"cor419.m{m}.conjugates", ok1, "iota of rotated top-type generators"),
        (f"cor419.m{m}.shift", ok2, "conjugation by the type-1 generator"),
    ]


def _theta_bracket(system, tau: Perm) -> int:
    canonical, _ = cyclic_canonical(tau)
    return system.theta_closed_form(GeneratorId("quotient", canonical, 1))


def _theta_canonical(system, tau: Perm) -> int:
    if tau(1) != 1:
        raise InvalidParameterError(f"not canonical: {tau}")
    return system.theta_closed_form(GeneratorId("quotient", tau, 1))


def _check_theta_relations(m: int) -> list[Verdict]:
    system = get_system(m)
    c1 = Perm.cycle(1, m)
    ok_sum = all(
        sum(_theta_bracket(system, sigma * c1 ** (-(i - 1))) for i in range(1, m + 1)) % m == 0
        for sigma in all_perms(m)
    )
    ok_branches = True
    detail = ""
    for sigma in all_perms(m):
        s = sigma(1)
        if s == 1:
            continue
        sigma_inv = sigma.inverse()
        lhs = sum(
            _theta_canonical(system, (c1 ** (sigma_inv(i) - 1)) * sigma * (c1 ** (-(i - 1))))
            for i in range(1, s)
        )
        for b in range(2, m + 1):
            cb_inv = Perm.cycle(b, m).inverse()

            def first_sum(upper: int) -> int:
                return sum(
                    _theta_canonical(
                        system,
                        (c1 ** (sigma_inv(i) - 1)) * sigma * cb_inv * (c1 ** (-(i - 1))),
                    )
                    for i in range(1, upper + 1)
                )

            def shifted_sum(lo: int, hi: int) -> int:
                return sum(
                    _theta_canonical(
                        system,
                        (c1 ** (sigma_inv(i + 1) - 1)) * sigma * cb_inv * (c1 ** (-(i - 1))),
                    )
                    for i in range(lo, hi + 1)
                )

            if s < b:
                rhs = first_sum(s - 1)
            elif s == b:
                rhs = first_sum(b - 1) + shifted_sum(b, m - 1)
            else:
                rhs = first_sum(b - 1) + shifted_sum(b, s - 2)
            if lhs % m != rhs % m:
                ok_branches = False
                detail = f"sigma={sigma} b={b}: {lhs % m} != {rhs % m}"
                break
        if not ok_branches:
            break
    return [
        (f"thetarel.m{m}.orbitsum", ok_sum, "orbit sums vanish"),
        (f"thetarel.m{m}.branches", ok_branches, detail or "all branches"),
    ]


def _check_circle(n: int) -> list[Verdict]:
    """Compare the closed form ``decide_circle`` with the brute-force search
    ``circle_solver`` on every one-block class (m = 1) with entries in
    [-5, 5], 11^(n+1) classes.  Each class is decided by both functions, and
    every class where they differ counts as a disagreement.  The two share no
    test (one reads the residue and block constancy off the class, the other
    searches the window for each unknown), so a fault in either one shows
    here."""
    bad = 0
    total = 0
    for cls in itertools.product(range(-5, 6), repeat=n + 1):
        total += 1
        closed = not dec.decide_circle(cls, n, 1).holds
        brute = dec.circle_solver(cls, n, 1)
        if closed != brute:
            bad += 1
    return [(f"circle.n{n}", bad == 0, f"{total} classes, {bad} disagreements")]


def _check_wedge(m: int, ks: Iterable[int]) -> list[Verdict]:
    action = dec.ActionData(m, 1, (1,))
    ok = True
    detail = ""
    for k in ks:
        verdict = dec.decide_wedge(k, m, action)
        if verdict.holds or verdict.witness is None:
            ok = False
            detail = f"k={k}"
            break
    return [(f"wedge.m{m}", ok, detail or "witnesses verified")]


def _check_decisions() -> list[Verdict]:
    out = []
    out.append(("decide.interval", dec.decide_interval().holds, "holds"))
    star = make_star(3, 2)
    verdict = dec.decide_tree(star, 2, dec.ActionData(2, 1, (1,)))
    out.append(("decide.tree_star", not verdict.holds and verdict.witness is not None, "witness verified"))
    ok_path = all(
        components(build_dconf(make_path(2 * m - 1), m)) == math.factorial(m) for m in (2, 3)
    )
    out.append(("decide.path_components", ok_path, "m! components"))
    return out


def _check_adapt(count: int = 100, seed: int = 20240810) -> list[Verdict]:
    rng = random.Random(seed)
    bad = 0
    for _ in range(count):
        n = rng.randint(2, 12)
        r = rng.randint(1, 4)
        while True:
            values = tuple(rng.randrange(n) for _ in range(r))
            if math.gcd(n, *values) == 1:
                break
        ys = dec.adapt_basis(values, n)
        action = dec.ActionData(n, r, values)
        evaluated = [w.evaluate_additive(action.value) % n for w in ys]
        if math.gcd(evaluated[0], n) != 1 or any(v != 0 for v in evaluated[1:]):
            bad += 1
        if len(dec.kernel_basis(ys, n)) != n * (r - 1) + 1:
            bad += 1
    return [("adapt.random", bad == 0, f"{count} random surjections")]


# -- reports and the suite -----------------------------------------------------


class Report:
    """A command's output: its records and its checks, rendered in either format."""

    def __init__(
        self, command: str, records: Optional[list[tuple[str, str]]] = None, checks: Optional[list[Verdict]] = None
    ) -> None:
        self.command = command
        self.records = [] if records is None else records
        self.checks = [] if checks is None else checks

    def __repr__(self) -> str:
        return f"Report(command={self.command!r}, records={self.records!r}, checks={self.checks!r})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.command, self.records, self.checks) == (other.command, other.records, other.checks)
        return NotImplemented

    @property
    def all_pass(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def render_records(self) -> str:
        lines = [f"command\t{self.command}"]
        for key, value in sorted(self.records):
            lines.append(f"{key}\t{value}")
        for check_id, ok, detail in sorted(self.checks):
            status = "pass" if ok else f"fail: {detail}"
            lines.append(f"check.{check_id}\t{status}")
        return "\n".join(lines) + "\n"

    def render_text(self) -> str:
        lines = [f"# {self.command}"]
        for key, value in sorted(self.records):
            lines.append(f"{key} = {value}")
        for check_id, ok, detail in sorted(self.checks):
            lines.append(f"{'ok  ' if ok else 'FAIL'} {check_id}  ({detail})")
        if self.checks:
            failed = sum(1 for _, ok, _ in self.checks if not ok)
            lines.append(f"{len(self.checks) - failed}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.render_records() if fmt == "records" else self.render_text()


def run_suite(level: str = "quick") -> Report:
    """quick: everything at m in {2,3}; full: adds m=4 and the exhaustive
    theta relation checks.  Exceptions inside a group fail its checks."""
    if level not in ("quick", "full"):
        raise InvalidParameterError(f"level must be quick or full, got {level}")
    groups: list[tuple[str, Callable[[], list[Verdict]]]] = []
    ms = (2, 3) if level == "quick" else (2, 3, 4)
    for m in ms:
        groups.append((f"census.m{m}", lambda m=m: _check_census(m)))
        groups.append((f"selection.m{m}", lambda m=m: _check_selection(m)))
        groups.append((f"lemma47.m{m}", lambda m=m: _check_lemma47(m)))
        groups.append((f"trees.m{m}", lambda m=m: _check_trees(m)))
        groups.append((f"ranks.m{m}", lambda m=m: morse_rank_check(m)))
        groups.append(
            (f"homs.m{m}", lambda m=m: _check_homs(m, include_iota_p1=m <= 3))
        )
        if m <= 3:
            groups.append((f"cor419.m{m}", lambda m=m: _check_cor419(m)))
    if level == "full":
        groups.append(("thetarel.m3", lambda: _check_theta_relations(3)))
        groups.append(("thetarel.m4", lambda: _check_theta_relations(4)))
        groups.append(("cor419.m4", lambda: _check_cor419(4)))
    groups.append(("circle.n2", lambda: _check_circle(2)))
    if level == "full":
        groups.append(("circle.n3", lambda: _check_circle(3)))
    groups.append(("wedge.m2", lambda: _check_wedge(2, range(-5, 6))))
    groups.append(("wedge.m3", lambda: _check_wedge(3, range(-5, 6))))
    groups.append(("decide", _check_decisions))
    groups.append(("adapt", _check_adapt))

    report = Report(command=f"suite --level {level}", records=[("level", level)])
    for group_id, run in groups:
        try:
            report.checks.extend(run())
        except Exception as exc:  # a crashed group is a failed check
            tb = exc.__traceback__
            while tb.tb_next is not None:  # the frame that raised
                tb = tb.tb_next
            code = tb.tb_frame.f_code
            where = f"{os.path.basename(code.co_filename)}:{tb.tb_lineno} in {code.co_name}"
            detail = f"exception {type(exc).__name__} at {where}: {exc!r}"
            report.checks.append((group_id, False, detail))
    report.checks.sort(key=lambda v: v[0])
    return report
