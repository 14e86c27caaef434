"""Cross-checking utilities: raw Euler characteristics, rank consistency,
and the property suite wiring every closed form to its independent oracle."""
from __future__ import annotations

import itertools
import math
import os
import random
import traceback
from dataclasses import dataclass, field
from typing import Callable, Iterable

from . import decide as dec
from .complexes import components
from .errors import InvalidParameterError
from .fundgroup import GeneratorId, get_system
from .graphs import make_path, make_star
from .morse import edge_data
from .perms import Perm, all_perms, cyclic_canonical
from .words import FreeWord

Verdict = tuple[str, bool, str]


def chi_oracle(cx) -> int:
    """Alternating sum of raw cell counts; independent of the gradient field."""
    return sum(
        (1 if d % 2 == 0 else -1) * len(cells) for d, cells in cx.cells_by_dim.items()
    )


def morse_rank_check(m: int) -> list[Verdict]:
    """Critical counts against raw Euler characteristics, both spaces."""
    system = get_system(m)
    out = []
    for label, cx, fld in (
        ("fm", system.fm, system.field_fm),
        ("quotient", system.quotient, system.field_q),
    ):
        chi = chi_oracle(cx)
        crit0, crit1 = len(fld.critical(0)), len(fld.critical(1))
        out.append(
            (
                f"morserank.m{m}.{label}",
                crit0 - crit1 == chi,
                f"{crit0} - {crit1} vs chi {chi}",
            )
        )
        rank = len(system.basis("fm" if label == "fm" else "quotient"))
        out.append(
            (f"rank.m{m}.{label}", rank == 1 - chi, f"rank {rank} vs 1 - chi {1 - chi}")
        )
    return out


# -- individual suite checks -------------------------------------------------


def _check_census(m: int) -> list[Verdict]:
    system = get_system(m)
    out = []
    fact = math.factorial(m)
    counts_fm = {b: 0 for b in range(1, m + 1)}
    for cell in system.field_fm.critical(1):
        counts_fm[edge_data(cell, system.graph, m)[1]] += 1
    ok = (
        len(system.field_fm.critical(0)) == fact
        and all(counts_fm[b] == fact for b in counts_fm)
        and all(
            not any(True for _ in system.field_fm.critical(d))
            for d in range(2, system.fm.top_dim + 1)
        )
    )
    out.append((f"census.m{m}.fm", ok, f"crit0={len(system.field_fm.critical(0))} by_type={counts_fm}"))
    counts_q = {b: 0 for b in range(1, m + 1)}
    for rep in system.field_q.critical(1):
        counts_q[edge_data(rep, system.graph, m)[1]] += 1
    okq = (
        len(system.field_q.critical(0)) == fact // m
        and all(counts_q[b] == fact // m for b in counts_q)
        and all(
            not any(True for _ in system.field_q.critical(d))
            for d in range(2, system.quotient.top_dim + 1)
        )
    )
    out.append((f"census.m{m}.quotient", okq, f"crit0={len(system.field_q.critical(0))} by_type={counts_q}"))
    return out


def _check_selection(m: int) -> list[Verdict]:
    system = get_system(m)
    out = []
    counts = {b: 0 for b in range(1, m + 1)}
    for cell in system.selected_fm:
        counts[edge_data(cell, system.graph, m)[1]] += 1
    expect = {
        b: math.factorial(m - b) * (m - b) if b < m else 0 for b in range(1, m + 1)
    }
    ok = counts == expect and sum(counts.values()) == math.factorial(m) - 1
    out.append((f"selection.m{m}.fm", ok, f"{counts} vs {expect}"))
    counts_q = {b: 0 for b in range(1, m + 1)}
    for rep in system.selected_q:
        counts_q[edge_data(rep, system.graph, m)[1]] += 1
    expect_q = {
        b: math.factorial(m - b) * (m - b) if 2 <= b <= m - 1 else 0
        for b in range(1, m + 1)
    }
    okq = counts_q == expect_q and sum(counts_q.values()) == math.factorial(m - 1) - 1
    out.append((f"selection.m{m}.quotient", okq, f"{counts_q} vs {expect_q}"))
    return out


def _check_lemma47(m: int) -> list[Verdict]:
    from .morse import associated_permutation, edge_source, edge_target, edge_type

    system = get_system(m)
    ok_fm = True
    for cell in system.field_fm.critical(1):
        b = edge_type(cell, m)
        src = associated_permutation(edge_source(cell, system.graph))
        tgt = associated_permutation(edge_target(cell, system.graph))
        if tgt != src * Perm.cycle(b, m).inverse():
            ok_fm = False
            break
    ok_q = True
    for rep in system.field_q.critical(1):
        b = edge_type(rep, m)
        src = associated_permutation(edge_source(rep, system.graph))
        tgt = associated_permutation(edge_target(rep, system.graph))
        lhs, _ = cyclic_canonical(tgt)
        rhs, _ = cyclic_canonical(src * Perm.cycle(b, m).inverse())
        if lhs != rhs:
            ok_q = False
            break
    return [
        (f"lemma47.m{m}.fm", ok_fm, f"{m * math.factorial(m)} critical edges"),
        (f"lemma47.m{m}.quotient", ok_q, f"{math.factorial(m)} orbit edges"),
    ]


def _check_trees(m: int) -> list[Verdict]:
    system = get_system(m)
    out = []
    for label, cx, tree in (
        ("fm", system.fm, system.tree_fm),
        ("quotient", system.quotient, system.tree_q),
    ):
        ok = len(tree) == len(cx.cells_by_dim[0]) - 1  # spanning checked at build
        out.append((f"trees.m{m}.{label}", ok, f"{len(tree)} edges"))
    return out


def _check_homs(m: int, include_iota_p1: bool) -> list[Verdict]:
    system = get_system(m)
    out = []
    if include_iota_p1:
        bad_iota = [
            g.name()
            for g in system.basis_fm
            if system.iota_closed_form(g) != system.iota_oracle(g)
        ]
        out.append((f"iota.m{m}", not bad_iota, f"disagreements: {bad_iota}"))
        bad_p1 = [
            g.name()
            for g in system.basis_fm
            if system.p1_closed_form(g) != system.p1_oracle(g)
        ]
        out.append((f"p1.m{m}", not bad_p1, f"disagreements: {bad_p1}"))
    bad_theta = [
        g.name()
        for g in system.basis_q
        if system.theta_closed_form(g) != system.theta_oracle(FreeWord.gen(g))
    ]
    out.append((f"theta.m{m}", not bad_theta, f"disagreements: {bad_theta}"))
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
        components(_path_complex(m)) == math.factorial(m) for m in (2, 3)
    )
    out.append(("decide.path_components", ok_path, "m! components"))
    return out


def _path_complex(m: int):
    from .complexes import build_dconf

    return build_dconf(make_path(2 * m - 1), m)


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


@dataclass
class Report:
    command: str
    records: list[tuple[str, str]] = field(default_factory=list)
    checks: list[Verdict] = field(default_factory=list)

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
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
            detail = f"exception {type(exc).__name__} at {where}: {exc!r}"
            report.checks.append((group_id, False, detail))
    report.checks.sort(key=lambda v: v[0])
    return report
