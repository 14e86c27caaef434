"""Command-line surface: graph, dconf, morse, pi1, decide, suite.

Exit codes: 0 on success, 1 when a requested check fails, 2 on usage errors
(including invalid parameter values), 3 on an internal error (a broken
invariant of the program, reported on one line).
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import decide as dec
from .complexes import build_dconf, build_quotient, check_room
from .covering import skeleton
from .errors import InvalidParameterError, PreconditionError, StructuralError
from .fundgroup import get_system
from .graphs import (
    Graph,
    emit_graph_text,
    is_sufficiently_subdivided,
    make_cycle,
    make_lollipop,
    make_path,
    make_star,
    parse_graph_text,
)
from .morse import build_field
from .oracle import Report, chi_oracle, hom_table, run_suite
from .words import FreeWord


def _load_graph(path: str) -> Graph:
    if path == "-":
        return parse_graph_text(sys.stdin.read())
    with open(path, "r", encoding="utf-8") as handle:
        return parse_graph_text(handle.read())


def _print_report(report: Report, fmt: str) -> int:
    sys.stdout.write(report.render(fmt))
    return 0 if report.all_pass else 1


# -- graph ---------------------------------------------------------------------


def cmd_graph_build(args) -> int:
    # No command places two particles on a graph that ``check_room`` refuses for two, so it is
    # refused before any edge is made; one too small for two gets its constructor's message.
    star = 1 + args.legs * args.leg_length
    vertices = {"lollipop": 2 * args.m, "path": args.n, "cycle": args.n}.get(args.kind, star)
    check_room(max(vertices, 2), 2)
    if args.kind == "lollipop":
        graph = make_lollipop(args.m)
    elif args.kind == "path":
        graph = make_path(args.n)
    elif args.kind == "cycle":
        graph = make_cycle(args.n)
    else:
        graph = make_star(args.legs, args.leg_length)
    sys.stdout.write(emit_graph_text(graph))
    return 0


def cmd_graph_check(args) -> int:
    if args.m < 1:
        raise InvalidParameterError(f"need m >= 1, got {args.m}")
    graph = _load_graph(args.graph)
    report = Report(command=f"graph check --m {args.m}")
    report.records.append(("chi", str(graph.euler_characteristic)))
    report.records.append(("essential_vertices", str(len(graph.essential_vertices))))
    report.records.append(
        ("sufficiently_subdivided", str(is_sufficiently_subdivided(graph, args.m)).lower())
    )
    sys.stdout.write(report.render(args.format))
    return 0


# -- dconf ----------------------------------------------------------------------


def _components(cx, target) -> int:
    """Components of the 1-skeleton of ``target``, cx or its quotient, read
    off the Morse complex (``skeleton``): the forest joins each 0-cell to its
    sink (``build_field``), on every connected graph, so no ordered cell is
    walked."""
    field = build_field(cx, None)
    if target is not cx:
        field = build_field(target, field)
    return len(set(skeleton(field)[1].values()))


def cmd_dconf_stats(args) -> int:
    graph = _load_graph(args.graph)
    cx = build_dconf(graph, args.m)
    report = Report(command=f"dconf stats --m {args.m}" + (" --quotient" if args.quotient else ""))
    target = build_quotient(cx) if args.quotient else cx
    for d in sorted(target.cells_by_dim):
        report.records.append((f"cells.dim{d}", str(target.num_cells(d))))
    report.records.append(("chi", str(chi_oracle(target))))
    report.records.append(("components", str(_components(cx, target))))
    if args.quotient:
        report.records.append(("orbits", str(sum(target.num_cells(d) for d in target.cells_by_dim))))
    sys.stdout.write(report.render(args.format))
    return 0


# -- morse ----------------------------------------------------------------------


def cmd_morse_critical(args) -> int:
    system = get_system(args.m)
    field = (system.down if args.quotient else system.up).field
    space = "quotient" if args.quotient else "fm"
    report = Report(command=f"morse critical --m {args.m} --space {space}")
    report.records.append(("critical.dim0", str(len(field.critical(0)))))
    crit1 = field.critical(1)
    report.records.append(("critical.dim1", str(len(crit1))))
    top = field.complex.top_dim
    report.records.append(
        ("critical.dim2plus", str(sum(len(field.critical(d)) for d in range(2, top + 1))))
    )
    edges = [(cell, *system.name_edge(cell)) for cell in crit1]
    if args.by_type:
        by_type: dict[int, int] = {}
        for _, _, b in edges:
            by_type[b] = by_type.get(b, 0) + 1
        for b in sorted(by_type):
            report.records.append((f"critical.type{b}", str(by_type[b])))
    for cell, sigma, b in edges:
        report.records.append((f"edge.{cell}", f"type={b} sigma={sigma}"))
    sys.stdout.write(report.render(args.format))
    return 0


def cmd_morse_verify(args) -> int:
    from .oracle import _check_lemma47

    report = Report(command=f"morse verify-lemma47 --m {args.m}")
    report.checks.extend(_check_lemma47(args.m))
    return _print_report(report, args.format)


# -- pi1 -------------------------------------------------------------------------


def cmd_pi1_basis(args) -> int:
    system = get_system(args.m)
    report = Report(command=f"pi1 basis --space {args.space} --m {args.m}")
    basis = system.basis(args.space)
    report.records.append(("rank", str(len(basis))))
    for gen in basis:
        cell = gen.cell() if args.space == "fm" else system.quotient.project(gen.cell())
        report.records.append((f"generator.{gen.name()}", f"type={gen.type_b} cell={cell}"))
    sys.stdout.write(report.render(args.format))
    return 0


def cmd_pi1_map(args) -> int:
    system = get_system(args.m)
    report = Report(command=f"pi1 map --which {args.which} --m {args.m}")
    basis, closed_form, oracle = hom_table(system)[args.which]
    fmt = lambda v: str(v) if isinstance(v, int) else v.format(lambda g: g.name())
    for gen in basis:
        closed = closed_form(gen)
        report.records.append((f"{args.which}.{gen.name()}", fmt(closed)))
        if args.oracle_check:
            value = oracle(gen)
            report.checks.append((f"{args.which}.{gen.name()}", closed == value, fmt(value)))
    return _print_report(report, args.format)


# -- decide ----------------------------------------------------------------------


def _witness_records(report: Report, witness: dec.Witness) -> None:
    def fmt(image) -> str:
        if isinstance(image, int):
            return str(image)
        return image.format(lambda g: g.name() if hasattr(g, "name") else str(g))

    for letter, image in witness.psi.images.items():
        report.records.append((f"witness.psi.{letter}", fmt(image)))
    for word, image in witness.phi.images.items():
        key = word.format() if isinstance(word, FreeWord) else str(word)
        report.records.append((f"witness.phi.{key}", fmt(image)))


# The options each decide target reads (by argparse dest); it refuses any other.
DECIDE_READS = {
    "interval": (),
    "tree": ("graph", "n", "r", "theta"),
    "circle": ("n", "cls"),
    "wedge": ("k", "m", "n", "r", "theta"),
}


def _refuse_unread(args) -> None:
    for option in ("n", "m", "r", "theta", "cls", "k", "graph"):
        if getattr(args, option) is not None and option not in DECIDE_READS[args.target]:
            name = "class" if option == "cls" else option
            raise InvalidParameterError(f"the {args.target} target does not read --{name}")
    if args.target == "wedge" and None not in (args.n, args.m) and args.n != args.m:
        raise InvalidParameterError(
            f"the wedge target reads --n and --m as one particle count, got {args.n} and {args.m}"
        )


def cmd_decide(args) -> int:
    _refuse_unread(args)
    n = 2 if args.n is None else args.n
    r = 1 if args.r is None else args.r
    report = Report(command=f"decide --target {args.target}")
    if args.target == "interval":
        verdict = dec.decide_interval()
    elif args.target == "tree":
        graph = _load_graph(args.graph) if args.graph else make_star(3, 2)
        action = dec.ActionData(n, r, _parse_theta(args.theta, r, n))
        verdict = dec.decide_tree(graph, n, action)
    elif args.target == "circle":
        if args.cls is None:
            raise InvalidParameterError("circle target needs --class p,p1,...")
        cls = _parse_ints(args.cls, "--class")
        _require_order(n)
        m, extra = divmod(len(cls) - 1, n)
        if extra:
            raise InvalidParameterError(
                f"--class must list 1 + a multiple of n={n} values, got {len(cls)}"
            )
        verdict = dec.decide_circle(cls, n, m)
    else:
        if args.k is None:
            raise InvalidParameterError("wedge target needs --k")
        m = args.m if args.m is not None else n
        action = dec.ActionData(m, r, _parse_theta(args.theta, r, m))
        verdict = dec.decide_wedge(args.k, m, action)
    report.records.append(("borsuk_ulam", "holds" if verdict.holds else "fails"))
    if args.emit_witness and verdict.witness is not None:
        _witness_records(report, verdict.witness)
    sys.stdout.write(report.render(args.format))
    return 0


def _parse_ints(spec: str, option: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in spec.split(","))
    except ValueError:
        raise InvalidParameterError(
            f"{option} must be a comma-separated list of integers, got {spec!r}"
        ) from None


def _require_order(n: int) -> None:
    if n < 2:
        raise InvalidParameterError(f"need n >= 2, got {n}")


def _parse_theta(spec: Optional[str], r: int, n: int) -> tuple[int, ...]:
    if spec is None:
        return (1,) + (0,) * (r - 1)
    _require_order(n)
    values = tuple(v % n for v in _parse_ints(spec, "--theta"))
    if len(values) != r:
        raise InvalidParameterError(f"--theta must list {r} values")
    return values


# -- suite -----------------------------------------------------------------------


def cmd_suite(args) -> int:
    return _print_report(run_suite(args.level), args.format)


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="braidbu")
    parser.add_argument("--format", choices=("text", "records"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    graph = sub.add_parser("graph", help="build and inspect graphs")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    build = graph_sub.add_parser("build")
    build.add_argument("--kind", choices=("lollipop", "path", "cycle", "star"), required=True)
    build.add_argument("--m", type=int, default=2)
    build.add_argument("--n", type=int, default=3)
    build.add_argument("--legs", type=int, default=3)
    build.add_argument("--leg-length", type=int, default=1)
    build.set_defaults(handler=cmd_graph_build)
    check = graph_sub.add_parser("check")
    check.add_argument("--graph", default="-")
    check.add_argument("--m", type=int, required=True)
    check.set_defaults(handler=cmd_graph_check)

    dconf = sub.add_parser("dconf", help="configuration complex statistics")
    dconf_sub = dconf.add_subparsers(dest="subcommand", required=True)
    stats = dconf_sub.add_parser("stats")
    stats.add_argument("--graph", required=True)
    stats.add_argument("--m", type=int, required=True)
    stats.add_argument("--quotient", action="store_true")
    stats.set_defaults(handler=cmd_dconf_stats)

    morse = sub.add_parser("morse", help="gradient field reports")
    morse_sub = morse.add_subparsers(dest="subcommand", required=True)
    critical = morse_sub.add_parser("critical")
    critical.add_argument("--m", type=int, required=True)
    critical.add_argument("--quotient", action="store_true")
    critical.add_argument("--by-type", action="store_true")
    critical.set_defaults(handler=cmd_morse_critical)
    verify = morse_sub.add_parser("verify-lemma47")
    verify.add_argument("--m", type=int, required=True)
    verify.set_defaults(handler=cmd_morse_verify)

    pi1 = sub.add_parser("pi1", help="fundamental group bases and maps")
    pi1_sub = pi1.add_subparsers(dest="subcommand", required=True)
    basis = pi1_sub.add_parser("basis")
    basis.add_argument("--space", choices=("fm", "quotient"), required=True)
    basis.add_argument("--m", type=int, required=True)
    basis.set_defaults(handler=cmd_pi1_basis)
    mp = pi1_sub.add_parser("map")
    mp.add_argument("--which", choices=("iota", "p1", "theta"), required=True)
    mp.add_argument("--m", type=int, required=True)
    mp.add_argument("--oracle-check", action="store_true")
    mp.set_defaults(handler=cmd_pi1_map)

    decide = sub.add_parser("decide", help="Borsuk-Ulam decisions")
    decide.add_argument("--target", choices=("interval", "tree", "circle", "wedge"), required=True)
    decide.add_argument("--n", type=int, default=None, help="order n of Z_n (default 2)")
    decide.add_argument("--m", type=int, default=None, help="wedge particles (default --n)")
    decide.add_argument("--r", type=int, default=None, help="rank of the action (default 1)")
    decide.add_argument("--theta", default=None)
    decide.add_argument("--class", dest="cls", default=None)
    decide.add_argument("--k", type=int, default=None)
    decide.add_argument("--graph", default=None)
    decide.add_argument("--emit-witness", action="store_true")
    decide.set_defaults(handler=cmd_decide)

    suite = sub.add_parser("suite", help="run the property suite")
    suite.add_argument("--level", choices=("quick", "full"), default="quick")
    suite.set_defaults(handler=cmd_suite)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (InvalidParameterError, PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StructuralError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
