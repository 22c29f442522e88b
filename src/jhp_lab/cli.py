"""
Command-line front end.

    jhp-lab tables --which table1|table2|census [--quiver Q] [--out PATH]
    jhp-lab analyze --quiver Q --w PERM [--bound N] [--out PATH] [--dot PATH]
    jhp-lab regress [--only NAME] [--spec FILE]

Exit codes: 0 success (also after --help), 2 I/O failure, 3 violated
precondition or bad input, including a usage error such as an unknown
option, a missing required option or an unknown subcommand, 4 resource
bound exceeded (the message names the limit), 5 internal error (the
program's own data are inconsistent).

An explicit `analyze --bound` must be at least the largest generator
grade and at least the bound where the default harvest stops (the first
bound whose relation lattice is certified, at most twice the largest
generator grade); a lower one exits 3 with the minimum in the message.
"""
from __future__ import annotations

import argparse
import sys

from . import grothendieck, monoid, regress, repkit, typea
from .symgroup import NotSortable, RankMismatch, parse_orientation, parse_perm

TABLE1_QUIVER = "1>2<3"
TABLE2_QUIVER = "1<2>3<4"

EXIT_OK = 0
EXIT_IO = 2
EXIT_PRECONDITION = 3
EXIT_BOUND = 4
EXIT_INTERNAL = 5


def _write(text: str, out: str | None) -> None:
    if out is None or out == "-":
        sys.stdout.write(text)
        return
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def cmd_tables(args: argparse.Namespace) -> int:
    if args.which == "census":
        quiver = parse_orientation(args.quiver or TABLE2_QUIVER)
        total, jhp, faithful = typea.census(quiver)
        _write(f"{total},{jhp},{faithful}\n", args.out)
        return EXIT_OK
    if args.which == "table1":
        quiver = parse_orientation(args.quiver or TABLE1_QUIVER)
        rows = typea.table_rows(quiver)
    else:
        quiver = parse_orientation(args.quiver or TABLE2_QUIVER)
        rows = typea.table_rows(quiver, faithful_only=True)
    _write(typea.rows_to_csv(rows), args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    quiver = parse_orientation(args.quiver)
    w = parse_perm(args.w)
    src = grothendieck.typea_torsionfree(w, quiver, grade_bound=args.bound)
    report = grothendieck.report(src)
    if args.bound is not None and not grothendieck.relation_lattice_certified(
        report.presentation
    ):
        # below the default's stop the lattice can be coarser than the
        # monoid's, and the verdicts wrong
        default = grothendieck.typea_torsionfree(w, quiver)
        stop = grothendieck.presentation_of(default).relation_grade_bound
        if args.bound < stop:
            raise repkit.InvalidSpec(
                f"harvest bound {args.bound} is below {stop}, where the default"
                f" harvest stops; --bound must be at least {stop}"
            )
    _write(report.to_json() + "\n", args.out)
    if args.dot is not None:
        dot = monoid.cayley_quiver(report.presentation, report.cancellative_bound)
        _write(dot, args.dot)
    return EXIT_OK


def cmd_regress(args: argparse.Namespace) -> int:
    loop_spec = None
    if args.spec is not None:
        with open(args.spec, encoding="utf-8") as fh:
            loop_spec = fh.read()
    failures = 0
    ran = 0
    for name, ok, detail in regress.run_items(args.only, loop_spec):
        ran += 1
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failures += 1
    if args.only is not None and ran == 0:
        print(f"FAIL no regression item named {args.only!r}")
        return EXIT_PRECONDITION
    return EXIT_OK if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jhp-lab",
        description=(
            "Torsion-free classes of type-A quivers, their Grothendieck "
            "monoids and Jordan-Hoelder diagnostics"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tables = sub.add_parser("tables", help="emit sortable-element tables as CSV")
    p_tables.add_argument(
        "--which", choices=("table1", "table2", "census"), required=True
    )
    p_tables.add_argument("--quiver", help="orientation string like 1>2<3")
    p_tables.add_argument("--out", help="output path (default stdout)")
    p_tables.set_defaults(func=cmd_tables)

    p_an = sub.add_parser("analyze", help="full monoid report for one class")
    p_an.add_argument("--quiver", required=True)
    p_an.add_argument("--w", required=True, help="one-line permutation, e.g. 3412")
    p_an.add_argument("--bound", type=int, help="relation harvest grade bound")
    p_an.add_argument("--out", help="output path (default stdout)")
    p_an.add_argument("--dot", help="also write the truncated Cayley quiver here")
    p_an.set_defaults(func=cmd_analyze)

    p_reg = sub.add_parser("regress", help="run the counterexample regressions")
    p_reg.add_argument("--only", help="run a single named item")
    p_reg.add_argument(
        "--spec", help="replacement presentation file for the loop-algebra item"
    )
    p_reg.set_defaults(func=cmd_regress)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error: bad input
        return EXIT_OK if exc.code == EXIT_OK else EXIT_PRECONDITION
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (repkit.DimensionBoundExceeded, monoid.EnumerationOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except repkit.InternalInconsistency as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (NotSortable, RankMismatch, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
