"""Byte pins on the command-line reports.

The stdout and exit status of `analyze --dot -` (the JSON report followed
by the truncated Cayley quiver) for every torsion-free class over every
orientation of A3 and A4, 392 classes, of `regress`, and of the JSON
report of w0 over `1<2>3<4>5>6` and `1<2>3<4>5>6>7` (A6 and A7, about a
second together), and of the JSON reports of all 2112 torsion-free
classes over the 16 orientations of A5, folded into one digest, and of
`tables --which table1|table2|census` over every orientation with at
most six vertices and over `1<2>3<4>5<6>7` and its opposite, of
`analyze --dot -` for w0 over `1<2>3<4>5>6>7>8` (A8), and of the JSON
report of w0 over `1<2>3<4>5>6>7>8>9` (A9) with `JHP_LAB_BOUND=9`, are
compared by SHA-256 digest with `report_digests.txt`.  A change that
alters the reports on purpose regenerates that file from the repository
root with

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.txt
"""
import contextlib
import hashlib
import io
import os
from itertools import product
from pathlib import Path
from unittest import mock

from jhp_lab import cli
from jhp_lab.symgroup import (
    Orientation,
    coxeter_element,
    enumerate_c_sortable,
    format_perm,
)

DIGESTS = Path(__file__).with_name("report_digests.txt")


def _run(*argv: str) -> str:
    """'exit digest' for one command line, digesting its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return f"{code} {hashlib.sha256(out.getvalue().encode()).hexdigest()}"


def report_lines() -> list[str]:
    lines = []
    for n in (3, 4):
        for dirs in product("><", repeat=n - 1):
            q = Orientation(n, dirs)
            for w in enumerate_c_sortable(coxeter_element(q)):
                argv = ("analyze", "--quiver", str(q), "--w", format_perm(w))
                lines.append(f"{q} {format_perm(w)} {_run(*argv, '--dot', '-')}")
    lines.append(f"regress {_run('regress')}")
    for q, w0 in (("1<2>3<4>5>6", "7654321"), ("1<2>3<4>5>6>7", "87654321")):
        lines.append(f"{q} {w0} json {_run('analyze', '--quiver', q, '--w', w0)}")
    a5 = hashlib.sha256()
    count = 0
    for dirs in product("><", repeat=4):
        q = Orientation(5, dirs)
        for w in enumerate_c_sortable(coxeter_element(q)):
            argv = ("analyze", "--quiver", str(q), "--w", format_perm(w))
            a5.update(f"{q} {format_perm(w)} {_run(*argv)}\n".encode())
            count += 1
    lines.append(f"A5 all {count} json {a5.hexdigest()}")
    quivers = [
        str(Orientation(n, dirs)) for n in range(1, 7) for dirs in product("><", repeat=n - 1)
    ]
    # 1<2>3<4>5<6>7 is its own mirror image; the opposite orientation stands in
    for q in quivers + ["1<2>3<4>5<6>7", "1>2<3>4<5>6<7"]:
        for which in ("table1", "table2", "census"):
            lines.append(f"tables {which} {q} {_run('tables', '--which', which, '--quiver', q)}")
    q, w0 = "1<2>3<4>5>6>7>8", "987654321"
    lines.append(f"{q} {w0} dot {_run('analyze', '--quiver', q, '--w', w0, '--dot', '-')}")
    q, w0 = "1<2>3<4>5>6>7>8>9", "10,9,8,7,6,5,4,3,2,1"
    with mock.patch.dict(os.environ, JHP_LAB_BOUND="9"):
        argv = ("analyze", "--quiver", q, "--w", w0)
        lines.append(f"{q} {w0} json JHP_LAB_BOUND=9 {_run(*argv)}")
    return lines


def test_reports_match_recorded_digests():
    assert report_lines() == DIGESTS.read_text().splitlines()


if __name__ == "__main__":
    print("\n".join(report_lines()))
