"""Regenerate the benchmark's frozen inputs and references from the program.

    python3 bench/make_data.py presentations   # data/a5_w0/*.txt + manifest
    python3 bench/make_data.py census          # data/census_reference.json
    python3 bench/make_data.py classes         # data/a5_classes.json

Run from the repository root.  The files are committed; the benchmark
checks the presentation digests and never regenerates anything, so a
later change to the harvest, to `presentation_of` or to the census cannot
change a workload's inputs or the references its outputs are checked
against.

The reference seconds stored with the items are timings of each item at
the commit that made the files.  They only sort
items into cost strata, so that every run draws the same cost mix; no
metric is computed from them.
"""
from __future__ import annotations

import hashlib
import json
import sys
import time
from itertools import product
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = HERE / "data"
W0_DIR = DATA / "a5_w0"
W0_MANIFEST = W0_DIR / "manifest.json"
OUT = ROOT / ".bench_out"
CENSUS_REFERENCE = DATA / "census_reference.json"
A5_CLASSES = DATA / "a5_classes.json"


def orientations(n: int) -> list[str]:
    """Every orientation string of the linear graph on n vertices."""
    return [
        "1" + "".join(d + str(k + 2) for k, d in enumerate(dirs))
        for dirs in product("<>", repeat=n - 1)
    ]


def presentation_text(pres, header: str) -> str:
    """`pres` in the `monoid.parse_presentation` format."""
    gens = pres.gens

    def side(word) -> str:
        return " + ".join(
            gens.names[k] if m == 1 else f"{m}*{gens.names[k]}"
            for k, m in enumerate(word)
            if m
        )

    lines = [f"# {header}"]
    for name, grade, dv in zip(gens.names, gens.grades, gens.dimvecs):
        lines.append(f"generator {name} grade {grade} dimvec ({','.join(map(str, dv))})")
    lines.append("carrier all")
    lines.extend(f"relation {side(u)} = {side(v)}" for u, v in pres.relations)
    return "\n".join(lines) + "\n"


def write_lines(path: Path, mapping: dict) -> None:
    """JSON object with one key per line, so diffs stay readable."""
    body = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in mapping.items())
    path.write_text("{\n" + body + "\n}\n", encoding="utf-8")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def make_presentations() -> None:
    from jhp_lab import grothendieck, monoid
    from jhp_lab.symgroup import parse_orientation, parse_perm

    W0_DIR.mkdir(parents=True, exist_ok=True)
    manifest = {}
    for k, q in enumerate(orientations(5)):
        src = grothendieck.typea_torsionfree(parse_perm("654321"), parse_orientation(q))
        pres = grothendieck.presentation_of(src)
        bound = pres.relation_grade_bound
        text = presentation_text(
            pres, f"F(654321) over {q}: relations harvested up to middle length {bound}"
        )
        reparsed = monoid.parse_presentation(text)
        if (reparsed.gens, reparsed.relations) != (pres.gens, pres.relations):
            raise SystemExit(f"{q}: presentation text does not round-trip")
        name = f"w0_{k:02d}.txt"
        (W0_DIR / name).write_text(text, encoding="utf-8")
        seconds = {}
        for b in (bound, bound + 1):
            t0 = time.perf_counter()
            grothendieck.report(grothendieck.abstract_source(text, grade_bound=b))
            seconds[str(b)] = round(time.perf_counter() - t0, 4)
        manifest[q] = {
            "file": name,
            "harvest_bound": bound,
            "relations": len(pres.relations),
            "sha256": sha256(text.encode("utf-8")),
            "seconds": seconds,
        }
        print(q, bound, len(pres.relations), flush=True)
    W0_MANIFEST.write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")


PASSES = 2  # full passes over the items; their mean is stored


def reference_seconds(argvs: list[list[str]]) -> list[float]:
    """Mean wall time of each CLI call over PASSES full passes.

    Whole passes, rather than repeats back to back, spread each item's
    timings over minutes, so a slow spell of the machine does not land on
    every timing of the same items.
    """
    from jhp_lab import cli

    OUT.mkdir(exist_ok=True)
    totals = [0.0] * len(argvs)
    for p in range(PASSES):
        for k, argv in enumerate(argvs):
            t0 = time.perf_counter()
            status = cli.main(argv + ["--out", str(OUT / "make_data.out")])
            totals[k] += time.perf_counter() - t0
            if status != 0:
                raise SystemExit(f"{argv}: exit {status}")
        print(f"pass {p + 1} of {PASSES} done", flush=True)
    return [round(t / PASSES, 4) for t in totals]


def make_census() -> None:
    """Census counts of every n=7 orientation, with reference seconds."""
    from jhp_lab import typea
    from jhp_lab.symgroup import parse_orientation

    kinds = ("census", "table1", "table2")
    quivers = orientations(7)
    seconds = iter(reference_seconds(
        [["tables", "--which", which, "--quiver", q] for q in quivers for which in kinds]
    ))
    out = {}
    for q in quivers:
        total, jhp, faithful = typea.census(parse_orientation(q))
        times = {which: next(seconds) for which in kinds}
        out[q] = {"total": total, "jhp": jhp, "faithful_jhp": faithful, "seconds": times}
    write_lines(CENSUS_REFERENCE, out)


def make_classes() -> None:
    """Every A5 class with the reference seconds of its `analyze` item."""
    from jhp_lab.symgroup import coxeter_element, enumerate_c_sortable, format_perm, parse_orientation

    classes = [
        (q, format_perm(w))
        for q in orientations(5)
        for w in enumerate_c_sortable(coxeter_element(parse_orientation(q)))
    ]
    seconds = reference_seconds([["analyze", "--quiver", q, "--w", w] for q, w in classes])
    out: dict[str, list] = {}
    for (q, w), t in zip(classes, seconds):
        out.setdefault(q, []).append([w, t])
    write_lines(A5_CLASSES, out)


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    jobs = {"presentations": make_presentations, "census": make_census, "classes": make_classes}
    if len(argv) != 1 or argv[0] not in jobs:
        print(__doc__, file=sys.stderr)
        return 2
    jobs[argv[0]]()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
