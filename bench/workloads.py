"""The benchmark's four workloads: seeded items and their correctness checks.

An item is one call into the program's public interface.  Every workload
draws its items in rounds with `random.Random(seed)` from a fixed
population ordered by a reference cost, so that every seed runs the same
cost mix and the run-to-run spread comes from timing noise rather than
from which items a seed happened to draw.  No item repeats within a run.

Each check compares an output against a closed form, a stored reference
or a second layer of the program, never against the code being timed.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Callable

from make_data import A5_CLASSES, CENSUS_REFERENCE, W0_DIR, W0_MANIFEST

from jhp_lab import cli, grothendieck, repkit, symgroup, typea


@dataclass
class Item:
    label: str
    run: Callable[[], object]
    # None when the output is right, else why it is wrong
    check: Callable[[object], str | None]


@dataclass
class Workload:
    rounds: list[list[Item]]  # the timed run
    traced: list[Item]  # the fixed items of a traced run
    canaries: list[Item]  # closed-form checks run once, untimed


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def mirror_orientation(q: str) -> str:
    """The orientation read from the other end: vertex i becomes n+1-i."""
    flip = {"<": ">", ">": "<"}
    dirs = [flip[c] for c in reversed(q) if c in flip]
    return "1" + "".join(d + str(k + 2) for k, d in enumerate(dirs))


def mirror_perm(w: str) -> str:
    """w0 w w0, the permutation that matches `mirror_orientation`."""
    top = len(w) + 1
    return "".join(str(top - int(c)) for c in reversed(w))


def mirrored_rounds(rng: random.Random, entries, mirror, seconds, per_round: int) -> list[list]:
    """Rounds of `per_round` items at evenly spaced ranks of reference cost.

    Each entry is grouped with `mirror(entry)`, the same question with the
    vertices numbered from the other end, which costs the program the same
    work; a group costs the mean of its members' reference `seconds`.
    Every seed runs the same groups in round r; the seed picks which
    mirror image of each group runs, and the order.  So only timing noise
    separates two seeds."""
    groups = {}
    for entry in entries:
        members = tuple(sorted({entry, mirror(entry)}))
        groups[members] = sum(seconds(m) for m in members) / len(members)
    ordered = [members for _, members in sorted((c, m) for m, c in groups.items())]
    count = len(ordered) // per_round
    rounds = []
    for j in sorted(range(count), key=lambda j: abs(2 * j + 1 - count)):
        rnd = [
            rng.choice(ordered[int((k + (j + 0.5) / count) * len(ordered) / per_round)])
            for k in range(per_round)
        ]
        rng.shuffle(rnd)
        rounds.append(rnd)
    return rounds


def _load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _cli_item(label: str, argv: list[str], out: Path, check) -> Item:
    def run() -> str:
        status = cli.main(argv + ["--out", str(out)])
        if status != 0:
            raise RuntimeError(f"exit status {status}")
        return out.read_text(encoding="utf-8")

    return Item(label, run, check)


def _class_facts(q: str, w: str) -> tuple[set[str], int, int]:
    """Simple-object names, #supp and #Binv of F(w), from symgroup/typea."""
    quiver, perm = symgroup.parse_orientation(q), symgroup.parse_perm(w)
    simples = {str(m) for m in typea.simples_of(perm, quiver)}
    return simples, len(symgroup.support(perm)), len(symgroup.bruhat_inversions(perm))


def check_verdicts(q: str, w: str, atoms, jhp, rank, torsion) -> str | None:
    """Atoms are the simples, JHP iff #supp = #Binv, K0 free of rank #supp."""
    simples, supp, binv = _class_facts(q, w)
    if set(atoms) != simples or len(atoms) != len(simples):
        return f"atoms {sorted(atoms)} != simples {sorted(simples)}"
    if jhp != (supp == binv):
        return f"jhp {jhp} but #supp={supp}, #Binv={binv}"
    if rank != supp:
        return f"K0 rank {rank} != #supp {supp}"
    if torsion:
        return f"K0 torsion {torsion}"
    return None


# ---------------------------------------------------------------------------
# census: sortable enumeration, census and tables at n=7


def _census_check(q: str, which: str, ref: dict):
    n = q.count("<") + q.count(">") + 1

    def check(text: str) -> str | None:
        if which == "census":
            got = text.strip()
            want = f"{catalan(n + 1)},{ref['jhp']},{ref['faithful_jhp']}"
            return None if got == want else f"census {got} != {want}"
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0] != ["w", "supp", "inv", "Binv", "nsimp", "jhp"]:
            return f"bad header {rows[0]}"
        rows = rows[1:]
        jhp = sum(r[5] == "true" for r in rows)
        if which == "table1":
            want = (catalan(n + 1), ref["jhp"])
        else:
            full = "{" + ",".join(map(str, range(1, n + 1))) + "}"
            if any(r[1] != full for r in rows):
                return "table2 lists a class without full support"
            # c-sortable elements of full support: the positive Catalan number
            want = (catalan(n), ref["faithful_jhp"])
        got = (len(rows), jhp)
        return None if got == want else f"{which} (rows, jhp rows) {got} != {want}"

    return check


def census(seed: int, out: Path) -> Workload:
    refs = _load_json(CENSUS_REFERENCE)
    entries = [(which, q) for q in refs for which in ("census", "table1", "table2")]

    def mirror(entry):
        return entry[0], mirror_orientation(entry[1])

    def seconds(entry):
        return refs[entry[1]]["seconds"][entry[0]]

    def item(entry) -> Item:
        which, q = entry
        argv = ["tables", "--which", which, "--quiver", q]
        return _cli_item(f"{which} {q}", argv, out, _census_check(q, which, refs[q]))

    rounds = mirrored_rounds(random.Random(seed), entries, mirror, seconds, 20)
    traced = mirrored_rounds(random.Random(seed), entries, mirror, seconds, 6)[0]

    def closed_form(argv: list[str], want_rows: int | None, want_text: str | None) -> Item:
        def check(text: str) -> str | None:
            if want_text is not None:
                return None if text == want_text else f"{text!r} != {want_text!r}"
            rows = len(text.strip().split("\n")) - 1
            return None if rows == want_rows else f"{rows} rows != {want_rows}"

        return _cli_item(" ".join(argv), argv, out, check)

    canaries = [
        closed_form(["tables", "--which", "census", "--quiver", "1<2>3<4"], None, "42,34,8\n"),
        closed_form(["tables", "--which", "table1"], 14, None),
    ]
    return Workload(
        [[item(e) for e in rnd] for rnd in rounds],
        [item(e) for e in traced],
        canaries,
    )


# ---------------------------------------------------------------------------
# typea-report: `analyze` on A5 classes, the main user path


def typea_report(seed: int, out: Path) -> Workload:
    seconds = {
        (q, w): t for q, rows in _load_json(A5_CLASSES).items() for w, t in rows
    }

    def mirror(entry):
        return mirror_orientation(entry[0]), mirror_perm(entry[1])

    def item(entry) -> Item:
        q, w = entry

        def check(text: str) -> str | None:
            report = json.loads(text)
            k0 = report["k0"]
            return check_verdicts(q, w, report["atoms"], report["jhp"], k0["rank"], k0["torsion"])

        argv = ["analyze", "--quiver", q, "--w", w]
        return _cli_item(f"analyze {q} {w}", argv, out, check)

    rounds = mirrored_rounds(random.Random(seed), seconds, mirror, seconds.get, 64)
    traced = mirrored_rounds(random.Random(seed), seconds, mirror, seconds.get, 12)[0]
    return Workload(
        [[item(e) for e in rnd] for rnd in rounds],
        [item(e) for e in traced],
        [],
    )


# ---------------------------------------------------------------------------
# monoid-scan: report on frozen w0 presentations, no harvest


def load_w0_presentations() -> dict[str, tuple[str, int, dict]]:
    """Orientation -> (presentation text, harvest bound, reference seconds
    by grade bound).

    Every file is checked against the digest recorded when it was frozen.
    """
    out = {}
    for q, entry in _load_json(W0_MANIFEST).items():
        data = (W0_DIR / entry["file"]).read_bytes()
        if hashlib.sha256(data).hexdigest() != entry["sha256"]:
            raise ValueError(f"{entry['file']}: digest does not match the manifest")
        out[q] = (data.decode("utf-8"), entry["harvest_bound"], entry["seconds"])
    return out


def monoid_scan(seed: int, out: Path) -> Workload:
    texts = load_w0_presentations()
    # each presentation at its harvest bound and one grade above
    entries = [(q, bound + extra) for q, (_, bound, _) in texts.items() for extra in (0, 1)]

    def mirror(entry):
        # w0 is its own mirror image, so only the orientation changes
        return mirror_orientation(entry[0]), entry[1]

    def seconds(entry):
        return texts[entry[0]][2][str(entry[1])]

    def item(entry) -> Item:
        q, bound = entry
        text = texts[q][0]

        def run():
            src = grothendieck.abstract_source(text, label=q, grade_bound=bound)
            return grothendieck.report(src)

        def check(report) -> str | None:
            return check_verdicts(
                q, "654321", report.atoms, report.jhp, report.k0_rank, report.k0_torsion
            )

        return Item(f"report w0 {q} bound {bound}", run, check)

    rounds = mirrored_rounds(random.Random(seed), entries, mirror, seconds, 6)
    return Workload(
        [[item(e) for e in rnd] for rnd in rounds],
        [item(e) for e in rounds[0]],
        [],
    )


# ---------------------------------------------------------------------------
# oracle-a5: brute-force simples and composition series of one A5 class


def _oracle_item(q: str, w: str, picks: list[int], label: str) -> Item:
    """`picks` are ranks into the members of F(w), used to build the object."""

    def run():
        quiver, perm = symgroup.parse_orientation(q), symgroup.parse_perm(w)
        E = typea.torsion_free_membership(perm, quiver)
        mods, reps = typea.interval_catalogue(quiver)
        members = sorted(E.allowed)
        simples = {
            (mods[k].i, mods[k].j) for k in members if repkit.is_simple_object(reps[k], E)
        }
        series = None
        parts = []
        budget = 6
        for r in picks:
            fits = [k for k in members if reps[k].total_dim <= budget]
            if not fits:
                break
            k = fits[r % len(fits)]
            parts.append(reps[k])
            budget -= reps[k].total_dim
        if parts:
            series = repkit.series_analysis(repkit.direct_sum(E.algebra, parts), E)
        return simples, series

    def check(result) -> str | None:
        simples, series = result
        perm = symgroup.parse_perm(w)
        binv = symgroup.bruhat_inversions(perm)
        if simples != set(binv):
            return f"brute-force simples {sorted(simples)} != Bruhat inversions {sorted(binv)}"
        counting_jhp = len(symgroup.support(perm)) == len(binv)
        if series is not None and counting_jhp and len(series.factor_multisets) != 1:
            return f"counting criterion gives JHP but {len(series.factor_multisets)} factor multisets"
        return None

    return Item(label, run, check)


def oracle_a5(seed: int, out: Path) -> Workload:
    classes = _load_json(A5_CLASSES)
    rng = random.Random(seed)
    order = {q: rng.sample(rows, len(rows)) for q, rows in classes.items()}
    rounds = []
    for depth in range(min(len(rows) for rows in order.values())):
        rnd = []
        for q, rows in order.items():
            w = rows[depth][0]
            picks = [rng.randrange(1 << 30) for _ in range(rng.randint(1, 3))]
            rnd.append(_oracle_item(q, w, picks, f"oracle {q} {w} picks {picks}"))
        rng.shuffle(rnd)
        rounds.append(rnd)
    return Workload(rounds, rounds[0] + rounds[1], [])


WORKLOADS = {
    "census": census,
    "typea-report": typea_report,
    "monoid-scan": monoid_scan,
    "oracle-a5": oracle_a5,
}
