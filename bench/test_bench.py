"""The benchmark's own tests.

    python3 -m pytest -q bench/test_bench.py     # about two minutes

They run the benchmark the way a comparison would (fresh processes from
the repository root) and check its contract: planted wrong answers are
counted as failures, every metric in BENCHMARK.json is reported, traced
counts repeat exactly, and each per-layer metric is nonzero on the
workloads it is meant to measure.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from jhp_lab import repkit, typea  # noqa: E402
from jhp_lab.symgroup import bruhat_inversions, inversions, parse_perm  # noqa: E402

REPKIT = [
    "repkit.enumerate_subreps.calls", "repkit.enumerate_subreps.subreps",
    "repkit.enumerate_subreps.self_s",
    "repkit.SubquotClassifier.sub_class.calls", "repkit.SubquotClassifier.sub_class.self_s",
    "repkit.SubquotClassifier.quot_class.calls", "repkit.SubquotClassifier.quot_class.self_s",
    "repkit.hom_dim.calls", "repkit.hom_dim.self_s",
]
MONOID = [
    "monoid.stratum_classes.calls", "monoid.stratum_classes.self_s",
    "monoid.atoms.calls", "monoid.atoms.self_s",
    "monoid.group_completion.calls", "monoid.group_completion.self_s",
    "monoid.smith_normal_form.calls", "monoid.smith_normal_form.self_s",
    "monoid.smith_normal_form.cells",
    "monoid.is_half_factorial.self_s", "monoid.cancellativity_scan.self_s",
    "grothendieck.presentation_of.self_s", "grothendieck.report.self_s",
]
# per-layer metrics that must be nonzero on each workload
ASSIGNED = {
    "census": [
        "symgroup.is_c_sortable.calls", "symgroup.enumerate_c_sortable.self_s",
        "symgroup.enumerate_c_sortable.elements", "typea.census.self_s",
        "typea.table_rows.self_s", "cli.main.self_s",
    ],
    "typea-report": REPKIT + MONOID + [
        "repkit.conflations_up_to.calls", "repkit.conflations_up_to.self_s",
        "repkit.conflations_up_to.pairs",
        "grothendieck.relation_lattice_certified.calls", "cli.main.self_s",
    ],
    "monoid-scan": MONOID,
    "oracle-a5": REPKIT + [
        "repkit.is_simple_object.calls", "repkit.is_simple_object.self_s",
        "repkit.Membership.decompose.calls", "repkit.Membership.decompose.self_s",
        "repkit.series_analysis.self_s",
    ],
}


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().split("\n")[-1])


def test_planted_wrong_census_is_counted(tmp_path, monkeypatch):
    wl = workloads.census(3, tmp_path / "out")
    item = wl.rounds[0][0]
    _, failures = run.run_items([item])
    assert failures == []
    real = typea.census
    monkeypatch.setattr(typea, "census", lambda q: tuple(x + 1 for x in real(q)))
    monkeypatch.setattr(typea, "table_rows", lambda q, faithful_only=False: [])
    _, failures = run.run_items([item, *wl.canaries])
    assert len(failures) == 1 + len(wl.canaries)


def test_planted_wrong_simples_is_counted(tmp_path, monkeypatch):
    wl = workloads.oracle_a5(3, tmp_path / "out")
    # classes with a non-simple member, so "every member is simple" is wrong
    items = [
        i for i in wl.rounds[0]
        if len(inversions(parse_perm(i.label.split()[2])))
        > len(bruhat_inversions(parse_perm(i.label.split()[2])))
    ][:2]
    _, failures = run.run_items(items)
    assert failures == []
    monkeypatch.setattr(repkit, "is_simple_object", lambda X, E, bound=None: True)
    _, failures = run.run_items(items)
    assert len(failures) == len(items)


def test_raising_item_is_counted():
    def boom():
        raise RuntimeError("planted")

    item = workloads.Item("boom", boom, lambda out: None)
    latencies, failures = run.run_items([item])
    assert len(latencies) == 1 and len(failures) == 1 and "planted" in failures[0]


def test_tail_percentile_leaves_ten_items_beyond():
    assert run.tail_percentile([float(k) for k in range(1, 101)]) == (90, 90.0)
    assert run.tail_percentile([float(k) for k in range(1, 12)]) == (9, 1.0)
    with pytest.raises(ValueError):
        run.tail_percentile([1.0] * 10)


def test_frozen_presentations_match_their_digests():
    texts = workloads.load_w0_presentations()
    assert len(texts) == 16
    assert all(bound == 5 and set(secs) == {"5", "6"} for _, bound, secs in texts.values())


def test_end_to_end_reports_every_metric():
    out = result_of(bench("--workload", "oracle-a5", "--seed", "5", "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= run.MIN_ITEMS
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", sorted(ASSIGNED))
def test_traced_counts_repeat_and_cover_the_layers(workload):
    first, second = (
        result_of(bench("--workload", workload, "--seed", "11", "--seconds", "1", "--trace", "1"))
        for _ in range(2)
    )
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == want
    assert first["correct"] and second["correct"]
    for name, value in first["metrics"].items():
        if value["unit"] == "count":
            assert value["value"] == second["metrics"][name]["value"], name
    for name in ASSIGNED[workload]:
        assert first["metrics"][name]["value"] > 0, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "census", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
