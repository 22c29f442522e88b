"""Every demo script runs to completion on the installed sources."""
import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@functools.cache
def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, text=True,
        env=env, timeout=300,
    )


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path):
    result = run_demo(path)
    assert result.returncode == 0, result.stderr


def test_designated_demo_certifies_non_cancellation_at_2_2():
    out = run_demo(ROOT / "demos" / "designated_dimension_classes.py").stdout
    blocks = out.split("== designated dimension vector ")
    by_vector = {b.split("\n", 1)[0]: b for b in blocks[1:]}
    assert set(by_vector) == {"(1,1)", "(2,1)", "(2,2)"}
    assert (
        "not cancellative: [S1+S2+P]+[2*P] = [S1+S2+P]+[S1+S2+P]"
        " but [2*P] != [S1+S2+P]"
    ) in by_vector["(2,2)"]
