"""The scripts the README tells readers to run: the demos and the sweep."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run(*args):
    return subprocess.run([sys.executable, *map(str, args)], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.name)
def test_demo_runs(demo):
    done = run(demo)
    assert done.returncode == 0, done.stderr


def test_sweep_matches_itself(tmp_path):
    done = run(ROOT / "scripts" / "sweep.py")
    assert done.returncode == 0, done.stderr
    out = tmp_path / "sweep.jsonl"
    out.write_text(done.stdout, encoding="utf-8")
    diff = run(ROOT / "scripts" / "sweep.py", "--diff", out, out)
    assert diff.returncode == 0, diff.stdout
    lines = diff.stdout.splitlines()
    assert lines and all(" 0 of " in line for line in lines), diff.stdout
