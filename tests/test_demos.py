"""Each demo runs to completion against this checkout's package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_DEMOS = sorted((_ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert len(_DEMOS) >= 4


@pytest.mark.parametrize("demo", _DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    run = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    if demo.name.startswith("03_"):
        assert "all thresholds verified: True" in run.stdout.splitlines()
