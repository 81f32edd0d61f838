"""Smoke test: every numbered demo runs to completion.

demos/calibrate_bands.py is a regeneration tool that takes minutes and is
not run here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env.pop("MIXBOUND_THREADS", None)
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, cwd=tmp_path, env=env, timeout=300)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]
