"""Smoke test: every numbered demo runs to completion, and every demo
imports mixbound before numpy or scipy."""

import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
ALL_DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env.pop("MIXBOUND_THREADS", None)
    res = subprocess.run([sys.executable, str(demo)], capture_output=True,
                         text=True, cwd=tmp_path, env=env, timeout=300)
    assert res.returncode == 0, res.stdout[-2000:] + res.stderr[-2000:]


def _first_import(tree, roots) -> float:
    """Line of the first import of a top-level package in roots."""
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] in roots for alias in node.names)
             or isinstance(node, ast.ImportFrom) and node.level == 0
             and node.module.split(".")[0] in roots]
    return min(lines, default=math.inf)


@pytest.mark.parametrize("demo", ALL_DEMOS, ids=[d.stem for d in ALL_DEMOS])
def test_demo_imports_mixbound_before_numpy(demo):
    # importing mixbound sets the OPENBLAS_THREAD_TIMEOUT default, which
    # numpy and scipy read once, when they load
    tree = ast.parse(demo.read_text())
    assert _first_import(tree, {"mixbound"}) < _first_import(tree, {"numpy", "scipy"})
