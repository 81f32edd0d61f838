"""Tests of the benchmark itself: span arithmetic, the output gate, and a
tiny-size smoke run of every workload."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------------------
# span tree arithmetic

class FakeClock:
    """Advances one second per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_on_nested_span_tree():
    tracer = spans.Tracer(clock=FakeClock())

    def leaf():
        return 1

    def middle():
        return leaf() + leaf()

    def recurse(k):
        return 0 if k == 0 else recurse(k - 1) + leaf()

    def top():
        return middle() + recurse(1)

    leaf = tracer.wrap("m.leaf", leaf)
    middle = tracer.wrap("m.middle", middle)
    recurse = tracer.wrap("m.recurse", recurse)
    top = tracer.wrap("m.top", top)
    assert top() == 3

    # One clock reading per span edge: top 1..14; middle 2..7 holding
    # leaves 3..4 and 5..6; recurse(1) 8..13 holding recurse(0) 9..10 and
    # a leaf 11..12.
    got = tracer.summary()
    assert got["m.leaf"]["calls"] == 3
    assert got["m.leaf"]["total"] == pytest.approx(3.0)
    assert got["m.leaf"]["self"] == pytest.approx(3.0)
    assert got["m.middle"]["total"] == pytest.approx(5.0)
    assert got["m.middle"]["self"] == pytest.approx(3.0)
    # The nested same-name span is not counted twice in the total.
    assert got["m.recurse"]["calls"] == 2
    assert got["m.recurse"]["total"] == pytest.approx(5.0)
    assert got["m.recurse"]["self"] == pytest.approx((5.0 - 1.0 - 1.0) + 1.0)
    assert got["m.top"]["total"] == pytest.approx(13.0)
    assert got["m.top"]["self"] == pytest.approx(13.0 - 5.0 - 5.0)
    # Self times partition the root span.
    assert sum(v["self"] for v in got.values()) == pytest.approx(got["m.top"]["total"])


def test_summarize_on_hand_built_tree():
    # root [0, 10] -> a [1, 4] -> b [2, 3]; root -> a [5, 9]
    names = ["root", "a", "b"]
    got = spans.summarize(names, name_id=[0, 1, 2, 1], parent=[-1, 0, 1, 0],
                          outer=[1, 1, 1, 1], start=[0, 1, 2, 5], end=[10, 4, 3, 9])
    assert got["root"] == {"total": 10.0, "self": 3.0, "calls": 1}
    assert got["a"] == {"total": 7.0, "self": 6.0, "calls": 2}
    assert got["b"] == {"total": 1.0, "self": 1.0, "calls": 1}


# ---------------------------------------------------------------------------
# output gate

VERIFY_ROWS = [
    # name, kernel, eps, ell, x, M, lhs, rhs, slack, passed
    ["linf_hitting_bound", "cycle(n=8)", "0.25", "", "", "", "12.5", "20", "7.5", "1"],
    ["rel_log_le_tv", "cycle(n=8)", "0.25", "", "", "", repr(4.0 * math.log(4.0)),
     "9.0", "1.4", "1"],
    ["head_window_order0", "cycle(n=8)", "", "", "0", "1", "0.75", "1.25", "0.5", "1"],
]
BRW_ROWS = [
    # size, n, target, estimate, stderr, exact_reference, ratio, censor_rate
    ["8", "64", "hit", "3.25", "0.125", "4", "0.8125", "0"],
    ["16", "256", "hit", "5.5", "0.25", "7", "0.7857142857142857", "0.001"],
    ["32", "1024", "hit", "8.75", "0.375", "11", "0.79545454545454541", "0"],
]


def _verify_obs(rows):
    return {"kind": "verify", "argv": ["verify", "--family", "cycle"], "exit": 0,
            "error": None, "rows": rows, "sandwich": []}


def _brw_obs(rows, rows_ok=(True, True, True), slope_ok=True):
    return {"kind": "brw", "exit": 0, "error": None, "rows": rows,
            "argv": ["brw", "--family", "torus", "--sizes", "8,16,32"],
            "sandwich": [{"rows_ok": list(rows_ok), "slope_ok": slope_ok}]}


def _with(rows, i, j, value):
    out = [list(r) for r in rows]
    out[i][j] = value
    return out


def test_gate_accepts_reference_outputs():
    ref = [gate.verify_reference(VERIFY_ROWS), gate.brw_reference(BRW_ROWS)]
    assert ref[0]["t_rel"]["cycle(n=8)"] == pytest.approx(4.0)
    assert gate.check([_verify_obs(VERIFY_ROWS), _brw_obs(BRW_ROWS)], ref) == (7, 0, [])


def test_gate_rejects_perturbed_lhs():
    ref = [gate.verify_reference(VERIFY_ROWS)]
    # A mixing time may move by 1e-9 * t_rel (t_rel = 4 here), no more.
    inside = _with(VERIFY_ROWS, 0, 6, repr(12.5 + 0.5e-9 * 4.0))
    assert gate.check([_verify_obs(inside)], ref)[1] == 0
    outside = _with(VERIFY_ROWS, 0, 6, repr(12.5 + 2e-9 * 4.0))
    attempted, failed, problems = gate.check([_verify_obs(outside)], ref)
    assert (attempted, failed) == (3, 1)
    assert "lhs" in problems[0]
    # Other values are held to the 1e-9 relative tolerance of the reports.
    closed_form = _with(VERIFY_ROWS, 2, 6, repr(0.75 * (1 + 1e-8)))
    assert gate.check([_verify_obs(closed_form)], ref)[1] == 1


def test_gate_rejects_one_ulp_in_brw_estimate():
    ref = [gate.brw_reference(BRW_ROWS)]
    nudged = _with(BRW_ROWS, 1, 3, repr(math.nextafter(5.5, math.inf)))
    attempted, failed, problems = gate.check([_brw_obs(nudged)], ref)
    assert (attempted, failed) == (4, 1)
    assert "estimate" in problems[0]


def test_gate_counts_failed_reports_bands_and_commands():
    failing = _with(VERIFY_ROWS, 1, 9, "0")
    assert gate.check([_verify_obs(failing)])[:2] == (3, 1)
    assert gate.check([_brw_obs(BRW_ROWS, rows_ok=(True, False, True),
                                slope_ok=False)])[:2] == (4, 2)
    crashed = dict(_verify_obs([]), exit=None, error="Traceback ...")
    ref = [gate.verify_reference(VERIFY_ROWS)]
    assert gate.check([crashed], ref)[:2] == (3, 3)
    band_exit = dict(_brw_obs(BRW_ROWS), exit=1)
    assert gate.check([band_exit])[:2] == (4, 4)


# ---------------------------------------------------------------------------
# metric names and the smoke run

def _benchmark_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_matches_metric_definitions():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(metrics.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_tiny_smoke_run_emits_every_metric(trace):
    proc = _run("--workload", "all", "--size", "tiny", "--seconds", "0",
                "--seed", "3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    spec = _benchmark_json()
    names = [m["name"] for m in spec["per_layer" if trace == "1" else "end_to_end"]]
    expected = {f"{w}.{n}" for w in metrics.WORKLOADS for n in names}
    assert set(result["metrics"]) == expected
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "exact_custom", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
