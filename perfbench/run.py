"""mixbound benchmark: end-to-end timing and an outside-in layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload exact_custom --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Workloads (see BENCHMARK.json for why each exists):

    exact_transitive  verify on cycle(1024), torus(2,32), hypercube(10)
    exact_drifted     verify on dlp(100, 200; lam=0.5, eps=0.05)
    exact_custom      verify on a seeded random reversible kernel, n=400
    brw_sandwich      brw --sandwich: hit on torus(2; 8,16,32), intersect on
                      hypercube(6,8,10), 1000 replicates, 2 workers

Each sample is a fresh ``worker.py`` process running ``mixbound.cli.main``
on the source tree in ``src/``.  With ``--trace 0`` the runner takes set-up
samples and then untraced iterations until ``--seconds`` is spent (at
least three), and reports medians of setup_s, wall_s, cpu_s and
peak_rss_mb.  With
``--trace 1`` it alternates untraced and traced iterations and reports the
per-layer metrics of the traced ones (medians) plus trace.overhead_s, the
traced minus the untraced wall time.  Every iteration passes through the
output gate (gate.py); ``attempted``/``failed`` count its operations.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  Raw results and the span trace go to
``.perfbench_out/``.  ``--write-reference`` regenerates reference.json from
the current source tree; run it only on a commit whose outputs are known
to be right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

REFERENCE = HERE / "reference.json"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

# On a shared 2-core host one iteration can take 5-15% longer than the
# next, so an untraced run takes at least three iterations and reports
# medians.  Set-up time varies more (0.35 to 0.8 s), so it gets its own
# samples besides the one each iteration gives.
MIN_ITERATIONS = 3
SETUP_SAMPLES = 5
CHILD_TIMEOUT = 120.0  # seconds for one worker process
# Workloads whose inputs depend on the seed, and the seeds the reference
# covers for them; the others have one seed-independent reference entry.
REFERENCE_SEEDS = {"exact_custom": (0,), "brw_sandwich": tuple(range(11))}


class BenchError(RuntimeError):
    pass


class Spawner:
    """Starts worker processes for one workload and collects their results."""

    def __init__(self, workload, seed, size):
        self.workload, self.seed, self.size = workload, seed, size
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        if workload == "brw_sandwich":
            self.env["MIXBOUND_THREADS"] = "2"
        self.count = 0

    def __call__(self, mode, spans=None):
        self.count += 1
        tag = f"{self.workload}-{os.getpid()}-{self.count}"
        workdir, result = WORK / tag, WORK / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--size", self.size, "--mode", mode, "--workdir", str(workdir),
               "--result", str(result)]
        if spans:
            cmd += ["--spans", str(spans)]
        cmd += ["--spawned-at", repr(time.monotonic())]
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} sample of {self.workload} timed out")
        finally:
            _reap_group(proc.pid)
        try:
            if proc.returncode != 0:
                raise BenchError(f"worker exited {proc.returncode}:\n"
                                 + err.decode(errors="replace")[-2000:])
            return json.loads(result.read_text(encoding="utf-8"))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
            result.unlink(missing_ok=True)


def _reap_group(pgid):
    """Kill whatever is left in a worker's process group (pool workers of a
    crashed worker) and wait until the group is empty."""
    deadline = time.monotonic() + 10.0
    try:
        os.killpg(pgid, signal.SIGKILL)
        while time.monotonic() < deadline:
            time.sleep(0.01)
            os.killpg(pgid, 0)
    except ProcessLookupError:
        return
    raise BenchError(f"processes of group {pgid} did not stop")


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def load_reference(workload, seed, size):
    if size != "full" or not REFERENCE.exists():
        return None
    entry = json.loads(REFERENCE.read_text(encoding="utf-8")).get(workload, {})
    key = str(seed) if workload in REFERENCE_SEEDS else "any"
    return entry.get(key)


def run_workload(workload, seed, seconds, trace, size):
    """Samples, gate verdict and metrics of one workload."""
    spawn = Spawner(workload, seed, size)
    reference = load_reference(workload, seed, size)
    spawn("setup")  # warm-up: byte-compiles src/ and fills the page cache
    full = size == "full"
    n_setup = SETUP_SAMPLES if full and not trace else 0
    setups = [spawn("setup")["setup_s"] for _ in range(n_setup)]
    plain, traced = [], []
    spans = OUT / f"{workload}.spans.npz"
    min_rounds = 1 if trace or not full else MIN_ITERATIONS
    start = time.monotonic()
    while True:
        plain.append(spawn("run"))
        if trace:
            traced.append(spawn("traced", spans=spans))
        elapsed = time.monotonic() - start
        # Stop where the run ends nearest to the time budget.
        if len(plain) >= min_rounds and elapsed + 0.5 * elapsed / len(plain) > seconds:
            break
    setups += [s["setup_s"] for s in plain]

    attempted = failed = 0
    problems = []
    for sample in plain + traced:
        a, f, p = gate.check(sample["commands"], reference)
        attempted, failed = attempted + a, failed + f
        problems += p
    samples = {name: [s[name] for s in plain] for name in END_TO_END if name != "setup_s"}
    samples["setup_s"] = setups
    out = {"workload": workload, "seed": seed, "size": size, "trace": trace,
           "reference_checked": reference is not None,
           "attempted": attempted, "failed": failed, "problems": problems[:50],
           "samples": samples, "environment": plain[0]["environment"]}
    if trace:
        layers = {name: _median([t["layers"][name] for t in traced])
                  for name in traced[0]["layers"]}
        layers["trace.overhead_s"] = (_median([t["wall_s"] for t in traced])
                                      - _median(samples["wall_s"]))
        layers["fail_frac"] = failed / attempted
        out["metrics"] = {name: {"value": layers[name], "unit": unit}
                          for name, unit, *_ in PER_LAYER}
        out["spans_file"] = str(spans.relative_to(ROOT))
    else:
        out["metrics"] = {name: {"value": _median(samples[name]), "unit": unit}
                          for name, (unit, _) in END_TO_END.items()}
        out["fail_frac"] = failed / attempted
    return out


def host_environment():
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "platform": platform.platform()}


def print_table(results, trace):
    for res in results:
        ref = "checked against reference" if res["reference_checked"] else "pass/fail only"
        print(f"== {res['workload']} (seed {res['seed']}, {res['size']}): "
              f"{res['failed']}/{res['attempted']} operations failed, {ref}")
        for problem in res["problems"][:10]:
            print(f"   FAIL {problem}")
        if trace:
            for name, m in res["metrics"].items():
                print(f"   {name:<40} {m['value']:>14.6g} {m['unit']}")
            continue
        for name, m in res["metrics"].items():
            vals = res["samples"][name]
            q1, q3 = _quartiles(vals)
            print(f"   {name:<12} {m['value']:>12.6g} {m['unit']:<6}"
                  f" (median of {len(vals)}; q1 {q1:.6g}, q3 {q3:.6g})")
        print(f"   {'fail_frac':<12} {res['fail_frac']:>12.6g} ratio")


def write_reference():
    """Rebuild reference.json from one untraced run per workload and seed."""
    ref = {}
    for workload in WORKLOADS:
        ref[workload] = {}
        for seed in REFERENCE_SEEDS.get(workload, (0,)):
            key = str(seed) if workload in REFERENCE_SEEDS else "any"
            sample = Spawner(workload, seed, "full")("run")
            _, failed, problems = gate.check(sample["commands"])
            if failed:
                raise BenchError(f"{workload} seed {seed} fails its own checks: "
                                 f"{problems[:3]}")
            ref[workload][key] = [
                gate.verify_reference(c["rows"]) if c["kind"] == "verify"
                else gate.brw_reference(c["rows"]) for c in sample["commands"]]
            print(f"reference: {workload} seed {seed}", flush=True)
    # One report or BRW row per line keeps the file reviewable as a diff.
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]",
                  json.dumps(ref, indent=1))
    REFERENCE.write_text(text + "\n", encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0,
                    help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shrinks every input (smoke tests)")
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "mixbound" / "cli.py").is_file():
        print(f"error: no mixbound source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    OUT.mkdir(exist_ok=True)
    try:
        if args.write_reference:
            write_reference()
            return 0
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(w, args.seed, args.seconds, bool(args.trace), args.size)
                   for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    env = {**host_environment(), **results[0]["environment"],
           "threads_env": {r["workload"]: r["environment"]["threads_env"]
                           for r in results}}
    tag = "all" if len(results) > 1 else results[0]["workload"]
    (OUT / f"{tag}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"environment": env, "results": results}, indent=1) + "\n",
        encoding="utf-8")
    print_table(results, bool(args.trace))
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
