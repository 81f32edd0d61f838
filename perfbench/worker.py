"""One benchmark iteration in a fresh process.

The runner starts this script once per sample, so ``setup_s`` and
``peak_rss_mb`` belong to one workload.  It imports ``mixbound`` from the
checkout's ``src`` (the runner sets ``PYTHONPATH``), writes the workload's
seeded inputs into its work directory, and, unless ``--mode setup``, runs
the workload's commands through ``mixbound.cli.main(argv)``.  The program
receives only argv and the generated files.

It writes one JSON document to ``--result``: timings, resource use, the
parsed CSV output of every command and, for ``--mode traced``, the
per-layer metrics derived from the span trace.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

VERIFY_FLAGS = ["--ell", "1,2,3,4", "--eps", "0.25,0.5,1.0"]

# Input sizes of the workloads.  "tiny" exists for the smoke tests; its
# frozen-band checks are not expected to be meaningful at 200 replicates.
SIZES = {
    "full": {"transitive": (("cycle", ["--sizes", "1024"]),
                            ("torus", ["--d", "2", "--sizes", "32"]),
                            ("hypercube", ["--sizes", "10"])),
             "dlp": "100,200", "custom_n": 400,
             "torus_m": "8,16,32", "cube_d": "6,8,10", "replicates": "1000"},
    "tiny": {"transitive": (("cycle", ["--sizes", "16"]),
                            ("torus", ["--d", "2", "--sizes", "4"]),
                            ("hypercube", ["--sizes", "3"])),
             "dlp": "10,20", "custom_n": 12,
             "torus_m": "4,6,8", "cube_d": "3,4,5", "replicates": "200"},
}


def commands(workload: str, seed: int, size: str):
    """(kind, argv) for each command of the workload, paths relative to
    the work directory."""
    z = SIZES[size]
    if workload == "exact_transitive":
        return [("verify", ["verify", "--family", fam, *flags, *VERIFY_FLAGS,
                            "--out", f"verify-{fam}.csv"])
                for fam, flags in z["transitive"]]
    if workload == "exact_drifted":
        return [("verify", ["verify", "--family", "dlp", "--sizes", z["dlp"],
                            "--lam", "0.5", "--dlp-eps", "0.05", *VERIFY_FLAGS,
                            "--out", "verify-dlp.csv"])]
    if workload == "exact_custom":
        return [("verify", ["verify", "--spec", "custom.spec", *VERIFY_FLAGS,
                            "--out", "verify-custom.csv"])]
    if workload == "brw_sandwich":
        common = ["--replicates", z["replicates"], "--seed", str(seed), "--sandwich"]
        return [("brw", ["brw", "--family", "torus", "--d", "2", "--sizes",
                         z["torus_m"], "--target", "hit", *common,
                         "--out", "brw-hit.csv"]),
                ("brw", ["brw", "--family", "hypercube", "--sizes", z["cube_d"],
                         "--target", "intersect", *common,
                         "--out", "brw-intersect.csv"])]
    raise ValueError(f"unknown workload {workload!r}")


def make_inputs(workload: str, seed: int, size: str) -> None:
    """Write the seeded input files into the current directory."""
    if workload != "exact_custom":
        return
    import numpy as np
    from mixbound.chains import random_reversible_kernel
    kernel = random_reversible_kernel(SIZES[size]["custom_n"],
                                      np.random.default_rng(seed))
    np.savetxt("custom.csv", kernel.P, fmt="%.17g", delimiter=",")
    Path("custom.spec").write_text("family=custom\nmatrix=custom.csv\n",
                                   encoding="utf-8")


def split_row(line: str) -> list[str]:
    """Split a CSV line; kernel labels such as torus(d=2,m=32) keep their
    commas because mixbound writes them unquoted."""
    cells, depth, cur = [], 0, []
    for ch in line:
        if ch == "," and depth == 0:
            cells.append("".join(cur))
            cur = []
            continue
        depth += (ch == "(") - (ch == ")")
        cur.append(ch)
    cells.append("".join(cur))
    return cells


def read_csv(path: str) -> list[list[str]]:
    """Data rows of a mixbound output CSV (manifest and header dropped)."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    return [split_row(ln) for ln in lines[1:]]


def _cpu_s(who) -> float:
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


class SandwichCapture:
    """Keeps the verdict of each sandwich call, row by row."""

    def __init__(self, censor_limit: float):
        self.censor_limit = censor_limit
        self.results = []

    def wrap(self, fn):
        def captured(*args, **kwargs):
            res = fn(*args, **kwargs)
            self.results.append({
                "rows_ok": [bool(r.upper_ok and (r.lower_ok or r.lower_skipped)
                                 and r.censor_rate <= self.censor_limit)
                            for r in res.rows],
                "slope_ok": bool(res.slope_ok)})
            return res
        return captured


def _install_tracer(mixbound, tracer):
    from mixbound.brw import BRWConfig
    from spans import install

    def count_replicates(fn):
        def counted(*args, **kwargs):
            cfg = next(a for a in (*args, *kwargs.values())
                       if isinstance(a, BRWConfig))
            before = _cpu_s(resource.RUSAGE_CHILDREN)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.count("brw.replicates", cfg.replicates)
                tracer.count("brw.worker_cpu_s",
                             _cpu_s(resource.RUSAGE_CHILDREN) - before)
        return counted

    def count_reports(fn):
        def counted(*args, **kwargs):
            reports = fn(*args, **kwargs)
            tracer.count("bounds.reports", len(reports))
            tracer.count("bounds.failed", sum(not r.passed for r in reports))
            return reports
        return counted

    extra = {"bounds.standard_sweep": count_reports,
             **{f"brw.{name}": count_replicates for name in
                ("simulate_hit", "simulate_intersection", "plain_intersection")}}
    install(tracer, mixbound, extra)


def environment() -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}: "
                    f"{' '.join(str(blas.get('openblas configuration', '')).split())}",
            "threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k == "MIXBOUND_THREADS" or k.endswith("_NUM_THREADS")}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--mode", choices=["setup", "run", "traced"], required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the runner just before the spawn")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--spans", help="where a traced run writes its raw spans")
    args = ap.parse_args(argv)

    import mixbound
    import mixbound.cli
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    make_inputs(args.workload, args.seed, args.size)
    setup_s = time.monotonic() - args.spawned_at
    result = {"setup_s": setup_s}
    if args.mode == "setup":
        Path(args.result).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = None
    if args.mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        _install_tracer(mixbound, tracer)
    capture = SandwichCapture(mixbound.brw.CENSOR_LIMIT)
    for name in ("hit_time_sandwich", "intersection_sandwich"):
        setattr(mixbound.cli, name, capture.wrap(getattr(mixbound.cli, name)))

    observed = []
    cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    for kind, cmd in commands(args.workload, args.seed, args.size):
        n_sandwich = len(capture.results)
        obs = {"kind": kind, "argv": cmd, "exit": None, "error": None}
        try:
            obs["exit"] = mixbound.cli.main(list(cmd))
        except SystemExit as exc:
            obs["exit"] = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a raising command fails its operations; keep going
            obs["error"] = traceback.format_exc(limit=3)
        obs["sandwich"] = capture.results[n_sandwich:]
        observed.append(obs)
    wall_s = time.perf_counter() - t0
    cpu_s = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    csv_bytes = 0
    for obs in observed:
        out = obs["argv"][obs["argv"].index("--out") + 1]
        if os.path.exists(out):
            csv_bytes += os.path.getsize(out)
            obs["rows"] = read_csv(out)
        else:
            obs["rows"] = []
    result.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_kib / 1024.0,
                  commands=observed, environment=environment())
    if tracer is not None:
        from metrics import layer_metrics
        tracer.count("cli.csv_bytes", csv_bytes)
        result["layers"] = layer_metrics(tracer.summary(), tracer.counters)
        if args.spans:
            tracer.save(args.spans)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
