"""Regenerate the frozen Monte Carlo bands used by the sandwich checks.

Protocol: run every sandwich fixture at 10x the acceptance replicate count
(20000 per size, master_seed=7), record the observed min/max of each ratio
across sizes, widen by 50 percent on each side (divide the low edge by 1.5,
multiply the high edge by 1.5), and round outward.  The resulting constants
are committed into mixbound/brw.py (HIT_BANDS, INTERSECT_BANDS) and into
tests/test_acceptance.py for the scalar fixtures; tests never refit them.

This script is a regeneration tool, not part of the test suite.  Expect a
few minutes of runtime.
"""

import math
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# mixbound before numpy, so its OPENBLAS_THREAD_TIMEOUT default takes effect
from mixbound import brw, chains
from mixbound.analysis import ChainAnalysis
import numpy as np

REPLICATES = 20000
SEED = 7
THREADS = max(1, (os.cpu_count() or 1))


def cfg():
    return brw.BRWConfig(replicates=REPLICATES, master_seed=SEED, threads=THREADS)


def widen(lo, hi):
    return lo / 1.5, hi * 1.5


SANDWICHES = {"hit": (brw.hit_time_sandwich, "HIT_BANDS"),
              "intersect": (brw.intersection_sandwich, "INTERSECT_BANDS")}


def calibrate_sandwich(target, family_name, specs):
    """Run a sandwich with an open band and widen its observed ratio range:
    the low edge from ratio, the high edge from upper_ratio."""
    sandwich, bands_name = SANDWICHES[target]
    rows = sandwich(specs, cfg(), band=(0.0, math.inf)).rows
    for r in rows:
        print(f"  {r.label}: est={r.estimate:.4f}+-{r.stderr:.4f} "
              f"ref={r.reference:.4f} lower={r.ratio:.4f} "
              f"upper={r.upper_ratio:.4f} censor={r.censor_rate:.4%}")
    lo, hi = widen(min(r.ratio for r in rows), max(r.upper_ratio for r in rows))
    print(f"  -> {bands_name}[{family_name!r}] = ({lo:.4f}, {hi:.4f})")
    return lo, hi


def calibrate_scalar_hit(spec):
    analysis = ChainAnalysis.from_spec(spec)
    decomp, summary = analysis.decomp, analysis.hitting
    ref = decomp.t_rel * math.log1p(summary.t_hit / decomp.t_rel)
    est = brw.simulate_hit(analysis.kernel, int(np.argmax(summary.t_pi_to)),
                           brw.fill_config(analysis.decomp, cfg()))
    lo, hi = widen(est.mean / ref, est.mean / ref)
    print(f"  {analysis.kernel.label} hit vs t_rel*log(1+t_hit/t_rel): "
          f"ratio={est.mean / ref:.4f} -> band ({lo:.4f}, {hi:.4f})")
    return lo, hi


def calibrate_plain(family_name, specs):
    ratios = []
    for spec in specs:
        analysis = ChainAnalysis.from_spec(spec)
        est, root_q = brw.experiment(analysis, "plain", cfg())
        ratios.append(est.mean / root_q)
        print(f"  {analysis.kernel.label}: plain={est.mean:.4f}+-{est.stderr:.4f} "
              f"sqrtQ={root_q:.4f} ratio={ratios[-1]:.4f} "
              f"censor={est.censor_rate:.4%}")
    lo, hi = widen(min(ratios), max(ratios))
    print(f"  -> plain band {family_name!r} = ({lo:.4f}, {hi:.4f})")
    return lo, hi


def main():
    print(f"calibration: {REPLICATES} replicates, master_seed={SEED}, "
          f"threads={THREADS}")
    print("hit sandwiches:")
    calibrate_sandwich("hit", "torus", [chains.torus_spec(2, m) for m in (4, 8, 12)])
    calibrate_sandwich("hit", "cycle", [chains.cycle_spec(n) for n in (16, 32, 64)])
    calibrate_sandwich("hit", "complete", [chains.complete_spec(n) for n in (8, 16, 32)])
    calibrate_sandwich("hit", "hypercube", [chains.hypercube_spec(d) for d in (4, 6, 8)])
    print("intersection sandwiches:")
    calibrate_sandwich("intersect", "torus",
                       [chains.torus_spec(2, m) for m in (4, 8, 12)])
    calibrate_sandwich("intersect", "hypercube",
                       [chains.hypercube_spec(d) for d in (4, 6, 8)])
    calibrate_sandwich("intersect", "complete",
                       [chains.complete_spec(n) for n in (8, 16, 32)])
    print("scalar fixtures:")
    calibrate_scalar_hit(chains.cycle_spec(64))
    calibrate_plain("complete", [chains.complete_spec(n) for n in (8, 16, 32)])
    calibrate_plain("torus", [chains.torus_spec(2, m) for m in (4, 8, 16)])


if __name__ == "__main__":
    main()
