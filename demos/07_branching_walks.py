"""Critical branching random walks: hitting and intersection experiments.

Each particle walks at rate 1 and splits at the spectral gap, so the
population grows by a constant factor per relaxation time.  The expected
time for the cloud to hit a state tracks t_rel log(1 + t_pi/t_rel), and
for two independent clouds to intersect tracks t_rel log(1 + sqrt(Q)/t_rel)
with Q the order-2 spectral moment; the sandwich tables check both against
frozen calibration bands.  Replicate counts here are kept small; the
acceptance suite runs the full protocol.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mixbound import brw, brw_reference, chains, spectral
from mixbound.analysis import ChainAnalysis

cfg = brw.BRWConfig(replicates=1000, master_seed=7)

print("== population growth at the critical rate ==")
kernel = chains.build_family(chains.complete_spec(4))
mean, stderr = brw.growth_curve(kernel, cfg, [0.5, 1.0, 2.0])
for t, m, se in zip((0.5, 1.0, 2.0), mean, stderr):
    print(f"  t={t}: particles {m:7.3f} +- {se:.3f}  vs e^(gamma t) = "
          f"{math.exp(4 / 3 * t):7.3f}")

print("\n== hitting a state: cloud vs single walker ==")
analysis = ChainAnalysis.from_spec(chains.cycle_spec(32))
kernel, decomp, summary = analysis.kernel, analysis.decomp, analysis.hitting
cycle_cfg = brw.fill_config(analysis.decomp, cfg)
est = brw.simulate_hit(kernel, 0, cycle_cfg)
j_ref = decomp.t_rel * math.log1p(summary.t_pi_to[0] / decomp.t_rel)
print(f"  cycle(32): cloud {est.mean:8.3f} +- {est.stderr:.3f}   "
      f"single walker {summary.t_pi_to[0]:8.3f}   reference {j_ref:8.3f}")
print("  the cloud is exponentially faster once it has spread.")

print("\n== two engines, one law ==")
ref = brw_reference.simulate_hit_reference(kernel, 0, cycle_cfg)
gap = abs(est.mean - ref.mean) / math.hypot(est.stderr, ref.stderr)
print(f"  event-queue engine {est.mean:.3f} vs global-clock engine "
      f"{ref.mean:.3f}  ({gap:.2f} pooled sd apart)")

print("\n== sandwich tables against frozen bands ==")
result = brw.hit_time_sandwich([chains.complete_spec(n) for n in (8, 16, 32)],
                               cfg)
print(f"  hit/{result.family}: band=({result.c_lo}, {result.c_hi}) "
      f"slope={result.slope:+.3f} passed={result.passed}")
for row in result.rows:
    print(f"    n={row.n:3d}: est={row.estimate:7.3f} ref={row.reference:7.3f} "
          f"ratio={row.ratio:.3f} censor={row.censor_rate:.1%}")

result = brw.intersection_sandwich(
    [chains.hypercube_spec(d) for d in (4, 6, 8)], cfg)
print(f"  intersect/{result.family}: band=({result.c_lo}, {result.c_hi}) "
      f"slope={result.slope:+.3f} passed={result.passed}")
for row in result.rows:
    print(f"    n={row.n:3d}: est={row.estimate:7.3f} ref={row.reference:7.3f} "
          f"ratio={row.ratio:.3f}")

print("\n== plain walks intersect on the sqrt(Q) scale ==")
for n in (8, 16, 32):
    analysis = ChainAnalysis.from_spec(chains.complete_spec(n))
    est = brw.plain_intersection(analysis.kernel,
                                 brw.fill_config(analysis.decomp, cfg))
    root_q = math.sqrt(spectral.spectral_moment(analysis.decomp, 2))
    print(f"  complete({n:2d}): plain {est.mean:6.3f}  sqrt(Q) {root_q:6.3f}  "
          f"ratio {est.mean / root_q:.3f}")
