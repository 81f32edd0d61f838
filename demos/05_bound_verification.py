"""The inequality sweep: every bound checked against exact values.

Highlights the two regimes of the hitting-moment bounds: exact tightness
on the complete graph (single-point spectrum) and strict slack elsewhere;
then the size diagnostics that separate grids from cycles.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# mixbound before numpy, so its OPENBLAS_THREAD_TIMEOUT default takes effect
from mixbound import bounds, chains
from mixbound.analysis import ChainAnalysis
from mixbound.reports import failures
import numpy as np

print("== tightness on the complete graph ==")
for n in (4, 8, 16):
    analysis = ChainAnalysis.from_spec(chains.complete_spec(n))
    linf = bounds.hitting_bound_reports(analysis, eps=0.5)[0]
    print(f"complete({n}): uniform-mixing bound slack = {linf.slack:+.2e}"
          " (the single-point spectrum attains the bound)")

print("\n== the same bounds have real slack on the 2d grid ==")
analysis = ChainAnalysis.from_spec(chains.torus_spec(2, 8))
for rep in bounds.hitting_bound_reports(analysis, eps=0.5):
    print(f"  {rep.name:22s} lhs={rep.lhs:9.4f} rhs={rep.rhs:9.4f} "
          f"slack={rep.slack:+.4f}")

print("\n== higher moment orders sharpen the grid bound ==")
for ell in (1, 2, 3, 4):
    _, l2x, _ = bounds.moment_bound_reports(analysis, ell, eps=0.5)
    print(f"  order {ell}: per-state L2 bound rhs = {l2x.rhs:9.4f} "
          f"(lhs = {l2x.lhs:.4f})")
print("order 2d turns the grid bound into O(t_rel); order 1 only gives "
      "O(t_rel log(t_hit/t_rel)).")

print("\n== full sweep on a random reversible kernel ==")
rng = np.random.default_rng(12)
analysis = ChainAnalysis.from_kernel(chains.random_reversible_kernel(12, rng))
reports = bounds.standard_sweep(analysis)
print(f"  {len(reports)} reports, {len(failures(reports))} failures")

print("\n== ratio co-trend across sizes (finite-size proxy) ==")
for label, specs in [
        ("torus(2,m)", [chains.torus_spec(2, m) for m in (4, 8, 16, 24)]),
        ("cycle(n)", [chains.cycle_spec(n) for n in (8, 16, 32, 64)])]:
    table = bounds.ratio_cotrend_table(specs)
    ratios_mix = [round(r.linf_over_hit, 3) for r in table.rows]
    ratios_rel = [round(r.rel_over_hit, 3) for r in table.rows]
    print(f"  {label}: mix/hit {ratios_mix}  rel/hit {ratios_rel}  "
          f"co-trend={table.co_trend}")
print("grids: both ratios shrink together (hitting gains a log factor);")
print("cycles: both stall together, the rare regime where uniform mixing")
print("and hitting share an order.")
