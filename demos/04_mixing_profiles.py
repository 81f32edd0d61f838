"""Distance profiles, mixing times, and the classical hierarchy.

The complete graph makes every profile a single exponential, so the
crossing times match pencil-and-paper values exactly; the hierarchy chain
is then checked on a less symmetric kernel.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from mixbound import chains, mixing, spectral
from mixbound.analysis import ChainAnalysis

kernel = chains.build_family(chains.complete_spec(4))
decomp = spectral.decompose(kernel)
prof = mixing.MixingProfile(kernel, decomp)

print("complete(4) closed-form mixing times:")
print(f"  uniform  (eps=1/2): {prof.mixing_time('linf', 0.5):.10f} "
      f"= (3/4) ln 6 = {0.75 * math.log(6):.10f}")
print(f"  avg L2   (eps=1/2): {prof.mixing_time('ave_l2', 0.5):.10f} "
      f"= (3/8) ln 12 = {0.375 * math.log(12):.10f}")
print(f"  TV       (eps=1/4): {prof.mixing_time('tv', 0.25):.10f}")

print("\nworst-case L1 distance decays like (3/2) e^{-4t/3}:")
for t in (0.0, 1.0, 2.0):
    print(f"  t={t}: {prof.tv_distance(0, t):.6f} "
          f"vs {1.5 * math.exp(-4 * t / 3):.6f}")

print("\nhierarchy chain on torus(2,8), eps=1/2:")
analysis = ChainAnalysis.from_spec(chains.torus_spec(2, 8))
for rep in mixing.hierarchy_check(analysis.profile, 0.5, analysis.hitting.t_hit):
    print(f"  {rep.name:22s} lhs={rep.lhs:10.5f} rhs={rep.rhs:10.5f} "
          f"{'ok' if rep.passed else 'VIOLATED'}")
print("the middle link is an exact identity: the worst L2 time is half the")
print("uniform time at the squared threshold.")
