"""Exact hitting times, the classical identities, and exact tails.

Every quantity here is solved exactly (GTH elimination or symmetric
fundamental matrix), so the identities hold to near machine precision.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# mixbound before numpy, so its OPENBLAS_THREAD_TIMEOUT default takes effect
from mixbound import chains, hitting, spectral
import numpy as np

kernel = chains.build_family(chains.cycle_spec(8))
summary = hitting.hit_times(kernel)
decomp = spectral.decompose(kernel)

print("cycle(8) expected hitting times from state 0 (distance d -> d(n-d)):")
print(" ", np.round(summary.hit_matrix[0], 6))
print("t_hit =", summary.t_hit, " random target time =", round(summary.t_target, 6))

print("\nrandom target identity: pi-weighted row sums are constant in x:")
row = summary.hit_matrix @ kernel.pi
print("  spread over x:", float(np.abs(row - summary.t_target).max()))

print("\neigentime identity: target time equals the order-1 spectral moment:")
print("  |t_target - sum 1/lambda_i| =",
      hitting.eigentime_residual(summary, decomp))

print("\ndual computation of the stationary-start hitting times:")
sigma1 = spectral.heat_moment_all(decomp, 1)
print("  linear-solve vs spectral, max relative gap:",
      float(np.abs(summary.t_pi_to - sigma1).max() / (1 + sigma1.max())))

print("\nexact tails: P_pi[T_y > t] as a mixture of exponentials")
prof = hitting.hitting_tail_profile(kernel, 0)
print("  at t=0 the tail is 1 - pi(y):", prof.survival(0.0), "=", 1 - kernel.pi[0])
print("  tail stays below exp(-t/t_hit):")
for t in (0.0, 8.0, 24.0, 48.0):
    print(f"    t={t:5.1f}: tail={prof.survival(t):.6f} "
          f"bound={math.exp(-t / summary.t_hit):.6f}")
print("  second moment from the same mixture:",
      round(prof.second_moment(), 4), "<= 2 t_hit^2 =", 2 * summary.t_hit**2)

print("\naging: conditional survival improves with age (mixtures of")
print("exponentials have decreasing failure rate):")
for s in (4.0, 16.0):
    lhs = prof.survival(12.0 + s) / prof.survival(s)
    print(f"  P[T > 12+{s} | T >= {s}] = {lhs:.6f} >= P[T > 12] = "
          f"{prof.survival(12.0):.6f}")
