"""The spectral-budget optimization behind the mixing bounds.

Among nonnegative spectral weights at rates in [gap, lambda_max] with a
fixed inverse-power budget, the decay functional is maximized by piling
the whole budget onto one rate; past t = ell/(2 gap) that rate is the gap
itself.  The certificate checks the golden-section optimum against the
closed form, and the drifted birth-death family shows the extremal
spectrum being approached by an actual chain.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# mixbound before numpy, so its OPENBLAS_THREAD_TIMEOUT default takes effect
from mixbound import bounds, chains, spectral
import numpy as np

print("== certificate on a grid of regimes ==")
for t, ell in ((1.0, 1), (0.5, 2), (2.0, 3)):
    prob = bounds.OptProblem(t=t, ell=ell, budget=1.0, lam2=1.0, lam_n=2.0)
    cert = bounds.budget_rate_optimum(prob)
    regime = "extremal (gap wins)" if cert.extremal_regime else "interior"
    print(f"  t={t} ell={ell}: max={cert.numeric_max:.6f} at "
          f"beta={cert.argmax_beta:.6f} [{regime}]")

print("\n== the relaxation dominates the exact chain functional ==")
kernel = chains.build_family(chains.torus_spec(2, 6))
decomp = spectral.decompose(kernel)
lam = decomp.lambdas[1:]
for ell in (1, 2):
    q = spectral.spectral_moment(decomp, ell)
    t = 1.0 / decomp.gap
    cert = bounds.budget_rate_optimum(bounds.OptProblem(
        t=t, ell=ell, budget=q, lam2=float(lam[0]), lam_n=float(lam[-1])))
    exact = float(np.exp(-2 * lam * t).sum())
    print(f"  order {ell}: relaxed max {cert.numeric_max:.6f} >= "
          f"exact value {exact:.6f}")

print("\n== a chain that realizes the extremal spectrum ==")
print("drifted birth-death, eigenvalues collapsing onto the rate 0.5:")
for eps in (0.1, 0.001):
    d = spectral.decompose(chains.build_family(chains.dlp_spec(32, 0.5, eps)))
    lam = d.lambdas[1:]
    print(f"  eps={eps:g}: eigenvalue range [{lam.min():.4f}, {lam.max():.4f}],"
          f" {spectral.eigenvalue_clustering(d, 0.5, 0.05):.0%} within 5%")
print("as the drift vanishes every weight sits at one rate, which is the")
print("configuration the optimization problem says is worst possible.")
