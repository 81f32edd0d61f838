"""Tour of the built-in chain families and the kernel plumbing.

Builds one instance of each family, shows the certification report, the
stationary solver on a custom matrix, and the chain-spec file round trip.
"""

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

# mixbound before numpy, so its OPENBLAS_THREAD_TIMEOUT default takes effect
from mixbound import chains
import numpy as np

print("== built-in families ==")
for spec in (chains.cycle_spec(8), chains.torus_spec(2, 4),
             chains.complete_spec(6), chains.hypercube_spec(3),
             chains.dlp_spec(6, 0.5, 0.1)):
    kernel = chains.build_family(spec)
    report = chains.validate(kernel)
    print(f"{kernel.label:45s} n={kernel.n:3d} transitive={kernel.transitive} "
          f"validated={report.passed} (max residual {report.max_residual:.1e})")

print("\n== the torus generalizes the cycle, the hypercube is its m=2 case ==")
t1 = chains.build_family(chains.torus_spec(1, 5))
c5 = chains.build_family(chains.cycle_spec(5))
print("torus(d=1,m=5) equals cycle(5):", np.array_equal(t1.P, c5.P))
h3 = chains.build_family(chains.hypercube_spec(3))
t3 = chains.build_family(chains.torus_spec(3, 2))
print("hypercube(3) equals torus(3,2):", np.array_equal(h3.P, t3.P))

print("\n== stationary distribution of a custom matrix ==")
P = np.array([[0.8, 0.2], [0.3, 0.7]])
print("pi of the 2-state (p=0.2, q=0.3) chain:", chains.stationary(P),
      " (closed form: (q, p)/(p+q) = (0.6, 0.4))")

print("\n== birth-death chain with drift: pi is a geometric profile ==")
dlp = chains.build_family(chains.dlp_spec(3, 0.5, 0.1))
print("rows:\n", dlp.P)
print("pi:", dlp.pi, " = (1, 9, 81)/91")

print("\n== chain-spec files ==")
with tempfile.TemporaryDirectory() as tmp:
    spec_path = Path(tmp) / "grid.spec"
    spec_path.write_text("family=torus\nd=2\nm=8\n")
    kernel = chains.load_kernel(spec_path)
    print("loaded:", kernel.label, "n =", kernel.n)
    out = Path(tmp) / "kernel.csv"
    chains.export_kernel_csv(kernel, out)
    rows = out.read_text().count("\n")
    print(f"exported {rows} CSV lines (n matrix rows + 1 pi row)")
