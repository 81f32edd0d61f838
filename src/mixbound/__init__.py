"""Exact spectral, hitting and mixing diagnostics for finite irreducible
reversible Markov chains, inequality verification against closed-form
bounds, and critical branching random walk experiments.

The exact layer needs numpy alone: no module imports scipy when it is
imported, and only the branching targets of `brw.experiment` load it,
for the gamma and hit target whose bits the benchmark gate pins.

Importing the package sets ``OPENBLAS_THREAD_TIMEOUT`` to
``OPENBLAS_THREAD_TIMEOUT_DEFAULT`` unless the variable is already set;
an explicit value wins.  numpy loads its own OpenBLAS copy, and scipy,
where `brw` loads it, another; after every BLAS call each copy's idle
worker threads spin for about 2^28 cycles (OpenBLAS's default) before
they sleep, so on a small host the Python thread shares its cores with
spinning workers.  The shorter timeout lets them sleep at once.  It
changes neither the thread count nor how BLAS splits its work, so no
result depends on it bit for bit.  OpenBLAS reads the variable once,
when it loads: the default has no effect in a process that imported
numpy (or scipy) before mixbound.
"""

import os

# log2 of the cycles an idle OpenBLAS worker spins before it sleeps;
# OpenBLAS clamps it to 4..30 and defaults to 28.  On a 2-core host the
# drifted verify (dlp 100 and 200) took 0.36-0.60 s wall and 0.72-1.20 s
# CPU at 28, and 0.19-0.31 s wall and 0.25-0.38 s CPU at 4, 8, 16 and 20
# alike.  4, the clamp floor, sleeps at once.
OPENBLAS_THREAD_TIMEOUT_DEFAULT = "4"
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", OPENBLAS_THREAD_TIMEOUT_DEFAULT)

__version__ = "0.1.0"

from .analysis import ChainAnalysis  # noqa: E402
from .bounds import (BoundReport, OptProblem, budget_rate_optimum,  # noqa: E402
                     hitting_bound_reports, moment_bound_reports,
                     moment_window_reports, ratio_cotrend_table,
                     relaxation_hitting_report, root_moment_reports,
                     standard_sweep, truncation_factor_reports)
from .brw import (BRWConfig, BRWEstimate, experiment, growth_curve,  # noqa: E402
                  hit_time_sandwich, intersection_sandwich, plain_intersection,
                  simulate_hit, simulate_intersection)
from .brw_reference import (simulate_hit_reference,  # noqa: E402
                            simulate_intersection_reference)
from .chains import (ChainFamilySpec, TransitionKernel, build_family,  # noqa: E402
                     complete_spec, custom_spec, cycle_spec, dlp_spec,
                     export_kernel_csv, hypercube_spec, kernel_from_matrix,
                     load_kernel, parse_chain_spec, random_reversible_kernel,
                     stationary, torus_spec, validate)
from .errors import (AllCensored, BadEps, BadRange, CertificateMismatch,  # noqa: E402
                     InvalidSpec, NotIrreducible, NotReversible,
                     NumericalFailure, SingularSystem)
from .hitting import (HittingSummary, eigentime_residual, hit_times,  # noqa: E402
                      hitting_tail_profile, random_target_spread)
from .mixing import MixingProfile, hierarchy_check  # noqa: E402
from .spectral import (SpectralDecomposition, decompose,  # noqa: E402
                       gamma_window_mass, heat_diag_ratio, heat_kernel_row,
                       lower_gamma_regularized, moment_vector, spectral_moment)
