"""Exact spectral, hitting and mixing diagnostics for finite irreducible
reversible Markov chains, inequality verification against closed-form
bounds, and critical branching random walk experiments."""

__version__ = "0.1.0"

from .analysis import ChainAnalysis
from .bounds import (BoundReport, OptProblem, budget_rate_optimum,
                     hitting_bound_reports, moment_bound_reports,
                     moment_window_reports, ratio_cotrend_table,
                     relaxation_hitting_report, root_moment_reports,
                     standard_sweep, truncation_factor_reports)
from .brw import (BRWConfig, BRWEstimate, experiment, growth_curve,
                  hit_time_sandwich, intersection_sandwich, plain_intersection,
                  simulate_hit, simulate_intersection)
from .brw_reference import simulate_hit_reference, simulate_intersection_reference
from .chains import (ChainFamilySpec, TransitionKernel, build_family,
                     complete_spec, custom_spec, cycle_spec, dlp_spec,
                     export_kernel_csv, hypercube_spec, kernel_from_matrix,
                     load_kernel, parse_chain_spec, random_reversible_kernel,
                     stationary, torus_spec, validate)
from .errors import (AllCensored, BadEps, BadRange, CertificateMismatch,
                     InvalidSpec, NotIrreducible, NotReversible,
                     NumericalFailure, SingularSystem)
from .hitting import (HittingSummary, eigentime_residual, hit_times,
                      hitting_tail_profile, random_target_spread)
from .mixing import MixingProfile, hierarchy_check
from .spectral import (SpectralDecomposition, decompose, gamma_window_mass,
                       heat_diag_ratio, heat_kernel_row, heat_moment_all,
                       heat_moment_windowed_all, lower_gamma_regularized,
                       spectral_moment)
