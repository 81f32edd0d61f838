"""Closed-form mixing-time bounds checked against exact values.

Each checker returns BoundReports pairing an exactly computed left side
with a closed-form right side.  The central device is a relaxed spectral
optimization: among nonnegative spectral weights a_i at rates
beta_i in [lambda_2, lambda_n] u {inf} with a fixed inverse-power budget
sum a_i / beta_i^ell, the functional sum a_i exp(-2 beta_i t) is maximized
by concentrating the whole budget on a single rate.  For t >= ell / (2
lambda_2) the map beta -> beta^ell exp(-2 beta t) is nonincreasing, so the
optimum sits at lambda_2 and the bounds below follow by solving for t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .analysis import ChainAnalysis
from .chains import ChainFamilySpec, _check_states
from .errors import BadEps, BadRange, CertificateMismatch
from .mixing import _MAX, _TINY, hierarchy_check
from .reports import BoundReport
from .spectral import (gamma_window_mass, heat_moment_all, heat_moment_windowed_all,
                       lower_gamma_regularized, moment_vector, spectral_moment)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_TRUNCATION_M = (1.0, 2.0, 5.0)


# ---------------------------------------------------------------------------
# mixing-time upper bounds from hitting moments

def _rhs_moment(t_rel, moment, ell, eps):
    """Order-ell moment bound on the uniform time at threshold eps, for a
    moment or an array of them.  The L2 bounds are half of it at eps^2, as
    t_l2(eps) = t_linf(eps^2) / 2.  The scale eps t_rel^ell is refused
    unless it is a normal double."""
    scale = eps * t_rel**ell
    if not _TINY <= scale <= _MAX:
        raise BadEps(f"threshold {eps:.3e} times t_rel^{ell} is {scale:.3e}, "
                     "which is not a normal double")
    # a ratio of at most 1 has log <= 0 < ell, and one that is 0 has log -inf
    with np.errstate(divide="ignore"):
        return t_rel * np.maximum(np.log(moment / scale), float(ell))


def _worst_report(name: str, states, lhs, rhs, **ctx) -> BoundReport:
    """Report of lhs <= rhs at the first of states with the smallest slack
    rhs - lhs; lhs and rhs hold one value per state."""
    lhs, rhs = np.asarray(lhs, dtype=float), np.asarray(rhs, dtype=float)
    i = int(np.argmin(rhs - lhs))
    return BoundReport.check(name, float(lhs[i]), float(rhs[i]), x=states[i], **ctx)


def moment_bound_reports(analysis: ChainAnalysis, ell: int,
                         eps: float = 0.5) -> list[BoundReport]:
    """Order-ell upper bounds on the three mixing times.

    The uniform and average bounds use the spectral moment budget; the
    per-state L2 bound uses the local moment and reports its worst state.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    kernel, decomp, prof = analysis.kernel, analysis.decomp, analysis.profile
    t_rel = decomp.t_rel
    ctx = {"kernel": kernel.label, "eps": eps, "ell": ell}

    sigma = heat_moment_all(decomp, ell)
    q_ell = spectral_moment(decomp, ell)

    linf = BoundReport.check("linf_moment_bound",
                             prof.mixing_time("linf", eps),
                             float(_rhs_moment(t_rel, float(sigma.max()), ell, eps)),
                             **ctx)
    ave = BoundReport.check("avel2_moment_bound",
                            prof.mixing_time("ave_l2", eps),
                            0.5 * float(_rhs_moment(t_rel, q_ell, ell, eps * eps)),
                            **ctx)
    states = kernel.scan_states
    worst = _worst_report("l2x_moment_bound", states, prof.l2_mixing_times(eps),
                          0.5 * _rhs_moment(t_rel, sigma[states], ell, eps * eps),
                          **ctx)
    return [linf, worst, ave]


def hitting_bound_reports(analysis: ChainAnalysis,
                          eps: float = 0.5) -> list[BoundReport]:
    """Order-one bounds phrased through hitting times.

    Numerically these are the ell = 1 moment bounds: the local moment of
    order one is the expected hitting time from stationarity and the
    spectral moment of order one is the random target time.  The average
    bound is reported in its log(4 t_target / t_rel) form, which the
    max-with-ell clause subsumes because t_target >= t_rel.
    """
    linf, l2x, _ = moment_bound_reports(analysis, ell=1, eps=eps)
    t_rel = analysis.decomp.t_rel
    t_target = spectral_moment(analysis.decomp, 1)
    ave = BoundReport.check("avel2_hitting_bound",
                            analysis.profile.mixing_time("ave_l2", 0.5),
                            0.5 * t_rel * math.log(4.0 * t_target / t_rel),
                            kernel=analysis.kernel.label, eps=0.5)
    return [replace(linf, name="linf_hitting_bound"),
            replace(l2x, name="l2x_hitting_bound"), ave]


def root_moment_reports(analysis: ChainAnalysis, ell: int) -> list[BoundReport]:
    """Root-of-moment bounds: t_l2,x <= 2 ell sigma_{x,ell}^{1/ell} (worst x)
    and the averaged version with the spectral moment."""
    if ell < 1:
        raise ValueError("ell must be >= 1")
    decomp, prof = analysis.decomp, analysis.profile
    ctx = {"kernel": analysis.kernel.label, "ell": ell}
    sigma = heat_moment_all(decomp, ell)
    states = analysis.kernel.scan_states
    worst = _worst_report("l2x_root_moment", states, prof.l2_mixing_times(0.5),
                          2.0 * ell * sigma[states] ** (1.0 / ell), **ctx)
    ave = BoundReport.check("avel2_root_moment",
                            prof.mixing_time("ave_l2", 0.5),
                            2.0 * ell * spectral_moment(decomp, ell) ** (1.0 / ell),
                            **ctx)
    return [worst, ave]


def moment_window_reports(analysis: ChainAnalysis, ell: int) -> list[BoundReport]:
    """Window sandwich for the truncated moments:
    gamma_mass * sigma <= rho <= sigma, reported at the worst state each."""
    decomp = analysis.decomp
    ctx = {"kernel": analysis.kernel.label, "ell": ell}
    sigma = heat_moment_all(decomp, ell)
    rho = heat_moment_windowed_all(decomp, ell)
    kappa = gamma_window_mass(ell)
    states = range(analysis.kernel.n)
    return [_worst_report("windowed_le_full_moment", states, rho, sigma, **ctx),
            _worst_report("gamma_mass_times_full_le_windowed", states,
                          kappa * sigma, rho, **ctx)]


def relaxation_hitting_report(analysis: ChainAnalysis) -> BoundReport:
    """t_hit <= (2e/(e-1)) t_rel (1 - pi_min)/pi_min."""
    pi_min = float(analysis.kernel.pi.min())
    rhs = (2.0 * math.e / (math.e - 1.0)) * analysis.decomp.t_rel \
        * (1.0 - pi_min) / pi_min
    return BoundReport.check("thit_le_rel_over_pimin", analysis.hitting.t_hit,
                             rhs, kernel=analysis.kernel.label)


def _head_window_reports(analysis: ChainAnalysis, states, M: float) -> list:
    """Worst-state report of each head-window order over states: pi(x)
    times the full moment of order k+1 against the sharp factor times
    pi(x) times that moment truncated at M * t_rel, both `moment_vector`s.
    M that is not positive (NaN included) is refused (ValueError)."""
    if not M > 0:
        raise ValueError("M must be positive")
    decomp = analysis.decomp
    pi = decomp.pi[states]
    reports = []
    for k in range(2):
        factor = 1.0 / lower_gamma_regularized(k + 1, M)
        full = pi * moment_vector(decomp, k + 1)[states]
        trunc = factor * (pi * moment_vector(decomp, k + 1, M * decomp.t_rel)[states])
        reports.append(_worst_report(f"head_window_order{k}", states, full, trunc,
                                     kernel=analysis.kernel.label, M=M))
    return reports


def truncation_factor_reports(analysis: ChainAnalysis, x: int,
                              M: float) -> list[BoundReport]:
    """Head-window comparisons for the centered heat diagonal at state x.

    The full integrals (order 0 and order 1 in s) are bounded by explicit
    factors times their truncations to [0, M * t_rel]; both sides are
    evaluated in spectral closed form.  For order k the sharp factor is
    1 / P(Gamma(k+1,1) <= M): every spectral mode has rate >= 1/t_rel, so
    per mode the truncated integral retains at least that gamma mass, with
    equality when the whole spectrum sits at the gap.  At order 0 this is
    the familiar e^M / (e^M - 1).
    """
    xs = _check_states("truncation_factor_reports", "x", (x,), analysis.kernel.n)
    return _head_window_reports(analysis, xs, M)


def truncation_factor_worst(analysis: ChainAnalysis, M: float) -> list[BoundReport]:
    """Worst-state variant of the head-window comparisons."""
    return _head_window_reports(analysis, analysis.kernel.scan_states, M)


# ---------------------------------------------------------------------------
# the spectral optimization certificate

@dataclass(frozen=True)
class OptProblem:
    """Relaxed budgeted problem: maximize budget-weighted exp(-2 beta t)."""

    t: float
    ell: int
    budget: float
    lam2: float
    lam_n: float

    def __post_init__(self):
        if self.t <= 0 or self.budget <= 0 or self.lam2 <= 0 or self.ell < 1:
            raise BadRange("need t > 0, budget > 0, lam2 > 0, ell >= 1")
        if self.lam2 > self.lam_n:
            raise BadRange(f"empty rate interval [{self.lam2}, {self.lam_n}]")


@dataclass(frozen=True)
class OptCertificate:
    numeric_max: float
    claimed: float
    argmax_beta: float
    extremal_regime: bool


def budget_rate_optimum(prob: OptProblem) -> OptCertificate:
    """Maximize budget * beta^ell * exp(-2 beta t) over the rate interval.

    Because the relaxed objective is linear in the weights, the optimum
    concentrates on a single rate, so a scalar search suffices.  Golden
    section handles the single interior critical point at ell / (2t);
    both endpoints are always evaluated as well.  In the extremal regime
    t >= ell / (2 lam2) the maximum must sit at lam2 with value
    budget * lam2^ell * exp(-2 lam2 t); any disagreement beyond 1e-10
    relative raises CertificateMismatch.
    """
    t, ell, lam2, lam_n = prob.t, prob.ell, prob.lam2, prob.lam_n

    def h(beta):
        return beta**ell * math.exp(-2.0 * beta * t)

    a, b = lam2, lam_n
    while b - a > 1e-13 * max(1.0, lam_n):
        c = b - _INV_PHI * (b - a)
        d = a + _INV_PHI * (b - a)
        if h(c) >= h(d):
            b = d
        else:
            a = c
    candidates = [lam2, lam_n, 0.5 * (a + b)]
    argmax_beta = max(candidates, key=h)
    numeric_max = prob.budget * h(argmax_beta)
    claimed = prob.budget * h(lam2)
    extremal = t >= ell / (2.0 * lam2)

    if extremal:
        # The map is nonincreasing here, so lam2 is a maximizer; at the
        # boundary t = ell/(2 lam2) it is flat there and the numeric argmax
        # is only determined to sqrt(eps), so the certificate binds the
        # value, not the abscissa.
        rel = abs(numeric_max - claimed) / claimed
        if rel > 1e-10:
            raise CertificateMismatch(
                f"extremal regime optimum {numeric_max!r} at beta={argmax_beta!r} "
                f"differs from claimed {claimed!r}")
        argmax_beta = lam2
        numeric_max = claimed
    return OptCertificate(numeric_max=numeric_max, claimed=claimed,
                          argmax_beta=argmax_beta, extremal_regime=extremal)


# ---------------------------------------------------------------------------
# ratio co-trend diagnostic across a family sequence

@dataclass(frozen=True)
class CotrendRow:
    label: str
    n: int
    t_rel: float
    t_hit: float
    t_mix_linf: float

    @property
    def linf_over_hit(self) -> float:
        return self.t_mix_linf / self.t_hit

    @property
    def rel_over_hit(self) -> float:
        return self.t_rel / self.t_hit


@dataclass(frozen=True)
class CotrendTable:
    """Finite-size proxy for the asymptotic equivalence of two ratios.

    The honest statement is about sequences; at finite sizes this table
    only checks that t_mix_linf / t_hit and t_rel / t_hit halve together
    or stall together between the smallest and largest size.  Treat it as
    a diagnostic, not a limit statement.
    """

    rows: tuple

    @property
    def co_trend(self) -> bool:
        first, last = self.rows[0], self.rows[-1]
        linf_shrinks = last.linf_over_hit < 0.5 * first.linf_over_hit
        rel_shrinks = last.rel_over_hit < 0.5 * first.rel_over_hit
        return linf_shrinks == rel_shrinks


def ratio_cotrend_table(specs: list[ChainFamilySpec]) -> CotrendTable:
    if len(specs) < 3:
        raise ValueError("need at least 3 family sizes")
    rows = []
    for spec in specs:
        analysis = ChainAnalysis.from_spec(spec)
        rows.append(CotrendRow(
            label=analysis.kernel.label,
            n=analysis.kernel.n,
            t_rel=analysis.decomp.t_rel,
            t_hit=analysis.hitting.t_hit,
            t_mix_linf=analysis.profile.mixing_time("linf", 0.5),
        ))
    return CotrendTable(rows=tuple(rows))


# ---------------------------------------------------------------------------
# full sweep

def standard_sweep(analysis: ChainAnalysis,
                   eps_list=(0.25, 0.5, 1.0),
                   ell_list=(1, 2, 3, 4)) -> list[BoundReport]:
    """Every inequality report for one kernel."""
    reports: list[BoundReport] = []
    for eps in eps_list:
        reports += hitting_bound_reports(analysis, eps)
        for ell in ell_list:
            reports += moment_bound_reports(analysis, ell, eps)
        if 0.0 < eps < 1.0:
            reports += hierarchy_check(analysis.profile, eps,
                                       analysis.hitting.t_hit)
    for ell in ell_list:
        reports += moment_window_reports(analysis, ell)
        reports += root_moment_reports(analysis, ell)
    for M in _TRUNCATION_M:
        reports += truncation_factor_worst(analysis, M)
    reports.append(relaxation_hitting_report(analysis))
    return reports
