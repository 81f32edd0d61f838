import math

import numpy as np
import pytest

from mixbound import bounds, chains, spectral
from mixbound.analysis import ChainAnalysis
from mixbound.errors import BadRange
from mixbound.reports import BoundReport, failures

from conftest import random_kernels


@pytest.fixture(scope="module")
def complete4():
    return ChainAnalysis.from_spec(chains.complete_spec(4))


@pytest.fixture(scope="module")
def torus28():
    return ChainAnalysis.from_spec(chains.torus_spec(2, 8))


# ---------------------------------------------------------------------------
# order-1 (hitting) bounds

def test_complete4_uniform_bound_is_tight(complete4):
    linf, l2x, ave = bounds.hitting_bound_reports(complete4, eps=0.5)
    assert linf.rhs == pytest.approx(0.75 * math.log(6), rel=1e-12)
    assert abs(linf.slack) <= 1e-9
    assert abs(l2x.slack) <= 1e-9
    assert abs(ave.slack) <= 1e-9


def test_torus_bounds_pass_with_positive_slack(torus28):
    for rep in bounds.hitting_bound_reports(torus28, eps=0.5):
        assert rep.passed
        assert rep.slack > 0.01


def test_uniform_bound_rhs_scaling_on_torus():
    # the bound grows like m^2 loglog m on the 2d grid: ratio stable
    ratios = []
    for m in (4, 8, 16, 24):
        analysis = ChainAnalysis.from_spec(chains.torus_spec(2, m))
        linf = bounds.hitting_bound_reports(analysis, eps=0.5)[0]
        ratios.append(linf.rhs / (m**2 * math.log(math.log(m + 3))))
    assert max(ratios) / min(ratios) < 3.0


# ---------------------------------------------------------------------------
# order-ell bounds

def test_complete4_order2_average_bound_tight(complete4):
    _, _, ave = bounds.moment_bound_reports(complete4, ell=2, eps=0.5)
    assert ave.rhs == pytest.approx(0.375 * math.log(12), rel=1e-12)
    assert abs(ave.slack) <= 1e-9


def test_order1_rhs_coincides_with_hitting_form(complete4, torus28):
    for analysis in (complete4, torus28):
        for eps in (0.25, 0.5, 1.0):
            m_linf, m_l2x, m_ave = bounds.moment_bound_reports(analysis, 1, eps)
            h_linf, h_l2x, h_ave = bounds.hitting_bound_reports(analysis, eps)
            assert abs(m_linf.rhs - h_linf.rhs) <= 1e-12 * (1 + abs(m_linf.rhs))
            assert abs(m_l2x.rhs - h_l2x.rhs) <= 1e-12 * (1 + abs(m_l2x.rhs))
            if eps == 0.5:
                assert abs(m_ave.rhs - h_ave.rhs) <= 1e-12 * (1 + abs(m_ave.rhs))


def test_torus_order4_bound_within_constant_of_relaxation():
    # order 2d on the d-dimensional grid keeps the bound at O(t_rel)
    for m in (4, 8, 16):
        analysis = ChainAnalysis.from_spec(chains.torus_spec(2, m))
        _, l2x, _ = bounds.moment_bound_reports(analysis, ell=4, eps=0.5)
        assert l2x.rhs / analysis.decomp.t_rel <= 10.0
        assert l2x.passed


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_torus_all_orders_pass(torus28, ell):
    for rep in bounds.moment_bound_reports(torus28, ell, eps=0.5):
        assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# root-of-moment bounds

def test_root_moment_complete4(complete4):
    worst, ave = bounds.root_moment_reports(complete4, ell=1)
    assert ave.rhs == pytest.approx(2 * 2.25, rel=1e-12)
    assert worst.passed and ave.passed
    worst2, ave2 = bounds.root_moment_reports(complete4, ell=2)
    assert ave2.rhs == pytest.approx(4 * math.sqrt(1.6875), rel=1e-12)
    assert worst2.passed and ave2.passed


@pytest.mark.parametrize("ell", [1, 2, 3])
def test_root_moment_torus(torus28, ell):
    for rep in bounds.root_moment_reports(torus28, ell):
        assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# head-window factors

def test_window_factor_order0_exact_on_complete4(complete4):
    # single spectral point: full/truncated equals the sharp factor exactly
    rep0, rep1 = bounds.truncation_factor_reports(complete4, x=0, M=1.0)
    assert rep0.passed and rep1.passed
    assert rep0.rhs == pytest.approx(rep0.lhs, rel=1e-12)
    assert rep1.rhs == pytest.approx(rep1.lhs, rel=1e-12)
    # the order-0 truncated integral carries factor e/(e-1)
    factor0 = math.e / (math.e - 1.0)
    assert rep0.rhs / (rep0.lhs / factor0) == pytest.approx(factor0, rel=1e-12)


def test_window_factor_large_M_near_identity(torus28):
    rep0, rep1 = bounds.truncation_factor_reports(torus28, x=0, M=20.0)
    assert rep0.rhs / rep0.lhs == pytest.approx(1.0, abs=1e-6)
    assert rep1.rhs / rep1.lhs == pytest.approx(1.0, abs=1e-6)


def test_window_factor_worst_state_passes_on_cycle():
    analysis = ChainAnalysis.from_spec(chains.cycle_spec(8))
    for M in (1.0, 2.0, 5.0):
        for rep in bounds.truncation_factor_worst(analysis, M):
            assert rep.passed, str(rep)


def _head_window_reference(analysis, M):
    """Head-window reports at every state, from the row-sum formula:
    pi(x) times the order-(k+1) moment of state x, the sum over i of
    (f_i(x) sqrt(w_i))^2 with w = lambda^-(k+1), full and with each term's
    gamma mass at M t_rel, one state's row at a time.
    truncation_factor_worst must match the worst of them exactly."""
    decomp = analysis.decomp
    lam = decomp.lambdas[1:]
    F = decomp.eigfuncs[:, 1:]
    pi = decomp.pi
    window = M * decomp.t_rel

    def moments(w):
        root = np.sqrt(w)
        return np.array([np.square(F[x] * root).sum() for x in range(len(F))])

    sides = []
    for k in range(2):
        w = lam ** -float(k + 1)
        mass = np.array([spectral.lower_gamma_regularized(k + 1, window * l)
                         for l in lam])
        factor = 1.0 / spectral.lower_gamma_regularized(k + 1, M)
        sides.append((pi * moments(w), factor * (pi * moments(w * mass))))
    return [[BoundReport.check(f"head_window_order{k}", float(full[x]), float(trunc[x]),
                               kernel=analysis.kernel.label, x=x, M=M)
             for k, (full, trunc) in enumerate(sides)]
            for x in range(analysis.kernel.n)]


def _custom40():
    return ChainAnalysis.from_kernel(
        chains.random_reversible_kernel(40, np.random.default_rng(11)))


def _dlp40():
    return ChainAnalysis.from_spec(chains.dlp_spec(40, 0.5, 0.05))


@pytest.mark.parametrize("make", [_custom40, _dlp40], ids=["custom40", "dlp40"])
def test_window_factor_worst_matches_per_state_reference(make):
    analysis = make()
    for M in (1.0, 2.0, 5.0):
        worst = {}
        for state in _head_window_reference(analysis, M):
            for rep in state:
                if rep.name not in worst or rep.slack < worst[rep.name].slack:
                    worst[rep.name] = rep
        assert bounds.truncation_factor_worst(analysis, M) == list(worst.values())

    # the other worst-state reports against one report per state, min by slack
    decomp, label = analysis.decomp, analysis.kernel.label
    t_rel = decomp.t_rel
    for ell in (1, 2, 3):
        sigma = spectral.moment_vector(decomp, ell)
        rho = spectral.moment_vector(decomp, ell, 2.0 * ell * decomp.t_rel)
        kappa = spectral.gamma_window_mass(ell)
        window = [min((BoundReport.check(name, lhs[x], rhs[x], x=x, kernel=label,
                                         ell=ell) for x in range(analysis.kernel.n)),
                      key=lambda rep: rep.slack)
                  for name, lhs, rhs in (
                      ("windowed_le_full_moment", rho, sigma),
                      ("gamma_mass_times_full_le_windowed", kappa * sigma, rho))]
        assert bounds.moment_window_reports(analysis, ell) == window
        for eps in (0.25, 0.5):
            l2x = min((BoundReport.check(
                "l2x_moment_bound", analysis.profile.mixing_time("l2x", eps, x=x),
                0.5 * (t_rel * max(math.log(sigma[x]) - math.log(eps * eps * t_rel**ell),
                                   float(ell))),
                x=x, kernel=label, eps=eps, ell=ell) for x in range(analysis.kernel.n)),
                key=lambda rep: rep.slack)
            assert bounds.moment_bound_reports(analysis, ell, eps)[1] == l2x


@pytest.mark.parametrize("make", [
    _custom40, _dlp40,
    lambda: ChainAnalysis.from_kernel(
        chains.random_reversible_kernel(400, np.random.default_rng(0))),
], ids=["custom40", "dlp40", "custom400"])
def test_head_window_reads_the_moment_vectors(make):
    # the full side of each head-window report is pi(x) times the moment
    # vector the moment bounds read, to the bit
    analysis = make()
    decomp = analysis.decomp
    for M in (1.0, 2.0, 5.0):
        for x in range(analysis.kernel.n):
            for k, rep in enumerate(bounds.truncation_factor_reports(analysis, x, M)):
                assert rep.lhs == decomp.pi[x] * spectral.moment_vector(decomp, k + 1)[x]


def test_window_factor_refuses_nan_M(complete4):
    with pytest.raises(ValueError, match="M must be positive"):
        bounds.truncation_factor_worst(complete4, math.nan)


def test_sweep_forms_each_moment_vector_once(monkeypatch):
    # a default sweep reads the full and windowed moments of orders 1-4 and
    # the head windows of orders 1-2 at M = 1, 2, 5, of which order 1 at
    # M = 2 is the windowed moment: 13 (order, window) keys, each formed by
    # one pass of block sums over every state and kept read-only
    analysis = _custom40()
    sums = []
    square_sums = spectral._square_sums
    monkeypatch.setattr(spectral, "_square_sums",
                        lambda d, xs, root: sums.append(root.size) or square_sums(d, xs, root))
    bounds.standard_sweep(analysis)
    assert len(sums) == len(analysis.decomp._moments) == 13
    bounds.standard_sweep(analysis)
    assert len(sums) == 13
    for window in (None, 4.0 * analysis.decomp.t_rel):
        sigma = spectral.moment_vector(analysis.decomp, 2, window)
        assert spectral.moment_vector(analysis.decomp, 2, window) is sigma
        assert not sigma.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sigma[0] = 0.0
    assert len(sums) == 13 and "_moments" not in repr(analysis.decomp)


def test_printed_order1_window_constant_is_false(complete4):
    """Counterexample freeze: the (1 - e^{-M})^{-2} factor fails whenever
    the whole spectrum sits at a single rate; the sharp constant is
    1 / P(Gamma(2,1) <= M).  Keeps the unachievable constant from being
    reintroduced."""
    decomp = complete4.decomp
    lam = decomp.lambdas[1:]
    fsq = np.ones(lam.size)  # every |chi_k|^2 is 1
    for M in (1.0, 2.0, 5.0):
        window = M * decomp.t_rel
        full = float(fsq @ lam**-2.0)
        trunc = float(fsq @ (lam**-2.0 * np.array(
            [spectral.lower_gamma_regularized(2, window * l) for l in lam])))
        printed = 1.0 / (1.0 - math.exp(-M)) ** 2
        sharp = 1.0 / spectral.lower_gamma_regularized(2, M)
        assert full > printed * trunc * (1 + 1e-12)   # printed constant fails
        assert full <= sharp * trunc * (1 + 1e-12)    # sharp constant holds
        assert full / trunc == pytest.approx(sharp, rel=1e-12)


# ---------------------------------------------------------------------------
# relaxation vs hitting

def test_relaxation_hitting_bound(complete4, torus28):
    for analysis in (complete4, torus28):
        rep = bounds.relaxation_hitting_report(analysis)
        assert rep.passed
    rep4 = bounds.relaxation_hitting_report(complete4)
    expect = (2 * math.e / (math.e - 1)) * 0.75 * 3.0
    assert rep4.rhs == pytest.approx(expect, rel=1e-12)


# ---------------------------------------------------------------------------
# optimization certificate

def test_optimum_decreasing_regime():
    cert = bounds.budget_rate_optimum(
        bounds.OptProblem(t=1.0, ell=1, budget=1.0, lam2=1.0, lam_n=2.0))
    assert cert.extremal_regime
    assert cert.argmax_beta == 1.0
    assert cert.numeric_max == pytest.approx(math.exp(-2), rel=1e-14)


def test_optimum_interior_regime():
    cert = bounds.budget_rate_optimum(
        bounds.OptProblem(t=0.5, ell=2, budget=1.0, lam2=1.0, lam_n=2.0))
    assert not cert.extremal_regime
    # critical point ell/(2t) = 2 sits at the right endpoint
    assert cert.argmax_beta == pytest.approx(2.0, abs=1e-9)
    assert cert.numeric_max == pytest.approx(4 * math.exp(-2), rel=1e-10)


def test_optimum_budget_linearity():
    base = bounds.budget_rate_optimum(
        bounds.OptProblem(t=1.3, ell=2, budget=1.0, lam2=0.7, lam_n=1.9))
    double = bounds.budget_rate_optimum(
        bounds.OptProblem(t=1.3, ell=2, budget=2.0, lam2=0.7, lam_n=1.9))
    assert double.numeric_max == pytest.approx(2 * base.numeric_max, rel=1e-14)


def test_optimum_interior_matches_calculus():
    # argmax of beta^ell exp(-2 beta t) is ell/(2t) when interior; golden
    # section resolves a flat maximum only to ~sqrt(eps)
    cert = bounds.budget_rate_optimum(
        bounds.OptProblem(t=1.0, ell=3, budget=1.0, lam2=0.5, lam_n=2.0))
    assert cert.argmax_beta == pytest.approx(1.5, abs=1e-6)
    h = lambda b: b**3 * math.exp(-2 * b)
    assert cert.numeric_max == pytest.approx(h(1.5), rel=1e-12)


def test_optimum_degenerate_interval():
    cert = bounds.budget_rate_optimum(
        bounds.OptProblem(t=2.0, ell=1, budget=3.0, lam2=1.2, lam_n=1.2))
    assert cert.argmax_beta == 1.2


def test_optimum_bad_range():
    with pytest.raises(BadRange):
        bounds.budget_rate_optimum(
            bounds.OptProblem(t=1.0, ell=1, budget=1.0, lam2=2.0, lam_n=1.0))
    with pytest.raises(BadRange):
        bounds.OptProblem(t=-1.0, ell=1, budget=1.0, lam2=1.0, lam_n=2.0)


def test_optimum_dominates_true_spectrum():
    # with the exact moment as budget the relaxation dominates the exact
    # functional sum exp(-2 lambda_i t)
    rng = np.random.default_rng(3)
    for kernel in random_kernels(20, max_n=16, seed=55):
        decomp = spectral.decompose(kernel)
        lam = decomp.lambdas[1:]
        for ell in (1, 2):
            q = spectral.spectral_moment(decomp, ell)
            for t in (0.3 / decomp.gap, 1.0 / decomp.gap, float(rng.uniform(0.1, 5.0))):
                cert = bounds.budget_rate_optimum(bounds.OptProblem(
                    t=t, ell=ell, budget=q, lam2=float(lam[0]), lam_n=float(lam[-1])))
                exact = float(np.exp(-2 * lam * t).sum())
                assert cert.numeric_max >= exact * (1 - 1e-12)


# ---------------------------------------------------------------------------
# ratio co-trend diagnostic

def test_cotrend_torus_both_ratios_shrink():
    table = bounds.ratio_cotrend_table(
        [chains.torus_spec(2, m) for m in (4, 8, 16, 24)])
    first, last = table.rows[0], table.rows[-1]
    assert last.linf_over_hit < 0.5 * first.linf_over_hit
    assert last.rel_over_hit < 0.5 * first.rel_over_hit
    assert table.co_trend


def test_cotrend_cycle_neither_ratio_shrinks():
    table = bounds.ratio_cotrend_table(
        [chains.cycle_spec(n) for n in (8, 16, 32, 64)])
    first, last = table.rows[0], table.rows[-1]
    assert last.linf_over_hit >= 0.5 * first.linf_over_hit
    assert last.rel_over_hit >= 0.5 * first.rel_over_hit
    assert table.co_trend


def test_cotrend_complete_both_shrink():
    table = bounds.ratio_cotrend_table(
        [chains.complete_spec(n) for n in (4, 8, 16, 32)])
    assert table.co_trend
    assert table.rows[-1].rel_over_hit < 0.5 * table.rows[0].rel_over_hit


def test_cotrend_needs_three_sizes():
    with pytest.raises(ValueError):
        bounds.ratio_cotrend_table([chains.cycle_spec(4), chains.cycle_spec(8)])


# ---------------------------------------------------------------------------
# sweep

def test_sweep_passes_on_families_and_random_kernels():
    specs = [chains.complete_spec(8), chains.cycle_spec(16),
             chains.torus_spec(2, 4), chains.dlp_spec(12, 0.5, 0.1)]
    for spec in specs:
        analysis = ChainAnalysis.from_spec(spec)
        reps = bounds.standard_sweep(analysis, eps_list=(0.5,), ell_list=(1, 2))
        assert not failures(reps), failures(reps)[0]
    for kernel in random_kernels(10, seed=8):
        analysis = ChainAnalysis.from_kernel(kernel)
        reps = bounds.standard_sweep(analysis, eps_list=(0.5,), ell_list=(1, 2))
        assert not failures(reps), failures(reps)[0]


def test_report_pass_rule_boundary():
    from mixbound.reports import BoundReport
    rhs = 10.0
    margin = 1e-9 * (1.0 + rhs)
    assert BoundReport.check("edge", rhs + 0.5 * margin, rhs).passed
    assert not BoundReport.check("edge", rhs + 2.0 * margin, rhs).passed
    assert BoundReport.check("easy", 1.0, 2.0).slack == 1.0
