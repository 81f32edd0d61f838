import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from mixbound import chains, mixing, spectral
from mixbound.analysis import ChainAnalysis
from mixbound.errors import BadEps, NumericalFailure

from conftest import SMALL_BENCHMARK_SPECS, random_kernels


def _profile(spec):
    kernel = chains.build_family(spec)
    decomp = spectral.decompose(kernel)
    return kernel, decomp, mixing.MixingProfile(kernel, decomp)


# ---------------------------------------------------------------------------
# mixing times

def test_complete4_uniform_mixing_time():
    # solve 3 exp(-4t/3) = 1/2
    _, _, prof = _profile(chains.complete_spec(4))
    assert prof.mixing_time("linf", 0.5) == pytest.approx(0.75 * math.log(6), rel=1e-12)


def test_complete4_average_l2_mixing_time():
    # solve 3 exp(-8t/3) = 1/4
    _, _, prof = _profile(chains.complete_spec(4))
    assert prof.mixing_time("ave_l2", 0.5) == pytest.approx(
        (3 / 8) * math.log(12), rel=1e-12)


def test_threshold_met_at_zero():
    _, _, prof = _profile(chains.complete_spec(4))
    eps0 = prof.linf_distance(0.0)  # threshold equal to the t=0 value
    assert prof.mixing_time("linf", eps0) == 0.0


def test_bad_eps_rejected():
    _, _, prof = _profile(chains.complete_spec(4))
    with pytest.raises(BadEps):
        prof.mixing_time("linf", 0.0)
    with pytest.raises(BadEps):
        prof.mixing_time("tv", -1.0)


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_non_finite_eps_rejected(eps):
    _, _, prof = _profile(chains.complete_spec(4))
    with pytest.raises(BadEps):
        prof.mixing_time("linf", eps)
    with pytest.raises(BadEps):
        prof.l2_mixing_times(eps)


def test_two_state_l2_closed_form():
    kernel = chains.kernel_from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))
    prof = mixing.MixingProfile(kernel, spectral.decompose(kernel))
    # d_{2,x}(t)^2 = exp(-2t); crossing eps^2 at t = log(1/eps)
    assert prof.mixing_time("l2x", 0.5, x=0) == pytest.approx(math.log(2), rel=1e-12)


def _bisection_mixing_time(prof, kind, eps, x):
    # reference: bracket by doubling, then bisect to float resolution
    value, threshold = {
        "linf": (prof.linf_distance, eps),
        "l2x": (lambda t: prof.l2_distance(x, t), eps),
        "tv": (prof.tv_worst, 2.0 * eps),
        "ave_l2": (prof.ave_l2_sq, eps * eps),
    }[kind]
    if value(0.0) <= threshold:
        return 0.0
    lo, hi = 0.0, prof.decomp.t_rel
    while value(hi) > threshold:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if value(mid) <= threshold:
            hi = mid
        else:
            lo = mid


def _assert_matches_bisection(kernel, decomp, eps):
    prof = mixing.MixingProfile(kernel, decomp)
    for kind in mixing.KINDS:
        if kind == "l2x":
            solved = zip(kernel.scan_states, prof.l2_mixing_times(eps))
        else:
            solved = [(None, prof.mixing_time(kind, eps))]
        for x, t in solved:
            ref = _bisection_mixing_time(prof, kind, eps, x)
            assert abs(t - ref) <= 1e-9 * decomp.t_rel, (kind, x, t, ref)


@pytest.mark.parametrize("spec", SMALL_BENCHMARK_SPECS, ids=lambda s: s.label())
def test_mixing_times_match_bisection_on_families(spec):
    kernel, decomp, _ = _profile(spec)
    _assert_matches_bisection(kernel, decomp, 0.25)


def test_mixing_times_match_bisection_on_random_kernels():
    for kernel in random_kernels(100):
        _assert_matches_bisection(kernel, spectral.decompose(kernel), 0.25)


def test_tv_crossing_evaluation_count():
    # each tv_worst call on this drifted chain is a product of heat-ladder
    # rungs; bisection to float resolution took about 56 calls
    _, _, prof = _profile(chains.dlp_spec(200, 0.5, 0.05))
    calls = []
    tv_worst = prof.tv_worst
    prof.tv_worst = lambda t: calls.append(t) or tv_worst(t)
    t = prof.mixing_time("tv", 0.05)
    assert len(calls) <= 14
    assert tv_worst(t) <= 0.1


@pytest.mark.parametrize("kind,name,x", [("linf", "linf_distance", None),
                                         ("l2x", "l2_distance", 0),
                                         ("ave_l2", "ave_l2_sq", None)])
def test_log_scale_crossing_evaluation_count(kind, name, x, monkeypatch):
    # the linf and l2x profiles fall from about 1/pi_min = 1e254; on a linear
    # scale a root solve took 23-24 evaluations.  Every evaluation of the
    # Newton solve is one call to _terms; name is the public evaluator
    _, decomp, prof = _profile(chains.dlp_spec(200, 0.5, 0.05))
    calls = []
    terms = prof._terms
    monkeypatch.setattr(prof, "_terms", lambda *a: calls.append(a) or terms(*a))
    t = prof.mixing_time(kind, 0.5, x)
    assert 0 < len(calls) <= 12
    threshold = 0.25 if kind == "ave_l2" else 0.5
    assert getattr(prof, name)(*([x] if x is not None else []), t) <= threshold
    ref = _bisection_mixing_time(mixing.MixingProfile(prof.kernel, decomp),
                                 kind, 0.5, x)
    assert abs(t - ref) <= 1e-9 * decomp.t_rel


@pytest.mark.parametrize("kernels", [
    lambda: [chains.build_family(s) for s in SMALL_BENCHMARK_SPECS],
    lambda: [chains.build_family(chains.dlp_spec(200, 0.5, 0.05))],
    lambda: random_kernels(100),
], ids=["families", "dlp200", "random"])
def test_crossings_meet_threshold_under_public_evaluators(kernels):
    # the crossing and the evaluator form the same terms, so the profile
    # has crossed at the returned time exactly, not just to within rounding
    for kernel in kernels():
        prof = mixing.MixingProfile(kernel, spectral.decompose(kernel))
        for eps in (1 / 16, 1 / 8, 1 / 4, 1 / 2, 1.0):
            t = prof.mixing_time("linf", eps)
            assert prof.linf_distance(t) <= eps, (kernel.label, "linf", eps)
            t = prof.mixing_time("ave_l2", eps)
            assert prof.ave_l2_sq(t) <= eps * eps, (kernel.label, "ave_l2", eps)
            for x, t in zip(kernel.scan_states, prof.l2_mixing_times(eps)):
                assert prof.l2_distance_sq(x, t) <= eps * eps, (kernel.label, x, eps)


def _shuffled_dlp20_profile():
    # with its states shuffled the chain's P is no longer tridiagonal
    bd = chains.build_family(chains.dlp_spec(20, 0.5, 0.05))
    perm = np.random.default_rng(3).permutation(bd.n)
    kernel = chains.kernel_from_matrix(bd.P[np.ix_(perm, perm)])
    return mixing.MixingProfile(kernel, spectral.decompose(kernel))


def test_stepped_tv_worst_matches_direct_expm():
    # dlp(200) stores P_u^T in CSR form, the shuffled dlp(20) densely; the
    # largest times lie past t_settled (about 1180 and 240)
    dlp200, shuffled = _profile(chains.dlp_spec(200, 0.5, 0.05))[2], _shuffled_dlp20_profile()
    assert scipy.sparse.issparse(dlp200._uniform_t)
    assert not scipy.sparse.issparse(shuffled._uniform_t)
    for prof, times in (
            (dlp200, (300.0, 50.0, 480.0, 479.5, 1000.0, 0.5, 479.04, 2000.0,
                      0.0, 100.0, 479.04, 460.0)),
            (shuffled, (30.0, 5.0, 53.4, 53.36, 120.0, 0.25, 47.7, 400.0, 0.0,
                        10.0, 53.36, 47.75))):
        kernel = prof.kernel
        assert not prof._balanced
        L = np.eye(kernel.n) - kernel.P
        for t in times:
            H = scipy.linalg.expm(-t * L)
            ref = float(np.abs(H - kernel.pi).sum(axis=1).max())
            assert abs(prof.tv_worst(t) - ref) <= 1e-13, (kernel.n, t)
            assert len(prof._prefixes) <= 4


@pytest.mark.parametrize("tau", [1e-9, 0.5, 4.0, 16.0, 64.0])
@pytest.mark.parametrize("chain", ["dlp200", "shuffled-dlp20"])
def test_uniformized_step_matches_expm_product(chain, tau):
    if chain == "dlp200":
        prof, s = _profile(chains.dlp_spec(200, 0.5, 0.05))[2], 400.0
    else:
        prof, s = _shuffled_dlp20_profile(), 30.0
    L = spectral.laplacian(prof.kernel)
    H = scipy.linalg.expm(-s * L)
    ref = H @ scipy.linalg.expm(-tau * L)
    weights = mixing._poisson_weights(tau * prof._q)
    step = mixing._uniformized(H, prof._uniform_t, weights)
    assert np.abs(step - ref).max() <= 1e-14
    uniform_t = prof._uniform_t
    entries = uniform_t.data if scipy.sparse.issparse(uniform_t) else uniform_t
    assert (entries >= 0.0).all()


def test_tv_crossing_makes_no_expm_call(monkeypatch):
    # on the unbalanced route every heat matrix comes from the ladder
    _, decomp, prof = _profile(chains.dlp_spec(200, 0.5, 0.05))
    calls = []
    expm = scipy.linalg.expm
    monkeypatch.setattr(scipy.linalg, "expm", lambda A: calls.append(A) or expm(A))
    t = prof.mixing_time("tv", 0.125)
    assert not calls
    monkeypatch.undo()
    ref = _bisection_mixing_time(mixing.MixingProfile(prof.kernel, decomp),
                                 "tv", 0.125, None)
    assert abs(t - ref) <= 1e-9 * decomp.t_rel


@pytest.mark.parametrize("chain", ["dlp200", "shuffled-dlp20"])
def test_heat_matrix_independent_of_evaluation_order(chain):
    if chain == "dlp200":
        make = lambda: _profile(chains.dlp_spec(200, 0.5, 0.05))[2]
        times = [479.04, 2000.0, 0.0, 300.0, 479.5, 0.5, 1000.0, 462.25, 479.03]
    else:
        make = _shuffled_dlp20_profile
        times = [53.36, 400.0, 0.0, 30.0, 53.4, 0.25, 120.0, 47.74, 53.35]
    forward, backward = make(), make()
    first = {t: forward._heat_matrix(t).copy() for t in times}
    for t in reversed(times):
        assert np.array_equal(backward._heat_matrix(t), first[t]), t
    # a crossing solved in between leaves every value as it was
    backward.mixing_time("tv", 0.25)
    for t in times:
        assert np.array_equal(backward._heat_matrix(t), first[t]), t


def test_tv_crossing_after_other_crossings_matches_bisection():
    kernel, decomp, cold = _profile(chains.dlp_spec(200, 0.5, 0.05))
    warm = mixing.MixingProfile(kernel, decomp)
    for kind, eps, x in (("tv", 0.125, None), ("linf", 0.5, None),
                         ("l2x", 0.5, 0), ("l2x", 0.5, kernel.n - 1),
                         ("tv", 0.5, None)):
        warm.mixing_time(kind, eps, x)
    ref = _bisection_mixing_time(mixing.MixingProfile(kernel, decomp),
                                 "tv", 0.25, None)
    for prof in (cold, warm):
        assert abs(prof.mixing_time("tv", 0.25) - ref) <= 1e-9 * decomp.t_rel


# ---------------------------------------------------------------------------
# TV distance

def test_tv_at_zero_complete4():
    _, _, prof = _profile(chains.complete_spec(4))
    assert prof.tv_distance(0, 0.0) == pytest.approx(1.5, abs=1e-12)


def test_tv_closed_form_complete4():
    _, _, prof = _profile(chains.complete_spec(4))
    for t in (0.25, 1.0, 2.0):
        assert prof.tv_distance(0, t) == pytest.approx(
            1.5 * math.exp(-4 * t / 3), rel=1e-10)


def test_tv_vanishes_at_large_time():
    _, _, prof = _profile(chains.torus_spec(2, 4))
    assert prof.tv_distance(3, 1e6) < 1e-9


def _random40_profile():
    kernel = chains.random_reversible_kernel(40, np.random.default_rng(0))
    return mixing.MixingProfile(kernel, spectral.decompose(kernel))


def test_tv_worst_matches_scan_on_nontransitive():
    # dlp(8)'s pi ratio is 9^7 ~ 4.8e6, so its rows come from the heat
    # ladder; the random kernel is balanced, so its rows come from the
    # spectral product
    for prof in (_profile(chains.dlp_spec(8, 0.5, 0.1))[2], _random40_profile()):
        for t in (0.5, 2.0, 10.0):
            scan = max(prof.tv_distance(x, t) for x in range(prof.kernel.n))
            assert prof.tv_worst(t) == pytest.approx(scan, rel=1e-12), \
                (prof.kernel.label, t)


def test_tv_worst_balanced_one_row_product_per_t(monkeypatch):
    prof = _random40_profile()
    assert prof._balanced and not prof.kernel.transitive
    calls = []
    row = spectral.heat_kernel_row
    monkeypatch.setattr(mixing, "heat_kernel_row",
                        lambda *a: calls.append(a) or row(*a))
    for t in (0.5, 2.0):
        prof.tv_worst(t)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# profile structure

@pytest.mark.parametrize("spec", SMALL_BENCHMARK_SPECS, ids=lambda s: s.label())
def test_profiles_nonincreasing(spec):
    _, decomp, prof = _profile(spec)
    grid = np.geomspace(0.01, 40.0, 20) * decomp.t_rel
    for fn in (prof.linf_distance, prof.tv_worst, prof.ave_l2_sq,
               lambda t: prof.l2_distance(0, t)):
        vals = [fn(t) for t in grid]
        assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))


def test_distance_hierarchy_pointwise():
    # d_1 <= d_2 (Cauchy-Schwarz in pi) and d_2^2 <= d_inf at half time.
    # d_2^2 is computed as (heat ratio - 1), which is unrepresentable below
    # ~1e-16 next to 1.0; points under that floor are skipped.
    for spec in (chains.cycle_spec(8), chains.dlp_spec(8, 0.5, 0.1)):
        kernel, decomp, prof = _profile(spec)
        for t in np.geomspace(0.05, 20.0, 10) * decomp.t_rel:
            for x in range(kernel.n):
                d2_sq = prof.l2_distance_sq(x, t)
                if d2_sq <= 1e-13:
                    continue
                assert prof.tv_distance(x, t) <= d2_sq**0.5 + 1e-10
            dinf = prof.linf_distance(2 * t)
            if dinf > 1e-13:
                assert max(prof.l2_distance_sq(x, t) for x in range(kernel.n)) \
                    <= dinf + 1e-10 * (1.0 + dinf)


def test_worst_l2_is_linf_at_double_time_bit_for_bit():
    # `profile` reads d2_max as linf_distance(2t) ** 0.5, so a row's sum may
    # not depend on the rows summed beside it (eigfuncs_sq is F-ordered)
    kernels = [chains.build_family(chains.dlp_spec(100, 0.5, 0.05)),
               chains.build_family(chains.torus_spec(2, 8)),
               chains.random_reversible_kernel(150, np.random.default_rng(5))]
    for kernel in kernels:
        decomp = spectral.decompose(kernel)
        prof = mixing.MixingProfile(kernel, decomp)
        for t in np.geomspace(0.01, 40.0, 7) * decomp.t_rel:
            assert prof.linf_distance(2.0 * t) == max(
                prof.l2_distance_sq(x, t) for x in kernel.scan_states)


def test_l2_vector_matches_scalar_solves():
    kernel, _, prof = _profile(chains.dlp_spec(10, 0.5, 0.1))
    vec = prof.l2_mixing_times(0.5)
    assert vec.shape == (kernel.n,)
    for x in range(kernel.n):
        assert vec[x] == prof.mixing_time("l2x", 0.5, x=x)


def test_l2_vector_on_transitive_kernel_is_state_zero():
    _, _, prof = _profile(chains.torus_spec(2, 4))
    vec = prof.l2_mixing_times(0.5)
    assert vec.shape == (1,)
    assert vec[0] == prof.mixing_time("l2x", 0.5, x=0)
    assert prof.worst_l2_mixing_time(0.5) == vec[0]


def test_l2x_time_independent_of_batch(monkeypatch):
    # every state alone on a fresh profile against all of them in one solve
    kernel, decomp, together = _profile(chains.dlp_spec(200, 0.5, 0.05))
    calls = []
    terms = together._terms
    monkeypatch.setattr(together, "_terms", lambda *a: calls.append(a) or terms(*a))
    vec = together.l2_mixing_times(0.125)
    # one call per Newton step (5-6 here) and per crossing check (1);
    # one call per state and profile value would be thousands
    assert len(calls) <= 10
    alone = mixing.MixingProfile(kernel, decomp)
    for x in range(kernel.n):
        assert alone.mixing_time("l2x", 0.125, x=x) == vec[x], x
        assert alone.l2_distance(x, vec[x]) <= 0.125


def _cycle_excess_crossing(lams, eps_sq, factor):
    # the first t with sum_k exp(-factor lambda_k t) <= eps_sq, by bisection
    # of the closed form
    excess = lambda t: math.fsum(math.exp(-factor * lam * t) for lam in lams)
    lo, hi = 0.0, 1.0
    while excess(hi) > eps_sq:
        lo, hi = hi, 2.0 * hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return hi
        if excess(mid) <= eps_sq:
            hi = mid
        else:
            lo = mid


@pytest.mark.parametrize("eps", [1e-6, 1e-8])
def test_small_eps_crossings_match_cycle_closed_form(eps):
    # on a transitive chain H_t(x,x)/pi(x) - 1 = sum_{k>=1} exp(-lambda_k t),
    # with lambda_k = 1 - cos(2 pi k/n) on the cycle.  The sum over all
    # eigenvalues minus 1 cancels here and moved both crossings by up to
    # 1.9 t_rel
    n = 16
    lams = [1.0 - math.cos(2.0 * math.pi * k / n) for k in range(1, n)]
    _, decomp, prof = _profile(chains.cycle_spec(n))
    t_rel = decomp.t_rel
    assert abs(prof.mixing_time("l2x", eps, x=0)
               - _cycle_excess_crossing(lams, eps * eps, 2.0)) <= 1e-9 * t_rel
    assert abs(prof.mixing_time("linf", eps)
               - _cycle_excess_crossing(lams, eps, 1.0)) <= 1e-9 * t_rel


def test_small_eps_l2x_on_random_kernel_matches_bisection():
    # a profile computed as the sum over all eigenvalues minus 1 stops
    # falling near 1e-16, so this crossing raised NumericalFailure
    kernel = chains.kernel_from_matrix(
        chains.random_reversible_kernel(30, np.random.default_rng(0)).P)
    decomp = spectral.decompose(kernel)
    prof = mixing.MixingProfile(kernel, decomp)
    t = prof.mixing_time("l2x", 1e-8, x=0)
    ref = _bisection_mixing_time(mixing.MixingProfile(kernel, decomp), "l2x", 1e-8, 0)
    assert abs(t - ref) <= 1e-9 * decomp.t_rel


def test_l2_linf_factor_two_identity_random_pairs():
    rng = np.random.default_rng(11)
    for kernel in random_kernels(10, max_n=12, seed=99):
        decomp = spectral.decompose(kernel)
        prof = mixing.MixingProfile(kernel, decomp)
        for _ in range(2):
            eps = float(rng.uniform(0.1, 0.9))
            t2 = prof.worst_l2_mixing_time(eps)
            tinf = prof.mixing_time("linf", eps * eps)
            assert abs(t2 - 0.5 * tinf) <= 1e-8 * (1 + t2)
            x = int(rng.integers(kernel.n))
            tx = prof.mixing_time("l2x", eps, x=x)
            crossing = prof.l2_distance(x, tx)
            assert crossing <= eps + 1e-9


def test_average_l2_two_formulations_agree():
    # sum_x pi(x) d_{2,x}(t)^2 crossing vs the eigenvalue-sum crossing
    for spec in (chains.cycle_spec(8), chains.dlp_spec(8, 0.5, 0.1)):
        kernel, decomp, prof = _profile(spec)
        eps = 0.5

        def weighted(t):
            return float(kernel.pi @ np.array(
                [prof.l2_distance_sq(x, t) for x in range(kernel.n)]))

        t_spec = prof.mixing_time("ave_l2", eps)
        t_weight = mixing._first_crossing(weighted, eps * eps, 10 * decomp.t_rel)
        assert abs(t_spec - t_weight) <= 1e-9 * (1 + t_spec)


# ---------------------------------------------------------------------------
# hierarchy chain

@pytest.mark.parametrize("spec,eps", [
    (chains.complete_spec(4), 0.5),
    (chains.cycle_spec(16), 0.5),
    (chains.torus_spec(2, 8), 0.25),
    (chains.dlp_spec(12, 0.5, 0.1), 0.5),
])
def test_hierarchy_links_hold(spec, eps):
    a = ChainAnalysis.from_spec(spec)
    reports = mixing.hierarchy_check(a.profile, eps, a.hitting.t_hit)
    assert len(reports) == 5
    for r in reports:
        assert r.passed, str(r)


def test_hierarchy_identity_is_tight():
    a = ChainAnalysis.from_spec(chains.complete_spec(4))
    reports = {r.name: r
               for r in mixing.hierarchy_check(a.profile, 0.5, a.hitting.t_hit)}
    assert reports["l2_linf_identity"].lhs <= 1e-10


def test_hierarchy_rejects_eps_one():
    a = ChainAnalysis.from_spec(chains.complete_spec(4))
    with pytest.raises(BadEps):
        mixing.hierarchy_check(a.profile, 1.0, a.hitting.t_hit)


def test_first_crossing_failure_is_numerical():
    # a profile that never drops to its threshold; NumericalFailure is a
    # RuntimeError, so callers catching RuntimeError still see it
    with pytest.raises(NumericalFailure):
        mixing._first_crossing(lambda t: 1.0, 0.5, 1.0)
