import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from mixbound import chains, mixing, spectral
from mixbound.analysis import ChainAnalysis, DenseAnalysis
from mixbound.errors import BadEps, NumericalFailure

from conftest import SMALL_BENCHMARK_SPECS, joined_cliques, random_kernels


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


_EVALUATORS = {
    "linf_distance": lambda prof, t: prof.linf_distance(t),
    "l2_distance_sq": lambda prof, t: prof.l2_distance_sq(0, t),
    "l2_distance": lambda prof, t: prof.l2_distance(0, t),
    "ave_l2_sq": lambda prof, t: prof.ave_l2_sq(t),
    "tv_distance": lambda prof, t: prof.tv_distance(0, t),
    "tv_worst": lambda prof, t: prof.tv_worst(t),
}
_CYCLE8 = lambda: chains.build_family(chains.cycle_spec(8))
_ROUTES = {
    "ladder": lambda: _profile(chains.dlp_spec(20, 0.5, 0.05))[2],
    "dense": lambda: DenseAnalysis.from_kernel(_CYCLE8()).profile,
    "character": lambda: ChainAnalysis.from_kernel(_CYCLE8()).profile,
}


@pytest.mark.parametrize("route", list(_ROUTES))
def test_profile_evaluators_refuse_times_they_are_not_defined_at(route):
    # before, tv_distance(0, -1.0) read 7.61 on cycle(8), above the L1
    # ceiling of 2; tv_distance(3, nan) on dlp(20) raised "cannot convert
    # float NaN to integer"; linf_distance(nan) returned nan; and
    # tv_worst(inf) read NaN, from 0 * inf at lambda_1 = 0, on both
    # spectral routes.  +inf is the limit, reached once every e^{-lambda_i
    # t}, i >= 2, underflows (and on the ladder past t_settled)
    prof = _ROUTES[route]()
    assert prof._balanced == (route != "ladder")
    assert (prof.decomp.symbol is not None) == (route == "character")
    late = 1e3 * prof.decomp.t_rel
    assert prof._balanced or late > prof._t_settled
    for name, evaluate in _EVALUATORS.items():
        for t in (math.nan, -1.0, -5e-324, -math.inf):
            with pytest.raises(ValueError, match="nonnegative"):
                evaluate(prof, t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            limit = evaluate(prof, math.inf)
        assert math.isfinite(limit) and limit == evaluate(prof, late), name


@pytest.mark.parametrize("kind,x", [("tv", -1), ("linf", "a"), ("tv", 0),
                                    ("linf", 3), ("ave_l2", 0), ("l2x", None)])
def test_mixing_time_takes_a_state_for_l2x_alone(kind, x):
    # a worst-case time refuses a state rather than ignore it; before, the
    # first two returned the worst-state 23.496342192785647 and 65.19937321637518
    _, _, prof = _profile(chains.dlp_spec(8, 0.5, 0.2))
    with pytest.raises(ValueError, match="state x"):
        prof.mixing_time(kind, 0.5 if kind == "linf" else 0.25, x=x)


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


def test_tv_crossing_evaluation_count(monkeypatch):
    # on this drifted chain every evaluation is rows of the heat ladder,
    # len(xs) x n products of its rungs.  Brent on the maximum over the rows
    # took up to 14 evaluations of every row (bisection about 56); the solve
    # on the rows still above 2 eps takes 2 of more than one row, and 25
    # rows alone
    _, _, prof = _profile(chains.dlp_spec(200, 0.5, 0.05))
    blocks, rows = [], []
    ladder_rows = prof._ladder_rows

    def counted(t, xs):
        (rows if len(xs) == 1 else blocks).append(t)
        return ladder_rows(t, xs)

    monkeypatch.setattr(prof, "_ladder_rows", counted)
    t = prof.mixing_time("tv", 0.05)
    assert len(blocks) <= 2
    assert len(rows) <= 25
    assert prof.tv_worst(t) <= 0.1


@pytest.mark.parametrize("kind,name,x", [("linf", "linf_distance", None),
                                         ("l2x", "l2_distance", 0),
                                         ("ave_l2", "ave_l2_sq", None)])
def test_log_scale_crossing_evaluation_count(kind, name, x, monkeypatch):
    # the linf and l2x profiles fall from about 1/pi_min = 1e254; on a linear
    # scale a root solve took 23-24 evaluations.  Every evaluation of the
    # Newton solve is one call to _row_sums; name is the public evaluator
    _, decomp, prof = _profile(chains.dlp_spec(200, 0.5, 0.05))
    calls = []
    row_sums = prof._row_sums
    monkeypatch.setattr(prof, "_row_sums",
                        lambda *a, **k: calls.append(a) or row_sums(*a, **k))
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
    # the sum runs over the columns of the fresh transposed copy of H
    step = mixing._uniformized(np.ascontiguousarray(H.T), prof._uniform_t, weights)
    assert np.abs(step.T - ref).max() <= 1e-14
    uniform_t = prof._uniform_t
    entries = uniform_t.data if scipy.sparse.issparse(uniform_t) else uniform_t
    assert (entries >= 0.0).all()


def test_tv_crossing_makes_no_expm_call(monkeypatch):
    # on the unbalanced route every heat row comes from the ladder
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
    # every row of H(t) and a fixed 3 of them, from the heat ladder
    if chain == "dlp200":
        make = lambda: _profile(chains.dlp_spec(200, 0.5, 0.05))[2]
        times = [479.04, 2000.0, 0.0, 300.0, 479.5, 0.5, 1000.0, 462.25, 479.03]
    else:
        make = _shuffled_dlp20_profile
        times = [53.36, 400.0, 0.0, 30.0, 53.4, 0.25, 120.0, 47.74, 53.35]
    forward, backward = make(), make()
    n = forward.kernel.n
    row_sets = (range(n), [n - 1, 3, n // 2])
    first = {(t, i): forward._ladder_rows(t, xs)
             for t in times for i, xs in enumerate(row_sets)}

    def check(order):
        for t in order:
            for i, xs in enumerate(row_sets):
                assert np.array_equal(backward._ladder_rows(t, xs), first[t, i]), (t, i)

    check(reversed(times))
    # a crossing solved in between leaves every value as it was
    backward.mixing_time("tv", 0.25)
    check(times)


@pytest.mark.parametrize("chain", ["dlp200", "shuffled-dlp20"])
def test_ladder_row_alone_matches_its_row_in_a_block(chain):
    # BLAS takes another route for a 1 x n product than for an n x n one,
    # so the bits may differ; the entries lie in [0, 1].  Times below one
    # step, in the middle and past t_settled
    prof = (_profile(chains.dlp_spec(200, 0.5, 0.05))[2] if chain == "dlp200"
            else _shuffled_dlp20_profile())
    n = prof.kernel.n
    for t in (0.5 * prof._step, 0.5 * prof._t_settled, 2.0 * prof._t_settled):
        block = prof._ladder_rows(t, range(n))
        for x in range(n):
            row = prof._ladder_rows(t, [x])[0]
            assert np.abs(row - block[x]).max() <= 4 * np.finfo(float).eps, (t, x)


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


def _two_state(p):
    return chains.kernel_from_matrix(np.array([[1.0 - p, p], [p, 1.0 - p]]))


# kernels whose TV crossings run the row solve through its branches
_TV_KERNELS = {
    **{f"custom400-seed{seed}": (lambda seed=seed: chains.random_reversible_kernel(
        400, np.random.default_rng(seed))) for seed in (0, 1)},
    **{f"dlp{n}": (lambda n=n: chains.build_family(chains.dlp_spec(n, 0.5, 0.05)))
       for n in (100, 200)},
    "shuffled-dlp20": lambda: _shuffled_dlp20_profile().kernel,
    **{f"cliques-{delta:g}": (lambda delta=delta: chains.kernel_from_matrix(
        joined_cliques(delta))) for delta in (1e-2, 1e-4, 1e-6)},
    "two-state-flip": lambda: _two_state(1.0),
    "two-state-half": lambda: _two_state(0.5),
}


@pytest.mark.parametrize("label", list(_TV_KERNELS))
def test_tv_row_solve_matches_all_row_bisection(label, monkeypatch):
    # the 400 rows of the custom kernels all cross within 6% of each other
    # (every row is above 2 eps = 0.25 at t = 2.0, the last crosses at
    # 2.1206), so several rows are solved in turn; dlp(100) and dlp(200)
    # take the heat ladder, the shuffled dlp(20) with a dense P_u; at eps =
    # 1/2 the relaxation bound is 0
    kernel = _TV_KERNELS[label]()
    decomp = spectral.decompose(kernel)
    prof = mixing.MixingProfile(kernel, decomp)
    rounds = []
    first_crossing = mixing._first_crossing
    monkeypatch.setattr(mixing, "_first_crossing",
                        lambda *a: rounds.append(a) or first_crossing(*a))
    for eps in (0.125, 0.25, 0.5):
        t = prof.mixing_time("tv", eps)
        ref = _bisection_mixing_time(mixing.MixingProfile(kernel, decomp), "tv", eps, None)
        assert abs(t - ref) <= 1e-9 * decomp.t_rel, (eps, t, ref)
        # the last row solved has crossed in its own evaluation, which can
        # differ from its value beside every other row in the last bits
        assert prof.tv_worst(t) <= 2.0 * eps * (1.0 + 4.0 * np.finfo(float).eps)
    if label.startswith("custom"):
        assert len(rounds) > 3  # some crossing took more than one row solve


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_tv_row_solve_from_a_bound_that_has_crossed(p):
    # on a two-state chain the worst L1 distance is exactly e^{-t/t_rel}, so
    # at the relaxation bound it equals 2 eps and reads below it in rounding:
    # the crossing is solved below the bound
    kernel = _two_state(p)
    decomp = spectral.decompose(kernel)
    prof = mixing.MixingProfile(kernel, decomp)
    for eps in (0.05, 0.1, 0.3):
        assert prof.tv_worst(decomp.t_rel * math.log(0.5 / eps)) <= 2.0 * eps
        ref = _bisection_mixing_time(mixing.MixingProfile(kernel, decomp), "tv", eps, None)
        assert abs(prof.mixing_time("tv", eps) - ref) <= 1e-9 * decomp.t_rel


def test_tv_crossing_at_zero():
    # every row is within 2 eps of pi at t = 0: 2 (1 - pi(x)) is at most 1 on
    # the two-state chain at eps = 1/2, and below 2 on any chain at eps = 1.
    # A crossing at 0 is no bracket end for a larger eps (the torus scans
    # one state, which goes to the root finder at once)
    two_state = _two_state(1.0)
    custom = chains.random_reversible_kernel(400, np.random.default_rng(0))
    torus = chains.build_family(chains.torus_spec(2, 4))
    for kernel, eps in ((two_state, 0.5), (custom, 1.0), (torus, 1.0)):
        prof = mixing.MixingProfile(kernel, spectral.decompose(kernel))
        assert prof.mixing_time("tv", eps) == 0.0
        assert prof.mixing_time("tv", 2.0 * eps) == 0.0


def test_tv_crossings_evaluate_few_row_sets(monkeypatch):
    # Brent on the maximum over the rows evaluated all 400 rows 31 times for
    # these three crossings; the row solve evaluates more than one row at 8
    # distinct times, the first time every row.  Each evaluation forms its
    # rows chains.BLOCK states at a time, so a per-state loop fails this
    kernel = chains.random_reversible_kernel(400, np.random.default_rng(0))
    prof = mixing.MixingProfile(kernel, spectral.decompose(kernel))
    evaluations, products = [], []  # (t, rows); rows of each _heat_rows call
    row, l1 = spectral._heat_rows, prof._l1_distances

    def counted_l1(t, xs):
        before = len(products)
        dist = l1(t, xs)
        evaluations.append((t, list(xs)))
        assert sum(products[before:], []) == list(xs)
        assert len(products) - before == math.ceil(len(xs) / chains.BLOCK)
        return dist

    monkeypatch.setattr(mixing, "_heat_rows",
                        lambda d, xs, t: products.append(list(xs)) or row(d, xs, t))
    monkeypatch.setattr(prof, "_l1_distances", counted_l1)
    for eps in (0.125, 0.25, 0.5):
        prof.mixing_time("tv", eps)
    assert evaluations[0][1] == list(range(kernel.n))
    assert 1 <= len({t for t, xs in evaluations if len(xs) > 1}) <= 9


def test_one_state_tv_crossings_keep_their_bits():
    # a kernel that scans one state solves its row from 0 as Brent on
    # tv_worst did: the character route of torus(2,32) and the dense rows of
    # torus(2,8), whose t_tv the BRW sandwich's band verdict reads
    torus = ChainAnalysis.from_spec(chains.torus_spec(2, 32))
    assert [torus.profile.mixing_time("tv", eps) for eps in (0.125, 0.25, 0.5)] \
        == [197.01100557763502, 128.37475815655955, 60.90389053727385]
    dense = DenseAnalysis.from_spec(chains.torus_spec(2, 8))
    assert dense.profile.mixing_time("tv", 0.25) == 8.379639887013145


@pytest.mark.parametrize("n,times", [
    (100, (245.90611204526857, 233.8609961649491, 217.24513517203138)),
    (200, (479.0397020214004, 462.2500166227767, 438.9612043002722)),
])
def test_ladder_tv_crossings_keep_their_bits(n, times):
    # the exact_drifted kernels scan every state, so their crossings take
    # the multi-row path through the heat ladder; the same bits at one and
    # two BLAS threads
    _, _, prof = _profile(chains.dlp_spec(n, 0.5, 0.05))
    assert not prof._balanced
    assert tuple(prof.mixing_time("tv", eps) for eps in (0.125, 0.25, 0.5)) == times


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
    # every row once per t, from one product per chains.BLOCK states: two
    # products for 40 states, where a per-state loop would make 40
    prof = _random40_profile()
    assert prof._balanced and not prof.kernel.transitive
    calls = []
    row = spectral._heat_rows
    monkeypatch.setattr(mixing, "_heat_rows",
                        lambda d, xs, t: calls.append((t, list(xs))) or row(d, xs, t))
    n = prof.kernel.n
    for t in (0.5, 2.0):
        prof.tv_worst(t)
        assert [s for s, _ in calls] == [t] * math.ceil(n / chains.BLOCK)
        assert sorted(sum((xs for _, xs in calls), [])) == list(range(n))
        calls.clear()


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
    # not depend on the rows summed beside it (F is F-ordered)
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
    row_sums = together._row_sums
    monkeypatch.setattr(together, "_row_sums",
                        lambda *a, **k: calls.append(a) or row_sums(*a, **k))
    vec = together.l2_mixing_times(0.125)
    # one call per Newton step (5-6 here) and per crossing check (1);
    # one call per state and profile value would be thousands
    assert len(calls) <= 10
    alone = mixing.MixingProfile(kernel, decomp)
    for x in range(kernel.n):
        assert alone.mixing_time("l2x", 0.125, x=x) == vec[x], x
        assert alone.l2_distance(x, vec[x]) <= 0.125


@pytest.mark.xfail(raises=NumericalFailure, strict=True, reason="ROADMAP loose end: "
                   "the Newton stop is below the rounding floor of t")
def test_worst_l2_time_at_the_rounding_floor_of_t():
    # at eps = 1e-5 the crossing lies near t = 1277.33, about 360 t_rel, where
    # the iterate oscillates by about 3e-11 while a row leaves only once its
    # step is within 1e-13 t_rel = 3.5e-13, under two ulp of t
    kernel, decomp, prof = _profile(chains.dlp_spec(241, 0.5, 0.05))
    t = prof.worst_l2_mixing_time(1e-5)
    worst = lambda s: max(prof.l2_distance_sq(x, s) for x in range(kernel.n))
    lo, hi = 0.0, decomp.t_rel
    while worst(hi) > 1e-10:
        lo, hi = hi, 2.0 * hi
    while hi - lo > 1e-11 * decomp.t_rel:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if worst(mid) > 1e-10 else (lo, mid)
    assert abs(t - hi) <= 1e-9 * decomp.t_rel


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


@pytest.mark.parametrize("hi,lo", [(0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0),
                                   (math.nan, 0.0), (2.0, 2.0), (1.0, 2.0)])
def test_first_crossing_refuses_a_bracket_end_doubling_cannot_move(hi, lo):
    # a bracket end of 0 was doubled 200 times and then blamed the profile
    calls = []
    with pytest.raises(ValueError, match="bracket end"):
        mixing._first_crossing(lambda t: calls.append(t) or 1.0, 0.5, hi, lo=lo)
    assert not calls


def test_first_crossing_failure_is_numerical():
    # a profile that never drops to its threshold; NumericalFailure is a
    # RuntimeError, so callers catching RuntimeError still see it
    with pytest.raises(NumericalFailure):
        mixing._first_crossing(lambda t: 1.0, 0.5, 1.0)
