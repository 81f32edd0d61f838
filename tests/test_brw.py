import math
import warnings
from bisect import bisect
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from mixbound import analysis, brw, brw_reference, chains, hitting, spectral
from mixbound.analysis import ChainAnalysis
from mixbound.errors import AllCensored, InvalidSpec

from conftest import SMALL_BENCHMARK_SPECS


@pytest.fixture(scope="module")
def complete4():
    return chains.build_family(chains.complete_spec(4))


@pytest.fixture(scope="module")
def cycle8():
    return chains.build_family(chains.cycle_spec(8))


def pooled_gap(a, b):
    return abs(a.mean - b.mean) / math.hypot(a.stderr, b.stderr)


# ---------------------------------------------------------------------------
# determinism and conventions

def test_bit_identical_reruns(complete4):
    cfg = brw.BRWConfig(replicates=500, master_seed=42)
    assert brw.simulate_hit(complete4, 1, cfg) == brw.simulate_hit(complete4, 1, cfg)
    assert brw.simulate_intersection(complete4, cfg) == \
        brw.simulate_intersection(complete4, cfg)
    assert brw.plain_intersection(complete4, cfg) == \
        brw.plain_intersection(complete4, cfg)


def test_different_seeds_differ(complete4):
    a = brw.simulate_hit(complete4, 1, brw.BRWConfig(replicates=500, master_seed=1))
    b = brw.simulate_hit(complete4, 1, brw.BRWConfig(replicates=500, master_seed=2))
    assert a.mean != b.mean


def test_worker_count_does_not_change_results(complete4):
    serial = brw.simulate_hit(complete4, 0, brw.BRWConfig(replicates=400, master_seed=5))
    pooled = brw.simulate_hit(complete4, 0,
                              brw.BRWConfig(replicates=400, master_seed=5, threads=3))
    assert serial == pooled


def test_hit_at_time_zero_when_started_on_target(complete4):
    est = brw.simulate_hit(complete4, 2, brw.BRWConfig(replicates=20, master_seed=9),
                           initial_state=2)
    assert est.mean == 0.0 and est.stderr == 0.0 and est.censor_rate == 0.0


def test_intersection_at_time_zero_when_same_start(complete4):
    est = brw.simulate_intersection(
        complete4, brw.BRWConfig(replicates=20, master_seed=9),
        initial_states=(1, 1))
    assert est.mean == 0.0
    plain = brw.plain_intersection(
        complete4, brw.BRWConfig(replicates=20, master_seed=9),
        initial_states=(3, 3))
    assert plain.mean == 0.0


def test_invalid_target_rejected(complete4, cycle8):
    with pytest.raises(InvalidSpec):
        brw.simulate_hit(complete4, 7, brw.BRWConfig(replicates=10))
    # every pinned state is an integer in 0..n-1, one for a hit and two for
    # intersect and plain; -1 must not alias state n-1 through list indexing
    cfg = brw.BRWConfig(replicates=10)
    refused = [
        lambda: brw.simulate_hit(cycle8, -1, cfg),
        lambda: brw.simulate_hit(cycle8, 7, cfg, initial_state=-1),
        lambda: brw.simulate_hit(cycle8, 7, cfg, initial_state=99),
        lambda: brw.simulate_hit(cycle8, 7, cfg, initial_state=2.0),
        lambda: brw.simulate_hit(cycle8, 7, cfg, initial_state=(1, 2)),
        lambda: brw.simulate_intersection(cycle8, cfg, initial_states=(0, 8)),
        lambda: brw.simulate_intersection(cycle8, cfg, initial_states=(0, -1)),
        lambda: brw.simulate_intersection(cycle8, cfg, initial_states=(0,)),
        lambda: brw.simulate_intersection(cycle8, cfg, initial_states=3),
        lambda: brw.plain_intersection(cycle8, cfg, initial_states=(0, 8)),
        lambda: brw.plain_intersection(cycle8, cfg, initial_states=(0, 1, 2)),
        lambda: brw_reference.simulate_hit_reference(cycle8, 7, cfg, initial_state=-1),
        lambda: brw_reference.simulate_intersection_reference(
            cycle8, cfg, initial_states=(0,)),
    ]
    for call in refused:
        with pytest.raises(InvalidSpec, match="integer state"):
            call()
    pinned = brw.simulate_hit(cycle8, np.int64(7), cfg, initial_state=np.int64(7))
    assert pinned.mean == 0.0 and pinned.target == "hit(x=7)"


def test_config_validation():
    with pytest.raises(InvalidSpec):
        brw.BRWConfig(replicates=0)
    with pytest.raises(InvalidSpec):
        brw.BRWConfig(gamma=-1.0)
    with pytest.raises(InvalidSpec):
        brw.BRWConfig(max_time=0.0)


@pytest.mark.parametrize("field", ["gamma", "max_time"])
def test_config_rejects_nan(field):
    # a NaN time cap would never be exceeded, so it would run uncapped
    with pytest.raises(InvalidSpec):
        brw.BRWConfig(**{field: math.nan})


@pytest.mark.parametrize("spec", [chains.hypercube_spec(10), chains.torus_spec(3, 6)],
                         ids=lambda s: s.label())
def test_cum_rows_sample_only_neighbours(spec):
    # bisect(cum, u) == k exactly for u in [cum[k-1], cum[k]), so entry k is
    # drawn by some u in [0, 1) iff cum[k-1] < min(cum[k], 1)
    kernel = chains.build_family(spec)
    for row in kernel.P:
        nbrs, cum = brw._cum_row(row)
        c = np.array(cum)
        lo = np.concatenate(([0.0], c[:-1]))
        assert (row[np.array(nbrs)[lo < np.minimum(c, 1.0)]] > 0).all()
        assert row[nbrs[bisect(cum, np.nextafter(1.0, 0.0))]] > 0


def _dense_draw(row, u):
    """Reference draw from the dense cumulative row, pinned to 1.0 from the
    last nonzero column on."""
    c = np.cumsum(row)
    c[np.flatnonzero(row)[-1]:] = 1.0
    return bisect(c.tolist(), u)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 60), density=st.floats(0.0, 0.5),
       decades=st.floats(0.0, 300.0), seed=st.integers(0, 2**32 - 1))
def test_sparse_draw_matches_dense_reference(n, density, decades, seed):
    # symmetric log-uniform weights spread over up to 300 decades on a
    # random graph plus a cycle, so every row has a neighbour; after row
    # normalisation the smallest entries may underflow to 0 or vanish in
    # the cumulative sums, and both tables must agree on that too
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < density)
    idx = np.arange(n)
    mask[idx, (idx + 1) % n] = True
    W = np.where(mask, 10.0 ** rng.uniform(-decades / 2, decades / 2, (n, n)), 0.0)
    W = W + W.T
    P = W / W.sum(axis=1, keepdims=True)
    for row in P:
        nbrs, cum = brw._cum_row(row)
        assert nbrs == np.flatnonzero(row).tolist() and cum[-1] == 1.0
        dense = np.cumsum(row)
        assert cum[:-1] == dense[nbrs[:-1]].tolist()
        us = [0.0, float(np.nextafter(1.0, 0.0)), *rng.random(8).tolist(),
              *(float(v) for v in dense if v < 1.0)]
        for u in us:
            z = nbrs[bisect(cum, u)]
            assert z == _dense_draw(row, u) and row[z] > 0


@pytest.mark.parametrize("rate", [1.0, 1.0 + 1e-3, 4.0 / 3.0, 7 * (1.0 + 0.0123)])
def test_inline_exponential_draw_is_expovariate(rate):
    # the engines draw clocks as t - log(1 - random()) / rate in place of
    # t + Random.expovariate(rate); the two streams must agree bit for bit
    for s in range(50):
        random, rng = Random(s).random, Random(s)
        t_inline = t_stdlib = 0.0
        for _ in range(20):
            t_inline = t_inline - math.log(1.0 - random()) / rate
            t_stdlib = t_stdlib + rng.expovariate(rate)
            assert t_inline == t_stdlib


def test_worker_count_is_capped(monkeypatch, complete4):
    started = []

    class RecordingPool:
        """Runs the pool's work in this process and records its size."""

        def __init__(self, max_workers, initializer, initargs):
            started.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(brw, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(brw, "_worker_common", None)
    monkeypatch.setattr(brw.os, "cpu_count", lambda: 3)
    cfg = brw.BRWConfig(replicates=400, master_seed=5)
    serial = brw.simulate_hit(complete4, 0, cfg)
    assert started == [] and brw._worker_common is None
    assert brw.simulate_hit(complete4, 0, replace(cfg, threads=10_000)) == serial
    brw.simulate_hit(complete4, 0, replace(cfg, replicates=2, threads=10_000))
    assert started == [3, 2]
    monkeypatch.setattr(brw.os, "cpu_count", lambda: None)
    assert brw.simulate_hit(complete4, 0, replace(cfg, threads=10_000)) == serial
    assert started == [3, 2]


def test_replicate_seed_mixing_spreads():
    seeds = {brw.replicate_seed(7, r) for r in range(1000)}
    assert len(seeds) == 1000
    assert brw.replicate_seed(7, 3) != brw.replicate_seed(8, 3)
    assert brw.replicate_seed(7, 3) != brw.replicate_seed(7, 3, salt=1)


# ---------------------------------------------------------------------------
# censoring

def test_all_censored_raises(cycle8):
    # pinned distinct starts so no replicate can score a time-zero event
    cfg = brw.BRWConfig(replicates=30, master_seed=3, max_time=1e-9)
    with pytest.raises(AllCensored):
        brw.simulate_hit(cycle8, 3, cfg, initial_state=0)
    with pytest.raises(AllCensored):
        brw.simulate_intersection(cycle8, cfg, initial_states=(0, 4))
    with pytest.raises(AllCensored):
        brw.plain_intersection(cycle8, cfg, initial_states=(0, 4))


def test_partial_censoring_disclosed(cycle8):
    # a cap near the typical hit time censors some but not all replicates
    probe = brw.simulate_hit(cycle8, 4, brw.BRWConfig(replicates=400, master_seed=11))
    cfg = brw.BRWConfig(replicates=400, master_seed=11, max_time=probe.mean)
    est = brw.simulate_hit(cycle8, 4, cfg)
    assert 0.0 < est.censor_rate < 1.0
    assert est.replicates_used == round(400 * (1 - est.censor_rate))


def test_default_caps_keep_censoring_negligible(cycle8):
    est = brw.simulate_hit(cycle8, 0, brw.BRWConfig(replicates=800, master_seed=13))
    assert est.censor_rate <= 0.01


# ---------------------------------------------------------------------------
# distributional checks

def test_growth_matches_exponential(complete4):
    # binary splitting at rate gamma: expected count e^{gamma t}
    cfg = brw.BRWConfig(replicates=4000, master_seed=17)
    times = [0.5, 1.0, 2.0]
    mean, stderr = brw.growth_curve(complete4, cfg, times)
    gamma = 4.0 / 3.0
    for m, se, t in zip(mean, stderr, times):
        assert abs(m - math.exp(gamma * t)) <= 3.0 * se


def test_growth_curve_refuses_times_it_cannot_answer(monkeypatch, cycle8):
    # before, a NaN time ran every replicate to the particle cap and read a
    # mean of 1e5 there, and a time of -1 read 1 particle
    def refuse(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(brw, "_run_replicates", refuse)
    for gamma in (0.2, None):
        cfg = brw.BRWConfig(replicates=5, gamma=gamma)
        for bad in (math.nan, -1.0, -5e-324, math.inf, -math.inf):
            with pytest.raises(InvalidSpec, match="query times"):
                brw.growth_curve(cycle8, cfg, [1.0, bad])


def test_growth_curve_single_replicate(cycle8):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, stderr = brw.growth_curve(cycle8, brw.BRWConfig(replicates=1), [1.0, 2.0])
    assert (mean >= 1.0).all() and stderr.tolist() == [0.0, 0.0]


def test_growth_curve_solves_no_hitting_times(monkeypatch, cycle8):
    # growth runs have no time cap, so filling gamma is all they need
    calls = []
    solve = analysis.hit_times
    monkeypatch.setattr(analysis, "hit_times", lambda k: calls.append(k) or solve(k))
    brw.growth_curve(cycle8, brw.BRWConfig(replicates=10, gamma=1.0), [1.0])
    brw.growth_curve(cycle8, brw.BRWConfig(replicates=10), [1.0])
    assert calls == []


def _cap_bound(decomp):
    """T = sum_{i>=2} 1/lambda_i + max_y E_pi[T_y], the default cap's t_hit bound."""
    return spectral.spectral_moment(decomp, 1) + \
        float(spectral.heat_moment_all(decomp, 1).max())


@pytest.mark.parametrize("kernel", [
    *SMALL_BENCHMARK_SPECS,
    *(chains.dlp_spec(n, 0.5, 0.05) for n in (100, 200, 241)),
    *(chains.random_reversible_kernel(n, np.random.default_rng(n)) for n in (5, 30, 100)),
], ids=lambda k: k.label() if isinstance(k, chains.ChainFamilySpec) else k.label)
def test_default_cap_bound_covers_t_hit(analysis_cache, kernel):
    a = analysis_cache(kernel)
    bound = _cap_bound(a.decomp)
    assert bound >= a.hitting.t_hit * (1.0 - 1e-12)
    if a.kernel.transitive:  # E_pi[T_y] is the same sum for every y
        assert bound == pytest.approx(2.0 * spectral.spectral_moment(a.decomp, 1),
                                      rel=1e-12)
    t_rel = a.decomp.t_rel
    cfg = brw.fill_config(a.decomp, brw.BRWConfig())
    assert cfg.max_time == 50.0 * t_rel * math.log1p(bound / t_rel)
    assert cfg.gamma == a.decomp.gap


def test_no_hitting_solve_outside_the_hit_target(monkeypatch):
    def refuse(kernel):
        raise AssertionError("hitting times solved outside the hit target")

    for module in (hitting, analysis, brw):
        monkeypatch.setattr(module, "hit_times", refuse)
    cfg = brw.BRWConfig(replicates=20, master_seed=1)
    specs = [chains.hypercube_spec(d) for d in (3, 4, 5)]
    for spec in specs:
        kernel = chains.build_family(spec)
        brw.simulate_intersection(kernel, cfg)
        brw.plain_intersection(kernel, cfg)
        brw.growth_curve(kernel, cfg, [1.0])
        brw_reference.simulate_intersection_reference(kernel, cfg)
        a = ChainAnalysis.from_kernel(kernel)
        brw.experiment(a, "intersect", cfg)
        brw.experiment(a, "plain", cfg)
    brw.intersection_sandwich(specs, cfg)


def test_first_particle_bounds_hit_time(cycle8):
    # the first particle alone yields E[hit] <= expected hit time from pi
    summary = hitting.hit_times(cycle8)
    est = brw.simulate_hit(cycle8, 2, brw.BRWConfig(replicates=2000, master_seed=23))
    assert est.mean <= summary.t_pi_to[2] + 3.0 * est.stderr


def test_intersection_faster_than_hit(cycle8):
    cfg = brw.BRWConfig(replicates=1500, master_seed=29)
    hit = brw.simulate_hit(cycle8, 0, cfg)
    inter = brw.simulate_intersection(cycle8, cfg)
    assert inter.mean <= 2.0 * hit.mean + 3.0 * math.hypot(inter.stderr, hit.stderr)


def test_engines_agree_quickly(complete4, cycle8):
    for kernel in (complete4, cycle8):
        cfg = brw.fill_config(spectral.decompose(kernel),
                              brw.BRWConfig(replicates=3000, master_seed=31))
        x = kernel.n // 2
        assert pooled_gap(brw.simulate_hit(kernel, x, cfg),
                          brw_reference.simulate_hit_reference(kernel, x, cfg)) <= 3.0
        assert pooled_gap(brw.simulate_intersection(kernel, cfg),
                          brw_reference.simulate_intersection_reference(kernel, cfg)) <= 3.0


def _exact_hit_time(kernel, x, gamma, method="LSODA", rtol=1e-10):
    """E_pi[T_x] of a BRW branching at rate gamma, from the branching backward
    equation (Athreya-Ney 1972, ch. V): u(t, y), the chance that no particle
    of a BRW started at y has reached x by time t, solves
    du/dt = (P - I) u + gamma (u^2 - u) on the states y != x, with u(0) = 1
    and u(t, x) = 0, and E_pi[T_x] = int_0^inf sum_y pi(y) u(t, y) dt.  The
    integral rides along as one more component; the solve stops once every
    u is below 1e-16."""
    rest = np.arange(kernel.n) != x
    Q, pi = kernel.P[np.ix_(rest, rest)], kernel.pi[rest]

    def rhs(t, z):
        u = z[:-1]
        return np.append(Q @ u - u + gamma * (u * u - u), pi @ u)

    def extinct(t, z):
        return z[:-1].max() - 1e-16

    extinct.terminal = True
    sol = solve_ivp(rhs, (0.0, 1e6), np.append(np.ones(rest.sum()), 0.0),
                    method=method, rtol=rtol, atol=1e-16, events=extinct)
    assert sol.status == 1, sol.message  # stopped by the event
    return float(sol.y[-1, -1])


@pytest.mark.parametrize("spec,exact", [(chains.complete_spec(4), 0.905309),
                                        (chains.cycle_spec(8), 4.550888)],
                         ids=["complete4", "cycle8"])
def test_hit_estimates_match_the_exact_backward_equation(spec, exact):
    kernel = chains.build_family(spec)
    gamma = spectral.decompose(kernel).gap  # the gamma a default BRWConfig fills in
    value = _exact_hit_time(kernel, 0, gamma)
    # the oracle's own accuracy: half the tolerance, and another solver
    assert value == pytest.approx(_exact_hit_time(kernel, 0, gamma, rtol=5e-11), rel=1e-8)
    assert value == pytest.approx(_exact_hit_time(kernel, 0, gamma, method="DOP853"),
                                  rel=1e-8)
    assert value == pytest.approx(exact, abs=5e-7)
    cfg = brw.BRWConfig(replicates=20_000, master_seed=41)
    for est in (brw.simulate_hit(kernel, 0, cfg),
                brw_reference.simulate_hit_reference(kernel, 0, cfg)):
        assert est.censor_rate == 0.0
        assert abs(est.mean - value) <= 4.0 * est.stderr, est


def _exact_race_time(kernel, gamma, cap):
    """(E[T 1{hit}] / P(hit), number of states) of the intersection race of
    two clouds started from pi x pi that branch at rate gamma, solved as a
    finite absorbing chain.  A state is each cloud's particle count per
    site and its visited set.  A particle of cloud c at x jumps to y at
    rate P(x, y), a hit when y is in the other cloud's visited set, and
    splits at rate gamma, which censors (absorbs with no hit) once the
    clouds hold cap particles.  A shared start is a hit at time 0.  With q
    the rate out of a state and R the rates between states, P(hit) = p and
    E[T 1{hit}] = h solve q p - R p = (rate of a hit) and q h - R h = p."""
    P, pi, n = kernel.P, kernel.pi, kernel.n
    index, states, rows = {}, [], []

    def number(state):
        if state not in index:
            index[state] = len(states)
            states.append(state)
        return index[state]

    def moved(state, c, src, dst):
        """The number of state with one particle of cloud c put on dst,
        taken from src unless src is None."""
        cloud = list(state[c])
        if src is not None:
            cloud[src] -= 1
        cloud[dst] += 1
        new = list(state)
        new[c], new[2 + c] = tuple(cloud), state[2 + c] | {dst}
        return number(tuple(new))

    def one(x):
        return tuple(int(y == x) for y in range(n))

    weights = {number((one(a), one(b), frozenset([a]), frozenset([b]))): pi[a] * pi[b]
               for a in range(n) for b in range(n) if a != b}
    while len(rows) < len(states):
        state = states[len(rows)]
        total = sum(state[0]) + sum(state[1])
        out, hit = {}, 0.0
        for c in (0, 1):
            for x in np.flatnonzero(state[c]):
                k = state[c][x]
                for y in np.flatnonzero(P[x]):
                    if y in state[3 - c]:
                        hit += k * P[x, y]
                    else:
                        j = moved(state, c, x, int(y))
                        out[j] = out.get(j, 0.0) + k * P[x, y]
                if gamma and total < cap:
                    j = moved(state, c, None, x)
                    out[j] = out.get(j, 0.0) + k * gamma
        rows.append((total * (1.0 + gamma), out, hit))
    A = np.diag([q for q, _, _ in rows])
    for i, (_, out, _) in enumerate(rows):
        A[i, list(out)] -= list(out.values())
    p = np.linalg.solve(A, [hit for _, _, hit in rows])
    h = np.linalg.solve(A, p)
    starts, w = list(weights), np.array(list(weights.values()))
    p_hit = w @ p[starts] + pi @ pi  # a shared start: a hit at time 0
    return float(w @ h[starts] / p_hit), len(states)


# Capped races at gamma = 0.5: the kernel, the particle cap, the exact
# value and the number of states of its chain.
CAPPED_RACES = {"complete3-cap4": (chains.complete_spec(3), 4, 0.40263, 132),
                "complete3-cap6": (chains.complete_spec(3), 6, 0.44101, 390),
                "cycle4-cap4": (chains.cycle_spec(4), 4, 0.58137, 740)}
_UNORDERED = pytest.mark.xfail(raises=AssertionError,
                               reason="brw._run_race processes cloud 0's first event "
                               "first in a branching race (its unheapified heap)")


@pytest.mark.parametrize("estimator,race", [
    *(pytest.param(brw_reference.simulate_intersection_reference, race,
                   id=f"reference-{race}") for race in CAPPED_RACES),
    pytest.param(brw.simulate_intersection, "complete3-cap4", marks=_UNORDERED,
                 id="main-complete3-cap4"),
    pytest.param(brw.simulate_intersection, "complete3-cap6", marks=_UNORDERED,
                 id="main-complete3-cap6"),
    pytest.param(brw.simulate_intersection, "cycle4-cap4", id="main-cycle4-cap4"),
])
def test_capped_race_estimates_match_the_exact_chain(estimator, race):
    spec, cap, exact, count = CAPPED_RACES[race]
    kernel = chains.build_family(spec)
    value, states = _exact_race_time(kernel, 0.5, cap)
    assert value == pytest.approx(exact, abs=5e-6) and states == count
    cfg = brw.BRWConfig(gamma=0.5, replicates=20_000, master_seed=1,
                        max_particles=cap, max_time=1e9)
    est = estimator(kernel, cfg)
    assert abs(est.mean - value) <= 4.0 * est.stderr, (est, value)


@pytest.mark.parametrize("spec,exact", [(chains.complete_spec(3), 0.55556),
                                        (chains.cycle_spec(4), 0.93452),
                                        (chains.complete_spec(4), 0.82500),
                                        (chains.cycle_spec(5), 1.38528)],
                         ids=["complete3", "cycle4", "complete4", "cycle5"])
def test_plain_intersection_matches_the_exact_chain(spec, exact):
    # two plain walks are the race with no splits, so the cap never binds
    kernel = chains.build_family(spec)
    value, _ = _exact_race_time(kernel, 0.0, 2)
    assert value == pytest.approx(exact, abs=5e-6)
    cfg = brw.BRWConfig(gamma=0.5, replicates=20_000, master_seed=1, max_time=1e9)
    est = brw.plain_intersection(kernel, cfg)
    assert est.censor_rate == 0.0
    assert abs(est.mean - value) <= 4.0 * est.stderr, (est, value)


def test_plain_intersection_tracks_sqrt_moment():
    # transitive case: expected plain intersection time is of order sqrt(Q)
    cfg = brw.BRWConfig(replicates=1500, master_seed=37)
    ratios = []
    for n in (8, 16, 32):
        kernel = chains.build_family(chains.complete_spec(n))
        decomp = spectral.decompose(kernel)
        est = brw.plain_intersection(kernel, cfg)
        root_q = math.sqrt(spectral.spectral_moment(decomp, 2))
        assert root_q == pytest.approx(math.sqrt(n - 1) * (n - 1) / n, rel=1e-12)
        ratios.append(est.mean / root_q)
    assert max(ratios) / min(ratios) < 2.0


def test_plain_walks_solve_no_gamma(monkeypatch, cycle8):
    # two plain walks never split, so a gamma left unset is not solved for
    cfg = brw.BRWConfig(replicates=200, master_seed=3)
    expected = brw.plain_intersection(cycle8, replace(cfg, gamma=0.5))

    def refuse(*args, **kwargs):
        raise AssertionError("gate eigensolve run for a plain walk")

    monkeypatch.setattr(brw, "_gate_solves", refuse)
    assert brw.plain_intersection(cycle8, cfg) == expected


@pytest.mark.parametrize("target", ["hit", "intersect", "plain"])
def test_experiment_takes_everything_from_the_analysis(monkeypatch, target):
    spec = chains.cycle_spec(8)
    cfg = brw.BRWConfig(replicates=200, master_seed=3)
    expected = brw.experiment(ChainAnalysis.from_spec(spec), target, cfg)
    warm = ChainAnalysis.from_spec(spec)
    warm.hitting  # solved now; no solver may run from here on
    # but the gate's two reads (gamma, t_rel and Q; the hit target), from
    # scipy's solves in one call of brw._gate_solves
    gate_calls, gate_solves = [], brw._gate_solves

    def counted(*args, **kwargs):
        gate_calls.append(kwargs)
        return gate_solves(*args, **kwargs)

    monkeypatch.setattr(brw, "_gate_solves", counted)

    def refuse(*args, **kwargs):
        raise AssertionError("exact quantity solved outside the analysis")

    for module in (spectral, analysis):
        monkeypatch.setattr(module, "decompose", refuse)
        monkeypatch.setattr(module, "character_decompose", refuse)
    for module in (hitting, analysis):
        monkeypatch.setattr(module, "hit_times", refuse)
    assert brw.experiment(warm, target, cfg) == expected
    assert gate_calls == [{"hit": target == "hit"}]


# ---------------------------------------------------------------------------
# sandwich plumbing (full-scale runs live in the acceptance suite)

def test_hit_sandwich_structure():
    specs = [chains.complete_spec(n) for n in (4, 8, 16)]
    result = brw.hit_time_sandwich(specs, brw.BRWConfig(replicates=400, master_seed=7))
    assert len(result.rows) == 3
    assert result.family == "complete"
    assert all(r.censor_rate <= 0.01 for r in result.rows)
    assert result.passed, result


def test_intersection_sandwich_structure():
    specs = [chains.complete_spec(n) for n in (4, 8, 16)]
    result = brw.intersection_sandwich(specs,
                                       brw.BRWConfig(replicates=400, master_seed=7))
    assert len(result.rows) == 3
    assert result.passed, result


def test_sandwich_rejects_short_sequences():
    with pytest.raises(ValueError):
        brw.hit_time_sandwich([chains.cycle_spec(8)], brw.BRWConfig(replicates=10))


def test_sandwich_rejects_repeated_sizes(monkeypatch):
    # one state count three times fits no trend; refused before any build
    def refuse(spec):
        raise AssertionError("a kernel was built")

    monkeypatch.setattr(brw, "build_family", refuse)
    with pytest.raises(InvalidSpec, match="3 distinct sizes"):
        brw.hit_time_sandwich([chains.torus_spec(2, 4)] * 3, brw.BRWConfig(replicates=10))


def test_intersection_sandwich_rejects_nontransitive():
    specs = [chains.dlp_spec(n, 0.5, 0.1) for n in (4, 6, 8)]
    with pytest.raises(InvalidSpec):
        brw.intersection_sandwich(specs, brw.BRWConfig(replicates=10, master_seed=1))
    # with a band given, the check on each built kernel is what rejects it
    with pytest.raises(InvalidSpec, match="transitive"):
        brw.intersection_sandwich(specs, brw.BRWConfig(replicates=10, master_seed=1),
                                  band=(0.5, 1.5))


def test_band_failure_detected():
    specs = [chains.complete_spec(n) for n in (4, 8, 16)]
    result = brw.hit_time_sandwich(specs, brw.BRWConfig(replicates=400, master_seed=7),
                                   band=(totally_off := 50.0, 100.0))
    assert not result.passed
    assert totally_off == 50.0


# ---------------------------------------------------------------------------
# pinned bits

# (kernel, case, estimator) -> (mean, stderr, censor_rate) as float.hex,
# recorded before the hit and intersection engines were merged into one
# race engine; the growth entry is its three means, then its three standard
# errors.  A change here means the RNG draw order or the event order moved.
PINNED_BITS = {
    ("complete4", "default", "hit"):
        ("0x1.daf3d6599bf50p-1", "0x1.9eb1c71db6f1fp-5", "0x0.0p+0"),
    ("complete4", "default", "intersection"):
        ("0x1.10e6380845912p-1", "0x1.e16cdd2d6a5e0p-6", "0x0.0p+0"),
    ("complete4", "default", "plain"):
        ("0x1.d4a0e6aa8a359p-1", "0x1.f814dd86d925dp-5", "0x0.0p+0"),
    ("complete4", "default", "hit_reference"):
        ("0x1.caeb128484ac9p-1", "0x1.7db43169f357ap-5", "0x0.0p+0"),
    ("complete4", "default", "intersection_reference"):
        ("0x1.f8fc62372daa9p-2", "0x1.eb9b9959343d6p-6", "0x0.0p+0"),
    ("complete4", "default", "growth"):
        ("0x1.d3a06d3a06d3ap+0", "0x1.c369d0369d037p+1", "0x1.9ed3a06d3a06dp+3",
         "0x1.1e8af03936b07p-4", "0x1.442067b0c8595p-3", "0x1.58649dc79de19p-1"),
    ("complete4", "particles", "hit"):
        ("0x1.abc3039fa6fc8p-2", "0x1.22161fc2a960ep-5", "0x1.6d3a06d3a06d4p-2"),
    ("complete4", "particles", "intersection"):
        ("0x1.098dcb63274d5p-2", "0x1.7791de9caba3dp-6", "0x1.62fc962fc9630p-2"),
    ("complete4", "particles", "plain"):
        ("0x1.d4a0e6aa8a359p-1", "0x1.f814dd86d925dp-5", "0x0.0p+0"),
    ("complete4", "particles", "hit_reference"):
        ("0x1.bd0b9c4cba796p-2", "0x1.3c932f096e5b8p-5", "0x1.8bf258bf258bfp-2"),
    ("complete4", "particles", "intersection_reference"):
        ("0x1.d45c26daaf545p-3", "0x1.5b21d3fb7a48fp-6", "0x1.5555555555555p-2"),
    ("complete4", "particles", "growth"):
        ("0x1.2c5f92c5f92c6p+1", "0x1.e4b17e4b17e4bp+1", "0x1.392c5f92c5f93p+2",
         "0x1.4ddcc1dbc364fp-4", "0x1.63abc3d5e5934p-4", "0x1.debd9afdd9287p-6"),
    ("complete4", "time", "hit"):
        ("0x1.fe8f51c93fe6ep-5", "0x1.6cc2650232bf2p-7", "0x1.47ae147ae147bp-1"),
    ("complete4", "time", "intersection"):
        ("0x1.5c0801bf19200p-4", "0x1.60fe9f618b4d8p-7", "0x1.2222222222222p-1"),
    ("complete4", "time", "plain"):
        ("0x1.5fde06952c522p-4", "0x1.6b539131dfe27p-7", "0x1.2e147ae147ae1p-1"),
    ("complete4", "time", "hit_reference"):
        ("0x1.8fc595fe4e142p-5", "0x1.551fd04b6840fp-7", "0x1.50369d0369d03p-1"),
    ("complete4", "time", "intersection_reference"):
        ("0x1.7ee00a2e6fdaap-4", "0x1.48de5aa5980f9p-7", "0x1.ddddddddddddep-2"),
    ("complete4", "pinned", "hit"):
        ("0x1.3fdfaf47eab43p+0", "0x1.8c70a1ad84c7ap-5", "0x0.0p+0"),
    ("complete4", "pinned", "intersection"):
        ("0x1.432eb9eb36f1bp-1", "0x1.6cad525360ff1p-6", "0x0.0p+0"),
    ("complete4", "pinned", "plain"):
        ("0x1.1996a8582b4cbp+0", "0x1.a986cd00bd1eep-5", "0x0.0p+0"),
    ("complete4", "pinned", "hit_reference"):
        ("0x1.41c0af71d014fp+0", "0x1.766de2126a24fp-5", "0x0.0p+0"),
    ("complete4", "pinned", "intersection_reference"):
        ("0x1.553e83440c202p-1", "0x1.a886b39d1995ap-6", "0x0.0p+0"),
    ("cycle8", "default", "hit"):
        ("0x1.1cd7c339d70fep+2", "0x1.c9a83d66ab33fp-3", "0x0.0p+0"),
    ("cycle8", "default", "intersection"):
        ("0x1.0bb5805210fcep+1", "0x1.b0e2a652b95e0p-4", "0x0.0p+0"),
    ("cycle8", "default", "plain"):
        ("0x1.a0ea04afdedecp+1", "0x1.6a5201b9711d9p-3", "0x0.0p+0"),
    ("cycle8", "default", "hit_reference"):
        ("0x1.179974ac7dd9ep+2", "0x1.e34dd5f161276p-3", "0x0.0p+0"),
    ("cycle8", "default", "intersection_reference"):
        ("0x1.03d9299565d8fp+1", "0x1.cb4a63e4cb1c4p-4", "0x0.0p+0"),
    ("cycle8", "default", "growth"):
        ("0x1.2740da740da74p+0", "0x1.4a3d70a3d70a4p+0", "0x1.b4e81b4e81b4fp+0",
         "0x1.76d2a8906dd1ep-6", "0x1.264d0e611095cp-5", "0x1.e7e784fc5b2efp-5"),
    ("cycle8", "particles", "hit"):
        ("0x1.901609e6d4193p-2", "0x1.adffbd85909e9p-5", "0x1.62fc962fc9630p-1"),
    ("cycle8", "particles", "intersection"):
        ("0x1.0456c7c33b3aep-2", "0x1.120ffde54043fp-5", "0x1.5a740da740da7p-1"),
    ("cycle8", "particles", "plain"):
        ("0x1.a0ea04afdedecp+1", "0x1.6a5201b9711d9p-3", "0x0.0p+0"),
    ("cycle8", "particles", "hit_reference"):
        ("0x1.c86e2ec55cc02p-2", "0x1.9dee7e9fb6601p-5", "0x1.4b17e4b17e4b1p-1"),
    ("cycle8", "particles", "intersection_reference"):
        ("0x1.2fd746234c923p-2", "0x1.4dc7fcd0cf9c1p-5", "0x1.5c28f5c28f5c3p-1"),
    ("cycle8", "particles", "growth"):
        ("0x1.2c5f92c5f92c6p+1", "0x1.e4b17e4b17e4bp+1", "0x1.392c5f92c5f93p+2",
         "0x1.4ddcc1dbc364fp-4", "0x1.63abc3d5e5934p-4", "0x1.debd9afdd9287p-6"),
    ("cycle8", "time", "hit"):
        ("0x1.7895d4f365408p-3", "0x1.342396d677126p-5", "0x1.8bf258bf258bfp-1"),
    ("cycle8", "time", "intersection"):
        ("0x1.35caa645336abp-2", "0x1.069a96dd53cc8p-5", "0x1.5555555555555p-1"),
    ("cycle8", "time", "plain"):
        ("0x1.27aaa7d8378bdp-2", "0x1.1202fbabc7194p-5", "0x1.62fc962fc9630p-1"),
    ("cycle8", "time", "hit_reference"):
        ("0x1.31ab2720d60bbp-3", "0x1.e7ea9ed560d85p-6", "0x1.8a3d70a3d70a4p-1"),
    ("cycle8", "time", "intersection_reference"):
        ("0x1.38f2f920eac70p-2", "0x1.e2f39e9116fb5p-6", "0x1.3d70a3d70a3d7p-1"),
    ("cycle8", "pinned", "hit"):
        ("0x1.db6e7706d2f11p+2", "0x1.a212d718084bcp-3", "0x0.0p+0"),
    ("cycle8", "pinned", "intersection"):
        ("0x1.b3931c1f8b8fep+1", "0x1.8dc60bec8c34bp-4", "0x0.0p+0"),
    ("cycle8", "pinned", "plain"):
        ("0x1.5adec2c753f2cp+2", "0x1.952a03af3382ap-3", "0x0.0p+0"),
    ("cycle8", "pinned", "hit_reference"):
        ("0x1.c1fe1ec47e9bfp+2", "0x1.ac34590c2f9c2p-3", "0x0.0p+0"),
    ("cycle8", "pinned", "intersection_reference"):
        ("0x1.babe732bd8000p+1", "0x1.74b78fa9eb6c4p-4", "0x0.0p+0"),
}

PINNED_TIME_CAPS = {"complete4": 0.4, "cycle8": 1.0}  # each censors some replicates


def _pinned_estimates(kernel, case, time_cap):
    x = kernel.n // 2
    cfg = brw.BRWConfig(replicates=300, master_seed=3)
    if case == "particles":
        cfg = replace(cfg, gamma=2.0, max_particles=5)
    elif case == "time":
        cfg = replace(cfg, max_time=time_cap)
    start, starts = (0, (0, x)) if case == "pinned" else (None, None)
    estimates = {
        "hit": brw.simulate_hit(kernel, x, cfg, initial_state=start),
        "intersection": brw.simulate_intersection(kernel, cfg, initial_states=starts),
        "plain": brw.plain_intersection(kernel, cfg, initial_states=starts),
        "hit_reference": brw_reference.simulate_hit_reference(
            kernel, x, cfg, initial_state=start),
        "intersection_reference": brw_reference.simulate_intersection_reference(
            kernel, cfg, initial_states=starts),
    }
    bits = {name: (est.mean.hex(), est.stderr.hex(), est.censor_rate.hex())
            for name, est in estimates.items()}
    if case in ("default", "particles"):
        mean, stderr = brw.growth_curve(kernel, cfg, [0.5, 1.0, 2.0])
        bits["growth"] = tuple(float(v).hex() for v in (*mean, *stderr))
    return bits


@pytest.mark.parametrize("case", ["default", "particles", "time", "pinned"])
@pytest.mark.parametrize("kernel_name", ["complete4", "cycle8"])
def test_estimates_pinned_bit_for_bit(request, kernel_name, case):
    got = _pinned_estimates(request.getfixturevalue(kernel_name), case,
                            PINNED_TIME_CAPS[kernel_name])
    expected = {est: bits for (k, c, est), bits in PINNED_BITS.items()
                if (k, c) == (kernel_name, case)}
    assert got == expected
    if case == "time":
        assert all(0.0 < float.fromhex(b[2]) < 1.0 for b in got.values())
