import math
import warnings
from bisect import bisect
from dataclasses import replace
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbound import analysis, brw, brw_reference, chains, hitting, spectral
from mixbound.analysis import ChainAnalysis
from mixbound.errors import AllCensored, InvalidSpec


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


def test_invalid_target_rejected(complete4):
    with pytest.raises(InvalidSpec):
        brw.simulate_hit(complete4, 7, brw.BRWConfig(replicates=10))


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


def test_growth_curve_single_replicate(cycle8):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mean, stderr = brw.growth_curve(cycle8, brw.BRWConfig(replicates=1), [1.0, 2.0])
    assert (mean >= 1.0).all() and stderr.tolist() == [0.0, 0.0]


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
        cfg = brw.fill_config(ChainAnalysis.from_kernel(kernel),
                              brw.BRWConfig(replicates=3000, master_seed=31))
        x = kernel.n // 2
        assert pooled_gap(brw.simulate_hit(kernel, x, cfg),
                          brw_reference.simulate_hit_reference(kernel, x, cfg)) <= 3.0
        assert pooled_gap(brw.simulate_intersection(kernel, cfg),
                          brw_reference.simulate_intersection_reference(kernel, cfg)) <= 3.0


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


@pytest.mark.parametrize("target", ["hit", "intersect", "plain"])
def test_experiment_takes_everything_from_the_analysis(monkeypatch, target):
    spec = chains.cycle_spec(8)
    cfg = brw.BRWConfig(replicates=200, master_seed=3)
    expected = brw.experiment(ChainAnalysis.from_spec(spec), target, cfg)
    warm = ChainAnalysis.from_spec(spec)
    warm.hitting  # solved now; no solver may run from here on

    def refuse(*args, **kwargs):
        raise AssertionError("exact quantity solved outside the analysis")

    for module in (spectral, analysis):
        monkeypatch.setattr(module, "decompose", refuse)
    for module in (hitting, analysis):
        monkeypatch.setattr(module, "hit_times", refuse)
    assert brw.experiment(warm, target, cfg) == expected


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
