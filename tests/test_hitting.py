import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbound import chains, hitting, spectral
from mixbound.errors import InvalidSpec, SingularSystem

from conftest import (BENCHMARK_SPECS, SMALL_BENCHMARK_SPECS, gth_eliminate_unblocked,
                      random_kernels, two_cliques)


def _pair(spec):
    kernel = chains.build_family(spec)
    return kernel, hitting.hit_times(kernel)


def two_state_half():
    return chains.kernel_from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# expected hitting times

def test_complete4_hitting_values():
    kernel, h = _pair(chains.complete_spec(4))
    off = h.hit_matrix[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 3.0, atol=1e-10)  # geometric argument: 1/(1/3)
    assert h.t_hit == pytest.approx(3.0, abs=1e-10)
    assert h.t_target == pytest.approx(2.25, abs=1e-10)
    assert np.allclose(h.t_pi_to, 2.25, atol=1e-10)


def test_cycle4_gamblers_ruin_values():
    # distance-d hitting time on the n-cycle is d(n-d)
    _, h = _pair(chains.cycle_spec(4))
    assert h.hit_matrix[0, 1] == pytest.approx(3.0, abs=1e-10)
    assert h.hit_matrix[0, 2] == pytest.approx(4.0, abs=1e-10)
    assert h.t_target == pytest.approx(2.5, abs=1e-10)


def test_two_state_single_exponential_jump():
    h = hitting.hit_times(two_state_half())
    assert h.hit_matrix[0, 1] == pytest.approx(2.0, abs=1e-12)
    assert h.t_target == pytest.approx(1.0, abs=1e-12)


def test_hit_matrix_diagonal_exactly_zero():
    _, h = _pair(chains.torus_spec(2, 4))
    assert np.all(np.diag(h.hit_matrix) == 0.0)


@pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s.label())
def test_random_target_identity(spec):
    kernel, h = _pair(spec)
    spread = hitting.random_target_spread(kernel, h)
    assert spread <= 1e-8 * (1.0 + h.t_target)
    row = h.hit_matrix @ kernel.pi
    assert float(np.var(row)) <= 1e-16 * h.t_target**2


@pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s.label())
def test_eigentime_identity(spec):
    kernel, h = _pair(spec)
    decomp = spectral.decompose(kernel)
    assert hitting.eigentime_residual(h, decomp) <= 1e-8 * (1.0 + h.t_target)


@pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s.label())
def test_pi_start_times_match_spectral_moments(spec):
    kernel, h = _pair(spec)
    decomp = spectral.decompose(kernel)
    sigma1 = spectral.moment_vector(decomp, 1)
    rel = np.abs(h.t_pi_to - sigma1) / (1.0 + np.abs(sigma1))
    assert rel.max() <= 1e-8


def test_dual_route_agreement_on_random_kernels():
    for kernel in random_kernels(50, seed=4242):
        h = hitting.hit_times(kernel)
        decomp = spectral.decompose(kernel)
        sigma1 = spectral.moment_vector(decomp, 1)
        assert np.abs(h.t_pi_to - sigma1).max() <= 1e-8 * (1 + sigma1.max())
        assert hitting.eigentime_residual(h, decomp) <= 1e-9 * (1 + h.t_target)


@pytest.mark.parametrize("spec", SMALL_BENCHMARK_SPECS, ids=lambda s: s.label())
def test_target_time_between_pi_extremes(spec):
    # max_x t_pi_to <= t_hit <= t_target + max_x t_pi_to <= 2 max_x t_pi_to
    _, h = _pair(spec)
    top = float(h.t_pi_to.max())
    assert top <= h.t_hit * (1 + 1e-12)
    assert h.t_hit <= h.t_target + top + 1e-9 * (1 + h.t_hit)
    assert h.t_target + top <= 2 * top + 1e-9 * (1 + top)


def test_singular_system_detected_for_reducible_chain():
    P = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    bad = chains.TransitionKernel(n=4, P=P, pi=np.full(4, 0.25))
    with pytest.raises(SingularSystem):
        hitting.hit_times(bad)


def test_gth_route_reducible_chain_refused():
    # two 3-cliques: not tridiagonal, so only the GTH elimination sees it
    P = np.zeros((6, 6))
    P[:3, :3] = P[3:, 3:] = 1.0 / 3.0
    bad = chains.TransitionKernel(n=6, P=P, pi=np.full(6, 1.0 / 6.0))
    with pytest.raises(SingularSystem, match="reducible"):
        hitting._gth_hit_matrix(bad)


def test_gth_zero_pivot_past_the_first_panel_named():
    # two 40-state cliques: with target 0, state 40 is the first with no
    # outflow into the states before it, in the second panel eliminated
    P = two_cliques(40)
    n = P.shape[0]
    s = gth_eliminate_unblocked(P.copy())
    state = int(np.flatnonzero(~(s[1:] > 0.0))[-1] + 1)
    assert state < chains.index_blocks(n)[-1].start
    bad = chains.TransitionKernel(n=n, P=P, pi=np.full(n, 1.0 / n))
    with pytest.raises(SingularSystem, match=f"no outflow from state {state};"):
        hitting._gth_hit_matrix(bad)


def test_gth_route_matches_spectral_route():
    wide = chains.random_reversible_kernel(2 * chains.BLOCK + 5, np.random.default_rng(11))
    for kernel in random_kernels(20, max_n=30, seed=11) + [wide]:
        cols = np.arange(kernel.n)
        gth = hitting._gth_hit_matrix(kernel)
        ref = hitting._spectral_hit_matrix(kernel, cols, np.linalg.inv)
        off = ~np.eye(kernel.n, dtype=bool)
        assert (np.abs(gth - ref)[off] / ref[off]).max() <= 1e-10, kernel.label
        hitting._check_restricted_residual(kernel, gth, cols)


def test_route_is_recorded():
    for spec in (chains.dlp_spec(16, 0.5, 0.05), chains.dlp_spec(32, 0.4, 0.05, k=16)):
        assert _pair(spec)[1].route == "birth_death"
    assert _pair(chains.torus_spec(2, 4))[1].route == "spectral"
    for kernel in random_kernels(5, max_n=20, seed=7):
        if kernel.n > 2:  # every two-state kernel is tridiagonal
            assert hitting.hit_times(kernel).route == "spectral"
    # a drifted birth-death chain with its states shuffled is no longer
    # tridiagonal, and its hitting times (up to 4.6e24) need the fallback
    bd = chains.build_family(chains.dlp_spec(20, 0.5, 0.05))
    perm = np.random.default_rng(3).permutation(bd.n)
    shuffled = chains.kernel_from_matrix(bd.P[np.ix_(perm, perm)])
    h = hitting.hit_times(shuffled)
    assert h.route == "gth"
    ref = hitting.hit_times(bd).hit_matrix[np.ix_(perm, perm)]
    off = ~np.eye(bd.n, dtype=bool)
    assert (np.abs(h.hit_matrix - ref)[off] / ref[off]).max() <= 1e-10


@settings(max_examples=25, deadline=None)
@given(rates=st.integers(2, 60).flatmap(lambda n: st.lists(
    st.tuples(st.floats(1e-3, 0.5), st.floats(1e-3, 0.5)),
    min_size=n - 1, max_size=n - 1)))
def test_birth_death_route_matches_gth_property(rates):
    # rates[k] = (P(k,k+1), P(k+1,k)); pi can span 500^59 ~ 1e159
    n = len(rates) + 1
    P = np.zeros((n, n))
    for k, (up, down) in enumerate(rates):
        P[k, k + 1], P[k + 1, k] = up, down
    P[np.arange(n), np.arange(n)] = 1.0 - P.sum(axis=1)
    kernel = chains.kernel_from_matrix(P)
    h = hitting.hit_times(kernel)
    assert h.route == "birth_death"
    gth = hitting._gth_hit_matrix(kernel)
    off = ~np.eye(n, dtype=bool)
    rel = np.abs(h.hit_matrix - gth)[off] / gth[off]
    assert rel.max() <= 1e-10
    hitting._check_restricted_residual(kernel, h.hit_matrix, range(n))


# ---------------------------------------------------------------------------
# exact tails

def test_tail_at_zero_is_one_minus_pi():
    for spec in (chains.complete_spec(4), chains.dlp_spec(6, 0.5, 0.1)):
        kernel = chains.build_family(spec)
        for y in range(kernel.n):
            tail = hitting.hitting_tail_profile(kernel, y)
            assert tail.survival(0.0) == pytest.approx(1.0 - kernel.pi[y], rel=1e-10)


def test_tail_complete4_closed_form():
    # escape block of complete(4) has a single active rate 1/3
    kernel = chains.build_family(chains.complete_spec(4))
    prof = hitting.hitting_tail_profile(kernel, 2)
    for t in (0.0, 0.5, 1.0, 3.0):
        assert prof.survival(t) == pytest.approx(0.75 * math.exp(-t / 3.0), rel=1e-10)
    assert hitting.hitting_tail_profile(kernel, 2).survival(1.0) == pytest.approx(
        0.75 * math.exp(-1.0 / 3.0), rel=1e-10)
    for t in (-1.0, math.nan):  # NaN once slipped past t < 0 and returned NaN
        with pytest.raises(ValueError, match="nonnegative"):
            prof.survival(t)


def test_tail_monotone_and_exponentially_bounded():
    for spec in (chains.complete_spec(4), chains.cycle_spec(8),
                 chains.torus_spec(2, 4)):
        kernel = chains.build_family(spec)
        h = hitting.hit_times(kernel)
        grid = np.linspace(0.0, 3.0 * h.t_hit, 12)
        for y in range(kernel.n):
            prof = hitting.hitting_tail_profile(kernel, y)
            vals = [prof.survival(t) for t in grid]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            for t, v in zip(grid, vals):
                assert v <= math.exp(-t / h.t_hit) + 1e-12
            # +inf is read as the largest double; every kernel here has
            # rates above 1, which overflow there to exp(-inf) = 0 with no
            # warning
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert prof.survival(math.inf) == 0.0


def test_tail_mean_matches_pi_start_hitting_time():
    kernel = chains.build_family(chains.cycle_spec(6))
    h = hitting.hit_times(kernel)
    for y in (0, 3):
        prof = hitting.hitting_tail_profile(kernel, y)
        assert prof.mean() == pytest.approx(h.t_pi_to[y], rel=1e-10)


def test_unresolvable_dirichlet_rate_refused():
    # hitting state 0 of the strongly drifted birth-death chain has rate
    # ~1e-19 here, below eigh's resolution against the O(1) spectrum; the
    # profile must refuse rather than return noise-level rates
    kernel = chains.build_family(chains.dlp_spec(16, 0.5, 0.05))
    with pytest.raises(Exception) as info:
        hitting.hitting_tail_profile(kernel, 0)
    assert "Dirichlet" in str(info.value)


def test_second_moment_closed_forms():
    kernel = chains.build_family(chains.complete_spec(4))
    # single rate 1/3 with weight 3/4: E[T^2] = (3/4) * 2 * 3^2
    assert hitting.hitting_tail_profile(kernel, 0).second_moment() == pytest.approx(
        13.5, rel=1e-10)
    two = two_state_half()
    assert hitting.hitting_tail_profile(two, 1).second_moment() == pytest.approx(
        4.0, rel=1e-10)


@pytest.mark.parametrize("spec", [chains.cycle_spec(8), chains.complete_spec(8),
                                  chains.torus_spec(2, 4),
                                  chains.dlp_spec(8, 0.5, 0.1)],
                         ids=lambda s: s.label())
def test_second_moment_below_twice_squared_hit_time(spec):
    kernel = chains.build_family(spec)
    h = hitting.hit_times(kernel)
    for y in range(kernel.n):
        assert hitting.hitting_tail_profile(kernel, y).second_moment() \
            <= 2.0 * h.t_hit**2 + 1e-8


def test_aging_inequality_on_grid():
    # survival conditioned on age s dominates unconditioned survival;
    # grids scale with the per-target mean so tails stay representable
    for spec in (chains.cycle_spec(8), chains.dlp_spec(8, 0.5, 0.1)):
        kernel = chains.build_family(spec)
        for y in range(0, kernel.n, 2):
            prof = hitting.hitting_tail_profile(kernel, y)
            scale = prof.mean()
            ts = np.linspace(0.0, 3.0 * scale, 10)
            ss = np.linspace(0.0, 3.0 * scale, 10)
            for s in ss:
                hold = prof.survival(s) if s > 0 else 1.0
                for t in ts:
                    lhs = prof.survival(t + s) / hold
                    assert lhs >= prof.survival(t) - 1e-9


@settings(max_examples=30, deadline=None)
@given(p=st.floats(0.05, 0.95), q=st.floats(0.05, 0.95))
def test_two_state_closed_forms_property(p, q):
    # E_0[T_1] = 1/p, E_1[T_0] = 1/q, and the target time collapses to the
    # relaxation time 1/(p+q)
    P = np.array([[1 - p, p], [q, 1 - q]])
    kernel = chains.kernel_from_matrix(P)
    h = hitting.hit_times(kernel)
    assert h.hit_matrix[0, 1] == pytest.approx(1 / p, rel=1e-10)
    assert h.hit_matrix[1, 0] == pytest.approx(1 / q, rel=1e-10)
    assert h.t_target == pytest.approx(1 / (p + q), rel=1e-10)
    d = spectral.decompose(kernel)
    assert d.gap == pytest.approx(p + q, rel=1e-10)


# ---------------------------------------------------------------------------
# restricted-system residual contract

def _block_residual(P, hit, y):
    """|h - B h - 1| and its floor on the block B of P without state y."""
    n = P.shape[0]
    keep = np.arange(n) != y
    h = hit[keep, y]
    block = P[np.ix_(keep, keep)]
    floor = 4.0 * n * np.finfo(float).eps * (np.abs(h) + block @ np.abs(h) + 1.0)
    return np.abs(h - block @ h - 1.0), floor


def _shuffled_dlp(n, seed):
    kernel = chains.build_family(chains.dlp_spec(n, 0.5, 0.05))
    perm = np.random.default_rng(seed).permutation(n)
    return chains.kernel_from_matrix(kernel.P[np.ix_(perm, perm)])


@pytest.mark.parametrize("kernel", [_shuffled_dlp(20, 3),
                                    chains.build_family(chains.torus_spec(2, 8))],
                         ids=["dlp20-shuffled", "torus2-8"])
def test_restricted_residual_matches_block_form(kernel):
    h = hitting.hit_times(kernel)
    n = kernel.n
    cols = np.arange(n)
    r, floor = hitting._restricted_residual(kernel, h.hit_matrix, cols)
    # Both forms round differently; they must agree within the rounding
    # floor the contract already grants, which is far below its threshold.
    for y in cols:
        keep = np.arange(n) != y
        ref_r, ref_floor = _block_residual(kernel.P, h.hit_matrix, y)
        assert r[y, y] == 0.0 and floor[y, y] == 0.0
        assert np.all(np.abs(r[keep, y] - ref_r) <= ref_floor)
        assert np.allclose(floor[keep, y], ref_floor, rtol=1e-12, atol=0.0)


def test_perturbed_hit_column_fails_residual_check():
    kernel = chains.build_family(chains.torus_spec(2, 8))
    hit = hitting.hit_times(kernel).hit_matrix.copy()
    cols = np.linspace(0, kernel.n - 1, num=8, dtype=int)
    hitting._check_restricted_residual(kernel, hit, cols)
    hit[:, cols[3]] *= 1.0 + 1e-6
    with pytest.raises(SingularSystem, match=f"target {cols[3]} "):
        hitting._check_restricted_residual(kernel, hit, cols)


def test_nan_hit_column_fails_residual_check():
    # NaN > bound is False: the check must fail NaN, not pass it
    kernel = chains.build_family(chains.torus_spec(2, 8))
    hit = hitting.hit_times(kernel).hit_matrix.copy()
    cols = np.linspace(0, kernel.n - 1, num=8, dtype=int)
    hit[5, cols[2]] = np.nan
    with pytest.raises(SingularSystem, match=f"target {cols[2]} "):
        hitting._check_restricted_residual(kernel, hit, cols)


def test_hitting_time_beyond_double_range_refused_quietly():
    # pi(k) P(k,k+1) underflows to 0 on dlp(100, 1e-300, 0.3); the parent
    # returned t_hit = inf after six RuntimeWarnings
    kernel = chains.build_family(chains.dlp_spec(100, 1e-300, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSpec, match="not a finite double"):
            hitting.hit_times(kernel)
