import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from mixbound import chains, spectral
from mixbound.errors import InvalidSpec, NumericalFailure

from conftest import BENCHMARK_SPECS, SMALL_BENCHMARK_SPECS, reference_gap


def _decomp(spec):
    return spectral.decompose(chains.build_family(spec))


def two_state_half() -> chains.TransitionKernel:
    return chains.kernel_from_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))


# ---------------------------------------------------------------------------
# eigendecomposition

def test_complete4_spectrum():
    d = _decomp(chains.complete_spec(4))
    assert np.allclose(d.lambdas, [0.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-12)


def test_cycle4_spectrum_circulant():
    # 1 - cos(2 pi k / 4) for k = 0..3, sorted
    d = _decomp(chains.cycle_spec(4))
    assert np.allclose(d.lambdas, [0.0, 1.0, 1.0, 2.0], atol=1e-12)


def test_two_state_by_hand():
    d = spectral.decompose(two_state_half())
    assert np.allclose(d.lambdas, [0.0, 1.0], atol=1e-14)
    assert np.allclose(d.eigfuncs[:, 1], [1.0, -1.0], atol=1e-12)


def test_constant_eigenfunction_first():
    for spec in (chains.cycle_spec(7), chains.dlp_spec(6, 0.5, 0.1)):
        d = _decomp(spec)
        assert np.abs(d.eigfuncs[:, 0] - 1.0).max() < 1e-9


@pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s.label())
def test_eigenvalue_range_and_orthonormality(spec):
    d = _decomp(spec)
    assert d.lambdas[0] == 0.0
    assert d.lambdas[1] > 0.0
    assert d.lambdas[-1] <= 2.0 + 1e-9
    gram = (d.eigfuncs * d.pi[:, None]).T @ d.eigfuncs
    assert np.abs(gram - np.eye(d.n)).max() <= 1e-9


def test_hypercube_top_eigenvalue_is_two():
    d = _decomp(chains.hypercube_spec(4))
    assert d.lambdas[-1] == pytest.approx(2.0, abs=1e-12)


def test_reducible_chain_raises():
    # validate certifies connectivity; decompose still refuses a zero gap
    P = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    bad = chains.TransitionKernel(n=4, P=P, pi=np.full(4, 0.25))
    with pytest.raises(NumericalFailure, match="resolution"):
        spectral.decompose(bad)


@pytest.mark.parametrize("spec", [s for s in BENCHMARK_SPECS
                                  if chains.build_family(s).transitive],
                         ids=lambda s: s.label())
def test_laplacian_is_identity_minus_p_on_transitive_families(spec):
    kernel = chains.build_family(spec)
    # bytes, not values: the eigensolver reads the sign of a zero
    assert (spectral.laplacian(kernel).tobytes()
            == (np.eye(kernel.n) - kernel.P).tobytes())


def test_laplacian_is_identity_minus_p_below_half_diagonal():
    kernel = chains.random_reversible_kernel(50, np.random.default_rng(3))
    assert np.diagonal(kernel.P).max() <= 0.5
    assert (spectral.laplacian(kernel).tobytes()
            == (np.eye(kernel.n) - kernel.P).tobytes())


@pytest.mark.parametrize("lam", [1e-6, 1e-9, 1e-12])
def test_slow_chain_gap_matches_high_precision_reference(lam):
    # P(k,k) is within lam of 1, so 1 - P(k,k) alone would keep only the
    # absolute accuracy of the diagonal
    kernel = chains.build_family(chains.dlp_spec(20, lam, 0.3))
    assert spectral.decompose(kernel).gap == pytest.approx(reference_gap(kernel),
                                                          rel=1e-12, abs=0.0)


def test_weak_bottleneck_gap_is_accurate_to_the_resolution():
    # two 10-state cliques joined by one edge of weight 1e-11: the gap is
    # about 2e-12 against a top eigenvalue of 1, below the old absolute
    # 1e-10 cutoff but above the resolution.  It is accepted, and right to
    # the resolution in absolute terms, which is only about 1e-3 relative.
    m, edge = 10, 1e-11
    P = np.zeros((2 * m, 2 * m))
    P[:m, :m] = P[m:, m:] = 1.0 / m
    P[0, 0] = P[m, m] = 1.0 / m - edge
    P[0, m] = P[m, 0] = edge
    kernel = chains.kernel_from_matrix(P)
    d = spectral.decompose(kernel)
    tol = spectral.resolution(kernel.n, d.lambdas[-1])
    assert tol < d.gap < 1e-10
    assert abs(d.gap - reference_gap(kernel)) <= tol


@pytest.mark.parametrize("rows", [
    pytest.param([[0.5, 0.5], [0.6, 0.4000000000004]], id="lazy"),
    pytest.param([[0.0, 1.0], [1.0000000000004, 0.0]], id="bipartite"),
])
def test_rows_summing_to_one_within_struct_tol_decompose(rows):
    # validate accepts row sums within 1e-12 of 1; the resulting eigenvalue
    # a few 1e-13 below 0 (or above 2) lies inside the Gershgorin bounds
    kernel = chains.kernel_from_matrix(np.array(rows))
    d = spectral.decompose(kernel)
    assert d.lambdas[0] == 0.0 and d.lambdas[-1] < 2.0 + 1e-12


def test_heat_evaluators_check_their_arguments():
    # before, heat_kernel_row(decomp, -1, 1.0) on dlp(8, 0.5, 0.2) returned
    # state 7's row, and on cycle(8) a state of -1 or 8 raised numpy's
    # ValueError; t = -3 gave entries 98.07, -79.50 and 45.53, NaN gave NaN,
    # +inf NaN with a RuntimeWarning, and heat_diag_ratio(decomp, -50.0, 0)
    # read 2.9e21.  +inf is the limit: rows pi, diagonal ratios 1
    for spec in (chains.dlp_spec(8, 0.5, 0.2), chains.cycle_spec(8)):
        d = _decomp(spec)
        for x in (-1, 8, 1.0, "0", [0, -1], [8], [0.0]):
            with pytest.raises(InvalidSpec, match="heat_kernel_row"):
                spectral.heat_kernel_row(d, x, 1.0)
            if np.ndim(x) == 0:
                with pytest.raises(InvalidSpec, match="heat_diag_ratio"):
                    spectral.heat_diag_ratio(d, 1.0, x)
        for t in (-3.0, -50.0, -5e-324, math.nan, -math.inf):
            for evaluate in (lambda t: spectral.heat_kernel_row(d, 0, t),
                             lambda t: spectral.heat_kernel_row(d, [0, 3], t),
                             lambda t: spectral.heat_diag_ratio(d, t, 0),
                             lambda t: spectral.heat_diag_ratio(d, t)):
                with pytest.raises(ValueError, match="nonnegative"):
                    evaluate(t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = spectral.heat_kernel_row(d, [0, 3], math.inf)
            row = spectral.heat_kernel_row(d, 7, math.inf)
            ratios = spectral.heat_diag_ratio(d, math.inf)
            ratio = spectral.heat_diag_ratio(d, math.inf, 7)
        pi = chains.build_family(spec).pi
        assert np.abs(rows - pi).max() <= 1e-12 and np.abs(row - pi).max() <= 1e-12
        assert np.abs(ratios - 1.0).max() <= 1e-12 and abs(ratio - 1.0) <= 1e-12


def test_reconstruction_matches_matrix_exponential():
    kernel = chains.build_family(chains.torus_spec(2, 4))
    d = spectral.decompose(kernel)
    L = np.eye(kernel.n) - kernel.P
    for t in (0.3, 1.7):
        H = expm(-t * L)
        for x in (0, 5, 11):
            row = spectral.heat_kernel_row(d, x, t)
            assert np.abs(row - H[x]).max() < 1e-8
        rows = spectral.heat_kernel_row(d, [0, 5, 11], t)
        assert np.abs(rows - H[[0, 5, 11]]).max() < 1e-8


# ---------------------------------------------------------------------------
# heat diagonal

def test_heat_diag_complete4_values():
    d = _decomp(chains.complete_spec(4))
    assert spectral.heat_diag_ratio(d, 0.0, x=0) == pytest.approx(4.0, abs=1e-10)
    assert spectral.heat_diag_ratio(d, 0.75, x=0) == pytest.approx(
        1 + 3 * math.exp(-1), rel=1e-12)


def test_heat_diag_ergodic_limit():
    for spec in (chains.cycle_spec(6), chains.dlp_spec(8, 0.5, 0.1)):
        d = _decomp(spec)
        for x in range(d.n):
            assert abs(spectral.heat_diag_ratio(d, 1e6, x=x) - 1.0) < 1e-9


@pytest.mark.parametrize("spec", SMALL_BENCHMARK_SPECS, ids=lambda s: s.label())
def test_heat_diag_strictly_decreasing(spec):
    d = _decomp(spec)
    grid = np.geomspace(1e-3, 50.0, 25) * d.t_rel
    for x in (0, d.n // 2):
        vals = [spectral.heat_diag_ratio(d, t, x=x) for t in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("spec", SMALL_BENCHMARK_SPECS, ids=lambda s: s.label())
def test_heat_diag_exponential_decay_bound(spec):
    # centered diagonal contracts by exp(-s/t_rel) over any window s
    d = _decomp(spec)
    ts = np.array([0.1, 0.5, 1.0, 3.0]) * d.t_rel
    ss = np.array([0.2, 1.0, 2.5]) * d.t_rel
    for x in range(0, d.n, max(1, d.n // 8)):
        for t in ts:
            base = spectral.heat_diag_ratio(d, t, x=x) - 1.0
            for s in ss:
                shifted = spectral.heat_diag_ratio(d, t + s, x=x) - 1.0
                assert shifted <= math.exp(-s * d.gap) * base + 1e-12 * (1 + base)


# ---------------------------------------------------------------------------
# moment functionals

def test_spectral_moment_closed_forms():
    d4 = _decomp(chains.complete_spec(4))
    assert spectral.spectral_moment(d4, 1) == pytest.approx(2.25, abs=1e-12)
    assert spectral.spectral_moment(d4, 2) == pytest.approx(27 / 16, abs=1e-12)
    dc = _decomp(chains.cycle_spec(4))
    assert spectral.spectral_moment(dc, 1) == pytest.approx(2.5, abs=1e-12)


def test_heat_moment_transitive_equals_spectral_moment():
    d = _decomp(chains.complete_spec(4))
    assert spectral.heat_moment_all(d, 1)[2] == pytest.approx(2.25, rel=1e-12)
    assert spectral.heat_moment_all(d, 2)[1] == pytest.approx(1.6875, rel=1e-12)


def test_heat_moment_two_state():
    d = spectral.decompose(two_state_half())
    assert spectral.heat_moment_all(d, 1)[0] == pytest.approx(1.0, rel=1e-12)


def test_windowed_moment_closed_forms():
    d4 = _decomp(chains.complete_spec(4))
    # single spectral point: window mass is P(Gamma(1,1) <= 2)
    assert spectral.heat_moment_windowed_all(d4, 1)[0] == pytest.approx(
        2.25 * (1 - math.exp(-2)), rel=1e-12)
    d2 = spectral.decompose(two_state_half())
    assert spectral.heat_moment_windowed_all(d2, 2)[0] == pytest.approx(
        1 - 5 * math.exp(-4), rel=1e-12)


def test_moment_vectors_share_one_memo():
    # the windowed moment of order 1 is the order-1 vector at window
    # 2 t_rel, which the head-window reports read at M = 2
    d = _decomp(chains.dlp_spec(24, 0.5, 0.05))
    assert spectral.moment_vector(d, 1, 2.0 * d.t_rel) is \
        spectral.heat_moment_windowed_all(d, 1)
    assert spectral.moment_vector(d, 3) is spectral.heat_moment_all(d, 3)
    assert sorted(d._moments) == [(1, 2.0 * d.t_rel), (3, None)]


def test_moments_refused_only_where_they_overflow():
    # pi_min is about 1e-307: sigma_x of order 4 overflows at the light
    # end, while q1..q4 and sigma_x of order 3 fit in a double
    d = _decomp(chains.dlp_spec(241, 0.5, 0.05))
    assert all(np.isfinite(spectral.spectral_moment(d, ell)) for ell in range(1, 5))
    assert np.isfinite(spectral.heat_moment_all(d, 3)).all()
    assert np.isfinite(spectral.heat_moment_windowed_all(d, 3)).all()
    for moments in (spectral.heat_moment_all, spectral.heat_moment_windowed_all):
        with pytest.raises(InvalidSpec):
            moments(d, 4)
    # t_rel^600 itself is beyond the double range on the 8-cycle
    with pytest.raises(InvalidSpec):
        spectral.spectral_moment(_decomp(chains.cycle_spec(8)), 600)


def test_gamma_window_mass_values():
    assert spectral.gamma_window_mass(1) == pytest.approx(1 - math.exp(-2), rel=1e-14)
    assert spectral.gamma_window_mass(2) == pytest.approx(1 - 5 * math.exp(-4), rel=1e-14)
    # quadrature oracle for the order-5 value
    dens = lambda s: s**4 * math.exp(-s) / 24.0
    oracle, _ = quad(dens, 0.0, 10.0, epsabs=1e-13)
    assert spectral.gamma_window_mass(5) == pytest.approx(oracle, rel=1e-10)
    assert spectral.gamma_window_mass(5) == pytest.approx(0.970747, abs=5e-7)


@settings(max_examples=40, deadline=None)
@given(ell=st.integers(1, 8), z=st.floats(1e-3, 600.0))
def test_gamma_series_matches_scipy(ell, z):
    mine = spectral.lower_gamma_regularized(ell, z)
    ref = float(scipy.special.gammainc(ell, z))
    assert mine == pytest.approx(ref, rel=1e-9, abs=1e-12)


# (ell, z) -> what the exact finite series 1 - e^{-z} sum_{k<ell} z^k/k!
# read there before the tails were summed
_GAMMA_EXAMPLES = {
    "z-past-745-near-ell": (1000, 800.0),  # 1.0, true 5.5e-12
    "z-past-745-below-ell": (800, 746.0),  # 1.0, true 0.0261
    "series-overflow": (1000, 740.0),  # -inf
    "cancelled-1000": (1000, 700.0),  # -1.3e-15, true 1.0e-26
    "cancelled-100": (100, 30.0),  # -2.2e-16, true 7.3e-24
    "small-z": (5, 0.01),  # 2.3e-4 relative off
}


def _check_lower_gamma(ell, z):
    """Within 1e-15 of mpmath's regularized gamma, and within 1e-12
    relative where that is a normal double below 1/2."""
    with mpmath.workdps(40):
        ref = float(mpmath.gammainc(ell, 0, z, regularized=True))
    got = spectral.lower_gamma_regularized(ell, z)
    assert 0.0 <= got <= 1.0, (ell, z, got)
    assert abs(got - ref) <= 1e-15, (ell, z, got, ref)
    if sys.float_info.min <= ref < 0.5:
        assert abs(got - ref) <= 1e-12 * ref, (ell, z, got, ref)


@pytest.mark.parametrize("ell,z", list(_GAMMA_EXAMPLES.values()),
                         ids=list(_GAMMA_EXAMPLES))
def test_lower_gamma_regularized_examples(ell, z):
    _check_lower_gamma(ell, z)


def test_lower_gamma_regularized_matches_mpmath_up_to_order_1000():
    for ell in (*range(1, 13), 15, 22, 23, 24, 30, 50, 100, 200, 500, 999, 1000):
        ratios = (0.01, 0.1, 0.5, 0.8, 0.9, 0.97, 1.0, 1.03, 1.1, 1.25, 1.5, 2.0, 4.0)
        for z in {*(r * ell for r in ratios), ell - 1.0, ell - 0.5, ell + 1.0,
                  1e-3, 0.3, 1.0, 700.5, 746.0, 1e4}:
            if z > 0.0:
                _check_lower_gamma(ell, z)


def test_lower_gamma_keeps_the_series_bits_the_sweep_reads():
    # the windowed moments and gamma_window_mass read orders 1 to 4 at z of
    # about 2 ell and above, the head windows orders 1 and 2 at z of about
    # 1 and above (M t_rel lambda_i, which rounding can put below 1)
    def series(ell, z):
        if z > 745.0:
            return 1.0
        term = acc = 1.0
        for k in range(1, ell):
            term *= z / k
            acc += term
        return 1.0 - math.exp(-z) * acc

    for ell in (1, 2, 3, 4):
        low = 1.0 - 1e-12 if ell <= 2 else 2.0 * ell * (1.0 - 1e-12)
        for z in np.geomspace(low, 2000.0, 400):
            assert spectral.lower_gamma_regularized(ell, z) == series(ell, z), (ell, z)


def test_lower_gamma_regularized_refuses_nan():
    with pytest.raises(ValueError, match="number"):
        spectral.lower_gamma_regularized(3, math.nan)
    assert spectral.lower_gamma_regularized(1000, math.inf) == 1.0
    assert spectral.lower_gamma_regularized(1000, 0.0) == 0.0


# ---------------------------------------------------------------------------
# quadrature oracle for the integral definitions

def _oracle_moments(kernel, x, ell, window=None):
    """Adaptive quadrature of int s^{l-1} (H_s(x,x)-pi(x)) / ((l-1)! pi(x)) ds
    with H from the matrix exponential; independent of the eigh path."""
    L = np.eye(kernel.n) - kernel.P
    pi_x = kernel.pi[x]
    fact = math.factorial(ell - 1)

    def integrand(s):
        return s ** (ell - 1) * (expm(-s * L)[x, x] - pi_x) / (fact * pi_x)

    if window is None:
        # e^{-150} tail is far below the 1e-6 comparison tolerance
        gap = -np.log(np.sort(np.abs(np.linalg.eigvals(kernel.P)))[-2])
        window = 150.0 / max(gap, 1e-3)
    # oracle accuracy 1e-9 relative, three orders below the comparison
    val, err = quad(integrand, 0.0, window, epsabs=0.0, epsrel=1e-9, limit=500)
    assert err <= 1e-7 * abs(val) + 1e-12
    return val


@pytest.mark.parametrize("seed", range(20))
def test_moments_match_quadrature_oracle(seed):
    rng = np.random.default_rng(777 + seed)
    n = int(rng.integers(3, 13))
    kernel = chains.random_reversible_kernel(n, rng)
    d = spectral.decompose(kernel)
    x = int(rng.integers(0, n))
    ell = int(rng.integers(1, 4))
    sig = spectral.heat_moment_all(d, ell)[x]
    rho = spectral.heat_moment_windowed_all(d, ell)[x]
    assert sig == pytest.approx(_oracle_moments(kernel, x, ell), rel=1e-6)
    assert rho == pytest.approx(
        _oracle_moments(kernel, x, ell, window=2 * ell * d.t_rel), rel=1e-6)


def test_windowed_moment_quadrature_on_cycle():
    kernel = chains.build_family(chains.cycle_spec(6))
    d = spectral.decompose(kernel)
    oracle = _oracle_moments(kernel, 0, 1, window=2 * d.t_rel)
    assert spectral.heat_moment_windowed_all(d, 1)[0] == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# window sandwich and aggregation identities

@pytest.mark.parametrize("spec", SMALL_BENCHMARK_SPECS, ids=lambda s: s.label())
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_windowed_moment_sandwich(spec, ell):
    d = _decomp(spec)
    kappa = spectral.gamma_window_mass(ell)
    sigma = spectral.heat_moment_all(d, ell)
    rho = spectral.heat_moment_windowed_all(d, ell)
    assert np.all(rho <= sigma * (1 + 1e-12))
    assert np.all(kappa * sigma <= rho * (1 + 1e-12))


@pytest.mark.parametrize("spec", SMALL_BENCHMARK_SPECS, ids=lambda s: s.label())
@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_pi_average_of_heat_moments_is_spectral_moment(spec, ell):
    kernel = chains.build_family(spec)
    d = spectral.decompose(kernel)
    lhs = float(kernel.pi @ spectral.heat_moment_all(d, ell))
    rhs = spectral.spectral_moment(d, ell)
    assert abs(lhs - rhs) <= 1e-8 * (1 + rhs)


def test_eigenvalue_clustering_diagnostic():
    # deviation from the rate scales like sqrt(eps), so shrinking eps
    # tightens the cluster
    tight = _decomp(chains.dlp_spec(24, 0.5, 1e-5))
    loose = _decomp(chains.dlp_spec(24, 0.5, 0.2))
    assert spectral.eigenvalue_clustering(tight, 0.5, rel_tol=0.05) == 1.0
    assert spectral.eigenvalue_clustering(loose, 0.5, rel_tol=0.05) < 1.0


def test_split_dlp_clusters_at_both_rates():
    d = _decomp(chains.dlp_spec(40, 0.25, 0.001, k=10))
    near_lam = spectral.eigenvalue_clustering(d, 0.25, rel_tol=0.1)
    near_half = spectral.eigenvalue_clustering(d, 0.5, rel_tol=0.1)
    assert near_lam >= 9 / 39  # the k lam-rows keep their eigenvalues near lam
    assert near_half >= 0.5


def test_heat_row_at_zero_is_point_mass():
    kernel = chains.build_family(chains.cycle_spec(7))
    d = spectral.decompose(kernel)
    for x in (0, 3):
        row = spectral.heat_kernel_row(d, x, 0.0)
        expect = np.zeros(7)
        expect[x] = 1.0
        assert np.abs(row - expect).max() < 1e-10


def test_heat_row_sums_to_one_at_all_times():
    kernel = chains.build_family(chains.torus_spec(2, 3))
    d = spectral.decompose(kernel)
    for t in (0.1, 1.0, 10.0):
        row = spectral.heat_kernel_row(d, 4, t)
        assert row.sum() == pytest.approx(1.0, abs=1e-12)
        assert row.min() >= -1e-12
