"""The dense exact layer forms each n x n matrix once: its traced peak is
pinned, and its outputs are bit for bit those of the textbook formulas
that form every intermediate as a new n x n array.  The character route
holds O(n) doubles, pinned too."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from mixbound import chains, mixing
from mixbound.analysis import ChainAnalysis
from mixbound.bounds import standard_sweep
from mixbound.errors import InvalidSpec
from mixbound.hitting import hit_times
from mixbound.mixing import MixingProfile
from mixbound.spectral import decompose


def _reference(kernel):
    """(lambdas, eigfuncs, eigfuncs_sq, hit_matrix, t_pi_to) formed one
    whole n x n array per step, with no block and no in-place update."""
    P, pi, n = kernel.P, kernel.pi, kernel.n
    L = np.eye(n) - P
    slow = np.flatnonzero(np.diagonal(P) > 0.5)
    L[slow, slow] = 0.0
    L[slow, slow] = -L[slow].sum(axis=1)
    q = np.sqrt(pi)
    S = (q[:, None] * L) / q[None, :]
    S = 0.5 * (S + S.T)
    w, V = scipy.linalg.eigh(S)
    w = w.copy()
    w[0] = 0.0
    F = V / q[:, None]
    A = np.abs(F)
    first = np.argmax(A > 1e-12 * A.max(axis=0), axis=0)
    F *= np.where(F[first, np.arange(n)] < 0, -1.0, 1.0)
    N = scipy.linalg.inv(S + np.outer(q, q))
    hit = np.diag(N)[None, :] / pi[None, :] - N / np.outer(q, q)
    np.fill_diagonal(hit, 0.0)
    return w, F, F**2, hit, pi @ hit


def _lazy(kernel):
    """The kernel 3/4 I + P/4: every row is slow (P(k,k) > 1/2)."""
    P = 0.75 * np.eye(kernel.n) + 0.25 * kernel.P
    return chains.TransitionKernel(n=kernel.n, P=P, pi=kernel.pi, label="lazy")


_RANDOM = chains.random_reversible_kernel(100, np.random.default_rng(0))


@pytest.mark.parametrize("kernel", [
    chains.build_family(chains.torus_spec(2, 8)),
    chains.build_family(chains.hypercube_spec(6)),
    chains.build_family(chains.cycle_spec(64)),
    chains.build_family(chains.complete_spec(20)),
    _RANDOM,
    _lazy(_RANDOM),
], ids=lambda k: k.label)
def test_exact_layer_bit_identical_to_whole_array_formulas(kernel):
    w, F, F2, hit, t_pi_to = _reference(kernel)
    d, h = decompose(kernel), hit_times(kernel)
    assert np.array_equal(d.lambdas, w)
    assert np.array_equal(d.eigfuncs, F)
    assert np.array_equal(d.eigfuncs_sq, F2)
    assert h.route == "spectral"
    assert np.array_equal(h.hit_matrix, hit)
    assert np.array_equal(h.t_pi_to, t_pi_to)
    assert h.t_hit == float(hit.max())


def _traced_peak(f) -> int:
    """Peak traced bytes allocated by f(), above what was live before."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analysis_with_hitting_peaks_at_dense_peak_arrays():
    # P is live before tracing starts; the BLOCK-row temporaries add about
    # half an array at n = 256, so one more n x n temporary would fail this.
    # The kernel has no group, so the analysis takes the dense route
    kernel = chains.random_reversible_kernel(256, np.random.default_rng(0))

    def analysis_with_hitting():
        analysis = ChainAnalysis.from_kernel(kernel)
        assert analysis.decomp.route == "dense" and analysis.hitting.route == "spectral"

    assert _traced_peak(analysis_with_hitting) <= chains.DENSE_PEAK_ARRAYS * 8 * kernel.n**2


def test_character_route_holds_order_n_doubles():
    # a kernel kept as its steps is built, certified, analysed, its hitting
    # times solved and swept without any n x n array: eigfuncs_sq is a view
    # of ones, the heat diagonals come from one row and P is never formed.
    # At n = 4096 one n x n array is 32 times the pin
    spec, n = chains.torus_spec(2, 64), 4096
    kernels = []

    def sweep():
        kernel = chains.build_family(spec)
        analysis = ChainAnalysis.from_kernel(kernel)
        assert analysis.hitting.route == "character"
        standard_sweep(analysis)
        kernels.append(kernel)

    assert _traced_peak(sweep) <= chains.CHARACTER_PEAK_VECTORS * 8 * n
    assert kernels[0].group is not None and kernels[0]._P is None


def test_tv_worst_holds_two_row_arrays():
    # the spectral weights and the heat rows, n x n each when every state
    # is scanned; the L1 distances are formed in the heat rows
    kernel = chains.random_reversible_kernel(256, np.random.default_rng(1))
    profile = MixingProfile(kernel, decompose(kernel))
    assert profile._balanced and len(kernel.scan_states) == kernel.n
    peak = _traced_peak(lambda: profile.tv_worst(1.0))
    assert peak <= 2.5 * 8 * kernel.n**2


def _drifted_profile():
    kernel = chains.build_family(chains.dlp_spec(200, 0.5, 0.05))
    return kernel, MixingProfile(kernel, decompose(kernel))


def test_heat_ladder_peaks_within_its_refusal_count():
    # three TV crossings build every rung up to the top bit of
    # floor(t_settled / h) and fill the prefix cache.  F and F^2 are live
    # before tracing starts, so the ladder's own arrays bound the peak;
    # P_u^T is sparse here, so one more n x n temporary would fail this
    kernel, profile = _drifted_profile()
    ladder = profile._ladder_arrays() - chains.DENSE_PEAK_ARRAYS

    def crossings():
        for eps in (0.125, 0.25, 0.5):
            profile.mixing_time("tv", eps)

    peak = _traced_peak(crossings)
    assert len(profile._rungs) == ladder - mixing._PREFIX_CACHE - mixing._LADDER_WORK
    assert len(profile._prefixes) == mixing._PREFIX_CACHE
    assert peak <= ladder * 8 * kernel.n**2


@pytest.mark.parametrize("refused", [False, True])
def test_heat_ladder_refusal_counts_its_arrays(monkeypatch, refused):
    # physical memory one page above or below the ladder's worst case plus
    # the dense peak; the refusal comes before the first rung is built
    kernel, profile = _drifted_profile()
    page, need = 4096, profile._ladder_arrays() * 8 * kernel.n**2
    pages = (need - 1) // page if refused else need // page + 1
    monkeypatch.setattr(chains.os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": page, "SC_PHYS_PAGES": pages}[name])
    if refused:
        with pytest.raises(InvalidSpec, match="physical memory"):
            profile.mixing_time("tv", 0.25)
        assert profile._rungs == []
    else:
        assert profile.mixing_time("tv", 0.25) > 0.0
