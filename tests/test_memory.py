"""The dense exact layer forms each n x n matrix once: its traced peak is
pinned, and its outputs are bit for bit those of the textbook formulas
that form every intermediate as a new n x n array."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from mixbound import chains
from mixbound.analysis import ChainAnalysis
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
    # half an array at n = 256, so one more n x n temporary would fail this
    kernel = chains.build_family(chains.torus_spec(2, 16))
    peak = _traced_peak(lambda: ChainAnalysis.from_kernel(kernel).hitting)
    assert peak <= chains.DENSE_PEAK_ARRAYS * 8 * kernel.n**2


def test_tv_worst_holds_two_row_arrays():
    # the spectral weights and the heat rows, n x n each when every state
    # is scanned; the L1 distances are formed in the heat rows
    kernel = chains.random_reversible_kernel(256, np.random.default_rng(1))
    profile = MixingProfile(kernel, decompose(kernel))
    assert profile._balanced and len(kernel.scan_states) == kernel.n
    peak = _traced_peak(lambda: profile.tv_worst(1.0))
    assert peak <= 2.5 * 8 * kernel.n**2
