"""The dense exact layer forms each n x n matrix once: its traced peak is
pinned, its peak RSS, which counts LAPACK's untraced buffers, is within
`chains.DENSE_PEAK_ARRAYS`, and its outputs are bit for bit those of the
textbook formulas that form every intermediate as a new n x n array.  The
character route holds O(n) doubles, pinned too."""

import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mixbound import chains, cli, hitting, mixing
from mixbound.analysis import ChainAnalysis
from mixbound.bounds import standard_sweep
from mixbound.errors import InvalidSpec
from mixbound.hitting import hit_times
from mixbound.mixing import MixingProfile
from mixbound.spectral import decompose


def _reference(kernel):
    """(lambdas, eigfuncs, hit_matrix, t_pi_to) formed one whole n x n
    array per step, with no block and no in-place update."""
    P, pi, n = kernel.P, kernel.pi, kernel.n
    L = np.eye(n) - P
    slow = np.flatnonzero(np.diagonal(P) > 0.5)
    L[slow, slow] = 0.0
    L[slow, slow] = -L[slow].sum(axis=1)
    q = np.sqrt(pi)
    S = (q[:, None] * L) / q[None, :]
    S = 0.5 * (S + S.T)
    w, V = np.linalg.eigh(S)
    w = w.copy()
    w[0] = 0.0
    F = V / q[:, None]
    A = np.abs(F)
    first = np.argmax(A > 1e-12 * A.max(axis=0), axis=0)
    F *= np.where(F[first, np.arange(n)] < 0, -1.0, 1.0)
    N = np.linalg.inv(S + np.outer(q, q))
    hit = np.diag(N)[None, :] / pi[None, :] - N / np.outer(q, q)
    np.fill_diagonal(hit, 0.0)
    return w, F, hit, pi @ hit


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
    w, F, hit, t_pi_to = _reference(kernel)
    d, h = decompose(kernel), hit_times(kernel)
    assert np.array_equal(d.lambdas, w)
    assert np.array_equal(d.eigfuncs, F)
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


# Peak RSS (VmHWM) of a fresh process above the loaded P while it analyses
# the kernel and reads its hitting times, in n x n arrays: the tracer misses
# the copies and workspaces numpy's eigh and inv allocate inside LAPACK.
# ru_maxrss would not do: after exec it keeps the forking parent's peak.
_PEAK_RSS = """
import numpy as np
from mixbound import chains
from mixbound.analysis import ChainAnalysis
P, pi = np.load("P.npy"), np.load("pi.npy")
kernel = chains.TransitionKernel(P.shape[0], P, pi=pi, label="k")
del P
ChainAnalysis.from_kernel(chains.random_reversible_kernel(
    8, np.random.default_rng(1))).hitting  # LAPACK and BLAS loaded
def status(key):  # in KiB
    return next(int(line.split()[1]) for line in open("/proc/self/status")
                if line.startswith(key))
base = status("VmRSS")
analysis = ChainAnalysis.from_kernel(kernel)
assert analysis.decomp.route == "dense" and analysis.hitting.route == "spectral"
print((status("VmHWM") - base) * 1024 / (8 * kernel.n**2))
"""


def test_analysis_with_hitting_peaks_at_dense_peak_arrays(tmp_path):
    # traced, with P live before tracing starts: F, S + q q^T and its
    # inverse, with the BLOCK-row temporaries, read 3.02 arrays beyond P
    # at n = 256, so one more n x n temporary would fail this.  The kernel
    # has no group, so the analysis takes the dense route
    kernel = chains.random_reversible_kernel(256, np.random.default_rng(0))

    def analysis_with_hitting():
        analysis = ChainAnalysis.from_kernel(kernel)
        assert analysis.decomp.route == "dense" and analysis.hitting.route == "spectral"

    array = 8 * kernel.n**2
    assert _traced_peak(analysis_with_hitting) <= 3.5 * array
    # in RSS, n = 1024: 5.52 arrays beyond P at one BLAS thread (5.71 at
    # two), so with P within DENSE_PEAK_ARRAYS.  One thread, as the
    # threads' buffers do not grow with n
    big = chains.random_reversible_kernel(1024, np.random.default_rng(0))
    np.save(tmp_path / "P.npy", big.P)
    np.save(tmp_path / "pi.npy", big.pi)
    env = dict(os.environ, PYTHONPATH=str(Path(chains.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    res = subprocess.run([sys.executable, "-c", _PEAK_RSS], capture_output=True,
                         text=True, cwd=tmp_path, env=env, timeout=600)
    assert res.returncode == 0, res.stderr
    assert float(res.stdout) + 1.0 <= chains.DENSE_PEAK_ARRAYS


def _shuffled_dlp(n):
    """dlp(n, 0.5, 0.05) with its states shuffled: no longer tridiagonal,
    and its hitting times need the GTH route."""
    bd = chains.build_family(chains.dlp_spec(n, 0.5, 0.05))
    perm = np.random.default_rng(3).permutation(n)
    return chains.kernel_from_matrix(bd.P[np.ix_(perm, perm)])


@pytest.mark.parametrize("kernel,route", [
    (chains.build_family(chains.dlp_spec(200, 0.5, 0.05)), "birth_death"),
    (chains.random_reversible_kernel(256, np.random.default_rng(0)), "spectral"),
    (_shuffled_dlp(48), "gth"),
], ids=["birth_death", "spectral", "gth"])
def test_hit_times_returns_with_no_n_by_n_array_live(kernel, route):
    # the summary keeps t_pi_to and its scalars; hit_matrix solves the same
    # route again when read, with the same calls and so the same bits.
    # About 0.01 arrays stay live (1.01 with the matrix kept)
    summaries = []
    tracemalloc.start()
    try:
        summaries.append(hit_times(kernel))
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert live < 0.5 * 8 * kernel.n**2
    (h,) = summaries
    assert h.route == route
    assert np.array_equal(kernel.pi @ h.hit_matrix, h.t_pi_to)
    assert h.t_hit == float(h.hit_matrix.max())


def _swept_analysis():
    """The dense analysis of random_reversible_kernel(256) with its hitting
    times solved: P and F are live."""
    analysis = ChainAnalysis.from_kernel(
        chains.random_reversible_kernel(256, np.random.default_rng(0)))
    assert analysis.hitting.route == "spectral"
    return analysis


@pytest.mark.parametrize("evaluate", [
    lambda p: p.l2_mixing_times(0.5),
    lambda p: p.mixing_time("linf", 0.5),
    lambda p: p.linf_distance(1.0),
], ids=["l2x", "linf", "linf_distance"])
def test_spectral_crossings_form_no_n_by_n_array(evaluate):
    # the terms are formed BLOCK rows at a time and only their row sums
    # kept: 0.68 (l2x) and 0.52 (linf) arrays at n = 256, where the
    # rows x (n - 1) term arrays read 4.02 and 1.26
    analysis = _swept_analysis()
    assert _traced_peak(lambda: evaluate(analysis.profile)) < 8 * analysis.kernel.n**2


def test_sweep_holds_one_square_beyond_the_analysis():
    # beside P and F the sweep's peak is one square of F, formed for a
    # moment vector of one order and window, and the BLOCK-row temporaries:
    # 1.14 arrays at n = 256 (2.18 with F^2 kept and the TV rows of every
    # scanned state at once).  One more n x n temporary would fail this
    analysis = _swept_analysis()
    assert _traced_peak(lambda: standard_sweep(analysis)) <= 1.5 * 8 * analysis.kernel.n**2


@pytest.mark.parametrize("command,flags", [
    ("verify", ["--ell", "1,2,3,4", "--eps", "0.25,0.5,1.0"]),
    ("analyze", []),
    ("profile", []),
], ids=["verify", "analyze", "profile"])
def test_command_drops_the_custom_spec_matrix(tmp_path, command, flags):
    # the parsed matrix is dropped once the kernel holds its own copy of P,
    # so a command holds P, F and S + q q^T and its inverse, or one square
    # of F: 3.10-4.16 arrays at n = 256 traced around cli.main (3.27-3.75
    # when scipy inverted in place).  One more n x n array would fail this
    n = 256
    P = chains.random_reversible_kernel(n, np.random.default_rng(0)).P
    np.savetxt(tmp_path / "custom.csv", P, fmt="%.17g", delimiter=",")
    (tmp_path / "custom.spec").write_text("family=custom\nmatrix=custom.csv\n")
    del P
    argv = [command, "--spec", str(tmp_path / "custom.spec"), *flags,
            "--out", str(tmp_path / "out.csv")]
    codes = []
    assert _traced_peak(lambda: codes.append(cli.main(argv))) <= 4.5 * 8 * n**2
    assert codes == [cli.EXIT_OK]


def test_stationary_holds_one_array_beyond_P():
    # the eliminated copy of P, the support mask (an eighth of an array)
    # and the panels' BLOCK x n temporaries: 1.37 arrays at n = 256, so one
    # more n x n temporary would fail this
    P = chains.random_reversible_kernel(256, np.random.default_rng(0)).P
    assert _traced_peak(lambda: chains.stationary(P)) <= 1.5 * 8 * P.shape[0]**2


def test_gth_route_holds_two_arrays_beyond_P():
    # the hitting matrix and one target's permuted copy of P, plus the
    # panels' temporaries: 2.69 arrays at n = 160.  The previous target's
    # copy kept alive, or one k x k temporary per state, fails this
    kernel = chains.random_reversible_kernel(160, np.random.default_rng(0))
    assert _traced_peak(lambda: hitting._gth_hit_matrix(kernel)) <= 3.0 * 8 * kernel.n**2


def test_character_route_holds_order_n_doubles():
    # a kernel kept as its steps is built, certified, analysed, its hitting
    # times solved and swept without any n x n array: its squares are a view
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
    # the spectral weights and the heat rows of BLOCK states, whose L1
    # distances are formed in the heat rows: 0.39 arrays at n = 256, where
    # the rows of every scanned state at once read 2.13
    kernel = chains.random_reversible_kernel(256, np.random.default_rng(1))
    profile = MixingProfile(kernel, decompose(kernel))
    assert profile._balanced and len(kernel.scan_states) == kernel.n
    peak = _traced_peak(lambda: profile.tv_worst(1.0))
    assert peak <= 0.5 * 8 * kernel.n**2


def test_tv_crossing_holds_two_row_arrays():
    # every row is evaluated once, at the relaxation bound, as in tv_worst;
    # later evaluations hold the rows still above 2 eps or one row, BLOCK
    # states at a time: 0.40 arrays at n = 256 (2.14 with every row at once)
    kernel = chains.random_reversible_kernel(256, np.random.default_rng(1))
    profile = MixingProfile(kernel, decompose(kernel))
    peak = _traced_peak(lambda: profile.mixing_time("tv", 0.25))
    assert peak <= 0.5 * 8 * kernel.n**2


def test_ladder_row_holds_order_n_doubles():
    # a row alone goes through the rungs as 1 x n products, from row x of
    # the identity when t is below one step: about 5 n doubles at n = 200.
    # Picking the row out of an n x n identity would hold 200 n
    kernel, profile = _drifted_profile()
    for t in (0.5 * profile._step, 1000.0):
        profile._ladder_rows(t, [7])  # builds the rungs up to t
        assert _traced_peak(lambda: profile._ladder_rows(t, [7])) <= 8 * 8 * kernel.n, t


def _drifted_profile():
    kernel = chains.build_family(chains.dlp_spec(200, 0.5, 0.05))
    return kernel, MixingProfile(kernel, decompose(kernel))


def _dense_drifted_kernel(n):
    """Metropolis moves to a uniform state for pi(i) proportional to
    e^{-30 i/(n-1)}: pi spans about 1e13 and every entry of P is nonzero,
    so the heat ladder keeps P_u^T dense."""
    log_pi = np.linspace(0.0, -30.0, n)
    P = np.minimum(1.0, np.exp(log_pi[None, :] - log_pi[:, None])) / n
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return chains.kernel_from_matrix(P)


def _ladder_crossings_peak(kernel):
    """(traced peak, profile) of three TV crossings on a new profile, then
    every row at t_settled, which builds every rung up to the top bit of
    floor(t_settled / h).  F is live before tracing starts, so
    the ladder's own arrays bound the peak; P_u^T is formed under the
    trace."""
    decomp = decompose(kernel)
    profiles = []

    def crossings():
        profiles.append(MixingProfile(kernel, decomp))
        for eps in (0.125, 0.25, 0.5):
            profiles[0].mixing_time("tv", eps)
        profiles[0].tv_worst(math.inf)

    peak = _traced_peak(crossings)
    profile = profiles[0]
    assert not profile._balanced
    assert len(profile._rungs) == (profile._ladder_arrays() - chains.DENSE_PEAK_ARRAYS
                                   - mixing._LADDER_WORK)
    return peak, profile


def test_heat_ladder_peaks_within_its_refusal_count():
    # P_u^T is kept as its three diagonals here and its dense slot free, so
    # one more n x n temporary would fail this: 13.75 arrays measured, 10 of
    # them rungs, of a count of 21 with the dense peak's 7 (13.06 with the
    # CSR product, which formed no block of terms beside its result)
    kernel = chains.build_family(chains.dlp_spec(200, 0.5, 0.05))
    peak, profile = _ladder_crossings_peak(kernel)
    assert [k for k, *_ in profile._uniform_t] == [-1, 0, 1]
    assert profile._ladder_arrays() == 21
    ladder = profile._ladder_arrays() - chains.DENSE_PEAK_ARRAYS
    assert peak <= ladder * 8 * kernel.n**2


def test_dense_heat_ladder_peaks_within_its_refusal_count():
    # every counted array is taken here, P_u^T among them, so the peak is
    # within half an array of the count and the count is not loose; the
    # rest is a few vectors of n doubles (about 2 at n = 200): 15.01 arrays
    # measured, 11 of them rungs.  One more n x n temporary would fail this
    kernel = _dense_drifted_kernel(200)
    peak, profile = _ladder_crossings_peak(kernel)
    assert isinstance(profile._uniform_t, np.ndarray)
    ladder = profile._ladder_arrays() - chains.DENSE_PEAK_ARRAYS
    array = 8 * kernel.n**2
    assert (ladder - 0.5) * array < peak <= ladder * array + 8 * 8 * kernel.n


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
