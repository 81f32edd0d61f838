import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# mixbound first: its OPENBLAS_THREAD_TIMEOUT default (idle BLAS workers
# sleep instead of spinning) only takes effect before numpy's first import.
import mixbound  # noqa: E402,F401
import mpmath  # noqa: E402
import numpy as np  # noqa: E402
import pytest  # noqa: E402

from mixbound import chains, spectral  # noqa: E402
from mixbound.analysis import ChainAnalysis  # noqa: E402
from mixbound.mixing import MixingProfile  # noqa: E402

# Canonical benchmark set: every built-in family, state counts up to 1024.
BENCHMARK_SPECS = [
    chains.cycle_spec(4),
    chains.cycle_spec(16),
    chains.cycle_spec(64),
    chains.cycle_spec(256),
    chains.cycle_spec(1024),
    chains.torus_spec(2, 4),
    chains.torus_spec(2, 8),
    chains.torus_spec(2, 16),
    chains.torus_spec(3, 6),
    chains.complete_spec(4),
    chains.complete_spec(8),
    chains.complete_spec(16),
    chains.complete_spec(32),
    chains.hypercube_spec(4),
    chains.hypercube_spec(6),
    chains.hypercube_spec(8),
    chains.hypercube_spec(10),
    chains.dlp_spec(16, 0.5, 0.05),
    chains.dlp_spec(50, 0.5, 0.01),
    chains.dlp_spec(32, 0.4, 0.05, k=16),
]

# Smaller subset for the heavier per-test sweeps.
SMALL_BENCHMARK_SPECS = [s for s in BENCHMARK_SPECS
                         if chains.build_family(s).n <= 256]


def random_kernels(count, max_n=20, seed=20240) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for i in range(count):
        n = int(rng.integers(2, max_n + 1))
        out.append(chains.random_reversible_kernel(
            n, rng, label=f"random(n={n},i={i})"))
    return out


def dlp_matrix(n, lam, eps):
    """The dlp(n, lam, eps) birth-death matrix written out by hand, without
    the representability check in build_family."""
    P = np.zeros((n, n))
    i = np.arange(n - 1)
    P[i, i + 1] = lam * (1.0 - eps)
    P[i + 1, i] = lam * eps
    P[np.arange(n), np.arange(n)] = 1.0 - P.sum(axis=1)
    return P


def gth_eliminate_unblocked(A):
    """The GTH elimination one state at a time, the textbook loop that
    `chains._gth_eliminate` runs in panels: in place, returns the pivots."""
    n = A.shape[0]
    s = np.empty(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for k in range(n - 1, 0, -1):
            s[k] = A[k, :k].sum()
            A[:k, k] /= s[k]
            A[:k, :k] += np.outer(A[:k, k], A[k, :k])
    return s


def two_cliques(m):
    """The walk on two disjoint m-cliques with loops: reducible, and not
    tridiagonal for m > 2."""
    P = np.zeros((2 * m, 2 * m))
    P[:m, :m] = P[m:, m:] = 1.0 / m
    return P


def joined_cliques(delta, m=10):
    """Two m-state cliques, steps of 1/m inside each, joined by one edge
    of rate delta: the gap is about delta / m."""
    P = np.zeros((2 * m, 2 * m))
    P[:m, :m] = P[m:, m:] = 1.0 / m
    P[0, 0] = P[m, m] = 1.0 / m - delta
    P[0, m] = P[m, 0] = delta
    return P


def reference_gap(kernel):
    """Gap of the symmetrized Laplacian built from the same float
    off-diagonal entries, by a 60-digit mpmath eigensolve."""
    with mpmath.workdps(60):
        n, P = kernel.n, kernel.P
        q = [mpmath.sqrt(mpmath.mpf(float(p))) for p in kernel.pi]
        S = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                if i != j and P[i, j] != 0.0:
                    rate = mpmath.mpf(float(P[i, j]))
                    S[i, i] += rate
                    S[i, j] = -q[i] * rate / q[j]
        S = (S + S.T) / 2
        return float(sorted(mpmath.eigsy(S, eigvals_only=True))[1])


def dense_analysis(kernel):
    """A ChainAnalysis on the dense route whatever the kernel's structure:
    the reference the character route is checked against."""
    decomp = spectral.decompose(kernel)
    return ChainAnalysis(kernel=kernel, decomp=decomp,
                         profile=MixingProfile(kernel, decomp))


@pytest.fixture(scope="session")
def analysis_cache():
    """Memoized ChainAnalysis per kernel label, shared across the session."""
    cache = {}

    def get(spec_or_kernel):
        if isinstance(spec_or_kernel, chains.ChainFamilySpec):
            kernel = chains.build_family(spec_or_kernel)
        else:
            kernel = spec_or_kernel
        if kernel.label not in cache:
            cache[kernel.label] = ChainAnalysis.from_kernel(kernel)
        return cache[kernel.label]

    return get


@pytest.fixture(scope="session")
def benchmark_analyses(analysis_cache):
    return [analysis_cache(spec) for spec in BENCHMARK_SPECS]


@pytest.fixture(scope="session")
def random_kernel_analyses(analysis_cache):
    return [analysis_cache(k) for k in random_kernels(100)]
