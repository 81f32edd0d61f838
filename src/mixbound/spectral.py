"""Dense symmetric eigendecomposition of I - P in the pi-weighted geometry.

Under reversibility D^{1/2} (I - P) D^{-1/2} with D = diag(pi) is symmetric,
so the Laplacian has a real spectrum 0 = lambda_1 < lambda_2 <= ... <= 2 and
an eigenbasis f_1 = 1, f_2, ..., f_n orthonormal in the inner product
<f, g> = sum_x pi(x) f(x) g(x).  Everything downstream (heat kernel values,
moment sums, truncated moments) is evaluated in closed form from that basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .chains import TransitionKernel
from .errors import InvalidSpec, NotIrreducible, NumericalFailure

_ZERO_EIG_TOL = 1e-10
_ORTHO_FAIL = 1e-6


def symmetrized_laplacian(kernel: TransitionKernel):
    """Return (S, sqrt_pi) with S the symmetrized Laplacian of the kernel."""
    sqrt_pi = np.sqrt(kernel.pi)
    L = np.eye(kernel.n) - kernel.P
    S = (sqrt_pi[:, None] * L) / sqrt_pi[None, :]
    return 0.5 * (S + S.T), sqrt_pi


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues of I - P and pi-orthonormal eigenfunctions (as columns).

    ``eigfuncs[:, i]`` is f_i with the first nonzero entry positive;
    ``eigfuncs_sq`` caches the squares because every heat-kernel diagonal
    evaluation consumes them.
    """

    lambdas: np.ndarray
    eigfuncs: np.ndarray
    eigfuncs_sq: np.ndarray
    pi: np.ndarray

    @property
    def n(self) -> int:
        return self.lambdas.shape[0]

    @property
    def gap(self) -> float:
        return float(self.lambdas[1])

    @property
    def t_rel(self) -> float:
        return 1.0 / float(self.lambdas[1])


def decompose(kernel: TransitionKernel) -> SpectralDecomposition:
    """Eigendecompose the symmetrized Laplacian and map back to functions.

    Raises NotIrreducible when a second near-zero eigenvalue shows up
    (irreducibility forces a simple zero) and NumericalFailure when the
    orthonormality or backward-error contracts are missed.
    """
    n = kernel.n
    S, sqrt_pi = symmetrized_laplacian(kernel)
    w, V = scipy.linalg.eigh(S)

    if w[0] < -1e-8:
        raise NumericalFailure(f"negative Laplacian eigenvalue {w[0]:.3e}")
    if n >= 2 and w[1] <= _ZERO_EIG_TOL:
        raise NotIrreducible(
            f"second eigenvalue {w[1]:.3e} is numerically zero; chain is reducible")
    if w[-1] > 2.0 + 1e-9:
        raise NumericalFailure(f"top eigenvalue {w[-1]:.6e} exceeds 2")
    w = w.copy()
    w[0] = 0.0

    # Backward-error contract, spot-checked on a deterministic column sample.
    cols = np.linspace(0, n - 1, num=min(n, 16), dtype=int)
    resid = np.abs(S @ V[:, cols] - V[:, cols] * w[cols][None, :]).max()
    if resid > 1e-10 * n:
        raise NumericalFailure(f"eigensolve backward error {resid:.3e} > 1e-10*n")

    F = V / sqrt_pi[:, None]
    for i in range(n):
        col = F[:, i]
        nz = np.nonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
        if nz.size and col[nz[0]] < 0:
            F[:, i] = -col

    gram = (F * kernel.pi[:, None]).T @ F
    ortho = float(np.abs(gram - np.eye(n)).max())
    if ortho > _ORTHO_FAIL:
        raise NumericalFailure(f"orthonormality residual {ortho:.3e} exceeds 1e-6")

    return SpectralDecomposition(lambdas=w, eigfuncs=F, eigfuncs_sq=F**2,
                                 pi=kernel.pi.copy())


# ---------------------------------------------------------------------------
# heat kernel evaluations

def heat_diag_ratio(decomp: SpectralDecomposition, t: float,
                    x: int | None = None) -> float | np.ndarray:
    """H_t(x,x) / pi(x) = sum_i f_i(x)^2 exp(-lambda_i t).

    A float for one state x, or the vector over all states when x is None.
    """
    decay = np.exp(-decomp.lambdas * t)
    if x is None:
        return decomp.eigfuncs_sq @ decay
    return float(decomp.eigfuncs_sq[x] @ decay)


def heat_kernel_row(decomp: SpectralDecomposition, x, t: float) -> np.ndarray:
    """Row H_t(x, .) reconstructed spectrally; for a sequence x of states,
    the matrix of their rows from one product."""
    weights = decomp.eigfuncs[x] * np.exp(-decomp.lambdas * t)
    return decomp.pi * (weights @ decomp.eigfuncs.T)


# ---------------------------------------------------------------------------
# moment functionals of the centered heat diagonal

def lower_gamma_regularized(ell: int, z: float) -> float:
    """P(Gamma(ell,1) <= z) for integer ell, by the exact finite series.

    1 - exp(-z) * sum_{k<ell} z^k / k!; no quadrature error enters the
    inequality checks that consume this.
    """
    if ell < 1 or ell != int(ell):
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    if z <= 0.0:
        return 0.0
    if z > 745.0:
        return 1.0  # exp(-z) underflows; the mass is 1 to double precision
    term = 1.0
    acc = 1.0
    for k in range(1, int(ell)):
        term *= z / k
        acc += term
    return 1.0 - math.exp(-z) * acc


def gamma_window_mass(ell: int) -> float:
    """Probability that a Gamma(ell, 1) variable is at most 2*ell."""
    return lower_gamma_regularized(ell, 2.0 * ell)


def _moment_weights(decomp: SpectralDecomposition, ell: int) -> np.ndarray:
    """lambda_i^{-ell} for i >= 2, the weights of every order-ell moment.

    An order whose largest weight t_rel^ell is beyond the largest double
    is refused; `_finite_moments` refuses the moments that overflow.
    """
    if ell < 1:
        raise ValueError("ell must be >= 1")
    try:
        decomp.t_rel ** ell
    except OverflowError:
        raise InvalidSpec(f"t_rel^ell is beyond the double range at ell={ell} "
                          f"(t_rel={decomp.t_rel:.6g})") from None
    with np.errstate(over="ignore"):
        return decomp.lambdas[1:] ** (-float(ell))


def _finite_moments(moments, ell: int):
    """moments, unless one overflowed to inf."""
    if not np.isfinite(moments).all():
        raise InvalidSpec(f"a moment of order ell={ell} exceeds the largest double")
    return moments


def spectral_moment(decomp: SpectralDecomposition, ell: int) -> float:
    """sum_{i>=2} lambda_i^{-ell}; order 1 equals the average hitting time."""
    weights = _moment_weights(decomp, ell)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_moments(float(np.sum(weights)), ell)


def heat_moment_all(decomp: SpectralDecomposition, ell: int) -> np.ndarray:
    """Vector over x of int_0^inf s^{ell-1} (H_s(x,x)-pi(x)) / ((ell-1)! pi(x)) ds.

    Closed form: sum_{i>=2} f_i(x)^2 / lambda_i^ell.
    """
    weights = _moment_weights(decomp, ell)
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_moments(decomp.eigfuncs_sq[:, 1:] @ weights, ell)


def heat_moment_windowed_all(decomp: SpectralDecomposition, ell: int) -> np.ndarray:
    """Same integrals truncated at 2*ell*t_rel, via the regularized gamma."""
    weights = _moment_weights(decomp, ell)
    window = 2.0 * ell * decomp.t_rel
    masses = np.array([lower_gamma_regularized(ell, window * l)
                       for l in decomp.lambdas[1:]])
    with np.errstate(over="ignore", invalid="ignore"):
        return _finite_moments(decomp.eigfuncs_sq[:, 1:] @ (weights * masses), ell)


def eigenvalue_clustering(decomp: SpectralDecomposition, target: float,
                          rel_tol: float = 0.05) -> float:
    """Fraction of nonzero Laplacian eigenvalues within rel_tol of target.

    Diagnostic for the birth-death family, whose spectrum collapses onto
    its rate parameter as eps shrinks.
    """
    lam = decomp.lambdas[1:]
    return float(np.mean(np.abs(lam - target) <= rel_tol * target))
