"""Eigendecomposition of I - P in the pi-weighted geometry: dense, or from
the characters of a Cayley group.

Under reversibility D^{1/2} (I - P) D^{-1/2} with D = diag(pi) is symmetric,
so the Laplacian has a real spectrum 0 = lambda_1 < lambda_2 <= ... <= 2 and
an eigenbasis f_1 = 1, f_2, ..., f_n orthonormal in the inner product
<f, g> = sum_x pi(x) f(x) g(x).  Everything downstream (heat kernel values,
moment sums, truncated moments) is evaluated in closed form from that basis.

Two rules hold for every consumer.  `laplacian` is the one place I - P is
formed: in a row with P(k,k) > 1/2 its diagonal is the sum of the row's
off-diagonal entries, so a slow chain keeps the relative accuracy of its
rates instead of losing it to 1 - P(k,k).  `resolution` is the one
eigenvalue threshold: by Weyl's bound a perturbation dS of a symmetric
matrix moves each eigenvalue by at most ||dS||, and rounding S and solving
for its spectrum perturbs it by about n * eps * ||S||, so an eigenvalue
within that of zero cannot be told from zero.

A built-in transitive family walks on an abelian group Z_m^d
(`chains.CayleyGroup`), whose characters chi_k(x) = exp(2 pi i <k,x>/m)
are eigenfunctions of every such walk (Diaconis 1988, ch. 3).  There
`character_decompose` reads the spectrum off the group's symbol, with no
eigensolve: lambda(k) = (1/d) sum_i 2 sin^2(pi k_i/m) for the steps
+-e_i, and n/(n-1) for every k != 0 on the complete graph.  Every
|chi_k|^2 is 1, so a heat diagonal is the same at every state, and a
heat row is one inverse FFT of exp(-lambda t) over the group.  The dense
eigenvectors, and the n x n arrays counted in `chains.DENSE_PEAK_ARRAYS`,
belong to the dense route only.

The dense route solves with numpy.linalg.eigh (LAPACK syevd), so this
module, like the rest of the exact layer, needs numpy alone; numpy.fft is
imported with it, so a first character evaluation loads nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy import fft

from .chains import (CayleyGroup, TransitionKernel, _check_states, index_blocks,
                     max_over_blocks)
from .errors import InvalidSpec, NumericalFailure

_ORTHO_FAIL = 1e-6
# Constant of the resolution rule, in units of n * eps * ||S||.
_RESOLUTION_C = 8.0
_MAX = float(np.finfo(float).max)
# Highest order at which `lower_gamma_regularized` keeps the finite series.
# Against mpmath, in the range of z where it is kept, the series rounds
# within 2 half-ulps of 1 up to this order (and within 5 up to ell = 24).
_SERIES_ORDER = 8


def laplacian(kernel: TransitionKernel) -> np.ndarray:
    """L = I - P, with the diagonal of a row whose P(k,k) exceeds 1/2 set
    to the sum of that row's off-diagonal entries.

    There 1 - P(k,k) would cancel and keep only the absolute accuracy of
    P(k,k); the off-diagonal sum involves no subtraction.  Below 1/2 the
    subtraction cancels nothing and stays, so L is bit for bit I - P on
    every kernel whose diagonal is at most 1/2.
    """
    return laplacian_rows(kernel.P, slice(0, kernel.n))


def laplacian_rows(P: np.ndarray, rows: slice) -> np.ndarray:
    """Rows `rows` of `laplacian`, bit for bit, from the same rows of P."""
    L = 0.0 - P[rows]  # each entry as in I - P, +0.0 where P is 0
    k = np.arange(rows.start, rows.stop)
    own = (k - rows.start, k)
    L[own] = 1.0 - P[k, k]
    slow = np.flatnonzero(P[k, k] > 0.5)
    L[own[0][slow], k[slow]] = 0.0
    L[own[0][slow], k[slow]] = -L[slow].sum(axis=1)
    return L


def resolution(n: int, top: float) -> float:
    """Smallest eigenvalue distance from zero that an eigensolve of an
    n x n symmetric matrix with largest eigenvalue top can resolve:
    c * n * eps * top (Weyl's bound on the rounding of S and of eigh)."""
    return _RESOLUTION_C * n * float(np.finfo(float).eps) * top


def symmetrized_laplacian(kernel: TransitionKernel):
    """Return (S, sqrt_pi) with S = 0.5 (M + M^T), M = D L D^{-1}, L the
    `laplacian` of the kernel and D = diag(sqrt_pi).

    S is a fresh array, filled in place a block of rows at a time by
    `symmetrized_rows`, so no n x n temporary is formed.  P is read first,
    so a kernel with a group forms it, or is refused, before S is allocated.
    """
    P = kernel.P
    S = np.empty(P.shape)
    for rows in index_blocks(kernel.n):
        S[rows] = symmetrized_rows(kernel, rows)
    return S, np.sqrt(kernel.pi)


def symmetrized_rows(kernel: TransitionKernel, rows: slice) -> np.ndarray:
    """Rows `rows` of the `symmetrized_laplacian` S, bit for bit.

    Entry (i, j) is 0.5 (M[i, j] + M[j, i]) with M[i, j] = sqrt_pi[i]
    L[i, j] / sqrt_pi[j]: the rows of M come from the rows of P, its
    columns from the columns.  The contract checks that run after a solve
    has overwritten S read its rows from here.
    """
    sqrt_pi = np.sqrt(kernel.pi)
    M = laplacian_rows(kernel.P, rows)
    own = (np.arange(M.shape[0]), np.arange(rows.start, rows.stop))
    Mt = 0.0 - kernel.P[:, rows]  # columns of L, whose diagonal M holds
    Mt[own[::-1]] = M[own]
    M *= sqrt_pi[rows, None]
    M /= sqrt_pi[None, :]
    Mt *= sqrt_pi[:, None]
    Mt /= sqrt_pi[None, rows]
    M += Mt.T
    M *= 0.5
    return M


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues of I - P and pi-orthonormal eigenfunctions (as columns).

    ``eigfuncs[:, i]`` is f_i with the first nonzero entry positive.  On
    the character route eigfuncs is None and symbol holds lambda(k) over
    the group's shape; the dense route has no symbol.  The squares f_i^2
    are not held: the functions of this module that read them form them
    in the layout they read.  The moment vectors of `moment_vector` are
    kept once formed, read-only, in a memo keyed by (ell, window) that
    repr and == leave out.
    """

    lambdas: np.ndarray
    eigfuncs: np.ndarray | None
    pi: np.ndarray
    symbol: np.ndarray | None = None
    _moments: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @property
    def route(self) -> str:
        """"character" when read off a group's symbol, else "dense"."""
        return "dense" if self.symbol is None else "character"

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

    The Laplacian is `laplacian(kernel)`; connectivity is certified by
    `chains.validate`, not here.  With tol = `resolution(n, lambda_n)`,
    raises NumericalFailure when the spectral gap is at most tol (it
    cannot be told from zero), when an eigenvalue lies more than tol
    outside [0, 2] widened to the Gershgorin bounds of S, or when the
    orthonormality or backward-error contracts are missed.

    The gap's absolute error is about tol, so its relative error is about
    tol / gap: far inside the 1e-9 contract when the whole spectrum is
    slow, but coarser for a weak bottleneck whose gap is far below an O(1)
    top eigenvalue.

    At its peak it holds six n x n arrays of doubles, P included: P, S
    and, inside numpy's eigh, its copy of S, the eigenvectors and syevd's
    workspace of 2 n^2 doubles (`chains.DENSE_PEAK_ARRAYS` counts them
    from the peak RSS; LAPACK's buffers are not traced).  Every other
    step works on `index_blocks` of rows or columns, and it returns
    holding P and F, which stay live as long as the analysis.  A moment
    vector forms one square of F beside them, once per order and window
    (`moment_vector`), and a TV evaluation holds rows of `chains.BLOCK`
    states, so once solved a dense `verify` holds P, F and one array more.
    These counts, and `chains.DENSE_PEAK_ARRAYS`, are of this dense route
    only; `character_decompose` holds no n x n array.
    """
    n = kernel.n
    w, V = _eigensolve(kernel, np.linalg.eigh)
    F = V  # in place: V is not read again
    F /= np.sqrt(kernel.pi)[:, None]
    # each column's first entry above 1e-12 of its largest is positive
    sign = np.empty(n)
    for c in index_blocks(n):
        A = np.abs(F[:, c])
        first = np.argmax(A > 1e-12 * A.max(axis=0), axis=0)
        sign[c] = np.where(F[first, np.arange(c.start, c.stop)] < 0, -1.0, 1.0)
    F *= sign

    ortho = max_over_blocks(n, lambda c: np.abs(
        F.T @ (F[:, c] * kernel.pi[:, None]) - np.eye(n, c.stop - c.start, -c.start)))
    if ortho > _ORTHO_FAIL:
        raise NumericalFailure(f"orthonormality residual {ortho:.3e} exceeds 1e-6")

    return SpectralDecomposition(lambdas=w, eigfuncs=F, pi=kernel.pi.copy())


def _eigensolve(kernel: TransitionKernel, eigh) -> tuple:
    """(w, V) of the `symmetrized_laplacian` S from eigh(S): the eigenvalues
    ascending with w[0] set to 0, and the orthonormal eigenvectors as the
    columns of V, with every check of `decompose` but orthonormality.

    S is fresh and nothing else reads it, so eigh may overwrite it.
    `decompose` passes numpy.linalg.eigh (LAPACK syevd); `brw` passes the
    in-place evr solve of scipy, whose eigenvalues its gate pins.
    """
    n = kernel.n
    S, sqrt_pi = symmetrized_laplacian(kernel)
    # The Gershgorin discs of S in the weights sqrt(pi) (its off-diagonal
    # is nonpositive) hold every eigenvalue in [min r, max(2 diag(S) - r)]
    # with r = S sqrt(pi) / sqrt(pi).  r is 0 for an exactly stochastic
    # reversible kernel; otherwise r_k is the mean of row k's sum defect
    # and its relative stationarity residual, which `validate` allows up
    # to STRUCT_TOL.
    r = (S @ sqrt_pi) / sqrt_pi
    low = min(0.0, float(r.min()))
    high = max(2.0, float((2.0 * np.diagonal(S) - r).max()))
    w, V = eigh(S)
    del S

    tol = resolution(n, w[-1])
    if w[0] < low - tol:
        raise NumericalFailure(f"negative Laplacian eigenvalue {w[0]:.3e}")
    if n >= 2 and w[1] <= tol:
        raise NumericalFailure(f"spectral gap {w[1]:.3e} is at or below the "
                               f"eigensolve resolution {tol:.3e}")
    if w[-1] > high + tol:
        raise NumericalFailure(f"top eigenvalue {w[-1]:.6e} exceeds its bound "
                               f"{high:.6e}")
    w = w.copy()
    w[0] = 0.0

    # Backward-error contract, spot-checked on a deterministic column sample.
    cols = np.linspace(0, n - 1, num=min(n, 16), dtype=int)
    Vc = V[:, cols]
    resid = max_over_blocks(n, lambda rows: np.abs(
        symmetrized_rows(kernel, rows) @ Vc - Vc[rows] * w[cols][None, :]))
    if resid > 1e-10 * n:
        raise NumericalFailure(f"eigensolve backward error {resid:.3e} > 1e-10*n")
    return w, V


def character_decompose(kernel: TransitionKernel) -> SpectralDecomposition:
    """The spectrum of a kernel with a group, from the group's symbol.

    lambdas is the symbol sorted, and there are no eigfuncs: every
    |chi_k|^2 is 1, which `_squares` reads as a view of ones that costs
    no memory.  The contract is an eigen-residual on at most 16 sampled
    characters,
    ||P chi_k - (1 - lambda_k) chi_k||_inf <= 1e-10 * n with P chi_k from
    `TransitionKernel.apply`, which also catches steps whose spectrum is
    not the group's symbol; it raises NumericalFailure.  It holds O(n)
    doubles and no n x n array.
    """
    n, shape = kernel.n, kernel.group.shape
    symbol = _symbol(kernel.group)
    ks = np.linspace(0, n - 1, num=min(n, 16), dtype=int)
    k = np.array(np.unravel_index(ks, shape))
    x = np.array(np.unravel_index(np.arange(n), shape))
    # <k, x> mod m in integers, so every phase is exact before the scaling
    phase = (2.0 * np.pi / shape[0]) * ((x.T @ k) % shape[0])
    lam = symbol.ravel()[ks]
    resid = 0.0
    for part in (np.cos, np.sin):  # the real and imaginary parts
        chi = part(phase)
        resid = max(resid, float(np.abs(kernel.apply(chi) - (1.0 - lam) * chi).max()))
    if not resid <= 1e-10 * n:
        raise NumericalFailure(f"character eigen-residual {resid:.3e} > 1e-10*n: "
                               f"the steps of the group {shape} do not match its symbol")
    return SpectralDecomposition(lambdas=np.sort(symbol, axis=None), eigfuncs=None,
                                 pi=kernel.pi.copy(), symbol=symbol)


def _symbol(group: CayleyGroup) -> np.ndarray:
    """lambda(k) over the group's shape, with no subtraction: (1/d)
    sum_i 2 sin^2(pi k_i/m), or n/(n-1) for every k != 0 when complete.
    sin is taken at min(k, m - k), so lambda(k) = lambda(-k) exactly."""
    if group.complete:
        (n,) = group.shape
        symbol = np.full(n, n / (n - 1))
        symbol[0] = 0.0
        return symbol
    m, d = group.shape[0], len(group.shape)
    k = np.arange(m)
    term = 2.0 * np.sin(np.pi * np.minimum(k, m - k) / m) ** 2
    symbol = np.zeros(group.shape)
    for i in range(d):
        symbol += term.reshape((m,) + (1,) * (d - 1 - i))
    symbol /= d
    return symbol


def _translates(values: np.ndarray, x) -> np.ndarray:
    """Row y -> f(y - x) of a function f on a group, given as values over
    the group's shape, for the state x; for a sequence x of states, the
    matrix of their rows.  Each row is f rolled by x's coordinates."""
    xs = np.atleast_1d(x)
    axes = tuple(range(values.ndim))
    rows = np.empty((xs.size, values.size))
    for row, y in zip(rows, xs):
        row[:] = np.roll(values, np.unravel_index(y, values.shape), axes).ravel()
    return rows if np.ndim(x) else rows[0]


# ---------------------------------------------------------------------------
# heat kernel evaluations

def _check_time(t: float) -> float:
    """t as a float for a heat or profile evaluator: NaN or t < 0 is
    refused (ValueError), and +inf is evaluated as the largest double,
    where every profile is at its limit and lambda_1 t = 0 * t stays 0."""
    t = float(t)
    if not t >= 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    return min(t, _MAX)


def heat_diag_ratio(decomp: SpectralDecomposition, t: float,
                    x: int | None = None) -> float | np.ndarray:
    """H_t(x,x) / pi(x) = sum_i f_i(x)^2 exp(-lambda_i t).

    A float for one state x, or the vector over all states when x is None.
    The time is checked by `_check_time` and the state by
    `chains._check_states` (InvalidSpec).
    """
    t = _check_time(t)
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
        decay = np.exp(-decomp.lambdas * t)
    if x is None:
        return _diagonal(decomp, decay)
    (x,) = _check_states("heat_diag_ratio", "x", (x,), decomp.n)
    return float(_squared_rows(decomp, [x], decay).sum())


def heat_kernel_row(decomp: SpectralDecomposition, x, t: float) -> np.ndarray:
    """Row H_t(x, .) reconstructed spectrally; for a sequence x of states,
    the matrix of their rows from one product (`_heat_rows`).  The time is
    checked by `_check_time` and the states by `chains._check_states`
    (InvalidSpec)."""
    if np.ndim(x):
        x = _check_states("heat_kernel_row", "x", x, decomp.n, len(x))
    else:
        (x,) = _check_states("heat_kernel_row", "x", (x,), decomp.n)
    return _heat_rows(decomp, x, _check_time(t))


def _heat_rows(decomp: SpectralDecomposition, x, t: float) -> np.ndarray:
    """`heat_kernel_row` on states and a time already checked.

    On the character route H_t(0, .) is Re ifftn(exp(-lambda t)) over the
    group, and H_t(x, y) = H_t(0, y - x): the row of x is that row rolled
    by x's coordinates."""
    if decomp.symbol is not None:
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
            return _translates(fft.ifftn(np.exp(-decomp.symbol * t)).real, x)
    with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
        weights = decomp.eigfuncs[x] * np.exp(-decomp.lambdas * t)
    rows = weights @ decomp.eigfuncs.T
    rows *= decomp.pi
    return rows


# ---------------------------------------------------------------------------
# moment functionals of the centered heat diagonal

def lower_gamma_regularized(ell: int, z: float) -> float:
    """P(Gamma(ell,1) <= z) for integer ell, the chance that a Poisson(z)
    count is at least ell, to 1e-15 absolute and, in the normal range,
    1e-12 relative.

    For ell up to _SERIES_ORDER and z >= max(ell - 3/2, 1/2) it is the
    exact finite series 1 - exp(-z) * sum_{k<ell} z^k / k!, which
    subtracts at most 0.91 there; every order and window the bound sweep
    uses is in this range.  Elsewhere the smaller tail is summed from
    the Poisson term next to ell outward, each term formed on its own
    (`_poisson_term`) and the sum rounded once (fsum): the terms from ell
    up when z < ell, else those below ell, and 1 minus their sum.  Every
    term is positive, so nothing cancels but the final 1 - sum, which is
    then below 1/2.  NaN is refused (ValueError).
    """
    if ell < 1 or ell != int(ell):
        raise ValueError(f"ell must be a positive integer, got {ell!r}")
    if z <= 0.0:
        return 0.0
    if ell <= _SERIES_ORDER and z >= 0.5 and z >= ell - 1.5:
        if z > 745.0:
            return 1.0  # exp(-z) underflows; the mass is 1 to double precision
        term = 1.0
        acc = 1.0
        for k in range(1, int(ell)):
            term *= z / k
            acc += term
        return 1.0 - math.exp(-z) * acc
    if math.isnan(z):
        raise ValueError(f"z must be a number, got {z!r}")
    if z == math.inf:
        return 1.0
    ell = int(ell)
    # the terms fall away from ell on either side: by z/(k+1) going up
    # from ell > z, by k/z going down from ell - 1 < z
    step = 1 if z < ell else -1
    k = ell if step > 0 else ell - 1
    terms = [_poisson_term(k, z)]
    while k + step >= 0 and terms[-1] > 1e-17 * terms[0]:
        k += step
        terms.append(_poisson_term(k, z))
    tail = math.fsum(terms)
    return tail if step > 0 else 1.0 - tail


def _poisson_term(k: int, z: float) -> float:
    """e^{-z} z^k / k!, to a few ulp, and to 1e-12 relative however
    small it gets in the normal range.

    For k <= 22, whose k! is an exact double, it is formed as written,
    in logs when z > 700, where e^{-z} would leave the normal range.
    Else it is exp(-delta(k) - bd0(k, z)) / sqrt(2 pi k) (Loader 2000):
    delta(k) = log k! - (k + 1/2) log k + k - log sqrt(2 pi), Stirling's
    error, from its asymptotic series, and bd0(k, z) = k log(k/z) + z - k,
    from the series in v = (k - z)/(k + z) when k is near z, where the
    formula as written cancels."""
    if k <= 22:
        if z <= 700.0:
            return math.exp(-z) * z**k / math.factorial(k)
        return math.exp(k * math.log(z) - z - math.lgamma(k + 1.0))
    d = k - z
    if abs(d) < 0.1 * (k + z):
        v = d / (k + z)
        bd0, odd, j = d * v, 2.0 * k * v, 1
        while True:  # bd0 = d v + 2k sum_{j>=1} v^(2j+1) / (2j+1)
            odd *= v * v
            nxt = bd0 + odd / (2 * j + 1)
            if nxt == bd0:
                break
            bd0, j = nxt, j + 1
    else:
        bd0 = k * math.log(k / z) + z - k
    kk = float(k) * k
    delta = (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * kk)) / kk)
                       / kk) / kk) / k
    return math.exp(-delta - bd0) / math.sqrt(2.0 * math.pi * k)


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


def moment_vector(decomp: SpectralDecomposition, ell: int,
                  window: float | None = None) -> np.ndarray:
    """Vector over x of sum_{i>=2} f_i(x)^2 lambda_i^{-ell}, each term
    weighted by P(Gamma(ell,1) <= window * lambda_i) when a window is given.

    This is int_0^T s^{ell-1} (H_s(x,x)-pi(x)) / ((ell-1)! pi(x)) ds with
    T = window, or T = inf without one.  Every per-state moment the bounds
    read comes from here: each (ell, window) is formed once per
    decomposition by one `_diagonal` product and kept read-only in its
    memo.  A vector that overflowed is refused (`_finite_moments`) and not
    kept.  The gamma mass is computed once per distinct eigenvalue.
    """
    key = (ell, window)
    moments = decomp._moments.get(key)
    if moments is None:
        weights = _moment_weights(decomp, ell)
        if window is not None:
            values, where = np.unique(decomp.lambdas[1:], return_inverse=True)
            weights = weights * np.array([lower_gamma_regularized(ell, window * l)
                                          for l in values])[where]
        with np.errstate(over="ignore", invalid="ignore"):
            moments = _finite_moments(_diagonal(decomp, weights), ell)
        moments.flags.writeable = False
        decomp._moments[key] = moments
    return moments


def heat_moment_all(decomp: SpectralDecomposition, ell: int) -> np.ndarray:
    """Vector over x of int_0^inf s^{ell-1} (H_s(x,x)-pi(x)) / ((ell-1)! pi(x)) ds,
    in closed form sum_{i>=2} f_i(x)^2 / lambda_i^ell: `moment_vector`
    without a window."""
    return moment_vector(decomp, ell)


def heat_moment_windowed_all(decomp: SpectralDecomposition, ell: int) -> np.ndarray:
    """Same integrals truncated at 2*ell*t_rel: `moment_vector` with that
    window."""
    return moment_vector(decomp, ell, 2.0 * ell * decomp.t_rel)


def _diagonal(decomp: SpectralDecomposition, weights: np.ndarray) -> np.ndarray:
    """The vector over x of sum_i f_i(x)^2 weights[i] over the last
    len(weights) eigenfunctions, as one product of their squares with
    weights.  On the character route every state has the same heat
    diagonal, so row 0's sum, from the same product on one row, is
    repeated over the states."""
    fsq = _squares(decomp, decomp.n - weights.size)
    if decomp.route == "character":
        return np.repeat(fsq[:1] @ weights, decomp.n)
    return fsq @ weights


def _squares(decomp: SpectralDecomposition, first: int) -> np.ndarray:
    """f_i(x)^2 over every state x and the eigenfunctions from index first
    on, n x (n - first): a fresh F-ordered array on the dense route, laid
    out like F, and a read-only view of ones on the character route,
    where every |chi_k|^2 is 1."""
    if decomp.eigfuncs is None:
        return np.broadcast_to(1.0, (decomp.n, decomp.n - first))
    return np.square(decomp.eigfuncs[:, first:])


def _squared_rows(decomp: SpectralDecomposition, xs, decay: np.ndarray) -> np.ndarray:
    """The terms f_i(x)^2 decay_i over the last decay.shape[-1]
    eigenfunctions, one row per state x of xs, as a fresh C-ordered
    array; decay is one row, or one per state.

    The rows of F are gathered, squared in place and scaled by decay in
    place, so a row's terms and its sums do not depend on the rows beside
    it.  On the character route every |chi_k|^2 is 1, and the rows are
    decay itself."""
    shape = (len(xs), decay.shape[-1])
    if decomp.eigfuncs is None:
        return np.array(np.broadcast_to(decay, shape))
    terms = decomp.eigfuncs[np.asarray(xs), decomp.n - shape[1]:]
    np.square(terms, out=terms)
    terms *= decay
    return terms


def eigenvalue_clustering(decomp: SpectralDecomposition, target: float,
                          rel_tol: float = 0.05) -> float:
    """Fraction of nonzero Laplacian eigenvalues within rel_tol of target.

    Diagnostic for the birth-death family, whose spectrum collapses onto
    its rate parameter as eps shrinks.
    """
    lam = decomp.lambdas[1:]
    return float(np.mean(np.abs(lam - target) <= rel_tol * target))
