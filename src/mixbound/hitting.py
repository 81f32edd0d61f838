"""Exact expected hitting times and exact hitting-tail probabilities.

All quantities refer to the continuous-time rate-1 chain, whose expected
hitting times coincide with the expected step counts of the embedded
discrete chain.  The convention is T_y = 0 when the start state is y, so
tails from stationarity start at 1 - pi(y).

`hit_times` solves any kernel densely and returns with no n x n array
live.  On a kernel with a group, `character_hit_times` reads every
hitting time off the symbol of a character decomposition instead, by one
FFT of size n, and forms no n x n array.  Either forms the matrix of
every E_x[T_y] only when hit_matrix is read, which no command does.
The dense solves are numpy's (linalg.inv and eigh), so the module needs
numpy alone; `brw` passes scipy's inv to `_dense_hit_matrix` for its
gated hit target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
from numpy import fft

from .chains import (TransitionKernel, _check_states, _gth_eliminate, _is_tridiagonal,
                     index_blocks, max_over_blocks)
from .errors import InvalidSpec, NumericalFailure, SingularSystem
from .spectral import (SpectralDecomposition, _check_time, _translates,
                       resolution, spectral_moment, symmetrized_laplacian,
                       symmetrized_rows)


@dataclass(frozen=True)
class HittingSummary:
    """The scalars derived from hit_matrix[x, y] = E_x[T_y], which is
    formed only when read.

    t_pi_to[x] is the expected hitting time of x from stationarity, t_hit
    the maximum entry and t_target the common value of the pi-averaged row
    sums (the random target time).  route names the solver that produced
    them: "birth_death", "spectral" or "gth" (see hit_times), or
    "character" (see character_hit_times).
    """

    t_pi_to: np.ndarray
    t_hit: float
    t_target: float
    route: str
    form_hit_matrix: Callable[[], np.ndarray] = field(repr=False, compare=False)

    @cached_property
    def hit_matrix(self) -> np.ndarray:
        """The n x n matrix of E_x[T_y], formed by form_hit_matrix on first
        access: `hit_times` solves its route again, with the same calls and
        so the same bits, and `character_hit_times` translates its column."""
        return self.form_hit_matrix()


def hit_times(kernel: TransitionKernel) -> HittingSummary:
    """Solve every E_x[T_y] exactly, by one of three routes.

    E_x[T_y] solves the linear system (I - P) restricted to V \\ {y} with
    unit right-hand side.

    - "birth_death": P is tridiagonal.  With e_up[k] = E_k[T_{k+1}] =
      pi(0..k) / (pi(k) P(k,k+1)) and e_down[k] = E_{k+1}[T_k] =
      pi(k+1..n-1) / (pi(k+1) P(k+1,k)), E_x[T_y] is the sum of e_up[x:y]
      (y > x) or of e_down[y:x] (y < x).  Only sums, products and
      quotients of positive numbers, so every entry keeps relative
      accuracy at any imbalance, in O(n^2) total.
    - "spectral": every other kernel first gets all columns from one
      symmetric solve: with S the symmetrized Laplacian, q = sqrt(pi) and
      N = (S + q q^T)^{-1} from numpy.linalg.inv (LAPACK gesv on the
      identity),

          E_x[T_y] = N[y,y] / pi(y) - N[x,y] / sqrt(pi(x) pi(y)).

      S + q q^T has spectrum {1, lambda_2, ..., lambda_n}, so that solve
      is well conditioned, but the difference cancels catastrophically
      once hitting times span many orders of magnitude.
    - "gth": when the spectral route shows a scale above ~1e8, or any
      non-positive off-diagonal entry, every column is recomputed by the
      subtraction-free GTH elimination of `stationary`, run once per
      target in panels of `chains.BLOCK` states, which is componentwise
      accurate at any imbalance but costs O(n^4).

    A hitting time beyond the largest double (inf, or NaN from an
    overflowed intermediate) raises InvalidSpec.  The restricted-system
    residual contract (<= 1e-10 * n above the float forming floor) is then
    verified on a sample of target states on every route.

    Besides P, the birth-death route holds one n x n array at its peak;
    the spectral route four, S + q q^T and numpy's copy of it, the
    identity it solves on and the inverse, which becomes the hitting
    matrix in place; the GTH route holds two, the
    hitting matrix and one target's permuted copy of P, freed before the
    next target's is formed, plus the elimination's temporaries of at
    most BLOCK x n doubles (pinned by tests/test_memory.py).  The summary
    keeps t_pi_to and the scalars: the matrix is dropped on return, and
    hit_matrix solves the same route again when read.  These counts, and
    `chains.DENSE_PEAK_ARRAYS`, are of this dense solve only;
    `character_hit_times` holds O(n) doubles.
    """
    hit, route, t_hit = _dense_hit_matrix(kernel, np.linalg.inv)
    t_pi_to = kernel.pi @ hit
    del hit  # hit_matrix solves it again when read
    t_target = float(t_pi_to @ kernel.pi)
    return HittingSummary(t_pi_to=t_pi_to, t_hit=t_hit, t_target=t_target,
                          route=route,
                          form_hit_matrix=lambda: _dense_hit_matrix(
                              kernel, np.linalg.inv)[0])


def _dense_hit_matrix(kernel: TransitionKernel, inv) -> tuple:
    """(hit matrix, route, t_hit) of `hit_times`, its finiteness and its
    residual contract checked: the same calls, so the same bits, on every
    solve.  inv inverts the spectral route's S + q q^T: numpy's for
    `hit_times`, scipy's for the hit target of `brw._gate_solves`."""
    n = kernel.n
    cols = np.linspace(0, n - 1, num=min(n, 8), dtype=int)
    if _is_tridiagonal(kernel.P):
        hit, route = _birth_death_hit_matrix(kernel), "birth_death"
    else:
        hit, route = _spectral_hit_matrix(kernel, cols, inv), "spectral"
        np.fill_diagonal(hit, np.inf)
        off_min = float(hit.min())
        np.fill_diagonal(hit, 0.0)
        if hit.max() > 1e8 or off_min <= 0.0:
            del hit  # before the GTH route forms its own
            hit, route = _gth_hit_matrix(kernel), "gth"
    t_hit = float(hit.max())
    if not math.isfinite(t_hit):
        raise InvalidSpec(f"{kernel.label}: a hitting time is not a finite double")
    _check_restricted_residual(kernel, hit, cols)
    return hit, route, t_hit


def character_hit_times(kernel: TransitionKernel,
                        decomp: SpectralDecomposition) -> HittingSummary:
    """Every E_x[T_y] of a kernel with a group, from its character
    decomposition (`spectral.character_decompose`).

    With w_k = 1/lambda_k for k != 0 and w_0 = 0, E_x[T_0] = sum_k (1 -
    Re chi_k(x)) w_k = T - Re fftn(w)(x), T = sum_{k != 0} 1/lambda_k, and
    E_x[T_y] = E_{x-y}[T_0] = E_{y-x}[T_0], as the walk commutes with the
    group and its steps are symmetric.  By the eigentime identity every
    t_pi_to[y] and t_target equal T exactly.  The restricted-system
    residual contract of `hit_times` is verified on the column y = 0.
    hit_matrix[x, y] = h(y - x) is formed only when read.
    """
    symbol = decomp.symbol
    w = np.zeros(symbol.shape)
    w.flat[1:] = 1.0 / symbol.flat[1:]  # lambda_k > 0 for k != 0
    total = spectral_moment(decomp, 1)
    # w is even, w(-k) = w(k), so fftn(w) = n ifftn(w) is real
    h = total - fft.fftn(w).real
    h.flat[0] = 0.0  # E_0[T_0], which the sum gives only to rounding
    column = h.ravel()
    _check_restricted_residual(kernel, column[:, None], np.zeros(1, int))
    return HittingSummary(t_pi_to=np.full(kernel.n, total), t_hit=float(column.max()),
                          t_target=total, route="character",
                          form_hit_matrix=lambda: _translates(h, range(kernel.n)))


def _birth_death_hit_matrix(kernel: TransitionKernel) -> np.ndarray:
    P, pi, n = kernel.P, kernel.pi, kernel.n
    up, down = np.diag(P, 1), np.diag(P, -1)
    if not (np.all(up > 0.0) and np.all(down > 0.0)):
        raise SingularSystem("birth-death chain with a zero rate; reducible")
    below = np.cumsum(pi)[:-1]                # pi(0..k)
    above = np.cumsum(pi[::-1])[::-1][1:]     # pi(k+1..n-1)
    hit = np.zeros((n, n))
    # a time beyond the double range comes out as inf, which hit_times refuses
    with np.errstate(divide="ignore", over="ignore"):
        e_up = below / (pi[:-1] * up)
        e_down = above / (pi[1:] * down)
        for x in range(n):
            hit[x, x + 1:] = np.cumsum(e_up[x:])
            hit[x, :x] = np.cumsum(e_down[:x][::-1])[::-1]
    return hit


def _spectral_hit_matrix(kernel: TransitionKernel, cols, inv) -> np.ndarray:
    """All of E_x[T_y] from N = A^{-1}, A = S + q q^T, in one n x n array.

    A is filled a block of rows at a time, inverted by inv and dropped;
    the residual check forms its rows again, and the hitting matrix
    overwrites N a block of rows at a time.  inv returns N C-ordered, so
    `pi @ hit` takes the same BLAS route on every inv.
    """
    n, q = kernel.n, np.sqrt(kernel.pi)
    A = np.empty((n, n))
    for rows in index_blocks(n):
        A[rows] = _fundamental_rows(kernel, q, rows)
    try:
        N = inv(A)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"fundamental system is singular: {exc}") from exc
    del A

    Nc = N[:, cols]
    eye = np.zeros((n, cols.size))
    eye[cols, np.arange(cols.size)] = 1.0
    resid = max_over_blocks(n, lambda rows: np.abs(
        _fundamental_rows(kernel, q, rows) @ Nc - eye[rows]))
    if resid > 1e-10 * n:
        raise SingularSystem(f"fundamental solve residual {resid:.3e} > 1e-10*n")

    hit = N
    d_pi = np.diag(N) / kernel.pi
    for rows in index_blocks(n):
        qq = np.outer(q[rows], q)
        np.divide(hit[rows], qq, out=qq)
        np.subtract(d_pi[None, :], qq, out=hit[rows])
    np.fill_diagonal(hit, 0.0)
    return hit


def _fundamental_rows(kernel, q, rows):
    """Rows `rows` of S + q q^T, S the `symmetrized_laplacian`."""
    A = symmetrized_rows(kernel, rows)
    A += np.outer(q[rows], q)
    return A


def _gth_hit_matrix(kernel: TransitionKernel) -> np.ndarray:
    """Every column of E_x[T_y] by `chains._gth_eliminate`, one target y
    at a time.

    P is copied with y moved to index 0, so y is eliminated last and each
    other state's pivot is its outflow into y and into the states before
    it.  The unit right-hand side then folds in along the stored fold-in
    columns, and a forward solve over the eliminated rows gives the times.
    Only additions, multiplications and divisions of nonnegative numbers,
    so every entry keeps relative accuracy regardless of scale.
    """
    n = kernel.n
    hit = np.zeros((n, n))
    for y in range(n):
        order = np.r_[y, 0:y, y + 1:n]
        A = kernel.P[np.ix_(order, order)]
        s = _gth_eliminate(A)
        bad = np.flatnonzero(~(s[1:] > 0.0))
        if bad.size:  # the first zero pivot eliminated
            raise SingularSystem(f"no outflow from state {order[bad[-1] + 1]}; reducible")
        b = np.ones(n)
        for k in range(n - 1, 1, -1):
            b[1:k] += A[1:k, k] * b[k]
        h = np.zeros(n)  # h[0] = E_y[T_y] = 0
        for k in range(1, n):
            h[k] = (b[k] + A[k, 1:k] @ h[1:k]) / s[k]
        hit[order, y] = h
        del A  # before the next target's copy is formed
    return hit


def _check_restricted_residual(kernel, hit, cols):
    r, floor = _restricted_residual(kernel, hit, cols)
    bad = ~(r <= 1e-10 * kernel.n + floor)  # a NaN residual fails too
    if bad.any():
        y = cols[np.flatnonzero(bad.any(axis=0))[0]]
        raise SingularSystem(
            f"restricted system residual for target {y} exceeds contract")


def _restricted_residual(kernel, hit, cols):
    """|h - P h - 1| and its rounding floor for each column y in cols of
    hit, as n x len(cols) arrays that are 0 on the target row y.

    h - P h = 1 off the target state.  The contract 1e-10 * n is only
    verifiable above the rounding floor of forming the residual itself,
    O(n * eps * (|h| + P|h|)) per row; tiny-drift birth-death chains push
    |h| to ~1e19 and beyond, where the floor dominates.  The floor comes
    from P, not from I - P: a small diagonal 1 - P(k,k) inherits the
    eps-sized rounding of P(k,k), far above eps * |1 - P(k,k)|.  Every
    route leaves hit[y, y] = 0, so off row y the column P @ hit[:, y] is
    the restricted system's product without a copy of its block, taken by
    `TransitionKernel.apply`: from the steps of a kernel with a group,
    else from its stored P.
    """
    n = hit.shape[0]
    eps = np.finfo(float).eps
    H = hit[:, cols]
    r = np.abs(H - kernel.apply(H) - 1.0)
    floor = 4.0 * n * eps * (np.abs(H) + kernel.apply(np.abs(H)) + 1.0)
    targets = (cols, np.arange(len(cols)))
    r[targets] = floor[targets] = 0.0
    return r, floor


def eigentime_residual(summary: HittingSummary,
                       decomp: SpectralDecomposition) -> float:
    """|t_target - sum_{i>=2} 1/lambda_i|, the eigentime identity defect."""
    return abs(summary.t_target - spectral_moment(decomp, 1))


def random_target_spread(kernel: TransitionKernel,
                         summary: HittingSummary) -> float:
    """Max deviation of sum_y pi(y) E_x[T_y] from its mean over x."""
    row = summary.hit_matrix @ kernel.pi
    return float(np.abs(row - summary.t_target).max())


# ---------------------------------------------------------------------------
# exact tails of T_y from stationarity

@dataclass(frozen=True)
class TailProfile:
    """P_pi[T_y > t] = sum_j weights[j] exp(-rates[j] t).

    The weights are nonnegative and sum to 1 - pi(y); rates are the
    Dirichlet eigenvalues of the Laplacian with state y removed.
    """

    rates: np.ndarray
    weights: np.ndarray
    pi_y: float

    def survival(self, t: float) -> float:
        """Exact P_pi[T_y > t]; equals 1 - pi(y) at t = 0."""
        t = _check_time(t)
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
            return float(self.weights @ np.exp(-self.rates * t))

    def mean(self) -> float:
        return float(self.weights @ (1.0 / self.rates))

    def second_moment(self) -> float:
        """Exact E_pi[T_y^2] = 2 int_0^inf t P_pi[T_y > t] dt."""
        return 2.0 * float(self.weights @ self.rates**-2.0)


def hitting_tail_profile(kernel: TransitionKernel, y: int) -> TailProfile:
    """Eigendecompose the substochastic block with y removed.

    The symmetrized block is positive definite for an irreducible chain;
    its eigenpairs give the exact mixture of exponentials for the tail.  A
    smallest rate at or below `spectral.resolution` of the block cannot be
    told from zero and raises NumericalFailure.
    """
    (y,) = _check_states("hitting_tail_profile", "y", (y,), kernel.n)
    S, q = symmetrized_laplacian(kernel)
    keep = np.arange(kernel.n) != y
    block = S[np.ix_(keep, keep)]
    del S
    mu, U = np.linalg.eigh(block)
    tol = resolution(mu.size, mu[-1])
    if mu[0] <= tol:
        raise NumericalFailure(f"Dirichlet eigenvalue {mu[0]:.3e} is at or below the "
                               f"eigensolve resolution {tol:.3e}; target {y}")
    c = (U.T @ q[keep]) ** 2
    return TailProfile(rates=mu, weights=c, pi_y=float(kernel.pi[y]))
