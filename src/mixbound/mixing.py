"""L2, L-infinity and total variation distance profiles and mixing times.

Profiles are evaluated spectrally; the heat rows of all scanned states come
from one product per t.  When pi is too unbalanced for the spectral
reconstruction they come from the heat matrix H(t) = expm(-tL), with L the
`spectral.laplacian`, stepped from the latest cached earlier time s > 0 as
H(s) expm(-(t - s)L).  A step is uniformized (Jensen 1953) when that is
cheaper: H(s) sum_k w_k P_u^k with P_u = I - L/q, q the largest diagonal
entry of L, and w_k the Poisson((t - s)q) weights, cut where the geometric
bound on the remaining weight is below 1e-18.  Every term is nonnegative,
so no step subtracts.  A value at t can differ in its last digits with the
times evaluated before it, which decide its base and its route.
Every mixing time is the first crossing of a strictly decreasing profile,
found by a bracket plus a Brent-Dekker root solve (Brent 1973) run to
1e-13 * t_rel plus a few ulp of t, far inside the 1e-9 * t_rel contract;
the linf and l2x profiles, which fall from about 1/pi_min, are solved on
a log scale.  The total variation convention here is t_tv(eps) = first
time the worst-case L1 distance drops to 2*eps, so the plain t_tv
corresponds to eps = 1/4.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
import scipy.sparse

from .chains import TransitionKernel
from .errors import BadEps, NumericalFailure
from .reports import BoundReport
from .spectral import (SpectralDecomposition, heat_diag_ratio, heat_kernel_row,
                       laplacian)

KINDS = ("linf", "l2x", "tv", "ave_l2")

# Above this stationary imbalance the spectral reconstruction of
# off-diagonal heat entries cancels catastrophically (eigenfunction values
# scale like 1/sqrt(pi_min)); rows then come from the matrix exponential,
# whose entries stay in [0, 1].  Diagonal ratios are all-positive sums and
# never need the fallback.
_BALANCE_LIMIT = 1e6

# Absolute part of the crossing tolerance, in units of t_rel.  The solver
# adds a few ulp of t on top: on strongly drifted chains t reaches ~600
# t_rel, where 1e-13 * t_rel alone is below the spacing of doubles.
_XTOL_REL = 1e-13
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)

# Heat matrices kept when pi is unbalanced, the least recently used evicted
# first: 1.3 MB at n = 200.
_HEAT_CACHE = 4

# A step is uniformized when _TERM_COST * K * n * nnz(P_u), the cost of its
# K sparse terms in units of dense matrix-product flops, is below the cost
# of expm and one product: _PADE13_PRODUCTS products of 2n^3 flops for the
# degree-13 Pade approximant (Higham 2005: six products and one solve), one
# per squaring of a norm above _THETA13, and the product H(s) expm(-tau L).
# The two routes took equal time at _TERM_COST about 10 on dlp(200) and
# about 15 on dlp(500), one BLAS thread.
_TERM_COST = 12.0
_PADE13_PRODUCTS = 7
_THETA13 = 5.371920351148152
# The Poisson sum stops once the bound on its remaining weight falls below
# this.
_POISSON_TAIL = 1e-18


class MixingProfile:
    """Cached distance evaluators and mixing-time solver for one chain."""

    def __init__(self, kernel: TransitionKernel, decomp: SpectralDecomposition):
        self.kernel = kernel
        self.decomp = decomp
        self._times: dict = {}  # (kind, x) -> {eps: crossing time}
        self._balanced = float(kernel.pi.max() / kernel.pi.min()) <= _BALANCE_LIMIT
        self._heat: dict = {}  # t -> H(t) when unbalanced, oldest use first
        if not self._balanced:
            L = laplacian(kernel)
            self._laplacian = L
            self._norm1 = float(np.abs(L).sum(axis=0).max())
            # uniformization rate q and the transpose of P_u = I - L/q, whose
            # entries are all nonnegative: P(i,j)/q off the diagonal and
            # 1 - L(k,k)/q on it
            self._q = float(np.diagonal(L).max())
            self._uniform_t = scipy.sparse.csr_array((np.eye(kernel.n) - L / self._q).T)

    # -- distance profiles -------------------------------------------------

    def linf_distance(self, t: float) -> float:
        """max_y H_t(y,y)/pi(y) - 1, the worst relative density deviation."""
        if self.kernel.transitive:
            return heat_diag_ratio(self.decomp, t, x=0) - 1.0
        return float(heat_diag_ratio(self.decomp, t).max()) - 1.0

    def l2_distance_sq(self, x: int, t: float) -> float:
        return max(heat_diag_ratio(self.decomp, 2.0 * t, x) - 1.0, 0.0)

    def l2_distance(self, x: int, t: float) -> float:
        return self.l2_distance_sq(x, t) ** 0.5

    def tv_distance(self, x: int, t: float) -> float:
        """L1 distance sum_y |H_t(x,y) - pi(y)|; twice the TV distance."""
        return float(np.abs(self._heat_rows(t, x) - self.decomp.pi).sum())

    def tv_worst(self, t: float) -> float:
        rows = self._heat_rows(t, self.kernel.scan_states)
        return float(np.abs(rows - self.decomp.pi).sum(axis=1).max())

    def _heat_rows(self, t: float, xs) -> np.ndarray:
        """Rows H_t(xs, .): spectral when pi is balanced, else rows of the
        stepped heat matrix."""
        if self._balanced:
            return heat_kernel_row(self.decomp, xs, t)
        return self._heat_matrix(t)[xs]

    def _heat_matrix(self, t: float) -> np.ndarray:
        """H(t) = H(s) expm(-(t - s)L) for the largest cached s in (0, t],
        else expm(-tL).

        A step is uniformized when `_uniformized_cheaper` says so: with
        P_u = I - L/q and m = (t - s)q, H(s) expm(-(t - s)L) is the Poisson
        mixture sum_k e^{-m} m^k/k! H(s) P_u^k (Jensen 1953).  Either way
        every factor is nonnegative and every row of H(s) is stochastic, so
        the step adds no cancellation and its absolute error stays at the
        level of one expm.  Taking a base counts as a use, so Brent's lower
        bracket end stays cached as the base of every later iterate and the
        late steps are short.
        """
        heat = self._heat
        bases = [s for s in heat if s <= t]
        s = max(bases, default=0.0)
        if bases:
            H = heat.pop(s)
            heat[s] = H  # taking a base counts as a use
            if s == t:
                return H
        if s == 0.0:  # cold: H(0) = I, nothing to step from
            H = scipy.linalg.expm(-t * self._laplacian)
        else:
            tau = t - s
            weights = _poisson_weights(tau * self._q)
            if weights is not None and _uniformized_cheaper(
                    self.kernel.n, self._uniform_t.nnz, len(weights),
                    tau * self._norm1):
                H = _uniformized(H, self._uniform_t, weights)
            else:
                H = H @ scipy.linalg.expm(-tau * self._laplacian)
        heat[t] = H
        if len(heat) > _HEAT_CACHE:
            del heat[next(iter(heat))]
        return H

    def ave_l2_sq(self, t: float) -> float:
        """sum_x pi(x) d_{2,x}(t)^2 = sum_{i>=2} exp(-2 lambda_i t)."""
        return float(np.exp(-2.0 * self.decomp.lambdas[1:] * t).sum())

    # -- mixing times --------------------------------------------------------

    def mixing_time(self, kind: str, eps: float, x: int | None = None) -> float:
        """First t at which the requested profile meets its threshold.

        linf and l2x use threshold eps, ave_l2 uses eps^2 on the summed
        squares, tv uses 2*eps on the worst L1 distance.
        """
        _check_eps(eps)
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if kind == "l2x":
            if x is None:
                raise ValueError("l2x mixing time needs a state x")
            x = int(x)
        else:
            x = None
        solved = self._times.setdefault((kind, x), {})
        eps = float(eps)
        if eps not in solved:
            solved[eps] = self._solve(kind, eps, x, solved)
        return solved[eps]

    def l2_mixing_times(self, eps: float) -> np.ndarray:
        """Per-state L2 mixing times over the scanned states: the cached
        l2x crossing of each state, so one entry (state 0) when the kernel
        is transitive."""
        return np.array([self.mixing_time("l2x", eps, x=x)
                         for x in self.kernel.scan_states])

    def worst_l2_mixing_time(self, eps: float) -> float:
        return float(self.l2_mixing_times(eps).max())

    # -- internals -----------------------------------------------------------

    def _solve(self, kind, eps, x, solved):
        """Crossing time of one profile; solved maps the eps values already
        solved for the same kind and state to their crossing times."""
        threshold = {"tv": 2.0 * eps, "ave_l2": eps * eps}.get(kind, eps)
        if not _TINY <= threshold <= _MAX:
            raise BadEps(f"eps={eps} gives the {kind} crossing threshold "
                         f"{threshold:.3e}, which is not a normal double")
        decomp = self.decomp
        t_rel = decomp.t_rel
        pi_min = float(decomp.pi.min())
        if kind == "linf":
            value = self.linf_distance
            hi = t_rel * (np.log(max(1.0 / pi_min, 2.0) / eps) + 1.0)
        elif kind == "l2x":
            value = lambda t: self.l2_distance(x, t)
            hi = t_rel * (np.log(max(1.0 / float(decomp.pi[x]), 2.0)) / 2.0
                          + np.log(1.0 / eps) + 1.0)
        elif kind == "tv":
            value = self.tv_worst
            hi = t_rel * (np.log(max(1.0 / pi_min, 2.0)) / 2.0
                          + abs(np.log(2.0 * eps)) + 1.0)
        else:
            value = self.ave_l2_sq
            hi = 0.5 * t_rel * (np.log(max(self.kernel.n - 1.0, 1.0) / eps**2) + 2.0)
        if kind in ("linf", "l2x"):
            # these fall like C exp(-t/t_rel) from about 1/pi_min, so on a
            # log scale the interpolation steps are accepted
            distance = value
            value = lambda t: math.log(max(distance(t), _TINY))
            threshold = math.log(threshold)
        # a crossing solved at a smaller eps is a time where this profile
        # has already crossed: the tightest one is the first bracket end
        crossed = [t for e, t in solved.items() if e < eps]
        hi = min(crossed) if crossed else max(hi, t_rel)
        return _first_crossing(value, threshold, hi, xtol=_XTOL_REL * t_rel)


def _poisson_weights(m: float) -> list | None:
    """Poisson(m) weights w_0..w_K, from w_0 = e^{-m} by w_k = w_{k-1} m/k,
    cut at the first k > m whose tail bound w_k r/(1 - r), r = m/(k+1),
    is below _POISSON_TAIL (every later ratio w_{j+1}/w_j is at most r).
    None when e^{-m} is not a normal double: every weight would inherit
    its lost digits."""
    w = math.exp(-m)
    if w < _TINY:
        return None
    weights = [w]
    k = 0
    while True:
        k += 1
        w *= m / k
        weights.append(w)
        r = m / (k + 1)
        if k > m and w * r / (1.0 - r) < _POISSON_TAIL:
            return weights


def _uniformized_cheaper(n: int, nnz: int, terms: int, norm: float) -> bool:
    """Whether `terms` sparse products with nnz stored entries cost less
    than expm of an n x n matrix of 1-norm `norm` plus one dense product."""
    squarings = max(0, math.ceil(math.log2(max(norm, _TINY) / _THETA13)))
    expm_cost = 2.0 * n**3 * (_PADE13_PRODUCTS + squarings + 1)
    return _TERM_COST * terms * n * nnz < expm_cost


def _uniformized(H: np.ndarray, uniform_t, weights) -> np.ndarray:
    """H sum_k w_k P_u^k, with uniform_t = P_u^T in CSR form.

    The sum runs in transposed space, sum_k w_k (P_u^T)^k H^T, where every
    term is a sparse-times-dense product of C-ordered arrays; the result
    is returned as the transpose of that sum.  Every term is nonnegative.
    """
    X = np.ascontiguousarray(H.T)
    total = weights[0] * X
    for w in weights[1:]:
        X = uniform_t @ X
        total += w * X
    return total.T


def _check_eps(eps: float) -> None:
    if not (eps > 0 and math.isfinite(eps)):
        raise BadEps(f"eps must be positive and finite, got {eps}")


def _first_crossing(value, threshold, hi_guess, xtol=0.0):
    """inf{t >= 0 : value(t) <= threshold} for a nonincreasing value.

    Doubles hi_guess until the profile has crossed, then runs Brent-Dekker
    (inverse quadratic interpolation and secant steps, safeguarded by
    bisection) on f = value - threshold until the bracket is narrower than
    xtol plus a few ulp of t.  Returns the bracket end at which the profile
    has already crossed, so value(t) <= threshold holds at the returned t.
    """
    fa = value(0.0) - threshold
    if fa <= 0.0:
        return 0.0
    b = float(hi_guess)
    for _ in range(200):
        fb = value(b) - threshold
        if fb <= 0.0:
            break
        b *= 2.0
    else:
        raise NumericalFailure("profile failed to cross its threshold")
    # a: previous iterate, b: best estimate, c: keeps f(b), f(c) of
    # opposite signs; d: last step, e: the step before it
    a = 0.0
    c, fc = a, fa
    d = e = b - a
    while True:
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b) + 0.5 * xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol or fb == 0.0:
            return b if fb <= 0.0 else c
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            else:
                p = -p
            if 2.0 * p < min(3.0 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = value(b) - threshold


def hierarchy_check(profile: MixingProfile, eps: float,
                    t_hit: float) -> list[BoundReport]:
    """The classical chain of mixing-time comparisons, evaluated exactly.

    Five links for eps in (0,1): relaxation lower bound on TV, TV below the
    worst L2 time, the exact factor-two identity between L2 and uniform
    times, the log(1/pi_min) upper bound, and the 9 * t_hit bound on the
    plain uniform mixing time.  The kernel and its decomposition are the
    profile's, whose cached crossings are reused; t_hit is the kernel's
    worst expected hitting time.
    """
    if not (0.0 < eps < 1.0):
        raise BadEps(f"hierarchy check needs eps in (0,1), got {eps}")
    kernel = profile.kernel
    t_rel = profile.decomp.t_rel
    pi_min = float(kernel.pi.min())
    ctx = {"kernel": kernel.label, "eps": eps}

    t_tv = profile.mixing_time("tv", eps / 2.0)
    t_l2 = profile.worst_l2_mixing_time(eps)
    t_linf_sq = profile.mixing_time("linf", eps * eps)
    t_linf_half = profile.mixing_time("linf", 0.5)

    identity_gap = abs(t_l2 - 0.5 * t_linf_sq)
    return [
        BoundReport.check("rel_log_le_tv", t_rel * abs(np.log(eps)), t_tv, **ctx),
        BoundReport.check("tv_le_l2", t_tv, t_l2, **ctx),
        BoundReport.check("l2_linf_identity", identity_gap,
                          1e-8 * (1.0 + t_l2), **ctx),
        BoundReport.check("l2_le_rel_log_pimin", 0.5 * t_linf_sq,
                          t_rel * abs(np.log(eps * eps * pi_min)), **ctx),
        BoundReport.check("linf_le_9_thit", t_linf_half, 9.0 * t_hit,
                          kernel=kernel.label),
    ]
