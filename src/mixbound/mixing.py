"""L2, L-infinity and total variation distance profiles and mixing times.

Profiles are evaluated spectrally.  The L2, L-infinity and average L2
profiles are positive mixtures sum_{i>=2} w_i exp(-2 lambda_i t), which
subtract nothing and so keep their relative accuracy however small they
get.  The heat rows of all scanned states come from one product per t.
When pi is too unbalanced for the spectral reconstruction they come from
the heat matrix H(t) = exp(-tL), with L the `spectral.laplacian`, on a
dyadic ladder of uniformized factors (Jensen 1953): with q the largest
diagonal entry of L, P_u = I - L/q and U(s) = sum_k w_k P_u^k, w_k the
Poisson(sq) weights, the rungs are R_0 = U(h) for the step h = c/q and
R_{j+1} = R_j^2, and H(t) is the product of the rungs over the set bits
of k = floor(t/h), highest bit first, times U(t - kh), whose Poisson mean
is below c.  Every factor is nonnegative, so nothing subtracts, and H(t)
depends on t alone.
Every mixing time is the first crossing of a strictly decreasing profile.
The mixtures have convex logs, so their crossings come from one vectorised
Newton iteration; TV's come from a bracket plus a Brent-Dekker root solve
(Brent 1973).  Both run to 1e-13 * t_rel plus a few ulp of t, far inside
the 1e-9 * t_rel contract.  The total variation convention here is
t_tv(eps) = first time the worst-case L1 distance drops to 2*eps, so the
plain t_tv corresponds to eps = 1/4."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

from .chains import (DENSE_PEAK_ARRAYS, TransitionKernel, _check_states,
                     check_dense_fits)
from .errors import BadEps, NumericalFailure
from .reports import BoundReport
from .spectral import SpectralDecomposition, heat_kernel_row, laplacian

KINDS = ("linf", "l2x", "tv", "ave_l2")

# Above this stationary imbalance the spectral reconstruction of
# off-diagonal heat entries cancels catastrophically (eigenfunction values
# scale like 1/sqrt(pi_min)); rows then come from the heat ladder, whose
# entries stay in [0, 1].  Diagonal sums are all-positive and never need
# the fallback.
_BALANCE_LIMIT = 1e6

# Absolute part of the crossing tolerance, in units of t_rel.  The solvers
# add a few ulp of t on top: on strongly drifted chains t reaches ~600
# t_rel, where 1e-13 * t_rel alone is below the spacing of doubles.
_XTOL_REL = 1e-13
_EPS = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)
_MAX = float(np.finfo(float).max)

# The ladder step in units of 1/q, which is the Poisson mean of the rung
# R_0 and bounds the mean of every last factor U(t - kh).  Of the steps
# tried on dlp(100) and dlp(200), 1 was the fastest.
_LADDER_STEP = 1.0
# Partial products of rungs kept, the least recently used evicted first.
_PREFIX_CACHE = 4
# n x n arrays a heat matrix evaluation holds beside the rungs and cached
# prefixes: a dense P_u^T, one uncached prefix (the identity, or a new
# product before the oldest is evicted), and the running sum, power and
# scaled term of the Poisson sum (pinned by tests/test_memory.py).
_LADDER_WORK = 5
# P_u^T is stored in CSR form when at most this share of its entries is
# nonzero, else dense.  At n = 200 and 500 a CSR product with a dense
# matrix was the faster one below about a tenth of the entries on one
# BLAS thread, and the dense product gains more from a second thread.
_SPARSE_SHARE = 1.0 / 16.0
# From t_rel (log(1/pi_min)/2 + _SETTLED) on, every row of H(t) lies
# within e^{-_SETTLED} of pi in L1 norm, below double resolution, so the
# heat matrix is evaluated there for any later t and the ladder stops
# growing.
_SETTLED = 40.0
# A Poisson sum stops once the bound on its remaining weight falls below
# this.
_POISSON_TAIL = 1e-18
# Newton iterations allowed for one crossing solve; dlp(200) takes 5 or 6.
_NEWTON_MAX = 100


class MixingProfile:
    """Cached distance evaluators and mixing-time solver for one chain."""

    def __init__(self, kernel: TransitionKernel, decomp: SpectralDecomposition):
        self.kernel = kernel
        self.decomp = decomp
        self._times: dict = {}  # kind, or ("l2x", x) -> {eps: crossing time}
        self._balanced = float(kernel.pi.max() / kernel.pi.min()) <= _BALANCE_LIMIT
        if not self._balanced:
            L = laplacian(kernel)
            # uniformization rate q and the transpose of P_u = I - L/q, whose
            # entries are all nonnegative: P(i,j)/q off the diagonal and
            # 1 - L(k,k)/q on it
            self._q = float(np.diagonal(L).max())
            uniform_t = np.ascontiguousarray((np.eye(kernel.n) - L / self._q).T)
            if np.count_nonzero(uniform_t) <= _SPARSE_SHARE * kernel.n ** 2:
                uniform_t = scipy.sparse.csr_array(uniform_t)
            self._uniform_t = uniform_t
            self._step = _LADDER_STEP / self._q
            self._t_settled = decomp.t_rel * (
                -0.5 * math.log(float(kernel.pi.min())) + _SETTLED)
            self._rungs: list = []  # R_j = U(h)^(2^j)
            self._prefixes: dict = {}  # binary prefix of k -> rung product

    # -- distance profiles -------------------------------------------------

    def linf_distance(self, t: float) -> float:
        """max_y H_t(y,y)/pi(y) - 1 over the scanned states, the worst
        relative density deviation, as sum_{i>=2} f_i(y)^2 exp(-lambda_i t)."""
        return float(self._terms("linf", 0.5 * t).sum(axis=1).max())

    def l2_distance_sq(self, x: int, t: float) -> float:
        """H_{2t}(x,x)/pi(x) - 1 = sum_{i>=2} f_i(x)^2 exp(-2 lambda_i t)."""
        xs = _check_states("l2_distance_sq", "x", (x,), self.kernel.n)
        return float(self._terms("l2x", t, xs).sum(axis=1)[0])

    def l2_distance(self, x: int, t: float) -> float:
        return self.l2_distance_sq(x, t) ** 0.5

    def ave_l2_sq(self, t: float) -> float:
        """sum_x pi(x) d_{2,x}(t)^2 = sum_{i>=2} exp(-2 lambda_i t)."""
        return float(self._terms("ave_l2", t).sum(axis=1)[0])

    def _terms(self, kind: str, t, xs=None) -> np.ndarray:
        """w_i exp(-2 lambda_i t), i >= 2, at one t or one per row, for rows w
        = f_i(x)^2 for x in xs (l2x), for the scanned states (linf, their
        worst at t/2) or ones (ave_l2).  Every evaluator and crossing solve
        forms its terms here, so a crossing meets its threshold exactly."""
        rows = self.decomp.eigfuncs_sq[:, 1:]
        if kind == "l2x":
            rows = rows[xs]
        elif kind == "ave_l2":
            rows = np.ones((1, rows.shape[1]))
        elif self.kernel.transitive:  # linf: state 0 stands for every state
            rows = rows[:1]
        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
            decay = np.exp(-2.0 * self.decomp.lambdas[1:] * np.reshape(t, (-1, 1)))
        # C order, so a row sums alike beside any rows (eigfuncs_sq is F-ordered)
        return np.multiply(rows, decay, order="C")

    def tv_distance(self, x: int, t: float) -> float:
        """L1 distance sum_y |H_t(x,y) - pi(y)|; twice the TV distance."""
        (x,) = _check_states("tv_distance", "x", (x,), self.kernel.n)
        return float(self._l1_distances(self._heat_rows(t, x)))

    def tv_worst(self, t: float) -> float:
        return float(self._l1_distances(self._heat_rows(t, self.kernel.scan_states)).max())

    def _l1_distances(self, rows: np.ndarray):
        """sum_y |rows[..., y] - pi(y)|, formed in place in rows, which
        `_heat_rows` returns fresh."""
        rows -= self.decomp.pi
        np.abs(rows, out=rows)
        return rows.sum(axis=-1)

    def _heat_rows(self, t: float, xs) -> np.ndarray:
        """Rows H_t(xs, .), in a fresh array: spectral when pi is balanced,
        else rows of the heat matrix on the ladder."""
        if self._balanced:
            return heat_kernel_row(self.decomp, xs, t)
        return self._heat_matrix(t)[xs]

    def _heat_matrix(self, t: float) -> np.ndarray:
        """H(t) = exp(-tL) on the dyadic ladder.

        With the step h and k, r = divmod(t, h), H(t) is the product of the
        rungs R_j = U(h)^(2^j) over the set bits of k, highest bit first
        (`_prefix`), times U(r), whose Poisson mean rq is below
        _LADDER_STEP (`_uniformized`).  Every factor is nonnegative and
        stochastic, so no product cancels, and the error grows with the
        number of factors, like that of scaling and squaring.  Past
        t_settled the matrix at t_settled is returned.  The cached
        products are formed the same way whenever they are formed, so
        H(t) is bit for bit the same whatever was evaluated before it.
        """
        k, r = divmod(min(t, self._t_settled), self._step)
        return _uniformized(self._prefix(int(k)), self._uniform_t,
                            _poisson_weights(r * self._q))

    def _prefix(self, k: int) -> np.ndarray:
        """Product of the rungs over the set bits of k, highest bit first.

        The product over the highest i bits is cached under k with its
        lower bits cleared and is always formed as the product over the
        highest i - 1 bits times one rung.  Brent's late iterates share
        their high bits, so they start from a cached prefix.
        """
        bits = [j for j in range(k.bit_length() - 1, -1, -1) if k >> j & 1]
        if not bits:
            return np.eye(self.kernel.n)
        cache = self._prefixes
        done, A = 1, self._rung(bits[0])
        for i in range(len(bits), 1, -1):
            key = k >> bits[i - 1] << bits[i - 1]
            if key in cache:
                done, A = i, cache.pop(key)
                cache[key] = A  # a hit counts as a use
                break
        for j in bits[done:]:
            A = A @ self._rung(j)
            cache[k >> j << j] = A
            if len(cache) > _PREFIX_CACHE:
                del cache[next(iter(cache))]
        return A

    def _rung(self, j: int) -> np.ndarray:
        """R_j = U(h)^(2^j), built by squaring on first use."""
        rungs = self._rungs
        if not rungs:
            check_dense_fits(self.kernel.label, self.kernel.n, 1, self._ladder_arrays())
            rungs.append(_uniformized(np.eye(self.kernel.n), self._uniform_t,
                                      _poisson_weights(_LADDER_STEP)))
        while len(rungs) <= j:
            rungs.append(rungs[-1] @ rungs[-1])
        return rungs[j]

    def _ladder_arrays(self) -> int:
        """n x n arrays of doubles held at the ladder's worst case, the
        exact layer's DENSE_PEAK_ARRAYS included: a rung for each bit of
        the largest k = floor(t_settled / h), the cached prefixes and the
        working arrays of one product."""
        bits = int(self._t_settled // self._step).bit_length()
        return DENSE_PEAK_ARRAYS + bits + _PREFIX_CACHE + _LADDER_WORK

    # -- mixing times --------------------------------------------------------

    def mixing_time(self, kind: str, eps: float, x: int | None = None) -> float:
        """First t at which the requested profile meets its threshold.

        linf uses threshold eps, l2x eps^2 on the squared distance, ave_l2
        eps^2 on the summed squares, tv 2*eps on the worst L1 distance.
        """
        _check_eps(eps)
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        eps = float(eps)
        if kind == "l2x":
            if x is None:
                raise ValueError("l2x mixing time needs a state x")
            xs = _check_states("mixing_time", "x", (x,), self.kernel.n)
            return float(self._l2x_times(eps, xs)[0])
        solved = self._times.setdefault(kind, {})
        if eps not in solved and kind != "tv":
            solved[eps] = float(self._crossings(kind, eps)[0])
        elif eps not in solved:
            # a crossing solved at a smaller eps is a time where the profile
            # has already crossed: the tightest one is the first bracket end
            crossed = [t for e, t in solved.items() if e < eps]
            t_rel = self.decomp.t_rel
            hi = min(crossed) if crossed else t_rel * (
                np.log(max(1.0 / float(self.decomp.pi.min()), 2.0)) / 2.0
                + abs(np.log(2.0 * eps)) + 1.0)
            solved[eps] = _first_crossing(self.tv_worst, _threshold("tv", eps),
                                          hi, xtol=_XTOL_REL * t_rel)
        return solved[eps]

    def l2_mixing_times(self, eps: float) -> np.ndarray:
        """Per-state L2 mixing times over the scanned states, so one entry
        (state 0) when the kernel is transitive.  Each equals
        mixing_time("l2x", eps, x) bit for bit."""
        _check_eps(eps)
        return self._l2x_times(float(eps), list(self.kernel.scan_states))

    def worst_l2_mixing_time(self, eps: float) -> float:
        return float(self.l2_mixing_times(eps).max())

    # -- internals -----------------------------------------------------------

    def _l2x_times(self, eps: float, xs: list) -> np.ndarray:
        """Cached l2x crossings of the states xs, the missing ones solved at once."""
        solved = [self._times.setdefault(("l2x", x), {}) for x in xs]
        todo = [i for i, s in enumerate(solved) if eps not in s]
        if todo:
            times = self._crossings("l2x", eps, [xs[i] for i in todo])
            for i, t in zip(todo, times):
                solved[i][eps] = float(t)
        return np.array([s[eps] for s in solved])

    def _crossings(self, kind: str, eps: float, xs=None) -> np.ndarray:
        """First crossings of the linf, l2x or ave_l2 profile at eps: one per
        state of xs for l2x, else one.

        The profile is g(s) = sum_i w_i e^{-2 lambda_i s} for a row w of
        `_terms`, for linf the worst row at s = t/2.  log g is convex (for
        linf a max of convex functions), so Newton's method on log g -
        log threshold, with the (worst) row's slope, climbs from s = 0
        monotonically to the root.  A row leaves once its step is within
        1e-13 t_rel, moves up by that plus a few ulp, and again until g is
        at most the threshold.
        """
        threshold = _threshold(kind, eps)
        worst = kind == "linf"
        xs = np.asarray(xs if kind == "l2x" else [0])
        lam2 = 2.0 * self.decomp.lambdas[1:]
        tol = _XTOL_REL * self.decomp.t_rel * (0.5 if worst else 1.0)  # in s
        times = np.zeros(len(xs))

        def profile(rows):  # terms and values g of rows at their times
            if worst:
                terms = self._terms(kind, times[0])
                g = terms.sum(axis=1)
                top = [g.argmax()]
                return terms[top], g[top]
            terms = self._terms(kind, times[rows], xs[rows])
            return terms, terms.sum(axis=1)

        active = np.arange(len(xs))
        for _ in range(_NEWTON_MAX):
            terms, g = profile(active)
            # g / slope is at most 1/(2 lambda_2): it cannot overflow
            step = (np.log(g) - math.log(threshold)) * (g / (terms * lam2).sum(axis=1))
            if not np.isfinite(step).all():
                raise NumericalFailure(f"{kind} Newton step is not finite")
            step[(step < 0.0) & (times[active] == 0.0)] = 0.0  # crossed at 0
            times[active] += step
            active = active[np.abs(step) > tol]
            if not active.size:
                break
        else:
            raise NumericalFailure(f"{kind} Newton iteration did not converge")
        times += np.where(times > 0.0, tol + 4.0 * _EPS * times, 0.0)
        late = np.arange(len(xs))
        for _ in range(_NEWTON_MAX):
            late = late[profile(late)[1] > threshold]
            if not late.size:
                return 2.0 * times if worst else times
            times[late] += tol + 4.0 * _EPS * times[late]
        raise NumericalFailure(f"{kind} profile failed to cross its threshold")


def _threshold(kind: str, eps: float) -> float:
    """The crossing threshold of a profile kind at eps, refused unless it
    is a normal double."""
    threshold = {"tv": 2.0 * eps, "linf": eps}.get(kind, eps * eps)
    if not _TINY <= threshold <= _MAX:
        raise BadEps(f"eps={eps} gives the {kind} crossing threshold "
                     f"{threshold:.3e}, which is not a normal double")
    return threshold


def _poisson_weights(m: float) -> list:
    """Poisson(m) weights w_0..w_K, from w_0 = e^{-m} by w_k = w_{k-1} m/k,
    cut at the first k > m whose tail bound w_k r/(1 - r), r = m/(k+1),
    is below _POISSON_TAIL (every later ratio w_{j+1}/w_j is at most r).
    The ladder keeps m below _LADDER_STEP, so e^{-m} is a normal double."""
    w = math.exp(-m)
    weights = [w]
    k = 0
    while True:
        k += 1
        w *= m / k
        weights.append(w)
        r = m / (k + 1)
        if k > m and w * r / (1.0 - r) < _POISSON_TAIL:
            return weights


def _uniformized(H: np.ndarray, uniform_t, weights) -> np.ndarray:
    """H sum_k w_k P_u^k, with uniform_t = P_u^T in CSR or dense form.

    The sum runs in transposed space, sum_k w_k (P_u^T)^k H^T, where every
    term is a product with a C-ordered dense array; the result is
    returned as the transpose of that sum.  Every term is nonnegative.
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
