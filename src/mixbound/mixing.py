"""L2, L-infinity and total variation distance profiles and mixing times.

Profiles are evaluated spectrally.  The L2, L-infinity and average L2
profiles are positive mixtures sum_{i>=2} w_i exp(-2 lambda_i t), which
subtract nothing and so keep their relative accuracy however small they
get.  The heat rows of a set of states come from one product per t and
chains.BLOCK states.
When pi is too unbalanced for the spectral reconstruction they are rows
of H(t) = exp(-tL), with L the `spectral.laplacian`, on a dyadic ladder
of uniformized factors (Jensen 1953): with q the largest diagonal entry
of L, P_u = I - L/q and U(s) = sum_k w_k P_u^k, w_k the Poisson(sq)
weights, the rungs are R_0 = U(h) for the step h = c/q and R_{j+1} =
R_j^2, and H(t) is the product of the rungs over the set bits of k =
floor(t/h), highest bit first, times U(t - kh), whose Poisson mean is
below c.  The requested rows alone go through these factors, as
products of as many rows as were asked for; the last factor's Poisson
sum runs over the columns of their transposed copy, in place, once the
rows are dropped.  Every factor is nonnegative, so nothing subtracts,
and the rows depend on t alone.
Every mixing time is the first crossing of a strictly decreasing profile.
The mixtures have convex logs, so their crossings come from one vectorised
Newton iteration.  TV's is the latest crossing of the rows' L1 distances,
each nonincreasing in t: the rows still above the threshold at the
relaxation bound are solved alone, worst first, each by a bracket plus a
Brent-Dekker root solve (Brent 1973), until a check of the rest finds
none above.  Both run to 1e-13 * t_rel plus a few ulp of t, far inside
the 1e-9 * t_rel contract.  The total variation convention here is
t_tv(eps) = first time the worst-case L1 distance drops to 2*eps, so the
plain t_tv corresponds to eps = 1/4."""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse

from .chains import (DENSE_PEAK_ARRAYS, TransitionKernel, _check_states,
                     check_dense_fits, index_blocks)
from .errors import BadEps, NumericalFailure
from .reports import BoundReport
from .spectral import (SpectralDecomposition, _check_time, _heat_rows,
                       _squared_rows, laplacian)

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
# n x n arrays an evaluation of every row holds beside the rungs: three
# in `_uniformized` (the running sum, formed in the transposed copy of
# the rows, a power and the next power or a scaled term) and a dense
# P_u^T (pinned by tests/test_memory.py).
_LADDER_WORK = 4
# P_u^T is stored in CSR form when at most this share of its entries is
# nonzero, else dense.  At n = 200 and 500 a CSR product with a dense
# matrix was the faster one below about a tenth of the entries on one
# BLAS thread, and the dense product gains more from a second thread.
_SPARSE_SHARE = 1.0 / 16.0
# From t_rel (log(1/pi_min)/2 + _SETTLED) on, every row of H(t) lies
# within e^{-_SETTLED} of pi in L1 norm, below double resolution, so the
# rows are evaluated there for any later t and the ladder stops growing.
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
        # kind -> {eps: crossing time}, for l2x a read-only array over scan_states
        self._times: dict = {}
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

    # -- distance profiles -------------------------------------------------

    def linf_distance(self, t: float) -> float:
        """max_y H_t(y,y)/pi(y) - 1 over the scanned states, the worst
        relative density deviation, as sum_{i>=2} f_i(y)^2 exp(-lambda_i t)."""
        return float(self._row_sums("linf", 0.5 * _check_time(t))[0][0])

    def l2_distance_sq(self, x: int, t: float) -> float:
        """H_{2t}(x,x)/pi(x) - 1 = sum_{i>=2} f_i(x)^2 exp(-2 lambda_i t)."""
        xs = _check_states("l2_distance_sq", "x", (x,), self.kernel.n)
        return float(self._row_sums("l2x", _check_time(t), xs)[0][0])

    def l2_distance(self, x: int, t: float) -> float:
        return self.l2_distance_sq(x, t) ** 0.5

    def ave_l2_sq(self, t: float) -> float:
        """sum_x pi(x) d_{2,x}(t)^2 = sum_{i>=2} exp(-2 lambda_i t)."""
        return float(self._row_sums("ave_l2", _check_time(t))[0][0])

    def _row_sums(self, kind: str, t, xs=None, slopes: bool = False):
        """(g, s) over rows w: g = sum_{i>=2} w_i exp(-2 lambda_i t), at one
        t or one per row, and with slopes s = -g', its 2 lambda-weighted
        sum, else None.  The rows are f_i(x)^2 for x in xs (l2x), ones
        (ave_l2) or, for linf, at one t, the worst of the scanned states.
        Every evaluator and crossing solve sums here, so a crossing meets
        its threshold exactly.  The terms are formed chains.BLOCK rows at a
        time, as fresh C-ordered rows from `spectral._squared_rows`, so a
        row sums alike beside any rows and no n x n array is formed; at
        one t the exponentials are taken once."""
        lam2 = 2.0 * self.decomp.lambdas[1:]
        if kind == "ave_l2":
            xs = None
        else:  # linf: state 0 stands for every state of a transitive kernel
            xs = np.asarray(xs if kind == "l2x" else self.kernel.scan_states)
        count = 1 if xs is None else len(xs)
        g = np.empty(count)
        s = np.empty(count) if slopes and kind != "linf" else None
        per_row = np.ndim(t) > 0

        def terms(rows, decay):  # a row of ave_l2's weights is ones
            if xs is None:
                return np.array(np.broadcast_to(decay, (1, lam2.size)))
            return _squared_rows(self.decomp, xs[rows], decay)

        with np.errstate(over="ignore"):  # exp(-inf) = 0 is the limit
            if not per_row:
                decay = np.exp(-lam2 * t)
            for block in index_blocks(count):
                if per_row:
                    decay = np.exp(-lam2 * t[block, None])
                block_terms = terms(block, decay)
                g[block] = block_terms.sum(axis=1)
                if s is not None:
                    block_terms *= lam2
                    s[block] = block_terms.sum(axis=1)
        if kind == "linf":  # the worst row; its slope from its terms alone
            top = [g.argmax()]
            g = g[top]
            if slopes:
                block_terms = terms(top, decay)
                block_terms *= lam2
                s = block_terms.sum(axis=1)
        return g, s

    def tv_distance(self, x: int, t: float) -> float:
        """L1 distance sum_y |H_t(x,y) - pi(y)|; twice the TV distance."""
        xs = _check_states("tv_distance", "x", (x,), self.kernel.n)
        return float(self._l1_distances(_check_time(t), xs)[0])

    def tv_worst(self, t: float) -> float:
        return float(self._l1_distances(_check_time(t), self.kernel.scan_states).max())

    def _l1_distances(self, t: float, xs) -> np.ndarray:
        """L1 distances sum_y |H_t(x,y) - pi(y)| of the states x of the
        sequence xs, formed in their rows: spectral rows of chains.BLOCK
        states at a time when pi is balanced, so no n x n array is held,
        else rows of the heat ladder (`_ladder_rows`), all at once."""
        if not self._balanced:
            return _l1_from(self._ladder_rows(t, xs), self.decomp.pi)
        xs = np.asarray(xs)
        dist = np.empty(len(xs))
        for block in index_blocks(len(xs)):
            dist[block] = _l1_from(_heat_rows(self.decomp, xs[block], t), self.decomp.pi)
        return dist

    def _ladder_rows(self, t: float, xs) -> np.ndarray:
        """Rows xs of H(t) = exp(-tL) on the dyadic ladder, len(xs) x n.

        With the step h and k, r = divmod(t, h), H(t) is the product of the
        rungs R_j = U(h)^(2^j) over the set bits of k, highest bit first,
        times U(r), whose Poisson mean rq is below _LADDER_STEP.  The rows
        start as rows xs of the first rung, and every later rung is a
        len(xs) x n product.  Their transposed copy, or columns xs of the
        identity when k = 0, is the fresh input of `_uniformized`, and the
        row block is dropped before the sum.  Every factor is nonnegative
        and stochastic, so no product cancels, and the error grows with the
        number of factors, like that of scaling and squaring.  Past
        t_settled the rows at t_settled are returned.  Only the rungs are
        cached, so the rows depend on t and xs alone, whatever was
        evaluated before."""
        k, r = divmod(min(t, self._t_settled), self._step)
        bits = _set_bits(int(k))
        if bits:
            rows = self._rung(bits[0])[xs]
            for j in bits[1:]:
                rows = rows @ self._rung(j)
            cols = np.ascontiguousarray(rows.T)
            del rows
        else:  # H(t) = U(r): start from columns xs of the identity
            cols = np.zeros((self.kernel.n, len(xs)))
            cols[xs, np.arange(len(xs))] = 1.0
        return _uniformized(cols, self._uniform_t, _poisson_weights(r * self._q)).T

    def _rung(self, j: int) -> np.ndarray:
        """R_j = U(h)^(2^j), built by squaring on first use."""
        rungs = self._rungs
        if not rungs:
            check_dense_fits(self.kernel.label, self.kernel.n, 1, self._ladder_arrays())
            # the identity is its own transpose, and U(h) the sum's transpose
            rungs.append(_uniformized(np.eye(self.kernel.n), self._uniform_t,
                                      _poisson_weights(_LADDER_STEP)).T)
        while len(rungs) <= j:
            rungs.append(rungs[-1] @ rungs[-1])
        return rungs[j]

    def _ladder_arrays(self) -> int:
        """n x n arrays of doubles held at the ladder's worst case, the
        exact layer's DENSE_PEAK_ARRAYS included: a rung for each bit of
        the largest k = floor(t_settled / h) and the working arrays of an
        evaluation of every row."""
        bits = int(self._t_settled // self._step).bit_length()
        return DENSE_PEAK_ARRAYS + bits + _LADDER_WORK

    # -- mixing times --------------------------------------------------------

    def mixing_time(self, kind: str, eps: float, x: int | None = None) -> float:
        """First t at which the requested profile meets its threshold.

        linf uses threshold eps, l2x eps^2 on the squared distance, ave_l2
        eps^2 on the summed squares, tv 2*eps on the worst L1 distance.
        Only l2x is a time of one state: it needs x, and every other kind
        refuses one (ValueError).

        H_s is an L1 contraction that fixes pi, so a row's L1 distance
        ||delta_x H_t - pi||_1 never grows with t: t_tv is the latest of
        the rows' own crossings, and a row at or below 2*eps at some time
        stays there.  `_tv_crossing` solves the rows still above 2*eps one
        at a time; every round drops the row it solved, so it ends after
        at most one round per scanned state.
        """
        _check_eps(eps)
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
        if (x is None) == (kind == "l2x"):
            raise ValueError(f"the {kind} mixing time needs a state x" if x is None
                             else f"the {kind} mixing time is over every state; "
                                  f"it takes no state x")
        eps = float(eps)
        if kind == "l2x":
            xs = _check_states("mixing_time", "x", (x,), self.kernel.n)
            return float(self._crossings("l2x", eps, xs)[0])
        solved = self._times.setdefault(kind, {})
        if eps not in solved and kind != "tv":
            solved[eps] = float(self._crossings(kind, eps)[0])
        elif eps not in solved:
            # a positive crossing solved at a smaller eps is a time where the
            # profile has already crossed: the tightest one is the bracket end
            t_rel = self.decomp.t_rel
            hi = min((t for e, t in solved.items() if e < eps and t > 0.0),
                     default=t_rel * (
                         np.log(max(1.0 / float(self.decomp.pi.min()), 2.0)) / 2.0
                         + abs(np.log(2.0 * eps)) + 1.0))
            solved[eps] = self._tv_crossing(eps, hi)
        return solved[eps]

    def _tv_crossing(self, eps: float, hi: float) -> float:
        """First time the L1 distance of every scanned row is at most
        2*eps, the latest of the rows' own crossings, given a time hi past
        it in exact arithmetic.

        With several states scanned, every row is evaluated once at the
        relaxation bound t_rel log(1/(2 eps)), below which the gap
        eigenfunction keeps the worst row above 2*eps in exact arithmetic.
        What counts is the evaluated value: the rows above 2*eps there are
        the candidates and the bound is the lower bracket end; if none is
        (in rounding), the crossing lies below the bound, which becomes the
        upper bracket end over every row.  Each round solves the candidate
        that was worst at the last evaluation alone, by `_first_crossing`
        from the lower bracket end, and checks the other candidates at its
        crossing t in one evaluation.  If none is above 2*eps there, t is
        the answer; else those above are the candidates and t the lower
        bracket end.  A row alone and beside other rows can differ in its
        last bits, so the solved row leaves the candidates whatever the
        check would read it as: every round drops at least one row.  One
        scanned state is solved from 0 at once, as the bound would only
        cost an evaluation.
        """
        threshold = _threshold("tv", eps)
        xtol = _XTOL_REL * self.decomp.t_rel
        xs = np.asarray(self.kernel.scan_states)
        lo, dist = 0.0, np.zeros(len(xs))
        if len(xs) > 1:
            bound = self.decomp.t_rel * max(math.log(0.5 / eps), 0.0)
            dist = self._l1_distances(bound, xs)
            above = dist > threshold
            if above.any():
                lo, xs, dist = bound, xs[above], dist[above]
            elif bound == 0.0:
                return 0.0
            else:
                hi = bound
        while True:
            i = int(dist.argmax())
            x = int(xs[i])
            # a crossing solved at a smaller eps lies past lo save for rounding
            t = _first_crossing(lambda s: self.tv_distance(x, s), threshold,
                                hi if hi > lo else 2.0 * lo, xtol, lo)
            xs = np.delete(xs, i)
            if not xs.size:
                return t
            dist = self._l1_distances(t, xs)
            above = dist > threshold
            if not above.any():
                return t
            lo, xs, dist = t, xs[above], dist[above]

    def l2_mixing_times(self, eps: float) -> np.ndarray:
        """Per-state L2 mixing times over the scanned states, so one entry
        (state 0) when the kernel is transitive, as one read-only array
        cached per eps.  `_crossings` solves every row alone, so each
        entry equals mixing_time("l2x", eps, x) bit for bit."""
        _check_eps(eps)
        solved = self._times.setdefault("l2x", {})
        eps = float(eps)
        if eps not in solved:
            solved[eps] = self._crossings("l2x", eps, self.kernel.scan_states)
            solved[eps].flags.writeable = False
        return solved[eps]

    def worst_l2_mixing_time(self, eps: float) -> float:
        return float(self.l2_mixing_times(eps).max())

    # -- internals -----------------------------------------------------------

    def _crossings(self, kind: str, eps: float, xs=None) -> np.ndarray:
        """First crossings of the linf, l2x or ave_l2 profile at eps: one per
        state of xs for l2x, else one.

        The profile is g(s) = sum_i w_i e^{-2 lambda_i s} for a row w of
        `_row_sums`, for linf the worst row at s = t/2.  log g is convex (for
        linf a max of convex functions), so Newton's method on log g -
        log threshold, with the (worst) row's slope, climbs from s = 0
        monotonically to the root.  A row leaves once its step is within
        1e-13 t_rel, moves up by that plus a few ulp, and again until g is
        at most the threshold.
        """
        threshold = _threshold(kind, eps)
        worst = kind == "linf"
        xs = np.asarray(xs if kind == "l2x" else [0])
        tol = _XTOL_REL * self.decomp.t_rel * (0.5 if worst else 1.0)  # in s
        times = np.zeros(len(xs))

        def profile(rows, slopes=False):  # g and slopes of rows at their times
            return self._row_sums(kind, times[0] if worst else times[rows], xs[rows],
                                  slopes=slopes)

        active = np.arange(len(xs))
        for _ in range(_NEWTON_MAX):
            g, slope = profile(active, slopes=True)
            # g / slope is at most 1/(2 lambda_2): it cannot overflow
            step = (np.log(g) - math.log(threshold)) * (g / slope)
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
            late = late[profile(late)[0] > threshold]
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


def _uniformized(X: np.ndarray, uniform_t, weights) -> np.ndarray:
    """sum_k w_k (P_u^T)^k X over the columns of the C-ordered X, with
    uniform_t = P_u^T in CSR or dense form; the transpose of H sum_k w_k
    P_u^k for H = X^T.

    The sum is formed in place in X, which must be fresh: its first power
    is taken before X is scaled by w_0.  So it holds the running sum, a
    power and the next power or a scaled term, and every term is
    nonnegative.
    """
    power = uniform_t @ X
    X *= weights[0]
    for w in weights[1:-1]:
        X += w * power
        power = uniform_t @ power
    X += weights[-1] * power
    return X


def _l1_from(rows: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """sum_y |rows[..., y] - pi(y)|, formed in place in the fresh rows."""
    rows -= pi
    np.abs(rows, out=rows)
    return rows.sum(axis=-1)


def _set_bits(k: int) -> list:
    """The set bits of k, highest first."""
    return [j for j in range(k.bit_length() - 1, -1, -1) if k >> j & 1]


def _check_eps(eps: float) -> None:
    if not (eps > 0 and math.isfinite(eps)):
        raise BadEps(f"eps must be positive and finite, got {eps}")


def _first_crossing(value, threshold, hi_guess, xtol=0.0, lo=0.0):
    """inf{t >= lo : value(t) <= threshold} for a nonincreasing value.

    Doubles the bracket [lo, hi_guess] from lo until the profile has
    crossed at its end, then runs Brent-Dekker (inverse quadratic
    interpolation and secant steps, safeguarded by bisection) on f = value
    - threshold until the bracket is narrower than xtol plus a few ulp of
    t.  Returns the bracket end at which the profile has already crossed,
    so value(t) <= threshold holds at the returned t; lo when it has
    crossed there.  A hi_guess that is not finite and above lo is refused
    (ValueError): no doubling would move it.
    """
    if not lo < hi_guess < math.inf:
        raise ValueError(f"the bracket end {hi_guess!r} is not finite and above {lo!r}")
    fa = value(lo) - threshold
    if fa <= 0.0:
        return lo
    b = float(hi_guess)
    for _ in range(200):
        fb = value(b) - threshold
        if fb <= 0.0:
            break
        b = lo + (b - lo) * 2.0
    else:
        raise NumericalFailure("profile failed to cross its threshold")
    # a: previous iterate, b: best estimate, c: keeps f(b), f(c) of
    # opposite signs; d: last step, e: the step before it
    a = lo
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
