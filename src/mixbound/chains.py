"""Finite irreducible reversible Markov chains and the benchmark families.

States are integers ``0..n-1``.  Torus states are row-major flattenings of
coordinate tuples, so ``torus(d=1, m=n)`` reproduces ``cycle(n)`` exactly.
Every kernel stores its stationary distribution explicitly; reversibility
is certified when a kernel is built, not assumed.  A kernel holds P, or,
for a built-in transitive family, its Cayley group (`CayleyGroup`), never
both: products with P are then taken from the group's steps in O(n)
memory, and P itself is formed only when a dense consumer reads it.
`validate` is the one certifier, from P or from the step table: every
construction path accepts a kernel only when all of its checks pass, and
`kernel_from_matrix` and `stationary` raise from its first failed check.

Chain-spec files are UTF-8 ``key=value`` lines, e.g.::

    family=torus
    d=2
    m=8

Each key appears at most once and is a parameter of the family; only the
dlp family's k may be left out (it defaults to n).  ``dlp`` and ``lam``
are other names for ``dlp_birth_death`` and ``lambda``.

Custom matrices are referenced with ``family=custom`` and ``matrix=<csv>``
where the CSV holds n rows of n comma-separated decimals.
"""

from __future__ import annotations

import hashlib
import io
import math
import operator
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import InvalidSpec, NotIrreducible, NotReversible, NumericalFailure

# Structural tolerance: about 100x double epsilon accumulated at n ~ 1e4.
STRUCT_TOL = 1e-12
# Smallest normal double: a stationary entry below it has lost precision.
_TINY = float(np.finfo(float).tiny)
# Rows (or columns) per block when the exact layer works on an n x n
# matrix a block at a time, so each temporary holds BLOCK x n doubles.
BLOCK = 32
# Most n x n arrays of doubles the dense route of the exact layer holds at
# once, P included, counted from the peak RSS since LAPACK's buffers are
# not traced.  numpy's eigh (syevd) holds four arrays beside S, its copy
# of S, the eigenvectors and a workspace of 2 n^2 doubles, so `decompose`
# peaks at six with P and S; `hit_times`' spectral route at six too, P,
# the eigenfunctions the analysis keeps, S + q q^T and inv's copy of it,
# its identity and the inverse.  Freed buffers the allocator keeps add
# about half an array: an analysis with its hitting times read 6.5 to
# 6.7 arrays at n = 1024, at one and two BLAS threads (pinned by
# tests/test_memory.py).  A kernel kept as its group's steps is refused
# by this count only where its dense P is formed (`TransitionKernel.P`).
DENSE_PEAK_ARRAYS = 7
# Most arrays of n doubles a kernel kept as its group's steps holds at once
# on the character route, no n x n array among them: about 90 plus the
# group's dimension d, most of it the phases of the eigen-residual's 16
# sampled characters, one part of them and its image under P (pinned by
# tests/test_memory.py).
CHARACTER_PEAK_VECTORS = 128


def index_blocks(n: int) -> list:
    """Slices of at most BLOCK consecutive indices that cover 0..n-1."""
    return [slice(i, min(i + BLOCK, n)) for i in range(0, n, BLOCK)]


def max_over_blocks(n: int, block) -> float:
    """The largest entry of block(rows) over the `index_blocks` of n, which
    is NaN when any block holds a NaN, as the max of one array would be."""
    return float(np.max([block(rows).max() for rows in index_blocks(n)]))


def _check_states(label: str, what: str, values, n: int, count: int = 1) -> list:
    """values as a list of count integer states in 0..n-1, else InvalidSpec
    naming label.  Any integer type is accepted (operator.index); a float,
    a string, a negative index or a wrong count is refused, never aliased
    or truncated."""
    try:
        values = [operator.index(v) for v in values]
    except TypeError:
        values = []
    if len(values) != count or not all(0 <= v < n for v in values):
        raise InvalidSpec(f"{label}: {what} must be {count} integer "
                          f"state(s) in 0..{n - 1}")
    return values


class _Family(NamedTuple):
    params: dict  # parameter -> kind: an integer's lowest value, float or np.ndarray
    size: str | None = None  # the parameter `--sizes` sets
    states: tuple = ()  # (m, d): d coordinates in 0..m-1, each a parameter or a number
    defaults: dict = {}  # a parameter that may be left out -> the one it copies


class CayleyGroup(NamedTuple):
    """The abelian group Z_m^d a transitive kernel walks on, and its steps.

    shape is (m,)*d, and state x is the row-major flattening of its
    element, as `np.unravel_index(x, shape)` reads it.  The walk steps by
    +-e_i, 1/(2d) each, or, when complete, to every other element, 1/(n-1)
    each (the complete graph, as Z_n).  At m = 2 the steps +e_i and -e_i
    are the same element, and P(x, x + e_i) = 1/d holds both."""

    shape: tuple
    complete: bool = False

    @property
    def steps(self) -> np.ndarray:
        """The step table: one row of d coordinates per step, in the order
        `dense` adds them, with the weight `step_weight` each."""
        m, d = self.shape[0], len(self.shape)
        if self.complete:
            return np.arange(1, m)[:, None]
        eye = np.eye(d, dtype=int)
        return np.stack([eye, -eye], axis=1).reshape(2 * d, d)

    @property
    def step_weight(self) -> float:
        return 1.0 / (self.shape[0] - 1) if self.complete else 1.0 / (2 * len(self.shape))

    def apply(self, X: np.ndarray) -> np.ndarray:
        """P @ X from the steps, for X of n rows, in O(n) memory per column:
        (P X)(x) is the mean of X(x + s) over the steps s, each a roll of X
        along the group's axes, or (sum X - X)/(n - 1) when complete."""
        if self.complete:
            return (X.sum(axis=0) - X) / (self.shape[0] - 1)
        Y = X.reshape(self.shape + X.shape[1:])
        axes = tuple(range(len(self.shape)))
        out = np.zeros_like(Y)
        for step in self.steps:
            out += np.roll(Y, tuple(-step), axes)
        out *= self.step_weight
        return out.reshape(X.shape)

    def dense(self) -> np.ndarray:
        """The n x n matrix P of the walk, the one dense builder of a
        group's kernel: step_weight added at (x, x + s) for each row s of
        `steps`, in its order, so a step that lands where another did (at
        m = 2) adds to it."""
        rows = np.arange(math.prod(self.shape))
        x = np.unravel_index(rows, self.shape)
        P = np.zeros((rows.size, rows.size))
        for step in self.steps:
            y = np.ravel_multi_index(tuple(c + s for c, s in zip(x, step)), self.shape,
                                     mode="wrap")
            P[rows, y] += self.step_weight
        return P


# The one statement of each family's parameters, which every reader of a
# spec goes by.  A spec file names the custom matrix's CSV.
_FAMILY_PARAMS = {
    "cycle": _Family({"n": 2}, "n", ("n", 1)),
    "torus": _Family({"d": 1, "m": 2}, "m", ("m", "d")),
    "complete": _Family({"n": 2}, "n", ("n", 1)),
    "hypercube": _Family({"d": 1}, "d", (2, "d")),
    "dlp_birth_death": _Family({"n": 2, "lambda": float, "eps": float, "k": 0},
                               "n", ("n", 1), {"k": "n"}),
    "custom": _Family({"matrix": np.ndarray}),
}
# Other spellings of a family or parameter name.
_ALIASES = {"dlp": "dlp_birth_death", "lam": "lambda"}
# The names `--family` accepts: each family with a size, and its aliases.
_SIZED = [name for name, fam in _FAMILY_PARAMS.items() if fam.size]
SIZED_FAMILIES = (*_SIZED, *(alias for alias, name in _ALIASES.items() if name in _SIZED))


class TransitionKernel:
    """Row-stochastic matrix P with certified stationary distribution pi.

    A kernel holds either P or, for a built-in transitive family, its
    Cayley group, and refuses both: with a group, P is formed from the
    group's steps on first read, once and only after its memory check,
    and every product with P that the character route takes is `apply`,
    which forms no n x n array.  The container itself performs only shape
    coercion; the construction paths (`build_family`, `kernel_from_matrix`,
    `load_kernel`) certify it with `validate` and raise on violation.
    Arrays are frozen after construction and safe to share across
    threads.  group is the Cayley group of a built-in transitive family,
    else None; a custom kernel has none even when it is transitive.
    """

    def __init__(self, n: int, P: np.ndarray | None = None, *, pi: np.ndarray,
                 label: str = "custom", group: CayleyGroup | None = None):
        if (P is None) == (group is None):
            raise InvalidSpec("a kernel holds exactly one of its matrix P and its group")
        if P is not None:
            P = np.array(P, dtype=float)
            P.setflags(write=False)
        pi = np.array(pi, dtype=float)
        if (P is not None and P.shape != (n, n)) or pi.shape != (n,):
            raise InvalidSpec(f"shape mismatch: n={n}, "
                              f"P{None if P is None else P.shape}, pi{pi.shape}")
        if group is not None and math.prod(group.shape) != n:
            raise InvalidSpec(f"a group of shape {group.shape} does not have "
                              f"n={n} elements")
        pi.setflags(write=False)
        for name, value in (("n", n), ("pi", pi), ("label", label), ("group", group),
                            ("_P", P)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"a TransitionKernel is immutable; cannot set {name}")

    def __repr__(self):
        return f"TransitionKernel(n={self.n}, label={self.label!r}, group={self.group})"

    @property
    def P(self) -> np.ndarray:
        """The n x n matrix; a kernel with a group forms it from the
        group's steps on first read, refused when the dense route's peak of
        DENSE_PEAK_ARRAYS such arrays exceeds physical memory."""
        if self._P is None:
            check_dense_fits(self.label, self.n, 1, DENSE_PEAK_ARRAYS)
            P = self.group.dense()
            P.setflags(write=False)
            object.__setattr__(self, "_P", P)
        return self._P

    def apply(self, X: np.ndarray) -> np.ndarray:
        """P @ X: from the group's steps on a kernel with a group, else the
        product with the stored P."""
        return self.P @ X if self.group is None else self.group.apply(X)

    @property
    def transitive(self) -> bool:
        """Whether every state is equivalent: the kernel has a group."""
        return self.group is not None

    @property
    def scan_states(self):
        """States a worst-state scan visits: state 0 alone when the kernel
        is transitive, where every state is equivalent, else every state."""
        return [0] if self.transitive else range(self.n)


@dataclass(frozen=True)
class ChainFamilySpec:
    """A named benchmark family plus its parameters."""

    family: str
    params: dict = field(default_factory=dict)

    @property
    def size(self):
        """The value of the parameter `--sizes` sets; None for a custom
        matrix or an unknown family."""
        return self.params.get(_FAMILY_PARAMS.get(self.family, _Family({})).size)

    def label(self) -> str:
        inner = ",".join(f"{k}={_fmt_param(v)}" for k, v in sorted(self.params.items())
                         if k != "matrix")
        return f"{self.family}({inner})"


def _fmt_param(v):
    if isinstance(v, float):
        return format(v, ".12g")
    return str(v)


def family_spec(family: str, size, params: dict) -> ChainFamilySpec:
    """Spec of a built-in family (or an alias of one) with its size set to
    `size` and its other parameters taken from `params`, which may hold
    others; a None value takes its default."""
    family = _ALIASES.get(family, family)
    fam = _FAMILY_PARAMS[family]
    given = {key: params[key] for key in fam.params if params.get(key) is not None}
    return ChainFamilySpec(family, _read_params(family, {**given, fam.size: size}))


def cycle_spec(n: int) -> ChainFamilySpec:
    return family_spec("cycle", n, {})


def torus_spec(d: int, m: int) -> ChainFamilySpec:
    return family_spec("torus", m, {"d": d})


def complete_spec(n: int) -> ChainFamilySpec:
    return family_spec("complete", n, {})


def hypercube_spec(d: int) -> ChainFamilySpec:
    return family_spec("hypercube", d, {})


def dlp_spec(n: int, lam: float, eps: float, k: int | None = None) -> ChainFamilySpec:
    return family_spec("dlp_birth_death", n, {"lambda": lam, "eps": eps, "k": k})


def custom_spec(matrix: np.ndarray) -> ChainFamilySpec:
    return ChainFamilySpec("custom", {"matrix": np.array(matrix, dtype=float)})


def canonical_spec_text(spec: ChainFamilySpec) -> str:
    """Stable text form of a spec, used for digests and manifests.  A
    matrix is named by `_matrix_digest`, its encoding in the line."""
    lines = [f"family={spec.family}"]
    for key in sorted(spec.params):
        if key == "matrix":
            lines.append(f"matrix=sha256-f8le:{_matrix_digest(spec.params['matrix'])}")
        else:
            lines.append(f"{key}={_fmt_param(spec.params[key])}")
    return "\n".join(lines) + "\n"


def _matrix_digest(matrix) -> str:
    """sha256 hex digest of a matrix's shape and values: the dimension and
    each extent as little-endian int64, then every value in row-major
    order as little-endian float64.  The memory layout of the input and
    its dtype do not enter, only the values it holds as doubles; -0.0 and
    0.0 differ, and so do two NaN payloads.  One pass over the bytes,
    where printing the matrix again as text costs far more."""
    values = np.ascontiguousarray(matrix, dtype="<f8")
    digest = hashlib.sha256(np.array((values.ndim, *values.shape), dtype="<i8").tobytes())
    digest.update(values)
    return digest.hexdigest()


def _matrix_csv_bytes(matrix) -> bytes:
    buf = io.BytesIO()
    np.savetxt(buf, np.asarray(matrix, float), fmt="%.17g", delimiter=",")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# family builders

def _check_keys(family: str, keys, where: str = "") -> None:
    """Refuse a key the family does not take and a missing parameter it needs."""
    fam = _FAMILY_PARAMS[family]
    unknown = sorted(set(keys) - set(fam.params))
    if unknown:
        raise InvalidSpec(f"{where}family {family} takes no parameter "
                          f"{', '.join(unknown)}")
    missing = [key for key in fam.params if key not in keys and key not in fam.defaults]
    if missing:
        raise InvalidSpec(f"{where}family {family} needs parameter {', '.join(missing)}")


def _read_params(family: str, params: dict) -> dict:
    """A built-in family's parameters, checked against their kinds and defaulted."""
    _check_keys(family, params)
    fam = _FAMILY_PARAMS[family]
    out = {}
    for key, kind in fam.params.items():
        v = params[key] if key in params else out[fam.defaults[key]]
        try:
            whole = kind is float or int(v) == v
        except (ValueError, OverflowError):  # int() of nan or +-inf
            whole = False
        if not whole or (kind is not float and v < kind):
            raise InvalidSpec(f"{key} must be an integer of at least {kind}, got {v!r}")
        out[key] = float(v) if kind is float else int(v)
    return out


def build_family(spec: ChainFamilySpec) -> TransitionKernel:
    """Build a certified kernel for a benchmark family.

    Raises InvalidSpec for an unknown family, a parameter the family does
    not take, an out-of-range value, or a dense matrix beyond physical
    memory.  Built-in families are reversible by construction; this is
    asserted, not trusted.
    """
    fam = spec.family
    if fam not in _FAMILY_PARAMS:
        raise InvalidSpec(f"unknown family {fam!r}")
    if fam == "custom":
        _check_keys(fam, spec.params)
        return kernel_from_matrix(spec.params["matrix"], label=spec.label())
    p = _read_params(fam, spec.params)
    label = ChainFamilySpec(fam, p).label()
    m, d = (p.get(x, x) for x in _FAMILY_PARAMS[fam].states)
    if fam == "dlp_birth_death":
        check_dense_fits(label, m, d, DENSE_PEAK_ARRAYS)
        kernel = _build_dlp(p["n"], p["lambda"], p["eps"], p["k"])
    else:  # Z_m^d: the cycle has d = 1, the hypercube m = 2
        check_dense_fits(label, m, d, CHARACTER_PEAK_VECTORS, rank=1)
        n = m**d
        kernel = TransitionKernel(n=n, pi=np.full(n, 1.0 / n), label=label,
                                  group=CayleyGroup((m,) * d, complete=fam == "complete"))

    report = validate(kernel)
    if not report.passed:
        raise NumericalFailure(f"built-in family failed validation: {report}")
    return kernel


def check_dense_fits(label, m, d, arrays: int, rank: int = 2) -> None:
    """Refuse a chain of n = m**d states when `arrays` dense arrays of
    n**rank doubles (n x n matrices at rank 2, vectors at rank 1) exceed
    this machine's physical memory.  Works on log n, so nothing is
    allocated and m**d is never formed."""
    try:
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, OSError, ValueError):
        return  # the platform cannot tell; numpy reports a failed allocation
    log10_n = d * math.log10(m) if d < 2**1023 else math.inf  # d beyond a double
    if math.log10(8 * arrays) + rank * log10_n > math.log10(have):
        what = "dense matrices of n^2" if rank == 2 else "arrays of n"
        raise InvalidSpec(f"{label} has about 10^{log10_n:.6g} states; "
                          f"{arrays} {what} doubles exceed "
                          f"the {have / 2**30:.3g} GiB of physical memory")


def _build_dlp(n, lam, eps, k):
    """Birth-death chain whose nonzero Laplacian eigenvalues cluster near lam.

    Row i (1-based) moves down with probability r_i*eps and up with
    r_i*(1-eps).  With k = n every row uses the rate r_i = lam.  For k < n
    the k top rows keep rate lam, rows below the boundary use rate 1/2, and
    the boundary row i = n-k uses the average of the two block rates; any
    birth-death chain is reversible, so the seam only reshapes pi.
    """
    if not (0.0 < lam <= 1.0):
        raise InvalidSpec(f"lambda={lam} outside (0, 1]")
    if not (0.0 < eps < 0.5):
        raise InvalidSpec(f"eps={eps} outside (0, 1/2)")
    if not (0 <= k <= n):
        raise InvalidSpec(f"k={k} outside [0, {n}]")

    rates = _dlp_rates(n, lam, k)
    smallest = rates.min() * min(eps, 1.0 - eps)  # the least off-diagonal P
    if smallest < _TINY:
        raise InvalidSpec(f"dlp with lambda={lam}, eps={eps}: the rate product "
                          f"{smallest:.3e} is below the smallest normal double")
    pi = _dlp_pi(rates, eps)
    if not _representable(pi):
        m = _dlp_largest_n(n, lam, eps, k)
        fits = f"the largest n that fits is {m}" if m >= 2 else "no n >= 2 fits"
        raise InvalidSpec(f"dlp with n={n}, lambda={lam}, eps={eps}: pi spans more "
                          f"orders of magnitude than a double can hold; {fits}")

    P = np.zeros((n, n))
    for idx in range(n):
        up = rates[idx] * (1.0 - eps) if idx < n - 1 else 0.0
        down = rates[idx] * eps if idx > 0 else 0.0
        # interior rows hold 1 - up - down = 1 - rate exactly; subtracting
        # up and down in turn can round below zero when the rate is 1
        P[idx, idx] = 1.0 - rates[idx] if 0 < idx < n - 1 else 1.0 - up - down
        if idx < n - 1:
            P[idx, idx + 1] = up
        if idx > 0:
            P[idx, idx - 1] = down

    label = f"dlp_birth_death(n={n},lambda={_fmt_param(lam)},eps={_fmt_param(eps)},k={k})"
    return TransitionKernel(n=n, P=P, pi=pi, label=label)


def _dlp_rates(n, lam, k):
    boundary = n - k
    rates = np.empty(n)
    for idx in range(n):
        i = idx + 1
        if i < boundary:
            rates[idx] = 0.5
        elif i == boundary:
            rates[idx] = 0.5 * (0.5 + lam)
        else:
            rates[idx] = lam
    return rates


def _dlp_pi(rates, eps):
    # Detailed-balance product in log space; eps near 0 makes pi span many
    # orders of magnitude.  Each factor is the same product the matrix
    # entry P[idx, idx+1] or P[idx+1, idx] holds.
    n = rates.size
    log_pi = np.zeros(n)
    for idx in range(n - 1):
        log_pi[idx + 1] = (log_pi[idx] + math.log(rates[idx] * (1.0 - eps))
                           - math.log(rates[idx + 1] * eps))
    log_pi -= log_pi.max()
    pi = np.exp(log_pi)
    pi /= pi.sum()
    return pi


def _dlp_largest_n(n, lam, eps, k):
    """Largest m < n whose dlp pi (k capped at m) is representable, by
    bisection: the log-pi span is (m-1) log((1-eps)/eps) plus a bounded
    seam term, so it grows with m."""
    lo, hi = 1, n
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _representable(_dlp_pi(_dlp_rates(mid, lam, min(k, mid)), eps)):
            lo = mid
        else:
            hi = mid
    return lo


# ---------------------------------------------------------------------------
# validation and custom kernels

@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tol


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def max_residual(self) -> float:
        return max(c.residual for c in self.checks)

    def __str__(self):
        parts = [f"{c.name}: residual={c.residual:.3e} tol={c.tol:.0e} "
                 f"{'ok' if c.passed else 'FAIL'}" for c in self.checks]
        return "; ".join(parts)


def validate(kernel: TransitionKernel) -> ValidationReport:
    """Measure every kernel invariant and report residuals.

    Never raises; failures are carried in the report.  A NaN or an inf
    anywhere in P or pi fails at least one check.  A kernel with a group is
    measured from its group's step table (`_step_checks`), in O(n) memory;
    every other kernel from P.
    """
    pi = kernel.pi
    if kernel.group is not None:
        row_sums, nonnegative, balance, stat, connected = _step_checks(kernel)
    else:
        P = kernel.P
        row_sums, nonnegative, connected = _matrix_checks(P)
        # an inf in pi turns inf * 0 into NaN, which fails the checks below
        with np.errstate(over="ignore", invalid="ignore"):
            balance = max_over_blocks(kernel.n, lambda rows: np.abs(
                pi[rows, None] * P[rows] - pi[None, :] * P[:, rows].T))
            stat = float(np.abs(pi @ P - pi).max())
    return ValidationReport((
        row_sums, nonnegative,
        CheckResult("pi_positive", float(max(0.0, -(pi.min() - _TINY))), 0.0),
        CheckResult("pi_sums_to_one", float(abs(pi.sum() - 1.0)), STRUCT_TOL),
        CheckResult("detailed_balance", balance, STRUCT_TOL),
        CheckResult("stationarity", stat, STRUCT_TOL),
        connected,
    ))


def _step_checks(kernel: TransitionKernel) -> tuple:
    """The row-sum, sign, balance, stationarity and connectivity checks of
    `validate` from the step table of a kernel's group, in O(n * steps) time.

    P(x, x + e) = W(e), the weight of the steps landing on the element e,
    so every row sums the step weights; detailed balance pairs pi(x) W(e)
    with pi(x + e) W(-e), and (pi P)(y) = sum_e pi(y - e) W(e), one roll of
    pi per element.  A symmetric step set with equal weights and a uniform
    pi pass both.  The steps reach every state from any state iff they
    generate the group, which on a finite abelian group holds iff no
    character but the trivial one is 1 on every step: chi_k(e) = 1 iff
    <k, e> = 0 mod m.
    """
    group, pi = kernel.group, kernel.pi.reshape(kernel.group.shape)
    m, axes = group.shape[0], tuple(range(len(group.shape)))
    elements, counts = np.unique(group.steps % m, axis=0, return_counts=True)
    W = counts * group.step_weight
    weight_of = dict(zip(map(tuple, elements), W))
    balances, pi_P = [], np.zeros_like(pi)
    with np.errstate(over="ignore", invalid="ignore"):  # as in validate
        for e, w in zip(elements, W):
            back = weight_of.get(tuple(-e % m), 0.0)
            before = np.roll(pi, tuple(e), axes)  # pi(y - e) at y
            balances.append(np.abs(before * w - pi * back).max())
            pi_P += before * w
        stat = float(np.abs(pi_P - pi).max())
    balance = float(np.max(balances))  # NaN if any residual is, as in validate
    k = np.array(np.unravel_index(np.arange(kernel.n), group.shape)).T
    for e in elements:
        if len(k) == 1:  # the trivial character alone is left
            break
        k = k[(k @ e) % m == 0]  # the characters still 1 on every step so far
    return (CheckResult("row_sums", abs(float(W.sum()) - 1.0), STRUCT_TOL),
            CheckResult("nonnegative_entries", float(max(0.0, -W.min())), 0.0),
            balance, stat,
            CheckResult("strongly_connected", float(len(k) > 1), 0.0))


def _matrix_checks(P) -> tuple:
    """The checks of validate that read P alone: row sums, nonnegative
    entries and strong connectivity."""
    support = P > 0
    support |= P < 0  # |P| > 0 without forming |P|; NaN is no edge
    # a row holding inf and -inf sums to NaN, which fails the row-sum check
    with np.errstate(over="ignore", invalid="ignore"):
        row_sums = float(np.abs(P.sum(axis=1) - 1.0).max())
    # strongly connected: every state is reached from state 0, and reaches it.
    # On a band, i reaches i + 1 only by its own edge and i + 1 reaches i
    # likewise, so every sub- and super-diagonal entry must be an edge: O(n)
    # where the search would take one round per state
    if _is_tridiagonal(support):
        connected = bool(np.diagonal(support, 1).all()
                         and np.diagonal(support, -1).all())
    else:
        connected = _reaches_all(support) and _reaches_all(support.T)
    return (CheckResult("row_sums", row_sums, STRUCT_TOL),
            CheckResult("nonnegative_entries", float(max(0.0, -P.min())), 0.0),
            CheckResult("strongly_connected", float(not connected), 0.0))


def _is_tridiagonal(A: np.ndarray) -> bool:
    """Whether every nonzero entry of the square A (NaN included) lies on
    its main, sub- or super-diagonal."""
    band = sum(np.count_nonzero(np.diagonal(A, k)) for k in (-1, 0, 1))
    return np.count_nonzero(A) == band


def _reaches_all(edges: np.ndarray) -> bool:
    """Whether a breadth-first search from state 0 along the edges i -> j
    where edges[i, j] is True reaches every state."""
    seen = np.arange(edges.shape[0]) == 0
    frontier = seen
    while frontier.any():
        frontier = edges[frontier].any(axis=0) & ~seen
        seen = seen | frontier
    return bool(seen.all())


# The exception a failed check raises, and what the failure means.
_CHECK_ERRORS = {
    "row_sums": (InvalidSpec, "a row of P does not sum to 1"),
    "nonnegative_entries": (InvalidSpec, "P has a negative entry"),
    "pi_positive": (InvalidSpec, f"pi has an entry below {_TINY:.3e}"),
    "pi_sums_to_one": (InvalidSpec, "pi does not sum to 1"),
    "detailed_balance": (NotReversible, "P is not reversible with respect to pi"),
    "stationarity": (NotReversible, "pi P differs from pi"),
    "strongly_connected": (NotIrreducible, "the support graph of P is not strongly connected"),
}


def _raise_first_failure(checks) -> None:
    for check in checks:
        if not check.passed:
            exc, meaning = _CHECK_ERRORS[check.name]
            raise exc(f"{check.name} residual {check.residual:.3e} exceeds "
                      f"{check.tol:g}: {meaning}")


def _representable(pi: np.ndarray) -> bool:
    """Every entry finite and a normal double, the bound validate checks."""
    return bool(np.isfinite(pi).all() and pi.min() >= _TINY)


def stationary(P: np.ndarray) -> np.ndarray:
    """Unique positive probability vector with pi P = pi.

    Grassmann-Taksar-Heyman elimination (`_gth_eliminate`, in panels of
    BLOCK states) and its back-substitution along the fold-in columns: no
    subtractions, so every entry keeps relative accuracy even when pi
    spans hundreds of orders of magnitude (the small-drift birth-death
    family does).  Besides P it holds the eliminated copy of P and
    temporaries of at most BLOCK x n doubles (pinned by
    tests/test_memory.py).  A matrix that fails a check of `validate`
    raises as in `kernel_from_matrix`, before the elimination.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise InvalidSpec(f"matrix must be square, got shape {P.shape}")
    _raise_first_failure(_matrix_checks(P))
    n = P.shape[0]
    A = P.copy()
    _gth_eliminate(A)
    pi = np.empty(n)
    pi[0] = 1.0
    # pi spread beyond the double range overflows to inf and then NaN;
    # the representability check below reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n):
            pi[k] = pi[:k] @ A[:k, k]
        pi /= pi.sum()
    if not _representable(pi):
        raise InvalidSpec("stationary distribution is not representable in "
                          "double precision (an entry is not finite or below "
                          f"{_TINY:.3e})")
    resid = float(np.abs(pi @ P - pi).max())
    if not resid <= 1e-10:
        raise NumericalFailure(f"stationary residual {resid:.3e} exceeds 1e-10")
    return pi


def _gth_eliminate(A: np.ndarray) -> np.ndarray:
    """Grassmann-Taksar-Heyman elimination of states n-1, ..., 1 of the
    nonnegative matrix A, in place; returns the pivots.

    State k's pivot s[k] = sum_{j<k} A[k, j] is its outflow into the states
    before it, which replaces the diagonal 1 - A[k, k] exactly, as the
    fold-in updates preserve row sums.  Its fold-in column A[:k, k] is
    divided by s[k], and A[:k, :k] gains the flow through k, the product
    A[:k, k] A[k, :k].

    The states go in panels of the `index_blocks` of n, last panel first.
    Within a panel k0..k1-1, state k's product goes at once only to the
    panel's rows k0..k-1 and to the panel columns k0..k-1 of the rows
    above, the entries the panel's later states read.  A[:k0, :k0] gains
    the whole panel's products in one matrix product per block of rows,
    A[:k0, k0:k1] @ A[k0:k1, :k0], whose factors are the panel's final
    fold-in columns and rows.  So when state k is eliminated, s[k], A[:k, k]
    and A[k, :k] are final, as in the one-state-at-a-time loop, and only
    the order of the additions into A[:k0, :k0] differs from it.  Every
    factor is nonnegative: only sums, products and quotients of
    nonnegative numbers, so every entry keeps relative accuracy.  Each
    temporary holds at most BLOCK x n doubles.  s[0] is 0, the outflow of
    state 0 into no state.  A zero pivot (a reducible A) is not refused
    here: it leaves inf or NaN entries, quietly.
    """
    n = A.shape[0]
    s = np.empty(n)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for panel in reversed(index_blocks(n)):
            k0 = panel.start
            for k in reversed(range(k0, panel.stop)):
                s[k] = A[k, :k].sum()
                A[:k, k] /= s[k]
                A[k0:k, :k] += np.outer(A[k0:k, k], A[k, :k])
                A[:k0, k0:k] += np.outer(A[:k0, k], A[k, k0:k])
            for rows in index_blocks(k0):
                A[rows, :k0] += A[rows, panel] @ A[panel, :k0]
    return s


def kernel_from_matrix(P: np.ndarray, pi: np.ndarray | None = None,
                       label: str = "custom") -> TransitionKernel:
    """Certify an arbitrary matrix as a reversible irreducible kernel.

    pi defaults to `stationary(P)`.  The first failed check of `validate`
    raises: InvalidSpec for a malformed P or pi, NotIrreducible for a
    disconnected support graph, NotReversible for balance or stationarity.
    """
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
        raise InvalidSpec(f"matrix must be square with n >= 2, got shape {P.shape}")
    if pi is None:
        pi = stationary(P)
    kernel = TransitionKernel(n=P.shape[0], P=P, pi=pi, label=label)
    _raise_first_failure(validate(kernel).checks)
    return kernel


def random_reversible_kernel(n: int, rng: np.random.Generator,
                             label: str | None = None) -> TransitionKernel:
    """Random walk on a dense random weighted graph (always reversible)."""
    W = rng.uniform(0.1, 1.1, size=(n, n))
    W = 0.5 * (W + W.T)
    deg = W.sum(axis=1)
    P = W / deg[:, None]
    pi = deg / deg.sum()
    return TransitionKernel(n=n, P=P, pi=pi, label=label or f"random(n={n})")


# ---------------------------------------------------------------------------
# chain-spec files and CSV export

def parse_chain_spec(path: str | Path) -> ChainFamilySpec:
    """Parse a key=value chain-spec file; see the module docstring."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidSpec(f"cannot read spec file: {exc}") from exc
    pairs = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidSpec(f"{path}:{ln}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = _ALIASES.get(key.strip(), key.strip())
        if key in pairs:
            raise InvalidSpec(f"{path}:{ln}: repeated key {key!r}")
        pairs[key] = value.strip()

    name = pairs.pop("family", None)
    if name is None:
        raise InvalidSpec(f"{path}: missing family= line")
    family = _ALIASES.get(name, name)
    if family not in _FAMILY_PARAMS:
        raise InvalidSpec(f"{path}: unknown family {name!r}")
    _check_keys(family, pairs, f"{path}: ")
    kinds = _FAMILY_PARAMS[family].params
    return ChainFamilySpec(family, {key: _parse_value(path, key, value, kinds[key])
                                    for key, value in pairs.items()})


def _parse_value(path: Path, key: str, value: str, kind):
    """A spec-file value read as its kind; a matrix from the CSV it names."""
    if kind is not np.ndarray:
        try:
            return float(value) if kind is float else int(value)
        except ValueError as exc:
            raise InvalidSpec(f"{path}: bad value for {key}: {value!r}") from exc
    csv = (path.parent / value).resolve()
    try:
        with warnings.catch_warnings():  # an empty file is refused below
            warnings.simplefilter("ignore", UserWarning)
            matrix = np.loadtxt(csv, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise InvalidSpec(f"cannot read matrix CSV {csv}: {exc}") from exc
    if matrix.size == 0:
        raise InvalidSpec(f"matrix CSV {csv} holds no rows")
    return matrix


def load_kernel(path: str | Path) -> TransitionKernel:
    return build_family(parse_chain_spec(path))


def export_kernel_csv(kernel: TransitionKernel, path: str | Path) -> None:
    """Write P as n CSV rows followed by one row holding pi."""
    Path(path).write_bytes(_matrix_csv_bytes(np.vstack([kernel.P, kernel.pi])))
