"""Mixing times under relabelling and laziness, as properties.

The route a kernel takes depends on its state order and its structure: a
birth-death chain in natural order keeps P_u^T as its diagonals, the same
chain relabelled takes the dense product, and a pi ratio past
`mixing._BALANCE_LIMIT` takes its TV rows from the heat ladder.  In exact
arithmetic a relabelled chain has the same times state for state, and the
lazy chain P' = (I + P)/2, whose Laplacian is L/2, has every time doubled.
Both hold within the 1e-9 t_rel contract of a mixing time.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixbound import chains, spectral
from mixbound.mixing import MixingProfile

from conftest import drifted_birth_death


def _reversible(rng, log_ratio):
    """A random reversible kernel on 2..12 states whose pi spans
    10^log_ratio: conductances u_xy min(pi(x), pi(y)) with symmetric u."""
    n = int(rng.integers(2, 13))
    pi = 10.0 ** rng.uniform(0.0, log_ratio, n)
    pi[:2] = 1.0, 10.0 ** log_ratio
    u = rng.uniform(0.1, 1.1, (n, n))
    return (u + u.T) * np.minimum.outer(pi, pi) / pi[:, None] / (2.0 * n)


def _kernel(seed, log_ratio, birth_death, slow):
    """A drawn P with its moves scaled by 10^-slow, so that the diagonals
    of slow rows are near 1 and only their off-diagonal sums keep the
    rates' relative accuracy."""
    rng = np.random.default_rng(seed)
    if birth_death:  # from 48 states on, a ladder keeps P_u^T as diagonals
        P = drifted_birth_death(rng, int(rng.integers(3, 65)), 10.0 ** log_ratio)
    else:
        P = _reversible(rng, log_ratio)
    P *= 10.0 ** -slow
    np.fill_diagonal(P, 0.0)
    np.fill_diagonal(P, 1.0 - P.sum(axis=1))
    return rng, P


def _times(P, eps):
    """t_rel, the linf, tv and ave_l2 times at eps and the per-state l2x
    times of the certified kernel P, as one array."""
    kernel = chains.kernel_from_matrix(P)
    decomp = spectral.decompose(kernel)
    prof = MixingProfile(kernel, decomp)
    worst = [prof.mixing_time(kind, eps) for kind in ("linf", "tv", "ave_l2")]
    return np.array([decomp.t_rel, *worst, *prof.l2_mixing_times(eps)])


_DRAWS = dict(seed=st.integers(0, 2**32 - 1), birth_death=st.booleans(),
              slow=st.integers(0, 8), eps=st.sampled_from([0.05, 0.25, 0.5, 1.5]))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(log_ratio=st.floats(0.0, 30.0), **_DRAWS)
def test_lazy_chain_doubles_every_time(seed, log_ratio, birth_death, slow, eps):
    _, P = _kernel(seed, log_ratio, birth_death, slow)
    times = _times(P, eps)
    lazy = 0.5 * P
    lazy[np.diag_indices_from(P)] += 0.5
    assert np.abs(0.5 * _times(lazy, eps) - times).max() <= 1e-9 * times[0]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(log_ratio=st.floats(0.0, 16.0), **_DRAWS)
def test_relabelled_chain_keeps_every_time(seed, log_ratio, birth_death, slow, eps):
    # state i of the relabelled chain is state perm[i] of P.  A dense
    # kernel spreads pi over half the decades: eigh resolves F at its
    # small-pi states in absolute terms only, so their l2x times moved by
    # up to 1e-10 t_rel past a ratio of 1e10, and 6e-9 t_rel at 1e15.7
    rng, P = _kernel(seed, log_ratio if birth_death else log_ratio / 2.0,
                     birth_death, slow)
    perm = rng.permutation(len(P))
    times = _times(P, eps)
    times[4:] = times[4:][perm]
    assert np.abs(_times(P[np.ix_(perm, perm)], eps) - times).max() <= 1e-9 * times[0]


def _reference_crossing(rows, lam, threshold):
    """The latest t at which some row's sum_i w_i exp(-lambda_i t) falls
    to the threshold, each row by Newton on its log from t = 0 in the
    working precision."""
    latest = mpmath.mpf(0)
    for w in rows:
        t = mpmath.mpf(0)
        while True:
            g = mpmath.fsum(wi * mpmath.exp(-li * t) for wi, li in zip(w, lam))
            slope = mpmath.fsum(wi * li * mpmath.exp(-li * t) for wi, li in zip(w, lam))
            step = (mpmath.log(g) - mpmath.log(threshold)) * g / slope
            if t == 0 and step <= 0:
                break
            t += step
            if abs(step) <= mpmath.mpf(10) ** -40 * t:
                break
        latest = max(latest, t)
    return latest


@pytest.mark.xfail(strict=True, reason="dense eigh resolves F at small-pi states "
                   "in absolute terms only: relabelled, linf(1/4) and the least-pi "
                   "state's l2x(1/4) move by 3.7e-8 and 3.3e-8 t_rel")
def test_relabelled_strongly_drifted_chain_keeps_the_contract():
    # a birth-death chain on 19 states whose pi spans 2.4e24 (least pi 4e-25).
    # Against a 60-digit reference the natural order is within 1.4e-13
    # t_rel; t_rel and ave_l2 stay within 1e-13 t_rel relabelled too
    rng = np.random.default_rng(188)
    n = int(rng.integers(3, 41))
    P = drifted_birth_death(rng, n, 10.0 ** rng.uniform(10.0, 30.0))
    perm = rng.permutation(n)
    least = 0  # the drift is upwards
    with mpmath.workdps(60):
        # S = Pi^(1/2) L Pi^(-1/2) from the float rates; f_i(x)^2 =
        # v_i(x)^2 / pi(x) for the orthonormal eigenvectors v_i of S
        rate = lambda i, j: mpmath.mpf(float(P[i, j]))
        pi = [mpmath.mpf(1)]
        for i in range(n - 1):
            pi.append(pi[-1] * rate(i, i + 1) / rate(i + 1, i))
        pi = [p / mpmath.fsum(pi) for p in pi]
        S = mpmath.matrix(n, n)
        for i in range(n - 1):
            S[i, i + 1] = S[i + 1, i] = -mpmath.sqrt(rate(i, i + 1) * rate(i + 1, i))
            S[i, i] += rate(i, i + 1)
            S[i + 1, i + 1] += rate(i + 1, i)
        lam, V = mpmath.eigsy(S)
        order = sorted(range(n), key=lambda i: lam[i])[1:]
        lam = [lam[i] for i in order]
        rows = [[V[x, i] ** 2 / pi[x] for i in order] for x in range(n)]
        quarter = mpmath.mpf(1) / 4
        ref = {"t_rel": 1 / lam[0],
               "linf": _reference_crossing(rows, lam, quarter),
               "ave_l2": _reference_crossing([[1] * (n - 1)], lam, quarter ** 2) / 2,
               "l2x": _reference_crossing([rows[least]], lam, quarter ** 2) / 2}
    t_rel = float(ref["t_rel"])
    assert max(pi) / pi[least] > 1e24
    for label, relabel in (("natural", np.arange(n)), ("relabelled", perm)):
        kernel = chains.kernel_from_matrix(P[np.ix_(relabel, relabel)])
        decomp = spectral.decompose(kernel)
        prof = MixingProfile(kernel, decomp)
        x = int(np.flatnonzero(relabel == least)[0])
        got = {"t_rel": decomp.t_rel, "linf": prof.mixing_time("linf", 0.25),
               "ave_l2": prof.mixing_time("ave_l2", 0.25),
               "l2x": prof.mixing_time("l2x", 0.25, x)}
        for kind, t in got.items():
            assert abs(t - float(ref[kind])) <= 1e-9 * t_rel, (label, kind, t)
