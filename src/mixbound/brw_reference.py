"""Reference branching random walk engine with an independent code path.

Where the main engine keeps one exponential clock per particle on a
priority queue, this one uses the superposition property: with k live
particles the next event arrives after Exp(k * (1 + gamma)), lands on a
uniformly chosen particle and is a jump with probability 1/(1 + gamma).
Identical in distribution, structurally different event loop; the two
engines cross-validate each other at Monte Carlo precision.  One race
serves both estimators here too, with the main engine's start and checks.

Seeds are salted so reference runs are independent of main-engine runs
with the same master seed.
"""

from __future__ import annotations

import math
from bisect import bisect
from random import Random

from .brw import BRWConfig, BRWEstimate, _race_start, _simulate
from .chains import TransitionKernel

_REFERENCE_SALT = 0x5EED


def _run_race_ref(seed, rows, start, gamma, n, max_particles, max_time,
                  initial_states, target):
    """brw._run_race by superposition: the same race, the same arguments."""
    rng = Random(seed)
    random = rng.random
    log = math.log
    race = _race_start(random, start, n, initial_states, target)
    if race is None:
        return 0.0
    visited, positions = race
    total = 1.0 + gamma
    jump_p = 1.0 / total
    t = 0.0
    while True:
        ka, kb = len(positions[0]), len(positions[1])
        t -= log(1.0 - random()) / ((ka + kb) * total)
        if t > max_time:
            return None
        i = rng.randrange(ka + kb)
        pr, p = (0, i) if i < ka else (1, i - ka)
        own = positions[pr]
        if random() < jump_p:
            nbrs, cum = rows[own[p]]
            z = nbrs[bisect(cum, random())]
            own[p] = z
            if visited[1 - pr][z]:
                return t
            visited[pr][z] = True
        else:
            if ka + kb >= max_particles:
                return None
            own.append(own[p])


def simulate_hit_reference(kernel: TransitionKernel, x: int,
                           cfg: BRWConfig,
                           initial_state: int | None = None) -> BRWEstimate:
    return _simulate(_run_race_ref, kernel, cfg, f"hit_reference(x={x})",
                     None if initial_state is None else (initial_state,), x,
                     salt=_REFERENCE_SALT)


def simulate_intersection_reference(kernel: TransitionKernel, cfg: BRWConfig,
                                    initial_states=None) -> BRWEstimate:
    return _simulate(_run_race_ref, kernel, cfg, "intersection_reference",
                     initial_states, salt=_REFERENCE_SALT)
