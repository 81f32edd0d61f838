"""Reference branching random walk engine with an independent code path.

Where the main engine keeps one exponential clock per particle on a
priority queue, this one uses the superposition property: with k live
particles the next event arrives after Exp(k * (1 + gamma)), lands on a
uniformly chosen particle and is a jump with probability 1/(1 + gamma).
Identical in distribution, structurally different code; the two engines
cross-validate each other at Monte Carlo precision.

Seeds are salted so reference runs are independent of main-engine runs
with the same master seed.
"""

from __future__ import annotations

import math
from bisect import bisect
from random import Random

from .chains import TransitionKernel
from .errors import InvalidSpec
from .brw import (BRWConfig, BRWEstimate, _estimate, _run_replicates,
                  resolve_config)

_REFERENCE_SALT = 0x5EED


def _run_hit_ref(seed, rows, start, gamma, target, max_particles, max_time,
                 initial_state):
    rng = Random(seed)
    random = rng.random
    log = math.log
    if initial_state is not None:
        pos0 = initial_state
    else:
        pos0 = start[0][bisect(start[1], random())]
    if pos0 == target:
        return 0.0
    total = 1.0 + gamma
    jump_p = 1.0 / total
    positions = [pos0]
    t = 0.0
    while True:
        k = len(positions)
        t -= log(1.0 - random()) / (k * total)
        if t > max_time:
            return None
        i = rng.randrange(k)
        if random() < jump_p:
            nbrs, cum = rows[positions[i]]
            z = nbrs[bisect(cum, random())]
            positions[i] = z
            if z == target:
                return t
        else:
            if k >= max_particles:
                return None
            positions.append(positions[i])


def _run_intersection_ref(seed, rows, start, gamma, n, max_particles,
                          max_time, initial_states):
    rng = Random(seed)
    random = rng.random
    log = math.log
    if initial_states is not None:
        a0, b0 = initial_states
    else:
        a0 = start[0][bisect(start[1], random())]
        b0 = start[0][bisect(start[1], random())]
    if a0 == b0:
        return 0.0
    visited = (bytearray(n), bytearray(n))
    visited[0][a0] = 1
    visited[1][b0] = 1
    positions = ([a0], [b0])
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
            visited[pr][z] = 1
        else:
            if ka + kb >= max_particles:
                return None
            own.append(own[p])


def simulate_hit_reference(kernel: TransitionKernel, x: int,
                           cfg: BRWConfig,
                           initial_state: int | None = None) -> BRWEstimate:
    if not (0 <= x < kernel.n):
        raise InvalidSpec(f"state {x} outside 0..{kernel.n - 1}")
    cfg = resolve_config(kernel, cfg)
    times = _run_replicates(_run_hit_ref, kernel, cfg, cfg.gamma, int(x),
                            cfg.max_particles, cfg.max_time, initial_state,
                            salt=_REFERENCE_SALT)
    return _estimate(times, f"hit_reference(x={x})")


def simulate_intersection_reference(kernel: TransitionKernel, cfg: BRWConfig,
                                    initial_states=None) -> BRWEstimate:
    cfg = resolve_config(kernel, cfg)
    times = _run_replicates(_run_intersection_ref, kernel, cfg, cfg.gamma,
                            kernel.n, cfg.max_particles, cfg.max_time,
                            initial_states, salt=_REFERENCE_SALT)
    return _estimate(times, "intersection_reference")
