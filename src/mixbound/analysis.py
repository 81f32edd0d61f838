"""One-stop bundle of the exact quantities derived from a kernel."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .chains import ChainFamilySpec, TransitionKernel, build_family
from .hitting import HittingSummary, character_hit_times, hit_times
from .mixing import MixingProfile
from .spectral import (SpectralDecomposition, character_decompose, decompose,
                       spectral_moment)


@dataclass
class ChainAnalysis:
    """Kernel plus its decomposition, hitting summary and mixing profile.

    The one place these are computed: bounds, brw and cli read them from
    an analysis instead of solving the kernel again.  It is also the one
    place a route is chosen: a kernel with a group (a built-in transitive
    family) takes the character route, with no eigensolve, no inverse and
    no n x n array, not even P (`chains.CHARACTER_PEAK_VECTORS`); any
    other kernel the dense route, whose peak `chains.DENSE_PEAK_ARRAYS`
    counts: P and F, which the analysis keeps, and numpy's eigh or inv
    with their copies and workspaces while F or the hitting times are
    solved.  Every later read (a moment vector, a heat diagonal, a profile
    or TV evaluation) holds rows of chains.BLOCK states beside them."""

    kernel: TransitionKernel
    decomp: SpectralDecomposition
    profile: MixingProfile

    @cached_property
    def hitting(self) -> HittingSummary:
        """Hitting-time summary on the route of the decomposition, solved
        on first access (profiles never need it)."""
        if self.decomp.route == "character":
            return character_hit_times(self.kernel, self.decomp)
        return hit_times(self.kernel)

    @classmethod
    def from_kernel(cls, kernel: TransitionKernel) -> "ChainAnalysis":
        decomp = decompose(kernel) if kernel.group is None else character_decompose(kernel)
        return cls(kernel=kernel, decomp=decomp,
                   profile=MixingProfile(kernel, decomp))

    @classmethod
    def from_spec(cls, spec: ChainFamilySpec) -> "ChainAnalysis":
        return cls.from_kernel(build_family(spec))

    def summary(self) -> dict:
        """Headline scalars; the CLI analyze output in dict form."""
        d, h, p = self.decomp, self.hitting, self.profile
        out = {
            "n": self.kernel.n,
            "gap": d.gap,
            "t_rel": d.t_rel,
            "t_hit": h.t_hit,
            "t_target": h.t_target,
            "t_pi_max": float(h.t_pi_to.max()),
            "t_pi_min": float(h.t_pi_to.min()),
        }
        for ell in (1, 2, 3, 4):
            out[f"q{ell}"] = spectral_moment(d, ell)
        out["t_mix_linf"] = p.mixing_time("linf", 0.5)
        out["t_mix_tv"] = p.mixing_time("tv", 0.25)
        out["t_mix_ave_l2"] = p.mixing_time("ave_l2", 0.5)
        return out

