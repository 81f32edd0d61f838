"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with -s to see them).  Deterministic criteria use exact values
and stated tolerances; Monte Carlo criteria use master_seed=7 with the
frozen calibration bands."""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from mixbound import bounds, brw, brw_reference, chains, hitting, spectral
from mixbound.reports import failures

from conftest import BENCHMARK_SPECS

SRC = str(Path(__file__).resolve().parents[1] / "src")

# Scalar fixture bands, frozen by the protocol at brw.HIT_BANDS (20000
# replicates, master_seed=7, widened 50 percent each side).
CYCLE64_HIT_BAND = (0.5356, 1.2052)
TORUS28_INTERSECT_BAND = (0.6043, 1.3596)
PLAIN_COMPLETE_BAND = (0.4789, 1.2017)
PLAIN_TORUS_BAND = (0.5078, 1.1901)


@contextmanager
def criterion(num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} ({label}): FAIL "
              f"({time.perf_counter() - t0:.1f}s)")
        raise
    print(f"\nACCEPTANCE {num} ({label}): PASS "
          f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_1_identity_suite(benchmark_analyses, random_kernel_analyses):
    with criterion(1, "identity suite"):
        for analysis in benchmark_analyses + random_kernel_analyses:
            kernel, decomp, h = analysis.kernel, analysis.decomp, analysis.hitting
            scale = 1.0 + h.t_target
            assert hitting.eigentime_residual(h, decomp) <= 1e-8 * scale, kernel.label
            assert hitting.random_target_spread(kernel, h) <= 1e-8 * scale, kernel.label
            sigma1 = spectral.moment_vector(decomp, 1)
            rel = np.abs(h.t_pi_to - sigma1) / (1.0 + np.abs(sigma1))
            assert rel.max() <= 1e-8, kernel.label
            for ell in (1, 2, 3, 4):
                q = spectral.spectral_moment(decomp, ell)
                avg = float(kernel.pi @ spectral.moment_vector(decomp, ell))
                assert abs(avg - q) <= 1e-8 * (1.0 + q), (kernel.label, ell)


def test_criterion_2_inequality_sweep(benchmark_analyses, random_kernel_analyses):
    with criterion(2, "inequality sweep"):
        total = 0
        for analysis in benchmark_analyses + random_kernel_analyses:
            reports = bounds.standard_sweep(
                analysis, eps_list=(0.25, 0.5, 1.0), ell_list=(1, 2, 3, 4))
            bad = failures(reports)
            assert not bad, f"{analysis.kernel.label}: {bad[0]}"
            total += len(reports)
        print(f"  {total} reports checked", end="")


def test_criterion_3_tightness_witness(analysis_cache):
    with criterion(3, "tightness witness"):
        for n in (4, 8, 16):
            analysis = analysis_cache(chains.complete_spec(n))
            linf = bounds.hitting_bound_reports(analysis, eps=0.5)[0]
            assert abs(linf.slack) <= 1e-9, (n, linf)
            for ell in (1, 2):
                ave = bounds.moment_bound_reports(analysis, ell, eps=0.5)[2]
                assert abs(ave.slack) <= 1e-9, (n, ell, ave)


def test_criterion_4_torus_scaling(analysis_cache):
    with criterion(4, "torus scaling"):
        ratios = []
        for m in (4, 8, 16, 24):
            analysis = analysis_cache(chains.torus_spec(2, m))
            linf = bounds.hitting_bound_reports(analysis, eps=0.5)[0]
            ratios.append(linf.rhs / (m**2 * math.log(math.log(m + 3))))
            l2x = bounds.moment_bound_reports(analysis, ell=4, eps=0.5)[1]
            assert l2x.rhs / analysis.decomp.t_rel <= 10.0, (m, l2x)
        assert max(ratios) / min(ratios) < 3.0, ratios


def test_criterion_5_optimization_certificate():
    with criterion(5, "optimization certificate"):
        rng = np.random.default_rng(5)
        for _ in range(200):
            lam2 = float(rng.uniform(0.05, 1.9))
            lam_n = float(rng.uniform(lam2, 2.0))
            ell = int(rng.integers(1, 7))
            t = ell / (2.0 * lam2) * float(rng.uniform(1.0, 4.0))
            budget = float(rng.uniform(0.1, 1e4))
            cert = bounds.budget_rate_optimum(bounds.OptProblem(
                t=t, ell=ell, budget=budget, lam2=lam2, lam_n=lam_n))
            assert cert.extremal_regime
            assert abs(cert.numeric_max - cert.claimed) <= 1e-10 * cert.claimed
        for kernel in [chains.random_reversible_kernel(
                int(rng.integers(3, 16)), rng) for _ in range(20)]:
            decomp = spectral.decompose(kernel)
            lam = decomp.lambdas[1:]
            for ell in (1, 2):
                q = spectral.spectral_moment(decomp, ell)
                for t in (0.2 / decomp.gap, 1.0 / decomp.gap, 3.0 / decomp.gap):
                    cert = bounds.budget_rate_optimum(bounds.OptProblem(
                        t=t, ell=ell, budget=q,
                        lam2=float(lam[0]), lam_n=float(lam[-1])))
                    exact = float(np.exp(-2.0 * lam * t).sum())
                    assert cert.numeric_max >= exact * (1 - 1e-12)


def _tail_targets(kernel):
    if kernel.n <= 64:
        return range(kernel.n)
    pi = kernel.pi
    return sorted({int(np.argmin(pi)), int(np.argmax(pi)),
                   kernel.n // 3, (2 * kernel.n) // 3, 0})


# Tail suite instances: every family, with the birth-death drift kept
# moderate.  Two float walls constrain the drift: the extreme benchmark
# instances push Dirichlet eigenvalues to ~1e-97, below what any double
# precision eigendecomposition can resolve (hitting_tail_profile refuses
# those rather than fabricating rates; pinned in test_hitting.py), and the
# exp(-t/t_hit) bound is asymptotically tight on drifted chains with
# margin ~pi_min, so pi_min must stay well above the eigensolver wobble
# eps/mu_1.  The instances below keep margin/wobble > 1e3.
TAIL_SPECS = [s for s in BENCHMARK_SPECS if s.family != "dlp_birth_death"] + [
    chains.dlp_spec(12, 0.5, 0.25),
    chains.dlp_spec(16, 0.4, 0.3, k=8),
]


def test_criterion_6_hitting_tail_suite(analysis_cache):
    with criterion(6, "hitting tail suite"):
        for spec in TAIL_SPECS:
            analysis = analysis_cache(spec)
            kernel, h = analysis.kernel, analysis.hitting
            for y in _tail_targets(kernel):
                prof = hitting.hitting_tail_profile(kernel, y)
                for t in np.linspace(0.0, 3.0 * h.t_hit, 10):
                    assert prof.survival(t) <= math.exp(-t / h.t_hit) + 1e-12, \
                        (kernel.label, y)
                assert prof.second_moment() <= 2.0 * h.t_hit**2 + 1e-8, \
                    (kernel.label, y)
                scale = prof.mean()
                grid = np.linspace(0.0, 3.0 * scale, 10)
                for s in grid:
                    hold = prof.survival(s) if s > 0 else 1.0
                    base = np.array([prof.survival(t) for t in grid])
                    joint = np.array([prof.survival(t + s) for t in grid])
                    assert np.all(joint / hold >= base - 1e-9), (kernel.label, y)


def test_criterion_7_brw_sandwiches():
    with criterion(7, "branching walk sandwiches"):
        cfg = brw.BRWConfig(replicates=2000, master_seed=7,
                            threads=min(2, os.cpu_count() or 1))
        runs = [
            ("hit", [chains.torus_spec(2, m) for m in (4, 8, 12)]),
            ("hit", [chains.cycle_spec(n) for n in (16, 32, 64)]),
            ("hit", [chains.complete_spec(n) for n in (8, 16, 32)]),
            ("intersect", [chains.torus_spec(2, m) for m in (4, 8, 12)]),
            ("intersect", [chains.hypercube_spec(d) for d in (4, 6, 8)]),
        ]
        for target, specs in runs:
            if target == "hit":
                result = brw.hit_time_sandwich(specs, cfg)
            else:
                result = brw.intersection_sandwich(specs, cfg)
            for row in result.rows:
                assert row.censor_rate <= 0.01, (result.family, row)
                assert row.upper_ok and (row.lower_ok or row.lower_skipped), \
                    (result.family, row)
            assert abs(result.slope) <= 0.25, (result.family, result.slope)
            assert result.passed
            print(f"  {target}/{result.family}: slope={result.slope:+.3f} "
                  f"ratios={[round(r.ratio, 3) for r in result.rows]}", end="")


def test_criterion_7b_scalar_fixture_bands():
    with criterion("7b", "scalar fixture bands"):
        cfg = brw.BRWConfig(replicates=2000, master_seed=7)
        kernel = chains.build_family(chains.cycle_spec(64))
        decomp = spectral.decompose(kernel)
        h = hitting.hit_times(kernel)
        est = brw.simulate_hit(kernel, 0, cfg)
        ratio = est.mean / (decomp.t_rel * math.log1p(h.t_hit / decomp.t_rel))
        assert CYCLE64_HIT_BAND[0] <= ratio <= CYCLE64_HIT_BAND[1], ratio

        kernel = chains.build_family(chains.torus_spec(2, 8))
        decomp = spectral.decompose(kernel)
        ref = decomp.t_rel * math.log1p(
            math.sqrt(spectral.spectral_moment(decomp, 2)) / decomp.t_rel)
        est = brw.simulate_intersection(kernel, cfg)
        assert TORUS28_INTERSECT_BAND[0] <= est.mean / ref <= TORUS28_INTERSECT_BAND[1]

        for name, specs, band in [
                ("complete", [chains.complete_spec(n) for n in (8, 16, 32)],
                 PLAIN_COMPLETE_BAND),
                ("torus", [chains.torus_spec(2, m) for m in (4, 8, 16)],
                 PLAIN_TORUS_BAND)]:
            for spec in specs:
                kernel = chains.build_family(spec)
                decomp = spectral.decompose(kernel)
                root_q = math.sqrt(spectral.spectral_moment(decomp, 2))
                est = brw.plain_intersection(kernel, cfg)
                assert band[0] <= est.mean / root_q <= band[1], \
                    (name, spec.label(), est.mean / root_q)


def test_criterion_8_dual_engine_oracle(analysis_cache):
    with criterion(8, "dual engine oracle"):
        for spec in (chains.complete_spec(4), chains.cycle_spec(8)):
            analysis = analysis_cache(spec)
            kernel = analysis.kernel
            cfg = brw.fill_config(analysis.decomp,
                                  brw.BRWConfig(replicates=10_000, master_seed=7))
            x = kernel.n // 2
            main = brw.simulate_hit(kernel, x, cfg)
            ref = brw_reference.simulate_hit_reference(kernel, x, cfg)
            gap = abs(main.mean - ref.mean) / math.hypot(main.stderr, ref.stderr)
            assert gap <= 3.0, (kernel.label, "hit", gap)
            main_i = brw.simulate_intersection(kernel, cfg)
            ref_i = brw_reference.simulate_intersection_reference(kernel, cfg)
            gap_i = abs(main_i.mean - ref_i.mean) / math.hypot(main_i.stderr,
                                                               ref_i.stderr)
            assert gap_i <= 3.0, (kernel.label, "intersection", gap_i)
            print(f"  {kernel.label}: hit gap {gap:.2f} sd, "
                  f"intersection gap {gap_i:.2f} sd", end="")


def test_criterion_9_reproducibility(tmp_path):
    with criterion(9, "reproducibility"):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        for target in ("hit", "intersect", "plain"):
            args = [sys.executable, "-m", "mixbound.cli", "brw",
                    "--family", "cycle", "--sizes", "8,16",
                    "--target", target, "--replicates", "200",
                    "--seed", "7", "--out", "run.csv"]
            sections = []
            for name in ("one", "two"):
                d = tmp_path / f"{target}_{name}"
                d.mkdir()
                res = subprocess.run(args, capture_output=True, text=True,
                                     cwd=d, env=env, timeout=600)
                assert res.returncode == 0, res.stderr
                lines = (d / "run.csv").read_text().splitlines()
                sections.append([ln for ln in lines
                                 if not ln.startswith("# timestamp:")])
            assert sections[0] == sections[1], target
