"""Command-line front end: analyze, verify, profile, brw, optcheck.

Every output CSV starts with a '#'-prefixed manifest block (tool version,
exact command line, chain-spec digest, master seed, timestamp) followed by
the data section.  Re-running the same command reproduces the data section
and every manifest line except the timestamp byte for byte.  All numbers
are written with 17 significant digits, '.' decimal separator and LF line
endings.

Exit codes: 0 success; 1 a bound or band check failed; 2 invalid spec or
arguments; 3 chain rejected (not reversible / not irreducible);
4 all Monte Carlo replicates censored; 5 a numerical accuracy contract
could not be met (NumericalFailure, SingularSystem).

The MIXBOUND_THREADS environment variable (default 1) caps worker
processes for the Monte Carlo commands: a run starts
min(MIXBOUND_THREADS, replicate chunks, CPU count) workers, and the worker
count never changes the data.  A value that is not an integer, or is below
1, exits with code 2.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import math
import os
import shlex
import sys

import numpy as np

from . import __version__
from .analysis import ChainAnalysis, DenseAnalysis
from .bounds import OptProblem, budget_rate_optimum, standard_sweep
from .brw import BRWConfig, experiment, hit_time_sandwich, intersection_sandwich
from .chains import (SIZED_FAMILIES, ChainFamilySpec, build_family,
                     canonical_spec_text, family_spec, parse_chain_spec)
from .errors import (AllCensored, BadEps, BadRange, CertificateMismatch,
                     InvalidSpec, NotIrreducible, NotReversible,
                     NumericalFailure, SingularSystem)

EXIT_OK = 0
EXIT_BOUND_FAILURE = 1
EXIT_INVALID_SPEC = 2
EXIT_BAD_CHAIN = 3
EXIT_ALL_CENSORED = 4
EXIT_NUMERICAL = 5

# Most grid points `profile` writes; each is one row of the CSV.
MAX_POINTS = 1_000_000

# The exit code of each exception a command may end with.
_EXIT_CODES = {
    InvalidSpec: EXIT_INVALID_SPEC, BadEps: EXIT_INVALID_SPEC, BadRange: EXIT_INVALID_SPEC,
    NotReversible: EXIT_BAD_CHAIN, NotIrreducible: EXIT_BAD_CHAIN,
    AllCensored: EXIT_ALL_CENSORED, CertificateMismatch: EXIT_BOUND_FAILURE,
    NumericalFailure: EXIT_NUMERICAL, SingularSystem: EXIT_NUMERICAL,
}


def _fmt(v) -> str:
    if isinstance(v, float) or isinstance(v, np.floating):
        return format(float(v), ".17g")
    return str(v)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _write_csv(path, argv, spec_text, seed, header, rows):
    lines = [
        f"# mixbound v{__version__}",
        f"# command: {shlex.join(['mixbound'] + list(argv))}",
        f"# spec-digest: sha256:{_digest(spec_text)}",
        f"# master-seed: {seed if seed is not None else 'none'}",
        f"# timestamp: {datetime.datetime.now(datetime.timezone.utc).isoformat()}",
        ",".join(header),
    ]
    lines += [",".join(_fmt(c) for c in row) for row in rows]
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise InvalidSpec(f"cannot write --out {path}: {exc.strerror or exc}") from exc


def _threads() -> int:
    raw = os.environ.get("MIXBOUND_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        raise InvalidSpec(f"MIXBOUND_THREADS must be an integer, got {raw!r}") from None
    if threads < 1:
        raise InvalidSpec(f"MIXBOUND_THREADS must be at least 1, got {raw!r}")
    return threads


def _parse_list(raw: str, flag: str, convert, rule: str,
                valid=lambda v: True) -> list:
    """Comma list of convert(item); every item must satisfy valid."""
    try:
        values = [convert(item) for item in str(raw).split(",")]
        if all(valid(v) for v in values):
            return values
    except ValueError:
        pass
    raise InvalidSpec(f"{flag} must be a comma list of {rule}, got {raw!r}")


def _positive_finite(v: float) -> bool:
    return v > 0 and math.isfinite(v)


# Each family parameter and its flag; --sizes wins over --d for the hypercube.
_FLAG_PARAMS = {"d": "d", "lambda": "lam", "eps": "dlp_eps", "k": "k"}


def _family_specs(args) -> list[ChainFamilySpec]:
    if getattr(args, "spec", None):
        return [parse_chain_spec(args.spec)]
    if not args.family:
        raise InvalidSpec("give either --spec or --family")
    if not args.sizes:
        raise InvalidSpec("--family needs --sizes")
    sizes = _parse_list(args.sizes, "--sizes", int, "integers")
    params = {key: getattr(args, flag) for key, flag in _FLAG_PARAMS.items()}
    return [family_spec(args.family, s, params) for s in sizes]


def _add_family_flags(sub):
    sub.add_argument("--spec", help="chain-spec file (key=value lines)")
    sub.add_argument("--family", choices=SIZED_FAMILIES, help="built-in family name")
    sub.add_argument("--sizes",
                     help="comma list; n for cycle/complete/dlp, m for torus, d for hypercube")
    sub.add_argument("--d", type=int, default=2, help="torus dimension")
    sub.add_argument("--lam", type=float, default=0.5, help="dlp rate parameter")
    sub.add_argument("--dlp-eps", type=float, default=0.05, help="dlp drift parameter")
    sub.add_argument("--k", type=int, default=None, help="dlp clustered-eigenvalue count")


# ---------------------------------------------------------------------------
# subcommands

def _analyses(specs: list):
    """The analysis of each spec in turn, emptying the list: a spec is
    dropped once its kernel is built, so a custom spec's matrix is not
    live beside the kernel's own copy of P."""
    while specs:
        kernel = build_family(specs.pop(0))
        yield ChainAnalysis.from_kernel(kernel)


def cmd_analyze(args, argv) -> int:
    specs = [parse_chain_spec(args.spec)]
    spec_text = canonical_spec_text(specs[0])
    (analysis,) = _analyses(specs)
    s = analysis.summary()
    header = ["kernel"] + list(s.keys())
    row = [analysis.kernel.label] + [s[k] for k in s]
    _write_csv(args.out, argv, spec_text, None, header, [row])
    print(f"analyze: wrote {args.out} ({analysis.kernel.label})")
    return EXIT_OK


def cmd_verify(args, argv) -> int:
    specs = _family_specs(args)
    ells = _parse_list(args.ell, "--ell", int, "integers >= 1", lambda v: v >= 1)
    eps_list = _parse_list(args.eps, "--eps", float, "finite numbers > 0",
                           _positive_finite)
    header = ["name", "kernel", "eps", "ell", "x", "M", "lhs", "rhs", "slack", "passed"]
    rows = []
    n_fail = 0
    spec_text = "".join(canonical_spec_text(s) for s in specs)
    for analysis in _analyses(specs):
        reports = standard_sweep(analysis, eps_list=eps_list, ell_list=ells)
        for r in reports:
            ctx = r.context
            rows.append([r.name, ctx.get("kernel", analysis.kernel.label),
                         ctx.get("eps", ""), ctx.get("ell", ""),
                         ctx.get("x", ""), ctx.get("M", ""),
                         r.lhs, r.rhs, r.slack, int(r.passed)])
            n_fail += 0 if r.passed else 1
    if args.out:
        _write_csv(args.out, argv, spec_text, None, header, rows)
    print(f"verify: {len(rows)} reports, {n_fail} failures")
    return EXIT_OK if n_fail == 0 else EXIT_BOUND_FAILURE


def cmd_profile(args, argv) -> int:
    if args.points < 1:
        raise InvalidSpec(f"--points must be at least 1, got {args.points}")
    if args.points > MAX_POINTS:
        raise InvalidSpec(f"--points must be at most {MAX_POINTS}")
    for flag, value in (("--t-min", args.t_min), ("--t-max", args.t_max)):
        if value is not None and not _positive_finite(value):
            raise InvalidSpec(f"{flag} must be finite and > 0, got {value}")
    specs = _family_specs(args)
    if len(specs) != 1:
        raise InvalidSpec("profile works on a single kernel; give one size")
    spec_text = canonical_spec_text(specs[0])
    (analysis,) = _analyses(specs)
    prof, decomp = analysis.profile, analysis.decomp
    t_rel = decomp.t_rel
    t_lo = args.t_min if args.t_min is not None else t_rel / 100.0
    t_hi = args.t_max if args.t_max is not None else \
        t_rel * (abs(math.log(0.25 * float(decomp.pi.min()))) + 1.0)
    if not t_lo < t_hi:
        raise InvalidSpec(f"the time grid must ascend: t_min {t_lo:.6g} is not "
                          f"below t_max {t_hi:.6g}")
    grid = np.geomspace(t_lo, t_hi, num=args.points)
    rows = []
    for t in grid:
        # max_x d_{2,x}(t)^2 is the linf profile at 2t: the same row sums
        # (a Python float: 2t past the double range is inf, without a warning)
        d2 = prof.linf_distance(2.0 * float(t)) ** 0.5
        rows.append([t, prof.linf_distance(t), d2, prof.tv_worst(t),
                     prof.ave_l2_sq(t)])
    _write_csv(args.out, argv, spec_text, None,
               ["t", "d_inf", "d2_max", "tv_max", "ave_l2_sq"], rows)
    print(f"profile: wrote {args.out} ({analysis.kernel.label}, {args.points} points)")
    return EXIT_OK


def cmd_brw(args, argv) -> int:
    specs = _family_specs(args)
    cfg = BRWConfig(replicates=args.replicates, master_seed=args.seed,
                    max_particles=args.max_particles, max_time=args.max_time,
                    threads=_threads())
    header = ["size", "n", "target", "estimate", "stderr", "exact_reference",
              "ratio", "censor_rate"]
    rows = []
    band_failed = False

    if args.sandwich:
        if args.target == "hit":
            result = hit_time_sandwich(specs, cfg)
        elif args.target == "intersect":
            result = intersection_sandwich(specs, cfg)
        else:
            raise InvalidSpec("--sandwich supports hit and intersect targets")
        for r in result.rows:
            rows.append([r.size, r.n, args.target, r.estimate, r.stderr,
                         r.reference, r.ratio, r.censor_rate])
        band_failed = not result.passed
        print(f"brw sandwich[{args.target}]: family={result.family} "
              f"slope={result.slope:.3f} passed={result.passed}")
    else:
        for spec in specs:
            analysis = DenseAnalysis.from_spec(spec)
            kernel = analysis.kernel
            est, ref = experiment(analysis, args.target, cfg)
            rows.append([spec.size, kernel.n, args.target, est.mean, est.stderr,
                         ref, est.mean / ref, est.censor_rate])
            print(f"brw[{args.target}] {kernel.label}: {est.mean:.6g} "
                  f"+/- {est.stderr:.3g} (censor {est.censor_rate:.3%})")

    spec_text = "".join(canonical_spec_text(s) for s in specs)
    if args.out:
        _write_csv(args.out, argv, spec_text, args.seed, header, rows)
    return EXIT_BOUND_FAILURE if band_failed else EXIT_OK


def cmd_optcheck(args, argv) -> int:
    if args.instances < 1:
        raise InvalidSpec(f"--instances must be at least 1, got {args.instances}")
    if args.seed < 0:
        raise InvalidSpec(f"--seed must be nonnegative, got {args.seed}")
    rng = np.random.default_rng(args.seed)
    rows = []
    worst = 0.0
    for i in range(args.instances):
        lam2 = float(rng.uniform(0.05, 1.9))
        lam_n = float(rng.uniform(lam2, 2.0))
        ell = int(rng.integers(1, 7))
        t = ell / (2.0 * lam2) * float(rng.uniform(1.0, 4.0))
        budget = float(rng.uniform(0.1, 1e4))
        cert = budget_rate_optimum(OptProblem(t=t, ell=ell, budget=budget,
                                              lam2=lam2, lam_n=lam_n))
        rel = abs(cert.numeric_max - cert.claimed) / cert.claimed
        worst = max(worst, rel)
        rows.append([i, lam2, lam_n, ell, t, budget, cert.numeric_max,
                     cert.claimed, cert.argmax_beta, rel])
    if args.out:
        _write_csv(args.out, argv, f"optcheck instances={args.instances}\n",
                   args.seed,
                   ["instance", "lam2", "lam_n", "ell", "t", "budget",
                    "numeric_max", "claimed", "argmax_beta", "rel_gap"], rows)
    print(f"optcheck: {args.instances} extremal instances, worst relative gap "
          f"{worst:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise InvalidSpec, so a bad flag ends
    like any other bad argument: one `error:` line and exit 2, returned by
    `main` rather than raised as SystemExit.  --help still exits 0."""

    def error(self, message):
        raise InvalidSpec(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixbound",
        description="Spectral, hitting and mixing diagnostics for reversible "
                    "chains, plus branching random walk experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="chain summary CSV from a spec file")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("verify", help="inequality sweep; exit 1 on any failure")
    _add_family_flags(p)
    p.add_argument("--ell", default="1", help="comma list of moment orders")
    p.add_argument("--eps", default="0.5", help="comma list of thresholds")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("profile", help="distance profiles on a log time grid")
    _add_family_flags(p)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--t-min", type=float, default=None)
    p.add_argument("--t-max", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("brw", help="branching random walk experiments")
    _add_family_flags(p)
    p.add_argument("--target", choices=["hit", "intersect", "plain"],
                   required=True)
    p.add_argument("--replicates", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-particles", type=int, default=100_000)
    p.add_argument("--max-time", type=float, default=None)
    p.add_argument("--sandwich", action="store_true",
                   help="apply frozen two-sided band and trend checks")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_brw)

    p = sub.add_parser("optcheck", help="spectral optimization certificate")
    p.add_argument("--instances", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_optcheck)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args, argv)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(c for cls, c in _EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
