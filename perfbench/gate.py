"""Output gate: decides which operations of an iteration failed.

An operation is one bound report of a ``verify`` command (one CSV row), or
one row check or the slope check of a ``brw --sandwich`` command.  A
command that raised or exited non-zero fails all of its operations.

Every report must pass and every sandwich must hold.  Where the reference
stored with the benchmark covers the workload and seed, the values must
also match it:

* bound reports, within the contracts the code states: a side that is a
  mixing time within 1e-9 * t_rel of the reference, any other side within
  the 1e-9 relative tolerance the reports themselves pass at;
* BRW ``estimate``, ``stderr`` and ``censor_rate``, bit for bit, because
  the random draw sequence must not change.
"""

from __future__ import annotations

import math

MIXING_TOL = 1e-9   # times t_rel: the mixing-time contract
VALUE_TOL = 1e-9    # relative: the tolerance bound reports pass at

# Report sides that are mixing times (or built from them).
MIXING_LHS = {
    "linf_hitting_bound", "l2x_hitting_bound", "avel2_hitting_bound",
    "linf_moment_bound", "l2x_moment_bound", "avel2_moment_bound",
    "l2x_root_moment", "avel2_root_moment", "tv_le_l2", "l2_linf_identity",
    "l2_le_rel_log_pimin", "linf_le_9_thit",
}
MIXING_RHS = {"rel_log_le_tv", "tv_le_l2"}

# verify CSV columns: name,kernel,eps,ell,x,M,lhs,rhs,slack,passed
# brw CSV columns: size,n,target,estimate,stderr,exact_reference,ratio,censor_rate
BRW_EXACT_COLUMNS = (("estimate", 3), ("stderr", 4), ("censor_rate", 7))


def verify_reference(rows):
    """Reference entry for one verify command from its CSV rows.

    t_rel per kernel is read back from the relaxation report, whose left
    side is t_rel * |log eps|.
    """
    t_rel = {}
    for name, kernel, eps, _, _, _, lhs, *_ in rows:
        if name == "rel_log_le_tv" and kernel not in t_rel:
            t_rel[kernel] = float(lhs) / abs(math.log(float(eps)))
    return {"t_rel": t_rel,
            "rows": [[r[0], r[1], r[2], r[3], r[5], float(r[6]), float(r[7])]
                     for r in rows]}


def brw_reference(rows):
    return {"rows": [[r[0]] + [float(r[i]) for _, i in BRW_EXACT_COLUMNS]
                     for r in rows]}


def _close(value, ref, mixing, t_rel):
    if mixing:
        return abs(value - ref) <= MIXING_TOL * t_rel
    return abs(value - ref) <= VALUE_TOL * abs(ref)


def _check_verify(obs, ref, problems):
    rows = obs["rows"]
    ref_rows = ref["rows"] if ref else rows
    attempted = max(len(rows), len(ref_rows), 1)
    failed = abs(len(rows) - len(ref_rows))
    if failed:
        problems.append(f"{len(rows)} reports, reference has {len(ref_rows)}")
    for row, want in zip(rows, ref_rows):
        name, kernel, eps, ell, _, M, lhs, rhs, _, passed = row
        bad = []
        if passed != "1":
            bad.append("report failed")
        if ref:
            if [name, kernel, eps, ell, M] != want[:5]:
                bad.append(f"expected {want[:5]}")
            else:
                t_rel = ref["t_rel"][kernel]
                if not _close(float(lhs), want[5], name in MIXING_LHS, t_rel):
                    bad.append(f"lhs {lhs} vs reference {want[5]!r}")
                if not _close(float(rhs), want[6], name in MIXING_RHS, t_rel):
                    bad.append(f"rhs {rhs} vs reference {want[6]!r}")
        if bad:
            failed += 1
            problems.append(f"{name} [{kernel} eps={eps} ell={ell} M={M}]: "
                            + "; ".join(bad))
    return attempted, failed


def _check_brw(obs, ref, problems):
    argv = obs["argv"]
    n_sizes = len(argv[argv.index("--sizes") + 1].split(","))
    attempted = n_sizes + 1
    if len(obs["sandwich"]) != 1 or len(obs["rows"]) != n_sizes:
        problems.append("missing sandwich verdict or CSV rows")
        return attempted, attempted
    verdict = obs["sandwich"][0]
    failed = 0 if verdict["slope_ok"] else 1
    if failed:
        problems.append("slope check failed")
    for i, (row, ok) in enumerate(zip(obs["rows"], verdict["rows_ok"])):
        bad = [] if ok else ["band or censoring check failed"]
        if ref:
            want = ref["rows"][i]
            if row[0] != want[0]:
                bad.append(f"size {row[0]} vs reference {want[0]}")
            for (col, idx), ref_value in zip(BRW_EXACT_COLUMNS, want[1:]):
                if float(row[idx]) != ref_value:
                    bad.append(f"{col} {row[idx]} vs reference {ref_value!r}")
        if bad:
            failed += 1
            problems.append(f"size {row[0]}: " + "; ".join(bad))
    return attempted, failed


def check(observed, reference=None):
    """(attempted, failed, problems) for one iteration's commands.

    ``reference`` is the list of per-command reference entries for this
    workload and seed, or None where the benchmark stores none.
    """
    attempted = failed = 0
    problems = []
    for i, obs in enumerate(observed):
        ref = reference[i] if reference else None
        checker = _check_verify if obs["kind"] == "verify" else _check_brw
        local = []
        a, f = checker(obs, ref, local)
        if obs["error"] or obs["exit"] != 0:
            f = a
            local.insert(0, f"exit {obs['exit']}: {obs['error'] or 'non-zero exit'}")
        attempted += a
        failed += f
        problems += [f"{' '.join(obs['argv'][:3])}: {p}" for p in local]
    return attempted, failed, problems
