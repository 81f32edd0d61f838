"""Metric definitions shared by the runner, the worker and the tests.

BENCHMARK.json lists the same names; ``tests/test_perfbench.py`` checks
that the two agree.  Each per-layer metric also records which end-to-end
metric it should move and on which workloads (``on``), and where the
prediction for a change to that layer is no change (``flat``).
"""

from __future__ import annotations

WORKLOADS = ("exact_transitive", "exact_drifted", "exact_custom", "brw_sandwich")
EXACT = WORKLOADS[:3]

# name -> (unit, better); measured with tracing off.  fail_frac (a ratio)
# is printed with them, but it is zero when the program is correct, so the
# result line carries it as its attempted/failed counts and the traced run
# as a per-layer metric.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}

_SIMULATE = ("brw.simulate_hit", "brw.simulate_intersection",
             "brw.plain_intersection")
_SANDWICH = ("brw.hit_time_sandwich", "brw.intersection_sandwich")


def _row(names, unit, moves, on, flat, better="lower"):
    return [(n, unit, better, moves, on, flat) for n in names]


# (name, unit, better, moves, on, flat)
PER_LAYER = (
    _row(["chains.build_family_s", "chains.validate_s"], "s", ["wall_s"],
         ["exact_transitive", "brw_sandwich"], ["exact_custom"])
    + _row(["chains.build_family_calls"], "count", ["wall_s"],
           ["exact_transitive", "brw_sandwich"], ["exact_custom"])
    + _row(["chains.parse_chain_spec_s", "chains.stationary_s",
            "chains.kernel_from_matrix_s"], "s", ["wall_s"],
           ["exact_custom"], ["exact_transitive", "exact_drifted", "brw_sandwich"])
    + _row(["spectral.decompose_s"], "s", ["wall_s"],
           ["exact_transitive", "brw_sandwich"], ["exact_drifted"])
    + _row(["spectral.decompose_calls"], "count", ["wall_s"],
           ["exact_transitive", "brw_sandwich"], ["exact_drifted"])
    + _row(["spectral.heat_kernel_row_s"], "s", ["wall_s"],
           ["exact_custom"], ["exact_drifted"])
    + _row(["spectral.heat_kernel_row_calls"], "count", ["wall_s"],
           ["exact_custom"], ["exact_drifted"])
    + _row(["spectral.lower_gamma_regularized_s",
            "spectral.heat_diag_ratio_at_s"], "s", ["wall_s"],
           ["exact_custom", "exact_drifted"], ["exact_transitive"])
    + _row(["spectral.lower_gamma_regularized_calls",
            "spectral.heat_diag_ratio_at_calls"], "count", ["wall_s"],
           ["exact_custom", "exact_drifted"], ["exact_transitive"])
    + _row(["hitting.hit_times_s"], "s", ["wall_s"],
           ["exact_drifted", "exact_transitive"], [])
    + _row(["hitting.hit_times_calls"], "count", ["wall_s"],
           ["exact_drifted", "exact_transitive"], [])
    + _row(["mixing.mixing_time_s", "mixing.tv_worst_s",
            "mixing.l2_mixing_times_s", "mixing.hierarchy_check_s"], "s",
           ["wall_s", "cpu_s"], ["exact_drifted", "exact_custom"],
           ["exact_transitive"])
    + _row(["mixing.tv_worst_calls"], "count", ["wall_s", "cpu_s"],
           ["exact_drifted", "exact_custom"], ["exact_transitive"])
    + _row(["analysis.from_kernel_s"], "s", ["wall_s"], list(EXACT), [])
    + _row(["bounds.standard_sweep_s", "bounds.standard_sweep_self_s",
            "bounds.truncation_factor_worst_s"], "s", ["wall_s", "fail_frac"],
           ["exact_custom", "exact_drifted"], [])
    + _row(["bounds.reports"], "count", ["wall_s", "fail_frac"],
           ["exact_custom", "exact_drifted"], [], better="higher")
    + _row(["bounds.failed"], "count", ["wall_s", "fail_frac"],
           ["exact_custom", "exact_drifted"], [])
    + _row(["brw.simulate_s", "brw.worker_cpu_s", "brw.sandwich_self_s"], "s",
           ["wall_s", "cpu_s", "peak_rss_mb"], ["brw_sandwich"], list(EXACT))
    + _row(["brw.simulate_calls"], "count", ["wall_s", "cpu_s", "peak_rss_mb"],
           ["brw_sandwich"], list(EXACT))
    + _row(["brw.replicates"], "count", ["wall_s", "cpu_s", "peak_rss_mb"],
           ["brw_sandwich"], list(EXACT), better="higher")
    + _row(["brw.per_replicate_ms"], "ms", ["wall_s", "cpu_s", "peak_rss_mb"],
           ["brw_sandwich"], list(EXACT))
    + _row(["cli.main_s", "cli.main_self_s"], "s", ["wall_s"], list(WORKLOADS), [])
    + _row(["cli.csv_bytes"], "bytes", ["wall_s"], list(WORKLOADS), [])
    + _row(["fail_frac"], "ratio", ["fail_frac"], list(WORKLOADS), [])
    + _row(["trace.overhead_s"], "s", [], list(WORKLOADS), [])
)

# Metrics the worker takes from its boundary counters, and metrics derived
# from others (the last two need the untraced runs and come from the runner).
COUNTERS = ("bounds.reports", "bounds.failed", "brw.replicates",
            "brw.worker_cpu_s", "cli.csv_bytes")
DERIVED = ("brw.per_replicate_ms", "fail_frac", "trace.overhead_s")

# How each span-derived metric is read from the span summary: the field
# ("total", "self" or "calls") summed over the listed span names.
SPAN_SOURCES = {
    "brw.simulate_s": ("total", _SIMULATE),
    "brw.simulate_calls": ("calls", _SIMULATE),
    "brw.sandwich_self_s": ("self", _SANDWICH),
}
for _name, *_ in PER_LAYER:
    if _name in SPAN_SOURCES or _name in COUNTERS or _name in DERIVED:
        continue
    for _suffix, _field in (("_self_s", "self"), ("_s", "total"),
                            ("_calls", "calls")):
        if _name.endswith(_suffix):
            SPAN_SOURCES[_name] = (_field, (_name[:-len(_suffix)],))
            break
    else:
        raise ValueError(f"no source for per-layer metric {_name}")


def layer_metrics(summary: dict, counters: dict) -> dict[str, float]:
    """Per-layer values of one traced run from its span summary and counters.

    trace.overhead_s and fail_frac need the untraced runs as well and are
    filled in by the runner.
    """
    out = {}
    for name, (field, spans) in SPAN_SOURCES.items():
        out[name] = sum(summary.get(s, {}).get(field, 0) for s in spans)
    for name in COUNTERS:
        out[name] = counters.get(name, 0.0)
    reps = out["brw.replicates"]
    out["brw.per_replicate_ms"] = 1000.0 * out["brw.simulate_s"] / reps if reps else 0.0
    return out
