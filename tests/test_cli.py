import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mixbound import analysis, brw, chains, cli, spectral
from mixbound.errors import NumericalFailure, SingularSystem
from mixbound.reports import BoundReport

from conftest import dlp_matrix, joined_cliques, reference_gap

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "mixbound.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env,
                          timeout=600)


def data_lines(path):
    """Everything below the manifest block (non-'#' lines)."""
    return [ln for ln in Path(path).read_text().splitlines()
            if not ln.startswith("#")]


def manifest_lines(path, drop_timestamp=True):
    out = [ln for ln in Path(path).read_text().splitlines() if ln.startswith("#")]
    if drop_timestamp:
        out = [ln for ln in out if not ln.startswith("# timestamp:")]
    return out


@pytest.fixture()
def complete4_spec(tmp_path):
    spec = tmp_path / "c4.spec"
    spec.write_text("family=complete\nn=4\n")
    return spec


# ---------------------------------------------------------------------------
# analyze

def test_analyze_known_values(tmp_path, complete4_spec):
    out = tmp_path / "summary.csv"
    res = run_cli("analyze", "--spec", str(complete4_spec), "--out", str(out))
    assert res.returncode == 0, res.stderr
    header, row = data_lines(out)
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["gap"]) == pytest.approx(4 / 3, rel=1e-12)
    assert float(cols["t_target"]) == pytest.approx(2.25, rel=1e-10)
    assert float(cols["t_hit"]) == pytest.approx(3.0, rel=1e-10)
    assert float(cols["q1"]) == pytest.approx(2.25, rel=1e-10)


def test_analyze_cycle_q1(tmp_path):
    spec = tmp_path / "c.spec"
    spec.write_text("family=cycle\nn=4\n")
    out = tmp_path / "o.csv"
    assert run_cli("analyze", "--spec", str(spec), "--out", str(out)).returncode == 0
    header, row = data_lines(out)
    cols = dict(zip(header.split(","), row.split(",")))
    assert float(cols["q1"]) == pytest.approx(2.5, rel=1e-10)


def test_analyze_malformed_spec_exit2(tmp_path):
    bad = tmp_path / "bad.spec"
    bad.write_text("this is not a spec\n")
    res = run_cli("analyze", "--spec", str(bad), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    assert res.stderr.strip()


def test_analyze_missing_file_exit2(tmp_path):
    res = run_cli("analyze", "--spec", str(tmp_path / "nope.spec"),
                  "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2


def test_analyze_nonreversible_exit3(tmp_path):
    np.savetxt(tmp_path / "m.csv",
               [[0.0, 0.9, 0.1], [0.1, 0.0, 0.9], [0.9, 0.1, 0.0]],
               delimiter=",")
    spec = tmp_path / "drift.spec"
    spec.write_text("family=custom\nmatrix=m.csv\n")
    res = run_cli("analyze", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 3


def test_analyze_reducible_exit3(tmp_path):
    np.savetxt(tmp_path / "m.csv",
               [[0.5, 0.5, 0.0, 0.0], [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.5, 0.5]],
               delimiter=",")
    spec = tmp_path / "red.spec"
    spec.write_text("family=custom\nmatrix=m.csv\n")
    res = run_cli("analyze", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 3


def test_manifest_block_present(tmp_path, complete4_spec):
    out = tmp_path / "summary.csv"
    run_cli("analyze", "--spec", str(complete4_spec), "--out", str(out))
    manifest = manifest_lines(out, drop_timestamp=False)
    assert any(ln.startswith("# mixbound v") for ln in manifest)
    assert any(ln.startswith("# command: mixbound analyze") for ln in manifest)
    assert any(ln.startswith("# spec-digest: sha256:") for ln in manifest)
    assert any(ln.startswith("# master-seed:") for ln in manifest)
    assert any(ln.startswith("# timestamp:") for ln in manifest)


# ---------------------------------------------------------------------------
# verify

def test_verify_families_pass(tmp_path):
    out = tmp_path / "reports.csv"
    res = run_cli("verify", "--family", "complete", "--sizes", "4,8,16",
                  "--ell", "1,2", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    lines = data_lines(out)
    assert lines[0].startswith("name,kernel,eps")
    assert all(ln.endswith(",1") for ln in lines[1:])


def test_verify_torus_multi_ell(tmp_path):
    res = run_cli("verify", "--family", "torus", "--d", "2", "--sizes", "4,8",
                  "--ell", "1,2,4")
    assert res.returncode == 0, res.stdout + res.stderr


def test_verify_rhs_scale_hook_exit1(monkeypatch):
    # a failed report, whatever its source, makes verify exit 1
    monkeypatch.setattr(cli, "standard_sweep",
                        lambda *args, **kwargs: [BoundReport.check("forced", 2.0, 1.0)])
    assert cli.main(["verify", "--family", "complete", "--sizes", "4",
                     "--ell", "1"]) == 1


def test_verify_spec_file(tmp_path, complete4_spec):
    res = run_cli("verify", "--spec", str(complete4_spec), "--ell", "1")
    assert res.returncode == 0


# ---------------------------------------------------------------------------
# profile

def test_profile_csv_shape(tmp_path):
    out = tmp_path / "profile.csv"
    res = run_cli("profile", "--family", "cycle", "--sizes", "8",
                  "--points", "20", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = data_lines(out)
    assert lines[0] == "t,d_inf,d2_max,tv_max,ave_l2_sq"
    assert len(lines) == 21
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    assert (np.diff(rows[:, 0]) > 0).all()
    for col in range(1, 5):
        assert (np.diff(rows[:, col]) <= 1e-10).all()  # profiles nonincreasing


# ---------------------------------------------------------------------------
# brw

def test_brw_deterministic_rerun(tmp_path):
    # identical command (relative --out) from two working directories:
    # everything but the timestamp line must match byte for byte
    args = ("brw", "--family", "cycle", "--sizes", "8,16", "--target", "hit",
            "--replicates", "300", "--seed", "7", "--out", "run.csv")
    d1, d2 = tmp_path / "one", tmp_path / "two"
    d1.mkdir(), d2.mkdir()
    assert run_cli(*args, cwd=d1).returncode == 0
    assert run_cli(*args, cwd=d2).returncode == 0
    assert data_lines(d1 / "run.csv") == data_lines(d2 / "run.csv")
    assert manifest_lines(d1 / "run.csv") == manifest_lines(d2 / "run.csv")


def test_brw_thread_env_does_not_change_data(tmp_path):
    args = ("brw", "--family", "complete", "--sizes", "8", "--target",
            "intersect", "--replicates", "300", "--seed", "3")
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env["MIXBOUND_THREADS"] = "2"
    r1 = subprocess.run([sys.executable, "-m", "mixbound.cli", *args,
                         "--out", str(out1)],
                        capture_output=True, text=True, env=env, timeout=600)
    assert r1.returncode == 0, r1.stderr
    assert run_cli(*args, "--out", str(out2)).returncode == 0
    assert data_lines(out1) == data_lines(out2)


# Records OPENBLAS_THREAD_TIMEOUT at numpy's first import, which is when
# numpy's OpenBLAS reads it.
_TIMEOUT_AT_NUMPY_IMPORT = """
import os, sys
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
sys.meta_path.insert(0, Spy())
import mixbound
print(seen[0], os.environ["OPENBLAS_THREAD_TIMEOUT"])
"""


def _python(code, timeout_env=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("OPENBLAS_THREAD_TIMEOUT", None)
    if timeout_env is not None:
        env["OPENBLAS_THREAD_TIMEOUT"] = timeout_env
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, cwd=cwd, env=env, timeout=600)
    assert res.returncode == 0, res.stderr
    return res.stdout


@pytest.mark.parametrize("preset", [None, "20"])
def test_import_sets_blas_timeout_default_before_numpy(preset):
    from mixbound import OPENBLAS_THREAD_TIMEOUT_DEFAULT
    expected = preset or OPENBLAS_THREAD_TIMEOUT_DEFAULT
    out = _python(_TIMEOUT_AT_NUMPY_IMPORT, timeout_env=preset)
    assert out.split() == [expected, expected]


_SCIPY_LOADED = """
import sys
from mixbound import brw, chains, cli
for spec in SPECS:
    for command in ("analyze", "verify", "profile"):
        assert cli.main([command, "--spec", spec, "--out", "out.csv"]) == 0
BRW = ["brw", "--family", "cycle", "--sizes", "8", "--replicates", "20", "--target"]
assert cli.main(BRW + ["plain"]) == 0
kernel, cfg = chains.build_family(chains.cycle_spec(8)), brw.BRWConfig(replicates=20)
brw.simulate_hit(kernel, 4, cfg)
brw.simulate_intersection(kernel, cfg)
brw.plain_intersection(kernel, cfg)
brw.growth_curve(kernel, cfg, [1.0])
print("exact:", sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
assert cli.main(BRW + [TARGET]) == 0
print("brw:", "scipy.linalg" in sys.modules)
"""


def test_exact_commands_load_no_scipy(tmp_path):
    # `import scipy.linalg` took about 170 of the 250-340 ms of `import
    # mixbound.cli` (-X importtime), and `import scipy.optimize` adds 15.7
    # MiB of VmRSS, beyond the 10% peak-RSS bound of the exact benchmark
    # workloads.  The exact layer runs on numpy alone, on every route:
    # characters, dense eigh and inv, the birth-death and diagonal heat
    # ladder of dlp(60) and a custom kernel.  So do plain walks and every
    # estimator with gamma unset, which defaults to the analysis gap; only
    # the gate solves of brw's branching targets import scipy.
    P = chains.random_reversible_kernel(30, np.random.default_rng(0)).P
    np.savetxt(tmp_path / "m.csv", P, fmt="%.17g", delimiter=",")
    specs = {"cycle": "n=16", "torus": "d=2\nm=4", "hypercube": "d=3",
             "complete": "n=5", "dlp": "n=60\nlambda=0.5\neps=0.05",
             "custom": "matrix=m.csv"}
    for family, params in specs.items():
        (tmp_path / f"{family}.spec").write_text(f"family={family}\n{params}\n")
    for target, files in (("hit", [f"{f}.spec" for f in specs]), ("intersect", [])):
        code = f"SPECS = {files!r}\nTARGET = {target!r}\n" + _SCIPY_LOADED
        out = _python(code, cwd=tmp_path).splitlines()
        assert [ln for ln in out if ln.split()[0] in ("exact:", "brw:")] \
            == ["exact: []", "brw: True"], out


def test_blas_timeout_does_not_change_data(tmp_path):
    code = ("from mixbound import cli\n"
            "assert cli.main(['verify', '--family', 'hypercube', '--sizes', '8',"
            " '--out', 'verify.csv']) == 0\n"
            "assert cli.main(['brw', '--family', 'torus', '--d', '2', '--sizes',"
            " '16', '--target', 'hit', '--replicates', '200',"
            " '--out', 'brw.csv']) == 0\n")
    for value in ("4", "28"):
        (tmp_path / value).mkdir()
        _python(code, timeout_env=value, cwd=tmp_path / value)
    for name in ("verify.csv", "brw.csv"):
        assert data_lines(tmp_path / "4" / name) == data_lines(tmp_path / "28" / name)


def test_brw_non_integer_threads_exit2(monkeypatch):
    monkeypatch.setenv("MIXBOUND_THREADS", "two")
    res = run_cli("brw", "--family", "cycle", "--sizes", "8", "--target", "hit",
                  "--replicates", "10")
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "MIXBOUND_THREADS" in lines[0], res.stderr


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_brw_threads_below_one_exit2(monkeypatch, capsys, raw):
    monkeypatch.setenv("MIXBOUND_THREADS", raw)
    assert cli.main(["brw", "--family", "cycle", "--sizes", "8", "--target", "hit",
                     "--replicates", "10"]) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and "MIXBOUND_THREADS" in lines[0], lines


@pytest.mark.parametrize("target,family", [
    pytest.param("hit", ["--family", "torus", "--d", "2", "--sizes", "4,6,8"], id="hit"),
    pytest.param("intersect", ["--family", "hypercube", "--sizes", "3,4,5"],
                 id="intersect"),
])
def test_brw_sandwich_same_data_at_one_and_two_workers(monkeypatch, tmp_path,
                                                       target, family):
    # two workers go through the pool initializer that ships the tables
    codes, data = [], []
    for threads in ("1", "2"):
        monkeypatch.setenv("MIXBOUND_THREADS", threads)
        out = tmp_path / f"threads{threads}.csv"
        codes.append(cli.main(["brw", *family, "--target", target, "--sandwich",
                               "--replicates", "200", "--seed", "0", "--out", str(out)]))
        data.append(data_lines(out))
    assert codes[0] == codes[1] and data[0] == data[1]


@pytest.mark.parametrize("command,solves", [
    pytest.param(["profile", "--family", "cycle", "--sizes", "16", "--points", "5"], 0,
                 id="profile"),
    pytest.param(["analyze", "--spec", "c4.spec"], 1, id="analyze"),
    pytest.param(["verify", "--family", "cycle", "--sizes", "8,16",
                  "--ell", "1,2", "--eps", "0.25,0.5"], 2, id="verify"),
])
def test_hitting_solved_only_when_used(monkeypatch, tmp_path, command, solves):
    # these families take the character route; a solve on either route counts
    calls = []
    for name in ("hit_times", "character_hit_times"):
        real = getattr(analysis, name)
        monkeypatch.setattr(analysis, name,
                            lambda *a, real=real: calls.append(a) or real(*a))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c4.spec").write_text("family=complete\nn=4\n")
    assert cli.main([*command, "--out", "out.csv"]) == 0
    assert len(calls) == solves


@pytest.mark.parametrize("target,sandwich", [
    pytest.param("hit", False, id="hit"),
    pytest.param("intersect", False, id="intersect"),
    pytest.param("plain", False, id="plain"),
    pytest.param("hit", True, id="sandwich-hit"),
    pytest.param("intersect", True, id="sandwich-intersect"),
])
def test_brw_single_run_solves_each_kernel_once(monkeypatch, tmp_path, target, sandwich):
    calls = {"build_family": 0, "decompose": 0, "character_decompose": 0,
             "_eigensolve": 0, "hit_times": 0, "_dense_hit_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # ChainAnalysis decomposes each kernel once, on the character route for
    # these families; brw's gate solves add one dense eigensolve per kernel
    # for the branching targets and, for the hit target alone, one hitting
    # solve.  A sandwich builds its kernels in brw first, to check
    # transitivity before any solve.
    for module in (brw, analysis):
        for name in ("build_family", "_eigensolve", "hit_times", "_dense_hit_matrix"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    for name in ("decompose", "character_decompose"):
        monkeypatch.setattr(analysis, name, counted(name, getattr(analysis, name)))
    monkeypatch.delenv("MIXBOUND_THREADS", raising=False)
    sizes = ["4", "8", "16"] if sandwich else ["8", "12"]
    family = ["--family", "complete" if sandwich else "cycle", "--sizes", ",".join(sizes)]
    assert cli.main(["brw", *family, "--target", target, "--replicates", "20",
                     *(["--sandwich"] if sandwich else []),
                     "--out", str(tmp_path / "b.csv")]) == 0
    n = len(sizes)
    assert calls == {"build_family": n, "decompose": 0, "character_decompose": n,
                     "_eigensolve": 0 if target == "plain" else n, "hit_times": 0,
                     "_dense_hit_matrix": n if target == "hit" else 0}


@pytest.mark.parametrize("target,family", [
    pytest.param("hit", ["--family", "torus", "--d", "2", "--sizes", "4,6,8"], id="hit"),
    pytest.param("intersect", ["--family", "hypercube", "--sizes", "4,5,6"],
                 id="intersect"),
])
def test_brw_sandwich_writes_the_plain_run_rows(monkeypatch, tmp_path, target, family):
    monkeypatch.delenv("MIXBOUND_THREADS", raising=False)
    args = ["brw", *family, "--target", target, "--replicates", "200", "--seed", "0"]
    assert cli.main(args + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert cli.main(args + ["--sandwich", "--out", str(tmp_path / "sandwich.csv")]) == 0
    assert data_lines(tmp_path / "sandwich.csv") == data_lines(tmp_path / "plain.csv")


def test_brw_plain_target(tmp_path):
    out = tmp_path / "plain.csv"
    res = run_cli("brw", "--family", "complete", "--sizes", "8,16",
                  "--target", "plain", "--replicates", "300", "--seed", "5",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = data_lines(out)
    assert lines[0].startswith("size,n,target")
    assert len(lines) == 3


def test_brw_all_censored_exit4():
    # seed chosen so none of the 20 stationary starts lands on the target;
    # the tiny time cap then censors every replicate
    res = run_cli("brw", "--family", "cycle", "--sizes", "64", "--target",
                  "hit", "--replicates", "20", "--seed", "1",
                  "--max-time", "1e-9")
    assert res.returncode == 4


def test_brw_sandwich_band_columns(tmp_path):
    out = tmp_path / "sand.csv"
    res = run_cli("brw", "--family", "complete", "--sizes", "4,8,16",
                  "--target", "intersect", "--replicates", "300", "--seed", "7",
                  "--sandwich", "--out", str(out))
    assert res.returncode == 0, res.stdout + res.stderr
    lines = data_lines(out)
    assert len(lines) == 4
    ratios = [float(ln.split(",")[6]) for ln in lines[1:]]
    assert all(r > 0 for r in ratios)


# ---------------------------------------------------------------------------
# failure contract: one stderr line and a documented exit code

VERIFY = ["verify", "--family", "cycle"]
PROFILE = ["profile", "--family", "cycle", "--sizes", "8", "--out", "p.csv"]
BRW = ["brw", "--family", "cycle", "--sizes", "8", "--target", "hit",
       "--replicates", "10"]


@pytest.mark.parametrize("argv", [
    pytest.param(VERIFY + ["--sizes", "abc"], id="sizes-abc"),
    pytest.param(VERIFY + ["--sizes", "8,"], id="sizes-trailing-comma"),
    pytest.param(VERIFY + ["--sizes", "8", "--ell", "x"], id="ell-x"),
    pytest.param(VERIFY + ["--sizes", "8", "--ell", "1,,2"], id="ell-empty-item"),
    pytest.param(VERIFY + ["--sizes", "8", "--ell", "0"], id="ell-0"),
    pytest.param(VERIFY + ["--sizes", "8", "--eps", "abc"], id="eps-abc"),
    pytest.param(VERIFY + ["--sizes", "8", "--eps", "inf"], id="eps-inf"),
    pytest.param(VERIFY + ["--sizes", "8", "--eps", "nan"], id="eps-nan"),
    # moments of order 600 overflow; eps^2 underflows below the normal range
    pytest.param(VERIFY + ["--sizes", "8", "--ell", "600"], id="ell-600"),
    pytest.param(VERIFY + ["--sizes", "8", "--eps", "1e-170"], id="eps-1e-170"),
    # eps * t_rel overflows in the moment bound's right side
    pytest.param(VERIFY + ["--sizes", "8", "--eps", "1e308"], id="eps-1e308"),
    # eps * t_rel^ell underflows there: to 0, or (eps^2 on the L2 bounds)
    # below the normal range
    pytest.param(VERIFY + ["--sizes", "3", "--ell", "2000"], id="cycle3-ell-2000"),
    pytest.param(VERIFY + ["--sizes", "3", "--ell", "100000"], id="cycle3-ell-100000"),
    pytest.param(VERIFY[:2] + ["complete", "--sizes", "50", "--ell", "40000"],
                 id="complete50-ell-40000"),
    pytest.param(VERIFY + ["--sizes", "3", "--ell", "568", "--eps", "1e-150"],
                 id="cycle3-ell-568-eps-1e-150"),
    pytest.param(PROFILE + ["--points", "-1"], id="points-negative"),
    # refused before the grid is formed: numpy cannot hold or size it
    pytest.param(PROFILE + ["--points", str(10**15)], id="points-1e15"),
    pytest.param(PROFILE + ["--points", str(10**400)], id="points-1e400"),
    pytest.param(PROFILE + ["--t-min", "0"], id="t-min-0"),
    pytest.param(PROFILE + ["--t-min", "5", "--t-max", "1"], id="t-descending"),
    # above the default t_max of cycle(8), about 15
    pytest.param(PROFILE + ["--t-min", "500"], id="t-min-above-default-t-max"),
    pytest.param(PROFILE + ["--out", "no-such-dir/p.csv"], id="out-missing-dir"),
    pytest.param(BRW + ["--max-time", "nan"], id="max-time-nan"),
    # seeds outside 0..2^64-1, which wrote the rows of 2^64-1 and of 0
    pytest.param(BRW + ["--seed", "-1"], id="brw-seed-negative"),
    pytest.param(BRW + ["--seed", str(2**64)], id="brw-seed-2^64"),
    pytest.param(["brw", "--family", "torus", "--d", "2", "--sizes", "4,6",
                  "--target", "hit", "--sandwich"], id="sandwich-two-sizes"),
    # one state count three times: no size trend can be fitted
    pytest.param(["brw", "--family", "torus", "--d", "2", "--sizes", "4,4,4",
                  "--target", "hit", "--replicates", "50", "--sandwich"],
                 id="sandwich-repeated-size"),
    pytest.param(["optcheck", "--instances", "-3"], id="instances-negative"),
    pytest.param(["optcheck", "--seed", "-5"], id="seed-negative"),
    # dense matrices beyond physical memory, refused before any allocation
    pytest.param(VERIFY[:2] + ["hypercube", "--sizes", "40"], id="hypercube-40"),
    pytest.param(VERIFY[:2] + ["torus", "--d", "3", "--sizes", "100000"],
                 id="torus-3-100000"),
    # every rate product lam * eps underflows below the normal range
    pytest.param(VERIFY[:2] + ["dlp", "--sizes", "10", "--lam", "1e-320"],
                 id="dlp-lam-1e-320"),
    # argparse's own errors: no usage block, and main returns 2
    pytest.param(VERIFY[:2] + ["nosuch", "--sizes", "8"], id="family-nosuch"),
    pytest.param(VERIFY + ["--sizes", "8", "--d", "1e30"], id="d-1e30"),
    pytest.param(VERIFY + ["--sizes", "8", "--bogus"], id="unknown-flag"),
    pytest.param(["brw", "--family", "cycle", "--sizes", "8"], id="brw-no-target"),
    pytest.param(["nosuch"], id="unknown-command"),
    pytest.param([], id="no-command"),
])
def test_bad_argument_exit2_one_line(monkeypatch, tmp_path, capsys, argv):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("MIXBOUND_THREADS", raising=False)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


def test_verify_moment_scale_at_the_normal_edge(monkeypatch, tmp_path):
    # cycle(3) has t_rel = 2/3: at ell = 1700 every scale eps t_rel^ell is
    # still a normal double (about 1e-300), so no bound is refused
    monkeypatch.chdir(tmp_path)
    assert cli.main(VERIFY + ["--sizes", "3", "--ell", "1700", "--out", "v.csv"]) == 0


class _InProcessPool:
    """ProcessPoolExecutor's interface, run in this process."""

    def __init__(self, max_workers, initializer, initargs):
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("replicates", [
    pytest.param(2**63 - 1, id="replicates-2^63-1"),
    pytest.param(10**34, id="replicates-1e34"),
])
def test_brw_huge_replicate_count_chunks_exactly(monkeypatch, tmp_path, threads,
                                                 replicates):
    # the chunk edges are exact integers; _batch is patched, so no replicate runs
    chunks = []
    monkeypatch.setattr(brw, "_batch", lambda run_fn, common, seed, salt, r0, r1:
                        chunks.append((r0, r1)) or [1.0])
    monkeypatch.setattr(brw, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(brw, "_worker_common", None)
    monkeypatch.setattr(brw.os, "cpu_count", lambda: 2)
    monkeypatch.setenv("MIXBOUND_THREADS", threads)
    assert cli.main(["brw", "--family", "cycle", "--sizes", "4", "--target", "hit",
                     "--replicates", str(replicates),
                     "--out", str(tmp_path / "b.csv")]) == 0
    assert len(chunks) == (1 if threads == "1" else 8)
    assert chunks[0][0] == 0 and chunks[-1][1] == replicates
    assert all(a[1] == b[0] for a, b in zip(chunks, chunks[1:]))


def test_profile_t_max_near_double_max_exit0_quietly(tmp_path):
    # 2t and lambda t overflow to inf, where every profile has its limit
    res = run_cli("profile", "--family", "cycle", "--sizes", "4", "--t-max", "1e308",
                  "--out", str(tmp_path / "p.csv"))
    assert (res.returncode, res.stderr) == (0, "")


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--family" in capsys.readouterr().out


@pytest.mark.parametrize("content", [
    pytest.param(b"\xff\xfefamily=cycle\nn=8\n", id="not-utf8"),
    pytest.param(b"family=cycle\nn=8\nn=9\n", id="repeated-key"),
    pytest.param(b"family=dlp\nn=8\nlam=0.5\nlambda=0.5\neps=0.1\n",
                 id="lam-and-lambda"),
    pytest.param(b"family=cycle\nn=8\nbogus=1\n", id="unknown-key"),
    pytest.param(b"family=custom\nmatrix=m.csv\nn=3\n", id="custom-unknown-key"),
    pytest.param(b"family=dlp\nn=10\nlambda=5e-324\neps=0.3\n", id="dlp-lambda-5e-324"),
    pytest.param(b"family=dlp\nn=10\nlambda=0.5\neps=4e-324\n", id="dlp-eps-4e-324"),
    # pi(k) P(k,k+1) underflows to 0, so a hitting time is beyond the doubles
    pytest.param(b"family=dlp\nn=100\nlambda=1e-300\neps=0.3\n",
                 id="dlp-hitting-beyond-double-range"),
])
def test_bad_spec_file_exit2_one_line(tmp_path, capsys, content):
    spec = tmp_path / "bad.spec"
    spec.write_bytes(content)
    assert cli.main(["analyze", "--spec", str(spec),
                     "--out", str(tmp_path / "a.csv")]) == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,spec", [
    pytest.param(VERIFY[:2] + ["hypercube", "--sizes", "100000"], None,
                 id="hypercube-sizes-100000"),
    pytest.param(["analyze"], "family=hypercube\nd=20000\n", id="hypercube-d-20000"),
    pytest.param(["analyze"], "family=torus\nd=3000\nm=3\n", id="torus-3000-3"),
])
def test_huge_state_count_exit2_short_line(tmp_path, capsys, argv, spec):
    # the refusal names the order of magnitude of n, never n itself (2^100000
    # has too many digits for Python to print, 3^3000 has 1432)
    if spec is not None:
        (tmp_path / "huge.spec").write_text(spec)
        argv = argv + ["--spec", str(tmp_path / "huge.spec"), "--out", str(tmp_path / "a.csv")]
    assert cli.main(argv) == 2
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert "states" in lines[0] and len(lines[0]) < 200, lines[0]


def test_hypercube_size_beyond_any_memory_exit2_at_once():
    # m**d used to be formed before the memory check: 2^(10^30) never finishes
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-m", "mixbound.cli", "verify", "--family",
                          "hypercube", "--sizes", str(10**30)],
                         capture_output=True, text=True, env=env, timeout=60)
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "hypercube(d=" in lines[0], res.stderr


def test_empty_custom_csv_exit2_one_line(tmp_path):
    # numpy warns about an empty file; the warning used to come ahead of the error
    (tmp_path / "m.csv").write_text("")
    spec = tmp_path / "empty.spec"
    spec.write_text("family=custom\nmatrix=m.csv\n")
    res = run_cli("analyze", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "holds no rows" in lines[0], res.stderr


def test_slow_chain_analyze_exit0(tmp_path):
    # every rate is about 1e-9: the gap is small in absolute terms but
    # resolvable against a spectrum of the same scale
    spec = tmp_path / "slow.spec"
    spec.write_text("family=dlp\nn=20\nlambda=1e-9\neps=0.3\n")
    assert cli.main(["analyze", "--spec", str(spec),
                     "--out", str(tmp_path / "slow.csv")]) == 0


def test_custom_rows_summing_to_one_within_struct_tol_exit0(tmp_path):
    # row sums 1 and 1 + 4e-13, which the kernel checks accept
    (tmp_path / "m.csv").write_text("0.5,0.5\n0.6,0.4000000000004\n")
    spec = tmp_path / "c.spec"
    spec.write_text("family=custom\nmatrix=m.csv\n")
    assert cli.main(["analyze", "--spec", str(spec),
                     "--out", str(tmp_path / "c.csv")]) == 0


def test_numerical_failure_exit5(monkeypatch, capsys):
    for exc in (NumericalFailure, SingularSystem):
        def fail(*args, exc=exc, **kwargs):
            raise exc("contract not met")
        monkeypatch.setattr(cli, "standard_sweep", fail)
        code = cli.main(["verify", "--family", "complete", "--sizes", "4"])
        assert code == 5
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_strongly_drifted_dlp_verify_exit0(capsys):
    # pi spans about e^543 and hitting times reach 2e236; the restricted
    # residual check used to reject these accurate hitting times
    code = cli.main(["verify", "--family", "dlp", "--sizes", "60", "--lam", "0.5",
                     "--dlp-eps", "0.0001"])
    assert code == 0
    assert "0 failures" in capsys.readouterr().out


def test_dlp_beyond_double_range_exit2():
    res = run_cli("verify", "--family", "dlp", "--sizes", "242", "--lam", "0.5",
                  "--dlp-eps", "0.05")
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "largest n that fits is 241" in lines[0], res.stderr


def test_largest_dlp_verify_clean_at_every_moment_order(tmp_path):
    # pi_min is about 1e-307, so the l2x profile starts near the largest
    # double: the Newton step (log g - log eps^2) * g / slope overflowed,
    # printed three RuntimeWarnings and wrote nan into the l2x cells
    args = ("verify", "--family", "dlp", "--sizes", "241", "--lam", "0.5",
            "--dlp-eps", "0.05", "--eps", "0.25,0.5,1.0")
    out = tmp_path / "v.csv"
    res = run_cli(*args, "--ell", "1,2,3", "--out", str(out))
    assert (res.returncode, res.stderr) == (0, ""), res.stderr
    cells = [c for ln in data_lines(out) for c in ln.split(",")]
    assert "nan" not in cells
    res = run_cli(*args, "--ell", "1,2,3,4", "--out", str(tmp_path / "w.csv"))
    assert res.returncode == 2
    assert res.stderr == "error: a moment of order ell=4 exceeds the largest double\n"


def test_moment_bound_rhs_is_finite_where_moment_over_scale_overflows(tmp_path):
    # sigma_max / (eps t_rel) is beyond the largest double on dlp(241) at eps
    # = 1e-4: the ratio overflowed, printed a RuntimeWarning and wrote rhs =
    # slack = inf, a bound that passed unchecked
    out = tmp_path / "v.csv"
    res = run_cli("verify", "--family", "dlp", "--sizes", "241", "--lam", "0.5",
                  "--dlp-eps", "0.05", "--ell", "1,2", "--eps", "1e-4,0.5",
                  "--out", str(out))
    assert (res.returncode, res.stderr) == (0, ""), res.stderr
    rows = [ln.split(",") for ln in data_lines(out)]
    assert "inf" not in [c for row in rows for c in row]
    decomp = analysis.ChainAnalysis.from_spec(chains.dlp_spec(241, 0.5, 0.05)).decomp
    sigma_max = float(spectral.moment_vector(decomp, 1).max())
    rhs = decomp.t_rel * (math.log(sigma_max) - math.log(1e-4 * decomp.t_rel))
    # the kernel label holds commas: eps, ell and rhs are counted from the end
    checked = [row for row in rows if row[0] in ("linf_moment_bound", "linf_hitting_bound")
               and row[-8:-6] == ["0.0001", "1"]]
    assert len(checked) == 2
    for row in checked:
        assert abs(float(row[-3]) - rhs) <= 1e-12 * rhs


def test_custom_matrix_with_unrepresentable_pi_exit2(tmp_path):
    # pi of this matrix spans about 19^299, beyond the double range
    np.savetxt(tmp_path / "m.csv", dlp_matrix(300, 0.5, 0.05), fmt="%.17g",
               delimiter=",")
    spec = tmp_path / "wide.spec"
    spec.write_text("family=custom\nmatrix=m.csv\n")
    res = run_cli("analyze", "--spec", str(spec), "--out", str(tmp_path / "x.csv"))
    assert res.returncode == 2
    lines = res.stderr.strip().splitlines()
    assert len(lines) == 1 and "not representable" in lines[0], res.stderr


def test_custom_matrix_with_nan_exit2(tmp_path):
    # a row holding inf and -inf sums to NaN as well
    spec = tmp_path / "nan.spec"
    spec.write_text("family=custom\nmatrix=m.csv\n")
    for rows in ("0.5,0.5\n0.5,nan\n", "0.5,0.5\ninf,-inf\n"):
        (tmp_path / "m.csv").write_text(rows)
        for cmd in (["analyze", "--out", str(tmp_path / "x.csv")], ["verify"]):
            res = run_cli(*cmd, "--spec", str(spec))
            assert res.returncode == 2, res.stderr
            lines = res.stderr.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), res.stderr


def test_analyze_dlp_near_double_limit_exit0(tmp_path):
    # pi_min is about 1e-307 here; every moment q1..q4 of the summary
    # still fits in a double and must not be refused
    spec = tmp_path / "dlp.spec"
    spec.write_text("family=dlp\nn=241\nlam=0.5\neps=0.05\n")
    out = tmp_path / "o.csv"
    res = run_cli("analyze", "--spec", str(spec), "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""
    header, row = data_lines(out)
    cols = dict(zip(header.split(","), row.split(",")))
    assert all(np.isfinite(float(cols[f"q{ell}"])) for ell in range(1, 5))


def _t_rel_written(command, out):
    """The relaxation time a run that exited 0 wrote, read back from its CSV."""
    header, *rows = data_lines(out)
    rows = [dict(zip(header.split(","), row.split(","))) for row in rows]
    if command == "profile":  # the default grid starts at t_rel / 100
        return 100.0 * float(rows[0]["t"])
    if command == "analyze":
        return float(rows[0]["t_rel"])
    row = next(r for r in rows if r["name"] == "rel_log_le_tv")  # t_rel |log eps|
    return float(row["lhs"]) / abs(math.log(float(row["eps"])))


_TWO_CLIQUE_XFAIL = pytest.mark.xfail(strict=True, reason="ROADMAP item 3")


@pytest.mark.parametrize("command,delta", [
    pytest.param(command, delta, id=f"{command}-{delta:g}",
                 marks=_TWO_CLIQUE_XFAIL if command == "profile" and delta in (1e-9, 1e-11)
                 else ())
    for command in ("analyze", "verify", "profile")
    for delta in (1e-6, 1e-9, 1e-11, 1e-13)
])
def test_weak_bottleneck_exit5_or_accurate_t_rel(tmp_path, capsys, command, delta):
    # The gap falls from 2e-7 to 2e-14.  Either the run refuses with one
    # line, or it writes a relaxation time within 1e-9 of 1/gap; a hitting
    # solve that fails its checks is raised, never rerouted to GTH while
    # the gap is off.  Today profile exits 0 with t_rel off by 5.9e-10,
    # within the contract, 7.9e-7 and 2.9e-4 at the three larger deltas
    # (1.0e-8, 1.1e-5 and 1.2e-3 from scipy's evr).
    P = joined_cliques(delta)
    np.savetxt(tmp_path / "m.csv", P, fmt="%.17g", delimiter=",")
    spec = tmp_path / "cliques.spec"
    spec.write_text("family=custom\nmatrix=m.csv\n")
    out = tmp_path / "o.csv"
    code = cli.main([command, "--spec", str(spec), "--out", str(out)])
    err = capsys.readouterr().err
    if code == 5:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err
        assert "Traceback" not in err
        return
    assert code == 0, err
    t_rel = 1.0 / reference_gap(chains.kernel_from_matrix(P))
    assert _t_rel_written(command, out) == pytest.approx(t_rel, rel=1e-9, abs=0.0)


# ---------------------------------------------------------------------------
# optcheck

def test_optcheck_exit0(tmp_path):
    out = tmp_path / "opt.csv"
    res = run_cli("optcheck", "--instances", "50", "--seed", "11",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = data_lines(out)
    assert len(lines) == 51
    worst = max(float(ln.split(",")[-1]) for ln in lines[1:])
    assert worst <= 1e-10


@pytest.mark.parametrize("spec_text,flags", [
    ("family=cycle\nn=64\n", ["--family", "cycle", "--sizes", "64"]),
    ("family=torus\nd=2\nm=8\n", ["--family", "torus", "--d", "2", "--sizes", "8"]),
    ("family=hypercube\nd=6\n", ["--family", "hypercube", "--sizes", "6"]),
    ("family=complete\nn=20\n", ["--family", "complete", "--sizes", "20"]),
], ids=["cycle", "torus", "hypercube", "complete"])
def test_transitive_commands_make_no_dense_solve(monkeypatch, tmp_path, spec_text, flags):
    def refuse(*args, **kwargs):
        raise AssertionError("dense solve on the character route")

    for name in ("eigh", "inv"):
        monkeypatch.setattr(np.linalg, name, refuse)
    monkeypatch.setattr(chains.CayleyGroup, "dense", refuse)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "k.spec").write_text(spec_text)
    for command in (["analyze", "--spec", "k.spec"],
                    ["verify", *flags, "--ell", "1,2", "--eps", "0.25,0.5"],
                    ["profile", *flags, "--points", "5"]):
        assert cli.main([*command, "--out", "out.csv"]) == 0, command


@pytest.mark.parametrize("flags", [
    ["--family", "torus", "--d", "2", "--sizes", "128"],
    ["--family", "hypercube", "--sizes", "14"],
], ids=["torus-2-128", "hypercube-14"])
def test_verify_at_n_16384_keeps_the_steps(tmp_path, flags):
    # n = 16384: four dense arrays would take 8 GiB, the character route
    # a few MiB; every report passes
    out = tmp_path / "v.csv"
    assert cli.main(["verify", *flags, "--out", str(out)]) == 0
    assert all(ln.endswith(",1") for ln in data_lines(out)[1:])


def test_brw_at_n_16384_refused_where_dense_P_is_formed(monkeypatch, tmp_path, capsys):
    # 2 GiB of physical memory holds the steps but not seven dense 16384^2
    # arrays; BRW's dense route is refused before P is allocated
    import tracemalloc

    monkeypatch.setattr(chains.os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**31 // 4096}[name])
    tracemalloc.start()
    try:
        code = cli.main(["brw", "--family", "torus", "--d", "2", "--sizes", "128",
                         "--target", "hit", "--out", str(tmp_path / "b.csv")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    assert "physical memory" in lines[0] and "Traceback" not in err
    assert peak <= chains.CHARACTER_PEAK_VECTORS * 8 * 16384


def test_custom_spec_commands_do_not_print_the_matrix_again(monkeypatch, tmp_path):
    # the spec digest hashes the matrix's bytes; nothing writes it as text
    matrix = chains.random_reversible_kernel(12, np.random.default_rng(3)).P
    np.savetxt(tmp_path / "m.csv", matrix, fmt="%.17g", delimiter=",")
    (tmp_path / "k.spec").write_text("family=custom\nmatrix=m.csv\n")

    def refuse(*args, **kwargs):
        raise AssertionError("the matrix printed as text")

    monkeypatch.setattr(chains, "_matrix_csv_bytes", refuse)
    monkeypatch.setattr(np, "savetxt", refuse)
    monkeypatch.chdir(tmp_path)
    spec_text = chains.canonical_spec_text(chains.custom_spec(matrix))
    assert spec_text.splitlines()[1].startswith("matrix=sha256-f8le:")
    digest = f"# spec-digest: sha256:{cli._digest(spec_text)}"
    for command in (["analyze", "--spec", "k.spec"],
                    ["verify", "--spec", "k.spec", "--ell", "1,2"],
                    ["profile", "--spec", "k.spec", "--points", "5"]):
        assert cli.main([*command, "--out", "out.csv"]) == 0, command
        assert digest in manifest_lines("out.csv"), command
