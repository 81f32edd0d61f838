"""The character route of the built-in transitive families: it agrees with
the dense route within the output gate's contracts, meets the closed
forms, and refuses a group that does not match P."""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from mixbound import chains, spectral
from mixbound.analysis import ChainAnalysis, DenseAnalysis
from mixbound.bounds import standard_sweep
from mixbound.errors import InvalidSpec, NumericalFailure

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gate  # noqa: E402

# Every transitive family up to n = 1024: the cycle, the torus at d = 1, 2
# and 3, the hypercube up to d = 10 and the complete graph.
TRANSITIVE_SPECS = [
    *(chains.cycle_spec(n) for n in (2, 3, 4, 16, 64, 256, 1024)),
    *(chains.torus_spec(1, m) for m in (5, 100)),
    *(chains.torus_spec(2, m) for m in (2, 3, 4, 8, 16, 32)),
    *(chains.torus_spec(3, m) for m in (3, 6, 10)),
    *(chains.hypercube_spec(d) for d in range(1, 11)),
    *(chains.complete_spec(n) for n in (2, 3, 8, 32, 100, 1024)),
]


def _close(value, ref, mixing, t_rel):
    """The gate's contract: 1e-9 t_rel on a mixing-time side, else 1e-9
    relative."""
    if mixing:
        return abs(value - ref) <= gate.MIXING_TOL * t_rel
    return abs(value - ref) <= gate.VALUE_TOL * abs(ref)


@pytest.mark.parametrize("spec", TRANSITIVE_SPECS, ids=lambda s: s.label())
def test_routes_agree_within_the_gate_contracts(spec):
    kernel = chains.build_family(spec)
    char, dense = ChainAnalysis.from_kernel(kernel), DenseAnalysis.from_kernel(kernel)
    assert (char.decomp.route, dense.decomp.route) == ("character", "dense")
    assert char.decomp.eigfuncs is None
    assert np.allclose(char.decomp.lambdas, dense.decomp.lambdas, rtol=0, atol=1e-13)
    t_rel = dense.decomp.t_rel
    for got, want in zip(standard_sweep(char), standard_sweep(dense), strict=True):
        assert got.name == want.name and got.passed
        assert _close(got.lhs, want.lhs, got.name in gate.MIXING_LHS, t_rel), got
        assert _close(got.rhs, want.rhs, got.name in gate.MIXING_RHS, t_rel), got
    for key, value in char.summary().items():
        assert value == pytest.approx(dense.summary()[key], rel=1e-9, abs=0), key
    assert char.hitting.route == "character"
    if kernel.n <= 256:
        ref = dense.hitting.hit_matrix
        off = ~np.eye(kernel.n, dtype=bool)
        assert np.all(np.diagonal(char.hitting.hit_matrix) == 0.0)
        assert (np.abs(char.hitting.hit_matrix - ref)[off] / ref[off]).max() <= 1e-10


@pytest.mark.parametrize("n", [2, 5, 64, 1024])
def test_cycle_hitting_times_are_x_times_n_minus_x(n):
    h = ChainAnalysis.from_spec(chains.cycle_spec(n)).hitting
    x = np.arange(n)
    d = (x[None, :] - x[:, None]) % n
    ref = (d * (n - d)).astype(float)
    assert np.all(np.diagonal(h.hit_matrix) == 0.0)
    off = ref > 0
    assert (np.abs(h.hit_matrix - ref)[off] / ref[off]).max() <= 1e-12
    assert h.t_hit == pytest.approx(n // 2 * (n - n // 2), rel=1e-14)


@pytest.mark.parametrize("n", [2, 5, 50, 1024])
def test_complete_hitting_times_are_n_minus_one(n):
    h = ChainAnalysis.from_spec(chains.complete_spec(n)).hitting
    ref = (n - 1) * (1.0 - np.eye(n))
    assert np.abs(h.hit_matrix - ref).max() <= 4 * np.finfo(float).eps * (n - 1)
    # eigentime identity: every entry of t_pi_to is the same sum exactly
    assert np.all(h.t_pi_to == h.t_target)
    assert h.t_target == pytest.approx((n - 1) ** 2 / n, rel=1e-13)


@pytest.mark.parametrize("spec,gap", [
    *((chains.torus_spec(d, m), 2.0 * math.sin(math.pi / m) ** 2 / d)
      for d, m in ((1, 5), (1, 1024), (2, 8), (2, 32), (3, 10))),
    *((chains.hypercube_spec(d), 2.0 / d) for d in (1, 3, 7, 10)),
    *((chains.complete_spec(n), n / (n - 1)) for n in (2, 7, 1024)),
], ids=lambda v: v.label() if isinstance(v, chains.ChainFamilySpec) else "")
def test_gap_is_the_closed_form(spec, gap):
    decomp = ChainAnalysis.from_spec(spec).decomp
    assert decomp.lambdas[0] == 0.0
    assert abs(decomp.gap - gap) <= 4 * np.finfo(float).eps * gap


@pytest.mark.parametrize("spec", [chains.cycle_spec(64), chains.torus_spec(2, 8),
                                  chains.torus_spec(3, 5), chains.hypercube_spec(6),
                                  chains.complete_spec(20)], ids=lambda s: s.label())
def test_tv_distance_from_any_state_matches_dense(spec):
    kernel = chains.build_family(spec)
    char, dense = ChainAnalysis.from_kernel(kernel), DenseAnalysis.from_kernel(kernel)
    t_rel = dense.decomp.t_rel
    for x in range(1, kernel.n, max(1, kernel.n // 9)):
        for t in (0.1 * t_rel, t_rel, 5.0 * t_rel):
            assert abs(char.profile.tv_distance(x, t)
                       - dense.profile.tv_distance(x, t)) <= 1e-12, (x, t)


def test_kernel_with_both_its_matrix_and_its_group_refused():
    # a kernel holds its matrix P or its group, never both and never neither
    P = chains.build_family(chains.cycle_spec(16)).P
    pi, group = np.full(16, 1.0 / 16), chains.CayleyGroup((16,))
    with pytest.raises(InvalidSpec, match="exactly one"):
        chains.TransitionKernel(n=16, P=P, pi=pi, group=group)
    with pytest.raises(InvalidSpec, match="exactly one"):
        chains.TransitionKernel(n=16, pi=pi)


def test_group_of_the_wrong_size_refused():
    with pytest.raises(InvalidSpec, match="group"):
        chains.TransitionKernel(n=8, pi=np.full(8, 1.0 / 8), group=chains.CayleyGroup((3, 3)))


def test_only_the_built_in_transitive_families_carry_a_group():
    for spec in TRANSITIVE_SPECS[:3]:
        assert chains.build_family(spec).transitive
    P = chains.build_family(chains.cycle_spec(8)).P
    custom = chains.kernel_from_matrix(P)  # transitive, but dense
    assert custom.group is None and not custom.transitive
    assert ChainAnalysis.from_kernel(custom).decomp.route == "dense"
    dlp = chains.build_family(chains.dlp_spec(8, 0.5, 0.2))
    assert dlp.group is None
    assert ChainAnalysis.from_kernel(dlp).decomp.route == "dense"


def test_character_squares_are_a_view_of_ones():
    # the decomposition holds no eigenfunction array; the squares the
    # moment sums read are a read-only view that costs no memory
    decomp = ChainAnalysis.from_spec(chains.torus_spec(2, 32)).decomp
    assert decomp.eigfuncs is None
    fsq = spectral._squares(decomp, 0)
    assert fsq.shape == (1024, 1024) and fsq.strides == (0, 0)
    assert not fsq.flags.writeable and np.all(fsq == 1.0)


# The step form of every transitive family: small sizes of each shape,
# including m = 2, where both steps of a coordinate land on one neighbour.
STEP_SPECS = [
    *(chains.cycle_spec(n) for n in (2, 3, 17)),
    *(chains.torus_spec(d, m) for d in (1, 2, 3) for m in (2, 3, 5)),
    *(chains.hypercube_spec(d) for d in range(1, 7)),
    *(chains.complete_spec(n) for n in range(2, 8)),
]


def _textbook_matrix(spec):
    """P of a transitive family entry by entry: 1/(n-1) off the diagonal of
    the complete graph, else 1/(2d) added for each step +-e_i of Z_m^d."""
    kernel = chains.build_family(spec)
    n, shape = kernel.n, kernel.group.shape
    if kernel.group.complete:
        return (np.ones((n, n)) - np.eye(n)) / (n - 1)
    P = np.zeros((n, n))
    for x in range(n):
        c = np.unravel_index(x, shape)
        for i in range(len(shape)):
            for step in (+1, -1):
                y = list(c)
                y[i] = (y[i] + step) % shape[0]
                P[x, np.ravel_multi_index(y, shape)] += 1.0 / (2 * len(shape))
    return P


@pytest.mark.parametrize("spec", STEP_SPECS, ids=lambda s: s.label())
def test_apply_is_the_product_with_the_formed_P(spec):
    kernel = chains.build_family(spec)
    assert kernel.group is not None and kernel._P is None
    X = np.random.default_rng(kernel.n).standard_normal((kernel.n, 5))
    got, want = kernel.apply(X), kernel.P @ X
    # a few ulp of the sum of |P(x, y) X(y)|, which bounds either rounding
    ulp = np.finfo(float).eps * (kernel.P @ np.abs(X))
    assert np.all(np.abs(got - want) <= 4 * ulp)
    assert np.array_equal(kernel.apply(X[:, 0]), got[:, 0])


@pytest.mark.parametrize("spec", STEP_SPECS, ids=lambda s: s.label())
def test_formed_P_is_the_textbook_matrix_and_passes_dense_validate(spec):
    kernel = chains.build_family(spec)
    P = kernel.P
    assert np.array_equal(P, _textbook_matrix(spec)) and not P.flags.writeable
    assert kernel.P is P  # formed once
    steps = chains.validate(kernel)
    dense = chains.validate(chains.TransitionKernel(n=kernel.n, P=P, pi=kernel.pi))
    assert steps.passed and dense.passed, (str(steps), str(dense))
    assert [c.name for c in steps.checks] == [c.name for c in dense.checks]


@pytest.mark.parametrize("n", [2, 3, 7, 64])
@pytest.mark.parametrize("delta", [0.0, 1e-14, 1e-6, np.nan])
def test_complete_step_certificate_gives_the_dense_verdicts(n, delta):
    # the step certificate of the complete graph against validate on the
    # formed P, with pi moved by delta between states 0 and n - 1; the
    # residuals differ by rounding alone
    group = chains.CayleyGroup((n,), complete=True)
    pi = np.full(n, 1.0 / n)
    pi[0] += delta
    pi[-1] -= delta
    steps = chains.validate(chains.TransitionKernel(n=n, pi=pi, group=group))
    dense = chains.validate(chains.TransitionKernel(n=n, P=group.dense(), pi=pi))
    assert [c.name for c in steps.checks] == [c.name for c in dense.checks]
    assert [c.passed for c in steps.checks] == [c.passed for c in dense.checks]
    for a, b in zip(steps.checks, dense.checks):
        assert a.residual == pytest.approx(b.residual, rel=1e-9, abs=1e-14, nan_ok=True)


@pytest.mark.parametrize("steps,failed", [
    ([[1], [1]], "detailed_balance"),  # one direction only
    ([[2], [-2]], "strongly_connected"),  # the even states alone
])
def test_steps_that_break_the_certificate_fail_validation(monkeypatch, steps, failed):
    monkeypatch.setattr(chains.CayleyGroup, "steps", property(lambda self: np.array(steps)))
    kernel = chains.TransitionKernel(n=16, pi=np.full(16, 1.0 / 16),
                                     group=chains.CayleyGroup((16,)))
    report = chains.validate(kernel)
    assert [c.name for c in report.checks if not c.passed] == [failed], str(report)
    with pytest.raises(NumericalFailure, match="failed validation"):
        chains.build_family(chains.cycle_spec(16))


def test_steps_that_do_not_match_the_symbol_fail_the_eigen_residual(monkeypatch):
    # +-3 generate Z_16 and pass the certificate, but their spectrum is not
    # the symbol of the steps +-1
    monkeypatch.setattr(chains.CayleyGroup, "steps", property(lambda self: np.array([[3], [-3]])))
    kernel = chains.build_family(chains.cycle_spec(16))
    assert chains.validate(kernel).passed
    with pytest.raises(NumericalFailure, match="eigen-residual"):
        ChainAnalysis.from_kernel(kernel)
