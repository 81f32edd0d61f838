import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from mixbound import bounds, chains, hitting, spectral
from mixbound.analysis import ChainAnalysis
from mixbound.errors import InvalidSpec, NotIrreducible, NotReversible

from conftest import BENCHMARK_SPECS, dlp_matrix, gth_eliminate_unblocked, two_cliques


def test_complete4_matrix():
    k = chains.build_family(chains.complete_spec(4))
    assert np.allclose(k.P, (np.ones((4, 4)) - np.eye(4)) / 3)
    assert np.allclose(k.pi, 0.25)
    assert k.transitive


def test_dlp_row_probabilities():
    # row 2 of the 3-state chain: down = lam*eps, stay = 1-lam, up = lam*(1-eps)
    k = chains.build_family(chains.dlp_spec(3, 0.5, 0.1, k=0))
    assert np.allclose(k.P[1], [0.05, 0.5, 0.45])
    k_full = chains.build_family(chains.dlp_spec(3, 0.5, 0.1, k=3))
    assert np.allclose(k_full.P, k.P)  # lam = 1/2 makes every block rate equal
    assert np.isclose(k_full.P[0, 0], 1 - 0.5 * 0.9)
    assert np.isclose(k_full.P[2, 2], 1 - 0.5 * 0.1)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 16, 255, 1024])
def test_torus_d1_equals_cycle(n):
    t = chains.build_family(chains.torus_spec(1, n))
    c = chains.build_family(chains.cycle_spec(n))
    assert np.array_equal(t.P, c.P)
    assert c.label == f"cycle(n={n})"


@pytest.mark.parametrize("d", range(1, 11))
def test_hypercube_equals_binary_torus(d):
    h = chains.build_family(chains.hypercube_spec(d))
    t = chains.build_family(chains.torus_spec(d, 2))
    assert np.array_equal(h.P, t.P)
    assert h.label == f"hypercube(d={d})"


def test_cycle2_is_a_flip():
    k = chains.build_family(chains.cycle_spec(2))
    assert np.array_equal(k.P, [[0.0, 1.0], [1.0, 0.0]])


@pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s.label())
def test_builtin_families_validate(spec):
    report = chains.validate(chains.build_family(spec))
    assert report.passed, str(report)
    assert report.max_residual <= 1e-12


def test_validate_reports_row_sum_violation():
    P = np.array([[0.5, 0.49], [0.5, 0.5]])  # first row sums to 0.99
    bad = chains.TransitionKernel(n=2, P=P, pi=np.array([0.5, 0.5]))
    report = chains.validate(bad)
    assert not report.passed
    row_check = next(c for c in report.checks if c.name == "row_sums")
    assert row_check.residual == pytest.approx(0.01, abs=1e-15)


def test_stationary_symmetric_case():
    k = chains.build_family(chains.complete_spec(4))
    assert np.allclose(chains.stationary(k.P), 0.25, atol=1e-12)


def test_stationary_two_state_hand_solve():
    # pi P = pi gives pi = (q, p) / (p + q); here (0.3, 0.2)/0.5
    P = np.array([[0.8, 0.2], [0.3, 0.7]])
    assert np.allclose(chains.stationary(P), [0.6, 0.4], atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(p=st.floats(0.01, 0.99), q=st.floats(0.01, 0.99))
def test_stationary_two_state_property(p, q):
    P = np.array([[1 - p, p], [q, 1 - q]])
    expect = np.array([q, p]) / (p + q)
    assert np.abs(chains.stationary(P) - expect).max() < 1e-10


def test_dlp_stationary_detailed_balance_product():
    k = chains.build_family(chains.dlp_spec(3, 0.5, 0.1))
    assert np.allclose(k.pi, np.array([1.0, 9.0, 81.0]) / 91.0, atol=1e-14)
    assert np.abs(chains.stationary(k.P) - k.pi).max() < 1e-10


@pytest.mark.parametrize("spec", BENCHMARK_SPECS, ids=lambda s: s.label())
def test_stationary_matches_builder_pi(spec):
    k = chains.build_family(spec)
    assert np.abs(chains.stationary(k.P) - k.pi).max() < 1e-10


@pytest.mark.parametrize("n", [2 * chains.BLOCK + 5, 150, 400])
def test_gth_panels_match_the_one_state_loop(n):
    # the panels add the flow into A[:k0, :k0] in another order, so each
    # pivot, fold-in column and row agrees to rounding, not bit for bit
    P = chains.random_reversible_kernel(n, np.random.default_rng(n)).P
    A, B = P.copy(), P.copy()
    s, ref = chains._gth_eliminate(A), gth_eliminate_unblocked(B)

    def rel(x, y):
        return float(np.abs(x / y - 1.0).max())

    assert rel(s[1:], ref[1:]) <= 1e-13
    for k in range(1, n):
        assert rel(A[:k, k], B[:k, k]) <= 1e-13, k
        assert rel(A[k, :k], B[k, :k]) <= 1e-13, k


@pytest.mark.parametrize("n, tol", [(200, 3.2e-12), (241, 4.0e-12)])
def test_stationary_of_shuffled_dlp_matches_closed_form(n, tol):
    # pi spans 19^(n-1), up to the double range at n = 241; shuffled, the
    # matrix is no longer tridiagonal.  The one-state loop has the same
    # errors, 3.17e-12 and 3.98e-12
    kernel = chains.build_family(chains.dlp_spec(n, 0.5, 0.05))
    perm = np.random.default_rng(0).permutation(n)
    pi = chains.stationary(kernel.P[np.ix_(perm, perm)])
    assert np.abs(pi / kernel.pi[perm] - 1.0).max() <= tol


def test_stationary_refuses_two_cliques_before_eliminating(monkeypatch):
    # n = 80 spans three panels; the connectivity check refuses it first
    monkeypatch.setattr(chains, "_gth_eliminate", None)
    with pytest.raises(NotIrreducible):
        chains.stationary(two_cliques(40))


@pytest.mark.parametrize("k_param", [0, 5, 10, 15, 16])
def test_dlp_modified_blocks_stay_reversible(k_param):
    kernel = chains.build_family(chains.dlp_spec(16, 0.3, 0.05, k=k_param))
    assert chains.validate(kernel).passed


def test_dlp_large_pi_imbalance_still_validates():
    kernel = chains.build_family(chains.dlp_spec(50, 0.5, 0.01, k=0))
    report = chains.validate(kernel)
    assert report.passed, str(report)
    assert kernel.pi.min() > 0


@pytest.mark.parametrize("eps", [0.1, 0.2])
@pytest.mark.parametrize("n", [3, 5, 20, 300])
def test_dlp_unit_rate_builds(n, eps):
    # lambda = 1 leaves interior diagonals at exactly zero; subtracting up
    # and down in turn used to round them to -5.55e-17
    kernel = chains.build_family(chains.dlp_spec(n, 1.0, eps))
    assert kernel.P.min() == 0.0
    assert chains.validate(kernel).passed


def test_dlp_representability_limit():
    # log pi spans (n-1) log(19) = 706.7 at n=241 and 709.6 at n=242; the
    # smallest normal double is exp(-708.4)
    assert chains.validate(chains.build_family(chains.dlp_spec(241, 0.5, 0.05))).passed
    with pytest.raises(InvalidSpec, match="largest n that fits is 241"):
        chains.build_family(chains.dlp_spec(242, 0.5, 0.05))


def test_stationary_rejects_pi_beyond_double_range():
    # pi of the dlp(300, 0.5, 0.05) matrix spans about 19^299: the GTH
    # solve overflows to an all-NaN pi, which every `x > tol` guard passes
    P = dlp_matrix(300, 0.5, 0.05)
    with pytest.raises(InvalidSpec):
        chains.stationary(P)
    with pytest.raises(InvalidSpec):
        chains.kernel_from_matrix(P)


@pytest.mark.parametrize("first", [np.nan, np.inf, 1e-320])
def test_explicit_pi_must_be_finite_and_normal(first):
    P = (np.ones((4, 4)) - np.eye(4)) / 3
    pi = np.array([first, 1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(InvalidSpec):
        chains.kernel_from_matrix(P, pi=pi)


@pytest.mark.parametrize("pi", [None, np.array([0.5, 0.5])], ids=["pi-solved", "pi-given"])
def test_nan_entry_rejected(pi):
    # NaN fails no `x > tol` guard; the matrix used to come back with pi (1/2, 1/2)
    P = np.array([[0.5, 0.5], [0.5, np.nan]])
    with pytest.raises(InvalidSpec, match="row_sums"):
        chains.kernel_from_matrix(P, pi=pi)


@pytest.mark.parametrize("spec_args", [
    ("cycle", {"n": 1}),
    ("torus", {"d": 0, "m": 4}),
    ("torus", {"d": 2, "m": 1}),
    ("complete", {"n": 1}),
    ("hypercube", {"d": 0}),
    ("dlp_birth_death", {"n": 4, "lambda": 0.0, "eps": 0.1, "k": 4}),
    ("dlp_birth_death", {"n": 4, "lambda": 1.5, "eps": 0.1, "k": 4}),
    ("dlp_birth_death", {"n": 4, "lambda": 0.5, "eps": 0.6, "k": 4}),
    ("dlp_birth_death", {"n": 4, "lambda": 0.5, "eps": 0.1, "k": 5}),
    ("nosuch", {"n": 4}),
    ("cycle", {"n": 4, "bogus": 1}),
    # int() of these raises ValueError or OverflowError, not InvalidSpec
    ("cycle", {"n": float("nan")}),
    ("cycle", {"n": float("inf")}),
    ("torus", {"d": float("-inf"), "m": 4}),
    ("dlp_birth_death", {"n": 4, "lambda": 0.5, "eps": 0.1, "k": float("nan")}),
])
def test_invalid_specs_rejected(spec_args):
    family, params = spec_args
    with pytest.raises(InvalidSpec):
        chains.build_family(chains.ChainFamilySpec(family, params))


def test_not_irreducible_rejected():
    P = np.array([
        [0.5, 0.5, 0.0, 0.0],
        [0.5, 0.5, 0.0, 0.0],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ])
    with pytest.raises(NotIrreducible):
        chains.stationary(P)
    with pytest.raises(NotIrreducible):
        chains.kernel_from_matrix(P, pi=np.full(4, 0.25))


_ENTRIES = st.sampled_from([0.0, 0.0, 0.3, -0.2, np.nan])


def _banded(n, entries):
    """An n x n matrix with the 3n - 2 entries on its main, sub- and
    super-diagonal, in that order."""
    P = np.zeros((n, n))
    i = np.arange(n)
    P[i, i] = entries[:n]
    P[i[1:], i[:-1]] = entries[n:2 * n - 1]
    P[i[:-1], i[1:]] = entries[2 * n - 1:]
    return P


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.one_of(
    st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n),
    st.lists(_ENTRIES, min_size=3 * n - 2, max_size=3 * n - 2).map(
        lambda entries: _banded(n, entries).tolist()))))
def test_connectivity_verdict_matches_strong_components(rows):
    # the two breadth-first searches from state 0, or on a tridiagonal
    # support the edges beside the diagonal, against scipy's strong
    # components, on supports with negative and NaN entries (NaN is no
    # edge) and bands with zeros beside the diagonal
    P = np.array(rows)
    support = (P > 0) | (P < 0)
    n_comp, _ = connected_components(csr_matrix(support.view(np.int8)),
                                     directed=True, connection="strong")
    check = next(c for c in chains._matrix_checks(P) if c.name == "strongly_connected")
    assert check.passed == (n_comp == 1)


def test_not_reversible_rejected():
    # Directed 3-cycle with a drift: stationary uniform but no detailed balance.
    P = np.array([
        [0.0, 0.9, 0.1],
        [0.1, 0.0, 0.9],
        [0.9, 0.1, 0.0],
    ])
    with pytest.raises(NotReversible):
        chains.kernel_from_matrix(P)


def test_random_reversible_kernel_is_valid():
    rng = np.random.default_rng(1)
    for _ in range(5):
        n = int(rng.integers(2, 21))
        assert chains.validate(chains.random_reversible_kernel(n, rng)).passed


def test_chain_spec_parse_and_build(tmp_path):
    spec_file = tmp_path / "torus.spec"
    spec_file.write_text("# comment line\nfamily=torus\nd=2\nm=8\n")
    spec = chains.parse_chain_spec(spec_file)
    assert spec.family == "torus" and spec.params == {"d": 2, "m": 8}
    assert chains.build_family(spec).n == 64


def test_chain_spec_custom_matrix(tmp_path):
    (tmp_path / "m.csv").write_text("0.5,0.5\n0.5,0.5\n")
    spec_file = tmp_path / "c.spec"
    spec_file.write_text("family=custom\nmatrix=m.csv\n")
    kernel = chains.build_family(chains.parse_chain_spec(spec_file))
    assert np.allclose(kernel.pi, 0.5)


@pytest.mark.parametrize("text", [
    "d=2\nm=8\n",                      # missing family
    "family=nosuch\nn=4\n",            # unknown family
    "family=cycle\nn=abc\n",           # bad value
    "family=cycle n=4\n",              # not key=value
    "family=custom\n",                 # custom without matrix
])
def test_chain_spec_malformed(tmp_path, text):
    spec_file = tmp_path / "bad.spec"
    spec_file.write_text(text)
    with pytest.raises(InvalidSpec):
        chains.parse_chain_spec(spec_file)


def test_spec_size_is_the_size_parameter():
    assert chains.torus_spec(2, 8).size == 8
    assert chains.hypercube_spec(5).size == 5
    assert chains.dlp_spec(20, 0.5, 0.05, k=4).size == 20
    assert chains.custom_spec(np.full((2, 2), 0.5)).size is None


def test_family_spec_equals_the_constructors():
    # the command line builds its specs with family_spec from shared flags
    flags = {"d": 3, "lambda": 0.4, "eps": 0.05, "k": None}
    assert chains.family_spec("cycle", 8, flags) == chains.cycle_spec(8)
    assert chains.family_spec("torus", 8, flags) == chains.torus_spec(3, 8)
    assert chains.family_spec("hypercube", 5, flags) == chains.hypercube_spec(5)
    assert chains.family_spec("dlp", 32, flags) == chains.dlp_spec(32, 0.4, 0.05, k=32)
    assert (chains.family_spec("dlp", 32, {**flags, "k": 16})
            == chains.dlp_spec(32, 0.4, 0.05, k=16))


def test_canonical_text_is_stable():
    a = chains.canonical_spec_text(chains.torus_spec(2, 8))
    assert a == "family=torus\nd=2\nm=8\n"
    assert a == chains.canonical_spec_text(chains.torus_spec(2, 8))


def test_matrix_digest_reads_values_not_layout():
    matrix = np.arange(12.0).reshape(3, 4) / 7.0
    want = chains._matrix_digest(matrix)
    wide = np.zeros((3, 8))
    wide[:, ::2] = matrix
    assert chains._matrix_digest(np.asfortranarray(matrix)) == want
    assert chains._matrix_digest(wide[:, ::2]) == want  # a strided view
    assert chains._matrix_digest(matrix.astype(">f8")) == want  # big-endian
    ints = np.arange(12).reshape(3, 4)
    assert chains._matrix_digest(ints) == chains._matrix_digest(ints.astype(float))


def test_matrix_digest_tells_shape_and_signed_zero_apart():
    matrix = np.arange(12.0).reshape(3, 4)
    digests = {chains._matrix_digest(matrix.reshape(shape))
               for shape in [(3, 4), (4, 3), (2, 6), (12, 1)]}
    assert len(digests) == 4
    zero = np.full((2, 2), 0.5)
    zero[0, 0] = 0.0
    negative_zero = zero.copy()
    negative_zero[0, 0] = -0.0
    assert chains._matrix_digest(zero) != chains._matrix_digest(negative_zero)


def test_custom_spec_text_is_pinned():
    # sha256 of the int64 words 2, 3, 3 and the nine float64 values, all
    # little-endian; the encoding is named in the line
    spec = chains.custom_spec([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    assert chains.canonical_spec_text(spec) == (
        "family=custom\n"
        "matrix=sha256-f8le:d762f6903d5d5963bfd5704271ffabd5ad5ec1face0d9e65e0b4e31056e3f9af\n")


def test_export_kernel_csv_roundtrip(tmp_path):
    kernel = chains.build_family(chains.cycle_spec(5))
    out = tmp_path / "k.csv"
    chains.export_kernel_csv(kernel, out)
    data = np.loadtxt(out, delimiter=",")
    assert data.shape == (6, 5)  # n matrix rows plus the pi row
    assert np.array_equal(data[:5], kernel.P)
    assert np.array_equal(data[5], kernel.pi)


def test_matrix_csv_bytes_match_per_entry_format():
    matrix = np.array([[-0.0, 5e-324, 1e300], [1 / 3, np.inf, -np.inf],
                       [np.nan, 0.1, -2.5e-310]])
    rows = [",".join(format(v, ".17g") for v in row) for row in matrix]
    assert chains._matrix_csv_bytes(matrix) == ("\n".join(rows) + "\n").encode()


def test_kernel_arrays_frozen():
    kernel = chains.build_family(chains.cycle_spec(4))
    with pytest.raises(ValueError):
        kernel.P[0, 0] = 1.0
    with pytest.raises(ValueError):
        kernel.pi[0] = 1.0


@pytest.mark.parametrize("spare_pages,refused", [(1, False), (-1, True)])
def test_dense_refusal_counts_the_peak_arrays(monkeypatch, spare_pages, refused):
    # physical memory one page above or below DENSE_PEAK_ARRAYS dense
    # 64 x 64 matrices; one page below still holds a single matrix many times.
    # The dlp kernel stores P, so its build is refused; the cycle is kept as
    # its steps and is refused where its dense P is formed
    page, n = 4096, 64
    pages = chains.DENSE_PEAK_ARRAYS * 8 * n**2 // page + spare_pages
    monkeypatch.setattr(chains.os, "sysconf", lambda name: {
        "SC_PAGE_SIZE": page, "SC_PHYS_PAGES": pages}[name])
    cycle = chains.build_family(chains.cycle_spec(n))
    if refused:
        with pytest.raises(InvalidSpec, match="physical memory"):
            chains.build_family(chains.dlp_spec(n, 0.5, 0.2))
        with pytest.raises(InvalidSpec, match="physical memory"):
            cycle.P
    else:
        assert chains.build_family(chains.dlp_spec(n, 0.5, 0.2)).n == n
        assert cycle.P.shape == (n, n)


def test_max_over_blocks_keeps_a_nan_in_any_block():
    x = np.arange(3.0 * chains.BLOCK)
    assert chains.max_over_blocks(x.size, lambda rows: x[rows]) == x[-1]
    x[-1] = np.nan
    assert np.isnan(chains.max_over_blocks(x.size, lambda rows: x[rows]))


_STATE_ENTRIES = {
    "mixing_time": lambda a, x: a.profile.mixing_time("l2x", 0.5, x),
    "l2_distance_sq": lambda a, x: a.profile.l2_distance_sq(x, 1.0),
    "tv_distance": lambda a, x: a.profile.tv_distance(x, 3.0),
    "heat_diag_ratio": lambda a, x: spectral.heat_diag_ratio(a.decomp, 1.0, x),
    "truncation_factor_reports": lambda a, x: bounds.truncation_factor_reports(a, x, 2.0),
    "hitting_tail_profile": lambda a, y: hitting.hitting_tail_profile(a.kernel, y),
}


@pytest.mark.parametrize("bad", [-1, 8, 2.5, "a"])
@pytest.mark.parametrize("entry", list(_STATE_ENTRIES))
def test_exact_api_refuses_a_bad_state(entry, bad):
    # -1 used to alias state 7 and 2.5 to truncate to state 2
    analysis = ChainAnalysis.from_spec(chains.dlp_spec(8, 0.5, 0.2))
    call = _STATE_ENTRIES[entry]
    with pytest.raises(InvalidSpec, match=f"{entry}: .* in 0..7"):
        call(analysis, bad)
    assert call(analysis, np.int64(2)) is not None
