"""The exit-code contract of `analyze` over spec files drawn from the family
table in `mixbound.chains`.

Every family and alias (and an unknown family) gets, for each parameter,
either a valid value or one of a fixed list of bad ones, and sometimes a
missing, unknown or repeated key.  Whatever the file, `cli.main` returns a
documented exit code, an exit of 2 or more comes with exactly one `error:`
line on stderr and no warning, and no exception escapes.  Valid values are
kept small, so a chain that does build has at most 64 states.
"""

import contextlib
import io
import warnings

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mixbound import chains, cli

DOCUMENTED_EXITS = {0, 1, 2, 3, 4, 5}
MAX_STATES = 64
BAD_VALUES = ["0", "-1", "2.5", "abc", "nan", "inf", "-inf", "5e-324", "1e308",
              str(10**30), str(10**400)]
# CSV contents for the custom matrix; None names a file that does not exist
MATRICES = ["0.5,0.5\n0.5,0.5\n", "", "abc\n", "0.5,nan\n0.5,0.5\n",
            "0.5,0.5\n", "1e308,-1e308\n0.5,0.5\n", None]
FAMILIES = chains._FAMILY_PARAMS
NAMES = [*FAMILIES, *(a for a, f in chains._ALIASES.items() if f in FAMILIES), "nosuch"]


def _values(kind):
    if kind is np.ndarray:
        return st.sampled_from(MATRICES)
    if kind is float:
        valid = st.sampled_from(["0.05", "0.25", "0.45"])
        return st.one_of(valid, st.sampled_from(BAD_VALUES))
    valid = st.integers(kind, 8).map(str)
    return st.one_of(valid, st.sampled_from([str(kind - 1), *BAD_VALUES]))


def _small_int(text):
    return int(text) if text.isdigit() and int(text) <= 8 else None


@st.composite
def spec_files(draw):
    """(lines of a spec file, contents of its matrix CSV or None)."""
    name = draw(st.sampled_from(NAMES))
    family = FAMILIES.get(chains._ALIASES.get(name, name), FAMILIES["cycle"])
    lines, values, csv = [f"family={name}"], {}, None
    for key, kind in family.params.items():
        spelling = draw(st.sampled_from(
            [key, *(a for a, k in chains._ALIASES.items() if k == key)]))
        values[key] = draw(_values(kind))
        if kind is np.ndarray:
            csv = values[key]
            lines.append(f"{spelling}={'m.csv' if csv is not None else 'absent.csv'}")
        else:
            lines.append(f"{spelling}={values[key]}")
    # a chain whose every parameter is valid stays small
    m, d = (_small_int(values[x]) if isinstance(x, str) else x
            for x in family.states or (1, 1))
    assume(m is None or d is None or m**d <= MAX_STATES)

    # half the files are left as drawn
    edit = draw(st.sampled_from(["none"] * 3 + ["missing", "unknown", "repeated"]))
    if edit == "missing":
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif edit == "unknown":
        lines.append("bogus=1")
    elif edit == "repeated":
        lines.append(draw(st.sampled_from(lines)))
    return lines, csv


def _analyze(tmp, lines, csv):
    """Exit code of `analyze` on the spec, and every line it wrote to
    stderr, each warning it raised counted as one."""
    if csv is not None:
        (tmp / "m.csv").write_text(csv)
    spec = tmp / "s.spec"
    spec.write_text("\n".join(lines) + "\n")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = cli.main(["analyze", "--spec", str(spec), "--out", str(tmp / "o.csv")])
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(spec=spec_files())
# n = 2^d or m^d far beyond memory, refused before m**d is formed
@example(spec=(["family=hypercube", "d=20000"], None))
@example(spec=(["family=hypercube", f"d={10**30}"], None))
@example(spec=(["family=torus", "d=3000", "m=3"], None))
# rate products lambda * eps below the smallest normal double
@example(spec=(["family=dlp", "n=10", "lambda=5e-324", "eps=0.3"], None))
@example(spec=(["family=dlp", "n=10", "lambda=0.5", "eps=4e-324"], None))
@example(spec=(["family=dlp", "n=10", "lam=1e-320", "eps=0.05"], None))
# numpy warns on an empty CSV
@example(spec=(["family=custom", "matrix=m.csv"], ""))
def test_analyze_exit_contract(tmp_path_factory, spec):
    code, err = _analyze(tmp_path_factory.mktemp("spec"), *spec)
    assert code in DOCUMENTED_EXITS
    if code >= 2:
        assert len(err) == 1 and err[0].startswith("error: "), err
