"""The CLI table writer against the per-value reference formatting, byte for byte."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezed_zeno import BathParams, survival_functional_grid, zeno_directions
from squeezed_zeno.cli import ROWS_PER_CHUNK, main, write_table

from oracles import reference_csv, reference_json

SPECIAL_VALUES = [
    np.nan,
    np.inf,
    -np.inf,
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072009e-308,
    1.7976931348623157e308,
    -1.7976931348623157e308,
]
VALUES = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats(allow_subnormal=True))
ROW_COUNTS = st.one_of(
    st.sampled_from([0, 1, ROWS_PER_CHUNK - 1, ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1]),
    st.integers(0, 2 * ROWS_PER_CHUNK + 1),
)


@st.composite
def tables(draw):
    """1-6 named float columns of one drawn length, filled from a drawn pool of values."""
    names = draw(
        st.lists(st.text("abtxyzFP_01", min_size=1, max_size=6), min_size=1, max_size=6, unique=True)
    )
    n_rows = draw(ROW_COUNTS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = {}
    for name in names:
        pool = np.array(draw(st.lists(VALUES, min_size=1, max_size=12)), dtype=float)
        table[name] = rng.choice(pool, size=n_rows)
    return table


def _reference(table: dict, fmt: str) -> str:
    rows = list(zip(*table.values()))
    return reference_csv(table, rows) if fmt == "csv" else reference_json(table, rows)


@settings(max_examples=100, deadline=None)
@given(table=tables(), fmt=st.sampled_from(["csv", "json"]))
def test_write_table_matches_reference(table, fmt):
    expected = _reference(table, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        write_table(str(path), table, fmt)
        assert path.read_bytes() == expected.encode("utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        write_table(None, table, fmt)
    assert stdout.getvalue() == expected


def test_surface_stdout_is_table_then_sidecar(capsys):
    # 65 x 64 = 4160 rows crosses a chunk boundary.
    n_theta, n_phi, psi = 65, 64, 0.7
    code = main(
        ["surface", "--set", f"n_theta={n_theta}", "--set", f"n_phi={n_phi}", "--set", f"psi={psi}"]
    )
    assert code == 0
    bath = BathParams.maximal(1.0, 1.0, psi)
    thetas, phis, f = survival_functional_grid(bath, n_theta, n_phi)
    rows = [(thetas[i], phis[j], f[i, j]) for i in range(n_theta) for j in range(n_phi)]
    zd = zeno_directions(bath)
    sidecar = {
        "cos_theta_max": float(np.cos(zd.theta)),
        "phi1": zd.mu1.phi,
        "phi2": zd.mu2.phi,
        "theta": zd.theta,
    }
    expected = reference_csv(["theta", "phi", "F"], rows)
    expected += json.dumps(sidecar, sort_keys=True, indent=2) + "\n"
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == ""
