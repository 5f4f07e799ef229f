"""The table writer against the per-value reference formatting, byte for byte."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squeezed_zeno import BathParams, zeno_directions
from squeezed_zeno import cli
from squeezed_zeno.bath import survival_functional_rows
from squeezed_zeno.cli import main
from squeezed_zeno.table import ROWS_PER_CHUNK, write_table

from oracles import oracle_survival_functional_grid, reference_csv, reference_json

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


# 0.0, -0.0 and NaNs of four payloads and signs: six bit patterns, three printed texts.
SIGNED = np.concatenate(
    [
        [0.0, -0.0],
        np.array(
            [0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001, 0x7FF0000000000001],
            dtype=np.uint64,
        ).view(np.float64),
    ]
)
COLUMN_KINDS = ["pool", "distinct", "repeat", "tile", "switch", "signed", "runs"]


def random_bits(rng, size: int) -> np.ndarray:
    """Floats with uniformly random bit patterns: all distinct, with the odd NaN or inf."""
    return np.frombuffer(rng.bytes(8 * size), dtype=np.float64)


def runs(rng, values: np.ndarray, size: int) -> np.ndarray:
    """Runs of 1-600 equal floats, one per value of values in turn, cycling: in SIGNED order
    a run of 0.0 meets one of -0.0, and NaN runs meet NaN runs of other bit patterns."""
    lengths = rng.integers(1, 601, size=size + 1)
    lengths = lengths[: np.searchsorted(np.cumsum(lengths), size) + 1]
    return np.repeat(np.resize(values, len(lengths)), lengths)[:size]


@st.composite
def tables(draw):
    """1-6 named float columns of one drawn length, each of a drawn kind.

    The kinds steer the writer's two paths per block, partial blocks included: "repeat"
    and "runs" columns (few runs of equal neighbours per block) take the run path;
    "distinct", "tile" and the random picks of "pool" and "signed" mostly the raw path,
    unless they repeat one value; and "switch" changes path after the first block.
    "signed" mixes 0.0, -0.0 and NaNs of different payloads in every block, and "runs"
    puts them and the pool's values in runs, some across a block boundary, which only
    their bit patterns tell apart.
    """
    names = draw(
        st.lists(st.text("abtxyzFP_01", min_size=1, max_size=6), min_size=1, max_size=6, unique=True)
    )
    n_rows = draw(ROW_COUNTS)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = {}
    for name in names:
        kind = draw(st.sampled_from(COLUMN_KINDS))
        pool = np.array(draw(st.lists(VALUES, min_size=1, max_size=12)), dtype=float)
        if kind == "pool":
            column = rng.choice(pool, size=n_rows)
        elif kind == "distinct":
            column = random_bits(rng, n_rows)
        elif kind == "repeat":
            times = draw(st.integers(1, 600))
            column = np.repeat(random_bits(rng, n_rows // times + 1), times)[:n_rows]
        elif kind == "tile":
            period = draw(st.integers(1, 3000))
            column = np.tile(random_bits(rng, period), n_rows // period + 1)[:n_rows]
        elif kind == "switch":
            first_block = np.arange(n_rows) < ROWS_PER_CHUNK
            pooled_first = draw(st.booleans())
            column = np.where(
                first_block == pooled_first, runs(rng, pool, n_rows), random_bits(rng, n_rows)
            )
        elif kind == "signed":
            column = rng.choice(SIGNED, size=n_rows)
        else:
            column = runs(rng, np.concatenate([SIGNED, pool]), n_rows)
        table[name] = column
    return table


@st.composite
def grid_tables(draw):
    """theta, phi and a 2-D F of random bits, whose phi halves agree bit for bit or not.

    write_table takes such a grid as written(table) gives it: lists and an iterator of rows.

    "mirrored" F repeats its first half of columns, as survival_functional_rows does for
    even n_phi; "signed" does too, but with 0.0 in one half where the other has -0.0.
    """
    n_phi = draw(st.integers(1, 300) | st.sampled_from([ROWS_PER_CHUNK, ROWS_PER_CHUNK + 1]))
    # Up to three blocks of rows.
    n_theta = draw(st.integers(1, max(2, 3 * ROWS_PER_CHUNK // n_phi)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = random_bits(rng, n_theta * n_phi).reshape(n_theta, n_phi).copy()
    kind = draw(st.sampled_from(["random", "mirrored", "signed"]))
    half = n_phi // 2
    if kind != "random" and n_phi % 2 == 0:
        f[:, half:] = f[:, :half]
        if kind == "signed":
            f[:, 0], f[:, half] = 0.0, -0.0
    return {"theta": random_bits(rng, n_theta), "phi": random_bits(rng, n_phi), "F": f}


def mixed_table(n_rows: int = 2 * ROWS_PER_CHUNK + 5) -> dict:
    """One column of each kind over three blocks; the switch column goes from runs to raw."""
    rng = np.random.default_rng(7)
    return {
        "distinct": random_bits(rng, n_rows),
        "repeat": np.repeat(random_bits(rng, n_rows // 512 + 1), 512)[:n_rows],
        "tile": np.tile(random_bits(rng, 512), n_rows // 512 + 1)[:n_rows],
        "switch": np.where(
            np.arange(n_rows) < ROWS_PER_CHUNK, runs(rng, SIGNED, n_rows), random_bits(rng, n_rows)
        ),
        "signed": rng.choice(SIGNED, size=n_rows),
        "runs": runs(rng, np.concatenate([SIGNED, [1.0, 0.5, 0.25]]), n_rows),
    }


def written(table: dict) -> dict:
    """The table as write_table takes it: a grid's axes as lists, its F as an iterator of rows."""
    columns = list(table.values())
    if np.ndim(columns[-1]) != 2:
        return table
    first, second, last = columns
    return dict(zip(table, (first.tolist(), second.tolist(), iter(last.tolist()))))


def _reference(table: dict, fmt: str) -> str:
    """The table formatted value by value; a grid has a row per cell, first axis major."""
    columns = list(table.values())
    if np.ndim(columns[-1]) == 2:
        first, second, cells = columns
        rows = [(a, b, cells[i, j]) for i, a in enumerate(first) for j, b in enumerate(second)]
    else:
        rows = list(zip(*columns))
    return reference_csv(table, rows) if fmt == "csv" else reference_json(table, rows)


@settings(max_examples=150, deadline=None)
@given(table=st.one_of(tables(), grid_tables()), fmt=st.sampled_from(["csv", "json"]))
@example(table=mixed_table(), fmt="csv")
@example(table=mixed_table(), fmt="json")
def test_write_table_matches_reference(table, fmt):
    expected = _reference(table, fmt)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table"
        write_table(str(path), written(table), fmt)
        assert path.read_bytes() == expected.encode("utf-8")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        write_table(None, written(table), fmt)
    assert stdout.getvalue() == expected


def surface_sidecar(bath: BathParams) -> str:
    zd = zeno_directions(bath)
    sidecar = {
        "cos_theta_max": float(np.cos(zd.theta)),
        "phi1": zd.mu1.phi,
        "phi2": zd.mu2.phi,
        "theta": zd.theta,
    }
    return json.dumps(sidecar, sort_keys=True, indent=2) + "\n"


@settings(max_examples=60, deadline=None)
@given(
    n_theta=st.integers(1, 70),
    n_phi=st.integers(1, 70),
    n=st.one_of(st.floats(0.0, 50.0), st.floats(1e-45, 1e-15)),
    psi=st.floats(-10.0, 10.0),
    fmt=st.sampled_from(["csv", "json"]),
    direct=st.booleans(),
)
@example(n_theta=1, n_phi=1, n=1.0, psi=0.7, fmt="csv", direct=False)
@example(n_theta=1, n_phi=2, n=1.0, psi=0.7, fmt="json", direct=False)
# 65 x 64 = 4160 rows crosses a block boundary.
@example(n_theta=65, n_phi=64, n=1.0, psi=0.7, fmt="csv", direct=False)
@example(n_theta=65, n_phi=63, n=1.0, psi=0.7, fmt="json", direct=True)
# Grid rows wider than a block, odd and even, through main and through write_table.
@example(n_theta=1, n_phi=ROWS_PER_CHUNK + 1, n=1.0, psi=0.7, fmt="json", direct=False)
@example(n_theta=2, n_phi=ROWS_PER_CHUNK + 2, n=1.0, psi=0.7, fmt="csv", direct=False)
@example(n_theta=3, n_phi=ROWS_PER_CHUNK + 1, n=1.0, psi=0.7, fmt="csv", direct=True)
@example(n_theta=2, n_phi=ROWS_PER_CHUNK + 2, n=1.0, psi=0.7, fmt="json", direct=True)
def test_surface_stdout_is_table_then_sidecar(n_theta, n_phi, n, psi, fmt, direct):
    # direct: write_table writes the kernel's grid itself, without the sidecar. Either way
    # the table is the numpy oracle's grid, byte for byte.
    bath = BathParams.maximal(1.0, n, psi)
    thetas, phis, f = oracle_survival_functional_grid(bath, n_theta, n_phi)
    argv = ["surface", "--format", fmt]
    for key, value in {"n_theta": n_theta, "n_phi": n_phi, "N": n, "psi": psi}.items():
        argv += ["--set", f"{key}={value!r}"]
    table = {"theta": thetas, "phi": phis, "F": f}
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        if direct:
            grid = survival_functional_rows(bath, n_theta, n_phi)
            write_table(None, dict(zip(table, grid)), fmt)
        else:
            assert main(argv) == 0
    expected = _reference(table, fmt) + ("" if direct else surface_sidecar(bath))
    assert stdout.getvalue() == expected
    assert stderr.getvalue() == ""


# Each table command's argv, with the columns and the shape its table has: a grid's
# (rows, cells per row), or the columns' one length.
TABLE_RUNS = {
    "surface": (
        ["surface", "--set", "n_theta=3", "--set", "n_phi=4"], ["theta", "phi", "F"], (3, 4)
    ),
    "evolve": (["evolve", "--set", "n_steps=3"], ["t", "sigma_mu_free", "sigma_mu_measured"], (4,)),
    "zeno": (
        ["zeno", "--set", "count=3", "--set", "n_traj=10"],
        ["t", "P_exact", "P_first_order", "P_second_order", "P_mc", "P_mc_stderr"],
        (4,),
    ),
}


@pytest.mark.parametrize("command", TABLE_RUNS)
def test_each_table_command_goes_through_write_table(monkeypatch, command):
    # A table command writes its table with one call of cli.write_table, the attribute
    # that a tracer replaces.
    argv, names, shape = TABLE_RUNS[command]
    calls = []

    def spy(path, table, fmt):
        *_, last = table
        if iter(table[last]) is table[last]:  # a grid: its rows, counted, then written
            rows = list(table[last])
            table = {**table, last: iter(rows)}
            got = (len(rows), *{len(row) for row in rows})
        else:
            got = tuple({len(column) for column in table.values()})
        calls.append((path, list(table), got, fmt))
        return write_table(path, table, fmt)

    monkeypatch.setattr(cli, "write_table", spy)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--format", "json"]) == 0
    assert calls == [(None, names, shape, "json")]


# Grid rows whose halves are equal, which the writer formats once per half, and rows
# whose halves differ or hold zeros, which it formats whole.
BLOCKED_GRIDS = {
    "equal-halves": [[-1.0, -0.25, -1.0, -0.25], [-2.0, -1e-300, -2.0, -1e-300]],
    "other-halves": [[0.0, -0.0, 0.0, -0.0], [-2.5, math.nan, -math.inf, 1e-300]],
}


@pytest.mark.parametrize("rows", BLOCKED_GRIDS.values(), ids=BLOCKED_GRIDS)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_a_grid_is_written_with_numpy_blocked(fmt, rows):
    # Importing the writer loads no numpy, and a grid of Python floats is written without
    # it, byte for byte as the per-value reference formats it.
    thetas, phis = [0.0, math.pi], [0.0, 0.5, math.pi, 3.5]
    script = (
        "import sys\n"
        "from math import inf, nan\n"
        "sys.modules['numpy'] = None\n"
        "from squeezed_zeno.table import write_table\n"
        f"table = {{'theta': {thetas!r}, 'phi': {phis!r}, 'F': iter({rows!r})}}\n"
        f"write_table(None, table, {fmt!r})\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    table = {"theta": np.array(thetas), "phi": np.array(phis), "F": np.array(rows)}
    assert proc.stdout == _reference(table, fmt)


def surface_like_table(n_rows: int) -> dict:
    """A theta-major angle grid with 512 phi values, and one distinct value per cell."""
    rng = np.random.default_rng(3)
    return {
        "theta": np.repeat(rng.random(n_rows // 512), 512),
        "phi": np.tile(rng.random(512), n_rows // 512),
        "F": rng.random(n_rows),
    }


def traced_peak(path: Path, table: dict, fmt: str) -> int:
    """Peak bytes traced by tracemalloc while write_table writes the table to path."""
    tracemalloc.start()
    try:
        write_table(str(path), table, fmt)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_memory_is_bounded_by_the_block(tmp_path, fmt):
    # The writer holds a block at a time, so 16 times the rows must not double its peak.
    small, large = (traced_peak(tmp_path / "table", surface_like_table(2**k), fmt) for k in (14, 18))
    assert large <= 2 * small, (small, large)


def traced_surface_peak(monkeypatch, path: Path, grid: tuple, fmt: str) -> int:
    """Peak bytes traced by tracemalloc while the surface command writes a given grid to path."""
    thetas, phis, rows = grid
    monkeypatch.setattr(
        cli, "survival_functional_rows", lambda bath, n_theta, n_phi: (thetas, phis, iter(rows))
    )
    argv = ["surface", "--set", f"n_theta={len(thetas)}", "--set", f"n_phi={len(phis)}"]
    return traced_main_peak(argv + ["--format", fmt, "--out", str(path)])


def traced_main_peak(argv: list) -> int:
    """Peak bytes traced by tracemalloc while main runs argv, which must exit 0."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Pairs of grid shapes, the second with 16 times the cells: more grid rows, or wider ones.
GRID_SHAPES = [((16, 512), (256, 512)), ((1, 2 * ROWS_PER_CHUNK + 2), (1, 32 * ROWS_PER_CHUNK + 2))]


@pytest.mark.parametrize("shapes", GRID_SHAPES, ids=["rows", "wide"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_surface_memory_is_bounded_by_the_block(monkeypatch, tmp_path, fmt, shapes):
    # The grid is made before tracing starts; the writer holds a block of at most
    # ROWS_PER_CHUNK rows at a time, so 16 times the cells must not double its peak.
    bath = BathParams.maximal(1.0, 1.0, 0.7)
    path = tmp_path / "surface"
    grids = []
    for shape in shapes:
        thetas, phis, rows = survival_functional_rows(bath, *shape)
        grids.append((thetas, phis, list(rows)))
    small, large = (traced_surface_peak(monkeypatch, path, grid, fmt) for grid in grids)
    assert large <= 2 * small, (small, large)


def test_surface_command_memory_is_bounded_by_the_block(tmp_path):
    # The kernel makes one grid row at a time and the writer holds one block of rows, so 16
    # times the grid rows, computed inside the traced call, must not double the peak.
    out = ["--set", "n_phi=512", "--out", str(tmp_path / "surface")]
    runs = (["surface", "--set", f"n_theta={n_theta}", *out] for n_theta in (256, 4096))
    small, large = map(traced_main_peak, runs)
    assert large <= 2 * small, (small, large)
