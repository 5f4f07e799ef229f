"""Input checks: non-numeric, non-finite and out-of-range values, in the library and the CLI."""

import numpy as np
import pytest

from squeezed_zeno import (
    BathParams,
    Direction,
    MeasurementSchedule,
    TimeGrid,
    bloch_vector,
    evolve_free,
    evolve_measured,
    matrix_to_bloch,
    pure_state_bloch,
    pure_state_matrix,
    second_order_rate,
    step_survival_probability,
    survival_rate,
)
from squeezed_zeno.cli import main
from squeezed_zeno.errors import InvalidStateError, ParameterError

from oracles import bloch_to_matrix

nan, inf = np.nan, np.inf


def run_cli(capsys, command, *items):
    argv = [command]
    for item in items:
        argv += ["--set", item]
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "command, item, key",
    [
        ("surface", "N=abc", "N"),
        ("surface", "M=max", "M"),
        ("zeno", "dt=null", "dt"),
        ("surface", "n_theta=-1", "n_theta"),
        ("surface", "n_phi=0", "n_phi"),
        ("zeno", "seed=1.5", "seed"),
        ("zeno", "seed=-1", "seed"),
        ("evolve", "n_steps=2.7", "n_steps"),
        ("surface", "psi=true", "psi"),
        ("zeno", "n_traj=-1", "n_traj"),
        ("zeno", "n_traj=1e20", "n_traj"),
        ("zeno", "n_traj=9007199254740993", "n_traj"),
        ("surface", "out=1", "out"),
        ("surface", "out=null", "out"),
        ("surface", 'out=""', "out"),
        ("evolve", "out=[1]", "out"),
        ("zeno", "count=[5]", "count"),
        ("intelligent", 'gamma="1"', "gamma"),
        ("evolve", 'state=[0,"a",0]', "state"),
        ("evolve", "measure=[1,null]", "measure"),
    ],
)
def test_non_numeric_value_is_config_error(capsys, command, item, key):
    code, out, err = run_cli(capsys, command, item)
    assert code == 2
    assert out == ""
    assert err.startswith(f"config error: {key} must be ")


@pytest.mark.parametrize(
    "make, error",
    [
        (lambda: BathParams(gamma=1.0, n=nan, m=0.0), ParameterError),
        (lambda: BathParams(gamma=1.0, n=inf, m=0.0), ParameterError),
        (lambda: BathParams(gamma=inf, n=1.0, m=0.0), ParameterError),
        (lambda: BathParams(gamma=1.0, n=1.0, m=nan), ParameterError),
        (lambda: BathParams(gamma=1.0, n=1.0, m=1.0, psi=inf), ParameterError),
        (lambda: BathParams.maximal(1.0, 1e200), ParameterError),
        (lambda: TimeGrid(nan, 10), ParameterError),
        (lambda: TimeGrid(inf, 10), ParameterError),
        (lambda: TimeGrid(-inf, 10), ParameterError),
        (lambda: MeasurementSchedule(nan, 5), ParameterError),
        (lambda: MeasurementSchedule(inf, 5), ParameterError),
        (lambda: MeasurementSchedule(1e308, 2), ParameterError),
        (lambda: Direction(nan, 0.0), InvalidStateError),
        (lambda: Direction(0.5, inf), InvalidStateError),
        (lambda: Direction(0.5, nan), InvalidStateError),
        (lambda: bloch_to_matrix([nan, 0.0, 0.0]), InvalidStateError),
    ],
)
def test_library_rejects_non_finite(make, error):
    with pytest.raises(error, match="finite"):
        make()


@pytest.mark.parametrize(
    "make, match",
    [
        # A step below the smallest normal float: linspace repeats a time.
        pytest.param(lambda: TimeGrid(5e-324, 2), "smallest normal", id="grid-5e-324-2"),
        pytest.param(lambda: TimeGrid(1e-320, 2**22), "smallest normal", id="grid-1e-320-2**22"),
        # The second-order rate squares gamma(2N+1).
        pytest.param(lambda: BathParams(gamma=1e160, n=0.0, m=0.0), "rate", id="bath-gamma"),
        pytest.param(lambda: BathParams.maximal(1e300, 1e10), "rate", id="bath-gamma-N"),
    ],
)
def test_library_rejects_out_of_range(make, match):
    with pytest.raises(ParameterError, match=match):
        make()


BATH = BathParams.maximal(1.0, 1.0, 0.0)
GRID = TimeGrid(1.0, 4)
TAKES_BLOCH_VECTOR = {
    "bloch_vector": bloch_vector,
    "bloch_to_matrix": bloch_to_matrix,
    "evolve_free": lambda v: evolve_free(BATH, v, GRID),
    "evolve_measured": lambda v: evolve_measured(BATH, Direction(0.0, 0.0), v, GRID),
}
MALFORMED_BLOCH_VECTORS = {
    "four": [0.1, 0.2, 0.3, 0.4],
    "two": [0.1, 0.2],
    "complex": np.array([0.5j, 0, 0]),
    "nested": [[0.1, 0.2, 0.3]],
    "scalar": 0.5,
    "string": ["a", 0, 0],
    "none": [0.1, None, 0.0],
    "bool": [True, False, False],
}
TAKES_PURE_STATE = {
    "pure_state_bloch": pure_state_bloch,
    "pure_state_matrix": pure_state_matrix,
    "survival_rate": lambda s: survival_rate(BATH, s),
    "step_survival_probability": lambda s: step_survival_probability(BATH, s, 0.01),
    "second_order_rate": lambda s: second_order_rate(BATH, s, 0.01),
}
MALFORMED_PURE_STATES = {"three": [1, 0, 0], "one": [1], "matrix": np.eye(2), "nested": [[1, 0]]}
TAKES_DENSITY_MATRIX = {"matrix_to_bloch": matrix_to_bloch}
MALFORMED_DENSITY_MATRICES = {
    "non-hermitian": np.array([[1, 1], [0, 0]]),
    "not-positive": np.array([[1, 2], [2, 0]]),
    "three-level": np.eye(3) / 3,
}


@pytest.mark.parametrize(
    "call, value",
    [
        pytest.param(call, value, id=f"{name}-{kind}")
        for takes, malformed in (
            (TAKES_BLOCH_VECTOR, MALFORMED_BLOCH_VECTORS),
            (TAKES_PURE_STATE, MALFORMED_PURE_STATES),
            (TAKES_DENSITY_MATRIX, MALFORMED_DENSITY_MATRICES),
        )
        for name, call in takes.items()
        for kind, value in malformed.items()
    ],
)
def test_malformed_state_rejected(call, value):
    with pytest.raises(InvalidStateError):
        call(value)


@pytest.mark.parametrize(
    "command, items",
    [
        ("zeno", ["N=nan"]),
        ("zeno", ["N=NaN"]),
        ("zeno", ["N=inf"]),
        ("zeno", ["N=Infinity"]),
        ("zeno", ["N=1e400"]),
        ("zeno", ["N=1e200"]),
        ("zeno", ["dt=NaN"]),
        ("zeno", ["gamma=Infinity"]),
        ("evolve", ["t_end=NaN"]),
        ("evolve", ["t_end=Infinity"]),
        ("evolve", ["psi=-Infinity"]),
        ("evolve", ["state=[NaN,0,0]"]),
        ("evolve", ["measure=[1,Infinity]"]),
        ("surface", ["M=NaN", "n_theta=2", "n_phi=2"]),
    ],
)
def test_cli_rejects_non_finite(capsys, command, items):
    code, out, err = run_cli(capsys, command, *items)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: ")


@pytest.mark.parametrize(
    "command, items, message",
    [
        ("zeno", ["count=1e15"], "count must be at most 4194304, got 1000000000000000"),
        ("zeno", ["count=4194305"], "count must be at most 4194304, got 4194305"),
        ("evolve", ["n_steps=1e15"], "n_steps must be at most 4194304, got 1000000000000000"),
        ("evolve", ["n_steps=4194305"], "n_steps must be at most 4194304, got 4194305"),
        (
            "surface",
            ["n_theta=1e7", "n_phi=1e7"],
            "n_theta*n_phi must be at most 4194304, got 10000000*10000000",
        ),
        (
            "surface",
            ["n_theta=2049", "n_phi=2048"],
            "n_theta*n_phi must be at most 4194304, got 2049*2048",
        ),
        (
            "surface",
            ["n_theta=4194305", "n_phi=1"],
            "n_theta*n_phi must be at most 4194304, got 4194305*1",
        ),
    ],
)
def test_request_size_caps(capsys, command, items, message):
    # Every case is rejected while the config is read, before anything is allocated.
    code, out, err = run_cli(capsys, command, *items)
    assert code == 2
    assert out == ""
    assert err == f"config error: {message}\n"


@pytest.mark.parametrize(
    "command, item, code, prefix",
    [
        ("evolve", "n_steps=0", 2, "config error: "),
        ("evolve", "t_end=0", 2, "config error: "),
        ("zeno", "count=0", 2, "config error: "),
        ("zeno", "dt=-0.01", 2, "config error: "),
        # The last measurement time 500 * 1e308 overflows.
        ("zeno", "dt=1e308", 2, "config error: "),
        # A grid step below the smallest normal float repeats a time.
        ("evolve", "t_end=5e-324 n_steps=2", 2, "config error: "),
        # The largest rate gamma(2N+1) overflows, or its square does.
        ("zeno", "gamma=1e300 N=1e10 state=excited count=2", 2, "config error: "),
        ("zeno", "gamma=1e160 count=2", 2, "config error: "),
        ("evolve", "state=[1,1,1]", 2, "config error: "),
        ("evolve", "measure=[4,0]", 2, "config error: "),
        ("intelligent", "M=0.5", 2, "config error: "),
        # M is maximal only as maximal_m(N) bit for bit: above it is out of range, and
        # below it S has no closed form, so no report of S would hold.
        ("intelligent", "N=1e-30 M=5e-13", 2, "config error: "),
        ("intelligent", "N=1 M=1.414213561473095", 2, "config error: "),
        ("intelligent", "N=1e-18 M=0", 2, "config error: "),
        ("intelligent", "N=1e-19 M=1e-10", 2, "config error: "),
        ("intelligent", "N=1e-40 M=0", 2, "config error: "),
        ("zeno", "N=0", 2, "config error: "),
        # No frozen pair exists at N = 0, for either of its states.
        ("zeno", "N=0 state=zeno-minus", 2, "config error: "),
        # A value the library rejects is reported with the library's own message. One
        # case per kind of input pins the whole line: bath, state, direction, time
        # grid, measurement schedule and the intelligent eigensystem.
        (
            "surface",
            "M=2",
            2,
            "config error: m=2.0 outside physical range [0, sqrt(n(n+1))=1.4142135623730951]\n",
        ),
        (
            "evolve",
            "N=0 state=zeno-minus",
            2,
            "config error: frozen states require n > 0 (else they degenerate)\n",
        ),
        ("evolve", "measure=[-1,0]", 2, "config error: theta must lie in [0, pi], got -1.0\n"),
        ("evolve", "t_end=-2", 2, "config error: t_end must be positive and finite, got -2.0\n"),
        ("zeno", "dt=-2", 2, "config error: dt must be positive and finite, got -2.0\n"),
        (
            "intelligent",
            "M=0",
            2,
            "config error: S is only defined at maximal m = sqrt(n(n+1)) = 1.4142135623730951, "
            "got m=0.0\n",
        ),
    ],
)
def test_out_of_range_exit_codes(capsys, command, item, code, prefix):
    got, out, err = run_cli(capsys, command, *item.split())
    assert got == code
    assert out == ""
    assert err.startswith(prefix)
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "--out", ""],
        ["surface", "--format", "xml"],
        ["intelligent", "--format", "csv"],
        ["intelligent", "--set", 'format="json"'],
        ["surface", "--set", "seed=0"],
        ["evolve", "--set", "seed=0"],
        ["intelligent", "--set", "seed=0"],
        ["evolve", "--set", 'observable="x"'],
        ["evolve", "--set", 'measure="none"'],
    ],
)
def test_flags_and_keys_checked_with_the_config(capsys, argv):
    # --out and --format meet the checks of --set out= and --set format=; each
    # subcommand accepts only the keys it reads.
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("config error: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "command, items",
    [
        ("evolve", ["t_end=1e308", "n_steps=2"]),
        ("zeno", ["dt=1e308", "count=1"]),
        # The second-order rate is -inf; its law still reads 1 at t = 0.
        ("zeno", ["gamma=1e10", "dt=1e300", "count=3"]),
        # At the smallest gamma the rates round to a few ulp or to 0: the slow rate is
        # 0 at N = 1, and at N = 0 the fast rate gamma / 2 is 0 as well.
        ("evolve", ["gamma=5e-324", "N=1", "n_steps=2"]),
        ("evolve", ["gamma=5e-324", "N=0", "state=excited", "n_steps=2"]),
        ("surface", ["gamma=5e-324", "N=0", "n_theta=2", "n_phi=2"]),
        ("surface", ["gamma=5e-324", "N=0", "M=0", "n_theta=2", "n_phi=2"]),
    ],
)
def test_huge_times_decay_silently(capsys, command, items):
    # An exponent overflowing to -inf is the decayed limit and a rate that rounds to 0
    # a mode that stays put; neither is a warning.
    code, out, err = run_cli(capsys, command, *items)
    assert code == 0
    assert err == ""
    # surface writes the maxima after its table.
    lines = out.split("\n{", 1)[0].splitlines()
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    assert np.all(np.isfinite(rows))
    if command == "zeno":
        # Every survival law reads 1 at t = 0.
        assert np.all(rows[0, 1:] == 1.0)


def test_out_flag_taken_as_given(tmp_path, monkeypatch):
    # --out is a path, never parsed as JSON: "1" names a file.
    monkeypatch.chdir(tmp_path)
    assert main(["evolve", "--set", "n_steps=4", "--out", "1"]) == 0
    assert (tmp_path / "1").read_text().startswith("t,sigma_mu_free,sigma_mu_measured\n")
