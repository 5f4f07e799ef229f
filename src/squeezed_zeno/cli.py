"""Command-line front end emitting plot-ready data files.

Subcommands:
  surface      survival-functional grid over measurement angles
  evolve       <sigma_mu>(t) with and without frequent measurements
  zeno         repeated-measurement survival curves (exact, limit laws, MC)
  intelligent  jump-operator eigensystem and uncertainty-saturation report

Configuration is a single flat JSON file; individual keys can be
overridden with --set key=value. All output is deterministic given the
config (including the seed). Exit codes: 0 success, 2 config error,
3 numeric contract violation, 4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
from typing import Callable, NamedTuple

from .errors import InvalidStateError, ParameterError, SqueezedZenoError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Rows per block of the table writer; each block is formatted by one %-operation.
ROWS_PER_CHUNK = 4096

_BATH_KEYS = {"gamma": 1.0, "N": 1.0, "M": "maximal", "psi": 0.0}
_TABLE_KEYS = {**_BATH_KEYS, "format": "csv"}
# Each subcommand's keys with their defaults; every subcommand also takes "out", which has none.
KEYS = {
    "surface": {**_TABLE_KEYS, "n_theta": 256, "n_phi": 256},
    "evolve": {**_TABLE_KEYS, "state": "zeno-plus", "measure": "mu1", "t_end": 5.0, "n_steps": 200},
    "zeno": {**_TABLE_KEYS, "state": "zeno-plus", "dt": 0.01, "count": 500, "n_traj": 0, "seed": 0},
    "intelligent": _BATH_KEYS,
}

# Keys holding a finite real number ("M" also accepts "maximal").
REAL_KEYS = {"gamma", "N", "M", "psi", "t_end", "dt"}
# Rows of one table at most: a larger request is a config error, not a failed allocation.
MAX_ROWS = 2**22
# Keys holding an integer, with (smallest, largest) value each accepts: up to 2**53 every
# survivor count is an exact float.
INTEGER_BOUNDS = {
    "seed": (0, math.inf), "n_theta": (1, math.inf), "n_phi": (1, math.inf),
    "n_steps": (1, MAX_ROWS), "count": (1, MAX_ROWS), "n_traj": (0, 2**53),
}


class ConfigError(Exception):
    pass


def _real(key: str, value) -> float:
    """A finite JSON number as float; bools, strings and null are not numbers."""
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not -sys.float_info.max <= value <= sys.float_info.max
    ):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def _integer(key: str, value, minimum: int, maximum: float) -> int:
    """An integer in [minimum, maximum]; integral floats such as 1e3 are accepted."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ConfigError(f"{key} must be an integer >= {minimum}, got {value!r}")
    if value > maximum:
        raise ConfigError(f"{key} must be at most {maximum}, got {value!r}")
    return value


@contextlib.contextmanager
def _config_checked():
    """Report an input that the library rejects as a config error, with its message."""
    try:
        yield
    except (ParameterError, InvalidStateError) as exc:
        raise ConfigError(str(exc))


def load_config(path: str | None, overrides, command: str, flags=None) -> dict:
    """The file, then the --set overrides, then the flags, over the defaults; every value checked.

    An override's value is parsed as JSON when it is valid JSON and kept as text
    otherwise; the flag values (--out, --format) are taken as given.
    """
    config = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        # Undecodable bytes, bad syntax and an integer of more digits than int() takes are
        # ValueErrors; nesting deeper than the recursion limit is a RecursionError.
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            config[key] = json.loads(raw)
        except (ValueError, RecursionError):
            config[key] = raw
    config.update(flags or {})
    unknown = set(config) - set(KEYS[command]) - {"out"}
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(sorted(unknown))}"
        )
    merged = {**KEYS[command], **config}
    if "out" in merged and not (isinstance(merged["out"], str) and merged["out"]):
        raise ConfigError(f"out must be a non-empty path, got {merged['out']!r}")
    for key in sorted(merged):
        if key in INTEGER_BOUNDS:
            merged[key] = _integer(key, merged[key], *INTEGER_BOUNDS[key])
        elif key in REAL_KEYS and not (key == "M" and merged[key] == "maximal"):
            merged[key] = _real(key, merged[key])
    if "n_theta" in merged and merged["n_theta"] * merged["n_phi"] > MAX_ROWS:
        raise ConfigError(
            f"n_theta*n_phi must be at most {MAX_ROWS}, "
            f"got {merged['n_theta']}*{merged['n_phi']}"
        )
    if "format" in merged and not (
        isinstance(merged["format"], str) and merged["format"] in _FORMATS
    ):
        raise ConfigError(f"format must be csv or json, got {merged['format']!r}")
    return merged


def _bind_compute(command: str) -> None:
    """Bind the package's public names that command computes with into this module.

    Importing cli loads no numpy, so --help, usage errors and config errors exit without it;
    main binds once the config is checked. surface and intelligent bind the names of the
    submodules that load no numpy (_NUMPY_FREE), evolve and zeno every public name, np,
    EXCITED and GROUND. A bound name stays: a caller that replaces one, as a tracer does,
    keeps it for later commands.
    """
    package = sys.modules[__package__]
    scalar = command in ("surface", "intelligent")
    modules = package._NUMPY_FREE if scalar else package._PUBLIC
    names = {name: getattr(package, name) for key in modules for name in package._PUBLIC[key]}
    if not scalar:
        from . import _numpy, pauli
        names.update(EXCITED=pauli.EXCITED, GROUND=pauli.GROUND, np=_numpy.np)
    globals().update({name: value for name, value in names.items() if name not in globals()})


def bath_from_config(config: dict) -> BathParams:
    if config["M"] == "maximal":
        return BathParams.maximal(config["gamma"], config["N"], config["psi"])
    return BathParams(config["gamma"], config["N"], config["M"], config["psi"])


# Named pure initial states, as amplitudes. zeno-minus is (-b*, a*) for zeno-plus = (a, b):
# orthogonal to it at every M, with exactly the opposite Bloch vector, and at maximal
# squeezing the -1 eigenstate of sigma . mu1.
STATES = {
    "excited": lambda bath: EXCITED,
    "ground": lambda bath: GROUND,
    "zeno-plus": lambda bath: zeno_states(bath)[0],
    "zeno-minus": lambda bath: (lambda a, b: np.array([-b, a]).conj())(*zeno_states(bath)[0]),
}

DIRECTIONS = {
    "mu1": lambda bath: zeno_directions(bath).mu1,
    "mu2": lambda bath: zeno_directions(bath).mu2,
    "z": lambda bath: Direction(0.0, 0.0),
    "-z": lambda bath: Direction(np.pi, 0.0),
    "x": lambda bath: Direction(np.pi / 2, 0.0),
    "y": lambda bath: Direction(np.pi / 2, np.pi / 2),
}


def _named(table: dict, kind: str, name: str):
    """The entry of a name table (STATES, DIRECTIONS) for name; else a config error."""
    if name not in table:
        raise ConfigError(f"unknown {kind} {name!r}")
    return table[name]


def resolve_direction(spec, bath: BathParams) -> Direction:
    """Measurement direction from a name in DIRECTIONS or an explicit [theta, phi]."""
    if isinstance(spec, str):
        return _named(DIRECTIONS, "direction", spec)(bath)
    if isinstance(spec, (list, tuple)) and len(spec) == 2:
        return Direction(_real("measure", spec[0]), _real("measure", spec[1]))
    raise ConfigError(f"direction must be a name or [theta, phi], got {spec!r}")


def resolve_state(spec, bath: BathParams) -> np.ndarray:
    """Initial Bloch vector from a name in STATES or an explicit [x, y, z]."""
    if isinstance(spec, str):
        return pure_state_bloch(_named(STATES, "state", spec)(bath))
    if isinstance(spec, (list, tuple)) and len(spec) == 3:
        return bloch_vector([_real("state", x) for x in spec])
    raise ConfigError(f"state must be a name or [x, y, z], got {spec!r}")


class _TextFormat(NamedTuple):
    """How a table format spells floats, rows and the text around them.

    A table's text is head(names), then, if it has rows, opening, the rows joined
    by separator, and closing; a table without rows has empty after its head.
    """

    spec: str  # the %-conversion of one float
    numbers: Callable[[str], str]  # respells the formatted floats of a text
    head: Callable[[list], str]  # the text before the rows, from the column names
    row: Callable[[list], str]  # one row, from its cells' texts or %-conversions
    separator: str
    opening: str
    closing: str
    empty: str


_FORMATS = {
    "csv": _TextFormat(
        spec="%.17g",
        numbers=lambda text: text,
        head=lambda names: ",".join(names) + "\n",
        row=",".join,
        separator="\n",
        opening="",
        closing="\n",
        empty="",
    ),
    # json.dumps's own "columns" entry, then "rows", which sort_keys puts after it.
    "json": _TextFormat(
        spec="%r",
        # float.__repr__ writes nan, inf and -inf where JSON has NaN, Infinity and -Infinity.
        numbers=lambda text: text.replace("nan", "NaN").replace("inf", "Infinity"),
        head=lambda names: json.dumps({"columns": names}, indent=2)[: -len("\n}")]
        + ',\n  "rows": [',
        row=lambda cells: "    [\n      " + ",\n      ".join(cells) + "\n    ]",
        separator=",\n",
        opening="\n",
        closing="\n  ]\n}\n",
        empty="]\n}\n",
    ),
}


def write_table(path: str | None, table: dict, fmt: str):
    """Write named float columns as CSV or JSON {"columns", "rows"}, a block of rows at a time.

    The columns are of equal length, one row per index, or the table is a grid: its last
    column is an iterator of rows, one per value of the first column, each a list of one
    value per value of the second, and each cell is a row (first[i], second[j], row_i[j]),
    first axis major. A grid's axes and rows hold Python floats, and writing one needs no
    numpy. CSV is a header line, then one line per row with every value as %.17g. JSON is
    byte for byte json.dumps({"columns": ..., "rows": ...}, sort_keys=True, indent=2) plus
    a newline.
    """
    form = _FORMATS[fmt]
    columns = list(table.values())
    if iter(columns[-1]) is columns[-1]:
        blocks = _grid_blocks(form, *columns)
    else:
        blocks = _blocks(form, [np.asarray(column, dtype=np.float64) for column in columns])
    _write_text(path, _table_text(form, list(table), blocks))


def _table_text(form: _TextFormat, names: list, blocks):
    """The text of a table: its head, then the texts of its blocks of rows."""
    yield form.head(names)
    joint = None
    for text in blocks:
        yield form.opening if joint is None else joint
        yield text
        joint = form.separator
    yield form.empty if joint is None else form.closing


def _texts(form: _TextFormat, values: list) -> list:
    """The texts of a list of Python floats, all formatted by one %-operation."""
    return form.numbers((form.spec + "\n") * len(values) % tuple(values)).split("\n")[:-1]


def _grid_blocks(form: _TextFormat, thetas, phis, rows):
    """The texts of the rows (theta_i, phi_j, row_i[j]), theta-major, a block of cells each.

    A block is as many whole grid rows as fit in ROWS_PER_CHUNK rows, and holds that many
    grid rows at a time from rows. The phi texts are formatted once per table into the
    pieces of a block, each theta's once per grid row. A grid row wider than
    ROWS_PER_CHUNK is written in pieces of ROWS_PER_CHUNK cells, each with the pieces of
    its own phis.
    """
    n_phi = len(phis)
    if n_phi > ROWS_PER_CHUNK:
        for theta, row in zip(thetas, rows):
            for start in range(0, n_phi, ROWS_PER_CHUNK):
                cells = slice(start, start + ROWS_PER_CHUNK)
                yield _grid_text(form, _grid_pieces(form, phis[cells], 1), [theta], [row[cells]])
        return
    height = ROWS_PER_CHUNK // n_phi
    pieces, thetas = _grid_pieces(form, phis, height), iter(thetas)
    while block := list(itertools.islice(rows, height)):
        yield _grid_text(form, pieces, list(itertools.islice(thetas, len(block))), block)


def _grid_pieces(form: _TextFormat, phis, height: int) -> list:
    """The text of height grid rows with the phi texts in place, split where theta and F go.

    Its pieces alternate with the cells' texts, theta then F: pieces[0], theta_0,
    pieces[1], F_0, pieces[2], theta_1, and so on.
    """
    row = form.separator.join([form.row(["\0", form.spec, "\0"])] * len(phis)) % tuple(phis)
    return form.numbers(form.separator.join([row] * height)).split("\0")


def _grid_text(form: _TextFormat, pieces: list, thetas: list, rows: list) -> str:
    """The text of the grid rows (theta, F row) of a block, written into pieces.

    The thetas and F values are formatted by one _texts call, F once per half row where
    every row's two halves hold the same floats bit for bit, as the phi and phi + pi
    halves of survival_functional_rows do for every even n_phi. Halves that compare equal
    and hold no zero are equal bit for bit; others are formatted whole, so 0.0 and -0.0
    stay apart.
    """
    width, half = len(rows[0]), len(rows[0]) // 2
    firsts = [row[:half] for row in rows]
    same = firsts == [row[half:] for row in rows] and 0.0 not in itertools.chain(*firsts)
    texts = _texts(form, [*thetas, *itertools.chain.from_iterable(firsts if same else rows)])
    theta_texts, cells = texts[: len(rows)], texts[len(rows) :]
    if same:
        halves = (cells[start : start + half] for start in range(0, len(cells), half))
        cells = list(itertools.chain.from_iterable(part * 2 for part in halves))
    text = [""] * (4 * len(cells) + 1)
    # A last block of fewer rows takes the pieces of its rows, then the text that ends a row.
    text[::2] = pieces[: 2 * len(cells)] + pieces[-1:]
    text[1::4] = list(itertools.chain.from_iterable([theta] * width for theta in theta_texts))
    text[3::4] = cells
    return "".join(text)


def _blocks(form: _TextFormat, columns: list):
    """The texts of the rows of equal-length columns, one block of ROWS_PER_CHUNK rows per text.

    A column whose values in a block form at most half as many runs of equal neighbours
    as the block has rows is formatted once per run, by _texts, and spliced in with %s;
    the floats of any other column go to the format's spec as they are. Neighbours are
    equal when their bit patterns are, so 0.0 and -0.0 stay apart. Runs are what zeno's
    survival columns repeat, since survival never increases. Without them,
    zeno --set count=2**22 --set n_traj=1000 took 16.5-22.3 s instead of 13.4-18.6 s as
    CSV and 25.4-31.0 s instead of 15.0-22.6 s as JSON, end to end on 2 shared vCPUs
    (four runs each).
    """
    width = len(columns)
    for start in range(0, len(columns[0]), ROWS_PER_CHUNK):
        blocks = [column[start : start + ROWS_PER_CHUNK] for column in columns]
        specs, values = [], [None] * (len(blocks[0]) * width)
        for index, block in enumerate(blocks):
            bits = block.view(np.int64)
            starts = np.flatnonzero(np.r_[True, bits[1:] != bits[:-1]])
            if 2 * len(starts) <= len(block):
                lengths = np.diff(starts, append=len(block))
                texts = np.array(_texts(form, block[starts].tolist()), dtype=object)
                values[index::width] = np.repeat(texts, lengths).tolist()
                specs.append("%s")
            else:
                values[index::width] = block.tolist()
                specs.append(form.spec)
        rows = form.separator.join([form.row(specs)] * len(blocks[0]))
        yield form.numbers(rows % tuple(values))


def _write_json(path: str | None, obj):
    _write_text(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])


def _write_text(path: str | None, parts):
    """Write an iterable of strings to path, or to stdout, flushed, when path is None."""
    try:
        if path is None:
            if sys.stdout is None:  # the process started without one, as under >&-
                raise OSError("not open")
            sys.stdout.writelines(parts)
            sys.stdout.flush()
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.writelines(parts)
    except OSError as exc:
        raise IOError(f"cannot write {'stdout' if path is None else path}: {exc}")


def cmd_surface(config: dict, bath: BathParams) -> None:
    thetas, phis, rows = survival_functional_rows(bath, config["n_theta"], config["n_phi"])
    out = config.get("out")
    write_table(out, {"theta": thetas, "phi": phis, "F": rows}, config["format"])
    theta, phi1, phi2 = zeno_angles(bath)
    # Reduced to [0, 2 pi) as Direction reduces the phis of zeno_directions.
    sidecar = {
        "cos_theta_max": math.cos(theta),
        "phi1": phi1 % (2 * math.pi),
        "phi2": phi2 % (2 * math.pi),
        "theta": theta,
    }
    _write_json(None if out is None else out + ".maxima.json", sidecar)


def cmd_evolve(config: dict, bath: BathParams) -> None:
    with _config_checked():
        v0 = resolve_state(config["state"], bath)
        direction = resolve_direction(config["measure"], bath)
        grid = TimeGrid(config["t_end"], config["n_steps"])

    free = evolve_free(bath, v0, grid)
    measured = evolve_measured(bath, direction, v0, grid)
    table = {
        "t": grid.times,
        # <sigma_mu> lies in [-1, 1]; rounding puts a frozen state's value a few ulp outside.
        "sigma_mu_free": np.clip(free @ direction.unit_vector, -1.0, 1.0),
        "sigma_mu_measured": measured,
    }
    write_table(config.get("out"), table, config["format"])


def cmd_zeno(config: dict, bath: BathParams) -> None:
    with _config_checked():
        if not isinstance(config["state"], str):
            raise ConfigError("zeno requires a named pure initial state")
        state = _named(STATES, "state", config["state"])(bath)
        sched = MeasurementSchedule(config["dt"], config["count"])

    table = {"t": sched.times, "P_exact": repeated_measurement_survival(bath, state, sched)}
    table["P_first_order"], table["P_second_order"] = survival_laws(bath, state, sched)
    if config["n_traj"] > 0:
        table["P_mc"], table["P_mc_stderr"] = monte_carlo_survival(
            bath, state, sched, config["n_traj"], config["seed"]
        )
    write_table(config.get("out"), table, config["format"])


def cmd_intelligent(config: dict, bath: BathParams) -> None:
    with _config_checked():
        eig = s_eigensystem(bath)
    report: dict = {"N": bath.n, "M": bath.m, "gamma": bath.gamma, "psi": bath.psi}
    report["degenerate"] = eig.degenerate
    if eig.degenerate:
        report["warning"] = "N=0: jump operator is nilpotent, single eigenvector"
    report["uncertainty"] = {}
    for name, lam, vec in (
        ("plus", eig.lambda_plus, eig.state_plus),
        ("minus", eig.lambda_minus, eig.state_minus),
    ):
        report[f"lambda_{name}"] = [lam.real, lam.imag]
        report[f"state_{name}"] = [[a.real, a.imag] for a in vec]
        report["uncertainty"][name] = dict(
            zip(("var_j1", "var_j2", "bound", "saturation_gap"), uncertainty_product(vec, bath.psi))
        )
    if not eig.degenerate:
        report["factorization_residual"] = factorization_residual(bath, eig)
        report["alpha_ratio"] = bath.squeeze_ratio
        report["squeeze_amplitude"] = bath.squeeze_amplitude
    _write_json(config.get("out"), report)


COMMANDS = {
    "surface": cmd_surface,
    "evolve": cmd_evolve,
    "zeno": cmd_zeno,
    "intelligent": cmd_intelligent,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="squeezed-zeno",
        description="Two-level atom in a squeezed vacuum: frozen observables, "
        "survival laws, intelligent states.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", metavar="FILE", help="flat JSON config file")
    parser.add_argument(
        "--set", dest="overrides", action="append", metavar="KEY=VALUE",
        help="override a config key (value parsed as JSON when possible)",
    )
    parser.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    parser.add_argument("--format", help="table format: csv (default) or json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    flags = {key: getattr(args, key) for key in ("out", "format") if getattr(args, key) is not None}
    try:
        config = load_config(args.config, args.overrides, args.command, flags)
        _bind_compute(args.command)
        with _config_checked():
            bath = bath_from_config(config)
        COMMANDS[args.command](config, bath)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SqueezedZenoError as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK
