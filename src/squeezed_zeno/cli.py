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

import argparse
import contextlib
import json
import math
import sys

import numpy as np

from . import (
    EXCITED,
    GROUND,
    BathParams,
    Direction,
    MeasurementSchedule,
    SqueezedZenoError,
    TimeGrid,
    bloch_vector,
    evolve_free,
    evolve_measured,
    maximal_m,
    monte_carlo_survival,
    pure_state_bloch,
    relax,
    repeated_measurement_survival,
    s_eigensystem,
    second_order_rate,
    survival_functional_grid,
    survival_rate,
    uncertainty_product,
    zeno_directions,
    zeno_states,
)
from .bath import lindblad_s_operator
from .errors import InvalidStateError, ParameterError
from .intelligent import j_minus_alpha

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

# Rows per block of the table writer; each block is formatted by one %-operation.
ROWS_PER_CHUNK = 4096

COMMON_KEYS = {"gamma", "N", "M", "psi", "out"}
TABLE_KEYS = COMMON_KEYS | {"format"}
ALLOWED_KEYS = {
    "surface": TABLE_KEYS | {"n_theta", "n_phi"},
    "evolve": TABLE_KEYS | {"state", "measure", "t_end", "n_steps"},
    "zeno": TABLE_KEYS | {"state", "dt", "count", "n_traj", "seed"},
    "intelligent": COMMON_KEYS,
}

DEFAULTS = {
    "gamma": 1.0,
    "N": 1.0,
    "M": "maximal",
    "psi": 0.0,
    "format": "csv",
    "seed": 0,
    "n_theta": 256,
    "n_phi": 256,
    "state": "zeno-plus",
    "measure": "mu1",
    "t_end": 5.0,
    "n_steps": 200,
    "dt": 0.01,
    "count": 500,
    "n_traj": 0,
}

# Keys holding a finite real number ("M" also accepts "maximal").
REAL_KEYS = {"gamma", "N", "M", "psi", "t_end", "dt"}
# Keys holding an integer, with the smallest value each accepts.
INTEGER_MINIMUM = {"seed": 0, "n_theta": 1, "n_phi": 1, "n_steps": 1, "count": 1, "n_traj": 0}
# Rows of one table at most: a larger request is a config error, not a failed allocation.
MAX_ROWS = 2**22
# Integer keys with an upper bound: up to 2**53 every survivor count is an exact float.
INTEGER_MAXIMUM = {"n_traj": 2**53, "count": MAX_ROWS, "n_steps": MAX_ROWS}


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
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise ConfigError("config root must be a JSON object")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            config[key] = json.loads(raw)
        except json.JSONDecodeError:
            config[key] = raw
    config.update(flags or {})
    unknown = set(config) - ALLOWED_KEYS[command]
    if unknown:
        raise ConfigError(
            f"unknown config key(s) for {command}: {', '.join(sorted(unknown))}"
        )
    merged = {k: DEFAULTS[k] for k in ALLOWED_KEYS[command] if k in DEFAULTS}
    merged.update(config)
    if "out" in merged and not (isinstance(merged["out"], str) and merged["out"]):
        raise ConfigError(f"out must be a non-empty path, got {merged['out']!r}")
    for key in sorted(merged):
        if key in INTEGER_MINIMUM:
            merged[key] = _integer(
                key, merged[key], INTEGER_MINIMUM[key], INTEGER_MAXIMUM.get(key, math.inf)
            )
        elif key in REAL_KEYS and not (key == "M" and merged[key] == "maximal"):
            merged[key] = _real(key, merged[key])
    if "n_theta" in merged and merged["n_theta"] * merged["n_phi"] > MAX_ROWS:
        raise ConfigError(
            f"n_theta*n_phi must be at most {MAX_ROWS}, "
            f"got {merged['n_theta']}*{merged['n_phi']}"
        )
    if "format" in merged and merged["format"] not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {merged['format']!r}")
    return merged


def bath_from_config(config: dict) -> BathParams:
    n, m = config["N"], config["M"]
    return BathParams(
        gamma=config["gamma"],
        n=n,
        m=maximal_m(n) if m == "maximal" else m,
        psi=config["psi"],
    )


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


def write_table(path: str | None, table: dict, fmt: str):
    """Write named float columns of equal length as CSV or JSON {"columns", "rows"}.

    CSV is a header line, then one line per row with every value as %.17g. JSON is
    byte for byte json.dumps({"columns": ..., "rows": ...}, sort_keys=True, indent=2)
    plus a newline. Both are formatted and written one block of rows at a time.
    """
    names = list(table)
    columns = [np.asarray(column, dtype=np.float64) for column in table.values()]
    parts = _json_table(names, columns) if fmt == "json" else _csv_table(names, columns)
    _write_text(path, parts)


def _csv_table(names: list, columns: list):
    """CSV text: the header line, then the rows block by block."""
    yield ",".join(names) + "\n"
    for n_rows, specs, values in _blocks(columns, "%.17g"):
        yield (",".join(specs) + "\n") * n_rows % tuple(values)


def _json_table(names: list, columns: list):
    """JSON text: json.dumps's own "columns" entry, then "rows" (sorted after it) by block."""
    head = json.dumps({"columns": names}, indent=2)[: -len("\n}")] + ',\n  "rows": ['
    if not len(columns[0]):
        yield head + "]\n}\n"
        return
    yield head + "\n"
    separator = ""
    for n_rows, specs, values in _blocks(columns, "%r"):
        row = "    [\n      " + ",\n      ".join(specs) + "\n    ]"
        text = ",\n".join([row] * n_rows) % tuple(values)
        # float.__repr__ writes nan, inf and -inf where JSON has NaN, Infinity and -Infinity.
        yield separator + text.replace("nan", "NaN").replace("inf", "Infinity")
        separator = ",\n"
    yield "\n  ]\n}\n"


def _blocks(columns: list, spec: str):
    """Per block of ROWS_PER_CHUNK rows: its length, one %-spec per column, the values row-major.

    A column with at most half of a full block's values distinct is formatted once per
    distinct bit pattern (so 0.0 and -0.0 stay apart) and spliced in with %s; the
    floats of any other column go to `spec` as they are. Only full blocks are
    searched: the first np.unique in a process maps in about 0.5 MiB of numpy's
    sorting code, which a table shorter than one block cannot win back.
    """
    width = len(columns)
    for start in range(0, len(columns[0]), ROWS_PER_CHUNK):
        blocks = [column[start : start + ROWS_PER_CHUNK] for column in columns]
        specs, values = [], [None] * (len(blocks[0]) * width)
        for index, block in enumerate(blocks):
            if len(block) == ROWS_PER_CHUNK:
                bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
                if 2 * len(bits) <= len(block):
                    texts = [spec % x for x in bits.view(np.float64).tolist()]
                    values[index::width] = np.array(texts, dtype=object)[inverse].tolist()
                    specs.append("%s")
                    continue
            values[index::width] = block.tolist()
            specs.append(spec)
        yield len(blocks[0]), specs, values


def _write_json(path: str | None, obj):
    _write_text(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])


def _write_text(path: str | None, parts):
    """Write an iterable of strings to path, or to stdout when path is None."""
    if path is None:
        sys.stdout.writelines(parts)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(parts)
    except OSError as exc:
        raise IOError(f"cannot write {path}: {exc}")


def cmd_surface(config: dict) -> int:
    with _config_checked():
        bath = bath_from_config(config)
    n_theta, n_phi = config["n_theta"], config["n_phi"]
    thetas, phis, f = survival_functional_grid(bath, n_theta, n_phi)
    table = {"theta": np.repeat(thetas, n_phi), "phi": np.tile(phis, n_theta), "F": f.ravel()}
    out = config.get("out")
    write_table(out, table, config["format"])
    zd = zeno_directions(bath)
    sidecar = {
        "cos_theta_max": float(np.cos(zd.theta)),
        "phi1": zd.mu1.phi,
        "phi2": zd.mu2.phi,
        "theta": zd.theta,
    }
    _write_json(None if out is None else out + ".maxima.json", sidecar)
    return EXIT_OK


def cmd_evolve(config: dict) -> int:
    with _config_checked():
        bath = bath_from_config(config)
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
    return EXIT_OK


def cmd_zeno(config: dict) -> int:
    with _config_checked():
        bath = bath_from_config(config)
        if not isinstance(config["state"], str):
            raise ConfigError("zeno requires a named pure initial state")
        state = _named(STATES, "state", config["state"])(bath)
        sched = MeasurementSchedule(config["dt"], config["count"])

    exact = repeated_measurement_survival(bath, state, sched)
    times = sched.times
    try:
        second_order = relax(1.0, -second_order_rate(bath, state, sched.dt), times)
    except ParameterError:
        # The second-order law holds only where the first-order rate vanishes.
        second_order = np.full_like(times, math.nan)
    table = {
        "t": times,
        "P_exact": exact,
        "P_first_order": relax(1.0, -survival_rate(bath, state), times),
        "P_second_order": second_order,
    }
    if config["n_traj"] > 0:
        table["P_mc"], table["P_mc_stderr"] = monte_carlo_survival(
            bath, state, sched, config["n_traj"], config["seed"]
        )
    write_table(config.get("out"), table, config["format"])
    return EXIT_OK


def cmd_intelligent(config: dict) -> int:
    with _config_checked():
        bath = bath_from_config(config)
        eig = s_eigensystem(bath)
    report: dict = {"N": bath.n, "M": bath.m, "gamma": bath.gamma, "psi": bath.psi}
    report["degenerate"] = eig.degenerate
    if eig.degenerate:
        report["warning"] = "N=0: jump operator is nilpotent, single eigenvector"
    report["lambda_plus"] = [eig.lambda_plus.real, eig.lambda_plus.imag]
    report["lambda_minus"] = [eig.lambda_minus.real, eig.lambda_minus.imag]
    for name, vec in (("state_plus", eig.state_plus), ("state_minus", eig.state_minus)):
        report[name] = [[a.real, a.imag] for a in vec]
    gaps = {}
    for name, vec in (("plus", eig.state_plus), ("minus", eig.state_minus)):
        var1, var2, bound, gap = uncertainty_product(vec, bath.psi)
        gaps[name] = {
            "var_j1": var1,
            "var_j2": var2,
            "bound": bound,
            "saturation_gap": gap,
        }
    report["uncertainty"] = gaps
    alpha = bath.squeeze_ratio
    # Rounding alpha moves 1 - alpha^2, and J_-(alpha), by up to 1.5 eps alpha^2: the residual
    # reads the identity to 1e-12 only where that is at most 1e-12 of 1 - alpha^2 (N > ~3e-9).
    if np.finfo(float).eps * alpha**2 <= 1e-12 * (alpha**2 - 1.0):
        s = lindblad_s_operator(bath)
        residual = np.max(np.abs(s - 2.0 * eig.lambda_plus * j_minus_alpha(bath.psi, alpha)))
        report["factorization_residual"] = float(residual)
        report["alpha_ratio"] = alpha
        report["squeeze_amplitude"] = bath.squeeze_amplitude
    _write_json(config.get("out"), report)
    return EXIT_OK


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
        "--set",
        dest="overrides",
        action="append",
        metavar="KEY=VALUE",
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
        return COMMANDS[args.command](config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SqueezedZenoError as exc:
        print(f"numeric contract violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
