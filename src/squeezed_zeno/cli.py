"""Command-line front end emitting plot-ready data files.

Subcommands:
  surface      survival-functional grid over measurement angles
  evolve       <sigma_mu>(t) with and without frequent measurements
  zeno         repeated-measurement survival curves (exact, limit laws, MC)
  intelligent  jump-operator eigensystem and uncertainty-saturation report

Configuration is a single flat JSON file; individual keys can be
overridden with --set key=value. All output is deterministic given the
config (including the seed). Exit codes: 0 success, 2 config error, 4 I/O error.
A config error is any package error: a value that the CLI or the library rejects.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .errors import SqueezedZenoError
from .table import FORMATS, write_json, write_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 4

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


class ConfigError(SqueezedZenoError):
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
            f"unknown config key(s) for {command}: {', '.join(map(repr, sorted(unknown)))}"
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
        isinstance(merged["format"], str) and merged["format"] in FORMATS
    ):
        raise ConfigError(f"format must be csv or json, got {merged['format']!r}")
    return merged


def _bind_compute(command: str) -> None:
    """Bind the package's public names that command computes with into this module.

    Importing cli loads no numpy, so --help, usage errors and config errors exit without it;
    main binds once the config is checked. surface and intelligent bind the names of the
    submodules that load no numpy (_NUMPY_FREE), evolve and zeno every public name. A bound
    name stays: a caller that replaces one, as a tracer does, keeps it for later commands.
    """
    package = sys.modules[__package__]
    modules = package._NUMPY_FREE if command in ("surface", "intelligent") else package._PUBLIC
    names = {name: getattr(package, name) for key in modules for name in package._PUBLIC[key]}
    globals().update({name: value for name, value in names.items() if name not in globals()})


def bath_from_config(config: dict) -> BathParams:
    if config["M"] == "maximal":
        return BathParams.maximal(config["gamma"], config["N"], config["psi"])
    return BathParams(config["gamma"], config["N"], config["M"], config["psi"])


# Named pure initial states, as amplitudes. zeno-minus is (-b*, a*) for zeno-plus = (a, b):
# orthogonal to it at every M, with exactly the opposite Bloch vector, and at maximal
# squeezing the -1 eigenstate of sigma . mu1.
STATES = {
    "excited": lambda bath: (1 + 0j, 0j),
    "ground": lambda bath: (0j, 1 + 0j),
    "zeno-plus": lambda bath: zeno_states(bath)[0],
    "zeno-minus": lambda bath: (lambda a, b: (-b.conjugate(), a.conjugate()))(
        *zeno_states(bath)[0]
    ),
}

DIRECTIONS = {
    "mu1": lambda bath: zeno_directions(bath).mu1,
    "mu2": lambda bath: zeno_directions(bath).mu2,
    "z": lambda bath: Direction(0.0, 0.0),
    "-z": lambda bath: Direction(math.pi, 0.0),
    "x": lambda bath: Direction(math.pi / 2, 0.0),
    "y": lambda bath: Direction(math.pi / 2, math.pi / 2),
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


def resolve_state(spec, bath: BathParams):
    """Initial Bloch vector, a float array of shape (3,), from a name in STATES or an [x, y, z]."""
    if isinstance(spec, str):
        return pure_state_bloch(_named(STATES, "state", spec)(bath))
    if isinstance(spec, (list, tuple)) and len(spec) == 3:
        return bloch_vector([_real("state", x) for x in spec])
    raise ConfigError(f"state must be a name or [x, y, z], got {spec!r}")


def cmd_surface(config: dict, bath: BathParams) -> None:
    thetas, phis, rows = survival_functional_rows(bath, config["n_theta"], config["n_phi"])
    out = config.get("out")
    write_table(out, {"theta": thetas, "phi": phis, "F": rows}, config["format"])
    maxima = zeno_directions(bath)
    sidecar = {
        "cos_theta_max": math.cos(maxima.theta),
        "phi1": maxima.mu1.phi,
        "phi2": maxima.mu2.phi,
        "theta": maxima.theta,
    }
    if out is None or os.path.isfile(out):  # not next to /dev/null or a pipe
        write_json(None if out is None else out + ".maxima.json", sidecar)


def cmd_evolve(config: dict, bath: BathParams) -> None:
    v0 = resolve_state(config["state"], bath)
    direction = resolve_direction(config["measure"], bath)
    grid = TimeGrid(config["t_end"], config["n_steps"])

    free = evolve_free(bath, v0, grid)
    measured = evolve_measured(bath, direction, v0, grid)
    table = {
        "t": grid.times,
        # <sigma_mu> lies in [-1, 1]; rounding puts a frozen state's value a few ulp outside.
        "sigma_mu_free": (free @ direction.unit_vector).clip(-1.0, 1.0),
        "sigma_mu_measured": measured,
    }
    write_table(config.get("out"), table, config["format"])


def cmd_zeno(config: dict, bath: BathParams) -> None:
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
    write_json(config.get("out"), report)


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
        COMMANDS[args.command](config, bath_from_config(config))
    except SqueezedZenoError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IOError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK
