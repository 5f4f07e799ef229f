"""Traced in-process run: spans at the cli -> module boundary and per-layer metrics.

Spans are recorded from the benchmark's own code. For the traced passes,
every function that ``squeezed_zeno.cli`` imports from another package
module, and ``cli.write_table``, is replaced by a wrapper that records a span
(name, start, end, parent, invocation); ``cli.main`` is called inside a span
of its own. Each traced pass has its own Tracer; spans stay in memory and
are written out by the caller.
Set-up comes from ``python -X importtime`` in fresh interpreters.
"""

import contextlib
import functools
import inspect
import math
import statistics
import subprocess
import sys
import time

import numpy as np

LAYERS = ("pauli", "bath", "dynamics", "zeno", "intelligent")
CLI_FUNCTIONS = ("write_table",)
# Spans whose summed duration is reported as <name>.busy_s.
BUSY_SPANS = (
    "dynamics.evolve_free",
    "dynamics.evolve_measured",
    "zeno.monte_carlo_survival",
    "zeno.survival_functional_grid",
    "zeno.repeated_measurement_survival",
    "cli.main",
    "cli.write_table",
)
# Layers whose boundary calls are summed into <layer>.busy_s.
BUSY_LAYERS = ("intelligent", "pauli")
# evolve_free's default internal step, as a fraction of 1 / (gamma (2N + 1)).
RK4_STEP_FRACTION = 1e-3


class Tracer:
    """In-memory span recorder; spans are dicts indexed by their position."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.invocation = None

    def call(self, name, fn, *args, **kwargs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "invocation": self.invocation,
        }
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()


def _traced(tracer, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, *args, **kwargs)

    return wrapper


def boundary_functions(cli) -> dict:
    """cli attribute -> span name, for every function crossing the cli boundary."""
    names = {}
    for attr, obj in vars(cli).items():
        module = getattr(obj, "__module__", "") or ""
        layer = module.rpartition(".")[2]
        if inspect.isfunction(obj) and module.startswith("squeezed_zeno.") and layer in LAYERS:
            names[attr] = f"{layer}.{obj.__name__}"
    for attr in CLI_FUNCTIONS:
        if inspect.isfunction(getattr(cli, attr, None)):
            names[attr] = f"cli.{attr}"
    return names


@contextlib.contextmanager
def instrumented(cli, tracer):
    """Swap the boundary functions of cli for traced wrappers, restoring them on exit."""
    names = boundary_functions(cli)
    originals = {attr: getattr(cli, attr) for attr in names}
    try:
        for attr, span_name in names.items():
            setattr(cli, attr, _traced(tracer, span_name, originals[attr]))
        yield
    finally:
        for attr, fn in originals.items():
            setattr(cli, attr, fn)


def _duration(span) -> float:
    return span["end"] - span["start"]


def _layer(span) -> str:
    return span["name"].partition(".")[0]


def containment_problems(spans) -> list:
    """Spans that do not lie inside their parent and their invocation's cli.main span."""
    problems = []
    for i, span in enumerate(spans):
        root = span
        while root["parent"] is not None:
            parent = spans[root["parent"]]
            if not (parent["start"] <= root["start"] <= root["end"] <= parent["end"]):
                problems.append(f"span {i} {span['name']}: child outside parent {parent['name']}")
            root = parent
        if (
            root["name"] != "cli.main"
            or root["invocation"] != span["invocation"]
            or not root["start"] <= span["start"] <= span["end"] <= root["end"]
        ):
            problems.append(f"span {i} {span['name']}: not inside its cli.main span")
    return problems


def span_metrics(spans) -> dict:
    """Busy and self times from one traced pass."""
    busy = {name: 0.0 for name in BUSY_SPANS}
    layer_busy = {layer: 0.0 for layer in BUSY_LAYERS}
    cli_self = 0.0
    for span in spans:
        if span["name"] in busy:
            busy[span["name"]] += _duration(span)
        parent = spans[span["parent"]] if span["parent"] is not None else None
        if _layer(span) in layer_busy and (parent is None or _layer(parent) != _layer(span)):
            layer_busy[_layer(span)] += _duration(span)
        if span["name"] == "cli.main":
            cli_self += _duration(span)
        elif parent is not None and parent["name"] == "cli.main":
            cli_self -= _duration(span)
    metrics = {f"{name}.busy_s": value for name, value in busy.items()}
    metrics.update({f"{layer}.busy_s": value for layer, value in layer_busy.items()})
    metrics["cli.self_s"] = cli_self
    return metrics


def computed_counts(invocations, stats) -> dict:
    """Work counts that follow from the configs and the checked outputs."""
    rk4_steps = samples = cells = draws = useful = rows = nbytes = 0
    for inv in invocations:
        cfg, st = inv.config, stats.get(inv.index, {})
        if inv.command == "evolve":
            max_step = RK4_STEP_FRACTION / (cfg.get("gamma", 1.0) * (2 * cfg["N"] + 1))
            dts = np.diff(np.linspace(0.0, cfg["t_end"], cfg["n_steps"] + 1))
            rk4_steps += int(np.sum(np.maximum(1, np.ceil(dts / max_step))))
            samples += cfg["n_steps"]
        if inv.command == "surface":
            cells += cfg["n_theta"] * cfg["n_phi"]
        draws += st.get("draws", 0)
        useful += st.get("useful_draws", 0.0)
        rows += st.get("rows", 0)
        nbytes += st.get("bytes", 0)
    return {
        "dynamics.evolve_free.rk4_steps": rk4_steps,
        "dynamics.evolve_free.steps_per_sample": rk4_steps / samples if samples else 0.0,
        "zeno.survival_functional_grid.cells": cells,
        "zeno.monte_carlo_survival.draws": draws,
        "zeno.monte_carlo_survival.useful_draw_ratio": useful / draws if draws else 0.0,
        "cli.write_table.rows": rows,
        "cli.write_table.bytes": nbytes,
    }


# Top-level import name (or "total") -> setup metric.
IMPORT_METRICS = {
    "total": "setup.import_total_s",
    "scipy": "setup.import_scipy_s",
    "numpy": "setup.import_numpy_s",
    "squeezed_zeno": "setup.import_pkg_self_s",
}


def import_breakdown(env, repeats: int) -> dict:
    """Median summed self import time of everything, scipy, numpy and the package."""
    samples = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import squeezed_zeno.cli"],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        totals = dict.fromkeys(IMPORT_METRICS, 0)
        for line in proc.stderr.splitlines():
            fields = line.removeprefix("import time:").split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue
            self_us, top = int(fields[0]), fields[2].strip().partition(".")[0]
            totals["total"] += self_us
            if top in totals:
                totals[top] += self_us
        samples.append(totals)
    return {
        metric: statistics.median(s[key] for s in samples) * 1e-6
        for key, metric in IMPORT_METRICS.items()
    }


def bloch_rates_per_call(invocations, calls: int, repeats: int) -> float:
    """Mean over the workload's baths of the median time of one bath.bloch_rates call."""
    from squeezed_zeno import BathParams, bloch_rates

    per_bath = []
    for inv in invocations:
        cfg = inv.config
        bath = BathParams.maximal(cfg.get("gamma", 1.0), cfg["N"], cfg["psi"])
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                bloch_rates(bath)
            times.append((time.perf_counter() - t0) / calls)
        per_bath.append(statistics.median(times))
    return math.fsum(per_bath) / len(per_bath)
