"""Output checks for each CLI subcommand, against a reference kept in this file.

The reference is written from the paper's closed forms with numpy only, so
that it shares no code with the package it checks. Every check returns a
list of problems (empty when the output is correct) and the counts the
benchmark reports for that output.
"""

import hashlib
import json
import math
from pathlib import Path

import numpy as np

# Acceptance criterion 3: analytic and numeric free evolution agree to 1e-8.
EVOLVE_TOL = 1e-8
# Exact per-cell and per-report quantities.
EXACT_TOL = 1e-12
# Reference F is recomputed independently; allow for summation order.
SURFACE_REF_TOL = 1e-10
# Per-point false-alarm probability of the Monte Carlo bound. A run compares
# at most ~10^4 points, so a correct program fails a run with probability
# below 1e-6 by the union bound.
MC_POINT_ALPHA = 1e-10


class Reference:
    """Closed-form Bloch dynamics of the maximally squeezed bath (hbar = gamma = 1 units)."""

    def __init__(self, config: dict):
        self.gamma = float(config.get("gamma", 1.0))
        self.n = float(config["N"])
        self.m = math.sqrt(self.n * (self.n + 1.0))
        self.psi = float(config["psi"]) % (2.0 * math.pi)
        g, n, m, psi = self.gamma, self.n, self.m, self.psi
        # dv/dt = A v + c; A is symmetric, so exp(A t) comes from eigh.
        self.a = np.array(
            [
                [-g * (n + 0.5) - g * m * math.cos(psi), g * m * math.sin(psi), 0.0],
                [g * m * math.sin(psi), -g * (n + 0.5) + g * m * math.cos(psi), 0.0],
                [0.0, 0.0, -g * (2.0 * n + 1.0)],
            ]
        )
        self.c = np.array([0.0, 0.0, -g])
        self._eigvals, self._eigvecs = np.linalg.eigh(self.a)
        self.v_inf = -np.linalg.solve(self.a, self.c)

    def free(self, v0, times) -> np.ndarray:
        """Bloch vectors v(t) of free evolution, shape (len(times), 3)."""
        coeff = self._eigvecs.T @ (np.asarray(v0, dtype=float) - self.v_inf)
        modes = np.exp(np.outer(times, self._eigvals)) * coeff
        return self.v_inf + modes @ self._eigvecs.T

    def zeno_angles(self):
        """(theta, phi1, phi2) of the two frozen directions."""
        theta = math.acos(-1.0 / (2.0 * (self.n + self.m + 0.5)))
        phi1 = (math.pi - self.psi) / 2.0
        return theta, phi1, phi1 + math.pi

    def mu1(self) -> np.ndarray:
        theta, phi1, _ = self.zeno_angles()
        return unit(theta, phi1)

    def bloch_of_state(self, name: str) -> np.ndarray:
        # zeno-plus is the +1 eigenstate of sigma along mu1.
        return {"excited": np.array([0.0, 0.0, 1.0]), "zeno-plus": self.mu1()}[name]

    def step_survival(self, v0, dt: float) -> float:
        v_dt = self.free(v0, np.array([dt]))[0]
        return 0.5 * (1.0 + float(v0 @ v_dt))

    def functional(self, mu: np.ndarray) -> np.ndarray:
        """Survival functional F = mu . (A mu + c) / 2 for unit vectors mu[..., 3]."""
        return 0.5 * (np.einsum("...k,kl,...l->...", mu, self.a, mu) + mu @ self.c)


def unit(theta, phi):
    st = np.sin(theta)
    return np.stack(np.broadcast_arrays(np.cos(phi) * st, np.sin(phi) * st, np.cos(theta)), axis=-1)


def read_table(path: Path, fmt: str):
    """(columns, rows as float array) from a CSV or JSON table written by the CLI."""
    text = path.read_text(encoding="utf-8")
    if fmt == "json":
        payload = json.loads(text)
        columns = payload["columns"]
        rows = np.array(payload["rows"], dtype=float).reshape(-1, len(columns))
        return columns, rows
    header, _, body = text.partition("\n")
    columns = header.split(",")
    values = body.replace("\n", ",").rstrip(",").split(",") if body else []
    rows = np.array(values, dtype=float).reshape(-1, len(columns))
    return columns, rows


def _within(name, got, want, tol, problems):
    err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)), initial=0.0))
    if not err <= tol:
        problems.append(f"{name}: max deviation {err:.3g} exceeds {tol:.3g}")


def _expect_columns(columns, want, problems) -> bool:
    if columns != want:
        problems.append(f"columns {columns} != {want}")
        return False
    return True


def check_evolve(config, out: Path):
    ref, problems = Reference(config), []
    columns, rows = read_table(out, config.get("format", "csv"))
    stats = {"rows": len(rows), "bytes": out.stat().st_size}
    if not _expect_columns(columns, ["t", "sigma_mu_free", "sigma_mu_measured"], problems):
        return problems, stats
    n_steps = int(config["n_steps"])
    times = np.linspace(0.0, float(config["t_end"]), n_steps + 1)
    if len(rows) != n_steps + 1:
        return problems + [f"{len(rows)} rows, expected {n_steps + 1}"], stats
    mu = ref.mu1()
    v0 = ref.bloch_of_state(config["state"])
    _within("t", rows[:, 0], times, EXACT_TOL, problems)
    _within("sigma_mu_free", rows[:, 1], ref.free(v0, times) @ mu, EVOLVE_TOL, problems)
    # Monitored along mu: d<s>/dt = mu.c + (mu.A.mu) <s>, solved in closed form.
    alpha, beta, r0 = float(mu @ ref.c), float(mu @ ref.a @ mu), float(mu @ v0)
    steady = -alpha / beta
    measured = steady + (r0 - steady) * np.exp(beta * times)
    _within("sigma_mu_measured", rows[:, 2], measured, EVOLVE_TOL, problems)
    return problems, stats


def check_surface(config, out: Path):
    ref, problems = Reference(config), []
    columns, rows = read_table(out, config.get("format", "csv"))
    stats = {"rows": len(rows), "bytes": out.stat().st_size}
    if not _expect_columns(columns, ["theta", "phi", "F"], problems):
        return problems, stats
    n_theta, n_phi = int(config["n_theta"]), int(config["n_phi"])
    if len(rows) != n_theta * n_phi:
        return problems + [f"{len(rows)} rows, expected {n_theta * n_phi}"], stats
    thetas = np.repeat(np.linspace(0.0, np.pi, n_theta), n_phi)
    phis = np.tile(np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False), n_theta)
    _within("theta", rows[:, 0], thetas, EXACT_TOL, problems)
    _within("phi", rows[:, 1], phis, EXACT_TOL, problems)
    f = rows[:, 2]
    if not np.all(f <= EXACT_TOL):
        problems.append(f"F > {EXACT_TOL:g} on {int(np.sum(~(f <= EXACT_TOL)))} cells")
    _within("F", f, ref.functional(unit(thetas, phis)), SURFACE_REF_TOL, problems)
    sidecar = json.loads(Path(str(out) + ".maxima.json").read_text(encoding="utf-8"))
    theta, phi1, phi2 = ref.zeno_angles()
    _within("sidecar theta", sidecar["theta"], theta, EXACT_TOL, problems)
    _within("sidecar cos_theta_max", sidecar["cos_theta_max"], math.cos(theta), EXACT_TOL, problems)
    _within("sidecar phi1", sidecar["phi1"], phi1 % (2 * math.pi), EXACT_TOL, problems)
    _within("sidecar phi2", sidecar["phi2"], phi2 % (2 * math.pi), EXACT_TOL, problems)
    return problems, stats


def mc_tolerance(p_exact: np.ndarray, n_traj: int) -> np.ndarray:
    """Bernstein bound on |P_mc - P_exact| at false-alarm probability MC_POINT_ALPHA."""
    u = math.log(2.0 / MC_POINT_ALPHA)
    var = np.clip(p_exact * (1.0 - p_exact), 0.0, None)
    return np.sqrt(2.0 * var * u / n_traj) + 2.0 * u / (3.0 * n_traj)


def check_zeno(config, out: Path):
    ref, problems = Reference(config), []
    columns, rows = read_table(out, config.get("format", "csv"))
    stats = {"rows": len(rows), "bytes": out.stat().st_size}
    n_traj = int(config.get("n_traj", 0))
    want = ["t", "P_exact", "P_first_order", "P_second_order"]
    if n_traj > 0:
        want += ["P_mc", "P_mc_stderr"]
    if not _expect_columns(columns, want, problems):
        return problems, stats
    count, dt = int(config["count"]), float(config["dt"])
    if len(rows) != count + 1:
        return problems + [f"{len(rows)} rows, expected {count + 1}"], stats
    k = np.arange(count + 1)
    _within("t", rows[:, 0], k * dt, EXACT_TOL, problems)
    p_exact = rows[:, 1]
    p = ref.step_survival(ref.bloch_of_state(config["state"]), dt)
    _within("one-step survival", p_exact[1], p, EXACT_TOL, problems)
    _within("P_exact vs p^k", p_exact / p_exact[1] ** k.astype(float), 1.0, EXACT_TOL, problems)
    if not np.all(np.diff(p_exact) <= 0.0):
        problems.append("P_exact increases")
    if n_traj > 0:
        p_mc = rows[:, 4]
        if p_mc[0] != 1.0:
            problems.append(f"P_mc[0] = {p_mc[0]!r}, expected 1")
        dev = np.abs(p_mc - p_exact) - mc_tolerance(p_exact, n_traj)
        if not np.all(dev <= 0.0):
            problems.append(f"P_mc leaves its bound around P_exact at {int(np.sum(~(dev <= 0)))} steps")
        stats["draws"] = n_traj * count
        # Draws spent on trajectories still alive before each step.
        stats["useful_draws"] = n_traj * float(np.sum(p_mc[:-1]))
    return problems, stats


def check_intelligent(config, out: Path):
    ref, problems = Reference(config), []
    report = json.loads(out.read_text(encoding="utf-8"))
    for branch in ("plus", "minus"):
        gap = report["uncertainty"][branch]["saturation_gap"]
        _within(f"{branch} saturation gap", gap, 0.0, EXACT_TOL, problems)
    _within("factorization residual", report["factorization_residual"], 0.0, EXACT_TOL, problems)
    lam = complex(*report["lambda_plus"])
    want = 1j * math.sqrt(ref.m) * complex(math.cos(ref.psi / 2), math.sin(ref.psi / 2))
    _within("lambda_plus", abs(lam - want), 0.0, SURFACE_REF_TOL, problems)
    return problems, {}


CHECKS = {
    "evolve": check_evolve,
    "surface": check_surface,
    "zeno": check_zeno,
    "intelligent": check_intelligent,
}


def check(invocation, out: Path):
    """(problems, stats) for one invocation's output file; a parse error is a problem."""
    try:
        return CHECKS[invocation.command](invocation.config, out)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], {}


class Verifier:
    """Checks each invocation's output once and holds later repeats to the same bytes."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self._first = {}  # invocation index -> (digest, problems)
        self.stats = {}  # invocation index -> stats of its first output

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, invocation, out: Path, error: str | None = None) -> None:
        """Count one attempt; error is set when the invocation itself failed."""
        self.attempted += 1
        problems = [error] if error else self._verify(invocation, out)
        if problems:
            self.failures.append({"invocation": invocation.index, "problems": problems})

    def _verify(self, invocation, out: Path) -> list:
        try:
            digest = _digest(out)
        except OSError as exc:
            return [f"no output: {exc}"]
        first = self._first.get(invocation.index)
        if first is None:
            problems, self.stats[invocation.index] = check(invocation, out)
            self._first[invocation.index] = (digest, problems)
            return problems
        if digest != first[0]:
            return ["output bytes differ from the first repeat of this config"]
        return first[1]


def _digest(out: Path) -> str:
    h = hashlib.sha256(out.read_bytes())
    sidecar = Path(str(out) + ".maxima.json")
    if sidecar.exists():
        h.update(sidecar.read_bytes())
    return h.hexdigest()
