"""Independent reference implementations that the tests compare the package against.

None of this is on the package's runtime or import path.
"""

import json

import numpy as np
from scipy.linalg import expm

from squeezed_zeno import (
    BathParams,
    MeasurementSchedule,
    TimeGrid,
    bloch_rates,
    liouvillian,
    step_survival_probability,
    validate_density_matrix,
)
from squeezed_zeno.pauli import IDENTITY, Direction, eigenstates_mu, matrix_to_bloch, pure_state_matrix

# Internal RK4 step as a fraction of the fastest relaxation time 1 / (gamma (2N + 1)).
RK4_STEP_FRACTION = 1e-3


def rk4_free(bath: BathParams, rho0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Bloch vectors on the grid from fixed-step RK4 on d v/dt = A v + c.

    Each grid interval is subdivided so the internal step stays at or
    below RK4_STEP_FRACTION / (gamma (2N + 1)).
    """
    validate_density_matrix(rho0)
    max_step = RK4_STEP_FRACTION / (bath.gamma * (2 * bath.n + 1))
    a, c = bloch_rates(bath)

    def deriv(v):
        return a @ v + c

    times = grid.times
    v = matrix_to_bloch(rho0)
    out = np.empty((len(times), 3))
    out[0] = v
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        n_sub = max(1, int(np.ceil(dt / max_step)))
        h = dt / n_sub
        for _ in range(n_sub):
            k1 = deriv(v)
            k2 = deriv(v + 0.5 * h * k1)
            k3 = deriv(v + 0.5 * h * k2)
            k4 = deriv(v + h * k3)
            v = v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        out[i] = v
    return out


def expm_propagator(bath: BathParams, t: float):
    """Affine propagator v(t) = P v(0) + q from expm of the augmented 4x4 generator."""
    a, c = bloch_rates(bath)
    aug = np.zeros((4, 4))
    aug[:3, :3] = a
    aug[:3, 3] = c
    phi = expm(aug * t)
    return phi[:3, :3], phi[:3, 3]


def measurement_modified_rhs(bath: BathParams, d: Direction, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the monitored master equation.

    P L{rho} P + (1 - P) L{rho} (1 - P) with P the projector onto the
    +1 eigenstate of sigma_mu. The package uses the exact scalar
    reduction instead (evolve_measured).
    """
    plus, _ = eigenstates_mu(d)
    p = pure_state_matrix(plus)
    q = IDENTITY - p
    image = liouvillian(bath, rho)
    return p @ image @ p + q @ image @ q


def per_trajectory_survival(
    bath: BathParams, state, sched: MeasurementSchedule, n_traj: int, seed: int
) -> np.ndarray:
    """Survivor counts a_0..a_count from one uniform draw per trajectory per measurement.

    The direct unravelling of repeated measurement: a trajectory alive
    before step k survives it when its uniform draw from the Philox
    stream keyed by seed falls below the one-step survival probability.
    The package draws the count itself (monte_carlo_survival); both have
    the same law.
    """
    p = step_survival_probability(bath, state, sched.dt)
    rng = np.random.Generator(np.random.Philox(seed))
    alive = np.ones(n_traj, dtype=bool)
    counts = np.empty(sched.count + 1, dtype=np.int64)
    counts[0] = n_traj
    for k in range(1, sched.count + 1):
        alive &= rng.random(n_traj) < p
        counts[k] = alive.sum()
    return counts


def reference_csv(columns, rows) -> str:
    """CSV text with every value formatted on its own by format(float(x), ".17g")."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"


def reference_json(columns, rows) -> str:
    """JSON table {"columns", "rows"} with every value converted by float()."""
    payload = {"columns": list(columns), "rows": [[float(x) for x in row] for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
