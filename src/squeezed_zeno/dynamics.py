"""Time evolution with and without frequent measurements.

Free evolution is the closed-form solution of the affine Bloch system.
Evolution under continuous monitoring of a spin component reduces
exactly to a scalar linear ODE for the measured expectation value,
which is solved in closed form.
"""

from dataclasses import dataclass

import numpy as np

from .bath import BathParams, bloch_rates
from .errors import ParameterError
from .pauli import Direction, bloch_vector


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling grid: n_steps intervals between t_start and t_end."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self):
        if not np.all(np.isfinite([self.t_start, self.t_end])):
            raise ParameterError(
                f"t_start and t_end must be finite, got {self.t_start}, {self.t_end}"
            )
        if self.t_end <= self.t_start:
            raise ParameterError("t_end must exceed t_start")
        if self.n_steps < 1:
            raise ParameterError("n_steps must be >= 1")

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps + 1)


@dataclass(frozen=True)
class TimeSeries:
    """Sampled values on a strictly increasing time axis."""

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        if np.any(np.diff(t) <= 0):
            raise ParameterError("times must be strictly increasing")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", np.asarray(self.values))


def evolve_free(bath: BathParams, v0, grid: TimeGrid) -> TimeSeries:
    """Free evolution of the master equation from the Bloch vector v0.

    Returns a TimeSeries of Bloch vectors sampled on the grid, from the
    closed-form solution (analytic_free).
    """
    v0 = bloch_vector(v0)
    times = grid.times
    return TimeSeries(times, analytic_free(bath, v0, times - times[0]))


def analytic_free(bath: BathParams, v0, t):
    """Closed-form free evolution of a Bloch vector.

    The transverse components decouple into two exponential modes along
    axes rotated by psi/2; the longitudinal component relaxes toward
    -1/(2N+1) at rate gamma(2N+1). Accepts scalar or array t. Rounding can
    put |v| an ulp or two above 1; such rows are rescaled to four ulp inside
    the unit sphere, so that |v| summed in any order stays at most 1.
    """
    v0 = np.asarray(v0, dtype=float)
    t = np.asarray(t, dtype=float)
    g, n, m, psi = bath.gamma, bath.n, bath.m, bath.psi
    c, s = np.cos(psi / 2), np.sin(psi / 2)
    # Mode amplitudes at t=0 (rotation by psi/2 of the xy components).
    u_fast = c * v0[0] - s * v0[1]  # decays at gamma(N + 1/2 + M)
    u_slow = s * v0[0] + c * v0[1]  # decays at gamma(N + 1/2 - M)
    e_fast = np.exp(-g * (n + 0.5 + m) * t) * u_fast
    e_slow = np.exp(-g * (n + 0.5 - m) * t) * u_slow
    ez = np.exp(-g * (2 * n + 1) * t)
    x = c * e_fast + s * e_slow
    y = -s * e_fast + c * e_slow
    z = v0[2] * ez + (ez - 1.0) / (2 * n + 1)
    v = np.stack(np.broadcast_arrays(x, y, z), axis=-1)
    norm_sq = np.einsum("...i,...i->...", v, v)
    over = norm_sq > 1.0
    v[over] /= (np.sqrt(norm_sq[over]) * (1.0 + 4 * np.finfo(float).eps))[..., None]
    return v


def measured_coefficients(bath: BathParams, d: Direction):
    """Drift and relaxation coefficients of the monitored scalar ODE.

    d<sigma_mu>/dt = alpha + beta <sigma_mu> with
    alpha = Tr(L{1} sigma_mu) / 2 = mu . c and
    beta = Tr(L{sigma_mu} sigma_mu) / 2 = mu . A mu,
    projections of the affine Bloch generator (A, c) onto mu.
    """
    a, c = bloch_rates(bath)
    mu = d.unit_vector
    return float(mu @ c), float(mu @ a @ mu)


def evolve_measured(bath: BathParams, d: Direction, v0, grid: TimeGrid):
    """Evolution of <sigma_mu> under continuous monitoring of sigma_mu.

    The monitored dynamics closes on the measured expectation value, so
    the scalar ODE is solved in closed form. If the initial Bloch vector
    v0 carries coherence in the measured eigenbasis it is dephased at t=0
    (the effect of the first measurement); the returned flag reports
    whether that happened. The values are clipped to [-1, 1].

    Returns (TimeSeries of <sigma_mu>, dephased).
    """
    v0 = bloch_vector(v0)
    mu = d.unit_vector
    rho_mu0 = float(mu @ v0)
    # Components of the Bloch vector orthogonal to mu are coherences in
    # the sigma_mu eigenbasis; the first measurement removes them.
    dephased = bool(np.linalg.norm(v0 - rho_mu0 * mu) > 1e-12)

    alpha, beta = measured_coefficients(bath, d)
    times = grid.times
    t = times - times[0]
    if abs(beta) > 1e-14:
        steady = -alpha / beta
        values = steady + (rho_mu0 - steady) * np.exp(beta * t)
    else:
        values = rho_mu0 + alpha * t
    # <sigma_mu> lies in [-1, 1]; rounding puts a frozen state's value a few ulp outside.
    return TimeSeries(times, np.clip(values, -1.0, 1.0)), dephased
