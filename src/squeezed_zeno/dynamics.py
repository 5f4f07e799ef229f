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
    """Uniform sampling grid: n_steps intervals of t_end / n_steps from 0 to t_end.

    The step must be at least the smallest normal float, so that the times are
    strictly increasing.
    """

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not np.isfinite(self.t_end) or self.t_end <= 0:
            raise ParameterError(f"t_end must be positive and finite, got {self.t_end}")
        if self.n_steps < 1:
            raise ParameterError("n_steps must be >= 1")
        if self.t_end / self.n_steps < np.finfo(float).tiny:
            raise ParameterError(
                f"the step t_end / n_steps = {self.t_end} / {self.n_steps} is below the "
                "smallest normal float, so the times would not be strictly increasing"
            )

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)


def evolve_free(bath: BathParams, v0, grid: TimeGrid) -> np.ndarray:
    """Free evolution of the master equation from the Bloch vector v0.

    Returns the Bloch vectors at grid.times, shape (n_steps + 1, 3), from the
    closed-form solution (analytic_free).
    """
    return analytic_free(bath, bloch_vector(v0), grid.times)


def analytic_free(bath: BathParams, v0, t):
    """Closed-form free evolution of a Bloch vector.

    The transverse components decouple into two exponential modes along
    axes rotated by psi/2; the longitudinal component relaxes toward
    -1/(2N+1) at rate gamma(2N+1). Accepts scalar or array t; at a t so large
    that an exponent overflows to -inf, its mode has decayed to 0. Rounding can
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
    with np.errstate(over="ignore"):
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


def evolve_measured(bath: BathParams, d: Direction, v0, grid: TimeGrid) -> np.ndarray:
    """Evolution of <sigma_mu> under continuous monitoring of sigma_mu.

    The monitored dynamics closes on the measured expectation value, so
    the scalar ODE is solved in closed form. The first measurement removes
    the components of the initial Bloch vector v0 orthogonal to mu (the
    coherences in the sigma_mu eigenbasis), so only mu . v0 enters.

    Returns <sigma_mu> at grid.times, shape (n_steps + 1,), clipped to [-1, 1].
    """
    rho_mu0 = float(d.unit_vector @ bloch_vector(v0))
    alpha, beta = measured_coefficients(bath, d)
    t = grid.times
    # An exponent overflowing to -inf at a huge t is the decayed limit.
    with np.errstate(over="ignore"):
        if abs(beta) > 1e-14:
            steady = -alpha / beta
            values = steady + (rho_mu0 - steady) * np.exp(beta * t)
        else:
            values = rho_mu0 + alpha * t
    # <sigma_mu> lies in [-1, 1]; rounding puts a frozen state's value a few ulp outside.
    return np.clip(values, -1.0, 1.0)
