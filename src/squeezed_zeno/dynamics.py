"""Bloch vectors and their evolution with and without frequent measurements.

Checked Bloch vectors (of a pure state or a density matrix) and free evolution, which
relaxes each mode of the affine Bloch system; continuous monitoring of a spin component
along a bath.Direction leaves one relaxing expectation value: one law (relax) serves both.
bloch_rates gives that system's generator (A, c) as arrays.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .bath import BathParams, Direction, generator_terms, state_bloch, to_mode_frame
from .errors import InvalidStateError, ParameterError

HERMITICITY_TOL = 1e-12
BLOCH_NORM_TOL = 1e-9


def bloch_vector(v) -> np.ndarray:
    """v as a float array of shape (3,): finite, real, with |v| <= 1 + BLOCH_NORM_TOL."""
    v = np.asarray(v)
    if v.shape != (3,) or v.dtype.kind not in "iuf":
        raise InvalidStateError(f"a Bloch vector is three real numbers, got {v!r}")
    v = v.astype(float)
    if not np.all(np.isfinite(v)):
        raise InvalidStateError(f"Bloch vector {v} is not finite")
    norm = np.linalg.norm(v)
    if norm > 1.0 + BLOCH_NORM_TOL:
        raise InvalidStateError(f"Bloch vector norm {norm} exceeds 1")
    return v


def matrix_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector (Tr rho sigma_x, Tr rho sigma_y, Tr rho sigma_z) of a density matrix.

    The traces are the real parts of rho01 + rho10, i(rho01 - rho10) and rho00 - rho11.
    rho must be 2x2, Hermitian within HERMITICITY_TOL and of unit trace, and its
    Bloch vector must pass bloch_vector, whose |v| <= 1 is rho's positivity;
    else InvalidStateError.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise InvalidStateError(f"a density matrix is 2x2, got shape {rho.shape}")
    if np.max(np.abs(rho - rho.conj().T)) > HERMITICITY_TOL:
        raise InvalidStateError(f"density matrix {rho.tolist()} is not Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise InvalidStateError(f"density matrix trace {np.trace(rho)} != 1")
    (r00, r01), (r10, r11) = rho
    return bloch_vector([(r01 + r10).real, (1j * (r01 - r10)).real, (r00 - r11).real])


def pure_state_matrix(state) -> np.ndarray:
    """Projector |state><state| for a normalized two-component state."""
    state_bloch(state)  # the check of two amplitudes and their norm
    state = np.asarray(state, dtype=complex)
    return np.outer(state, state.conj())


def pure_state_bloch(state) -> np.ndarray:
    """Bloch vector of the pure state a|+> + b|-> as an array (bath.state_bloch)."""
    return np.array(state_bloch(state))


def checked_integer(name: str, value, low: int, high: float = np.inf) -> int:
    """value as an int in [low, high]: an int or a numpy integer, not a bool; else ParameterError."""
    if isinstance(value, (bool, np.bool_)) or not hasattr(value, "__index__"):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    number = operator.index(value)
    if not low <= number <= high:
        bound = f">= {low}" if number < low else f"<= {high}, got {number}"
        raise ParameterError(f"{name} must be {bound}")
    return number


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
        checked_integer("n_steps", self.n_steps, 1)
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


def relax(x0, rate, t, drift=0.0):
    """x0 e^{-rate t} + (drift / rate)(1 - e^{-rate t}), the solution of dx/dt = drift - rate x.

    For rate >= 0 and t >= 0, scalar or array: exactly x0 at t = 0, x0 e^{-rate t} + drift t
    where rate t is below the smallest normal float (so x0 + drift t at rate 0), and
    drift / rate (with no warning) at rate inf or where the exponent overflows to -inf.
    """
    if rate == np.inf:
        return np.where(t > 0, drift / rate, x0)
    with np.errstate(over="ignore"):
        exponent = -rate * t
        # In place, to allocate one array of t's size fewer; a scalar is rebound.
        value = np.exp(exponent)
        value *= x0
        if drift != 0.0:
            # There -rate t is 0 or subnormal, and expm1 of it drops (some of) drift t.
            flat = exponent > -np.finfo(float).tiny
            if np.all(flat):
                return value + drift * t
            # Not expm1 * drift / rate, which loses precision at a subnormal gamma, unless
            # rate / drift underflows to 0 (drift / rate is then past the float range).
            ratio = rate / drift
            decay = np.expm1(exponent) / ratio if ratio else np.expm1(exponent) / rate * drift
            if np.any(flat):
                # Only an array of t gets here with flat entries, such as t = 0.
                np.multiply(t, -drift, out=decay, where=flat)
            value -= decay
    return value


def analytic_free(bath: BathParams, v0, t):
    """Closed-form free evolution of a Bloch vector, at scalar or array t.

    In the mode frame each component relaxes at its rate (bath.rates), z toward
    -1/(2N+1). Rows that rounding puts an ulp or two outside the unit sphere are
    rescaled to four ulp inside it, so that |v| summed in any order stays at most 1.
    """
    v0 = np.asarray(v0, dtype=float)
    t = np.asarray(t, dtype=float)
    fast, slow, rate_z = bath.rates
    u_fast, u_slow = to_mode_frame(bath.psi, v0[0], v0[1])
    x, y = to_mode_frame(-bath.psi, relax(u_fast, fast, t), relax(u_slow, slow, t))
    z = relax(v0[2], rate_z, t, -bath.gamma)
    v = np.stack((x, y, z), axis=-1)
    norm_sq = np.einsum("...i,...i->...", v, v)
    over = norm_sq > 1.0
    v[over] /= (np.sqrt(norm_sq[over]) * (1.0 + 4 * np.finfo(float).eps))[..., None]
    return v


def bloch_rates(bath: BathParams):
    """Affine Bloch equations d(rho_vec)/dt = A rho_vec + c in the lab frame.

    A[k, j] = Tr(L{sigma_j} sigma_k) / 2 and c[k] = Tr(L{1} sigma_k) / 2: A is
    diag(-fast, -slow, -z) in the mode frame (generator_terms) and c = (0, 0, -gamma).
    """
    fast, slow, z = bath.rates
    # The transverse block is -fast r r^T - slow q q^T for the mode axes r, q in the lab frame.
    r, q = to_mode_frame(bath.psi, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    a = np.diag([0.0, 0.0, -z])
    a[:2, :2] = -fast * np.outer(r, r) - slow * np.outer(q, q)
    return a, np.array([0.0, 0.0, -bath.gamma])


def evolve_measured(bath: BathParams, d: Direction, v0, grid: TimeGrid) -> np.ndarray:
    """Evolution of <sigma_mu> under continuous monitoring of sigma_mu.

    The monitored dynamics closes on the measured expectation value:
    d<sigma_mu>/dt = alpha + beta <sigma_mu> with
    alpha = Tr(L{1} sigma_mu) / 2 = mu . c and
    beta = Tr(L{sigma_mu} sigma_mu) / 2 = mu . A mu,
    projections of the affine Bloch generator (A, c) onto mu, and this scalar ODE
    is solved in closed form (relax). The first measurement removes the components
    of the initial Bloch vector v0 orthogonal to mu (the coherences in the sigma_mu
    eigenbasis), so only mu . v0 enters.

    Returns <sigma_mu> at grid.times, shape (n_steps + 1,), clipped to [-1, 1].
    """
    rho_mu0 = float(d.unit_vector @ bloch_vector(v0))
    *beta_terms, alpha = generator_terms(bath, d.unit_vector)
    beta = float(sum(beta_terms))
    # <sigma_mu> lies in [-1, 1]; rounding puts a frozen state's value a few ulp outside.
    return np.clip(relax(rho_mu0, -beta, grid.times, float(alpha)), -1.0, 1.0)
