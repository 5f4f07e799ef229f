"""Survival probabilities under repeated measurement and the frozen states.

Covers the first- and second-order survival rates under the master
equation, the survival functional over measurement directions, its two
maxima (the bath-determined "preferential" directions), the corresponding
frozen states, and exact / Monte Carlo repeated-measurement survival curves.
"""

from dataclasses import dataclass

import numpy as np

from .bath import BathParams, generator_terms
from .dynamics import analytic_free
from .errors import ParameterError
from .pauli import Direction, pure_state_bloch

FIRST_ORDER_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSchedule:
    """dt between consecutive measurements, count measurements in total."""

    dt: float
    count: int

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        if self.count < 1:
            raise ParameterError("count must be >= 1")
        if not np.isfinite(self.dt * self.count):
            raise ParameterError(
                f"the last measurement time dt * count = {self.dt} * {self.count} is not finite"
            )

    @property
    def times(self) -> np.ndarray:
        """The measurement times k dt, k = 0 .. count (t = 0 is the preparation)."""
        return np.arange(self.count + 1) * self.dt


@dataclass(frozen=True)
class ZenoDirections:
    """The two maxima of the survival functional; their +1 eigenstates freeze only at maximal M."""

    mu1: Direction
    mu2: Direction
    theta: float


def _first_order_rate(bath: BathParams, v: np.ndarray) -> float:
    """Survival rate 0.5 v . (A v + c) of the pure state with Bloch vector v.

    This is <a| L{|a><a|} |a>, since L{|a><a|} = (A v + c) . sigma / 2.
    For a frozen state rounding can leave it a few ulp above 0, which would
    make exp(rate t) exceed 1, so it is clipped at 0.
    """
    return min(0.5 * float(sum(generator_terms(bath, v))), 0.0)


def survival_rate(bath: BathParams, state) -> float:
    """First-order survival rate <a| L{|a><a|} |a> (real, <= 0)."""
    return _first_order_rate(bath, pure_state_bloch(state))


def survival_functional_F(bath: BathParams, d: Direction) -> float:
    """Survival rate of the +1 eigenstate of sigma . mu_hat along d, as a function of angles.

    That eigenstate has Bloch vector mu, so F = mu . (A mu + c) / 2 (<= 0).
    """
    return _first_order_rate(bath, d.unit_vector)


def survival_functional_grid(bath: BathParams, n_theta: int = 256, n_phi: int = 256):
    """Evaluate the survival functional on an (n_theta x n_phi) angle grid.

    2F = sin^2(theta) q(phi) + l(cos theta) with q and l the transverse and
    longitudinal terms (generator_terms); F is clipped at 0 as in survival_functional_F.

    Returns (theta axis, phi axis, F values of shape (n_theta, n_phi)).
    """
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    t_fast, t_slow, _, _ = generator_terms(bath, (np.cos(phis), np.sin(phis), 0.0))
    _, _, t_z, t_c = generator_terms(bath, (0.0, 0.0, np.cos(thetas)))
    f = np.multiply.outer(np.sin(thetas) ** 2, t_fast + t_slow)
    f += (t_z + t_c)[:, None]
    f *= 0.5
    np.minimum(f, 0.0, out=f)
    return thetas, phis, f


def zeno_directions(bath: BathParams) -> ZenoDirections:
    """Closed-form maxima of the survival functional.

    phi_1 = (pi - psi)/2 and phi_2 = phi_1 + pi lie on the slow mode axis, and the
    common polar angle has cos(theta) = -gamma / (2 fast) = -1 / (2(N + 1/2 + M)), taken in
    the last form, which a subnormal gamma cannot round outside [-1, 1].
    For every M, F there is -gamma delta / (2(N + 1/2 + M)) with delta = N(N+1) - M^2: it
    vanishes (the state freezes) only at maximal squeezing. For N -> 0 both tend to -z.
    """
    theta = float(np.arccos(-0.5 / (bath.n + 0.5 + bath.m)))
    phi1 = (np.pi - bath.psi) / 2.0
    return ZenoDirections(
        mu1=Direction(theta, phi1),
        mu2=Direction(theta, phi1 + np.pi),
        theta=theta,
    )


def zeno_states(bath: BathParams):
    """The two frozen states, written in the energy eigenbasis.

    |z1> = sqrt(N/(N+M)) |+> + i sqrt(M/(N+M)) e^{-i psi/2} |->
    |z2> = sqrt(N/(N+M)) |+> - i sqrt(M/(N+M)) e^{-i psi/2} |->

    At maximal squeezing they are the +1 eigenstates of the spin components
    along the two preferential directions.
    """
    n, m, psi = bath.n, bath.m, bath.psi
    if n + m <= 0:
        raise ParameterError("frozen states require n > 0 (else they degenerate)")
    up = np.sqrt(n / (n + m))
    down = np.sqrt(m / (n + m)) * np.exp(-1j * psi / 2)
    z1 = np.array([up, 1j * down])
    z2 = np.array([up, -1j * down])
    return z1, z2


def step_survival_probability(bath: BathParams, state, dt: float) -> float:
    """Probability that one measurement after time dt returns the initial state.

    The projector is evolved exactly for dt under the free master
    equation (closed-form affine Bloch propagator, analytic_free) and
    the overlap with the initial state is read off. Rounding can put
    0.5 (1 + v0 . v_dt) an ulp or two above 1 for a nearly frozen
    state, so the result is clipped to [0, 1].
    """
    v0 = pure_state_bloch(state)
    v_dt = analytic_free(bath, v0, dt)
    return float(np.clip(0.5 * (1.0 + v0 @ v_dt), 0.0, 1.0))


def repeated_measurement_survival(
    bath: BathParams, state, sched: MeasurementSchedule
) -> np.ndarray:
    """Exact survival curve for a sequence of projective measurements.

    Each surviving measurement resets the system to the initial pure
    state, so the curve is p^k at t = k dt with p the one-step survival
    probability. Computed exactly at any dt, it reduces to the
    first-order exponential law as dt -> 0 and exposes the second-order
    law when the first-order rate vanishes.

    Returns the survival probabilities at sched.times, shape (count + 1,).
    """
    p = step_survival_probability(bath, state, sched.dt)
    return p ** np.arange(sched.count + 1.0)


def second_order_rate(bath: BathParams, state, dt: float) -> float:
    """Second-order survival rate <a| L{L{|a><a|}} |a> dt / 2.

    Only valid when the first-order rate vanishes: within FIRST_ORDER_ZERO_TOL of
    the size of its terms, plus 16 z eps^2 since float amplitudes put a frozen
    state about eps off the exact one, where the rate has curvature at most z;
    else ParameterError. A rate that passes without being 0 (-1e-14 gamma for the
    ground state at N = 1e-14) can make the value positive, so it is clipped at
    0. It is -inf where gamma^2 dt overflows.
    """
    terms = generator_terms(bath, pure_state_bloch(state))
    fast, slow, rate_z = bath.rates
    first = 0.5 * float(sum(terms))
    tolerance = FIRST_ORDER_ZERO_TOL * 0.5 * float(sum(map(abs, terms)))
    tolerance += 16 * rate_z * np.finfo(float).eps ** 2
    if abs(first) > tolerance:
        raise ParameterError(f"first-order rate {first} does not vanish; second-order law invalid")
    # <a| L{L{|a><a|}} |a> = v . A (A v + c) / 2, and with A diagonal in the mode frame
    # v . A (A v + c) is each term times minus its mode's rate.
    value = -0.5 * float(fast * terms[0] + slow * terms[1] + rate_z * (terms[2] + terms[3]))
    return 0.5 * min(value, 0.0) * dt


def monte_carlo_survival(
    bath: BathParams,
    state,
    sched: MeasurementSchedule,
    n_traj: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Stochastic estimate of the repeated-measurement survival curve.

    Each trajectory alive before measurement k survives it on its own
    with probability p, so the number alive after step k is
    Binomial(alive before, p). Step k consumes one binomial draw from a
    counter-based Philox generator keyed by the seed, so the cost does
    not depend on n_traj and reruns with a fixed seed are bit-identical.
    Returns (survival fractions, binomial standard errors) at sched.times,
    each of shape (count + 1,).
    """
    if n_traj < 1:
        raise ParameterError("n_traj must be >= 1")
    p = step_survival_probability(bath, state, sched.dt)
    rng = np.random.Generator(np.random.Philox(seed))
    alive = np.empty(sched.count + 1, dtype=np.int64)
    alive[0] = n_traj
    for k in range(1, sched.count + 1):
        alive[k] = rng.binomial(alive[k - 1], p)
    fractions = alive / n_traj
    return fractions, np.sqrt(fractions * (1.0 - fractions) / n_traj)
