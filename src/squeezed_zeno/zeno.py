"""Survival probabilities under repeated measurement.

Covers the first- and second-order survival rates under the master
equation and exact / Monte Carlo repeated-measurement survival curves. The
survival functional at a direction d is F = mu_hat . (A mu_hat + c) / 2 (<= 0), the
survival rate of the +1 eigenstate of sigma . mu_hat, whose Bloch vector is mu_hat;
its grid is bath.survival_functional_rows, its two maxima (the bath-determined
"preferential" directions) bath.zeno_directions and its frozen states bath.zeno_states.
"""

from dataclasses import dataclass

import numpy as np

from .bath import BathParams, generator_terms, state_bloch
from .dynamics import checked_integer, relax
from .errors import ParameterError

FIRST_ORDER_ZERO_TOL = 1e-10


@dataclass(frozen=True)
class MeasurementSchedule:
    """dt between consecutive measurements, count measurements in total."""

    dt: float
    count: int

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        checked_integer("count", self.count, 1)
        if not np.isfinite(self.dt * self.count):
            raise ParameterError(
                f"the last measurement time dt * count = {self.dt} * {self.count} is not finite"
            )

    @property
    def times(self) -> np.ndarray:
        """The measurement times k dt, k = 0 .. count (t = 0 is the preparation)."""
        return np.arange(self.count + 1) * self.dt


def survival_rate(bath: BathParams, state) -> float:
    """First-order survival rate <a| L{|a><a|} |a> (real, <= 0).

    With v the Bloch vector of |a>, L{|a><a|} = (A v + c) . sigma / 2, so the rate is
    0.5 v . (A v + c). For a frozen state rounding can leave it a few ulp above 0,
    which would make exp(rate t) exceed 1, so it is clipped at 0.
    """
    return min(0.5 * float(sum(generator_terms(bath, state_bloch(state)))), 0.0)


def step_survival_probability(bath: BathParams, state, dt: float) -> float:
    """Probability that one measurement after time dt returns the initial state.

    Each generator term T relaxes at its mode's rate r (z for the last two), so the loss
    1 - p = -sum T (1 - e^{-r dt}) / (2r) is exact, with no 1 - |v|^2 to cancel, and clipped
    to [0, 1]. Its slope at dt = 0 is -survival_rate and its dt^2 term -second_order_rate dt.
    A NaN or negative dt raises ParameterError.
    """
    if not dt >= 0:
        raise ParameterError(f"dt must be >= 0, got {dt}")
    t_fast, t_slow, t_z, t_c = generator_terms(bath, state_bloch(state))
    terms = (t_fast, t_slow, t_z + t_c)
    loss = -0.5 * sum(t * relax(0.0, rate, dt, 1.0) for t, rate in zip(terms, bath.rates))
    return float(np.clip(1.0 - loss, 0.0, 1.0))


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
    0. It is -inf where gamma^2 dt overflows, and 0 wherever the clipped value is, dt = inf
    included. A NaN or negative dt raises ParameterError.
    """
    if not dt >= 0:
        raise ParameterError(f"dt must be >= 0, got {dt}")
    terms = generator_terms(bath, state_bloch(state))
    fast, slow, rate_z = bath.rates
    first = 0.5 * float(sum(terms))
    tolerance = FIRST_ORDER_ZERO_TOL * 0.5 * float(sum(map(abs, terms)))
    tolerance += 16 * rate_z * np.finfo(float).eps ** 2
    if abs(first) > tolerance:
        raise ParameterError(f"first-order rate {first} does not vanish; second-order law invalid")
    # <a| L{L{|a><a|}} |a> = v . A (A v + c) / 2, and with A diagonal in the mode frame
    # v . A (A v + c) is each term times minus its mode's rate.
    value = -0.5 * float(fast * terms[0] + slow * terms[1] + rate_z * (terms[2] + terms[3]))
    clipped = min(value, 0.0)
    # A clipped 0 stays 0 at dt = inf, where 0 * dt would be NaN.
    return 0.5 * clipped * dt if clipped else 0.5 * clipped


def survival_laws(bath: BathParams, state, sched: MeasurementSchedule):
    """The first- and second-order survival laws at sched.times, as (first, second).

    The second-order law holds only where the first-order rate vanishes: where
    second_order_rate raises ParameterError, its curve is all NaN.
    """
    times = sched.times
    try:
        second = relax(1.0, -second_order_rate(bath, state, sched.dt), times)
    except ParameterError:
        second = np.full_like(times, np.nan)
    return relax(1.0, -survival_rate(bath, state), times), second


def monte_carlo_survival(
    bath: BathParams, state, sched: MeasurementSchedule, n_traj: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stochastic estimate of the repeated-measurement survival curve.

    Each trajectory alive before measurement k survives it on its own with probability p,
    so the number alive after step k is Binomial(alive before, p). Step k consumes one
    binomial draw from a counter-based Philox generator keyed by the seed, so the cost does
    not depend on n_traj and reruns with a fixed seed are bit-identical. n_traj must be an
    integer in [1, 2**53], where every survivor count is an exact float, and seed one >= 0;
    else ParameterError. Returns (survival fractions, binomial standard errors) at
    sched.times, each of shape (count + 1,).
    """
    n_traj = checked_integer("n_traj", n_traj, 1, 2**53)
    seed = checked_integer("seed", seed, 0)
    p = step_survival_probability(bath, state, sched.dt)
    rng = np.random.Generator(np.random.Philox(seed))
    alive = np.empty(sched.count + 1, dtype=np.int64)
    alive[0] = n_traj
    for k in range(1, sched.count + 1):
        alive[k] = rng.binomial(alive[k - 1], p)
    fractions = alive / n_traj
    return fractions, np.sqrt(fractions * (1.0 - fractions) / n_traj)
