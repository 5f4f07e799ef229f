"""Survival probability under repeated projective measurement.

Three regimes on display:
  * excited state in vacuum: the fitted decay rate converges to the free
    decay rate gamma as the measurement spacing shrinks;
  * frozen state in a squeezed bath: the first-order rate vanishes and
    the residual decay follows the second-order law, linear in dt;
  * a seeded Monte Carlo unraveling reproduces the exact curve.
"""

import numpy as np

from squeezed_zeno import (
    BathParams,
    MeasurementSchedule,
    monte_carlo_survival,
    repeated_measurement_survival,
    second_order_rate,
    survival_rate,
    zeno_states,
)

excited = (1 + 0j, 0j)  # the amplitudes (a, b) of a|+> + b|->

print("--- excited state, vacuum bath: continuous-monitoring limit ---")
vacuum = BathParams(gamma=1.0, n=0.0, m=0.0)
print(f"first-order rate: {survival_rate(vacuum, excited):+.6f}  (free decay = -1)")
for dt in (0.1, 0.01, 0.001):
    sched = MeasurementSchedule(dt, int(1 / dt))
    curve = repeated_measurement_survival(vacuum, excited, sched)
    fitted = np.log(curve[-1]) / sched.times[-1]
    print(f"  dt = {dt:6.3f}: fitted rate {fitted:+.6f}")

print("\n--- frozen state, squeezed bath N=1: second-order law ---")
bath = BathParams.maximal(gamma=1.0, n=1.0, psi=0.0)
frozen, _ = zeno_states(bath)
print(f"first-order rate: {survival_rate(bath, frozen):+.2e}  (vanishes)")
for dt in (0.01, 0.005, 0.0025):
    sched = MeasurementSchedule(dt, 200)
    curve = repeated_measurement_survival(bath, frozen, sched)
    fitted = np.log(curve[-1]) / sched.times[-1]
    predicted = second_order_rate(bath, frozen, dt)
    print(f"  dt = {dt:7.4f}: fitted {fitted:+.3e}  second-order {predicted:+.3e}")

print("\n--- Monte Carlo oracle vs exact curve ---")
sched = MeasurementSchedule(0.05, 40)
exact = repeated_measurement_survival(bath, excited, sched)
mc, sigma = monte_carlo_survival(bath, excited, sched, n_traj=50000, seed=2024)
print(f"{'t':>5} {'exact':>8} {'mc':>8} {'sigma':>8}")
for k in range(0, 41, 8):
    print(f"{sched.times[k]:5.2f} {exact[k]:8.4f} {mc[k]:8.4f} {sigma[k]:8.4f}")
