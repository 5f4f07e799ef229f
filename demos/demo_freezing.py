"""Freezing and dragging a decaying atom by frequent measurement.

Starting from the frozen state, the monitored expectation value stays
pinned at +1 while the unmonitored atom decays. Starting from the
opposite eigenstate, monitoring drags the atom into the frozen state
at rate 2*gamma*(N - M + 1/2).
"""

import numpy as np

from squeezed_zeno import (
    BathParams,
    TimeGrid,
    evolve_free,
    evolve_measured,
    pure_state_bloch,
    zeno_directions,
    zeno_states,
)

bath = BathParams.maximal(gamma=1.0, n=1.0, psi=0.0)
direction = zeno_directions(bath).mu1
mu = np.array(direction.unit_vector)
grid = TimeGrid(8.0, 16)

frozen = pure_state_bloch(zeno_states(bath)[0])
opposite = -mu  # the Bloch vector of the -1 eigenstate of sigma . mu_hat

print("initial state = frozen (+1) eigenstate")
print(f"{'t':>5} {'free':>10} {'monitored':>10}")
free = evolve_free(bath, frozen, grid)
monitored = evolve_measured(bath, direction, frozen, grid)
for t, v_free, v_mon in zip(grid.times, free @ mu, monitored):
    print(f"{t:5.1f} {v_free:10.6f} {v_mon:10.6f}")

rate = 2 * bath.gamma * (bath.n - bath.m + 0.5)
print(f"\ninitial state = opposite (-1) eigenstate  (approach rate {rate:.6f})")
print(f"{'t':>5} {'free':>10} {'monitored':>10} {'1-2e^-at':>10}")
free = evolve_free(bath, opposite, grid)
monitored = evolve_measured(bath, direction, opposite, grid)
for t, v_free, v_mon in zip(grid.times, free @ mu, monitored):
    print(f"{t:5.1f} {v_free:10.6f} {v_mon:10.6f} {1 - 2 * np.exp(-rate * t):10.6f}")
