"""Where does frequent measurement freeze the atom?

Scans the survival-rate functional F(theta, phi) over all measurement
directions for a squeezed bath with N=1, psi=0, and compares the two
maxima found on the grid with the closed-form preferential angles.
F <= 0 everywhere; the frozen directions are exactly the zeros.
"""

import numpy as np

from squeezed_zeno import BathParams, survival_functional_rows, zeno_directions

bath = BathParams.maximal(gamma=1.0, n=1.0, psi=0.0)

thetas, phis, rows = survival_functional_rows(bath, 256, 256)
thetas, phis, f = np.array(thetas), np.array(phis), np.array(list(rows))
print(f"F range on the 256x256 grid: [{f.min():.4f}, {f.max():.3e}]")

closed = zeno_directions(bath)
print("\nclosed-form maxima:")
print(f"  cos(theta) = {np.cos(closed.theta):+.6f}  (theta = {closed.theta:.6f})")
print(f"  phi_1 = {closed.mu1.phi:.6f}  phi_2 = {closed.mu2.phi:.6f}")

# The two maxima lie pi apart in phi, so each half of the phi axis holds one.
print(f"\ngrid argmax in each half of the phi axis (cell size {thetas[1]:.4f} x {phis[1]:.4f}):")
half = len(phis) // 2
for offset in (0, half):
    i, j = np.unravel_index(np.argmax(f[:, offset : offset + half]), (len(thetas), half))
    print(f"  theta = {thetas[i]:.6f}  phi = {phis[offset + j]:.6f}  F = {f[i, offset + j]:+.2e}")

print("\nBoth maxima sit at F = 0: measuring the spin component along either")
print("direction freezes the atom in the corresponding +1 eigenstate.")
