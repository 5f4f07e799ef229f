"""The frozen states are intelligent states of the bath-aligned spin axes.

The squeezed-bath dissipator has a single jump operator S whose two
eigenvectors are exactly the frozen states. Writing S in terms of the
rotated spin components J1, J2 (the bath fluctuation-ellipse axes) shows
the eigenvectors saturate Var(J1) Var(J2) = |<Jz>|^2 / 4.
"""

import numpy as np

from squeezed_zeno import (
    BathParams,
    factorization_residual,
    s_eigensystem,
    uncertainty_product,
    zeno_states,
)

bath = BathParams.maximal(gamma=1.0, n=1.0, psi=0.8)
print(f"bath: N = {bath.n}, M = {bath.m:.6f}, psi = {bath.psi}")

eig = s_eigensystem(bath)
print(f"\nS eigenvalues: {eig.lambda_plus:+.6f}, {eig.lambda_minus:+.6f}")
print(f"(formula: +-i sqrt(M) e^(i psi/2) = {1j*np.sqrt(bath.m)*np.exp(1j*bath.psi/2):+.6f})")

z1, z2 = zeno_states(bath)
print("\neigenvector / frozen-state overlaps:")
print(f"  |<lambda_minus | z1>| = {abs(np.vdot(eig.state_minus, z1)):.15f}")
print(f"  |<lambda_plus  | z2>| = {abs(np.vdot(eig.state_plus, z2)):.15f}")

residual = factorization_residual(bath, eig)
print(f"\nfactorization S = 2 lambda_+ J_-(alpha): residual {residual:.2e}")
print(f"squeeze ratio alpha = e^(2r) = {bath.squeeze_ratio:.6f}")

print("\nuncertainty saturation for both eigenvectors:")
for name, state in (("lambda_plus", eig.state_plus), ("lambda_minus", eig.state_minus)):
    v1, v2, bound, gap = uncertainty_product(state, bath.psi)
    print(
        f"  {name}: Var(J1) Var(J2) = {v1 * v2:.6e}"
        f"  bound = {bound:.6e}  gap = {gap:+.1e}"
    )
