"""Intelligent-state structure of the frozen states.

Eigensystem of the bath's single jump operator, the rotated spin
observables aligned with the bath fluctuation ellipse, the non-Hermitian
lowering-type operator whose eigenstates saturate the Heisenberg
uncertainty relation, and the saturation check itself. The squeeze ratio
alpha = e^{2r} of that operator is BathParams.squeeze_ratio.
"""

from dataclasses import dataclass

from ._numpy import np
from .bath import BathParams, _require_maximal, lindblad_s_operator, to_mode_frame
from .errors import ParameterError
from .pauli import GROUND, SIGMA_X, SIGMA_Y, pure_state_bloch
from .zeno import zeno_states


@dataclass(frozen=True)
class SEigensystem:
    """Eigenvalues and phase-fixed eigenvectors of the jump operator S."""

    lambda_plus: complex
    state_plus: np.ndarray
    lambda_minus: complex
    state_minus: np.ndarray
    degenerate: bool = False


def s_eigensystem(bath: BathParams) -> SEigensystem:
    """Eigensystem of S = sqrt(N+1) sigma - sqrt(N) e^{i psi} sigma+ (maximal squeezing).

    The eigenvalues are +-i sqrt(M) e^{i psi/2} and the eigenvectors the frozen
    states z2 and z1 (zeno_states). At N = 0 the operator is nilpotent with the
    single eigenvector |->; that case is reported as degenerate.
    """
    _require_maximal(bath)
    if bath.n == 0:
        return SEigensystem(0.0, GROUND.copy(), 0.0, GROUND.copy(), degenerate=True)
    lam = complex(1j * np.sqrt(bath.m) * np.exp(1j * bath.psi / 2))
    z1, z2 = zeno_states(bath)
    return SEigensystem(lambda_plus=lam, state_plus=z2, lambda_minus=-lam, state_minus=z1)


def j_minus_alpha(psi: float, r: float) -> np.ndarray:
    """Non-Hermitian operator (J1 - i alpha J2) / sqrt(1 - alpha^2), alpha = e^{2r}, from r > 0.

    J1 = cos(psi/2) Jx - sin(psi/2) Jy and J2 = sin(psi/2) Jx + cos(psi/2) Jy are the
    spin-1/2 operators along the major and minor fluctuation axes (the mode frame).
    The principal branch sqrt(1 - alpha^2) = i alpha sqrt(1 - alpha^-2) is used, so the
    factorization S = 2 lambda_+ J_-(alpha) with r = bath.squeeze_amplitude holds
    literally. It is formed as (J1 / alpha - i J2) / (i sqrt(-expm1(-4r))), accurate to a
    few eps for every r > 0: 1 - alpha^2 formed from a rounded alpha carries a relative
    error of about eps / (4r), and alpha^2 overflows above r = 177.
    """
    if not r > 0.0:
        raise ParameterError(f"J_-(alpha) needs squeezing r > 0, got r={r} (singular at r = 0)")
    j1, j2 = to_mode_frame(psi, 0.5 * SIGMA_X, 0.5 * SIGMA_Y)
    return (np.exp(-2.0 * r) * j1 - 1j * j2) / (1j * np.sqrt(-np.expm1(-4.0 * r)))


def factorization_residual(bath: BathParams, eig: SEigensystem) -> float:
    """max |S - 2 lambda_+ J_-(alpha)| over the entries, for a non-degenerate eig of bath."""
    s = lindblad_s_operator(bath)
    jm = j_minus_alpha(bath.psi, bath.squeeze_amplitude)
    return float(np.max(np.abs(s - 2.0 * eig.lambda_plus * jm)))


def uncertainty_product(state, psi: float):
    """Variances of J1 and J2, the Heisenberg bound, and the saturation gap.

    Returns (var_j1, var_j2, bound, gap) with bound = |<Jz>|^2 / 4 and
    gap = var_j1 * var_j2 - bound. Intelligent states have gap = 0. With u the
    Bloch vector in mode coordinates, var(J1) = (1 - u_fast^2) / 4, as J1^2 = 1/4.
    """
    v = pure_state_bloch(state)
    u_fast, u_slow = to_mode_frame(psi, v[0], v[1])
    var1 = float(1.0 - u_fast**2) / 4.0
    var2 = float(1.0 - u_slow**2) / 4.0
    bound = float(v[2] ** 2) / 16.0
    return var1, var2, bound, var1 * var2 - bound
