"""Intelligent-state structure of the frozen states.

Entries and eigensystem of the bath's single jump operator, the rotated spin
observables aligned with the bath fluctuation ellipse, the non-Hermitian
lowering-type operator whose eigenstates saturate the Heisenberg
uncertainty relation, and the saturation check itself, all from Python scalars.
Its squeeze ratio is BathParams.squeeze_ratio.
"""

import cmath
import math
from dataclasses import dataclass

from .bath import BathParams, maximal_m, state_bloch, to_mode_frame, zeno_states
from .errors import ParameterError


def _require_maximal(bath: BathParams) -> None:
    """Reject a bath without maximal squeezing, where S and its eigensystem are not defined."""
    if not bath.is_maximal:
        raise ParameterError(
            f"S is only defined at maximal m = sqrt(n(n+1)) = {maximal_m(bath.n)}, got m={bath.m}"
        )


def lindblad_s_entries(bath: BathParams):
    """Rows of the jump operator S = sqrt(N+1) sigma- - sqrt(N) e^{i psi} sigma+ (maximal M)."""
    _require_maximal(bath)
    upper = -(math.sqrt(bath.n) * cmath.exp(1j * bath.psi))
    return (0j, upper), (complex(math.sqrt(bath.n + 1)), 0j)


@dataclass(frozen=True)
class SEigensystem:
    """Eigenvalues and phase-fixed eigenvectors (pairs of complex amplitudes) of S."""

    lambda_plus: complex
    state_plus: tuple
    lambda_minus: complex
    state_minus: tuple
    degenerate: bool = False


def s_eigensystem(bath: BathParams) -> SEigensystem:
    """Eigensystem of S = sqrt(N+1) sigma - sqrt(N) e^{i psi} sigma+ (maximal squeezing).

    The eigenvalues are +-i sqrt(M) e^{i psi/2} and the eigenvectors the frozen
    states z2 and z1 of bath.zeno_states, the +1 eigenstates of sigma . mu_hat along the
    two maxima of F = mu . (A mu + c) / 2. At N = 0 the operator is nilpotent with the
    single eigenvector |->; that case is reported as degenerate.
    """
    _require_maximal(bath)
    if bath.n == 0:
        return SEigensystem(0.0, (0j, 1 + 0j), 0.0, (0j, 1 + 0j), degenerate=True)
    lam = 1j * math.sqrt(bath.m) * cmath.exp(1j * bath.psi / 2)
    z1, z2 = zeno_states(bath)
    return SEigensystem(lambda_plus=lam, state_plus=z2, lambda_minus=-lam, state_minus=z1)


def j_minus_alpha_entries(psi: float, r: float):
    """Rows of the non-Hermitian J_-(alpha) = (J1 - i alpha J2) / sqrt(1 - alpha^2), from r > 0.

    alpha = e^{2r}; J1 = cos(psi/2) Jx - sin(psi/2) Jy and J2 = sin(psi/2) Jx + cos(psi/2) Jy
    are the spin-1/2 operators along the fluctuation axes (the mode frame). The principal
    branch sqrt(1 - alpha^2) = i alpha sqrt(1 - alpha^-2) makes S = 2 lambda_+ J_-(alpha),
    r = bath.squeeze_amplitude, hold literally. The entries, (i/2) t e^{i psi/2} above the
    diagonal and -(i/2) e^{-i psi/2} / t below with t = sqrt(tanh r), are a few eps off for
    every r > 0 (from a rounded alpha, 1 - alpha^2 errs by eps/(4r); alpha^2 overflows at r > 177).
    """
    if not r > 0.0:
        raise ParameterError(f"J_-(alpha) needs squeezing r > 0, got r={r} (singular at r = 0)")
    t = math.sqrt(math.tanh(r))
    return (0j, 0.5j * t * cmath.exp(0.5j * psi)), (-0.5j / t * cmath.exp(-0.5j * psi), 0j)


def factorization_residual(bath: BathParams, eig: SEigensystem) -> float:
    """max |S - 2 lambda_+ J_-(alpha)| over the entries, for a non-degenerate eig of bath."""
    s = lindblad_s_entries(bath)
    jm = j_minus_alpha_entries(bath.psi, bath.squeeze_amplitude)
    pairs = zip(s[0] + s[1], jm[0] + jm[1])
    return max(abs(s_entry - 2.0 * eig.lambda_plus * j_entry) for s_entry, j_entry in pairs)


def uncertainty_product(state, psi: float):
    """Variances of J1 and J2, the Heisenberg bound, and the saturation gap, of a pure state.

    Returns (var_j1, var_j2, bound, gap) with bound = |<Jz>|^2 / 4 and
    gap = var_j1 * var_j2 - bound. Intelligent states have gap = 0. With u the
    Bloch vector in mode coordinates, var(J1) = (1 - u_fast^2) / 4, as J1^2 = 1/4.
    """
    x, y, z = state_bloch(state)
    u_fast, u_slow = to_mode_frame(psi, x, y)
    var1, var2 = (1.0 - u_fast**2) / 4.0, (1.0 - u_slow**2) / 4.0
    bound = z**2 / 16.0
    return var1, var2, bound, var1 * var2 - bound
