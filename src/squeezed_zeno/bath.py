"""The squeezed-vacuum dissipator for a two-level atom.

Provides the bath parameters, the affine Bloch-vector equations of
motion of the dissipator in closed form, and its single jump operator
(Lindblad form), valid at maximal two-photon correlation.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .pauli import SIGMA_MINUS, SIGMA_PLUS

MAXIMAL_M_TOL = 1e-9
# Bound on the largest rate gamma(2N+1): the second-order survival rate squares it.
MAX_RATE = 1e150


def maximal_m(n: float) -> float:
    """Largest physical two-photon correlation magnitude sqrt(N(N+1))."""
    return np.sqrt(n * (n + 1.0))


@dataclass(frozen=True)
class BathParams:
    """Squeezed-bath parameters.

    gamma: vacuum decay rate (> 0)
    n:     mean photon number (>= 0)
    m:     two-photon correlation magnitude (0 <= m <= sqrt(n(n+1)))
    psi:   squeezing phase in radians, reduced to [0, 2*pi)

    The largest rate gamma(2N+1) is at most MAX_RATE.
    """

    gamma: float
    n: float
    m: float
    psi: float = 0.0

    def __post_init__(self):
        if not np.all(np.isfinite([self.gamma, self.n, self.m, self.psi])):
            raise ParameterError(
                f"bath parameters must be finite, got gamma={self.gamma}, "
                f"n={self.n}, m={self.m}, psi={self.psi}"
            )
        if self.gamma <= 0:
            raise ParameterError(f"gamma must be positive, got {self.gamma}")
        if self.n < 0:
            raise ParameterError(f"mean photon number must be >= 0, got {self.n}")
        # Python floats, so that a product past the float range is inf without a warning.
        rate = float(self.gamma) * (2.0 * float(self.n) + 1.0)
        if rate > MAX_RATE:
            raise ParameterError(f"the largest rate gamma(2N+1) = {rate} exceeds {MAX_RATE}")
        if self.m < 0 or self.m > maximal_m(self.n) + 1e-12:
            raise ParameterError(
                f"m={self.m} outside physical range [0, sqrt(n(n+1))={maximal_m(self.n)}]"
            )
        object.__setattr__(self, "psi", float(np.mod(self.psi, 2 * np.pi)))

    @classmethod
    def maximal(cls, gamma: float, n: float, psi: float = 0.0) -> "BathParams":
        """Bath with maximal squeezing m = sqrt(n(n+1))."""
        return cls(gamma=gamma, n=n, m=maximal_m(n), psi=psi)

    @property
    def is_maximal(self) -> bool:
        return abs(self.m - maximal_m(self.n)) <= MAXIMAL_M_TOL

    @property
    def squeeze_amplitude(self) -> float:
        """Squeeze parameter r with sinh(r) = sqrt(n) (defined at maximal m)."""
        return float(np.arcsinh(np.sqrt(self.n)))


def lindblad_s_operator(bath: BathParams) -> np.ndarray:
    """Jump operator S = sqrt(N+1) sigma - sqrt(N) e^{i psi} sigma+.

    Only defined at maximal squeezing, where the three-term dissipator
    collapses to a single Lindblad term.
    """
    if not bath.is_maximal:
        raise ParameterError(
            "single jump-operator form requires maximal m = sqrt(n(n+1)); "
            f"got m={bath.m}, maximal={maximal_m(bath.n)}"
        )
    return np.sqrt(bath.n + 1) * SIGMA_MINUS - np.sqrt(bath.n) * np.exp(
        1j * bath.psi
    ) * SIGMA_PLUS


def bloch_rates(bath: BathParams):
    """Affine Bloch equations d(rho_vec)/dt = A rho_vec + c, in closed form.

    A[k, j] = Tr(L{sigma_j} sigma_k) / 2 and c[k] = Tr(L{1} sigma_k) / 2
    for the squeezed-vacuum dissipator L, which works out to
        transverse (xy) block: -gamma(N + 1/2) I - gamma M [[cos psi, -sin psi], [-sin psi, -cos psi]],
        A_zz = -gamma(2N + 1), c = (0, 0, -gamma),
    with no coupling between the transverse and longitudinal components.
    """
    g, n, m = bath.gamma, bath.n, bath.m
    cos, sin = np.cos(bath.psi), np.sin(bath.psi)
    a = np.array(
        [
            [-g * (n + 0.5) - g * m * cos, g * m * sin, 0.0],
            [g * m * sin, -g * (n + 0.5) + g * m * cos, 0.0],
            [0.0, 0.0, -g * (2 * n + 1)],
        ]
    )
    return a, np.array([0.0, 0.0, -g])
