"""The squeezed-vacuum dissipator for a two-level atom.

Provides the superoperator in its three-term form, the equivalent
single-jump-operator (Lindblad) form valid at maximal two-photon
correlation, and the affine Bloch-vector equations of motion derived
from the superoperator.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .pauli import IDENTITY, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z

MAXIMAL_M_TOL = 1e-9


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


def liouvillian(bath: BathParams, rho: np.ndarray) -> np.ndarray:
    """Apply the squeezed-vacuum dissipator to a Hermitian operator.

    L{rho} = gamma/2 (N+1)(2 s rho s+ - s+ s rho - rho s+ s)
           + gamma/2  N   (2 s+ rho s - s s+ rho - rho s s+)
           - gamma M e^{i psi} s+ rho s+ - gamma M e^{-i psi} s rho s

    The trace of rho need not be 1; the map is linear and trace-free.
    """
    rho = np.asarray(rho, dtype=complex)
    g, n, m, psi = bath.gamma, bath.n, bath.m, bath.psi
    sm, sp = SIGMA_MINUS, SIGMA_PLUS
    down = 0.5 * g * (n + 1) * (2 * sm @ rho @ sp - sp @ sm @ rho - rho @ sp @ sm)
    up = 0.5 * g * n * (2 * sp @ rho @ sm - sm @ sp @ rho - rho @ sm @ sp)
    squeeze = (
        -g * m * np.exp(1j * psi) * sp @ rho @ sp
        - g * m * np.exp(-1j * psi) * sm @ rho @ sm
    )
    return down + up + squeeze


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


def liouvillian_from_s(bath: BathParams, rho: np.ndarray) -> np.ndarray:
    """Dissipator in single-jump form: gamma/2 (2 S rho S+ - rho S+ S - S+ S rho)."""
    rho = np.asarray(rho, dtype=complex)
    s = lindblad_s_operator(bath)
    sd = s.conj().T
    return 0.5 * bath.gamma * (2 * s @ rho @ sd - rho @ sd @ s - sd @ s @ rho)


def bloch_rates(bath: BathParams):
    """Affine Bloch equations d(rho_vec)/dt = A rho_vec + c.

    A and c are obtained by applying the dissipator to the identity and
    the three Pauli matrices: A[k, j] = Tr(L{sigma_j} sigma_k) / 2 and
    c[k] = Tr(L{1} sigma_k) / 2.
    """
    basis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
    a = np.empty((3, 3))
    for j, sig_j in enumerate(basis):
        image = liouvillian(bath, sig_j)
        for k, sig_k in enumerate(basis):
            a[k, j] = 0.5 * np.trace(image @ sig_k).real
    image_id = liouvillian(bath, IDENTITY)
    c = np.array([0.5 * np.trace(image_id @ sig).real for sig in basis])
    return a, c
