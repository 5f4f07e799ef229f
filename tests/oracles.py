"""Independent reference implementations that the tests compare the package against.

None of this is on the package's runtime or import path.
"""

import json

import mpmath
import numpy as np
from scipy.linalg import expm
from scipy.optimize import minimize

from squeezed_zeno import (
    BathParams,
    MeasurementSchedule,
    TimeGrid,
    step_survival_probability,
)
from squeezed_zeno.bath import Direction, generator_terms
from squeezed_zeno.dynamics import bloch_vector, pure_state_matrix
from squeezed_zeno.errors import ParameterError
from squeezed_zeno.intelligent import SEigensystem

# The basis states |+> = excited = (1, 0), |-> = ground = (0, 1), and the operators in it.
EXCITED = np.array([1, 0], dtype=complex)
GROUND = np.array([0, 1], dtype=complex)
IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
# Ladder operators: SIGMA_MINUS |+> = |-> and SIGMA_PLUS |-> = |+>.
SIGMA_MINUS = np.array([[0, 0], [1, 0]], dtype=complex)
SIGMA_PLUS = np.array([[0, 1], [0, 0]], dtype=complex)
# Internal RK4 step as a fraction of the fastest relaxation time 1 / (gamma (2N + 1)).
RK4_STEP_FRACTION = 1e-3


def bloch_to_matrix(v) -> np.ndarray:
    """Density matrix rho = (1 + v . sigma) / 2 for a Bloch vector v (checked by bloch_vector)."""
    v = bloch_vector(v)
    return 0.5 * (IDENTITY + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z)


def sigma_mu(d: Direction) -> np.ndarray:
    """Spin component along d: sigma . mu_hat."""
    mu = d.unit_vector
    return mu[0] * SIGMA_X + mu[1] * SIGMA_Y + mu[2] * SIGMA_Z


def eigenstates_mu(d: Direction):
    """The +1 and -1 eigenstates of sigma_mu(d), as complex arrays.

    Returns (plus, minus) with
        plus  =  cos(theta/2) |+> + sin(theta/2) e^{i phi} |->
        minus = -sin(theta/2) |+> + cos(theta/2) e^{i phi} |->
    """
    c, s = np.cos(d.theta / 2), np.sin(d.theta / 2)
    phase = np.exp(1j * d.phi)
    return np.array([c, s * phase]), np.array([-s, c * phase])


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


def s_operator(bath: BathParams) -> np.ndarray:
    """Jump operator S = sqrt(N+1) sigma- - sqrt(N) e^{i psi} sigma+ of the single-jump form.

    It is the dissipator's jump operator at maximal M only; else ParameterError.
    """
    if not bath.is_maximal:
        raise ParameterError(f"S needs maximal squeezing, got m={bath.m}")
    return np.sqrt(bath.n + 1) * SIGMA_MINUS - np.sqrt(bath.n) * np.exp(1j * bath.psi) * SIGMA_PLUS


def liouvillian_from_s(bath: BathParams, rho: np.ndarray) -> np.ndarray:
    """Dissipator in single-jump form: gamma/2 (2 S rho S+ - rho S+ S - S+ S rho)."""
    rho = np.asarray(rho, dtype=complex)
    s = s_operator(bath)
    sd = s.conj().T
    return 0.5 * bath.gamma * (2 * s @ rho @ sd - rho @ sd @ s - sd @ s @ rho)


def oracle_bloch_rates(bath: BathParams):
    """Affine Bloch generator (A, c) from four applications of the dissipator.

    A[k, j] = Tr(L{sigma_j} sigma_k) / 2 and c[k] = Tr(L{1} sigma_k) / 2.
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


def rk4_free(bath: BathParams, v0, grid: TimeGrid) -> np.ndarray:
    """Bloch vectors on the grid from fixed-step RK4 on d v/dt = A v + c, from v(0) = v0.

    Each grid interval is subdivided so the internal step stays at or
    below RK4_STEP_FRACTION / (gamma (2N + 1)). On the augmented linear
    system d(v, 1)/dt = K (v, 1), K = [[A, c], [0, 0]], one RK4 step of
    size h is the fixed matrix I + hK + (hK)^2/2 + (hK)^3/6 + (hK)^4/24, so
    an interval of n_sub steps applies its n_sub-th power.
    """
    max_step = RK4_STEP_FRACTION / (bath.gamma * (2 * bath.n + 1))
    a, c = oracle_bloch_rates(bath)
    k = np.zeros((4, 4))
    k[:3, :3] = a
    k[:3, 3] = c

    times = grid.times
    v = np.append(np.asarray(v0, dtype=float), 1.0)
    out = np.empty((len(times), 3))
    out[0] = v[:3]
    for i in range(1, len(times)):
        dt = times[i] - times[i - 1]
        n_sub = max(1, int(np.ceil(dt / max_step)))
        hk = (dt / n_sub) * k
        eye = np.eye(4)
        step = eye + hk @ (eye + hk @ (eye / 2 + hk @ (eye / 6 + hk / 24)))
        v = np.linalg.matrix_power(step, n_sub) @ v
        out[i] = v[:3]
    return out


def expm_propagator(bath: BathParams, t: float):
    """Affine propagator v(t) = P v(0) + q from expm of the augmented 4x4 generator."""
    a, c = oracle_bloch_rates(bath)
    aug = np.zeros((4, 4))
    aug[:3, :3] = a
    aug[:3, 3] = c
    phi = expm(aug * t)
    return phi[:3, :3], phi[:3, 3]


def mp_relax(x0: float, rate: float, t: float, drift: float = 0.0) -> float:
    """x0 e^{-rate t} + (drift / rate)(1 - e^{-rate t}) in 50-digit arithmetic, as a float.

    The independent check of relax; x0 + drift t at rate 0.
    """
    with mpmath.workdps(50):
        x0, rate, t, drift = (mpmath.mpf(x) for x in (x0, rate, t, drift))
        if rate == 0:
            return float(x0 + drift * t)
        return float(x0 * mpmath.exp(-rate * t) - drift * mpmath.expm1(-rate * t) / rate)


def eig_s_eigensystem(bath: BathParams) -> SEigensystem:
    """Eigensystem of the jump operator S from np.linalg.eig.

    The independent check of the closed-form s_eigensystem: each
    eigenvector is normalized with its excited-state amplitude made real
    and non-negative, and the eigenvalue nearer i sqrt(M) e^{i psi/2} is
    lambda_+. At N = 0 S is nilpotent and the case is reported as degenerate.
    """
    s = s_operator(bath)
    if bath.n == 0:
        return SEigensystem(0.0, GROUND.copy(), 0.0, GROUND.copy(), degenerate=True)
    eigvals, eigvecs = np.linalg.eig(s)

    def fix_phase(vec):
        vec = vec / np.linalg.norm(vec)
        pivot = vec[0] if abs(vec[0]) > 1e-12 else vec[1]
        return vec * (abs(pivot) / pivot)

    target_plus = 1j * np.sqrt(bath.m) * np.exp(1j * bath.psi / 2)
    i_plus, i_minus = np.argsort(np.abs(eigvals - target_plus))
    return SEigensystem(
        lambda_plus=complex(eigvals[i_plus]),
        state_plus=fix_phase(eigvecs[:, i_plus]),
        lambda_minus=complex(eigvals[i_minus]),
        state_minus=fix_phase(eigvecs[:, i_minus]),
    )


def rotated_spin_operators(psi: float):
    """(J1, J2, Jz) with J1 = (cos(psi/2) sigma_x - sin(psi/2) sigma_y) / 2,
    J2 = (sin(psi/2) sigma_x + cos(psi/2) sigma_y) / 2 and Jz = sigma_z / 2."""
    c, s = np.cos(psi / 2), np.sin(psi / 2)
    return 0.5 * (c * SIGMA_X - s * SIGMA_Y), 0.5 * (s * SIGMA_X + c * SIGMA_Y), 0.5 * SIGMA_Z


def j_minus_alpha_operator(psi: float, r: float) -> np.ndarray:
    """J_-(alpha) = (J1 - i alpha J2) / sqrt(1 - alpha^2) with alpha = e^{2r}.

    J1 and J2 are those of rotated_spin_operators. On the principal branch
    sqrt(1 - alpha^2) = i alpha sqrt(1 - alpha^-2), so J_-(alpha) is
    (J1 / alpha - i J2) / (i sqrt(1 - alpha^-2)), formed with 1 / alpha = e^{-2r} and
    1 - alpha^-2 = -expm1(-4r): 1 - alpha^2 does not cancel at small r, nor alpha^2 overflow.
    """
    j1, j2, _ = rotated_spin_operators(psi)
    return (np.exp(-2.0 * r) * j1 - 1j * j2) / (1j * np.sqrt(-np.expm1(-4.0 * r)))


def moment_uncertainty_product(state, psi: float):
    """(var_j1, var_j2, bound, gap) of uncertainty_product from operator moments.

    var(J) = <J^2> - <J>^2 for J1 and J2 of rotated_spin_operators, and bound = <Jz>^2 / 4.
    """
    state = np.asarray(state, dtype=complex)
    j1, j2, jz = rotated_spin_operators(psi)

    def moments(op):
        mean = np.vdot(state, op @ state).real
        mean_sq = np.vdot(state, op @ op @ state).real
        return mean, mean_sq - mean**2

    _, var1 = moments(j1)
    _, var2 = moments(j2)
    mean_z, _ = moments(jz)
    bound = mean_z**2 / 4.0
    return var1, var2, bound, var1 * var2 - bound


def measurement_modified_rhs(bath: BathParams, d: Direction, rho: np.ndarray) -> np.ndarray:
    """Right-hand side of the monitored master equation.

    P L{rho} P + (1 - P) L{rho} (1 - P) with P the projector onto the
    +1 eigenstate of sigma_mu. The package uses the exact scalar
    reduction instead (evolve_measured).
    """
    plus, _ = eigenstates_mu(d)
    p = pure_state_matrix(plus)
    q = IDENTITY - p
    image = liouvillian(bath, rho)
    return p @ image @ p + q @ image @ q


def oracle_survival_functional_grid(bath: BathParams, n_theta: int, n_phi: int):
    """The survival functional on an (n_theta x n_phi) angle grid, vectorized with numpy.

    2F = sin^2(theta) q(phi) + l(cos theta) with q and l the transverse and longitudinal
    generator_terms, clipped at 0; q is evaluated on one period in phi (n_phi/2 angles
    for even n_phi) and tiled. Returns (theta axis, phi axis, F of shape (n_theta, n_phi)).
    """
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    period = n_phi // 2 if n_phi % 2 == 0 else n_phi
    t_fast, t_slow, _, _ = generator_terms(
        bath, (np.cos(phis[:period]), np.sin(phis[:period]), 0.0)
    )
    _, _, t_z, t_c = generator_terms(bath, (0.0, 0.0, np.cos(thetas)))
    f = np.multiply.outer(np.sin(thetas) ** 2, np.tile(t_fast + t_slow, n_phi // period))
    f += (t_z + t_c)[:, None]
    f *= 0.5
    np.minimum(f, 0.0, out=f)
    return thetas, phis, f


def find_zeno_directions_grid(bath: BathParams, n_theta: int = 256, n_phi: int = 256):
    """Locate the survival-functional maxima by grid scan plus local polish.

    The independent check of the closed-form zeno_directions. The polish reads
    F = mu . (A mu + c) / 2 with (A, c) from oracle_bloch_rates, not the package's
    closed form. Returns a list of (Direction, F value), one per local maximum
    found (the global maximum and any grid point within 1e-9 of it).
    """
    a, c = oracle_bloch_rates(bath)

    def survival_functional(x):
        mu = Direction(float(np.clip(x[0], 0, np.pi)), float(x[1])).unit_vector
        return 0.5 * float(mu @ (a @ mu + c))

    thetas, phis, f = oracle_survival_functional_grid(bath, n_theta, n_phi)
    fmax = f.max()
    candidates = np.argwhere(f >= fmax - 1e-9 * max(1.0, abs(fmax)))
    # Cluster neighbouring grid hits: keep maxima separated by > 2 cells.
    results = []
    dtheta = np.pi / (n_theta - 1)
    dphi = 2 * np.pi / n_phi
    for i, j in candidates:
        th, ph = thetas[i], phis[j]
        if any(
            abs(th - r[0].theta) < 3 * dtheta
            and min(abs(ph - r[0].phi), 2 * np.pi - abs(ph - r[0].phi)) < 3 * dphi
            for r in results
        ):
            continue
        res = minimize(
            lambda x: -survival_functional(x),
            x0=[th, ph],
            method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14},
        )
        th, ph = float(np.clip(res.x[0], 0, np.pi)), float(res.x[1])
        d = Direction(th, ph)
        results.append((d, survival_functional(res.x)))
    return results


def per_trajectory_survival(
    bath: BathParams, state, sched: MeasurementSchedule, n_traj: int, seed: int
) -> np.ndarray:
    """Survivor counts a_0..a_count from one uniform draw per trajectory per measurement.

    The direct unravelling of repeated measurement: a trajectory alive
    before step k survives it when its uniform draw from the Philox
    stream keyed by seed falls below the one-step survival probability.
    The package draws the count itself (monte_carlo_survival); both have
    the same law.
    """
    p = step_survival_probability(bath, state, sched.dt)
    rng = np.random.Generator(np.random.Philox(seed))
    alive = np.ones(n_traj, dtype=bool)
    counts = np.empty(sched.count + 1, dtype=np.int64)
    counts[0] = n_traj
    for k in range(1, sched.count + 1):
        alive &= rng.random(n_traj) < p
        counts[k] = alive.sum()
    return counts


def bernstein_bound(p_exact, n_traj: int, alpha: float) -> np.ndarray:
    """Bound on |P_mc - P_exact| that a correct sampler exceeds at one point with probability
    at most alpha.

    Each of n_traj trajectories survives to a point on its own with probability P, so by
    Bernstein's inequality |P_mc - P| <= sqrt(2 var u / n_traj) + 2u / (3 n_traj), with
    var = P(1 - P), fails with probability at most alpha = 2 exp(-u).
    """
    u = np.log(2.0 / alpha)
    var = np.clip(p_exact * (1.0 - p_exact), 0.0, None)
    return np.sqrt(2.0 * var * u / n_traj) + 2.0 * u / (3.0 * n_traj)


def reference_csv(columns, rows) -> str:
    """CSV text with every value formatted on its own by format(float(x), ".17g")."""
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(format(float(x), ".17g") for x in row))
    return "\n".join(lines) + "\n"


def reference_json(columns, rows) -> str:
    """JSON table {"columns", "rows"} with every value converted by float()."""
    payload = {"columns": list(columns), "rows": [[float(x) for x in row] for row in rows]}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
