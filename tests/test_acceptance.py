"""Acceptance suite: one test per release criterion, each printing a
pass/fail line. Run with `pytest tests/test_acceptance.py -s` to see the
per-criterion report.
"""

import numpy as np
import pytest

from squeezed_zeno import (
    BathParams,
    MeasurementSchedule,
    TimeGrid,
    evolve_free,
    evolve_measured,
    monte_carlo_survival,
    pure_state_bloch,
    repeated_measurement_survival,
    s_eigensystem,
    second_order_rate,
    survival_rate,
    uncertainty_product,
    zeno_directions,
    zeno_states,
)

from oracles import (
    EXCITED,
    GROUND,
    bloch_to_matrix,
    eig_s_eigensystem,
    eigenstates_mu,
    find_zeno_directions_grid,
    j_minus_alpha_operator,
    liouvillian,
    liouvillian_from_s,
    measurement_modified_rhs,
    oracle_survival_functional_grid,
    rk4_free,
    s_operator,
    sigma_mu,
)

SWEEP_N = (0.5, 1.0, 2.0, 5.0)
SWEEP_PSI = (0.0, 1.0, np.pi, 5.0)

def report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def test_criterion_01_zeno_condition_zero():
    worst = 0.0
    for n in SWEEP_N:
        for psi in SWEEP_PSI:
            b = BathParams.maximal(1.0, n, psi)
            for state in zeno_states(b):
                worst = max(worst, abs(survival_rate(b, state)))
    report(f"1. frozen-state survival rate zero (worst {worst:.2e})", worst < 1e-10)


def test_criterion_02_closed_form_angles_match_grid():
    ok = True
    for n in SWEEP_N:
        for psi in SWEEP_PSI:
            b = BathParams.maximal(1.0, n, psi)
            zd = zeno_directions(b)
            thetas, phis, f = oracle_survival_functional_grid(b, 256, 256)
            dtheta = np.pi / 255
            dphi = 2 * np.pi / 256
            # every grid point within numerical reach of the max
            hits = np.argwhere(f >= f.max() - 1e-12)
            for i, j in hits:
                dphi1 = min(abs(phis[j] - zd.mu1.phi), 2 * np.pi - abs(phis[j] - zd.mu1.phi))
                dphi2 = min(abs(phis[j] - zd.mu2.phi), 2 * np.pi - abs(phis[j] - zd.mu2.phi))
                ok &= min(dphi1, dphi2) <= dphi + 1e-12
                ok &= abs(thetas[i] - zd.theta) <= dtheta + 1e-12
            # the grid scan polished off the grid lands on the closed-form directions
            found = find_zeno_directions_grid(b, 256, 256)
            ok &= len(found) == 2
            for d, fval in found:
                ok &= max(np.array(d.unit_vector) @ t.unit_vector for t in (zd.mu1, zd.mu2)) > 1 - 1e-8
                ok &= abs(fval) < 1e-10
    report("2. grid argmax within one cell of, and its polish at, the closed-form angles", ok)


def test_criterion_03_analytic_vs_numeric_free_evolution():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        n = rng.uniform(0.0, 3.0)
        b = BathParams.maximal(1.0, n, rng.uniform(0, 2 * np.pi))
        v0 = rng.normal(size=3)
        v0 = v0 / np.linalg.norm(v0) * rng.uniform(0, 1) ** (1 / 3)
        if rng.integers(2):
            v0 /= np.linalg.norm(v0)
        grid = TimeGrid(5.0, 25)
        numeric = rk4_free(b, v0, grid)
        exact = evolve_free(b, v0, grid)
        worst = max(worst, float(np.max(np.abs(numeric - exact))))
    report(f"3. RK4 vs closed-form free evolution (worst {worst:.2e})", worst < 1e-8)


def test_criterion_04_measured_exponential_law():
    b = BathParams.maximal(1.0, 1.0, 0.0)
    d = zeno_directions(b).mu1
    grid = TimeGrid(5.0, 200)
    alpha = 2 * (1.5 - np.sqrt(2))

    _, minus = eigenstates_mu(d)
    from_minus = evolve_measured(b, d, pure_state_bloch(minus), grid)
    err_minus = np.max(np.abs(from_minus - (1 - 2 * np.exp(-alpha * grid.times))))

    z1, _ = zeno_states(b)
    frozen = evolve_measured(b, d, pure_state_bloch(z1), grid)
    err_plus = np.max(np.abs(frozen - 1.0))

    report(
        f"4. monitored exponential law (minus err {err_minus:.2e}, frozen err {err_plus:.2e})",
        err_minus < 1e-8 and err_plus < 1e-10,
    )


def test_criterion_05_trace_identity():
    from squeezed_zeno.bath import Direction

    rng = np.random.default_rng(102)
    b = BathParams.maximal(1.0, 1.0, 0.9)
    d = Direction(1.2, 0.4)
    smu = sigma_mu(d)
    mu = np.array(d.unit_vector)
    worst = 0.0
    for _ in range(100):
        rho = bloch_to_matrix(rng.uniform(-1, 1) * mu)
        lhs = np.trace(measurement_modified_rhs(b, d, rho) @ smu).real
        rhs = np.trace(liouvillian(b, rho) @ smu).real
        worst = max(worst, abs(lhs - rhs))
    report(f"5. monitored/free trace identity (worst {worst:.2e})", worst < 1e-12)


def test_criterion_06_second_order_law():
    b = BathParams.maximal(1.0, 1.0, 0.0)
    z1, _ = zeno_states(b)
    fitted = {}
    ok = True
    for dt in (1e-2, 5e-3, 2.5e-3):
        sched = MeasurementSchedule(dt, 200)
        curve = repeated_measurement_survival(b, z1, sched)
        rate = np.log(curve[-1]) / sched.times[-1]
        predicted = second_order_rate(b, z1, dt)
        ok &= abs(rate - predicted) <= 0.05 * abs(predicted)
        fitted[dt] = rate
    ok &= abs(fitted[1e-2] / fitted[5e-3] - 2.0) < 0.05 * 2.0
    ok &= abs(fitted[5e-3] / fitted[2.5e-3] - 2.0) < 0.05 * 2.0
    report("6. second-order survival law and linear dt scaling", ok)


def test_criterion_07_continuous_monitoring_limit():
    b = BathParams(gamma=1.0, n=0.0, m=0.0)
    sched = MeasurementSchedule(1e-4, 10000)
    curve = repeated_measurement_survival(b, EXCITED, sched)
    fitted = np.log(curve[-1]) / sched.times[-1]
    report(
        f"7. continuous-monitoring limit rate {fitted:.5f} vs -1",
        abs(fitted + 1.0) < 0.01,
    )


def test_criterion_08_monte_carlo_oracle():
    cases = [
        (BathParams(gamma=1.0, n=0.0, m=0.0), EXCITED, MeasurementSchedule(0.05, 100), 11),
        (BathParams.maximal(1.0, 1.0, 0.0), EXCITED, MeasurementSchedule(0.02, 150), 12),
        (
            BathParams.maximal(1.0, 2.0, 1.3),
            zeno_states(BathParams.maximal(1.0, 2.0, 1.3))[0],
            MeasurementSchedule(0.05, 100),
            13,
        ),
    ]
    ok = True
    for b, state, sched, seed in cases:
        exact = repeated_measurement_survival(b, state, sched)
        fractions, stderr = monte_carlo_survival(b, state, sched, 100000, seed)
        dev = np.abs(fractions - exact)[1:]
        bound = 3 * np.maximum(stderr[1:], 1e-12)
        ok &= bool(np.all(dev <= bound))
    report("8. Monte Carlo curve within 3 sigma of exact curve", ok)


def test_criterion_09_lindblad_form_equivalence():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(10):
        b = BathParams.maximal(1.0, rng.uniform(0.05, 4.0), rng.uniform(0, 2 * np.pi))
        for _ in range(100):
            h = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = h + h.conj().T
            diff = liouvillian(b, rho) - liouvillian_from_s(b, rho)
            worst = max(worst, float(np.max(np.abs(diff))))
    report(f"9. three-term vs single-jump dissipator (worst {worst:.2e})", worst < 1e-12)


def test_criterion_10_s_eigensystem():
    ok = True
    worst_fid = 1.0
    worst_res = 0.0
    for n in SWEEP_N:
        for psi in SWEEP_PSI:
            b = BathParams.maximal(1.0, n, psi)
            eig = s_eigensystem(b)
            target = 1j * np.sqrt(b.m) * np.exp(1j * b.psi / 2)
            ok &= abs(eig.lambda_plus - target) < 1e-12
            ok &= abs(eig.lambda_minus + target) < 1e-12
            ref = eig_s_eigensystem(b)
            ok &= abs(eig.lambda_plus - ref.lambda_plus) < 1e-12
            ok &= abs(eig.lambda_minus - ref.lambda_minus) < 1e-12
            ok &= np.max(np.abs(eig.state_plus - ref.state_plus)) < 1e-12
            ok &= np.max(np.abs(eig.state_minus - ref.state_minus)) < 1e-12
            z1, z2 = zeno_states(b)
            # eigenvector set == frozen-state set (z1 carries -lambda)
            worst_fid = min(
                worst_fid,
                abs(np.vdot(eig.state_minus, z1)),
                abs(np.vdot(eig.state_plus, z2)),
            )
            s = s_operator(b)
            jm = j_minus_alpha_operator(b.psi, b.squeeze_amplitude)
            worst_res = max(
                worst_res, float(np.max(np.abs(s - 2 * eig.lambda_plus * jm)))
            )
    ok &= worst_fid > 1 - 1e-12 and worst_res < 1e-12
    report(
        f"10. jump-operator eigensystem (fid {worst_fid:.15f}, residual {worst_res:.2e})",
        ok,
    )


def test_criterion_11_intelligent_state_saturation():
    worst_gap = 0.0
    for n in SWEEP_N:
        for psi in SWEEP_PSI:
            b = BathParams.maximal(1.0, n, psi)
            for state in zeno_states(b):
                *_, gap = uncertainty_product(state, b.psi)
                worst_gap = max(worst_gap, abs(gap))
    rng = np.random.default_rng(104)
    raw = rng.normal(size=(1000, 2)) + 1j * rng.normal(size=(1000, 2))
    states = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    min_gap = min(uncertainty_product(s, 0.7)[3] for s in states)
    report(
        f"11. uncertainty saturation (frozen gap {worst_gap:.2e}, random min gap {min_gap:.2e})",
        worst_gap < 1e-12 and min_gap >= -1e-13,
    )


def test_criterion_12_thermal_limit():
    deviations = []
    fidelities = []
    for n in (1e-2, 1e-4, 1e-6):
        b = BathParams.maximal(1.0, n)
        zd = zeno_directions(b)
        deviations.append(np.pi - zd.theta)
        z1, _ = zeno_states(b)
        fidelities.append(abs(np.vdot(z1, GROUND)))
    monotone = deviations[0] > deviations[1] > deviations[2] > 0
    improving = fidelities[0] < fidelities[1] < fidelities[2]
    report(
        f"12. thermal limit: angle dev {deviations[-1]:.2e}, ground fidelity {fidelities[-1]:.8f}",
        monotone and improving and fidelities[-1] > 1 - 1e-3,
    )
