from collections import Counter

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import binom, chi2

from squeezed_zeno import (
    BathParams,
    Direction,
    MeasurementSchedule,
    TimeGrid,
    eigenstates_mu,
    evolve_measured,
    maximal_m,
    monte_carlo_survival,
    pure_state_bloch,
    repeated_measurement_survival,
    second_order_rate,
    step_survival_probability,
    survival_functional_F,
    survival_functional_grid,
    survival_rate,
    zeno_directions,
    zeno_states,
)
from squeezed_zeno.errors import ParameterError

from oracles import find_zeno_directions_grid, per_trajectory_survival

EPS = np.finfo(float).eps

EXCITED = np.array([1.0, 0.0], dtype=complex)
GROUND = np.array([0.0, 1.0], dtype=complex)


class TestSurvivalRate:
    def test_zeno_states_have_zero_rate(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        for state in zeno_states(b):
            assert abs(survival_rate(b, state)) < 1e-12

    def test_vacuum_ground_dark(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        assert survival_rate(b, GROUND) == pytest.approx(0.0, abs=1e-14)

    def test_vacuum_excited(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        assert survival_rate(b, EXCITED) == pytest.approx(-1.0, abs=1e-13)


class TestSurvivalFunctional:
    def test_matches_survival_rate(self):
        rng = np.random.default_rng(15)
        b = BathParams.maximal(1.0, 1.3, 0.8)
        for _ in range(25):
            d = Direction(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))
            plus, _ = eigenstates_mu(d)
            assert survival_functional_F(b, d) == pytest.approx(
                survival_rate(b, plus), abs=1e-12
            )

    def test_zero_at_maxima(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        zd = zeno_directions(b)
        assert abs(survival_functional_F(b, zd.mu1)) < 1e-12
        assert abs(survival_functional_F(b, zd.mu2)) < 1e-12

    def test_negative_at_north_pole(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        assert survival_functional_F(b, Direction(0.0, 0.0)) < -0.5

    def test_nonpositive_on_grid(self):
        for n, psi in [(0.5, 0.0), (1.0, np.pi / 3), (2.0, np.pi), (5.0, 4.7)]:
            b = BathParams.maximal(1.0, n, psi)
            _, _, f = survival_functional_grid(b)
            assert f.max() < 1e-9

    def test_vacuum_max_at_south_pole(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        thetas, _, f = survival_functional_grid(b)
        i, _ = np.unravel_index(np.argmax(f), f.shape)
        assert thetas[i] == pytest.approx(np.pi)
        assert f.max() == pytest.approx(0.0, abs=1e-12)


class TestSurvivalFunctionalMaximum:
    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(1e-3, 1e3),
        n=st.one_of(st.floats(0.0, 50.0), st.floats(1e-45, 1e-15)),
        fraction=st.floats(0.0, 1.0),
        psi=st.floats(0.0, 2 * np.pi),
    )
    def test_is_minus_gamma_delta_over_2s(self, gamma, n, fraction, psi):
        # For every M the maximum of F, at both zeno_directions, is -gamma delta/(2s) with
        # delta = N(N+1) - M^2 and s = N + 1/2 + M: it is 0 (total Zeno) only at delta = 0.
        b = BathParams(gamma=gamma, n=n, m=fraction * maximal_m(n), psi=psi)
        with mpmath.workdps(50):
            nn, m = mpmath.mpf(b.n), mpmath.mpf(b.m)
            f_max = float(-b.gamma * (nn * (nn + 1) - m**2) / (2 * (nn + 0.5 + m)))
        # 2F is the sum of -slow u_slow^2, -fast u_fast^2, -z cos^2(theta) and -gamma cos(theta),
        # each at most z = gamma(2N+1) in size and each rounded to a few ulp. The float unit
        # vector is a unit vector to a few eps, which moves -slow u_slow^2 by a few eps slow;
        # an error in its angle moves F only at second order, as mu1 is a stationary point.
        # The clip of delta at 0 and a float M a few ulp from the exact root move f_max by
        # about eps z at most. So the error is a few eps z, though F itself may be far smaller:
        # near maximal M at small N the relative error reaches about 3e-11.
        tol = 4 * EPS * b.gamma * (2 * b.n + 1)
        zd = zeno_directions(b)
        for d in (zd.mu1, zd.mu2):
            assert abs(survival_functional_F(b, d) - f_max) <= tol
        _, _, f = survival_functional_grid(b, 16, 16)
        assert f.max() <= f_max + tol


class TestZenoDirections:
    def test_closed_form_n1_psi0(self):
        zd = zeno_directions(BathParams.maximal(1.0, 1.0, 0.0))
        assert zd.mu1.phi == pytest.approx(np.pi / 2)
        assert zd.mu2.phi == pytest.approx(3 * np.pi / 2)
        assert np.cos(zd.theta) == pytest.approx(-1 / (2 * (1.5 + np.sqrt(2))))

    @pytest.mark.parametrize("n", [0.0, 1.0, 7.5])
    def test_independent_of_gamma(self, n):
        # At the smallest gamma the fast rate rounds to a few ulp or to 0; the angle
        # is read off N and M alone.
        expected = zeno_directions(BathParams.maximal(1.0, n, 0.4))
        for gamma in (5e-324, 1e-310, 1e-100, 1e100):
            assert zeno_directions(BathParams.maximal(gamma, n, 0.4)) == expected

    def test_psi_pi(self):
        zd = zeno_directions(BathParams.maximal(1.0, 1.0, np.pi))
        assert zd.mu1.phi == pytest.approx(0.0, abs=1e-12)
        assert zd.mu2.phi == pytest.approx(np.pi)

    def test_thermal_limit_south_pole(self):
        # convergence is slow (the polar deviation scales like N^{1/4})
        deviations = [
            np.pi - zeno_directions(BathParams.maximal(1.0, n)).theta
            for n in (1e-2, 1e-6, 1e-10)
        ]
        assert deviations[0] > deviations[1] > deviations[2] > 0
        assert deviations[2] < 1e-2

    def test_grid_argmax_matches_closed_form(self):
        for n in (0.5, 1.0, 2.0):
            for psi in (0.0, np.pi / 3, np.pi):
                b = BathParams.maximal(1.0, n, psi)
                zd = zeno_directions(b)
                found = find_zeno_directions_grid(b, 128, 128)
                assert len(found) == 2
                targets = [zd.mu1, zd.mu2]
                for d, fval in found:
                    dots = [d.unit_vector @ t.unit_vector for t in targets]
                    assert max(dots) > 1 - 1e-8
                    assert abs(fval) < 1e-10


class TestZenoStates:
    def test_amplitudes_n1_psi0(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        z1, z2 = zeno_states(b)
        m = np.sqrt(2)
        assert z1[0] == pytest.approx(np.sqrt(1 / (1 + m)), abs=1e-12)
        assert z1[1] == pytest.approx(1j * np.sqrt(m / (1 + m)), abs=1e-12)
        assert z2[1] == pytest.approx(-1j * np.sqrt(m / (1 + m)), abs=1e-12)

    def test_equal_eigenstates_of_preferential_observables(self):
        for n, psi in [(0.5, 0.3), (1.0, 0.0), (3.0, np.pi)]:
            b = BathParams.maximal(1.0, n, psi)
            zd = zeno_directions(b)
            z1, z2 = zeno_states(b)
            p1, _ = eigenstates_mu(zd.mu1)
            p2, _ = eigenstates_mu(zd.mu2)
            assert abs(np.vdot(z1, p1)) == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(z2, p2)) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_z_expectation_matches_polar_angle(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        z1, _ = zeno_states(b)
        mean_z = abs(z1[0]) ** 2 - abs(z1[1]) ** 2
        assert mean_z == pytest.approx(np.cos(zeno_directions(b).theta), abs=1e-12)

    def test_minus_branch_same_directions(self):
        # Optimizing survival of the -1 eigenstate lands on the same two
        # preferential directions (with the poles swapped).
        b = BathParams.maximal(1.0, 1.0, 0.6)
        zd = zeno_directions(b)
        n_th, n_ph = 181, 360
        thetas = np.linspace(0, np.pi, n_th)
        phis = np.linspace(0, 2 * np.pi, n_ph, endpoint=False)
        best = (-np.inf, None)
        for th in thetas:
            for ph in phis:
                d = Direction(th, ph)
                _, minus = eigenstates_mu(d)
                rate = survival_rate(b, minus)
                if rate > best[0]:
                    best = (rate, d)
        assert best[0] > -1e-4  # limited by the scan resolution
        # the -1 eigenstate along -mu is the +1 eigenstate along mu
        axis = best[1].unit_vector
        dots = [abs(axis @ zd.mu1.unit_vector), abs(axis @ zd.mu2.unit_vector)]
        assert max(dots) > 1 - 1e-3


class TestRepeatedMeasurementSurvival:
    def test_ground_vacuum_constant(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        curve = repeated_measurement_survival(b, GROUND, MeasurementSchedule(0.1, 50))
        assert np.allclose(curve, 1.0)

    def test_excited_vacuum_continuous_limit(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        sched = MeasurementSchedule(0.01, 500)
        curve = repeated_measurement_survival(b, EXCITED, sched)
        fitted = np.log(curve[-1]) / sched.times[-1]
        assert fitted == pytest.approx(-1.0, rel=0.01)

    def test_nonincreasing_in_range(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        curve = repeated_measurement_survival(b, EXCITED, MeasurementSchedule(0.05, 100))
        assert np.all(np.diff(curve) <= 0)
        assert np.all((curve >= 0) & (curve <= 1))

    def test_richardson_convergence_to_first_order(self):
        # Fitted rate approaches the first-order rate linearly as dt -> 0.
        b = BathParams.maximal(1.0, 1.0, 0.0)
        rate = survival_rate(b, EXCITED)
        errors = []
        for dt in (1e-2, 1e-3, 1e-4):
            sched = MeasurementSchedule(dt, 10)
            curve = repeated_measurement_survival(b, EXCITED, sched)
            fitted = np.log(curve[-1]) / sched.times[-1]
            errors.append(abs(fitted - rate))
        assert errors[0] > errors[1] > errors[2]
        assert errors[1] / errors[0] == pytest.approx(0.1, rel=0.3)

    def test_zeno_plus_rate_linear_in_dt(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        z1, _ = zeno_states(b)
        rates = []
        for dt in (0.01, 0.005):
            sched = MeasurementSchedule(dt, 200)
            curve = repeated_measurement_survival(b, z1, sched)
            rates.append(np.log(curve[-1]) / sched.times[-1])
        assert rates[0] / rates[1] == pytest.approx(2.0, rel=0.05)


class TestStepSurvivalProbability:
    def test_within_unit_interval_for_frozen_states(self):
        # Before the result was clipped, rounding put 0.5 (1 + v0 . v_dt)
        # up to 2 ulp above 1 in 78 of these 4000 nearly frozen cases.
        rng = np.random.default_rng(404)
        for _ in range(2000):
            b = BathParams.maximal(
                10 ** rng.uniform(-3, 2), 10 ** rng.uniform(-4, 2), rng.uniform(0, 2 * np.pi)
            )
            dt = 10 ** rng.uniform(-8, 0)
            for state in zeno_states(b):
                p = step_survival_probability(b, state, dt)
                assert 0.0 <= p <= 1.0, (b, dt, p)


class TestSecondOrderRate:
    def test_vacuum_ground_zero(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        assert second_order_rate(b, GROUND, 0.01) == pytest.approx(0.0, abs=1e-14)

    def test_matches_repeated_measurement_fit(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        z1, _ = zeno_states(b)
        dt = 0.01
        rate2 = second_order_rate(b, z1, dt)
        assert rate2 < 0
        sched = MeasurementSchedule(dt, 100)
        curve = repeated_measurement_survival(b, z1, sched)
        fitted = np.log(curve[-1]) / sched.times[-1]
        assert fitted == pytest.approx(rate2, rel=0.05)

    def test_linear_scaling_in_dt(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        z1, _ = zeno_states(b)
        assert second_order_rate(b, z1, 0.02) == pytest.approx(
            2 * second_order_rate(b, z1, 0.01), abs=1e-15
        )

    def test_precondition_enforced(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        with pytest.raises(ParameterError):
            second_order_rate(b, EXCITED, 0.01)

    def test_gate_scales_with_the_rate_terms(self):
        # The -1 eigenstate of the frozen direction decays at about gamma / (2N): below
        # 1e-10 gamma at N = 1e10, but not small against its own terms.
        b = BathParams.maximal(1.0, 1e10, 0.0)
        minus = eigenstates_mu(zeno_directions(b).mu1)[1]
        assert survival_rate(b, minus) > -1e-10
        with pytest.raises(ParameterError):
            second_order_rate(b, minus, 1e6)
        # The ground state at N = 1e-14 decays at -1e-14 gamma, within the tolerance of its
        # terms (about gamma); its second-order value comes out positive and is clipped.
        assert second_order_rate(BathParams.maximal(1.0, 1e-14), GROUND, 0.01) == 0.0


class TestFrozenAtStrongSqueezing:
    """Total freezing of both frozen states from the thermal limit to strong squeezing.

    A frozen state given by float amplitudes lies about eps off the exact one, where
    the rate is stationary with curvature at most gamma(2N + 1); so its exact rate is
    within a few ulp of the slow rate plus a floor of order z eps^2, which dominates
    from N of about 1e8 on.
    """

    @settings(max_examples=200, deadline=None)
    @given(log_n=st.floats(-6.0, 12.0), psi=st.floats(0.0, 2 * np.pi, exclude_max=True))
    def test_frozen_states(self, log_n, psi):
        b = BathParams.maximal(1.0, 10.0**log_n, psi)
        fast, slow, z = b.rates
        rate_tol = 16 * EPS * (slow + EPS * z)
        zd = zeno_directions(b)
        grid = TimeGrid(1e3 / slow, 4)
        for state, direction in zip(zeno_states(b), (zd.mu1, zd.mu2)):
            assert abs(survival_rate(b, state)) <= rate_tol
            assert abs(survival_functional_F(b, direction)) <= rate_tol
            assert second_order_rate(b, state, 0.01) <= 0.0
            values = evolve_measured(b, direction, pure_state_bloch(state), grid)
            assert np.all(np.abs(values - 1.0) <= 2 * rate_tol / slow), values


class TestMonteCarloSurvival:
    def test_ground_vacuum_all_survive(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        fractions, stderr = monte_carlo_survival(b, GROUND, MeasurementSchedule(0.1, 20), 1000, 1)
        assert np.allclose(fractions, 1.0)
        assert np.allclose(stderr, 0.0)

    def test_matches_exact_within_three_sigma(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        sched = MeasurementSchedule(0.05, 100)
        exact = repeated_measurement_survival(b, EXCITED, sched)
        fractions, stderr = monte_carlo_survival(b, EXCITED, sched, 100000, 42)
        dev = np.abs(fractions - exact)[1:]
        bound = 3 * np.maximum(stderr[1:], 1e-12)
        assert np.all(dev <= bound)

    def test_within_bernstein_bound_for_every_seed(self):
        # Each trajectory survives k steps on its own with probability P = p^k, so
        # |P_mc - P| <= sqrt(2 var u / n) + 2u / (3n), var = P(1 - P), fails at one
        # point with probability at most alpha = 2 exp(-u) (Bernstein; the bound of
        # bench/checks.py). alpha is split over every point of every seed, so the
        # test fails for a correct sampler with probability below 1e-6 at any seed.
        cases = [
            (BathParams(gamma=1.0, n=0.0, m=0.0), EXCITED, MeasurementSchedule(0.05, 100)),
            (BathParams.maximal(1.0, 1.0, 0.0), EXCITED, MeasurementSchedule(0.02, 150)),
            (
                BathParams.maximal(1.0, 2.0, 1.3),
                zeno_states(BathParams.maximal(1.0, 2.0, 1.3))[0],
                MeasurementSchedule(0.05, 100),
            ),
        ]
        seeds, n_traj = range(1000, 1400), 100000
        points = len(seeds) * sum(sched.count for _, _, sched in cases)
        u = np.log(2.0 / (1e-6 / points))
        for b, state, sched in cases:
            exact = repeated_measurement_survival(b, state, sched)[1:]
            var = np.clip(exact * (1.0 - exact), 0.0, None)
            bound = np.sqrt(2.0 * var * u / n_traj) + 2.0 * u / (3.0 * n_traj)
            for seed in seeds:
                fractions, _ = monte_carlo_survival(b, state, sched, n_traj, seed)
                assert np.all(np.abs(fractions[1:] - exact) <= bound), seed

    def test_deterministic_for_fixed_seed(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        sched = MeasurementSchedule(0.02, 50)
        z1, _ = zeno_states(b)
        a = monte_carlo_survival(b, z1, sched, 5000, 7)
        c = monte_carlo_survival(b, z1, sched, 5000, 7)
        assert np.array_equal(a[0], c[0])
        assert np.array_equal(a[1], c[1])

    def test_largest_n_traj(self):
        # One bool per trajectory would take 9 PB here; the count chain takes count + 1 ints.
        b = BathParams.maximal(1.0, 1.0, 0.7)
        for state in (EXCITED, zeno_states(b)[0]):
            f, _ = monte_carlo_survival(b, state, MeasurementSchedule(0.01, 500), 2**53, 3)
            assert f[0] == 1.0
            assert np.all((f >= 0) & (f <= 1))
            assert np.all(np.diff(f) <= 0)

    @pytest.mark.parametrize(
        "counts",
        [
            lambda *args: np.rint(monte_carlo_survival(*args)[0] * args[3]),
            per_trajectory_survival,
        ],
        ids=["binomial_chain", "per_trajectory"],
    )
    def test_joint_law_of_survivor_counts(self, counts):
        # Survivor counts form a Markov chain: a_k ~ Binomial(a_{k-1}, p).
        # Chi-square of (a1, a2, a3) over 5000 seeds against that exact law.
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        sched, n_traj = MeasurementSchedule(0.5, 3), 3
        p = np.exp(-0.5)
        seen = Counter(tuple(int(a) for a in counts(b, EXCITED, sched, n_traj, seed)[1:])
                       for seed in range(5000))
        cells = [(a1, a2, a3) for a1 in range(n_traj + 1) for a2 in range(a1 + 1)
                 for a3 in range(a2 + 1)]
        expected = 5000 * np.array(
            [binom.pmf(a1, n_traj, p) * binom.pmf(a2, a1, p) * binom.pmf(a3, a2, p)
             for a1, a2, a3 in cells]
        )
        observed = np.array([seen[c] for c in cells])
        assert observed.sum() == 5000
        # Every one of the 20 cells expects at least 15 draws, so none needs pooling.
        assert expected.min() >= 5
        stat = np.sum((observed - expected) ** 2 / expected)
        assert chi2.sf(stat, len(expected) - 1) > 1e-6

    def test_n_traj_validated(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        with pytest.raises(ParameterError):
            monte_carlo_survival(b, GROUND, MeasurementSchedule(0.1, 5), 0, 0)


def test_schedule_validation():
    with pytest.raises(ParameterError):
        MeasurementSchedule(0.0, 5)
    with pytest.raises(ParameterError):
        MeasurementSchedule(0.1, 0)


@pytest.mark.parametrize(
    "dt, count", [(0.01, 500), (1e-3, 4097), (0.1, 1), (5e-324, 3), (1e300, 100)]
)
def test_schedule_times(dt, count):
    # The axis of every survival curve: bit for bit the k dt the survival functions built.
    sched = MeasurementSchedule(dt, count)
    expected = np.arange(count + 1) * dt
    assert np.array_equal(sched.times.view(np.int64), expected.view(np.int64))
    assert np.all(np.diff(sched.times) > 0)
