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
    evolve_measured,
    maximal_m,
    monte_carlo_survival,
    pure_state_bloch,
    relax,
    repeated_measurement_survival,
    second_order_rate,
    step_survival_probability,
    survival_laws,
    survival_rate,
    zeno_directions,
    zeno_states,
)
from squeezed_zeno.bath import ZenoDirections, survival_functional_rows
from squeezed_zeno.errors import ParameterError
from squeezed_zeno.table import ROWS_PER_CHUNK

from oracles import (
    EXCITED,
    GROUND,
    bernstein_bound,
    eigenstates_mu,
    find_zeno_directions_grid,
    oracle_bloch_rates,
    oracle_survival_functional_grid,
    per_trajectory_survival,
)

EPS = np.finfo(float).eps


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


def survival_functional(b, d):
    """F at d: the survival rate of the +1 eigenstate of sigma . mu_hat."""
    return survival_rate(b, eigenstates_mu(d)[0])


def functional_grid(b, n_theta=256, n_phi=256):
    """survival_functional_rows as arrays: (thetas, phis, F of shape (n_theta, n_phi))."""
    thetas, phis, rows = survival_functional_rows(b, n_theta, n_phi)
    return np.array(thetas), np.array(phis), np.array(list(rows))


class TestSurvivalFunctional:
    def test_matches_survival_rate(self):
        # That eigenstate has Bloch vector mu, so F = mu . (A mu + c) / 2 of the oracle's (A, c).
        rng = np.random.default_rng(15)
        b = BathParams.maximal(1.0, 1.3, 0.8)
        a, c = oracle_bloch_rates(b)
        for _ in range(25):
            d = Direction(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))
            mu = np.array(d.unit_vector)
            assert survival_functional(b, d) == pytest.approx(0.5 * mu @ (a @ mu + c), abs=1e-12)

    def test_zero_at_maxima(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        zd = zeno_directions(b)
        assert abs(survival_functional(b, zd.mu1)) < 1e-12
        assert abs(survival_functional(b, zd.mu2)) < 1e-12

    def test_negative_at_north_pole(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        assert survival_functional(b, Direction(0.0, 0.0)) < -0.5

    def test_nonpositive_on_grid(self):
        for n, psi in [(0.5, 0.0), (1.0, np.pi / 3), (2.0, np.pi), (5.0, 4.7)]:
            b = BathParams.maximal(1.0, n, psi)
            _, _, f = functional_grid(b)
            assert f.max() < 1e-9

    def test_vacuum_max_at_south_pole(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        thetas, _, f = functional_grid(b)
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
            assert abs(survival_functional(b, d) - f_max) <= tol
        _, _, f = functional_grid(b, 16, 16)
        assert f.max() <= f_max + tol


class TestSurvivalFunctionalGridPeriod:
    @settings(max_examples=150, deadline=None)
    @given(
        gamma=st.floats(1e-3, 1e3),
        n=st.one_of(st.floats(0.0, 50.0), st.floats(1e-45, 1e-15), st.floats(1.0, 1e8)),
        fraction=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        psi=st.floats(0.0, 2 * np.pi),
        n_theta=st.integers(1, 24),
        half=st.integers(1, 35),
    )
    def test_second_half_repeats_the_first(self, gamma, n, fraction, psi, n_theta, half):
        b = BathParams(gamma=gamma, n=n, m=fraction * maximal_m(n), psi=psi)
        thetas, phis, f = functional_grid(b, n_theta, 2 * half)
        # q(phi + pi) = q(phi): the grid repeats its values, bit for bit (0.0 and -0.0 apart).
        assert np.array_equal(f[:, :half].view(np.int64), f[:, half:].view(np.int64))
        # Each cell against F at its own angles. Both sum four terms of size at most
        # z = gamma(2N+1), each rounded a few times: a few eps z between them. A cell of the
        # second half has q at phi_j - pi: both linspace angles are within eps of their exact
        # values per unit of angle, so |phi_j - phi_{j-half} - pi| <= 3 pi eps, and
        # |dF/dphi| = sin^2(theta) |q'(phi)| / 2 <= (fast - slow) / 2 <= z / 2 moves F by at
        # most 1.5 pi eps z < 5 eps z. The worst of 1500 random draws was 2.4 eps z.
        tol = 8 * EPS * b.gamma * (2 * b.n + 1)
        expected = [[survival_functional(b, Direction(t, p)) for p in phis] for t in thetas]
        assert np.max(np.abs(f - expected)) <= tol


def bits(values) -> np.ndarray:
    """The int64 bit patterns of floats, so that 0.0 and -0.0, and NaN payloads, differ."""
    return np.asarray(values, dtype=np.float64).view(np.int64)


class TestSurvivalFunctionalRows:
    """The scalar kernel against the vectorized numpy oracle, bit for bit."""

    # One grid row, one angle, odd widths, and rows one and two cells wider than a block.
    SHAPES = [
        (1, 1), (1, 6), (7, 1), (5, 7), (16, 16), (9, 33),
        (2, ROWS_PER_CHUNK + 1), (2, ROWS_PER_CHUNK + 2),
    ]

    def assert_same_bits(self, bath, n_theta, n_phi):
        thetas, phis, rows = survival_functional_rows(bath, n_theta, n_phi)
        rows = list(rows)
        want_thetas, want_phis, want_f = oracle_survival_functional_grid(bath, n_theta, n_phi)
        assert thetas.typecode == phis.typecode == "d"
        assert all(type(x) is float for row in rows for x in row)
        assert np.array_equal(bits(thetas), bits(want_thetas))
        assert np.array_equal(bits(phis), bits(want_phis))
        assert np.array_equal(bits(rows), bits(want_f))

    @pytest.mark.parametrize("n_theta, n_phi", SHAPES)
    @pytest.mark.parametrize(
        "bath",
        [
            BathParams(1.0, 0.0, 0.0, 0.0),
            BathParams.maximal(1.0, 1.0, 0.7),
            BathParams(2.5, 3.0, 1.2, 4.0),
            BathParams.maximal(1e-3, 1e8, 5.5),
            # Every term rounds to -0.0 off the poles, so F is -0.0 there before the clip.
            BathParams(5e-324, 0.0, 0.0, 0.0),
        ],
        ids=["vacuum", "maximal", "non-maximal", "strong", "subnormal-gamma"],
    )
    def test_matches_the_oracle(self, bath, n_theta, n_phi):
        self.assert_same_bits(bath, n_theta, n_phi)

    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(1e-3, 1e3),
        n=st.one_of(st.just(0.0), st.floats(0.0, 50.0), st.floats(1e-45, 1e-15)),
        fraction=st.one_of(st.just(1.0), st.floats(0.0, 1.0)),
        psi=st.floats(-10.0, 10.0),
        n_theta=st.integers(1, 12),
        n_phi=st.integers(1, 40),
    )
    def test_random_baths_match_the_oracle(self, gamma, n, fraction, psi, n_theta, n_phi):
        bath = BathParams(gamma=gamma, n=n, m=fraction * maximal_m(n), psi=psi)
        self.assert_same_bits(bath, n_theta, n_phi)

    def test_rows_are_made_one_at_a_time(self):
        _, _, rows = survival_functional_rows(BathParams.maximal(1.0, 1.0), 3, 4)
        assert len(next(rows)) == 4
        assert len(list(rows)) == 2


class TestZenoDirections:
    @pytest.mark.parametrize("n, m, psi", [(1.0, None, 0.3), (0.0, 0.0, 6.0), (3.0, 0.4, np.pi)])
    def test_directions_are_the_closed_form_angles(self, n, m, psi):
        b = BathParams.maximal(1.0, n, psi) if m is None else BathParams(1.0, n, m, psi)
        zd = zeno_directions(b)
        # phi1 = (pi - psi)/2 and phi2 = phi1 + pi, on the slow mode axis, reduced to [0, 2 pi].
        phi1 = (np.pi - b.psi) / 2
        assert zd.theta == zd.mu1.theta == zd.mu2.theta
        assert (zd.mu1.phi, zd.mu2.phi) == (phi1 % (2 * np.pi), (phi1 + np.pi) % (2 * np.pi))
        # theta is within an ulp of the exact arccos of its rounded cosine -1/(2(N + 1/2 + M)).
        with mpmath.workdps(50):
            error = abs(mpmath.mpf(zd.theta) - mpmath.acos(mpmath.mpf(-0.5 / (b.n + 0.5 + b.m))))
        assert error <= np.spacing(zd.theta)

    def test_closed_form_n1_psi0(self):
        zd = zeno_directions(BathParams.maximal(1.0, 1.0, 0.0))
        assert isinstance(zd, ZenoDirections)
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
                    dots = [np.array(d.unit_vector) @ t.unit_vector for t in targets]
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
        axis = np.array(best[1].unit_vector)
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

    def test_zeno_limit_for_frozen_states(self):
        # As dt -> 0 a frozen state's one-step loss 1 - p is the second-order loss
        # -second_order_rate dt, to within 1 % plus the 2**-53 spacing of doubles below 1,
        # and p never decreases. Propagating the Bloch vector and reading 0.5 (1 + v0 . v_dt)
        # instead left 1 - p at 2 to 4 times 2**-53 for every dt below about 1e-8 / gamma(2N+1).
        rng = np.random.default_rng(505)
        scaled_dts = np.logspace(-3, -12, 37)
        for _ in range(200):
            b = BathParams.maximal(
                10 ** rng.uniform(-3, 2), 10 ** rng.uniform(-4, 2), rng.uniform(0, 2 * np.pi)
            )
            for state in zeno_states(b):
                dts = scaled_dts / b.rates.z
                ps = np.array([step_survival_probability(b, state, dt) for dt in dts])
                second = np.array([-second_order_rate(b, state, dt) * dt for dt in dts])
                assert np.all(np.abs((1.0 - ps) - second) <= 0.01 * second + 2.0**-53), (b, ps)
                assert np.all(np.diff(ps) >= 0.0), (b, ps)


def checked_survival_laws(bath, state, sched):
    """survival_laws, checked: the first curve is the first-order law bit for bit, and the
    second is all NaN exactly where second_order_rate raises, else that law bit for bit."""
    first, second = survival_laws(bath, state, sched)
    assert np.array_equal(first, relax(1.0, -survival_rate(bath, state), sched.times))
    try:
        rate = second_order_rate(bath, state, sched.dt)
    except ParameterError:
        assert np.all(np.isnan(second))
    else:
        assert np.array_equal(second, relax(1.0, -rate, sched.times))
    return first, second


class TestSecondOrderRate:
    def test_vanishing_value_is_zero_at_infinite_dt(self):
        # At N = 0 the ground state's value is 0: 0 * inf would give NaN, not a rate <= 0.
        b = BathParams(1.0, 0.0, 0.0)
        assert second_order_rate(b, [0, 1], np.inf) == 0.0
        z1, _ = zeno_states(BathParams.maximal(1.0, 1.0))
        assert second_order_rate(BathParams.maximal(1.0, 1.0), z1, np.inf) == -np.inf

    def test_vacuum_ground_zero(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        assert second_order_rate(b, GROUND, 0.01) == pytest.approx(0.0, abs=1e-14)
        _, second = checked_survival_laws(b, GROUND, MeasurementSchedule(0.01, 5))
        assert np.all(second == 1.0)

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
        first, _ = checked_survival_laws(b, z1, sched)
        assert np.all(first == 1.0)

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
        first, second = checked_survival_laws(b, EXCITED, MeasurementSchedule(0.01, 5))
        assert np.all(np.diff(first) < 0) and np.all(np.isnan(second))

    def test_gate_scales_with_the_rate_terms(self):
        # The -1 eigenstate of the frozen direction decays at about gamma / (2N): below
        # 1e-10 gamma at N = 1e10, but not small against its own terms.
        b = BathParams.maximal(1.0, 1e10, 0.0)
        minus = eigenstates_mu(zeno_directions(b).mu1)[1]
        assert survival_rate(b, minus) > -1e-10
        with pytest.raises(ParameterError):
            second_order_rate(b, minus, 1e6)
        assert np.all(np.isnan(checked_survival_laws(b, minus, MeasurementSchedule(1e6, 2))[1]))
        # The ground state at N = 1e-14 decays at -1e-14 gamma, within the tolerance of its
        # terms (about gamma); its second-order value comes out positive and is clipped.
        b = BathParams.maximal(1.0, 1e-14)
        assert second_order_rate(b, GROUND, 0.01) == 0.0
        assert np.all(checked_survival_laws(b, GROUND, MeasurementSchedule(0.01, 3))[1] == 1.0)


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
            assert abs(survival_functional(b, direction)) <= rate_tol
            assert second_order_rate(b, state, 0.01) <= 0.0
            _, second = checked_survival_laws(b, state, MeasurementSchedule(0.01, 3))
            assert np.all(np.diff(second) <= 0.0)
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
        # Each trajectory survives k steps on its own with probability P = p^k, and
        # bernstein_bound (the bound of bench/checks.py) fails at one point with
        # probability at most alpha. alpha is split over every point of every seed, so
        # the test fails for a correct sampler with probability below 1e-6 at any seed.
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
        for b, state, sched in cases:
            exact = repeated_measurement_survival(b, state, sched)[1:]
            bound = bernstein_bound(exact, n_traj, 1e-6 / points)
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
