import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from squeezed_zeno import (
    BathParams,
    TimeGrid,
    analytic_free,
    bloch_to_matrix,
    eigenstates_mu,
    evolve_free,
    evolve_measured,
    matrix_to_bloch,
    maximal_m,
    measured_coefficients,
    pure_state_bloch,
    pure_state_matrix,
    sigma_mu,
    step_survival_probability,
    zeno_directions,
    zeno_states,
)
from squeezed_zeno.errors import ParameterError
from squeezed_zeno.pauli import Direction

from oracles import expm_propagator, liouvillian, measurement_modified_rhs, rk4_free


def random_bloch(rng, surface=False):
    v = rng.normal(size=3)
    v /= np.linalg.norm(v)
    if not surface:
        v *= rng.uniform(0, 1)
    return v


class TestEvolveFree:
    def test_vacuum_ground_constant(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        v = evolve_free(b, [0, 0, -1], TimeGrid(3, 30))
        assert np.max(np.abs(v - np.array([0, 0, -1.0]))) < 1e-10

    def test_vacuum_excited_decay(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        grid = TimeGrid(3, 30)
        v = evolve_free(b, [0, 0, 1], grid)
        expected = 2 * np.exp(-grid.times) - 1
        assert np.max(np.abs(v[:, 2] - expected)) < 1e-9

    def test_zeno_plus_free_decay_toward_steady(self):
        # Without measurements the frozen state is not stationary.
        b = BathParams.maximal(1.0, 1.0, 0.0)
        zd = zeno_directions(b)
        z1, _ = zeno_states(b)
        # slowest mode relaxes at gamma(N + 1/2 - M) ~ 0.086, so go far out
        v = evolve_free(b, pure_state_bloch(z1), TimeGrid(200, 40))
        mu = zd.mu1.unit_vector
        proj = v @ mu
        assert proj[0] == pytest.approx(1.0, abs=1e-12)
        assert proj[-1] < proj[0]
        # long-time value approaches mu . v_steady
        v_steady = np.array([0, 0, -1 / 3])
        assert proj[-1] == pytest.approx(mu @ v_steady, abs=1e-3)


class TestAnalyticFree:
    def test_t0_identity(self):
        b = BathParams.maximal(1.0, 2.0, 1.1)
        v0 = np.array([0.3, -0.2, 0.4])
        assert np.allclose(analytic_free(b, v0, 0.0), v0)

    def test_long_time_steady_state(self):
        rng = np.random.default_rng(11)
        for n in (0.0, 0.5, 1.0, 2.0):
            b = BathParams.maximal(1.0, n, rng.uniform(0, 2 * np.pi))
            slowest = min(2 * n + 1, n + 0.5 - b.m)  # transverse slow mode
            v = analytic_free(b, random_bloch(rng), 50.0 / slowest)
            assert np.max(np.abs(v - np.array([0, 0, -1 / (2 * n + 1)]))) < 1e-8

    def test_fast_mode_at_psi0(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        v = analytic_free(b, np.array([1.0, 0, 0]), 1.0)
        assert v[0] == pytest.approx(np.exp(-(1.5 + np.sqrt(2))), abs=1e-12)
        assert v[1] == pytest.approx(0.0, abs=1e-14)

    def test_matches_rk4(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            n = rng.uniform(0, 3)
            b = BathParams.maximal(1.0, n, rng.uniform(0, 2 * np.pi))
            v0 = random_bloch(rng, surface=bool(rng.integers(2)))
            grid = TimeGrid(5.0, 25)
            numeric = rk4_free(b, v0, grid)
            exact = analytic_free(b, v0, grid.times)
            assert np.max(np.abs(numeric - exact)) < 1e-8


class TestAnalyticFreeBounds:
    @settings(max_examples=300, deadline=None)
    @given(
        gamma=st.floats(0.01, 10.0),
        n=st.floats(0.0, 10.0),
        fraction=st.just(1.0) | st.floats(0.0, 1.0),
        psi=st.floats(0.0, 2 * np.pi),
        v=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        radius=st.just(1.0) | st.floats(0.0, 1.0),
        times=st.lists(st.just(0.0) | st.floats(0.0, 100.0), min_size=1, max_size=16),
    )
    # Before analytic_free rescaled its rows, the t = 0 row here had |v| = 1 + 2.2e-16.
    @example(
        gamma=2.0, n=1.0, fraction=1.0, psi=0.1, v=(0.6, 0.8, 0.0), radius=1.0,
        times=[0.0, 0.5],
    )
    def test_bloch_vector_stays_in_unit_ball(self, gamma, n, fraction, psi, v, radius, times):
        b = BathParams(gamma=gamma, n=n, m=fraction * maximal_m(n), psi=psi)
        norm = np.linalg.norm(v)
        v0 = radius * np.array(v) / norm if norm > 0 else np.zeros(3)
        values = analytic_free(b, v0, np.array(times))
        for row in values:
            assert np.linalg.norm(row) <= 1.0
            # The density matrix of each row has unit trace.
            assert np.trace(bloch_to_matrix(row)).real == pytest.approx(1.0, abs=1e-15)


class TestAgainstMatrixExponential:
    """Closed-form propagator against expm of the augmented Bloch generator.

    Covers sub-maximal correlation M and gamma != 1, which the tests
    built on BathParams.maximal do not reach.
    """

    TIMES = (1e-3, 0.1, 1.0, 7.0)

    @staticmethod
    def random_baths(rng, count=20):
        for _ in range(count):
            n = rng.uniform(0, 3)
            yield BathParams(
                gamma=rng.uniform(0.2, 3.0),
                n=n,
                m=rng.uniform(0, 1) * maximal_m(n),
                psi=rng.uniform(0, 2 * np.pi),
            )

    def test_evolve_free(self):
        rng = np.random.default_rng(15)
        for b in self.random_baths(rng):
            v0 = random_bloch(rng)
            for t in self.TIMES:
                grid = TimeGrid(t, 1)
                p_mat, q = expm_propagator(b, grid.times[1] - grid.times[0])
                v = evolve_free(b, v0, grid)
                assert np.max(np.abs(v[1] - (p_mat @ v0 + q))) < 1e-12

    def test_step_survival_probability(self):
        rng = np.random.default_rng(16)
        for b in self.random_baths(rng):
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            state = raw / np.linalg.norm(raw)
            v0 = matrix_to_bloch(pure_state_matrix(state))
            for t in self.TIMES:
                p_mat, q = expm_propagator(b, t)
                expected = 0.5 * (1.0 + v0 @ (p_mat @ v0 + q))
                assert abs(step_survival_probability(b, state, t) - expected) < 1e-12


class TestMeasuredCoefficients:
    def test_mu1_closed_form(self):
        # alpha = 2 gamma (N - M + 1/2), beta = -alpha for the first
        # preferential direction.
        for n, psi in [(0.5, 0.0), (1.0, 0.0), (2.0, 1.3), (1.0, np.pi)]:
            b = BathParams.maximal(1.0, n, psi)
            alpha, beta = measured_coefficients(b, zeno_directions(b).mu1)
            expected = 2 * (n - b.m + 0.5)
            assert alpha == pytest.approx(expected, abs=1e-12)
            assert beta == pytest.approx(-expected, abs=1e-12)

    def test_mu2_same_coefficients(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        a1 = measured_coefficients(b, zeno_directions(b).mu1)
        a2 = measured_coefficients(b, zeno_directions(b).mu2)
        assert a1 == pytest.approx(a2, abs=1e-12)

    def test_n1_value(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        alpha, _ = measured_coefficients(b, zeno_directions(b).mu1)
        assert alpha == pytest.approx(2 * (1.5 - np.sqrt(2)), abs=1e-12)

    def test_vacuum_z_reproduces_free_equation(self):
        # Monitoring sigma_z in vacuum: scalar ODE must match
        # d rho_z/dt = -gamma - gamma rho_z.
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        alpha, beta = measured_coefficients(b, Direction(0.0, 0.0))
        assert alpha == pytest.approx(-1.0, abs=1e-13)
        assert beta == pytest.approx(-1.0, abs=1e-13)


class TestEvolveMeasured:
    def test_zeno_plus_frozen(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        z1, _ = zeno_states(b)
        values = evolve_measured(b, zeno_directions(b).mu1, pure_state_bloch(z1), TimeGrid(5, 100))
        assert np.max(np.abs(values - 1.0)) < 1e-10

    def test_zeno_minus_exponential_approach(self):
        b = BathParams.maximal(1.0, 1.0, 0.0)
        d = zeno_directions(b).mu1
        _, minus = eigenstates_mu(d)
        grid = TimeGrid(5, 100)
        values = evolve_measured(b, d, pure_state_bloch(minus), grid)
        alpha = 2 * (1.5 - np.sqrt(2))
        expected = 1 - 2 * np.exp(-alpha * grid.times)
        assert np.max(np.abs(values - expected)) < 1e-8

    def test_vacuum_z_measurement_same_as_free(self):
        b = BathParams(gamma=1.0, n=0.0, m=0.0)
        grid = TimeGrid(3, 60)
        v0 = [0, 0, 1]
        values = evolve_measured(b, Direction(np.pi, 0.0), v0, grid)
        free = evolve_free(b, v0, grid)
        # measured <sigma_mu> with mu = -z equals -<sigma_z> of free evolution
        assert np.max(np.abs(values - (-free[:, 2]))) < 1e-8

    def test_off_manifold_state_dephased(self):
        # The first measurement removes the coherence of [1, 0, 0] in the sigma_z basis.
        b = BathParams.maximal(1.0, 1.0, 0.0)
        grid = TimeGrid(1, 10)
        values = evolve_measured(b, Direction(0.0, 0.0), [1.0, 0, 0], grid)
        assert np.array_equal(values, evolve_measured(b, Direction(0.0, 0.0), [0, 0, 0], grid))

    def test_monotone_convergence_to_plus(self):
        rng = np.random.default_rng(13)
        b = BathParams.maximal(1.0, 1.5, 0.7)
        d = zeno_directions(b).mu1
        mu = d.unit_vector
        for _ in range(10):
            rho_mu0 = rng.uniform(-1, 1)
            values = evolve_measured(b, d, rho_mu0 * mu, TimeGrid(150, 50))
            diffs = np.diff(values)
            assert np.all(diffs >= -1e-12)
            assert values[-1] == pytest.approx(1.0, abs=1e-5)


class TestEvolveMeasuredBounds:
    @settings(max_examples=200, deadline=None)
    @given(
        gamma=st.floats(0.01, 10.0),
        n=st.floats(0.0, 10.0),
        fraction=st.just(1.0) | st.floats(0.0, 1.0),
        psi=st.floats(0.0, 2 * np.pi),
        direction=st.sampled_from(["mu1", "mu2"])
        | st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)),
        state=st.sampled_from(["zeno-plus", "plus", "minus"])
        | st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)),
        t_end=st.floats(1e-3, 50.0),
        n_steps=st.integers(1, 256),
    )
    # Before evolve_measured clipped its values, this one gave 1.0000000000000004.
    @example(
        gamma=1.0, n=1.0, fraction=1.0, psi=0.0, direction="mu1", state="zeno-plus",
        t_end=5.0, n_steps=200,
    )
    def test_expectation_within_unit_interval(
        self, gamma, n, fraction, psi, direction, state, t_end, n_steps
    ):
        b = BathParams(gamma=gamma, n=n, m=fraction * maximal_m(n), psi=psi)
        if isinstance(direction, str):
            d = getattr(zeno_directions(b), direction)
        else:
            d = Direction(*direction)
        if state == "zeno-plus" and b.n > 0:
            v0 = pure_state_bloch(zeno_states(b)[0])
        elif isinstance(state, str):
            v0 = pure_state_bloch(eigenstates_mu(d)[state == "minus"])
        else:
            v = np.array(state)
            v0 = v / max(1.0, np.linalg.norm(v))
        values = evolve_measured(b, d, v0, TimeGrid(t_end, n_steps))
        assert np.all(np.abs(values) <= 1.0)


class TestEvolveMeasuredScaling:
    # Every rate scales with gamma, so a bath k times faster run for a k-th of the
    # time gives the same curve.
    @settings(max_examples=300, deadline=None)
    @given(
        log_gamma=st.floats(-100.0, 100.0),
        log_k=st.floats(-20.0, 20.0),
        n=st.floats(0.0, 10.0),
        fraction=st.just(1.0) | st.floats(0.0, 1.0),
        psi=st.floats(0.0, 2 * np.pi),
        direction=st.tuples(st.floats(0.0, np.pi), st.floats(0.0, 2 * np.pi)),
        rho_mu0=st.floats(-1.0, 1.0),
        gamma_t_end=st.floats(1e-3, 50.0),
        n_steps=st.integers(1, 64),
    )
    # gamma k = 1e-20: |beta| is far below any cut-off that does not scale with gamma.
    @example(
        log_gamma=0.0, log_k=-20.0, n=0.0, fraction=0.0, psi=0.0, direction=(0.0, 0.0),
        rho_mu0=1.0, gamma_t_end=100.0, n_steps=2,
    )
    def test_invariant_under_time_rescaling(
        self, log_gamma, log_k, n, fraction, psi, direction, rho_mu0, gamma_t_end, n_steps
    ):
        gamma, k = 10.0**log_gamma, 10.0**log_k
        d = Direction(*direction)
        v0 = rho_mu0 * d.unit_vector

        def bath(rate_scale):
            return BathParams(gamma=gamma * rate_scale, n=n, m=fraction * maximal_m(n), psi=psi)

        def curve(rate_scale):
            grid = TimeGrid(gamma_t_end / (gamma * rate_scale), n_steps)
            return evolve_measured(bath(rate_scale), d, v0, grid)

        # beta is a sum of rates up to gamma(2N+1), each rounded on its own, so the
        # curves agree to a few ulp of gamma(2N+1) / |beta|, 1 where nothing cancels.
        _, beta = measured_coefficients(bath(1.0), d)
        condition = gamma * (2 * n + 1) / abs(beta)
        tol = 8 * condition * np.finfo(float).eps
        np.testing.assert_allclose(curve(k), curve(1.0), rtol=0, atol=tol)


class TestTraceIdentity:
    def test_modified_equals_free_trace(self):
        # Tr{(P L P + Q L Q) sigma_mu} = Tr{L sigma_mu} on mu-diagonal states.
        rng = np.random.default_rng(14)
        b = BathParams.maximal(1.0, 1.0, 0.9)
        d = Direction(1.1, 2.3)
        smu = sigma_mu(d)
        mu = d.unit_vector
        for _ in range(100):
            rho = bloch_to_matrix(rng.uniform(-1, 1) * mu)
            lhs = np.trace(measurement_modified_rhs(b, d, rho) @ smu).real
            rhs = np.trace(liouvillian(b, rho) @ smu).real
            assert abs(lhs - rhs) < 1e-12


def test_timegrid_validation():
    with pytest.raises(ParameterError):
        TimeGrid(-0.5, 10)
    with pytest.raises(ParameterError):
        TimeGrid(1.0, 0)
