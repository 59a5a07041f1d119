import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtr
from scipy.stats import kstest

from steinkit.discrete import (
    base_surrogate,
    bin_indices,
    bin_thresholds,
    continuize_data,
    gamma_map,
    ising_surrogate,
    pc_log_density,
    sample_discrete,
    sign_relaxation,
    sign_relaxation_deriv,
    smooth_relaxation_surrogate,
    state_index_rows,
    uniform_ks_statistic,
    within_bin_ks,
    within_bin_positions,
)
from steinkit.errors import InvalidLambdaError
from steinkit.kernels import KernelSpec
from steinkit.models import (
    ContinuousTarget,
    DiscreteTarget,
    bernoulli_rbm_target,
    brute_force_distribution,
    enumerate_states,
    finite_difference_score,
    grid_ising,
    ising_target,
    random_bernoulli_rbm,
    sample_discrete_target,
)
from steinkit.rngs import stream_rng
from steinkit.svgd import StepSchedule


def categorical_target(states, masses):
    states = tuple(float(s) for s in states)
    masses = np.asarray(masses, dtype=float)
    lookup = {s: np.log(m) for s, m in zip(states, masses)}

    def log_mass(z):
        return np.array([sum(lookup[v] for v in row) for row in z])

    return DiscreteTarget(dims=1, alphabet=states, log_mass=log_mass)


def erf_series(x: float) -> float:
    """Taylor series of erf, independent of any library implementation."""
    total, term = 0.0, x
    n = 0
    while abs(term) > 1e-18 * max(abs(total), 1.0):
        total += term / (2 * n + 1)
        n += 1
        term *= -x * x / n
    return 2.0 / math.sqrt(math.pi) * total


def phi_series(x: float) -> float:
    return 0.5 * (1.0 + erf_series(x / math.sqrt(2.0)))


class TestInverseNormalCdf:
    # the thresholds eta_i = Phi^-1(i/K) of bin_thresholds
    def test_median_is_zero(self):
        # every Ising and RBM run bins by these bits, shared read-only by every caller
        assert bin_thresholds(2).tolist() == [-np.inf, 0.0, np.inf]
        assert not bin_thresholds(2).flags.writeable

    def test_quartile_against_bisection_oracle(self):
        # bisection on a series-based Phi, fully independent of the implementation
        lo, hi = -2.0, 0.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if phi_series(mid) < 0.25:
                lo = mid
            else:
                hi = mid
        oracle = 0.5 * (lo + hi)
        eta = bin_thresholds(4)
        assert eta[1] == pytest.approx(oracle, abs=1e-12)
        assert eta[1] == pytest.approx(-0.674490, abs=1e-6)
        assert eta[2] == 0.0


class TestGammaMap:
    def test_binary_is_sign_with_upper_boundary(self):
        t = ising_target(np.zeros((1, 1)))
        x = np.array([[-0.3], [0.0], [2.0]])
        assert np.array_equal(gamma_map(x, t), np.array([[-1.0], [1.0], [1.0]]))

    def test_five_state_origin_lands_in_middle(self):
        t = categorical_target([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2] * 5)
        assert gamma_map(np.array([[0.0]]), t)[0, 0] == 0.0
        # eta_2 = Phi^-1(0.4) < 0 <= eta_3 = Phi^-1(0.6)
        assert bin_thresholds(5)[2] < 0.0 < bin_thresholds(5)[3]

    def test_even_partition_analytic(self):
        cdf_at = ndtr(bin_thresholds(5)[1:-1])
        assert np.max(np.abs(cdf_at - np.array([0.2, 0.4, 0.6, 0.8]))) < 1e-9

    def test_even_partition_monte_carlo(self):
        t = categorical_target([0.0, 1.0, 2.0, 3.0, 4.0], [0.2] * 5)
        x = stream_rng(61, 0).standard_normal((1_000_000, 1))
        idx = bin_indices(x, t)[:, 0]
        freq = np.bincount(idx, minlength=5) / x.shape[0]
        assert np.max(np.abs(freq - 0.2)) < 0.002


class TestPcDensity:
    def test_uniform_masses_reduce_to_base(self):
        t = categorical_target([-1.0, 0.0, 1.0], [1.0, 1.0, 1.0])
        x = stream_rng(62, 0).standard_normal((20, 1))
        vals = pc_log_density(x, t) + 0.5 * np.einsum("nd,nd->n", x, x)
        assert np.allclose(vals, vals[0], atol=1e-12)

    def test_bin_integrals_match_masses(self):
        masses = np.array([0.25, 0.45, 0.3])
        t = categorical_target([-1.0, 0.0, 1.0], masses)

        def pc(x):
            return float(np.exp(pc_log_density(np.array([[x]]), t))[0])

        edges = bin_thresholds(3)
        bins = [quad(pc, edges[i], edges[i + 1], limit=200)[0] for i in range(3)]
        total = sum(bins)
        assert np.allclose(np.array(bins) / total, masses, atol=1e-6)

    def test_constant_shift_in_star_mass(self):
        masses = np.array([0.25, 0.45, 0.3])
        t = categorical_target([-1.0, 0.0, 1.0], masses)
        shifted = DiscreteTarget(dims=1, alphabet=t.alphabet, log_mass=lambda z: t.log_mass(z) + 7.0)
        x = stream_rng(62, 1).standard_normal((10, 1))
        assert np.allclose(pc_log_density(x, shifted) - pc_log_density(x, t), 7.0, atol=1e-12)


class TestSurrogates:
    def test_ising_surrogate_no_coupling(self):
        s = ising_surrogate(ising_target(np.zeros((3, 3))), lam=2.0)
        x = stream_rng(63, 0).standard_normal((6, 3))
        assert np.allclose(s.score(x), -2.0 * x, atol=1e-14)

    def test_ising_surrogate_score_finite_differences(self):
        s = ising_surrogate(ising_target(grid_ising(2, 3, 0.4)))
        t = ContinuousTarget(dim=6, log_density=s.log_density, score=s.score)
        rng = stream_rng(63, 1)
        for _ in range(20):
            x = rng.standard_normal(6)
            eps = 1e-5 * (1 + np.linalg.norm(x))
            fd = finite_difference_score(t, x, eps)
            assert np.linalg.norm(s.score(x[None])[0] - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_default_lambda_is_diagonally_dominant(self):
        ising_surrogate(ising_target(grid_ising(3, 3, 0.9)))  # must not raise

    def test_invalid_lambda(self):
        t = ising_target(grid_ising(2, 2, 2.0))
        with pytest.raises(InvalidLambdaError):
            ising_surrogate(t, lam=1e-6)

    def test_sign_relaxation_shape(self):
        assert sign_relaxation(0.0) == 0.0
        assert abs(sign_relaxation(10.0) - 1.0) < 1e-4
        assert sign_relaxation(-50.0) == pytest.approx(-1.0, abs=1e-12)
        # derivative matches finite differences
        for t0 in (-2.0, 0.0, 1.5):
            fd = (sign_relaxation(t0 + 1e-6) - sign_relaxation(t0 - 1e-6)) / 2e-6
            assert sign_relaxation_deriv(np.array(t0)) == pytest.approx(fd, rel=1e-6)

    def test_relaxed_rbm_surrogate_score(self):
        params = random_bernoulli_rbm(stream_rng(63, 2), dims=5, hidden=3)
        target = bernoulli_rbm_target(params)
        s = smooth_relaxation_surrogate(target, temperature=10.0)
        t = ContinuousTarget(dim=5, log_density=s.log_density, score=s.score)
        rng = stream_rng(63, 3)
        for _ in range(20):
            x = rng.standard_normal(5)
            eps = 1e-6 * (1 + np.linalg.norm(x))
            fd = finite_difference_score(t, x, eps)
            assert np.linalg.norm(s.score(x[None])[0] - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_relaxation_needs_relaxed_energy(self):
        t = categorical_target([-1.0, 1.0], [0.4, 0.6])
        with pytest.raises(ValueError):
            smooth_relaxation_surrogate(t, 10.0)

    def test_ising_surrogate_needs_couplings(self):
        rbm = bernoulli_rbm_target(random_bernoulli_rbm(stream_rng(63, 4), dims=3, hidden=2))
        for t in (rbm, categorical_target([-1.0, 1.0], [0.4, 0.6])):
            assert t.couplings is None
            with pytest.raises(ValueError, match="ising"):
                ising_surrogate(t)


class TestContinuize:
    def test_round_trip_exact(self):
        t = categorical_target([-1.0, -0.5, 0.0, 0.5, 1.0], [0.1, 0.2, 0.3, 0.1, 0.3])
        rng = stream_rng(64, 0)
        states = np.asarray(t.alphabet)[rng.integers(0, 5, size=(5000, 1))]
        x = continuize_data(states, t, rng)
        assert np.array_equal(gamma_map(x, t), states)

    def test_uniform_states_give_standard_normal(self):
        t = categorical_target([0.0, 1.0, 2.0, 3.0], [0.25] * 4)
        rng = stream_rng(64, 1)
        states = np.asarray(t.alphabet)[rng.integers(0, 4, size=(100_000, 1))]
        x = continuize_data(states, t, rng)[:, 0]
        result = kstest(x, "norm")
        assert result.pvalue > 0.01

    def test_binary_positive_state_maps_right_half(self):
        t = ising_target(np.zeros((1, 1)))
        z = np.ones((1000, 1))
        x = continuize_data(z, t, stream_rng(64, 2))
        assert np.all(x > 0)

    def test_unknown_state_rejected(self):
        t = categorical_target([-1.0, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            state_index_rows(np.array([[0.5]]), t)


def exact_lift(target, seed):
    """500 exact draws of a 3x3 grid, or 500 arbitrary states of a larger one
    (the within-bin law does not depend on the states), lifted to p_c."""
    rng = stream_rng(66, target.dims, seed)
    if target.dims <= 9:
        z = sample_discrete_target(rng, 500, target)
    else:
        z = np.asarray(target.alphabet)[rng.integers(0, 2, size=(500, target.dims))]
    return continuize_data(z, target, rng)


class TestWithinBin:
    # Exact lifts at seeds 0-19 gave a within_bin_ks of at most 0.036 on 3x3
    # (about 2,250 positions per bin) and 0.0086 on 10x10; the same lifts scaled
    # by 0.6 gave at least 0.237.  The sampler gives 0.25-0.37 on 3x3.
    THRESHOLD = 0.06

    def test_positions_are_the_lift_draws(self):
        t = categorical_target([-1.0, -0.5, 0.0, 0.5, 1.0], [0.1, 0.2, 0.3, 0.1, 0.3])
        z = np.asarray(t.alphabet)[stream_rng(66, 0).integers(0, 5, size=(2000, 1))]
        u = within_bin_positions(continuize_data(z, t, stream_rng(66, 1)), t)
        assert np.allclose(u, stream_rng(66, 1).random(z.shape), rtol=0, atol=1e-12)

    def test_ks_statistic_matches_scipy(self):
        u = stream_rng(66, 2).random(1000) ** 1.3
        assert uniform_ks_statistic(u) == pytest.approx(kstest(u, "uniform").statistic, rel=0, abs=1e-15)

    @pytest.mark.parametrize("side", [3, 10])
    def test_accepts_exact_lifts_and_rejects_a_collapse(self, side):
        t = ising_target(grid_ising(side, side, 0.2))
        for seed in range(20):
            x = exact_lift(t, seed)
            assert within_bin_ks(x, t) < self.THRESHOLD
            assert within_bin_ks(0.6 * x, t) > self.THRESHOLD


class TestSampleDiscrete:
    def test_uniform_target_frequencies(self):
        t = categorical_target([-1.0, -0.5, 0.0, 0.5, 1.0], [0.2] * 5)
        res = sample_discrete(t, base_surrogate(t), n=500, iters=300, kernel=KernelSpec(),
                              schedule=StepSchedule(mode="adam", eps=0.05), rng=stream_rng(65, 0))
        freq = np.array([np.mean(res.states[:, 0] == a) for a in t.alphabet])
        stderr = np.sqrt(0.2 * 0.8 / 500)
        assert np.max(np.abs(freq - 0.2)) < 3 * stderr

    def test_ising_surrogate_matches_site_marginals(self):
        t = ising_target(grid_ising(3, 3, 0.2))
        oracle = brute_force_distribution(t) @ enumerate_states(t.alphabet, t.dims)
        via_ising = sample_discrete(t, ising_surrogate(t), n=500, iters=400, kernel=KernelSpec(),
                                    schedule=StepSchedule(mode="adam", eps=0.05), rng=stream_rng(65, 2))
        assert np.max(np.abs(via_ising.states.mean(axis=0) - oracle)) < 0.1
