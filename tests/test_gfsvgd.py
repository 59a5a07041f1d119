import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit import kernels
from steinkit.errors import DegenerateWeightsError, MissingScoreError
from steinkit.gfsvgd import (
    effective_sample_size,
    gf_svgd_direction,
    kernel_curve_surrogate,
    rank_normalized_weights,
    run_agf_svgd,
    run_gf_svgd,
)
from steinkit.kernels import KernelSpec, median_bandwidth
from steinkit.ksd import gf_stein_gram
from steinkit.models import (
    ContinuousTarget,
    finite_difference_score,
    gaussian_sampler,
    gaussian_target,
)
from steinkit.rngs import stream_rng
from steinkit.svgd import StepSchedule, run_svgd, stein_direction, svgd_direction

KERN = KernelSpec(bandwidth=1.0)


class TestDirectionReduction:
    def test_rho_equals_p_matches_svgd_exactly(self):
        t = gaussian_target(np.zeros(2), 2.0)
        x = stream_rng(31, 0).standard_normal((15, 2))
        d_gf = gf_svgd_direction(x, t, t, KERN)
        d_sv = svgd_direction(x, t, KERN)
        assert np.array_equal(d_gf, d_sv)

    def test_single_particle_at_mode(self):
        t = gaussian_target(np.zeros(1), 1.0)
        d = gf_svgd_direction(np.zeros((1, 1)), t, t, KERN)
        assert np.array_equal(d, np.zeros((1, 1)))

    def test_constant_surrogate_gives_inverse_probability_update(self):
        t = gaussian_target(np.zeros(1), 1.0)
        flat = ContinuousTarget(
            dim=1,
            log_density=lambda x: np.zeros(x.shape[0]),
            score=np.zeros_like,
        )
        x = stream_rng(31, 1).standard_normal((7, 1))
        d = gf_svgd_direction(x, t, flat, KERN)
        # direct inverse-probability form: (1/Z) sum_j (1/p(x_j)) grad_{x_j} k
        w = np.exp(-t.log_density(x))
        w_scaled = w / w.max()
        oracle = stein_direction(x, np.zeros_like(x), w_scaled, float(w_scaled.sum()), 1.0)
        assert np.allclose(d, oracle, atol=1e-12)

    def test_self_normalized_direction_scale_invariant(self):
        t = gaussian_target(np.zeros(2), 1.0)
        rho = gaussian_target(np.zeros(2), 3.0)
        scaled_t = ContinuousTarget(dim=2, log_density=lambda x: t.log_density(x) + 11.0, score=t.score)
        scaled_rho = ContinuousTarget(dim=2, log_density=lambda x: rho.log_density(x) - 4.0, score=rho.score)
        x = stream_rng(31, 2).standard_normal((12, 2))
        base = gf_svgd_direction(x, t, rho, KERN)
        scaled = gf_svgd_direction(x, scaled_t, scaled_rho, KERN)
        assert np.allclose(base, scaled, atol=1e-12)

    def test_degenerate_weights_plain_mode(self):
        t = ContinuousTarget(dim=1, log_density=lambda x: np.full(x.shape[0], 1000.0), score=None)
        rho = ContinuousTarget(
            dim=1,
            log_density=lambda x: np.full(x.shape[0], -1000.0),
            score=np.zeros_like,
        )
        x = np.array([[0.0], [1.0]])
        with pytest.raises(DegenerateWeightsError, match="max log-weight"):
            gf_svgd_direction(x, t, rho, KERN, weight_mode="plain")

    def test_ess_threshold(self):
        # one particle dominates: ESS < 2 must raise rather than continue
        t = ContinuousTarget(dim=1, log_density=lambda x: -50.0 * x[:, 0], score=None)
        rho = ContinuousTarget(
            dim=1,
            log_density=lambda x: np.zeros(x.shape[0]),
            score=np.zeros_like,
        )
        x = np.array([[0.0], [1.0], [2.0]])
        with pytest.raises(DegenerateWeightsError, match="effective sample size"):
            gf_svgd_direction(x, t, rho, KERN)


class TestSurrogateWithoutScore:
    # a surrogate is any ContinuousTarget, but the gradient-free update needs its score
    SCORELESS = ContinuousTarget(dim=1, log_density=lambda x: -0.5 * x[:, 0] ** 2, score=None)

    def test_direction_raises(self):
        t = gaussian_target(np.zeros(1), 1.0)
        with pytest.raises(MissingScoreError):
            gf_svgd_direction(np.array([[0.0], [1.0]]), t, self.SCORELESS, KERN)

    def test_run_raises(self):
        t = gaussian_target(np.zeros(1), 1.0)
        with pytest.raises(MissingScoreError):
            run_gf_svgd(t, self.SCORELESS, 5, 2, KERN, StepSchedule(), "self-normalized",
                        stream_rng(39, 0), gaussian_sampler(np.zeros(1), 1.0))

    def test_gram_raises(self):
        t = gaussian_target(np.zeros(1), 1.0)
        with pytest.raises(MissingScoreError):
            gf_stein_gram(np.array([[0.0], [1.0]]), self.SCORELESS, t.log_density, 1.0)


class TestRankWeights:
    def test_equal_weights_give_ones(self):
        assert np.array_equal(rank_normalized_weights(np.zeros(5)), np.ones(5))

    def test_strictly_increasing(self):
        gamma = rank_normalized_weights(np.array([0.0, 1.0, 2.0, 3.0]))
        assert np.allclose(gamma, [4 / 4, 4 / 3, 4 / 2, 4 / 1])

    def test_ties_counted_inclusively(self):
        gamma = rank_normalized_weights(np.array([0.0, 0.0, 1.0]))
        assert np.allclose(gamma, [3 / 3, 3 / 3, 3 / 1])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-80, max_value=80), min_size=1, max_size=12))
    def test_invariant_under_monotone_transform(self, quarters):
        # grid values so the affine map cannot merge distinct weights in floats
        log_w = np.array(quarters, dtype=float) / 4.0
        assert np.array_equal(
            rank_normalized_weights(log_w), rank_normalized_weights(3.0 * log_w + 7.0)
        )


class TestKernelCurveSurrogate:
    def test_single_anchor_bump(self):
        anchor = np.array([[1.0, -1.0]])
        s = kernel_curve_surrogate(anchor, np.array([0.5]), h=2.0)
        assert np.allclose(s.score(anchor), 0.0, atol=1e-14)

    def test_score_matches_finite_differences(self):
        rng = stream_rng(32, 0)
        anchors = rng.standard_normal((8, 2))
        logp = rng.standard_normal(8)
        s = kernel_curve_surrogate(anchors, logp, h=1.5)
        for _ in range(20):
            x = rng.standard_normal(2)
            eps = 1e-5 * (1 + np.linalg.norm(x))
            fd = finite_difference_score(s, x, eps)
            assert np.linalg.norm(s.score(x[None])[0] - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    def test_symmetric_anchors_cancel_at_midpoint(self):
        anchors = np.array([[-2.0], [2.0]])
        s = kernel_curve_surrogate(anchors, np.array([0.3, 0.3]), h=1.0)
        assert np.allclose(s.score(np.zeros((1, 1))), 0.0, atol=1e-14)

    def test_anchor_distances_give_the_same_bits(self):
        rng = stream_rng(32, 1)
        anchors = rng.standard_normal((30, 3))
        logp = rng.standard_normal(30)
        plain = kernel_curve_surrogate(anchors, logp, h=1.5)
        reused = kernel_curve_surrogate(anchors, logp, h=1.5, sq=kernels.pairwise_sq_dists(anchors, anchors))
        for x in (anchors, rng.standard_normal((7, 3))):
            assert np.array_equal(plain.log_density(x), reused.log_density(x))
            assert np.array_equal(plain.score(x), reused.score(x))

    def test_agf_builds_one_distance_matrix_per_temperature(self, monkeypatch):
        # the loop's matrix serves the bandwidths, the surrogate at the particles and the direction
        calls = []
        real = kernels.pairwise_sq_dists
        monkeypatch.setattr(kernels, "pairwise_sq_dists", lambda x, y: calls.append(1) or real(x, y))
        seen = []
        run_agf_svgd(gaussian_target(np.zeros(2), 1.0), gaussian_target(np.zeros(2), 4.0),
                     np.linspace(0.0, 1.0, 5), 20, KernelSpec(), StepSchedule(mode="constant", eps=0.1),
                     stream_rng(36, 0), gaussian_sampler(np.zeros(2), 2.0),
                     callback=lambda ensemble: seen.append(len(calls)))
        assert np.diff(seen).tolist() == [1, 1, 1, 1]


class TestImportanceWeightedSteinIdentity:
    def test_monte_carlo_identity(self):
        # E_{x ~ N(0,1)}[ w(x) (s_rho(x) f(x) + f'(x)) ] = 0 with rho = N(0,2),
        # f(x) = k(x, 0.5); 1e6 draws, within 4 standard errors
        rng = stream_rng(33, 0)
        x = rng.standard_normal(1_000_000)
        w = np.exp(-0.25 * x ** 2) / np.exp(-0.5 * x ** 2)  # unnormalized ratio; identity is scale-free
        s_rho = -x / 2.0
        k = np.exp(-((x - 0.5) ** 2))
        f_prime = -2.0 * (x - 0.5) * k
        vals = w * (s_rho * k + f_prime)
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) < 4.0 * stderr


class TestRuns:
    def test_trajectory_bit_identical_to_svgd(self):
        t = gaussian_target(np.zeros(1), 1.0)
        sched = StepSchedule(mode="adam", eps=0.05)
        sampler = gaussian_sampler(np.zeros(1), 4.0)
        plain = run_svgd(t, 40, 120, KernelSpec(), sched, stream_rng(34, 0), sampler)
        gf = run_gf_svgd(t, t, 40, 120, KernelSpec(), sched,
                         "self-normalized", stream_rng(34, 0), sampler)
        assert np.array_equal(plain.positions, gf.ensemble.positions)
        assert np.allclose(gf.ess_history, 40.0)

    def test_matched_gaussian_mean_recovery(self):
        t = gaussian_target(np.zeros(1), 1.0)
        res = run_gf_svgd(t, t, 100, 1000, KernelSpec(),
                          StepSchedule(mode="adam", eps=0.05), "self-normalized",
                          stream_rng(34, 1), gaussian_sampler(np.zeros(1), 4.0))
        assert abs(res.ensemble.positions.mean()) < 0.1

    def test_wide_surrogate_beats_narrow(self):
        # 2D Gaussian target, surrogate sigma 3x vs 1/3x: wide wins on MMD
        t = gaussian_target(np.zeros(2), 2.0)
        exact = gaussian_sampler(np.zeros(2), 2.0)(stream_rng(34, 9), 1000)
        h = median_bandwidth(exact)
        from steinkit.gof import mmd_rbf

        def run_with(sigma_rho, seed):
            rho = gaussian_target(np.zeros(2), sigma_rho)
            res = run_gf_svgd(t, rho, 100, 800, KernelSpec(),
                              StepSchedule(mode="adam", eps=0.05), "self-normalized",
                              stream_rng(seed, 2), gaussian_sampler(np.zeros(2), 2.0))
            return mmd_rbf(res.ensemble.positions, exact, h)

        wide = np.median([run_with(6.0, s) for s in range(3)])
        narrow = np.median([run_with(2.0 / 3.0, s) for s in range(3)])
        assert wide < narrow

    def test_agf_single_temperature_is_one_gf_step(self):
        t = gaussian_target(np.zeros(1), 1.0)
        p0 = gaussian_target(np.zeros(1), 4.0)
        sched = StepSchedule(mode="constant", eps=0.1)
        sampler = gaussian_sampler(np.zeros(1), 4.0)
        res = run_agf_svgd(t, p0, np.array([0.0, 1.0]), 25, KernelSpec(), sched,
                           stream_rng(35, 0), sampler)
        # replay: same init draw, same surrogate construction, one gf step
        x0 = sampler(stream_rng(35, 0), 25)
        h_s = median_bandwidth(x0)
        surrogate = kernel_curve_surrogate(x0, t.log_density(x0), h_s)
        d = gf_svgd_direction(x0, t, surrogate, KernelSpec())
        expected = x0 + 0.1 * d
        assert np.array_equal(res.ensemble.positions, expected)

    @pytest.mark.parametrize("mode", ["plain", "rank"])
    def test_run_gf_svgd_replays_by_hand(self, mode):
        t = gaussian_target(np.array([0.3, -0.3]), 1.0)
        rho = gaussian_target(np.zeros(2), 1.5)
        sched = StepSchedule(mode="constant", eps=0.1)
        sampler = gaussian_sampler(np.zeros(2), 2.0)
        res = run_gf_svgd(t, rho, 20, 3, KernelSpec(), sched,
                          mode, stream_rng(37, 1), sampler)
        x = sampler(stream_rng(37, 1), 20)
        ess = []
        for _ in range(3):
            log_w = rho.log_density(x) - t.log_density(x)
            ess.append(effective_sample_size(log_w))
            if mode == "plain":
                w, z = np.exp(log_w), 20.0
            else:
                w = rank_normalized_weights(log_w)
                z = float(w.sum())
            x = x + 0.1 * stein_direction(x, rho.score(x), w, z, median_bandwidth(x))
        assert np.array_equal(res.ensemble.positions, x)
        assert np.array_equal(res.ess_history, np.array(ess))
        assert res.final_weights.ess == effective_sample_size(rho.log_density(x) - t.log_density(x))

    def test_ess_recorded_each_iteration(self):
        t = gaussian_target(np.zeros(1), 1.0)
        rho = gaussian_target(np.zeros(1), 2.0)
        res = run_gf_svgd(t, rho, 30, 25, KernelSpec(),
                          StepSchedule(mode="adam", eps=0.05), "self-normalized",
                          stream_rng(36, 0), gaussian_sampler(np.zeros(1), 2.0))
        assert res.ess_history.shape == (25,)
        assert np.all(res.ess_history > 2.0)
        assert np.all(res.ess_history <= 30.0)


def test_effective_sample_size_matches_direct_formula():
    rng = stream_rng(37, 0)
    log_w = rng.normal(size=50)
    w = np.exp(log_w)
    direct = w.sum() ** 2 / (w ** 2).sum()
    assert effective_sample_size(log_w) == pytest.approx(direct, rel=1e-10)


def test_weighted_sample_normalizes_to_one():
    from steinkit.gfsvgd import WeightedSample

    log_w = stream_rng(38, 0).normal(size=64) * 5.0
    sample = WeightedSample(positions=np.zeros((64, 1)), log_weights=log_w)
    assert sample.normalized_weights().sum() == pytest.approx(1.0, abs=1e-12)
    assert 1.0 <= sample.ess <= 64.0
