import numpy as np
import pytest
from scipy.special import logsumexp

from steinkit import kernels, steinis
from steinkit.errors import DivergenceError, InvalidApproximationError, SingularTransformError
from steinkit.kernels import KernelSpec
from steinkit.models import ContinuousTarget, gaussian_logpdf, gaussian_sampler, gaussian_target, gmm_target
from steinkit.rngs import stream_rng
from steinkit.steinis import (
    WeightedSample,
    follower_log_dets,
    leader_velocity_field,
    path_integration_logZ,
    run_steinis,
    self_normalized_expectation,
)
from steinkit.svgd import StepSchedule

KERN = KernelSpec(bandwidth=1.0)


def det_cofactor(m: np.ndarray) -> float:
    """Determinant by explicit cofactor expansion (exponential; d <= 5 only)."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_cofactor(minor)
    return total


def jacobian_oracle(leaders, scores, h, y):
    """grad phi from the three-operand contractions over the (l, m, d)
    difference tensor u = x_l - y, term by term as differentiated."""
    u = leaders[:, None, :] - y[None, :, :]
    k = np.exp(-np.einsum("lmd,lmd->lm", u, u) / h)
    jac = (2.0 / h) * np.einsum("lm,ld,lme->mde", k, scores, u)
    jac -= (4.0 / h ** 2) * np.einsum("lm,lmd,lme->mde", k, u, u)
    jac += (2.0 / h) * np.einsum("lm->m", k)[:, None, None] * np.eye(y.shape[1])[None, :, :]
    return jac / leaders.shape[0]


class TestVelocityField:
    def test_single_leader_at_mode_is_stationary(self):
        t = gaussian_target(np.zeros(1), 1.0)
        field = leader_velocity_field(np.zeros((1, 1)), t, KERN, np.zeros((1, 1)))
        assert np.array_equal(field(np.zeros((1, 1))), np.zeros((1, 1)))

    def test_jacobian_matches_finite_differences(self):
        rng = stream_rng(51, 0)
        t = gaussian_target(np.zeros(2), 1.5)
        leaders = rng.standard_normal((12, 2))
        field = leader_velocity_field(leaders, t, KERN, kernels.pairwise_sq_dists(leaders, leaders))
        eps = 1e-6
        for _ in range(5):
            y = rng.standard_normal(2)
            _, jac = field(y[None, :], with_jacobian=True)
            fd = np.empty((2, 2))
            for e_idx in range(2):
                step = np.zeros(2)
                step[e_idx] = eps
                fd[:, e_idx] = (field((y + step)[None, :])[0] - field((y - step)[None, :])[0]) / (2 * eps)
            assert np.linalg.norm(jac[0] - fd) <= 1e-5 * max(np.linalg.norm(fd), 1.0)

    @pytest.mark.parametrize("d", [1, 2, 5])
    @pytest.mark.parametrize("offset", [0.0, 1e2, 1e4])
    def test_jacobian_matches_oracle(self, d, offset):
        # leaders, points and the target mean all shifted by ``offset``; the
        # points spread wider than the leaders, so some sit in the tails
        rng = stream_rng(51, 2)
        leaders = rng.standard_normal((40, d)) * 1.3 + offset
        y = rng.standard_normal((30, d)) * 1.8 + offset
        t = gaussian_target(np.full(d, offset), 1.2)
        sq = kernels.pairwise_sq_dists(leaders, leaders)
        for kernel in (KernelSpec(), KernelSpec(bandwidth=0.3)):
            _, jac = leader_velocity_field(leaders, t, kernel, sq)(y, with_jacobian=True)
            oracle = jacobian_oracle(leaders, t.score(leaders), kernels.resolve_bandwidth(kernel, leaders), y)
            assert np.max(np.abs(jac - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("separation", [1e2, 1e3])
    def test_jacobian_error_on_separated_modes(self, d, separation):
        # Two leader clusters, weights 0.3 / 0.7, ``separation`` apart, with
        # points at both.  The expansion is centred on the one leader mean,
        # so a point with q = |y - mean|^2 / h loses a few eps * q relative
        # to cancellation, and the 1e-12 bound of the test above holds only
        # while q is small.  Measured here: up to 1.6e-9 relative at
        # separation 1e3 with h = 0.3 in d = 1, where q is 1.4e6.
        rng = stream_rng(51, 4)
        means = np.zeros((2, d))
        means[1, 0] = separation
        t = gmm_target(np.array([0.3, 0.7]), means, 1.0)
        leaders = rng.standard_normal((40, d)) + means[(rng.random(40) < 0.7).astype(int)]
        y = rng.standard_normal((30, d)) * 1.5 + means[(rng.random(30) < 0.5).astype(int)]
        sq = kernels.pairwise_sq_dists(leaders, leaders)
        for kernel in (KernelSpec(), KernelSpec(bandwidth=0.3)):
            h = kernels.resolve_bandwidth(kernel, leaders)
            _, jac = leader_velocity_field(leaders, t, kernel, sq)(y, with_jacobian=True)
            oracle = jacobian_oracle(leaders, t.score(leaders), h, y)
            q = np.max(np.sum((y - leaders.mean(axis=0)) ** 2, axis=1)) / h
            assert np.max(np.abs(jac - oracle)) <= (1e-12 + 1e-14 * q) * np.max(np.abs(oracle))

    def test_field_is_the_same_with_or_without_jacobian(self):
        rng = stream_rng(51, 3)
        leaders = rng.standard_normal((30, 3))
        field = leader_velocity_field(leaders, gaussian_target(np.zeros(3), 1.0), KernelSpec(),
                                      kernels.pairwise_sq_dists(leaders, leaders))
        for y in (rng.standard_normal((20, 3)), leaders, leaders.copy()):
            assert np.array_equal(field(y), field(y, with_jacobian=True)[0])
        # field(leaders) reuses the leaders' own distances, a square call in the
        # Gram form; field(leaders.copy()) is a cross call.  The two agree up to
        # rounding: each squared distance is within (2d + 6) eps (a_i + a_j) of
        # the broadcast, a_i the squared norm of the centred leader (see
        # test_kernels.gram_form_bound), so each kernel entry k is within
        # k ((2d + 6) eps (a_i + a_j) / h + 2 eps) after exp; the sums add
        # (n + 5) eps times the sum of |terms|, as in
        # test_svgd.test_square_direction_within_rounding_bound_of_id_layout
        n, d = leaders.shape
        eps = np.finfo(float).eps
        h = kernels.median_bandwidth(leaders, kernels.pairwise_sq_dists(leaders, leaders))
        xc = leaders - leaders.mean(axis=0)
        a = np.einsum("id,id->i", xc, xc)
        k = np.exp(-kernels.pairwise_sq_dists(leaders, leaders.copy()) / h)
        dk = k * ((2 * d + 6) * eps * (a[:, None] + a[None, :]) / h + 2 * eps)

        def size(kk):  # sum_j kk_ji (|s_j| + (2/h)(|x_i| + |x_j|)) with s = -x
            return kk.T @ np.abs(leaders) + (2.0 / h) * (np.abs(leaders) * kk.sum(axis=0)[:, None]
                                                         + kk.T @ np.abs(leaders))

        bound = ((n + 5) * eps * size(k) + size(dk)) / n
        assert np.all(np.abs(field(leaders) - field(leaders.copy())) <= bound)

    def test_leader_permutation_invariance(self):
        rng = stream_rng(51, 1)
        t = gaussian_target(np.zeros(2), 1.0)
        leaders = rng.standard_normal((9, 2))
        y = rng.standard_normal((4, 2))
        f1 = leader_velocity_field(leaders, t, KERN, kernels.pairwise_sq_dists(leaders, leaders))
        permuted = leaders[rng.permutation(9)]
        f2 = leader_velocity_field(permuted, t, KERN, kernels.pairwise_sq_dists(permuted, permuted))
        p1, j1 = f1(y, with_jacobian=True)
        p2, j2 = f2(y, with_jacobian=True)
        assert np.allclose(p1, p2, atol=1e-12)
        assert np.allclose(j1, j2, atol=1e-12)


def _exact(a, eps):
    return follower_log_dets(a[None], eps, "exact")[0]


def _first_order(a, eps):
    return follower_log_dets(a[None], eps, "first-order")[0]


class TestLogDet:
    def test_zero_matrix(self):
        assert _exact(np.zeros((3, 3)), 0.2) == 0.0

    def test_diagonal_example(self):
        val = _exact(np.diag([2.0, 3.0]), 0.1)
        assert val == pytest.approx(np.log(1.2 * 1.3), rel=1e-12)

    def test_against_cofactor_oracle(self):
        rng = stream_rng(52, 0)
        for _ in range(10):
            a = rng.standard_normal((5, 5))
            exact = _exact(a, 0.05)
            oracle = np.log(abs(det_cofactor(np.eye(5) + 0.05 * a)))
            assert exact == pytest.approx(oracle, abs=1e-10)

    def test_singular_raises(self, monkeypatch):
        # the fold -I at eps = 1 is rejected, so run_steinis halves eps; a
        # transform still rejected after every halving raises
        assert follower_log_dets(-np.eye(2)[None], 1.0, "exact") is None
        monkeypatch.setattr(steinis, "follower_log_dets", lambda jacs, eps, det_mode: None)
        with pytest.raises(SingularTransformError):
            run_steinis(gaussian_target(np.zeros(1), 1.0), gaussian_sampler(np.zeros(1), 1.0),
                        gaussian_logpdf(np.zeros(1), 1.0), 5, 5, 2, KERN,
                        StepSchedule(mode="constant", eps=0.1), stream_rng(0, 0))

    def test_first_order_exact_on_diagonal(self):
        a = np.diag([1.0, -2.0, 0.5])
        assert _first_order(a, 0.1) == pytest.approx(_exact(a, 0.1), rel=1e-12)

    def test_first_order_2x2_analytic(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert _first_order(a, 0.1) == 0.0
        assert _exact(a, 0.1) == pytest.approx(np.log(1 - 0.01), rel=1e-12)

    def test_richardson_error_ratio(self):
        # first-order error shrinks ~4x when eps halves
        rng = stream_rng(52, 1)
        errs_full, errs_half = [], []
        for _ in range(50):
            a = rng.standard_normal((4, 4))
            eps = 0.1 / np.max(np.abs(a).sum(axis=1))
            errs_full.append(abs(_first_order(a, eps) - _exact(a, eps)))
            errs_half.append(abs(_first_order(a, eps / 2) - _exact(a, eps / 2)))
        ratio = np.mean(errs_full) / np.mean(errs_half)
        assert 3.5 <= ratio <= 4.5

    def test_first_order_preconditions(self):
        a = np.full((2, 2), 10.0)
        with pytest.raises(InvalidApproximationError):
            _first_order(a, 0.2)
        b = np.diag([-20.0, 0.0])
        with pytest.raises(InvalidApproximationError):
            _first_order(b, 0.1)

    def test_auto_mode_diagonal_guard(self):
        # eps <= 0.1 would select first-order, but a diagonal factor below 0.5
        # must force the exact path (visible through the off-diagonal terms)
        jac = np.array([[-6.0, 3.0], [2.0, 0.0]])[None, :, :]
        eps = 0.1
        out = follower_log_dets(jac, eps, "auto")
        exact = np.linalg.slogdet(np.eye(2) + eps * jac[0])[1]
        first = np.log1p(eps * np.diag(jac[0])).sum()
        assert out[0] == pytest.approx(exact, rel=1e-12)
        assert abs(out[0] - first) > 1e-3

    def test_auto_mode_uses_first_order_when_safe(self):
        jac = np.array([[0.5, 0.3], [0.2, -0.4]])[None, :, :]
        out = follower_log_dets(jac, 0.05, "auto")
        first = np.log1p(0.05 * np.diag(jac[0])).sum()
        assert out[0] == pytest.approx(first, rel=1e-12)

    def test_fold_returns_none(self):
        jac = np.array([[[-1.0]]])
        assert follower_log_dets(jac, 2.0, "exact") is None
        assert follower_log_dets(jac, 2.0, "auto") is None


def _fixed_sampler(*arrays):
    queue = [np.array(a, dtype=float) for a in arrays]

    def sampler(rng, n):
        out = queue.pop(0)
        assert out.shape[0] == n
        return out.copy()

    return sampler


class TestRunSteinIS:
    def test_zero_iterations_is_plain_importance_sampling(self):
        t = gaussian_target(np.zeros(1), 1.0)
        q0l = gaussian_logpdf(np.zeros(1), 2.0)
        rng = stream_rng(53, 0)
        res = run_steinis(t, gaussian_sampler(np.zeros(1), 2.0), q0l, 20, 30, 0, KERN,
                          StepSchedule(mode="constant", eps=0.1), rng)
        expected = t.log_density(res.sample.positions) - q0l(res.sample.positions)
        assert np.allclose(res.sample.log_weights, expected, atol=1e-12)

    def test_followers_conditionally_iid(self):
        # same leader draw, followers run whole vs in halves: bit-identical
        rng = stream_rng(53, 1)
        leaders = rng.standard_normal((25, 1)) * 1.4
        followers = rng.standard_normal((40, 1)) * 1.4
        t = gaussian_target(np.zeros(1), 1.0)
        q0l = gaussian_logpdf(np.zeros(1), 2.0)
        sched = StepSchedule(mode="constant", eps=0.05)

        def run(f_arr):
            return run_steinis(t, _fixed_sampler(leaders, f_arr), q0l, 25, f_arr.shape[0], 30,
                               KERN, sched, stream_rng(0, 0))

        whole = run(followers)
        first = run(followers[:17])
        second = run(followers[17:])
        assert np.array_equal(whole.sample.positions, np.vstack([first.sample.positions, second.sample.positions]))
        assert np.array_equal(whole.ensemble.follower_log_q,
                              np.concatenate([first.ensemble.follower_log_q, second.ensemble.follower_log_q]))
        assert np.array_equal(whole.ensemble.leaders, first.ensemble.leaders)

    def test_field_rows_chunk_invariant_across_distance_blocks(self):
        # 300 leaders x 600 points in d=2 split the leader-point distances into
        # three row blocks; halves take two and pairs of points one.  Pairs, not
        # single points: on a one-point set einsum switches to a contiguous
        # reduction loop that sums the leaders in another order.
        rng = stream_rng(53, 3)
        leaders = rng.standard_normal((300, 2)) * 1.4
        y = rng.standard_normal((600, 2)) * 1.4
        field = leader_velocity_field(leaders, gaussian_target(np.zeros(2), 1.0), KernelSpec(),
                                      kernels.pairwise_sq_dists(leaders, leaders))
        phi, jac = field(y, with_jacobian=True)
        assert np.array_equal(field(y), phi)
        for size in (300, 2):
            parts = [y[i:i + size] for i in range(0, 600, size)]
            assert np.array_equal(np.vstack([field(p) for p in parts]), phi)
            pieces = [field(p, with_jacobian=True) for p in parts]
            assert np.array_equal(np.vstack([p[0] for p in pieces]), phi)
            assert np.array_equal(np.concatenate([p[1] for p in pieces]), jac)

    def test_one_leader_and_one_follower_distance_matrix_per_iteration(self, monkeypatch):
        calls, medians = [], []
        pairwise, median = kernels.pairwise_sq_dists, kernels.median_bandwidth

        def counted(x, y):
            out = pairwise(x, y)
            calls.append((x.shape[0], y.shape[0], y is x, out))
            return out

        def recorded(points, sq=None):
            medians.append(sq)
            return median(points, sq)

        monkeypatch.setattr(kernels, "pairwise_sq_dists", counted)
        monkeypatch.setattr(kernels, "median_bandwidth", recorded)
        t = gaussian_target(np.zeros(2), 1.0)
        iters = 4
        run_steinis(t, gaussian_sampler(np.zeros(2), 2.0), gaussian_logpdf(np.zeros(2), 2.0), 7, 11, iters,
                    KernelSpec(), StepSchedule(mode="constant", eps=0.05), stream_rng(53, 4))
        assert [c[:3] for c in calls] == [(7, 7, True), (7, 11, False)] * iters
        assert len(medians) == iters
        assert all(sq is c[3] for sq, c in zip(medians, calls[::2]))

    def test_density_tracking_integrates_to_one(self):
        # followers seeded on a dense grid: exp(log q) after K steps still
        # integrates to 1 by trapezoid quadrature over the moved grid
        t = gaussian_target(np.zeros(1), 1.0)
        q0l = gaussian_logpdf(np.zeros(1), 2.0)
        rng = stream_rng(53, 2)
        leaders = rng.standard_normal((40, 1)) * np.sqrt(2.0)
        grid = np.linspace(-10.0, 10.0, 3001)[:, None]
        res = run_steinis(t, _fixed_sampler(leaders, grid), q0l, 40, grid.shape[0], 50,
                          KERN, StepSchedule(mode="constant", eps=0.05), stream_rng(0, 0),
                          det_mode="exact")
        positions = res.sample.positions[:, 0]
        assert np.all(np.diff(positions) > 0)  # map stayed monotone
        mass = np.trapezoid(np.exp(res.ensemble.follower_log_q), positions)
        assert mass == pytest.approx(1.0, abs=0.02)

    def test_z_hat_unbiased_1d_gaussian(self):
        # p-bar = exp(-x^2/2): Z = sqrt(2 pi)
        t = gaussian_target(np.zeros(1), 1.0)
        q0s = gaussian_sampler(np.zeros(1), 2.0)
        q0l = gaussian_logpdf(np.zeros(1), 2.0)
        zs = [
            run_steinis(t, q0s, q0l, 50, 50, 100, KernelSpec(),
                        StepSchedule(mode="decay", eps=0.3), stream_rng(53, 10 + s)).z_hat
            for s in range(30)
        ]
        zs = np.array(zs)
        true_z = np.sqrt(2 * np.pi)
        assert abs(zs.mean() - true_z) < 3 * zs.std(ddof=1) / np.sqrt(len(zs))

    @pytest.mark.parametrize("det_mode", ["exact", "auto"])
    def test_replays_by_hand(self, det_mode):
        # a tight target and eps 0.5: 7 of the 12 steps fold and are taken at 0.25
        t = gaussian_target(np.zeros(2), 0.1)
        sampler, q0l = gaussian_sampler(np.zeros(2), 1.0), gaussian_logpdf(np.zeros(2), 1.0)
        res = run_steinis(t, sampler, q0l, 20, 15, 12, KernelSpec(), StepSchedule(mode="constant", eps=0.5),
                          stream_rng(3, 0), det_mode=det_mode)
        rng = stream_rng(3, 0)
        leaders, followers = sampler(rng, 20), sampler(rng, 15)
        log_q, history = q0l(followers), []
        for _ in range(12):
            field = leader_velocity_field(leaders, t, KernelSpec(), kernels.pairwise_sq_dists(leaders, leaders))
            phi_f, jac_f = field(followers, with_jacobian=True)
            eps = 0.5
            log_dets = follower_log_dets(jac_f, eps, det_mode)
            while log_dets is None:
                eps *= 0.5
                log_dets = follower_log_dets(jac_f, eps, det_mode)
            leaders, followers = leaders + eps * field(leaders), followers + eps * phi_f
            log_q, history = log_q - log_dets, history + [eps]
        log_w = t.log_density(followers) - log_q
        assert history.count(0.25) == 7 and history.count(0.5) == 5
        assert tuple(history) == res.ensemble.eps_history
        assert np.array_equal(res.ensemble.leaders, leaders)
        assert np.array_equal(res.sample.positions, followers)
        assert np.array_equal(res.ensemble.follower_log_q, log_q)
        assert np.array_equal(res.sample.log_weights, log_w)
        assert res.z_hat == float(np.exp(logsumexp(log_w) - np.log(15)))

    def test_divergence_limit_applies(self):
        # log p-bar = 500 x^2 pushes every particle outwards without bound
        t = ContinuousTarget(dim=1, log_density=lambda x: 500.0 * x[:, 0] ** 2, score=lambda x: 1000.0 * x)
        with pytest.raises(DivergenceError, match="exceeded .* at iteration 11"):
            run_steinis(t, gaussian_sampler(np.zeros(1), 1.0), gaussian_logpdf(np.zeros(1), 1.0), 10, 10, 50,
                        KernelSpec(), StepSchedule(mode="constant", eps=0.05), stream_rng(0, 0), det_mode="exact")

    def test_adam_schedule_rejected(self):
        t = gaussian_target(np.zeros(1), 1.0)
        with pytest.raises(ValueError):
            run_steinis(t, gaussian_sampler(np.zeros(1), 1.0), gaussian_logpdf(np.zeros(1), 1.0),
                        5, 5, 2, KERN, StepSchedule(mode="adam"), stream_rng(0, 0))


class TestSelfNormalizedExpectation:
    def test_uniform_weights_are_plain_mean(self):
        x = stream_rng(54, 0).standard_normal((20, 2))
        s = WeightedSample(positions=x, log_weights=np.zeros(20))
        assert np.allclose(self_normalized_expectation(s, lambda p: p), x.mean(axis=0), atol=1e-14)

    def test_constant_function_is_exact(self):
        x = stream_rng(54, 1).standard_normal((15, 1))
        s = WeightedSample(positions=x, log_weights=stream_rng(54, 2).normal(size=15))
        val = self_normalized_expectation(s, lambda p: np.full(p.shape[0], 3.25))
        assert val == pytest.approx(3.25, rel=1e-12)

    def test_concentrated_weights_pick_one_particle(self):
        x = np.arange(10, dtype=float)[:, None]
        log_w = np.full(10, -1e6)
        log_w[4] = 0.0
        s = WeightedSample(positions=x, log_weights=log_w)
        assert self_normalized_expectation(s, lambda p: p[:, 0]) == pytest.approx(4.0)


class TestPathIntegration:
    def test_identical_distributions_give_zero(self):
        # p-bar equals the normalized q0: log Z = 0
        q0l = gaussian_logpdf(np.zeros(1), 1.0)
        t = ContinuousTarget(dim=1, log_density=q0l, score=gaussian_target(np.zeros(1), 1.0).score)
        val = path_integration_logZ(t, gaussian_sampler(np.zeros(1), 1.0), q0l, 200, 200,
                                    KernelSpec(bandwidth=1.0), StepSchedule(mode="constant", eps=0.05),
                                    100000, stream_rng(55, 0))
        assert abs(val) < 0.05

    def test_replays_by_hand(self):
        from steinkit.kernels import median_bandwidth
        from steinkit.ksd import stein_gram, v_statistic_from_gram
        from steinkit.svgd import stein_direction

        t = gaussian_target(np.array([1.0, 0.0]), 1.0)
        sampler, q0l = gaussian_sampler(np.zeros(2), 2.0), gaussian_logpdf(np.zeros(2), 2.0)
        sched = StepSchedule(mode="decay", eps=0.1)
        val = path_integration_logZ(t, sampler, q0l, 18, 2, KernelSpec(), sched, 50, stream_rng(55, 2))
        rng = stream_rng(55, 2)
        ref = sampler(rng, 50)
        e0 = float(np.mean(q0l(ref) - t.log_density(ref)))
        x = sampler(rng, 18)
        k_hat = 0.0
        for it in range(2):
            h, s, eps = median_bandwidth(x), t.score(x), sched.scalar_eps(it)
            k_hat += eps * v_statistic_from_gram(stein_gram(x, s, h))
            x = x + eps * stein_direction(x, s, np.ones(18), 18.0, h)
        assert val == k_hat - e0

    def test_divergence_limit_applies(self):
        t = gaussian_target(np.zeros(1), 1.0)
        with pytest.raises(DivergenceError, match="exceeded"):
            path_integration_logZ(t, gaussian_sampler(np.zeros(1), 2.0), gaussian_logpdf(np.zeros(1), 2.0), 20, 3,
                                  KERN, StepSchedule(mode="constant", eps=1e9), 100, stream_rng(55, 3))

    def test_scaling_density_shifts_estimate(self):
        t = gaussian_target(np.zeros(1), 1.0)
        scaled = ContinuousTarget(dim=1, log_density=lambda x: t.log_density(x) + 2.5, score=t.score)
        kwargs = dict(q0_sampler=gaussian_sampler(np.zeros(1), 2.0), q0_logpdf=gaussian_logpdf(np.zeros(1), 2.0),
                      n=100, iters=100, kernel=KernelSpec(bandwidth=1.0),
                      schedule=StepSchedule(mode="constant", eps=0.05), m0=10000)
        a = path_integration_logZ(t, rng=stream_rng(55, 1), **kwargs)
        b = path_integration_logZ(scaled, rng=stream_rng(55, 1), **kwargs)
        assert b - a == pytest.approx(2.5, abs=1e-9)
