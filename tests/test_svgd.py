import numpy as np
import pytest

from steinkit.errors import DivergenceError, MissingScoreError
from steinkit.kernels import KernelSpec, median_bandwidth, pairwise_sq_dists
from steinkit.ksd import stein_gram, v_statistic_from_gram
from steinkit.models import ContinuousTarget, gaussian_sampler, gaussian_target, gmm_target, sample_gmm
from steinkit.rngs import stream_rng
from steinkit.svgd import (
    ParticleEnsemble,
    StepSchedule,
    annealed_targets,
    apply_direction,
    run_annealed_svgd,
    run_svgd,
    stein_direction,
    svgd_direction,
)

KERN = KernelSpec(bandwidth=1.0)


class TestDirection:
    def test_single_particle_at_mode_is_stationary(self):
        t = gaussian_target(np.zeros(1), 1.0)
        d = svgd_direction(np.array([[0.0]]), t, KERN)
        assert np.array_equal(d, np.zeros((1, 1)))

    def test_single_particle_pure_drive(self):
        t = gaussian_target(np.zeros(1), 1.0)
        d = svgd_direction(np.array([[2.0]]), t, KERN)
        assert d[0, 0] == pytest.approx(-2.0, abs=1e-14)

    def test_mirror_symmetry(self):
        t = gaussian_target(np.zeros(1), 1.0)
        d = svgd_direction(np.array([[-1.3], [1.3]]), t, KERN)
        assert d[0, 0] == pytest.approx(-d[1, 0], abs=1e-14)

    def test_permutation_equivariance(self):
        rng = stream_rng(21, 0)
        x = rng.standard_normal((17, 3))
        t = gaussian_target(np.zeros(3), 1.0)
        perm = rng.permutation(17)
        d = svgd_direction(x, t, KERN)
        d_perm = svgd_direction(x[perm], t, KERN)
        assert np.allclose(d[perm], d_perm, atol=1e-12)

    def test_invariant_to_log_density_constant(self):
        rng = stream_rng(22, 0)
        x = rng.standard_normal((9, 2))
        t = gaussian_target(np.zeros(2), 2.0)
        shifted = ContinuousTarget(dim=2, log_density=lambda p: t.log_density(p) + 55.0, score=t.score)
        assert np.array_equal(svgd_direction(x, t, KERN), svgd_direction(x, shifted, KERN))

    def test_missing_score_raises(self):
        t = ContinuousTarget(dim=1, log_density=lambda x: -x[:, 0] ** 2, score=None)
        with pytest.raises(MissingScoreError):
            svgd_direction(np.zeros((2, 1)), t, KERN)


def id_layout_direction(x, s, w, z, h, y):
    """``stein_direction`` with its reductions written as (m, d) arrays, the
    layout it used before its loops ran along the points."""
    wk = np.exp(-pairwise_sq_dists(x, y) / h) * w[:, None]
    drive = np.einsum("ji,jd->id", wk, s)
    colsum = np.einsum("ji->i", wk)
    cross = np.einsum("ji,jd->id", wk, x)
    return (drive + (2.0 / h) * (y * colsum[:, None] - cross)) / z


@pytest.mark.parametrize("d", [1, 2, 6, 9, 25])
@pytest.mark.parametrize("n", [1, 2, 3, 70])
def test_direction_bit_identical_to_id_layout(n, d):
    # m = 1 is the one-row set: it matches the oracle on that row, not a row of the whole
    gen = np.random.default_rng(100 * n + d)
    x, s = gen.standard_normal((n, d)), gen.standard_normal((n, d))
    w, h = gen.uniform(0.1, 3.0, n), 0.7 * d
    assert np.array_equal(stein_direction(x, s, w, 2.5, h), id_layout_direction(x, s, w, 2.5, h, x))
    for m in (1, 2, 3, 65):
        y = 1.5 * gen.standard_normal((m, d))
        assert np.array_equal(stein_direction(x, s, w, 2.5, h, eval_positions=y),
                              id_layout_direction(x, s, w, 2.5, h, y))


class TestStep:
    def test_zero_eps_keeps_positions(self):
        t = gaussian_target(np.zeros(2), 1.0)
        x0 = stream_rng(23, 0).standard_normal((8, 2))
        out = run_svgd(t, 8, 1, KERN, StepSchedule(mode="constant", eps=0.0), None, lambda rng, n: x0)
        assert np.array_equal(out.positions, x0)
        assert out.iteration == 1

    def test_particle_at_mode_stays(self):
        t = gaussian_target(np.zeros(1), 1.0)
        out = run_svgd(t, 1, 1, KERN, StepSchedule(mode="constant", eps=0.1), None, lambda rng, n: np.zeros((n, 1)))
        assert np.array_equal(out.positions, np.zeros((1, 1)))

    def test_divergence_guard_reports_iteration(self):
        ens = ParticleEnsemble(positions=np.array([[1.0]]), iteration=7)
        with pytest.raises(DivergenceError, match="iteration 7"):
            apply_direction(ens, np.array([[1e12]]), StepSchedule(mode="constant", eps=1.0))
        with pytest.raises(DivergenceError, match="iteration 7"):
            apply_direction(ens, np.array([[np.nan]]), StepSchedule(mode="constant", eps=1.0))

    def test_decay_schedule_values(self):
        s = StepSchedule(mode="decay", eps=0.4, decay_exponent=0.5)
        assert s.scalar_eps(0) == 0.4
        assert s.scalar_eps(3) == pytest.approx(0.4 / 2.0)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            StepSchedule(mode="sgd")
        with pytest.raises(ValueError):
            StepSchedule(eps=-0.1)
        with pytest.raises(ValueError):
            StepSchedule(beta1=1.0)

    def test_gmm_moments_after_adam_run(self):
        # 1D mixture 0.5 N(-2,1) + 0.5 N(2,1): mean 0, second moment 5
        t = gmm_target(np.array([0.5, 0.5]), np.array([[-2.0], [2.0]]), 1.0)
        ens = run_svgd(
            t, 200, 1000, KernelSpec(), StepSchedule(mode="adam", eps=0.05),
            stream_rng(24, 0), gaussian_sampler(np.zeros(1), 4.0),
        )
        x = ens.positions
        assert abs(x.mean()) < 0.1
        assert abs((x ** 2).mean() - 5.0) < 0.5


class TestReplay:
    # each run against a hand-written replay of its loop, bit for bit
    @pytest.mark.parametrize("kernel", [KernelSpec(bandwidth=0.8), KernelSpec()], ids=["fixed", "median"])
    def test_run_svgd_replays_by_hand(self, kernel):
        t = gmm_target(np.array([0.3, 0.7]), np.array([[-1.0, 0.5], [1.5, 0.0]]), 1.0)
        sched = StepSchedule(mode="decay", eps=0.2)
        sampler = gaussian_sampler(np.zeros(2), 3.0)
        ens = run_svgd(t, 15, 4, kernel, sched, stream_rng(31, 0), sampler)
        x = sampler(stream_rng(31, 0), 15)
        for it in range(4):
            h = 0.8 if kernel.bandwidth == 0.8 else median_bandwidth(x)
            x = x + sched.scalar_eps(it) * stein_direction(x, t.score(x), np.ones(15), 15.0, h)
        assert ens.iteration == 4
        assert np.array_equal(ens.positions, x)

    def test_run_annealed_svgd_replays_by_hand(self):
        p0 = gaussian_target(np.zeros(2), 4.0)
        p = gmm_target(np.array([0.5, 0.5]), np.array([[-1.0, 0.0], [1.0, 1.0]]), 1.0)
        betas = np.array([0.0, 0.5, 1.0])
        sched = StepSchedule(mode="decay", eps=0.2)
        sampler = gaussian_sampler(np.zeros(2), 4.0)
        ens = run_annealed_svgd(p0, p, betas, 2, 12, KernelSpec(), sched, stream_rng(32, 0), sampler)
        x = sampler(stream_rng(32, 0), 12)
        it = 0
        for tgt in annealed_targets(p0, p, betas)[1:]:
            for _ in range(2):
                d = stein_direction(x, tgt.score(x), np.ones(12), 12.0, median_bandwidth(x))
                x = x + sched.scalar_eps(it) * d
                it += 1
        assert ens.iteration == 4
        assert np.array_equal(ens.positions, x)


class TestAnnealedTargets:
    def test_endpoint_betas_reproduce_inputs(self):
        p0 = gaussian_target(np.zeros(1), 4.0)
        p = gaussian_target(np.ones(1), 1.0)
        path = annealed_targets(p0, p, np.array([0.0, 0.4, 1.0]))
        rng = stream_rng(25, 0)
        for _ in range(5):
            x = rng.standard_normal(1)[None]
            assert np.array_equal(path[0].log_density(x), p0.log_density(x))
            assert np.array_equal(path[-1].log_density(x), p.log_density(x))
            assert np.array_equal(path[-1].score(x), p.score(x))

    def test_gaussian_interpolation_closed_form(self):
        # precision of the geometric mixture: (1-b)/s0 + b/s
        s0, s, b = 4.0, 1.0, 0.3
        p0 = gaussian_target(np.zeros(1), s0)
        p = gaussian_target(np.zeros(1), s)
        mid = annealed_targets(p0, p, np.array([0.0, b, 1.0]))[1]
        prec = (1 - b) / s0 + b / s
        oracle = gaussian_target(np.zeros(1), 1.0 / prec)
        rng = stream_rng(26, 0)
        for _ in range(5):
            x = rng.standard_normal(1)[None]
            assert mid.score(x)[0, 0] == pytest.approx(oracle.score(x)[0, 0], rel=1e-12)

    def test_non_monotone_betas_rejected(self):
        p = gaussian_target(np.zeros(1), 1.0)
        for betas in ([0.0, 0.5, 0.4, 1.0], [0.1, 0.5, 1.0], [0.0, 0.5, 0.9]):
            with pytest.raises(ValueError):
                annealed_targets(p, p, np.array(betas))

    def test_uniform_base_scales_repulsion(self):
        # with constant p0 the annealed score is beta * s_p; dividing the
        # direction by beta matches the 1/beta-weighted repulsive form
        p = gaussian_target(np.zeros(1), 1.0)
        p0 = ContinuousTarget(dim=1, log_density=lambda x: np.zeros(x.shape[0]), score=np.zeros_like)
        beta = 0.25
        mid = annealed_targets(p0, p, np.array([0.0, beta, 1.0]))[1]
        x = stream_rng(27, 0).standard_normal((6, 1))
        d_mid = svgd_direction(x, mid, KERN)
        s = p.score(x)
        ones = np.ones(6)
        from steinkit.svgd import stein_direction

        d_scaled = stein_direction(x, s, ones, 6.0 / beta, 1.0)  # beta*(drive + repulse/beta)
        drive_only = stein_direction(x, s, ones, 6.0, 1.0) - stein_direction(
            x, np.zeros_like(s), ones, 6.0, 1.0
        )
        repulse_only = stein_direction(x, np.zeros_like(s), ones, 6.0, 1.0)
        assert np.allclose(d_mid, beta * drive_only + repulse_only, atol=1e-12)
        assert np.allclose(d_mid / beta, drive_only + repulse_only / beta, atol=1e-12)
        assert np.allclose(d_scaled, beta * (drive_only + repulse_only), atol=1e-12)


class TestAnnealedRun:
    def test_single_temperature_equals_plain_svgd(self):
        p0 = gaussian_target(np.zeros(1), 4.0)
        p = gaussian_target(np.zeros(1), 1.0)
        sched = StepSchedule(mode="adam", eps=0.05)
        sampler = gaussian_sampler(np.zeros(1), 4.0)
        a = run_annealed_svgd(p0, p, np.array([0.0, 1.0]), 50, 30, KERN, sched, stream_rng(28, 0), sampler)
        b = run_svgd(p, 30, 50, KERN, sched, stream_rng(28, 0), sampler)
        assert np.array_equal(a.positions, b.positions)

    def test_ksd_descent_along_trajectory(self):
        # median over 20 seeds: KSD^2 at iteration 200 at least 5x below iteration 0
        t = gaussian_target(np.zeros(1), 1.0)
        ratios = []
        for seed in range(20):
            vals = {}

            def cb(ens, store=vals):
                if ens.iteration in (0, 200):
                    h = median_bandwidth(ens.positions)
                    x = ens.positions
                    store[ens.iteration] = v_statistic_from_gram(stein_gram(x, t.score(x), h))

            run_svgd(t, 100, 200, KernelSpec(), StepSchedule(mode="adam", eps=0.05),
                     stream_rng(29, seed), gaussian_sampler(np.zeros(1), 4.0), callback=cb)
            ratios.append(vals[0] / vals[200])
        assert np.median(ratios) >= 5.0
