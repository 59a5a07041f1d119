import dataclasses

import numpy as np
import pytest

from steinkit.discrete import base_surrogate, continuize_data, smooth_relaxation_surrogate
from steinkit.gof import (
    TestReport,
    bootstrap_null,
    gof_gram,
    gof_test,
    mmd_hamming,
    mmd_rbf,
    weighted_mmd,
)
from steinkit.kernels import KernelSpec, median_bandwidth
from steinkit.ksd import u_statistic_from_gram
from steinkit.models import DiscreteTarget, grid_ising, ising_target, sample_discrete_target
from steinkit.rngs import stream_rng
from steinkit.steinis import WeightedSample


def three_state_target(masses=(0.25, 0.45, 0.3)):
    masses = np.asarray(masses, dtype=float)
    states = (-1.0, 0.0, 1.0)
    lookup = dict(zip(states, np.log(masses)))

    def log_mass(z):
        return np.array([sum(lookup[v] for v in row) for row in z])

    return DiscreteTarget(dims=1, alphabet=states, log_mass=log_mass)


class TestStatistic:
    def test_two_points_is_single_kernel_value(self):
        t = three_state_target()
        z = np.array([[-1.0], [1.0]])
        gram = gof_gram(z, t, stream_rng(71, 0), base_surrogate(t))
        stat = u_statistic_from_gram(gram)
        assert stat == pytest.approx(gram[0, 1], rel=1e-12)

    def test_null_statistic_centered(self):
        t = ising_target(grid_ising(2, 2, 0.3))
        stats = []
        for r in range(200):
            z = sample_discrete_target(stream_rng(71, 1, r), 40, t)
            stats.append(u_statistic_from_gram(gof_gram(z, t, stream_rng(71, 2, r), base_surrogate(t))))
        stats = np.array(stats)
        stderr = stats.std(ddof=1) / np.sqrt(stats.size)
        assert abs(stats.mean()) < 4 * stderr

    def test_duplicated_dataset_combinatorial_identity(self):
        # doubling every row changes the U-statistic only through the new
        # cross-copy pairs, whose kernel values sit on the tiled diagonal
        t = three_state_target()
        z = sample_discrete_target(stream_rng(71, 3), 30, t)
        gram = gof_gram(z, t, stream_rng(71, 4), base_surrogate(t))
        n = gram.shape[0]
        tiled = np.tile(gram, (2, 2))
        direct = u_statistic_from_gram(tiled)
        expected = (4.0 * gram.sum() - 2.0 * np.trace(gram)) / (2 * n * (2 * n - 1))
        assert direct == pytest.approx(expected, rel=1e-12)

    def test_fixed_bandwidth_at_the_median_is_the_median_gram(self):
        t = ising_target(grid_ising(2, 2, 0.3))
        z = sample_discrete_target(stream_rng(71, 6), 40, t)
        h = median_bandwidth(continuize_data(z, t, stream_rng(71, 7)))
        fixed = gof_gram(z, t, stream_rng(71, 7), base_surrogate(t), kernel=KernelSpec(h))
        assert np.array_equal(fixed, gof_gram(z, t, stream_rng(71, 7), base_surrogate(t)))

    def test_needs_two_points(self):
        t = three_state_target()
        with pytest.raises(ValueError):
            gof_gram(np.array([[0.0]]), t, stream_rng(71, 5), base_surrogate(t))


class TestBootstrap:
    def test_single_point_replicates_are_zero(self):
        reps = bootstrap_null(np.array([[3.0]]), 50, stream_rng(72, 0))
        assert np.array_equal(reps, np.zeros(50))

    def test_multinomial_weights_center(self):
        rng = stream_rng(72, 1)
        n = 30
        counts = rng.multinomial(n, np.full(n, 1.0 / n), size=200)
        v = counts / n - 1.0 / n
        assert np.allclose(v.sum(axis=1), 0.0, atol=1e-15)

    def test_replicates_centered_and_right_skewed_for_psd(self):
        rng = stream_rng(72, 2)
        a = rng.standard_normal((40, 8))
        gram = a @ a.T / 8.0
        reps = bootstrap_null(gram, 5000, stream_rng(72, 3))
        stderr = reps.std(ddof=1) / np.sqrt(reps.size)
        assert abs(reps.mean()) < 6 * stderr
        skew = np.mean((reps - reps.mean()) ** 3) / reps.std() ** 3
        assert skew > 0

    def test_permutation_exchangeability(self):
        t = three_state_target()
        z = sample_discrete_target(stream_rng(72, 4), 25, t)
        gram = gof_gram(z, t, stream_rng(72, 5), base_surrogate(t))
        perm = stream_rng(72, 6).permutation(25)
        gram_p = gram[np.ix_(perm, perm)]
        assert u_statistic_from_gram(gram_p) == pytest.approx(u_statistic_from_gram(gram), rel=1e-12)
        counts = stream_rng(72, 7).multinomial(25, np.full(25, 1.0 / 25), size=100)
        v = counts / 25 - 1.0 / 25
        for vi in v[:20]:
            r1 = vi @ gram @ vi - vi ** 2 @ np.diag(gram)
            vp = vi[perm]  # row a of the permuted gram is original row perm[a]
            r2 = vp @ gram_p @ vp - vp ** 2 @ np.diag(gram_p)
            assert r1 == pytest.approx(r2, rel=1e-10)


class TestReportInvariants:
    def _run(self, z, t, alpha=0.05, seed=3):
        return gof_test(z, t, base_surrogate(t), alpha=alpha, m=400, seed=seed)

    def test_consistency_of_fields(self):
        t = three_state_target()
        z = sample_discrete_target(stream_rng(73, 0), 60, t)
        rep = self._run(z, t)
        assert 0.0 <= rep.p_value <= 1.0
        assert rep.reject == (rep.p_value < rep.alpha)
        assert rep.reject == (rep.statistic > rep.critical_value)

    def test_reject_under_gross_mismatch(self):
        null = three_state_target((0.05, 0.05, 0.9))
        data_target = three_state_target((0.9, 0.05, 0.05))
        z = sample_discrete_target(stream_rng(73, 1), 150, data_target)
        rep = self._run(z, null)
        assert rep.reject
        assert rep.statistic > rep.critical_value

    def test_seed_reproducibility(self):
        t = three_state_target()
        z = sample_discrete_target(stream_rng(73, 2), 50, t)
        a = dataclasses.asdict(self._run(z, t, seed=12))
        b = dataclasses.asdict(self._run(z, t, seed=12))
        assert a == b


class TestRBMNullSmoke:
    def test_matched_rbm_rejection_near_alpha(self):
        # null-true Bernoulli RBM (d=10, M=5, W ~ N(0, 1/M)): rejection stays
        # at the nominal level when data come from the model itself
        from steinkit.models import BernoulliRBMParams, bernoulli_rbm_target

        rng = stream_rng(555, 0)
        params_rbm = BernoulliRBMParams(
            W=rng.normal(0, np.sqrt(1 / 5), size=(10, 5)),
            b=rng.standard_normal(10),
            c=rng.standard_normal(5),
        )
        t = bernoulli_rbm_target(params_rbm)
        hits = 0
        reps = 120
        for r in range(reps):
            z = sample_discrete_target(stream_rng(555, 1, r), 100, t)
            rep = gof_test(z, t, smooth_relaxation_surrogate(t, 10.0), alpha=0.05, m=500, seed=555_000 + r)
            hits += rep.reject
        assert hits / reps <= 0.1


class TestMonotonePower:
    def test_rejection_rate_nondecreasing_in_perturbation(self):
        null = ising_target(grid_ising(3, 3, 0.2))
        rates = []
        for theta in (0.2, 0.35, 0.5):
            data_target = ising_target(grid_ising(3, 3, theta))
            hits = 0
            reps = 40
            for r in range(reps):
                z = sample_discrete_target(stream_rng(74, int(theta * 100), r), 300, data_target)
                rep = gof_test(z, null, base_surrogate(null), alpha=0.05, m=300, seed=740_000 + r)
                hits += rep.reject
            rates.append(hits / reps)
        assert rates[1] >= rates[0] - 0.02
        assert rates[2] >= rates[1] - 0.02


class TestHammingMMD:
    def test_identical_sets_zero(self):
        z = sample_discrete_target(stream_rng(75, 0), 30, ising_target(grid_ising(2, 2, 0.1)))
        assert mmd_hamming(z, z) == 0.0

    def test_self_kernel_is_one(self):
        z = np.array([[1.0, -1.0, 1.0]])
        assert mmd_hamming(z, z) == 0.0  # 1 + 1 - 2*1

    def test_fully_differing_singletons(self):
        z1 = np.array([[1.0, 1.0, 1.0]])
        z2 = np.array([[-1.0, -1.0, -1.0]])
        assert mmd_hamming(z1, z2) == pytest.approx(2.0 - 2.0 * np.exp(-1.0), rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mmd_hamming(np.ones((2, 3)), np.ones((2, 4)))


class TestWeightedMMD:
    def test_uniform_weights_reduce_to_plain(self):
        rng = stream_rng(76, 0)
        x = rng.standard_normal((20, 2))
        y = rng.standard_normal((25, 2))
        sample = WeightedSample(positions=x, log_weights=np.zeros(20))
        assert weighted_mmd(sample, y, 1.0) == pytest.approx(mmd_rbf(x, y, 1.0), rel=1e-12)

    def test_identical_sets_uniform_weights_zero(self):
        x = stream_rng(76, 1).standard_normal((15, 1))
        sample = WeightedSample(positions=x, log_weights=np.zeros(15))
        assert weighted_mmd(sample, x, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_concentrating_weights_help_on_two_cluster_case(self):
        # x holds two clusters; y sits on one of them; upweighting the matching
        # cluster must reduce the discrepancy below uniform weighting
        rng = stream_rng(76, 2)
        near = rng.normal(0.0, 0.3, size=(25, 1))
        far = rng.normal(6.0, 0.3, size=(25, 1))
        x = np.vstack([near, far])
        y = rng.normal(0.0, 0.3, size=(40, 1))
        log_w = np.concatenate([np.zeros(25), np.full(25, -8.0)])
        uniform = WeightedSample(positions=x, log_weights=np.zeros(50))
        tilted = WeightedSample(positions=x, log_weights=log_w)
        assert weighted_mmd(tilted, y, 1.0) < weighted_mmd(uniform, y, 1.0)
