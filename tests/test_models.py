import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from steinkit import discrete, gfsvgd, gof, ksd, steinis, svgd
from steinkit.errors import StateSpaceTooLargeError
from steinkit.kernels import KernelSpec, median_bandwidth
from steinkit.models import (
    BernoulliRBMParams,
    ContinuousTarget,
    DiscreteTarget,
    GaussBernoulliRBMParams,
    bernoulli_rbm_target,
    brute_force_distribution,
    conditional_probs,
    enumerate_states,
    finite_difference_score,
    gauss_bernoulli_rbm_mixture,
    gauss_bernoulli_rbm_target,
    gaussian_logpdf,
    gaussian_sampler,
    gaussian_target,
    gibbs_sweep,
    gmm_target,
    grid_ising,
    ising_target,
    mixture_target,
    random_gauss_bernoulli_rbm,
    sample_discrete_target,
)
from steinkit.rngs import stream_rng


def fd_check(target, rng, n_points=20, tol=1e-5):
    """Analytic score vs central differences at random points."""
    for _ in range(n_points):
        x = rng.standard_normal(target.dim)
        eps = 1e-5 * (1.0 + np.linalg.norm(x))
        fd = finite_difference_score(target, x, eps)
        an = target.score(x[None])[0]
        assert np.linalg.norm(an - fd) <= tol * max(np.linalg.norm(fd), 1.0)


class TestGaussian:
    def test_score_zero_at_mean(self):
        t = gaussian_target(np.array([1.0, -2.0]), 3.0)
        assert np.array_equal(t.score(np.array([[1.0, -2.0]]))[0], np.zeros(2))

    def test_log_density_difference(self):
        t = gaussian_target(np.zeros(2), 2.0)
        diff = t.log_density(np.array([[1.0, 1.0]]))[0] - t.log_density(np.zeros((1, 2)))[0]
        assert diff == pytest.approx(-0.5, abs=1e-14)

    def test_finite_difference_score(self):
        fd_check(gaussian_target(np.array([0.5, -1.0, 2.0]), 1.7), stream_rng(1, 0))

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_target(np.zeros(1), 0.0)


class TestGMM:
    def test_single_component_matches_gaussian(self):
        mu = np.array([0.7, -0.3])
        g = gaussian_target(mu, 1.4)
        m = gmm_target(np.array([1.0]), mu[None, :], 1.4)
        rng = stream_rng(2, 0)
        for _ in range(10):
            x = rng.standard_normal(2)[None]
            assert m.log_density(x)[0] == pytest.approx(g.log_density(x)[0], abs=1e-12)
            assert np.allclose(m.score(x), g.score(x), atol=1e-12)

    def test_symmetric_midpoint_score_vanishes(self):
        means = np.array([[-2.0, 0.0], [2.0, 0.0]])
        m = gmm_target(np.array([0.5, 0.5]), means, 1.0)
        assert np.allclose(m.score(np.zeros((1, 2))), 0.0, atol=1e-14)

    def test_finite_difference_score(self):
        rng = stream_rng(3, 0)
        means = rng.uniform(-1, 1, size=(5, 3))
        w = rng.uniform(0.5, 1.5, size=5)
        w /= w.sum()
        fd_check(gmm_target(w, means, 0.8), rng)

    @pytest.mark.parametrize("shift", [0.0, 1e3])
    def test_softmax_matches_scipy_logsumexp(self, shift):
        # shift 1e3 puts every point that far from every mean: the logits are
        # about -7e5, where an unshifted exp underflows to log(0).  The oracle
        # responsibilities come from the shifted logits z, because
        # exp(logits - logsumexp(logits)) carries the rounding of a log-sum
        # near -7e5 (about 1e-10) into every responsibility.
        rng = stream_rng(3, 1)
        means = rng.uniform(-1, 1, size=(10, 2))
        w = rng.uniform(0.5, 1.5, size=10)
        w /= w.sum()
        sigma = 0.7
        x = rng.standard_normal((50, 2)) * 2.0
        x[:, 0] += shift
        logits = np.log(w) - ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2) / (2.0 * sigma)
        lse = logsumexp(logits, axis=1, keepdims=True)
        z = logits - logits.max(axis=1, keepdims=True)
        r = np.exp(z - logsumexp(z, axis=1, keepdims=True))
        score = np.einsum("nm,nmd->nd", r, means[None, :, :] - x[:, None, :]) / sigma
        m = gmm_target(w, means, sigma)
        logp, s = m.log_density(x), m.score(x)
        assert np.all(np.isfinite(logp)) and np.all(np.isfinite(s))
        assert np.all(np.abs(logp - lse[:, 0]) <= 1e-14 * np.maximum(1.0, np.abs(lse[:, 0])))
        assert np.all(np.abs(s - score) <= 1e-14 * np.maximum(1.0, np.abs(score)))

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            gmm_target(np.array([0.5, 0.6]), np.zeros((2, 1)), 1.0)
        with pytest.raises(ValueError):
            gmm_target(np.array([]), np.zeros((0, 1)), 1.0)


class TestGaussBernoulliRBM:
    def test_decoupled_reduces_to_gaussian(self):
        b = np.array([0.4, -1.1])
        params = GaussBernoulliRBMParams(B=np.zeros((2, 3)), b=b, c=np.zeros(3))
        t = gauss_bernoulli_rbm_target(params)
        rng = stream_rng(4, 0)
        for _ in range(5):
            x = rng.standard_normal(2)[None]
            assert np.allclose(t.score(x), b - x, atol=1e-12)

    def test_finite_difference_score(self):
        params = random_gauss_bernoulli_rbm(stream_rng(5, 0), dim=4, hidden=6)
        fd_check(gauss_bernoulli_rbm_target(params), stream_rng(5, 1))

    def test_brute_force_hidden_enumeration(self):
        # sum over all 2^10 hidden states must match the marginal up to an
        # x-independent constant: difference of differences below 1e-8
        params = random_gauss_bernoulli_rbm(stream_rng(6, 0), dim=3, hidden=10)
        t = gauss_bernoulli_rbm_target(params)
        rng = stream_rng(6, 1)
        xs = rng.standard_normal((5, 3))
        direct = []
        hs = np.array(list(itertools.product([-1.0, 1.0], repeat=10)))
        for x in xs:
            vals = hs @ (params.B.T @ x + params.c) + params.b @ x - 0.5 * x @ x
            direct.append(np.log(np.sum(np.exp(vals))))
        direct = np.array(direct)
        ours = t.log_density(xs)
        offsets = ours - direct
        assert np.max(np.abs(offsets - offsets[0])) < 1e-8

    def test_exact_mixture_moments(self):
        params = random_gauss_bernoulli_rbm(stream_rng(7, 0), dim=2, hidden=4)
        mus, logw = gauss_bernoulli_rbm_mixture(params)
        p = np.exp(logw - logw.max())
        p /= p.sum()
        mean = p @ mus
        # marginal mean from a large exact sample
        from steinkit.models import sample_gauss_bernoulli_rbm

        x = sample_gauss_bernoulli_rbm(stream_rng(7, 1), 200000, params)
        assert np.allclose(x.mean(axis=0), mean, atol=0.02)

    def test_mixture_form_is_the_marginal(self):
        # the ordering tests read the true mean off this mixture form
        params = random_gauss_bernoulli_rbm(stream_rng(8, 0), dim=3, hidden=5)
        mus, logw = gauss_bernoulli_rbm_mixture(params)
        t, m = gauss_bernoulli_rbm_target(params), mixture_target(logw, mus, 1.0)
        xs = 2.0 * stream_rng(8, 1).standard_normal((20, 3))
        assert np.max(np.abs(t.score(xs) - m.score(xs))) <= 1e-10
        offsets = t.log_density(xs) - m.log_density(xs)
        assert np.max(np.abs(offsets - offsets[0])) <= 1e-10


ONE_EDGE = np.array([[0.0, 1.0], [1.0, 0.0]])


class TestIsing:
    def test_zero_coupling_is_uniform(self):
        t = ising_target(np.zeros((3, 3)))
        p = brute_force_distribution(t)
        assert np.allclose(p, 1.0 / 8.0, atol=1e-15)

    def test_single_edge_mass_ratio(self):
        t = ising_target(ONE_EDGE)
        lp = t.log_mass(np.array([[1.0, 1.0], [1.0, -1.0]]))
        assert np.exp(lp[0] - lp[1]) == pytest.approx(np.exp(2.0), rel=1e-12)

    def test_brute_force_d2_analytic(self):
        t = ising_target(ONE_EDGE)
        p = brute_force_distribution(t)
        z = 2 * np.exp(1.0) + 2 * np.exp(-1.0)
        expected = np.array([np.exp(1.0), np.exp(-1.0), np.exp(-1.0), np.exp(1.0)]) / z
        assert np.allclose(p, expected, atol=1e-14)

    def test_grid_marginals_against_independent_enumeration(self):
        t = ising_target(grid_ising(3, 3, 0.2))
        probs = brute_force_distribution(t)
        states = enumerate_states(t.alphabet, t.dims)
        # independent oracle: the 3x3 lattice's 12 edges, listed by hand, and
        # per-state energies by an explicit python loop
        edges = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),
                 (0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8)]
        oracle_logm = []
        for s in states:
            e = sum(0.2 * s[i] * s[j] for i, j in edges)
            oracle_logm.append(e)
        oracle = np.exp(np.array(oracle_logm))
        oracle /= oracle.sum()
        assert np.allclose(probs, oracle, atol=1e-12)
        marginals = probs @ states
        assert np.allclose(marginals, oracle @ states, atol=1e-12)

    def test_target_holds_its_couplings_read_only(self):
        m = grid_ising(2, 2, 0.3)
        t = ising_target(m)
        assert np.array_equal(t.couplings, m) and t.couplings is not m
        m[0, 1] = 5.0  # the target keeps its own copy
        assert t.couplings[0, 1] == 0.3
        with pytest.raises(ValueError):
            t.couplings[0, 1] = 1.0

    def test_rejects_invalid_couplings(self):
        for couplings in (
            np.zeros((2, 3)),                           # not square
            np.zeros(4),                                # not a matrix
            np.array([[0.0, 0.5], [0.4, 0.0]]),         # not symmetric
            np.array([[0.1, 0.5], [0.5, 0.0]]),         # nonzero diagonal
            np.array([[0.0, np.nan], [np.nan, 0.0]]),   # not finite
            np.array([[0.0, np.inf], [np.inf, 0.0]]),
        ):
            with pytest.raises(ValueError):
                ising_target(couplings)


class TestBernoulliRBM:
    def test_zero_coupling_closed_form(self):
        b = np.array([0.3, -0.2])
        params = BernoulliRBMParams(W=np.zeros((2, 5)), b=b, c=np.zeros(5))
        t = bernoulli_rbm_target(params)
        z = np.array([[1.0, -1.0]])
        assert t.log_mass(z)[0] == pytest.approx(z[0] @ b + 5 * np.log(2.0), rel=1e-12)

    def test_exhaustive_enumeration_oracle(self):
        rng = stream_rng(8, 0)
        params = BernoulliRBMParams(
            W=rng.normal(0, 0.3, size=(10, 5)), b=rng.normal(size=10), c=rng.normal(size=5)
        )
        t = bernoulli_rbm_target(params)
        probs = brute_force_distribution(t)
        states = enumerate_states(t.alphabet, 10)
        oracle = []
        for s in states:
            phi = params.W.T @ s + params.c
            oracle.append(s @ params.b + np.sum(np.log1p(np.exp(phi))))
        oracle = np.exp(np.array(oracle) - np.max(oracle))
        oracle /= oracle.sum()
        assert np.allclose(probs, oracle, rtol=1e-10)

    def test_bias_sign_flip_flips_means(self):
        rng = stream_rng(9, 0)
        b = rng.normal(size=6)
        params_pos = BernoulliRBMParams(W=np.zeros((6, 3)), b=b, c=np.zeros(3))
        params_neg = BernoulliRBMParams(W=np.zeros((6, 3)), b=-b, c=np.zeros(3))
        states = enumerate_states((-1.0, 1.0), 6)
        m_pos = brute_force_distribution(bernoulli_rbm_target(params_pos)) @ states
        m_neg = brute_force_distribution(bernoulli_rbm_target(params_neg)) @ states
        assert np.allclose(m_pos, -m_neg, atol=1e-12)


class TestBruteForce:
    def test_probability_vector(self):
        p = brute_force_distribution(ising_target(grid_ising(2, 2, 0.3)))
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p >= 0)

    def test_shift_invariance(self):
        t = ising_target(grid_ising(2, 2, 0.3))
        shifted = type(t)(
            dims=t.dims, alphabet=t.alphabet, log_mass=lambda z: t.log_mass(z) + 123.4
        )
        assert np.allclose(brute_force_distribution(t), brute_force_distribution(shifted), atol=1e-12)

    def test_resource_limit(self):
        big = type(ising_target(grid_ising(2, 2, 0.1)))(
            dims=25, alphabet=(-1.0, 1.0), log_mass=lambda z: np.zeros(z.shape[0])
        )
        with pytest.raises(StateSpaceTooLargeError):
            brute_force_distribution(big)


class TestGibbs:
    def test_conditionals_sum_to_one(self):
        t = ising_target(grid_ising(2, 2, 0.7))
        states = enumerate_states(t.alphabet, 4)
        p = conditional_probs(t, states, 2)
        assert p.shape == (16, 2)
        assert np.allclose(p.sum(axis=1), 1.0, rtol=0, atol=1e-15)

    def test_uniform_long_run_mean(self):
        # independent chains in place of one long run, one sweep each: without
        # couplings one sweep draws exactly
        t = ising_target(np.zeros((3, 3)))
        rng = stream_rng(10, 0)
        chains = 4000
        states = gibbs_sweep(t, np.ones((chains, 3)), rng)
        stderr = 1.0 / np.sqrt(chains)
        assert np.all(np.abs(states.mean(axis=0)) < 3.5 * stderr)

    def test_strong_edge_agreement_frequency(self):
        t = ising_target(3.0 * ONE_EDGE)
        probs = brute_force_distribution(t)
        states = enumerate_states(t.alphabet, 2)
        p_agree = probs[(states[:, 0] == states[:, 1])].sum()
        rng = stream_rng(11, 0)
        chains = 6000
        state = np.tile([1.0, -1.0], (chains, 1))
        for _ in range(5):
            gibbs_sweep(t, state, rng)
        hits = np.sum(state[:, 0] == state[:, 1])
        assert abs(hits / chains - p_agree) < 0.02

    def test_sweep_preserves_exact_distribution(self):
        # explicit 4x4 transition matrix of one systematic sweep has the exact
        # distribution as a fixed point
        t = ising_target(0.8 * ONE_EDGE)
        pi = brute_force_distribution(t)
        states = enumerate_states(t.alphabet, 2)

        def coord_kernel(coord):
            k = np.zeros((4, 4))
            p = conditional_probs(t, states, coord)
            for i, s in enumerate(states):
                for a_idx, a in enumerate(t.alphabet):
                    new = s.copy()
                    new[coord] = a
                    j = next(m for m, r in enumerate(states) if np.array_equal(r, new))
                    k[i, j] += p[i, a_idx]
            return k

        transition = coord_kernel(0) @ coord_kernel(1)
        assert np.allclose(pi @ transition, pi, atol=1e-12)


class TestFiniteDifferenceScore:
    def test_exact_for_linear_log_density(self):
        from steinkit.models import ContinuousTarget

        a = np.array([0.3, -2.0])
        t = ContinuousTarget(dim=2, log_density=lambda x: x @ a, score=None)
        fd = finite_difference_score(t, np.array([1.0, 1.0]), 1e-4)
        assert np.allclose(fd, a, atol=1e-10)

    def test_richardson_eps_halving(self):
        t = gaussian_target(np.zeros(1), 1.0)

        def quartic_target():
            from steinkit.models import ContinuousTarget

            return ContinuousTarget(
                dim=1,
                log_density=lambda x: -x[:, 0] ** 4,
                score=lambda x: -4.0 * x ** 3,
            )

        q = quartic_target()
        x = np.array([0.9])
        exact = q.score(x[None])[0]
        e1 = abs(finite_difference_score(q, x, 2e-2)[0] - exact)
        e2 = abs(finite_difference_score(q, x, 1e-2)[0] - exact)
        assert 3.5 < e1 / e2 < 4.5

    def test_exact_sampler_matches_brute_force(self):
        t = ising_target(grid_ising(2, 2, 0.4))
        probs = brute_force_distribution(t)
        states = enumerate_states(t.alphabet, 4)
        z = sample_discrete_target(stream_rng(12, 0), 100000, t)
        emp = np.array([np.mean(np.all(z == s, axis=1)) for s in states])
        assert np.max(np.abs(emp - probs)) < 0.01


def batch_only(fn):
    """``fn`` behind a check that it is called with a float (n, d) array."""
    if fn is None:
        return None

    def checked(x):
        if not (isinstance(x, np.ndarray) and x.ndim == 2 and x.dtype == float):
            raise AssertionError(f"called with {type(x).__name__} of ndim {np.ndim(x)}, not a float (n, d) array")
        return fn(x)

    return checked


def batch_only_target(t):
    if isinstance(t, DiscreteTarget):
        return DiscreteTarget(dims=t.dims, alphabet=t.alphabet, log_mass=batch_only(t.log_mass),
                              relaxed_score=batch_only(t.relaxed_score))
    return ContinuousTarget(dim=t.dim, log_density=batch_only(t.log_density), score=batch_only(t.score))


class TestBatchContract:
    """Every path of the library calls targets, surrogates and proposal
    densities with (n, d) batches only: these targets raise on anything else."""

    KERN = KernelSpec()
    ADAM = svgd.StepSchedule()
    DECAY = svgd.StepSchedule(mode="decay", eps=0.3)
    P = batch_only_target(gaussian_target(np.array([0.5, -0.5]), 1.0))
    RHO = batch_only_target(gaussian_target(np.zeros(2), 2.0))
    Q0 = staticmethod(gaussian_sampler(np.zeros(2), 2.0))
    Q0_LOGPDF = staticmethod(batch_only(gaussian_logpdf(np.zeros(2), 2.0)))
    ISING = batch_only_target(ising_target(grid_ising(2, 2, 0.3)))

    @staticmethod
    def rng():
        return stream_rng(95, 0)

    def test_svgd(self):
        svgd.run_svgd(self.P, 10, 3, self.KERN, self.ADAM, self.rng(), self.Q0)
        svgd.run_annealed_svgd(self.RHO, self.P, np.linspace(0.0, 1.0, 4), 1, 10, self.KERN, self.ADAM,
                               self.rng(), self.Q0)

    def test_gf_svgd(self):
        gfsvgd.run_gf_svgd(self.P, self.RHO, 10, 3, self.KERN, self.ADAM, "self-normalized", self.rng(), self.Q0)

    def test_agf_svgd(self):
        gfsvgd.run_agf_svgd(self.P, self.RHO, np.linspace(0.0, 1.0, 4), 10, self.KERN, self.ADAM, self.rng(),
                            self.Q0)

    def test_steinis(self):
        steinis.run_steinis(self.P, self.Q0, self.Q0_LOGPDF, 5, 5, 3, self.KERN, self.DECAY, self.rng())

    def test_path_logz(self):
        steinis.path_integration_logZ(self.P, self.Q0, self.Q0_LOGPDF, 10, 3, KernelSpec(1.0),
                                      svgd.StepSchedule(mode="constant", eps=0.05), 50, self.rng())

    SURROGATES = {"base": discrete.base_surrogate(ISING),
                  "relaxed": discrete.smooth_relaxation_surrogate(ISING, 10.0)}

    @pytest.mark.parametrize("mode", ["base", "relaxed"])
    def test_sample_discrete(self, mode):
        discrete.sample_discrete(self.ISING, self.SURROGATES[mode], 10, 3, self.KERN, self.ADAM, self.rng())

    @pytest.mark.parametrize("mode", ["base", "relaxed"])
    def test_gof(self, mode):
        z = sample_discrete_target(self.rng(), 20, self.ISING)
        gof.gof_test(z, self.ISING, self.SURROGATES[mode], m=20)

    def test_bbis_gram(self):
        x = self.Q0(self.rng(), 10)
        ksd.gf_stein_gram(x, self.RHO, self.P.log_density, median_bandwidth(x))

    def test_oracles(self):
        brute_force_distribution(self.ISING)
        gibbs_sweep(self.ISING, np.ones((3, 4)), self.rng())
        finite_difference_score(self.P, np.array([0.1, 0.2]), 1e-5)
