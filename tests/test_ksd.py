import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit.errors import NumericalFailure
from steinkit.ksd import (
    alpha_stein_gram,
    bbis_error_bound,
    bbis_weights,
    gf_stein_gram,
    simplex_project,
    solve_simplex_qp,
    stein_gram,
    u_statistic_from_gram,
    v_statistic_from_gram,
)
from steinkit.models import ContinuousTarget, gaussian_logpdf, gaussian_target
from steinkit.rngs import stream_rng


def std_normal_score(x):
    return -x


def five_term_oracle(x, y, p, p_log, rho, rho_log, h):
    """w(x) kappa_rho(x, y) w(y) for one pair, assembled independently from
    the product-rule expansion of the weighted kernel, using s_p and
    s_ell = s_p - s_rho; with rho = p it is the plain Stein kernel kappa_p."""
    ell = lambda v: np.exp(float(p_log(v[None])[0]) - float(rho_log(v[None])[0]))  # 1/w
    s_ell = lambda v: p.score(v[None])[0] - rho.score(v[None])[0]
    d = x.size
    r2 = np.sum((x - y) ** 2)
    k = np.exp(-r2 / h)
    gx = -(2.0 / h) * (x - y) * k
    gy = (2.0 / h) * (x - y) * k
    tr = k * (2.0 * d / h - 4.0 * r2 / h ** 2)
    denom = ell(x) * ell(y)
    sp_x, sp_y = p.score(x[None])[0], p.score(y[None])[0]
    sl_x, sl_y = s_ell(x), s_ell(y)
    t1 = float(sp_x @ sp_y) * k / denom
    t2 = float(sp_x @ (gy - k * sl_y)) / denom
    t3 = float(sp_y @ (gx - k * sl_x)) / denom
    t4 = (tr - float(gx @ sl_y) - float(gy @ sl_x) + float(sl_x @ sl_y) * k) / denom
    return t1 + t2 + t3 + t4


class TestSteinKernel:
    def test_value_at_origin(self):
        x = np.zeros((1, 1))
        assert stein_gram(x, std_normal_score(x), 1.0)[0, 0] == pytest.approx(2.0, abs=1e-14)

    def test_trace_term_scales_with_dimension(self):
        x = np.zeros((1, 3))
        assert stein_gram(x, std_normal_score(x), 2.0)[0, 0] == pytest.approx(2.0 * 3 / 2.0, abs=1e-14)

    def test_symmetry(self):
        x = stream_rng(41, 0).standard_normal((20, 2))
        gram = stein_gram(x, std_normal_score(x), 0.8)
        assert gram == pytest.approx(gram.T, rel=1e-12)

    def test_gram_psd_over_sample(self):
        rng = stream_rng(41, 1)
        x = rng.standard_normal((50, 1))
        gram = stein_gram(x, std_normal_score(x), 1.0)
        eigs = np.linalg.eigvalsh(0.5 * (gram + gram.T))
        assert eigs.min() >= -1e-8 * np.linalg.norm(gram)

    def test_gram_matches_pairwise(self):
        p = gaussian_target(np.zeros(2), 1.0)
        p_log = gaussian_logpdf(np.zeros(2), 1.0)
        x = stream_rng(41, 2).standard_normal((6, 2))
        gram = stein_gram(x, std_normal_score(x), 1.3)
        for i in range(6):
            for j in range(6):
                assert gram[i, j] == pytest.approx(five_term_oracle(x[i], x[j], p, p_log, p, p_log, 1.3), rel=1e-12)

    def test_square_gram_is_the_two_set_form_at_one_set(self):
        # the square Gram reuses s x' for both cross terms; the two-set form builds each
        x = stream_rng(41, 4).standard_normal((15, 3))
        s = std_normal_score(x)
        assert np.array_equal(stein_gram(x, s, 0.9), stein_gram(x, s, 0.9, y=x, y_scores=s))

    def test_cross_gram_is_a_block_of_the_stacked_gram(self):
        rng = stream_rng(41, 5)
        x, y = rng.standard_normal((7, 2)), rng.standard_normal((4, 2))
        stacked = np.vstack([x, y])
        square = stein_gram(stacked, std_normal_score(stacked), 1.2)
        cross = stein_gram(x, std_normal_score(x), 1.2, y=y, y_scores=std_normal_score(y))
        assert cross == pytest.approx(square[:7, 7:], rel=1e-12, abs=1e-14)

    def test_stein_identity_monte_carlo(self):
        # E_{x~N(0,1)} kappa_p(x, y0) = 0, checked with 1e6 draws
        rng = stream_rng(41, 3)
        x = rng.standard_normal((1_000_000, 1))
        y0 = np.array([[0.5]])
        vals = stein_gram(x, std_normal_score(x), 1.0, y=y0, y_scores=std_normal_score(y0))[:, 0]
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(vals.mean()) < 4.0 * stderr


class TestGradientFreeKernel:
    def test_reduction_at_normalized_rho(self):
        p_log = gaussian_logpdf(np.zeros(2), 1.0)
        t = gaussian_target(np.zeros(2), 1.0)
        surrogate = ContinuousTarget(dim=2, log_density=p_log, score=t.score)
        x = stream_rng(42, 0).standard_normal((100, 2))
        gf = gf_stein_gram(x, surrogate, p_log, 1.0)
        direct = stein_gram(x, t.score(x), 1.0)
        assert np.all(np.abs(gf - direct) <= 1e-10 * np.maximum(1.0, np.abs(direct)))

    def test_zero_weight_boundary(self):
        # the surrogate density vanishes at the second point only
        p_log = gaussian_logpdf(np.zeros(1), 1.0)
        surrogate = ContinuousTarget(
            dim=1,
            log_density=lambda x: np.where(x[:, 0] > 0.5, -np.inf, p_log(x)),
            score=np.zeros_like,
        )
        gram = gf_stein_gram(np.array([[0.0], [1.0]]), surrogate, p_log, 1.0)
        assert gram[0, 1] == 0.0 and gram[1, 1] == 0.0

    def test_expanded_five_term_oracle(self):
        p = gaussian_target(np.zeros(2), 1.0)
        rho = gaussian_target(np.zeros(2), 2.0)
        p_log = gaussian_logpdf(np.zeros(2), 1.0)
        rho_log = gaussian_logpdf(np.zeros(2), 2.0)
        surrogate = ContinuousTarget(dim=2, log_density=rho_log, score=rho.score)
        h = 1.4
        x = stream_rng(42, 1).standard_normal((30, 2))
        # gf_stein_gram centres the log-weights: undo its exp(2 max log w) factor
        scale = np.exp(2.0 * np.max(rho_log(x) - p_log(x)))
        ours = scale * gf_stein_gram(x, surrogate, p_log, h)
        for i in range(30):
            for j in range(30):
                oracle = five_term_oracle(x[i], x[j], p, p_log, rho, rho_log, h)
                assert abs(ours[i, j] - oracle) <= 1e-10 * max(1.0, abs(oracle))


class TestStatistics:
    def test_two_point_expansion(self):
        gram = np.array([[3.0, 2.0], [2.0, 5.0]])
        # V = (a + b + 2c)/4, U = c
        assert v_statistic_from_gram(gram) == pytest.approx((3.0 + 5.0 + 4.0) / 4.0)
        assert u_statistic_from_gram(gram) == pytest.approx(2.0)

    def test_v_nonnegative_for_psd_kernel(self):
        rng = stream_rng(43, 0)
        for _ in range(5):
            x = rng.standard_normal((30, 1))
            gram = stein_gram(x, std_normal_score(x), 1.0)
            assert v_statistic_from_gram(gram) >= -1e-12

    def test_u_statistic_centered_under_null(self):
        # kappa_p U-statistic over p-samples: mean across trials ~ 0
        rng = stream_rng(43, 1)
        stats = []
        for _ in range(200):
            x = rng.standard_normal((100, 1))
            gram = stein_gram(x, std_normal_score(x), 1.0)
            stats.append(u_statistic_from_gram(gram))
        stats = np.array(stats)
        stderr = stats.std(ddof=1) / np.sqrt(stats.size)
        assert abs(stats.mean()) < 4.0 * stderr

    def test_u_unbiased_for_population_value(self):
        # synthetic kernel kappa(x, y) = x y has population mean (E x)^2 = 0
        rng = stream_rng(43, 2)
        vals = []
        for _ in range(300):
            x = rng.standard_normal(50)
            vals.append((x.sum() ** 2 - (x ** 2).sum()) / (50 * 49))
        vals = np.array(vals)
        assert abs(vals.mean()) < 4.0 * vals.std(ddof=1) / np.sqrt(vals.size)

    def test_size_requirements(self):
        with pytest.raises(ValueError):
            u_statistic_from_gram(np.ones((1, 1)))


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        assert np.allclose(simplex_project(v), v, atol=1e-14)

    def test_matches_definition_on_random_inputs(self):
        rng = stream_rng(44, 0)
        for _ in range(50):
            v = rng.normal(size=6)
            proj = simplex_project(v)
            assert proj.min() >= 0
            assert proj.sum() == pytest.approx(1.0, abs=1e-12)
            # projection optimality: no simplex point is closer
            for _ in range(20):
                w = rng.dirichlet(np.ones(6))
                assert np.sum((proj - v) ** 2) <= np.sum((w - v) ** 2) + 1e-12


class TestBBIS:
    def test_single_point(self):
        assert np.array_equal(solve_simplex_qp(np.array([[2.0]])), np.ones(1))

    def test_identity_gram_gives_uniform(self):
        u = solve_simplex_qp(np.eye(5))
        assert np.allclose(u, 0.2, atol=1e-8)

    def test_three_point_grid_search_oracle(self):
        k = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
        u = solve_simplex_qp(k)
        # exhaustive grid over the simplex at resolution 1e-3
        g = np.linspace(0.0, 1.0, 1001)
        u1, u2 = np.meshgrid(g, g, indexing="ij")
        u3 = 1.0 - u1 - u2
        mask = u3 >= -1e-12
        cand = np.stack([u1[mask], u2[mask], np.maximum(u3[mask], 0.0)], axis=1)
        objs = np.einsum("ni,ij,nj->n", cand, k, cand)
        best = cand[objs.argmin()]
        assert np.max(np.abs(u - best)) < 2e-3

    def test_constraints_and_objective_vs_uniform(self):
        rng = stream_rng(45, 0)
        a = rng.standard_normal((12, 12))
        k = a @ a.T
        u = solve_simplex_qp(k)
        assert abs(u.sum() - 1.0) <= 1e-8
        assert u.min() >= -1e-12
        uniform = np.full(12, 1.0 / 12.0)
        assert u @ k @ u <= uniform @ k @ uniform + 1e-12

    def test_weights_from_points(self):
        t = gaussian_target(np.zeros(1), 1.0)
        pts = stream_rng(45, 1).normal(1.0, 1.0, size=(40, 1))
        u = bbis_weights(gf_stein_gram(pts, t, t.log_density, 1.0))
        assert abs(u.sum() - 1.0) <= 1e-8
        assert u.min() >= -1e-12
        # reweighted mean should move toward the target mean of 0
        assert abs(u @ pts[:, 0]) < abs(pts[:, 0].mean())


class TestBBISBound:
    # the surrogate is the target, so the log-weights are 0 and the Gram's
    # centring changes nothing: bounds compare across point sets
    @staticmethod
    def _gram(pts):
        t = gaussian_target(np.zeros(1), 1.0)
        return gf_stein_gram(pts, t, t.log_density, 1.0)

    def test_uniform_weights_equal_v_statistic(self):
        gram = self._gram(stream_rng(46, 0).standard_normal((15, 1)))
        bound = bbis_error_bound(np.full(15, 1.0 / 15.0), gram)
        assert bound == pytest.approx(np.sqrt(max(v_statistic_from_gram(gram), 0.0)), rel=1e-10)

    def test_optimized_weights_no_worse_than_uniform(self):
        gram = self._gram(stream_rng(46, 1).normal(0.7, 1.0, size=(25, 1)))
        u = bbis_weights(gram)
        assert bbis_error_bound(u, gram) <= bbis_error_bound(np.full(25, 1.0 / 25.0), gram) + 1e-10

    def test_bound_smaller_for_better_samples(self):
        rng = stream_rng(46, 2)
        close = rng.normal(0.0, 1.0, size=(30, 1))
        far = rng.normal(2.5, 1.0, size=(30, 1))
        w = np.full(30, 1.0 / 30.0)
        assert bbis_error_bound(w, self._gram(close)) < bbis_error_bound(w, self._gram(far))

    def test_rejects_off_simplex_weights(self):
        with pytest.raises(ValueError):
            bbis_error_bound(np.array([0.5, 0.5, 0.5]), self._gram(np.zeros((3, 1))))

    def test_negative_quadratic_form_is_a_numerical_failure(self):
        with pytest.raises(NumericalFailure):
            bbis_error_bound(np.array([0.5, 0.5]), -np.eye(2))


class TestAlphaKernel:
    def test_alpha_zero_reduces_exactly(self):
        t = gaussian_target(np.zeros(2), 1.0)
        x = stream_rng(47, 0).standard_normal((20, 2))
        assert np.array_equal(alpha_stein_gram(x, t.log_density, t.score, 0.0, 1.0), stein_gram(x, t.score(x), 1.0))

    def test_symmetry(self):
        t = gaussian_target(np.zeros(1), 1.0)
        x = stream_rng(47, 1).standard_normal((20, 1))
        gram = alpha_stein_gram(x, t.log_density, t.score, 0.5, 1.0)
        assert gram == pytest.approx(gram.T, rel=1e-12)

    def test_finite_values(self):
        t = gaussian_target(np.zeros(1), 1.0)
        x = stream_rng(47, 2).standard_normal((50, 1))
        assert np.all(np.isfinite(alpha_stein_gram(x, t.log_density, t.score, 0.5, 1.0)))

    def test_entry_matches_written_out_formula(self):
        # p(x)^a p(y)^a [(a+1)^2 s_x's_y k + (a+1) s_x'grad_y k + (a+1) s_y'grad_x k + tr]
        t = gaussian_target(np.array([0.5, -1.0]), 1.5)
        pts = stream_rng(47, 3).standard_normal((2, 2))
        a, h = 0.5, 1.2
        x, y = pts
        sx, sy = t.score(pts)
        log_px, log_py = t.log_density(pts)
        r2 = np.sum((x - y) ** 2)
        k = np.exp(-r2 / h)
        grad_y, grad_x = (2.0 / h) * (x - y) * k, -(2.0 / h) * (x - y) * k
        tr = k * (2.0 * 2 / h - 4.0 * r2 / h ** 2)
        expected = np.exp(a * (float(log_px) + float(log_py))) * (
            (a + 1) ** 2 * float(sx @ sy) * k + (a + 1) * float(sx @ grad_y) + (a + 1) * float(sy @ grad_x) + tr
        )
        assert alpha_stein_gram(pts, t.log_density, t.score, a, h)[0, 1] == pytest.approx(expected, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=2, max_size=8))
def test_projection_idempotent(vals):
    v = np.array(vals)
    once = simplex_project(v)
    twice = simplex_project(once)
    assert np.allclose(once, twice, atol=1e-10)
