import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from steinkit.errors import DegenerateEnsembleError
from steinkit.kernels import (
    KernelSpec,
    median_bandwidth,
    pairwise_sq_dists,
    rbf_gram,
    resolve_bandwidth,
)
from steinkit.ksd import gf_stein_gram, stein_gram
from steinkit.models import ContinuousTarget
from steinkit.svgd import stein_direction

rng = np.random.default_rng(0)


def k(x, y, h):
    """k(x, y) for two single points, read off ``rbf_gram``."""
    return rbf_gram(x[None, :], y[None, :], h)[0, 0]


def grad_x(x, y, h):
    """grad_x k(x, y): the repulsive term of ``stein_direction`` with one
    source point x, one evaluation point y and a zero score."""
    return stein_direction(x[None, :], np.zeros((1, x.size)), np.ones(1), 1.0, h, eval_positions=y[None, :])[0]


class TestRbfEval:
    def test_identity_point(self):
        x = np.array([0.3, -1.2, 4.0])
        for h in (0.1, 1.0, 17.0):
            assert k(x, x, h) == 1.0

    def test_analytic_1d(self):
        assert k(np.array([0.0]), np.array([1.0]), 1.0) == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_analytic_2d(self):
        v = k(np.array([0.0, 0.0]), np.array([1.0, 1.0]), 2.0)
        assert v == pytest.approx(np.exp(-1.0), rel=1e-12)

    def test_symmetry_and_range(self):
        x, y = rng.normal(size=(20, 3)), rng.normal(size=(15, 3))
        gram = rbf_gram(x, y, 0.7)
        assert np.array_equal(gram, rbf_gram(y, x, 0.7).T)
        assert np.all((gram > 0.0) & (gram <= 1.0))

    def test_invalid_inputs(self):
        x = np.array([[0.0]])
        with pytest.raises(ValueError):
            rbf_gram(x, x, 0.0)
        with pytest.raises(ValueError):
            rbf_gram(x, x, -1.0)
        with pytest.raises(ValueError):
            rbf_gram(np.array([[np.nan]]), x, 1.0)
        with pytest.raises(ValueError):
            rbf_gram(np.array([[np.inf]]), x, 1.0)


class TestRbfGrad:
    def test_zero_at_coincident_points(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(grad_x(x, x, 3.0), np.zeros(2))

    def test_analytic_1d(self):
        g = grad_x(np.array([1.0]), np.array([0.0]), 1.0)
        assert g[0] == pytest.approx(-2.0 * np.exp(-1.0), rel=1e-12)

    def test_matches_central_differences(self):
        eps = 1e-6
        for _ in range(10):
            x, y = rng.normal(size=4), rng.normal(size=4)
            g = grad_x(x, y, 1.3)
            fd = np.empty(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = eps
                fd[j] = (k(x + e, y, 1.3) - k(x - e, y, 1.3)) / (2 * eps)
            assert np.linalg.norm(g - fd) / np.linalg.norm(fd) < 1e-6

    def test_antisymmetric_in_arguments(self):
        # grad_x k(x, y) = -grad_y k(x, y), i.e. swapping arguments flips sign
        for _ in range(10):
            x, y = rng.normal(size=3), rng.normal(size=3)
            assert np.allclose(grad_x(x, y, 0.9), -grad_x(y, x, 0.9), rtol=0, atol=1e-15)


def broadcast_sq_dists(x, y):
    """One-shot (n, m, d) broadcast: the reference for the blocked distances."""
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


class TestPairwiseSqDists:
    # (29|30|31, d=4500) put one row per block on either side of the block
    # budget; the others cover one block, several blocks, and block remainders.
    # d <= FEW_COORDS = 4 fills the differences per coordinate: (300, 300, 4)
    # is at the cutoff and (250, 170, 3) below it, both in several blocks;
    # (100, 100, 5) is just past it and (100, 100, 6) further.  Past it,
    # (200, 77, 7) and (3, 1000, 9) are one-block cross calls, and
    # (700, 300, 7) and (450, 450, 8) take several blocks with a remainder,
    # either way round
    SHAPES = [(1, 1, 1), (2, 2, 3), (29, 29, 4500), (30, 30, 4500), (31, 31, 4500), (500, 500, 9),
              (501, 501, 9), (257, 129, 33), (1000, 3, 2), (3, 1000, 2), (1000, 1000, 1),
              (300, 300, 4), (250, 170, 3), (100, 100, 5), (100, 100, 6),
              (200, 77, 7), (3, 1000, 9), (700, 300, 7), (450, 450, 8)]

    @pytest.mark.parametrize("n, m, d", SHAPES)
    def test_bit_identical_to_one_shot_broadcast(self, n, m, d):
        gen = np.random.default_rng(n * 7919 + m * 31 + d)
        x, y = 3.0 * gen.standard_normal((n, d)), gen.standard_normal((m, d)) - 0.5
        cross = pairwise_sq_dists(x, y)
        assert np.array_equal(cross, broadcast_sq_dists(x, y))
        assert np.array_equal(pairwise_sq_dists(y, x), cross.T)
        if n == m:
            square = pairwise_sq_dists(x, x)
            assert np.array_equal(square, broadcast_sq_dists(x, x))
            assert np.array_equal(square, square.T) and not np.any(np.diag(square))
            y, cross = x, square
        # rows of x and rows of y evaluated in halves and one at a time
        hx, hy = n // 2, m // 2
        assert np.array_equal(np.vstack([pairwise_sq_dists(x[:hx], y), pairwise_sq_dists(x[hx:], y)]), cross)
        assert np.array_equal(np.hstack([pairwise_sq_dists(x, y[:hy]), pairwise_sq_dists(x, y[hy:])]), cross)
        assert np.array_equal(np.vstack([pairwise_sq_dists(x[i:i + 1], y) for i in range(n)]), cross)
        assert np.array_equal(np.hstack([pairwise_sq_dists(x, y[j:j + 1]) for j in range(m)]), cross)


class TestMedianBandwidth:
    @staticmethod
    def old_formula(pts):
        n = pts.shape[0]
        sq = broadcast_sq_dists(pts, pts)
        return np.median(np.sqrt(sq[np.triu_indices(n, 1)])) ** 2 / (2.0 * np.log(n + 1.0))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 500, 501, 502])
    def test_bit_identical_to_full_median(self, n):
        # n(n-1)/2 pairs is odd for n in {2, 3, 502} and even for {4, 5, 500, 501};
        # the points of a 3-column integer lattice tie on many distances
        lattice = np.stack([np.arange(n) % 3, np.arange(n) // 3], axis=1).astype(float)
        for pts in (np.random.default_rng(n).standard_normal((n, 3)), lattice):
            assert median_bandwidth(pts) == self.old_formula(pts)
            assert median_bandwidth(pts, pairwise_sq_dists(pts, pts)) == self.old_formula(pts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        pts = rng.normal(size=(6, 2))
        pts[3, 1] = bad
        with np.errstate(invalid="ignore"):
            sq = pairwise_sq_dists(pts, pts)
            with pytest.raises(ValueError, match="finite"):
                median_bandwidth(pts)
        with pytest.raises(ValueError, match="finite"):
            median_bandwidth(pts, sq)

    def test_two_points(self):
        pts = np.array([[0.0], [2.0]])
        assert median_bandwidth(pts) == pytest.approx(4.0 / (2.0 * np.log(3.0)), rel=1e-12)

    def test_three_collinear_points(self):
        # pairwise distances {1, 1, 2}, median 1
        pts = np.array([[0.0], [1.0], [2.0]])
        assert median_bandwidth(pts) == pytest.approx(1.0 / (2.0 * np.log(4.0)), rel=1e-12)

    def test_degenerate_ensemble(self):
        pts = np.ones((5, 2))
        with pytest.raises(DegenerateEnsembleError):
            median_bandwidth(pts)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            median_bandwidth(np.array([[1.0]]))

    def test_translation_invariance_and_scaling(self):
        pts = rng.normal(size=(40, 3))
        h = median_bandwidth(pts)
        assert median_bandwidth(pts + 5.7) == pytest.approx(h, rel=1e-12)
        c = 3.5
        assert median_bandwidth(c * pts) == pytest.approx(c ** 2 * h, rel=1e-12)


class TestWeightedKernel:
    # the importance weighting w_i K_ij w_j as gf_stein_gram applies it, with
    # weights exp(log rho - log p) centred on the largest
    @staticmethod
    def _weighted(pts, log_w, h):
        surrogate = ContinuousTarget(dim=pts.shape[1], log_density=lambda x: np.asarray(log_w, dtype=float),
                                     score=lambda x: -x)
        return gf_stein_gram(pts, surrogate, lambda x: np.zeros(x.shape[0]), h)

    def test_unit_weights_reduce_to_unweighted_gram(self):
        pts = rng.normal(size=(5, 2))
        assert np.array_equal(self._weighted(pts, np.zeros(5), 1.0), stein_gram(pts, -pts, 1.0))

    def test_zero_weight(self):
        pts = rng.normal(size=(2, 2))
        gram = self._weighted(pts, np.array([-np.inf, np.log(2.0)]), 1.0)
        assert np.array_equal(gram[0], np.zeros(2)) and np.array_equal(gram[:, 0], np.zeros(2))

    def test_same_point_weight_product(self):
        x = rng.normal(size=2)
        pts = np.stack([x, x])
        gram = self._weighted(pts, np.log([2.0, 3.0]), 0.4)
        # weights 2 and 3 centred on 3: the cross entry carries (2/3)(3/3)
        assert gram[0, 1] == pytest.approx((2.0 / 3.0) * stein_gram(pts, -pts, 0.4)[0, 1], rel=1e-12)

    def test_weighted_gram_is_psd(self):
        pts = rng.normal(size=(30, 2))
        w = rng.uniform(0.0, 2.0, size=30)
        gram = w[:, None] * rbf_gram(pts, pts, 1.0) * w[None, :]
        eigs = np.linalg.eigvalsh(gram)
        assert eigs.min() >= -1e-8 * np.linalg.norm(gram)


class TestKernelSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            KernelSpec(bandwidth=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(bandwidth="adaptive")

    def test_resolution(self):
        pts = np.array([[0.0], [2.0]])
        assert resolve_bandwidth(KernelSpec(bandwidth=2.5), pts) == 2.5
        assert resolve_bandwidth(KernelSpec(), pts) == median_bandwidth(pts)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=4),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=4),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_rbf_symmetric_and_bounded(xs, ys, h):
    d = min(len(xs), len(ys))
    x, y = np.array(xs[:d])[None, :], np.array(ys[:d])[None, :]
    pts = np.vstack([x, y])
    gram = rbf_gram(pts, pts, h)
    assert np.array_equal(gram, gram.T)
    assert np.all((gram >= 0.0) & (gram <= 1.0))
    assert np.array_equal(np.diag(gram), np.ones(2))
