"""RBF kernel, pairwise squared distances and bandwidth heuristics.

Bandwidth convention: ``k(x, y) = exp(-||x - y||^2 / h)`` with the squared
distance divided by ``h`` directly.  There is no factor 2 in the denominator
and ``h`` is not squared, i.e. this is *not* the ``exp(-||.||^2 / (2 h^2))``
parameterization; the median heuristic below is stated for this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateEnsembleError

MEDIAN_HEURISTIC = "median-heuristic"


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel with either a fixed bandwidth or the median heuristic.

    ``bandwidth`` is a positive float, or the sentinel ``"median-heuristic"``
    in which case iterative algorithms recompute the bandwidth from their
    current point set every iteration.
    """

    family: str = "rbf"
    bandwidth: float | str = MEDIAN_HEURISTIC

    def __post_init__(self):
        if self.family != "rbf":
            raise ValueError(f"unsupported kernel family: {self.family!r}")
        if isinstance(self.bandwidth, str):
            if self.bandwidth != MEDIAN_HEURISTIC:
                raise ValueError(f"unknown bandwidth sentinel: {self.bandwidth!r}")
        elif not (float(self.bandwidth) > 0.0):
            raise ValueError("explicit bandwidth must be > 0")


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All squared Euclidean distances between rows of x (n,d) and y (m,d).

    Computed by explicit broadcasting (not a Gram trick), so each entry is a
    self-contained reduction over the coordinate axis: results do not change
    when either point set is evaluated in chunks.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.atleast_2d(np.asarray(y, dtype=float))
    diff = x[:, None, :] - y[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def rbf_gram(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Kernel matrix K[i, j] = k(x_i, y_j); every entry lies in [0, 1]."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError("bandwidth h must be a positive finite real")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("kernel inputs must be finite")
    return np.exp(-pairwise_sq_dists(x, y) / h)


def median_bandwidth(points: np.ndarray, sq: Optional[np.ndarray] = None) -> float:
    """Median-heuristic bandwidth ``med^2 / (2 log(n + 1))``.

    ``med`` is the exact median of all n(n-1)/2 pairwise Euclidean distances
    (no subsampling).  ``sq`` is ``pairwise_sq_dists(points, points)`` when
    the caller already has it.  Raises if the point set is degenerate
    (med = 0).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least two points")
    if sq is None:
        sq = pairwise_sq_dists(pts, pts)
    iu = np.triu_indices(n, k=1)
    med = float(np.median(np.sqrt(sq[iu])))
    if med <= 0.0:
        raise DegenerateEnsembleError("all points identical: median pairwise distance is zero")
    return med ** 2 / (2.0 * np.log(n + 1.0))


def resolve_bandwidth(kernel: KernelSpec, points: np.ndarray, sq: Optional[np.ndarray] = None) -> float:
    """Fixed bandwidth, or the median heuristic over ``points``."""
    if isinstance(kernel.bandwidth, str):
        return median_bandwidth(points, sq)
    return float(kernel.bandwidth)
