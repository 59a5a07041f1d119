"""RBF kernel, pairwise squared distances and bandwidth heuristics.

Bandwidth convention: ``k(x, y) = exp(-||x - y||^2 / h)`` with the squared
distance divided by ``h`` directly.  There is no factor 2 in the denominator
and ``h`` is not squared, i.e. this is *not* the ``exp(-||.||^2 / (2 h^2))``
parameterization; the median heuristic below is stated for this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DegenerateEnsembleError

MEDIAN_HEURISTIC = "median-heuristic"
# doubles in one block of the (rows, m, d) difference temporary of pairwise_sq_dists (1 MB)
DIFF_BUDGET = 2 ** 17
# up to this many coordinates the difference temporary is filled per coordinate;
# above it, by a copy and one subtraction along the point axis.  Against the
# two-step fill, whole calls took 0.94-0.99 times as long with the per-coordinate
# fill at d = 4 and 1.05-1.21 times at d = 5, so d <= 4 fills per coordinate and
# d >= 5 in two steps
FEW_COORDS = 4


@dataclass(frozen=True)
class KernelSpec:
    """RBF kernel with either a fixed bandwidth or the median heuristic.

    ``bandwidth`` is a positive float, or the sentinel ``"median-heuristic"``
    in which case iterative algorithms recompute the bandwidth from their
    current point set every iteration.
    """

    bandwidth: float | str = MEDIAN_HEURISTIC

    def __post_init__(self):
        if isinstance(self.bandwidth, str):
            if self.bandwidth != MEDIAN_HEURISTIC:
                raise ValueError(f"unknown bandwidth sentinel: {self.bandwidth!r}")
        elif not (float(self.bandwidth) > 0.0):
            raise ValueError("explicit bandwidth must be > 0")


def pairwise_sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """All squared Euclidean distances between rows of x (n,d) and y (m,d).

    Computed by explicit broadcasting (not a Gram trick), so each entry is a
    self-contained reduction over the coordinate axis: results do not change
    when either point set is evaluated in chunks.  Rows of ``x`` are taken in
    blocks whose difference temporary holds at most ``DIFF_BUDGET`` doubles
    (one row at least).  When ``y is x`` each block is computed against
    columns from its first row on and mirrored into the lower triangle; since
    (a - b)^2 == (b - a)^2 exactly, the mirrored entries are the same bits.
    """
    square = y is x
    n, m = x.shape[0], y.shape[0]
    out = np.empty((n, m))
    rows = max(1, DIFF_BUDGET // max(1, m * x.shape[1]))
    for i0 in range(0, n, rows):
        i1 = min(i0 + rows, n)
        j0 = i0 if square else 0
        diff = _differences(x[i0:i1], y[j0:])
        out[i0:i1, j0:] = np.einsum("ijk,ijk->ij", diff, diff)
        if square:
            out[i1:, i0:i1] = out[i0:i1, i1:].T
    return out


def _differences(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[:, None, :] - b[None, :, :]``, with the same subtractions but no
    numpy loop whose inner axis is the short coordinate axis.  Up to
    ``FEW_COORDS`` coordinates it is filled one coordinate at a time.  Above
    it, ``a`` is copied into every column, then ``b`` is subtracted in place
    in one loop over the whole (m, d) plane of each row.  Per 1 MB block at
    m = 100, 500 and 1000 points, the per-coordinate fill took 0.30-0.42 of
    the two-step fill's time in d = 2, 0.5-0.8 in d = 3, 0.7-1.15 in d = 4
    (at the cutoff) and 0.95-1.4 in d = 5 (past it).  In d = 9 the two-step
    fill took 0.14-0.22 ms, against 0.22-0.36 ms for the broadcast and
    0.35-0.44 ms for the per-coordinate fill; it beat the broadcast at every d
    from 1 to 12."""
    d = a.shape[1]
    out = np.empty((a.shape[0], b.shape[0], d))
    if d > FEW_COORDS:
        out[...] = a[:, None, :]
        np.subtract(out, b[None, :, :], out=out)
        return out
    for k in range(d):
        np.subtract(a[:, None, k], b[None, :, k], out=out[:, :, k])
    return out


def rbf_gram(x: np.ndarray, y: np.ndarray, h: float) -> np.ndarray:
    """Kernel matrix K[i, j] = k(x_i, y_j); every entry lies in [0, 1]."""
    if not (np.isfinite(h) and h > 0):
        raise ValueError("bandwidth h must be a positive finite real")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("kernel inputs must be finite")
    return np.exp(-pairwise_sq_dists(x, y) / h)


@lru_cache(maxsize=4)
def _upper_pairs(n: int) -> np.ndarray:
    """Flat indices of the strict upper triangle of an (n, n) array (read-only)."""
    idx = np.ravel_multi_index(np.triu_indices(n, k=1), (n, n))
    idx.flags.writeable = False
    return idx


def median_bandwidth(points: np.ndarray, sq: Optional[np.ndarray] = None) -> float:
    """Median-heuristic bandwidth ``med^2 / (2 log(n + 1))``.

    ``med`` is the exact median of all n(n-1)/2 pairwise Euclidean distances
    (no subsampling), found by one partition of the squared distances; sqrt
    is monotone, so it equals ``np.median`` of the distances bit for bit.
    ``sq`` is ``pairwise_sq_dists(points, points)`` when the caller already
    has it.  Raises ValueError on a non-finite distance, and
    DegenerateEnsembleError if the point set is degenerate (med = 0).
    """
    n = points.shape[0]
    if n < 2:
        raise ValueError("median bandwidth needs at least two points")
    if sq is None:
        sq = pairwise_sq_dists(points, points)
    v = np.take(sq, _upper_pairs(n))
    if not np.all(np.isfinite(v)):
        raise ValueError("median bandwidth needs finite pairwise distances")
    k = v.size // 2
    part = np.partition(v, k)
    if v.size % 2:
        med = float(np.sqrt(part[k]))
    else:
        med = float(np.mean(np.sqrt([part[:k].max(), part[k]])))
    if med <= 0.0:
        raise DegenerateEnsembleError("all points identical: median pairwise distance is zero")
    return med ** 2 / (2.0 * np.log(n + 1.0))


def resolve_bandwidth(kernel: KernelSpec, points: np.ndarray, sq: Optional[np.ndarray] = None) -> float:
    """Fixed bandwidth, or the median heuristic over ``points``."""
    if isinstance(kernel.bandwidth, str):
        return median_bandwidth(points, sq)
    return float(kernel.bandwidth)
