"""Hot numeric kernels: pairwise distance/force scans over sampled trajectories.

Every kernel takes positions or velocities shaped (bodies, samples, 2) in
float64 and works on a table of body pairs at once as numpy arrays, time
ascending. By default the table is every unordered pair in lexicographic
order; a caller may pass its own (P, 2) table of row indices instead, such as
the representative pairs of a symmetry-reduced body set. There is one
implementation per kernel and no run-time selection, so results are
deterministic and runs are repeatable bit for bit.

Without a table, the scan kernels fill two contiguous (P, M) coordinate
planes with one broadcast subtraction per body, body i against the rows
after it, so the planes come out in lexicographic pair order with no row
gather; squares, square roots and means then run in place on them. A given
table is gathered as ``arr[ii] - arr[jj]``. Both paths do the same float
operations on each element, so they agree bit for bit. ``pair_forces``
always gathers: its contraction over pairs needs the (P, M, 2) layout.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def pair_index_table(n_bodies: int) -> np.ndarray:
    """(P, 2) array of 0-based unordered pairs i < j, lexicographic."""
    pairs = [(i, j) for i in range(n_bodies) for j in range(i + 1, n_bodies)]
    return np.array(pairs, dtype=np.int64)


def _as_pos(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"expected array shaped (bodies, samples, 2), got {arr.shape}")
    return arr


def _pair_differences(arr, pairs):
    """Row indices (ii, jj) of the pair table and arr[ii] - arr[jj], shaped (P, M, 2)."""
    arr = _as_pos(arr)
    table = pair_index_table(arr.shape[0]) if pairs is None else np.asarray(pairs, np.int64)
    ii, jj = table.T
    return ii, jj, arr[ii] - arr[jj]


def _pair_square_distances(arr, pairs):
    """Row indices (ii, jj) of the pair table and |arr[ii] - arr[jj]|^2, shaped (P, M).

    The result is a fresh contiguous array that callers may overwrite.
    """
    if pairs is not None:
        ii, jj, diff = _pair_differences(arr, pairs)
        return ii, jj, diff[..., 0] ** 2 + diff[..., 1] ** 2
    arr = _as_pos(arr)
    n_bodies, n_samples, _ = arr.shape
    ii, jj = pair_index_table(n_bodies).T
    dx = np.empty((len(ii), n_samples))
    dy = np.empty((len(ii), n_samples))
    lo = 0
    for i in range(n_bodies - 1):
        hi = lo + n_bodies - 1 - i
        np.subtract(arr[i, :, 0], arr[i + 1:, :, 0], out=dx[lo:hi])
        np.subtract(arr[i, :, 1], arr[i + 1:, :, 1], out=dy[lo:hi])
        lo = hi
    np.multiply(dx, dx, out=dx)
    np.multiply(dy, dy, out=dy)
    np.add(dx, dy, out=dx)
    return ii, jj, dx


def pair_mean_inverse_distance(pos, pairs=None) -> np.ndarray:
    """Per-pair time average of 1/|q_i - q_j|, in the order of the pair table."""
    _, _, d2 = _pair_square_distances(pos, pairs)
    np.sqrt(d2, out=d2)
    np.divide(1.0, d2, out=d2)
    return d2.mean(axis=1)


def pair_mean_square_relative_velocity(vel) -> np.ndarray:
    """Per-pair time average of |v_i - v_j|^2, pairs in lexicographic order."""
    _, _, d2 = _pair_square_distances(vel, None)
    return d2.mean(axis=1)


def pair_forces(pos, pairs=None, weights=None) -> np.ndarray:
    """Gradient of sum_p w_p/|q_i - q_j| over the pair table, per row position.

    With the default table and unit weights, row i holds
    sum_{j != i} (q_j - q_i)/|q_i - q_j|^3, which is also the Newtonian
    acceleration of unit-mass body i. The per-pair terms are gathered onto
    the rows by one dense (B, P) incidence of +-w_p, contracted over pairs.
    """
    ii, jj, diff = _pair_differences(pos, pairs)
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    cube = np.sqrt(d2)
    cube *= d2
    # the gathered differences are a fresh array: -diff / |diff|^3 in place
    g = np.negative(diff, out=diff)
    np.divide(g, cube[..., None], out=g)
    w = np.ones(len(ii)) if weights is None else np.asarray(weights, dtype=np.float64)
    incidence = np.zeros((len(pos), len(ii)))
    cols = np.arange(len(ii))
    incidence[ii, cols] = w
    incidence[jj, cols] = -w
    return np.tensordot(incidence, g, axes=(1, 0))


def min_separation_scan(pos, pairs=None) -> tuple[float, int, int, int]:
    """Global minimum pair distance: (distance, i, j, sample index), 0-based.

    Ties break to the first minimum of the (pair, sample) table, pairs in
    table order: with the default table, the smallest (i, j, k)
    lexicographically.
    """
    ii, jj, dist = _pair_square_distances(pos, pairs)
    np.sqrt(dist, out=dist)
    p, k = divmod(int(np.argmin(dist)), dist.shape[1])
    return float(dist[p, k]), int(ii[p]), int(jj[p]), int(k)


def warmup() -> None:
    """Run each kernel once on a tiny two-body input; nothing is compiled."""
    pos = np.zeros((2, 4, 2))
    pos[1, :, 0] = 1.0
    pair_mean_inverse_distance(pos)
    pair_mean_square_relative_velocity(pos)
    pair_forces(pos)
    min_separation_scan(pos)
