"""Hot numeric kernels: pairwise distance/force scans over sampled trajectories.

Every kernel takes positions or velocities shaped (bodies, samples, 2) in
float64 and works on all unordered body pairs at once as numpy arrays, with
pairs in lexicographic order and time ascending. There is one implementation
per kernel and no run-time selection, so results are deterministic and runs
are repeatable bit for bit.
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


def pair_mean_inverse_distance(pos) -> np.ndarray:
    """Per-pair time average of 1/|q_i - q_j|, pairs in lexicographic order."""
    pos = _as_pos(pos)
    ii, jj = pair_index_table(pos.shape[0]).T
    diff = pos[ii] - pos[jj]
    dist = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
    return (1.0 / dist).mean(axis=1)


def pair_mean_square_relative_velocity(vel) -> np.ndarray:
    """Per-pair time average of |v_i - v_j|^2, pairs in lexicographic order."""
    vel = _as_pos(vel)
    ii, jj = pair_index_table(vel.shape[0]).T
    diff = vel[ii] - vel[jj]
    return (diff[..., 0] ** 2 + diff[..., 1] ** 2).mean(axis=1)


def pair_forces(pos) -> np.ndarray:
    """Gradient of sum_{i<j} 1/|q_i - q_j| with respect to each body position.

    Row i holds sum_{j != i} (q_j - q_i)/|q_i - q_j|^3, which is also the
    Newtonian acceleration of unit-mass body i.
    """
    pos = _as_pos(pos)
    ii, jj = pair_index_table(pos.shape[0]).T
    diff = pos[ii] - pos[jj]
    d2 = diff[..., 0] ** 2 + diff[..., 1] ** 2
    g = -diff / (d2 * np.sqrt(d2))[..., None]
    out = np.zeros_like(pos)
    np.add.at(out, ii, g)
    np.subtract.at(out, jj, g)
    return out


def min_separation_scan(pos) -> tuple[float, int, int, int]:
    """Global minimum pair distance: (distance, i, j, sample index), 0-based.

    Ties break to the smallest (i, j, k) lexicographically: argmin returns
    the first minimum of the (pair, sample) table, whose rows are the pairs
    in lexicographic order.
    """
    pos = _as_pos(pos)
    ii, jj = pair_index_table(pos.shape[0]).T
    diff = pos[ii] - pos[jj]
    dist = np.sqrt(diff[..., 0] ** 2 + diff[..., 1] ** 2)
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
