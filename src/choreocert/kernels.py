"""Hot numeric kernels: pairwise distance/force scans over sampled trajectories.

Every kernel takes positions or velocities shaped (bodies, samples, 2),
with at least two bodies and one sample, and works on a table of body pairs
as numpy arrays, time ascending; inputs of any float layout or precision are
read as float64. By default the table is every unordered pair in
lexicographic order; a caller may pass its own (P, 2) table of row indices
instead, such as the representative pairs of a symmetry-reduced body set.
There is one implementation per kernel and no run-time selection, so results
are deterministic and runs are repeatable bit for bit.

Without a table, the scan kernels walk the pairs in body groups: group i
holds the pairs (i, i+1), ..., (i, B-1), the next rows of the lexicographic
table. A call copies the x and y coordinates once into two contiguous
(B, M) planes and allocates two (B-1, M) work buffers; each group's
differences, one broadcast subtraction per coordinate, fill the first
B-1-i rows of the buffers, and squares, square roots and reciprocals run in
place there. Each kernel reduces a group's block before the next one
overwrites it: the means sum each row into their slice of the output, and
the minimum scan keeps the first minimum, so a call allocates four arrays
whatever the number of pairs. A given table is gathered as
``arr[ii] - arr[jj]`` into one block of all its pairs. Both paths do the
same float operations on each element and sum each pair's row alone, so
they agree bit for bit. ``pair_forces`` always gathers: its contraction
over pairs needs the (P, M, 2) layout.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

BACKEND = "numpy"


@lru_cache(maxsize=None)
def pair_index_table(n_bodies: int) -> np.ndarray:
    """(P, 2) array of 0-based unordered pairs i < j, lexicographic; read-only,
    built once per body count."""
    pairs = [(i, j) for i in range(n_bodies) for j in range(i + 1, n_bodies)]
    table = np.array(pairs, dtype=np.int64).reshape(len(pairs), 2)
    table.flags.writeable = False
    return table


def _as_pos(arr):
    arr = np.ascontiguousarray(arr, dtype=np.float64)
    if arr.ndim != 3 or arr.shape[2] != 2:
        raise ValueError(f"expected array shaped (bodies, samples, 2), got {arr.shape}")
    if arr.shape[0] < 2 or arr.shape[1] < 1:
        raise ValueError(f"expected at least two bodies and one sample, got shape {arr.shape}")
    return arr


def _pair_differences(arr, pairs):
    """Row indices (ii, jj) of the pair table and arr[ii] - arr[jj], shaped (P, M, 2)."""
    arr = _as_pos(arr)
    table = pair_index_table(arr.shape[0]) if pairs is None else np.asarray(pairs, np.int64)
    ii, jj = table.T
    return ii, jj, arr[ii] - arr[jj]


def _body_group_blocks(arr):
    """Yield (lo, d2) per body group i: d2[m] = |arr[i] - arr[i+1+m]|^2, shaped
    (B-1-i, M), the rows of pairs lo, lo+1, ... of the lexicographic table.

    Every block is a view of the same two work buffers, which the next group
    overwrites: reduce each block before asking for the next one.
    """
    n_bodies, n_samples, _ = arr.shape
    x = np.ascontiguousarray(arr[:, :, 0])
    y = np.ascontiguousarray(arr[:, :, 1])
    dx = np.empty((n_bodies - 1, n_samples))
    dy = np.empty((n_bodies - 1, n_samples))
    lo = 0
    for i in range(n_bodies - 1):
        rows = n_bodies - 1 - i
        bx, by = dx[:rows], dy[:rows]
        np.subtract(x[i], x[i + 1:], out=bx)
        np.subtract(y[i], y[i + 1:], out=by)
        np.multiply(bx, bx, out=bx)
        np.multiply(by, by, out=by)
        np.add(bx, by, out=bx)
        yield lo, bx
        lo += rows


def _pair_blocks(arr, pairs):
    """Row indices (ii, jj) of the pair table and an iterator of (lo, d2)
    blocks covering its pairs in order, d2 = |arr[ii] - arr[jj]|^2 per pair
    row, shaped (pairs, M).

    Without a table, the blocks are the body groups of ``_body_group_blocks``;
    a given table is gathered into one fresh block of all its pairs.
    """
    if pairs is not None:
        ii, jj, diff = _pair_differences(arr, pairs)
        return ii, jj, iter([(0, diff[..., 0] ** 2 + diff[..., 1] ** 2)])
    arr = _as_pos(arr)
    ii, jj = pair_index_table(len(arr)).T
    return ii, jj, _body_group_blocks(arr)


def pair_mean_inverse_distance(pos, pairs=None) -> np.ndarray:
    """Per-pair time average of 1/|q_i - q_j|, in the order of the pair table."""
    ii, _, blocks = _pair_blocks(pos, pairs)
    out = np.empty(len(ii))
    for lo, d2 in blocks:
        np.sqrt(d2, out=d2)
        np.divide(1.0, d2, out=d2)
        np.add.reduce(d2, axis=1, out=out[lo:lo + len(d2)])
    # the sum divided by the count: the bits of .mean(axis=1)
    return np.divide(out, np.shape(pos)[1], out=out)


def pair_mean_square_relative_velocity(vel) -> np.ndarray:
    """Per-pair time average of |v_i - v_j|^2, pairs in lexicographic order."""
    ii, _, blocks = _pair_blocks(vel, None)
    out = np.empty(len(ii))
    for lo, d2 in blocks:
        np.add.reduce(d2, axis=1, out=out[lo:lo + len(d2)])
    return np.divide(out, np.shape(vel)[1], out=out)


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
    lexicographically. A NaN distance wins as in ``np.argmin``: the first
    NaN of the table is returned.
    """
    ii, jj, blocks = _pair_blocks(pos, pairs)
    best = None
    for lo, d2 in blocks:
        np.sqrt(d2, out=d2)
        p, k = divmod(int(np.argmin(d2)), d2.shape[1])
        d = float(d2[p, k])
        if math.isnan(d):  # argmin's first NaN comes first in the whole table
            best = (d, lo + p, k)
            break
        if best is None or d < best[0]:
            best = (d, lo + p, k)
    d, p, k = best
    return d, int(ii[p]), int(jj[p]), k


def warmup() -> None:
    """Run each kernel once on a tiny two-body input; nothing is compiled."""
    pos = np.zeros((2, 4, 2))
    pos[1, :, 0] = 1.0
    pair_mean_inverse_distance(pos)
    pair_mean_square_relative_velocity(pos)
    pair_forces(pos)
    min_separation_scan(pos)
