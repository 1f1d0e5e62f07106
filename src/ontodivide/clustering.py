"""Deterministic k-means over entry vectors.

Seeding follows k-means++ (D^2 sampling); iterations are plain Lloyd steps
on the squared-Euclidean objective.  Empty clusters are repaired by
re-seeding from the point farthest from its assigned centroid, so the
result always has exactly n non-empty clusters.  Everything is driven by
one integer seed and fixed iteration order, so identical inputs give
identical assignments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import MAX_ITERS
from .errors import InvariantError, check_int
from .lexindex import LexIndex, Mapping

# relative slack for the monotonicity assertion; Lloyd is non-increasing in
# exact arithmetic, float summation may wobble at the last bit
_INERTIA_TOL = 1e-9


@dataclass(frozen=True)
class ClusterAssignment:
    n: int
    labels: np.ndarray     # (m,) cluster id of each point
    centroids: np.ndarray  # (n, dim)
    inertia: float
    n_iter: int
    inertia_history: tuple[float, ...]


# rows per block of the elementwise work.  The product X @ C.T stays whole:
# OpenBLAS may round a row block of it differently from the full product.
_BLOCK_ROWS = 256


def _sq_dists(X: np.ndarray, c: np.ndarray | None, out: np.ndarray,
              scratch: np.ndarray) -> None:
    """out[i] = |X[i] - c|^2 (|X[i]|^2 for c None), block by block.

    The same bits as `np.sum((X - c) ** 2, axis=1)`, in which `x ** 2` is
    `x * x`.  numpy sums each row of that temporary pairwise, unless X is
    stored column by column: then it adds the columns in turn, as
    `accumulate` does.
    """
    by_column = min(X.shape) > 1 and abs(X.strides[0]) < abs(X.strides[1])
    for s in range(0, len(X), len(scratch)):
        xb = X[s:s + len(scratch)]
        b = scratch[:len(xb)]
        if c is not None:
            xb = np.subtract(xb, c, out=b)
        np.multiply(xb, xb, out=b)
        if by_column:
            out[s:s + len(b)] = np.add.accumulate(b, axis=1, out=b)[:, -1]
        else:
            np.add.reduce(b, axis=1, out=out[s:s + len(b)])


def _pairwise_sq_dists(X: np.ndarray, x2: np.ndarray, C: np.ndarray,
                       d2: np.ndarray, scratch: np.ndarray) -> None:
    """d2 = max((x2 + |C|^2) - 2 X @ C.T, 0) for the rows of X (squared
    norms x2) and C; in place, block by block through scratch (B, n)."""
    c2 = np.sum(C * C, axis=1)
    np.matmul(X, C.T, out=d2)
    for s in range(0, len(d2), len(scratch)):
        p = d2[s:s + len(scratch)]
        b = scratch[:len(p)]
        np.add(x2[s:s + len(b), None], c2, out=b)
        np.multiply(p, 2.0, out=p)
        np.subtract(b, p, out=p)
        np.maximum(p, 0.0, out=p)


def _plus_plus_init(X: np.ndarray, n: int, rng: np.random.Generator,
                    scratch: np.ndarray) -> np.ndarray:
    m = X.shape[0]
    centroids = np.empty((n, X.shape[1]), dtype=float)
    first = int(rng.integers(m))
    centroids[0] = X[first]
    closest, dist = np.empty(m), np.empty(m)
    _sq_dists(X, centroids[0], closest, scratch)
    for c in range(1, n):
        total = closest.sum()
        if total <= 0:  # every point equals one of the c centroids
            raise ValueError(
                f"n={n} exceeds the {c} distinct points available")
        idx = int(rng.choice(m, p=closest / total))
        centroids[c] = X[idx]
        _sq_dists(X, centroids[c], dist, scratch)
        np.minimum(closest, dist, out=closest)
    return centroids


def kmeans(points: np.ndarray, n: int, seed: int,
           max_iters: int = MAX_ITERS) -> ClusterAssignment:
    """Cluster the rows of an (m, dim) matrix into n non-empty clusters."""
    check_int("n", n)
    if n <= 0:
        raise ValueError("n must be >= 1")
    check_int("max_iters", max_iters)
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    check_int("seed", seed)
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or not len(X):
        raise ValueError("points must be a non-empty (m, dim) matrix")
    m = X.shape[0]
    # work arrays, allocated once: a block of rows of X, the distances, and
    # a block of rows of those
    x_block = np.empty((min(m, _BLOCK_ROWS), X.shape[1]))
    centroids = _plus_plus_init(X, n, np.random.default_rng(seed), x_block)
    d2, d_block = np.empty((m, n)), np.empty((len(x_block), n))

    history: list[float] = []
    assign = np.full(m, -1, dtype=np.intp)
    x2 = np.empty(m)
    _sq_dists(X, None, x2, x_block)
    for _ in range(max_iters):
        _pairwise_sq_dists(X, x2, centroids, d2, d_block)
        new_assign = d2.argmin(axis=1)

        for repairs in range(n + 1):
            empties = np.flatnonzero(np.bincount(new_assign, minlength=n) == 0)
            if empties.size == 0:
                break
            if repairs == n:
                raise InvariantError("empty-cluster repair failed to settle")
            far = int(d2[np.arange(m), new_assign].argmax())
            empty_id = int(empties[0])
            centroids[empty_id] = X[far]
            _sq_dists(X, centroids[empty_id], d2[:, empty_id], x_block)
            new_assign = d2.argmin(axis=1)

        inertia = float(d2[np.arange(m), new_assign].sum())
        if history and inertia > history[-1] * (1 + _INERTIA_TOL) + 1e-12:
            raise InvariantError(
                f"inertia increased: {history[-1]} -> {inertia}")
        history.append(inertia)

        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n):
            centroids[c] = X[assign == c].mean(axis=0)

    centroids.flags.writeable = assign.flags.writeable = False
    return ClusterAssignment(n, assign, centroids, history[-1], len(history),
                             tuple(history))


def clusters_to_entries(asg: ClusterAssignment, lexi: LexIndex
                        ) -> list[frozenset[Mapping]]:
    """The candidate mappings of each cluster's index entries, clusters in
    id order.

    `asg.labels[i]` is the cluster of entry i of `lexi`.  Raises
    InvariantError if a cluster holds no entry.
    """
    if len(asg.labels) != len(lexi):
        raise ValueError(f"assignment of {len(asg.labels)} labels does not "
                         f"cover the {len(lexi)} index entries")
    clusters: list[list[int]] = [[] for _ in range(asg.n)]  # entry ids
    for i, c in enumerate(asg.labels.tolist()):
        clusters[c].append(i)
    if not all(clusters):
        raise InvariantError("k-means returned an empty cluster")
    return list(map(lexi.mappings, clusters))
