"""Agglomerative clustering of distance matrices (average and single linkage)
with cophenetic distances, built for correlation filtering.

Cluster labels follow the usual convention: leaves are 0..p-1 and the merge
created at step t gets label p+t.  Ties between candidate merges are broken
by the lexicographically smallest pair of cluster labels, so dendrograms are
fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

_METHODS = ("average", "single")


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float
    size: int


def linkage(distance: np.ndarray, method: str = "average") -> list[Merge]:
    """Sequence of p-1 merges of the given symmetric distance matrix."""
    if method not in _METHODS:
        raise ParameterError(f"unknown linkage method {method!r}")
    d = np.asarray(distance, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ParameterError("distance matrix must be square")
    p = d.shape[0]
    total = 2 * p - 1
    # working pairwise distances over all labels ever created; inactive = +inf
    work = np.full((total, total), np.inf)
    work[:p, :p] = 0.5 * (d + d.T)
    work[np.tril_indices(total)] = np.inf
    sizes = np.zeros(total, dtype=int)
    sizes[:p] = 1
    active = np.zeros(total, dtype=bool)
    active[:p] = True
    merges: list[Merge] = []
    for step in range(p - 1):
        flat = np.argmin(work[:p + step, :p + step])
        i, j = divmod(int(flat), p + step)
        height = work[i, j]
        new = p + step
        active[i] = active[j] = False
        row = np.full(total, np.inf)
        candidates = np.flatnonzero(active[:new])
        if method == "average":
            merged = (sizes[i] * np.minimum(work[i, candidates], work[candidates, i])
                      + sizes[j] * np.minimum(work[j, candidates], work[candidates, j]))
            row[candidates] = merged / (sizes[i] + sizes[j])
        else:
            row[candidates] = np.minimum(
                np.minimum(work[i, candidates], work[candidates, i]),
                np.minimum(work[j, candidates], work[candidates, j]),
            )
        work[i, :] = np.inf
        work[:, i] = np.inf
        work[j, :] = np.inf
        work[:, j] = np.inf
        work[:new, new] = row[:new]
        sizes[new] = sizes[i] + sizes[j]
        active[new] = True
        merges.append(Merge(left=i, right=j, height=float(height), size=int(sizes[new])))
    return merges


def cophenetic_matrix(merges: list[Merge], p: int) -> np.ndarray:
    """Matrix of dendrogram heights at which leaf pairs first join; zero diagonal.

    Leaves are laid out in dendrogram order, where every cluster is a
    contiguous range and a merge joins two adjacent ranges, so each merge
    writes its height into two rectangular slices.  One permutation at the
    end restores the original leaf order.
    """
    sizes = [1] * p
    for merge in merges:
        sizes.append(sizes[merge.left] + sizes[merge.right])
    # first position of each cluster's range, assigned from the roots down
    start = [-1] * len(sizes)
    free = 0
    for label in range(len(sizes) - 1, -1, -1):
        if start[label] < 0:  # a root: no later merge contains it
            start[label] = free
            free += sizes[label]
        if label >= p:
            merge = merges[label - p]
            start[merge.left] = start[label]
            start[merge.right] = start[label] + sizes[merge.left]
    ordered = np.zeros((p, p))
    for label, merge in enumerate(merges, start=p):
        lo = start[label]
        mid = lo + sizes[merge.left]
        hi = lo + sizes[label]
        ordered[lo:mid, mid:hi] = merge.height
        ordered[mid:hi, lo:mid] = merge.height
    position = np.array(start[:p], dtype=int)
    return ordered[np.ix_(position, position)]
