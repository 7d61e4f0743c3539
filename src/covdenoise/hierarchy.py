"""Agglomerative clustering of distance matrices (average and single linkage)
with cophenetic distances, built for correlation filtering.

Cluster labels follow the usual convention: leaves are 0..p-1 and the merge
created at step t gets label p+t.  Ties between candidate merges are broken
by the lexicographically smallest pair of cluster labels, so dendrograms are
fully deterministic.

:func:`linkage` works in place on one symmetric matrix of slots.  Slot s
starts as leaf s; a merge leaves the new cluster in the slot of its member
with the smaller label and retires the other slot.  Retired slots and the
diagonal hold ``+inf``, so each step is one ``argmin`` over the matrix, and the
Lance–Williams row of the new cluster, built in two preallocated buffers, is
written to its row and its column.  The first minimum lies above the
diagonal, so pairs tie when an entry after it, its mirror hidden, is equal
to it.  Slot order is not label order, so tied pairs are compared by their
labels; merges, ties included, are the same as those of a matrix indexed by
label, and do not depend on the slot order.  So whenever retired slots make
up half the matrix, the live slots are copied into a matrix of half the size,
and the scans cover about the live clusters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError

_METHODS = ("average", "single")


@dataclass(frozen=True)
class Merge:
    left: int
    right: int
    height: float
    size: int


def correlation_distance(corr: np.ndarray) -> np.ndarray:
    """The distance 1 − C_ij with a zero diagonal.  Entries past ±1 by rounding
    are clipped; past it by more than 1e-10 they raise :class:`DataError`."""
    overshoot = np.max(np.abs(corr)) - 1.0
    if overshoot > 1e-10:
        raise DataError(f"invalid correlation: |C_ij| exceeds 1 by {overshoot:.3e}")
    distance = 1.0 - np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(distance, 0.0)
    return distance


def linkage(distance: np.ndarray, method: str = "average") -> list[Merge]:
    """Sequence of p-1 merges of the given symmetric distance matrix.

    The matrix is symmetrized as ``(d + d.T) / 2``; its entries must be
    finite.
    """
    if method not in _METHODS:
        raise ParameterError(f"unknown linkage method {method!r}")
    d = np.asarray(distance, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ParameterError("distance matrix must be square")
    p = d.shape[0]
    if p == 0:
        raise ParameterError("distance matrix is empty")
    if not np.all(np.isfinite(d)):
        raise ParameterError("distance matrix contains non-finite entries")
    work = d + d.T
    work *= 0.5
    np.fill_diagonal(work, np.inf)
    flat_work = work.ravel()
    # per slot; a retired slot has size 0.  Sizes are floats, which the
    # update's ufuncs take faster than ints and with the same bits.
    labels = list(range(p))
    sizes = [1.0] * p
    row, weighted = np.empty(p), np.empty(p)
    slots = live = p
    merges: list[Merge] = []
    for step in range(p - 1):
        if 2 * live <= slots:
            keep = [slot for slot, size in enumerate(sizes) if size]
            work = work[np.ix_(keep, keep)]
            flat_work = work.ravel()
            labels = [labels[slot] for slot in keep]
            sizes = [sizes[slot] for slot in keep]
            slots = live
            row, weighted = row[:slots], weighted[:slots]
        flat = int(flat_work.argmin())
        height = flat_work[flat]
        if not math.isfinite(height):
            raise ParameterError("distances too large: the linkage update overflowed")
        a, b = divmod(flat, slots)
        # (a, b) lies above the diagonal: its mirror (b, a) is the one other
        # entry equal to it unless pairs tie
        mirror = work[b, a]
        work[b, a] = np.inf
        later = flat_work[flat + 1:]
        tied = later[later.argmin()] == height
        work[b, a] = mirror
        if tied:
            rows, cols = np.nonzero(work == height)
            slot_labels = np.array(labels)
            lo, hi = slot_labels[rows], slot_labels[cols]
            best = np.argmin(np.where(lo < hi, lo * (2 * p) + hi, 4 * p * p))
            a, b = int(rows[best]), int(cols[best])
            height = work[a, b]  # tied +0.0 and -0.0 compare equal
        if labels[a] > labels[b]:
            # a holds the smaller label: the merge's left, the slot kept, and
            # the first operand of the update, as in a label-indexed matrix
            a, b = b, a
        size_a, size_b = sizes[a], sizes[b]
        if method == "average":
            np.multiply(work[a], size_a, out=row)
            row += np.multiply(work[b], size_b, out=weighted)
            row /= size_a + size_b
        else:
            np.minimum(work[a], work[b], out=row)
        row[a] = row[b] = np.inf  # the new cluster's diagonal, the retired slot
        work[a] = row
        work[:, a] = row
        work[b] = np.inf
        work[:, b] = np.inf
        merges.append(Merge(left=labels[a], right=labels[b],
                            height=float(height), size=int(size_a + size_b)))
        labels[a] = p + step
        sizes[a], sizes[b] = size_a + size_b, 0.0
        live -= 1
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
