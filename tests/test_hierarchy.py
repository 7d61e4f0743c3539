import itertools
import tracemalloc

import numpy as np
import pytest

from covdenoise import ModelKind, ModelSpec, hierarchy, sample_covariance
from covdenoise.errors import DataError, ParameterError
from covdenoise.estimators import filter_correlation
from covdenoise.hierarchy import Merge, cophenetic_matrix, linkage
from covdenoise.spectral import cov_to_corr


def cluster_members(merges, p):
    """Leaf index sets for every label (leaves first, then merge order)."""
    members = [np.array([i]) for i in range(p)]
    for merge in merges:
        members.append(np.concatenate((members[merge.left], members[merge.right])))
    return members


def brute_force_average_linkage(distance):
    """Reference implementation that averages raw leaf-pair distances."""
    p = distance.shape[0]
    clusters = {i: [i] for i in range(p)}
    labels = list(range(p))
    merges = []
    next_label = p
    while len(labels) > 1:
        best = None
        for a, b in itertools.combinations(sorted(labels), 2):
            value = np.mean([distance[x, y] for x in clusters[a] for y in clusters[b]])
            if best is None or value < best[0] - 1e-12:
                best = (value, a, b)
        value, a, b = best
        clusters[next_label] = clusters.pop(a) + clusters.pop(b)
        labels.remove(a)
        labels.remove(b)
        labels.append(next_label)
        merges.append((a, b, value))
        next_label += 1
    return merges


def test_two_point_dendrogram():
    distance = np.array([[0.0, 0.7], [0.7, 0.0]])
    merges = linkage(distance, "average")
    assert len(merges) == 1
    assert merges[0].left == 0 and merges[0].right == 1
    assert np.isclose(merges[0].height, 0.7)
    assert np.allclose(cophenetic_matrix(merges, 2), distance)


def test_average_linkage_matches_brute_force(rng):
    for trial in range(6):
        p = int(rng.integers(4, 9))
        raw = rng.uniform(0.1, 2.0, size=(p, p))
        distance = 0.5 * (raw + raw.T)
        np.fill_diagonal(distance, 0.0)
        merges = linkage(distance, "average")
        reference = brute_force_average_linkage(distance)
        for got, want in zip(merges, reference):
            assert {got.left, got.right} == {want[0], want[1]}
            assert np.isclose(got.height, want[2], atol=1e-12)


def test_heights_nondecreasing(rng):
    for _ in range(5):
        raw = rng.uniform(0.0, 1.0, size=(10, 10))
        distance = 0.5 * (raw + raw.T)
        np.fill_diagonal(distance, 0.0)
        for method in ("average", "single"):
            heights = [m.height for m in linkage(distance, method)]
            assert all(b >= a - 1e-12 for a, b in zip(heights, heights[1:]))


def test_cophenetic_of_ultrametric_is_identity():
    # two-level hierarchy: pairs {0,1} and {2,3} at 0.2, everything joins at 0.9
    distance = np.full((4, 4), 0.9)
    distance[0, 1] = distance[1, 0] = 0.2
    distance[2, 3] = distance[3, 2] = 0.2
    np.fill_diagonal(distance, 0.0)
    merges = linkage(distance, "average")
    assert np.max(np.abs(cophenetic_matrix(merges, 4) - distance)) <= 1e-12


def test_member_sets_partition_leaves():
    distance = np.abs(np.subtract.outer(np.arange(6.0), np.arange(6.0)))
    merges = linkage(distance, "average")
    members = cluster_members(merges, 6)
    assert sorted(members[-1].tolist()) == list(range(6))
    for merge, node in zip(merges, range(6, 11)):
        left = set(members[merge.left].tolist())
        right = set(members[merge.right].tolist())
        assert left.isdisjoint(right)
        assert left | right == set(members[node].tolist())


def test_single_linkage_uses_minimum_distance():
    distance = np.array(
        [
            [0.0, 0.1, 0.8, 0.9],
            [0.1, 0.0, 0.5, 0.8],
            [0.8, 0.5, 0.0, 0.2],
            [0.9, 0.8, 0.2, 0.0],
        ]
    )
    merges = linkage(distance, "single")
    # chain: {0,1} at .1, {2,3} at .2, then joined at min cross distance .5
    assert np.isclose(merges[-1].height, 0.5)
    average = linkage(distance, "average")
    assert average[-1].height >= merges[-1].height


def test_tie_break_is_lexicographic():
    distance = np.full((3, 3), 0.4)
    np.fill_diagonal(distance, 0.0)
    merges = linkage(distance, "average")
    assert (merges[0].left, merges[0].right) == (0, 1)


def test_rejects_unknown_method():
    with pytest.raises(ParameterError):
        linkage(np.zeros((2, 2)), "ward")


def reference_cophenetic_matrix(merges, p):
    """The earlier scatter implementation, kept as an equivalence oracle."""
    members = cluster_members(merges, p)
    coph = np.zeros((p, p))
    for merge in merges:
        left, right = members[merge.left], members[merge.right]
        coph[np.ix_(left, right)] = merge.height
        coph[np.ix_(right, left)] = merge.height
    return coph


def correlation_distance(rng, p, decimals=None):
    corr = np.corrcoef(rng.standard_normal((p, 2 * p + 3)))
    if decimals is not None:
        corr = np.round(corr, decimals)  # many tied distances
    distance = 1.0 - corr
    np.fill_diagonal(distance, 0.0)
    return distance


@pytest.mark.parametrize("method", ["average", "single"])
@pytest.mark.parametrize("decimals", [None, 1], ids=["tie-free", "tied"])
def test_cophenetic_matches_scatter_reference_bitwise(method, decimals):
    rng = np.random.default_rng(2024)
    for p in (2, 3, 5, 17, 64, 99, 150):
        merges = linkage(correlation_distance(rng, p, decimals), method)
        assert np.array_equal(
            cophenetic_matrix(merges, p), reference_cophenetic_matrix(merges, p)
        ), (method, decimals, p)


def test_cophenetic_of_partial_dendrogram_matches_reference():
    rng = np.random.default_rng(7)
    p = 12
    merges = linkage(correlation_distance(rng, p, 1), "average")
    for k in range(p):
        assert np.array_equal(
            cophenetic_matrix(merges[:k], p), reference_cophenetic_matrix(merges[:k], p)
        )


def reference_linkage(distance, method="average"):
    """The earlier implementation over a (2p-1)x(2p-1) matrix indexed by
    label, kept as an equivalence oracle."""
    d = np.asarray(distance, dtype=float)
    p = d.shape[0]
    total = 2 * p - 1
    work = np.full((total, total), np.inf)
    work[:p, :p] = 0.5 * (d + d.T)
    work[np.tril_indices(total)] = np.inf
    sizes = np.zeros(total, dtype=int)
    sizes[:p] = 1
    active = np.zeros(total, dtype=bool)
    active[:p] = True
    merges = []
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


def assert_same_merges(distance, method):
    got = linkage(distance, method)
    want = reference_linkage(distance, method)
    assert got == want
    # == treats -0.0 and 0.0 as equal; the heights must match bit for bit
    assert np.array([m.height for m in got]).tobytes() == np.array(
        [m.height for m in want]).tobytes()


@pytest.mark.parametrize("method", ["average", "single"])
def test_linkage_matches_reference_on_random_distances(method):
    rng = np.random.default_rng(11)
    for p in range(1, 151):
        raw = rng.uniform(0.0, 2.0, size=(p, p))  # asymmetric: linkage symmetrizes
        assert_same_merges(raw, method)


@pytest.mark.parametrize("method", ["average", "single"])
def test_linkage_matches_reference_on_tied_integer_distances(method):
    rng = np.random.default_rng(12)
    for _ in range(200):
        p = int(rng.integers(2, 26))
        assert_same_merges(rng.integers(0, 4, size=(p, p)).astype(float), method)


@pytest.mark.parametrize("method", ["average", "single"])
def test_linkage_matches_reference_on_all_equal_distances(method):
    for p in (2, 3, 7, 40):
        assert_same_merges(np.full((p, p), 0.5), method)


@pytest.mark.parametrize("method", ["average", "single"])
def test_linkage_matches_reference_on_power_law_correlation(method):
    spec = ModelSpec(kind=ModelKind.POWERLAW, p=200, alpha=1.5, seed=3)
    corr, _ = cov_to_corr(sample_covariance(spec.build(), 100, 5).sample)
    distance = 1.0 - np.clip(corr, -1.0, 1.0)
    np.fill_diagonal(distance, 0.0)
    assert_same_merges(distance, method)


@pytest.mark.parametrize("method", ["average", "single"])
@pytest.mark.parametrize("decimals", [None, 1], ids=["tie-free", "tied"])
@pytest.mark.parametrize("p", [60, 120, 300])
def test_linkage_matches_reference_across_compactions(monkeypatch, method, decimals, p):
    # the working matrix is copied down to its live slots at p/2, p/4, ...
    # live clusters; count the copies, which index with np.ix_
    copies = []
    real = np.ix_
    monkeypatch.setattr(np, "ix_", lambda *index: copies.append(len(index[0])) or real(*index))
    assert_same_merges(correlation_distance(np.random.default_rng(p), p, decimals), method)
    assert len(copies) >= 2 and copies[:2] == [p // 2, p // 4]


def test_linkage_peak_memory_is_a_small_multiple_of_the_input():
    rng = np.random.default_rng(13)
    distance = correlation_distance(rng, 300)
    tracemalloc.start()
    try:
        linkage(distance, "average")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * distance.nbytes, peak / distance.nbytes


@pytest.mark.parametrize("bad, message", [
    (np.zeros((0, 0)), "empty"),
    (np.array([[0.0, np.nan], [np.nan, 0.0]]), "non-finite"),
    (np.array([[0.0, np.inf], [np.inf, 0.0]]), "non-finite"),
    (np.array([[0.0, 1.0, 2.0], [1.0, 0.0, -np.inf], [2.0, 3.0, 0.0]]), "non-finite"),
])
@pytest.mark.parametrize("method", ["average", "single"])
def test_linkage_rejects_malformed_distances(bad, message, method):
    with pytest.raises(ParameterError, match=message):
        linkage(bad, method)


def test_linkage_rejects_distances_whose_update_overflows():
    # finite input; merging {0, 1} with 2 weights 8.5e307 by sizes 2 + 1
    distance = np.full((4, 4), 8.5e307)
    distance[0, 1] = distance[1, 0] = 1.0
    distance[:2, 2] = distance[2, :2] = 8e307
    np.fill_diagonal(distance, 0.0)
    with np.errstate(over="ignore"), pytest.raises(ParameterError, match="overflowed"):
        linkage(distance, "average")


def test_linkage_rejects_distances_whose_update_overflows_to_minus_infinity():
    # finite input, whose symmetrization does not overflow; merging {0, 1}
    # with 2 weights -7e307 by sizes 2 + 1, which sums to -2.1e308
    distance = np.full((4, 4), -7e307)
    distance[0, 1] = distance[1, 0] = -8.9e307
    distance[:2, 2] = distance[2, :2] = -8.8e307
    np.fill_diagonal(distance, 0.0)
    with np.errstate(over="ignore"), pytest.raises(ParameterError, match="overflowed"):
        linkage(distance, "average")


def test_correlation_distance_clips_rounding_and_rejects_overshoot():
    corr = np.array([[1.0, 1.0 + 1e-12, -0.5], [1.0 + 1e-12, 1.0, 0.2], [-0.5, 0.2, 1.0]])
    distance = hierarchy.correlation_distance(corr)
    assert np.array_equal(distance, [[0.0, 0.0, 1.5], [0.0, 0.0, 0.8], [1.5, 0.8, 0.0]])
    corr[0, 2] = corr[2, 0] = -1.0 - 1e-6
    for rule in (hierarchy.correlation_distance, filter_correlation):
        with pytest.raises(DataError, match="exceeds 1 by 1.000e-06"):
            rule(corr)


def test_linkage_rejects_a_non_square_distance_matrix():
    with pytest.raises(ParameterError, match="distance matrix must be square"):
        linkage(np.zeros((2, 3)), "single")
