import inspect

import numpy as np
import pytest

from conftest import O1_NS, O2_NS, traced_peak
from oracles import entry_objects, reference_kmeans, reference_mappings_of

from ontodivide import clustering
from ontodivide.clustering import (MAX_ITERS, ClusterAssignment,
                                   clusters_to_entries, kmeans)
from ontodivide.config import DivisionConfig
from ontodivide.errors import InvariantError
from ontodivide.embedding import entry_vectors, train_embeddings
from ontodivide.lexindex import Mapping, all_candidate_mappings, build_lexi
from ontodivide.ontology import EntityRef


def two_blobs(seed, per_blob=30, sigma=0.1, distance=10.0, dim=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, sigma, size=(per_blob, dim))
    b = rng.normal(0.0, sigma, size=(per_blob, dim))
    b[:, 0] += distance
    labels = np.array([0] * per_blob + [1] * per_blob)
    return np.vstack([a, b]), labels


class TestKmeansBasics:
    def test_single_cluster_centroid_is_mean(self):
        X = np.arange(12, dtype=float).reshape(6, 2)
        asg = kmeans(X, 1, seed=0)
        assert set(asg.labels.tolist()) == {0}
        assert np.allclose(asg.centroids[0], X.mean(axis=0))

    def test_one_point_per_cluster(self):
        X = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0], [7.0, 7.0]])
        asg = kmeans(X, 4, seed=1)
        assert sorted(asg.labels.tolist()) == [0, 1, 2, 3]
        assert asg.inertia == 0.0

    def test_n_larger_than_distinct_points(self):
        X = np.zeros((4, 2))
        with pytest.raises(ValueError, match="distinct"):
            kmeans(X, 2, seed=0)
        X = np.repeat(np.arange(6, dtype=float).reshape(3, 2), 2, axis=0)
        with pytest.raises(ValueError, match="the 3 distinct points"):
            kmeans(X, 4, seed=0)
        assert kmeans(X, 3, seed=0).inertia == 0.0

    def test_bad_n(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 0, seed=0)

    @pytest.mark.parametrize("n", [2.0, True])
    def test_non_integer_n(self, n):
        with pytest.raises(ValueError, match="n must be an integer"):
            kmeans(np.arange(12, dtype=float).reshape(6, 2), n, seed=0)

    def test_no_points(self):
        with pytest.raises(ValueError):
            kmeans([], 1, seed=0)

    def test_zero_iterations_rejected(self):
        """Out-of-range settings are refused by name, a negative seed too,
        which numpy would refuse naming no setting."""
        X = np.arange(12, dtype=float).reshape(6, 2)
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            kmeans(X, 2, seed=0, max_iters=0)
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            kmeans(X, 2, seed=-1)

    @pytest.mark.parametrize("name, kwargs", [
        ("max_iters", {"seed": 0, "max_iters": 2.5}),
        ("seed", {"seed": 1.5})])
    def test_non_integer_setting(self, name, kwargs):
        X = np.arange(12, dtype=float).reshape(6, 2)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            kmeans(X, 2, **kwargs)

    def test_one_iteration_cap_default(self):
        default = inspect.signature(kmeans).parameters["max_iters"].default
        assert default == DivisionConfig().kmeans_max_iters == MAX_ITERS


class TestBlobRecovery:
    @pytest.mark.parametrize("seed", range(10))
    def test_two_blobs_recovered(self, seed):
        X, truth = two_blobs(seed)
        asg = kmeans(X, 2, seed=seed)
        got = np.array([asg.labels[i] for i in range(len(X))])
        same = (got == truth).all()
        flipped = (got == 1 - truth).all()
        assert same or flipped

    def test_inertia_history_non_increasing(self):
        X, _ = two_blobs(3, per_blob=50)
        asg = kmeans(X, 2, seed=3)
        hist = asg.inertia_history
        assert all(b <= a * (1 + 1e-9) + 1e-12
                   for a, b in zip(hist, hist[1:]))
        assert asg.inertia == hist[-1]


class TestDeterminism:
    def test_same_seed_same_result(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(40, 6))
        a = kmeans(X, 5, seed=77)
        b = kmeans(X, 5, seed=77)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.inertia_history == b.inertia_history


def kmeans_case(rng, block, case):
    """Points, n, seed and max_iters of one differential case.

    Cases 0-3 have B - 1, B, B + 1 and 2B + 1 points for B = `block`; the
    rest a log-uniform count.  The points are Gaussian at a random scale,
    drawn from a few distinct rows, integer-valued, two blobs, or nearly
    equal far from the origin; their matrix is C-ordered, F-ordered, or a
    strided view of either.
    """
    cap = {1: 150, 7: 600}.get(block, 3000)  # blocks of 1 row are slow
    if case < 4:
        m = max(1, (block - 1, block, block + 1, 2 * block + 1)[case])
    else:
        m = int(np.exp(rng.uniform(0, np.log(cap + 1))))
    d = int(rng.choice([1, 2, 8, 64, 128]))
    family = case % 5
    if family == 0:
        X = rng.normal(size=(m, d)) * 10.0 ** rng.uniform(-3, 3)
    elif family == 1:
        rows = rng.normal(size=(int(rng.integers(1, 12)), d))
        X = rows[rng.integers(len(rows), size=m)]
    elif family == 2:
        X = rng.integers(-2, 3, size=(m, d)).astype(float)
    elif family == 3:
        X, _ = two_blobs(int(rng.integers(1000)), per_blob=m, dim=d)
        X = X[rng.permutation(len(X))[:m]]
    else:
        # rounding in the distances ties and reorders them: empty clusters
        # to repair, and the errors of a repair or a step gone wrong
        X = 10.0 ** rng.uniform(0, 3) + rng.normal(size=(m, d)) * 10.0 ** (
            rng.uniform(-7, -4))
    layout = case // 5 % 4
    if layout == 1:
        X = np.asfortranarray(X)
    elif layout == 2:
        wide = np.empty((m, 2 * d))
        wide[:, ::2] = X
        X = wide[:, ::2]
    elif layout == 3:
        X = np.asfortranarray(X)[::-1]
    n = int(np.exp(rng.uniform(0, np.log(min(120, m + 1) + 1))))
    max_iters = MAX_ITERS if rng.random() < 0.8 else int(rng.integers(1, 6))
    return X, n, int(rng.integers(2 ** 32)), max_iters


def outcome(fn, X, n, seed, max_iters=MAX_ITERS):
    """Every bit of a k-means result, or its error."""
    try:
        asg = fn(X, n, seed, max_iters)
    except Exception as exc:
        return type(exc), str(exc)
    return (asg.labels.dtype, asg.labels.tobytes(), asg.centroids.tobytes(),
            asg.inertia_history, asg.inertia, asg.n_iter)


class TestKmeansDifferential:
    """`kmeans`, which works in buffers it allocates once per call, against
    the 0.2.0 k-means, which made fresh temporaries at every step."""

    @pytest.mark.parametrize("case", range(40))
    @pytest.mark.parametrize("block", [1, 7, 256, 1024])
    def test_random_points(self, monkeypatch, block, case):
        monkeypatch.setattr(clustering, "_BLOCK_ROWS", block)
        args = kmeans_case(np.random.default_rng([block, case]), block,
                           case)
        assert outcome(kmeans, *args) == outcome(reference_kmeans, *args)

    @pytest.mark.parametrize("m, n", [(745, 4), (2049, 10), (2049, 100),
                                      (3000, 3)])
    def test_embedding_shape(self, m, n):
        """d = 128, as `divide` clusters by default.  At each of these
        shapes, with 1 or 2 OpenBLAS threads, `X @ C.T` in 256-row blocks
        rounds some bits differently from the whole product."""
        X = np.random.default_rng([m, n]).normal(size=(m, 128))
        assert outcome(kmeans, X, n, 1) == outcome(reference_kmeans, X, n, 1)


def test_kmeans_holds_no_data_sized_temporary():
    """No temporary the size of the points, such as the one that each
    seeding pass of 0.2.0 made for `np.sum((X - c) ** 2, axis=1)`."""
    X = np.random.default_rng(0).normal(size=(20_000, 128))
    assert traced_peak(kmeans, X, 10, 0, 3)[1] < X.nbytes


@pytest.fixture(scope="module")
def lexi(table1_pair):
    return build_lexi(*table1_pair)


def assignment(labels, n=None):
    labels = np.asarray(labels, dtype=np.intp)
    n = int(labels.max()) + 1 if n is None else n
    return ClusterAssignment(n, labels, np.zeros((n, 2)), 0.0, 1, (0.0,))


class TestClustersToEntries:
    """Each cluster's candidates are those of its entries' objects."""

    def test_single_cluster_is_everything(self, lexi):
        clusters = clusters_to_entries(assignment([0] * len(lexi)), lexi)
        assert clusters == [all_candidate_mappings(lexi)]
        assert clusters[0] == reference_mappings_of(entry_objects(lexi))

    def test_hand_set_two_clusters(self, lexi):
        # disorder-flavoured entries together, carcinoma-flavoured together
        disorder = [bool({"disord", "pregnanc"} & set(key))
                    for key, _ in entry_objects(lexi)]
        clusters = clusters_to_entries(
            assignment([0 if d else 1 for d in disorder]), lexi)
        assert clusters == [
            reference_mappings_of([e for e, d in zip(entry_objects(lexi),
                                                     disorder) if d == want])
            for want in (True, False)]
        stomach = Mapping(EntityRef(O1_NS + "Disorder_of_stomach"),
                          EntityRef(O2_NS + "Pregnancy_Disorder"))
        basaloid = Mapping(EntityRef(O1_NS + "Basaloid_carcinoma"),
                           EntityRef(O2_NS + "Basaloid_Carcinoma"))
        assert stomach in clusters[0] and stomach not in clusters[1]
        assert basaloid in clusters[1] and basaloid not in clusters[0]

    def test_partition_property(self, lexi):
        space = train_embeddings(lexi, DivisionConfig(dim=4, epochs=2,
                                                      seed=0))
        points = entry_vectors(lexi, space)
        asg = kmeans(points, 3, seed=0)
        clusters = clusters_to_entries(asg, lexi)
        assert len(clusters) == 3 and all(clusters)
        entries = entry_objects(lexi)
        for c, cluster in enumerate(clusters):
            assert cluster == reference_mappings_of(
                [e for e, label in zip(entries, asg.labels) if label == c])
        assert frozenset().union(*clusters) == all_candidate_mappings(lexi)

    def test_empty_cluster_is_an_invariant_error(self, lexi):
        with pytest.raises(InvariantError, match="empty cluster"):
            clusters_to_entries(assignment([0] * len(lexi), n=2), lexi)

    def test_incomplete_assignment_rejected(self, lexi):
        asg = assignment([0] * (len(lexi) - 1))
        with pytest.raises(ValueError, match="does not cover"):
            clusters_to_entries(asg, lexi)
