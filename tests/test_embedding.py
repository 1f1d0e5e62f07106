from array import array
from itertools import accumulate

import numpy as np
import pytest

from conftest import O1_NS, O2_NS, traced_peak
from oracles import (LexValue, all_entities, entry_map, entry_objects,
                     reference_entry_vector, reference_positive_pairs,
                     reference_project, reference_train_embeddings,
                     reference_value_entity_multiset)

from ontodivide import embedding
from ontodivide.config import DivisionConfig
from ontodivide.embedding import (EmbeddingSpace, batch_gaps,
                                  batch_gradients, batch_loss,
                                  entry_vectors, hinge_gradients, hinge_loss,
                                  positive_pairs, similarity,
                                  train_embeddings)
from ontodivide.lexindex import IndexStats, LexIndex, build_lexi
from ontodivide.ontology import OBJECT_PROPERTY, EntityRef


def make_lexi(entries, alpha=60):
    """The `LexIndex` of hand-made entries, whose entities are numbered as
    `build_lexi` numbers two signatures: each side's sorted, the source's
    first."""
    sides = [sorted({e for v in entries.values() for e in getattr(v, side)})
             for side in ("entities1", "entities2")]
    ids = [{e: i for i, e in enumerate(side, start)}
           for side, start in zip(sides, (0, len(sides[0])))]
    keys = sorted(entries)
    words = sorted({w for key in keys for w in key})
    word_id = {w: i for i, w in enumerate(words)}
    values = [sorted(ids[0][e] for e in entries[key].entities1)
              + sorted(ids[1][e] for e in entries[key].entities2)
              for key in keys]
    return LexIndex(
        alpha, IndexStats(len(entries), len(entries), 0, 0), tuple(words),
        tuple(sides[0] + sides[1]), len(sides[0]),
        array("q", accumulate(map(len, keys), initial=0)),
        array("q", [word_id[w] for key in keys for w in key]),
        array("q", accumulate(map(len, values), initial=0)),
        array("q", [e for value in values for e in value]))


def ent(ns, name):
    return EntityRef(ns + name)


@pytest.fixture(scope="module")
def table1_lexi(table1_pair):
    return build_lexi(*table1_pair)


class TestPositivePairs:
    def test_row_two_gives_four_pairs(self, table1_lexi):
        key = ("disord", "pregnanc")
        value = entry_map(table1_lexi)[key]
        pairs = positive_pairs(make_lexi({key: value}))
        assert len(pairs) == 4
        assert ("disord", ent(O1_NS, "Disorder_of_pregnancy")) in pairs
        assert ("pregnanc", ent(O2_NS, "Pregnancy_Disorder")) in pairs

    def test_empty_index(self):
        assert positive_pairs(make_lexi({})) == []

    def test_count_is_sum_of_products(self, table1_lexi):
        pairs = positive_pairs(table1_lexi)
        expected = sum(len(k) * len(v)
                       for k, v in entry_objects(table1_lexi))
        assert len(pairs) == expected

    def test_canonical_order(self, table1_lexi):
        assert positive_pairs(table1_lexi) == positive_pairs(table1_lexi)


class TestSimilarity:
    def test_orthogonal(self):
        assert similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_dot(self):
        assert similarity(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_self_similarity_nonnegative(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            v = rng.normal(size=8)
            assert similarity(v, v) >= 0.0
            assert np.isclose(similarity(v, v), np.linalg.norm(v) ** 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            similarity(np.zeros(3), np.zeros(4))


class TestHingeLoss:
    def test_zero_when_margin_met(self):
        v_w = np.array([1.0, 0.0])
        v_e = np.array([1.0, 0.0])
        negs = np.array([[-1.0, 0.0]])
        assert hinge_loss(v_w, v_e, negs, margin=0.5) == 0.0
        g_w, g_e, g_n = hinge_gradients(v_w, v_e, negs, 0.5)
        assert not g_w.any() and not g_e.any() and not g_n.any()

    def test_analytic_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        h = 1e-6
        for _ in range(25):
            d = int(rng.integers(2, 8))
            j = int(rng.integers(1, 6))
            v_w = rng.normal(size=d)
            v_e = rng.normal(size=d)
            negs = rng.normal(size=(j, d))
            margin = float(rng.uniform(0.01, 0.5))
            g_w, g_e, g_n = hinge_gradients(v_w, v_e, negs, margin)

            def fd(setter, getter, analytic):
                numeric = np.zeros_like(analytic)
                flat = analytic.reshape(-1)
                for i in range(flat.size):
                    plus = getter().copy()
                    plus.reshape(-1)[i] += h
                    minus = getter().copy()
                    minus.reshape(-1)[i] -= h
                    numeric.reshape(-1)[i] = (
                        setter(plus) - setter(minus)) / (2 * h)
                scale = max(np.linalg.norm(analytic),
                            np.linalg.norm(numeric), 1e-12)
                assert np.linalg.norm(analytic - numeric) / scale < 1e-4

            fd(lambda v: hinge_loss(v, v_e, negs, margin), lambda: v_w, g_w)
            fd(lambda v: hinge_loss(v_w, v, negs, margin), lambda: v_e, g_e)
            fd(lambda v: hinge_loss(v_w, v_e, v, margin), lambda: negs, g_n)


class TestBatchHinge:
    def test_batch_equals_stack_of_single_pairs(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            b = int(rng.integers(1, 40))
            d = int(rng.integers(2, 9))
            j = int(rng.integers(1, 7))
            v_w = rng.normal(size=(b, d))
            v_e = rng.normal(size=(b, d))
            negs = rng.normal(size=(b, j, d))
            v_cand = np.concatenate([v_e[:, None], negs], axis=1)
            margin = float(rng.uniform(0.01, 0.5))
            gaps = batch_gaps(v_w, v_cand, margin)
            # the one-pair formula, written out without the batch code
            explicit = np.array([margin - v_w[i] @ v_e[i] + negs[i] @ v_w[i]
                                 for i in range(b)])
            assert np.allclose(gaps, explicit, rtol=1e-12, atol=0)
            single = [hinge_loss(v_w[i], v_e[i], negs[i], margin)
                      for i in range(b)]
            assert np.allclose(batch_loss(gaps), single, rtol=1e-12, atol=0)
            g_w, c = batch_gradients(v_w, v_cand, gaps)
            g_cand = c[:, :, None] * v_w[:, None, :]
            stacked = [hinge_gradients(v_w[i], v_e[i], negs[i], margin)
                       for i in range(b)]
            for got, which in ((g_w, 0), (g_cand[:, 0], 1),
                               (g_cand[:, 1:], 2)):
                expected = np.stack([g[which] for g in stacked])
                assert got.shape == expected.shape
                assert np.allclose(got, expected, rtol=1e-12, atol=0)


class TestTraining:
    def test_zero_epochs_returns_seeded_init(self, table1_lexi):
        cfg = DivisionConfig(dim=8, epochs=0, seed=4)
        space = train_embeddings(table1_lexi, cfg)
        rng = np.random.default_rng(4)
        expected_w = rng.uniform(-1 / 8, 1 / 8,
                                 size=(len(space.words), 8))
        expected_e = rng.uniform(-1 / 8, 1 / 8,
                                 size=(len(space.entities), 8))
        assert np.array_equal(space.word_matrix, expected_w)
        assert np.array_equal(space.entity_matrix, expected_e)

    def test_fixed_seed_bit_identical(self, table1_lexi):
        cfg = DivisionConfig(dim=8, epochs=5, seed=123)
        a = train_embeddings(table1_lexi, cfg)
        b = train_embeddings(table1_lexi, cfg)
        assert np.array_equal(a.word_matrix, b.word_matrix)
        assert np.array_equal(a.entity_matrix, b.entity_matrix)
        assert a.epoch_losses == b.epoch_losses

    def test_empty_index_rejected(self):
        with pytest.raises(ValueError):
            train_embeddings(make_lexi({}), DivisionConfig(dim=4, epochs=1))

    def test_vocabulary_covers_index(self, table1_lexi):
        space = train_embeddings(table1_lexi,
                                 DivisionConfig(dim=4, epochs=1, seed=0))
        for key, value in entry_objects(table1_lexi):
            for w in key:
                assert w in space.word_index
            for e in all_entities(value):
                assert e in space.entity_index

    def test_all_finite_and_norm_bounded(self, table1_lexi, monkeypatch):
        monkeypatch.setattr(embedding, "_MAX_NORM", 2.0)
        cfg = DivisionConfig(dim=8, epochs=30, seed=7, learning_rate=0.5)
        space = train_embeddings(table1_lexi, cfg)
        assert np.isfinite(space.word_matrix).all()
        assert np.isfinite(space.entity_matrix).all()
        for matrix in (space.word_matrix, space.entity_matrix):
            norms = np.linalg.norm(matrix, axis=1)
            assert (norms <= 2.0 + 1e-9).all()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts(self, table1_lexi, monkeypatch):
        monkeypatch.setattr(embedding, "_MAX_NORM", float("inf"))
        cfg = DivisionConfig(dim=4, epochs=60, seed=0, learning_rate=1e120)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            train_embeddings(table1_lexi, cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_loss_aborts(self, table1_lexi, monkeypatch):
        # here v_w.v_e overflows to NaN gaps while W and E stay finite, so
        # only the check on the epoch loss can stop the run
        monkeypatch.setattr(embedding, "_MAX_NORM", float("inf"))
        cfg = DivisionConfig(dim=4, epochs=5, seed=1, learning_rate=1e200)
        with np.errstate(all="ignore"), \
                pytest.raises(ValueError, match="non-finite"):
            train_embeddings(table1_lexi, cfg)

    def _two_group_lexi(self):
        g1 = {(f"w1{i}",): LexValue(
            frozenset({ent(O1_NS, f"G1_{i}")}),
            frozenset({ent(O2_NS, f"G1_{i}")})) for i in range(4)}
        g2 = {(f"w2{i}",): LexValue(
            frozenset({ent(O1_NS, f"G2_{i}")}),
            frozenset({ent(O2_NS, f"G2_{i}")})) for i in range(4)}
        return make_lexi({**g1, **g2})

    def test_groups_separate(self):
        lexi = self._two_group_lexi()
        space = train_embeddings(lexi, DivisionConfig(dim=16, epochs=60,
                                                      seed=9))
        intra, inter = [], []
        for key, value in entry_objects(lexi):
            word = key[0]
            for other_key, other_value in entry_objects(lexi):
                for e in all_entities(other_value):
                    sim = similarity(space.word_vector(word),
                                     space.entity_vector(e))
                    same = word[:2] == other_key[0][:2]
                    (intra if same else inter).append(sim)
        assert np.mean(intra) > np.mean(inter)

    def test_epoch_loss_trend_over_seeds(self):
        lexi = self._two_group_lexi()
        first, tenth = [], []
        for seed in range(5):
            cfg = DivisionConfig(dim=16, epochs=10, seed=seed)
            space = train_embeddings(lexi, cfg)
            first.append(space.epoch_losses[0])
            tenth.append(space.epoch_losses[9])
        assert np.mean(tenth) < np.mean(first)


class TestEntryVector:
    def _space(self, words, entities, W, E):
        W = np.asarray(W, dtype=float)
        E = np.asarray(E, dtype=float)
        return EmbeddingSpace(tuple(words), tuple(entities), W, E)

    def test_hand_set_vectors(self):
        e1a = ent(O1_NS, "Disorder_of_pregnancy")
        e2a = ent(O2_NS, "Pregnancy_Disorder")
        space = self._space(["disord", "pregnanc"], [e1a, e2a],
                            [[1.0, 0.0], [0.0, 1.0]],
                            [[2.0, 0.0], [0.0, 2.0]])
        value = LexValue(frozenset({e1a}), frozenset({e2a}))
        vec = entry_vectors(make_lexi({("disord", "pregnanc"): value}),
                            space)[0]
        assert np.allclose(vec, [0.5, 0.5, 1.0, 1.0])

    def test_singletons(self):
        e = ent(O1_NS, "X")
        t = ent(O2_NS, "Y")
        space = self._space(["w"], [e, t], [[1.0, 2.0]],
                            [[3.0, 4.0], [5.0, 6.0]])
        value = LexValue(frozenset({e}), frozenset({t}))
        vec = entry_vectors(make_lexi({("w",): value}), space)[0]
        assert np.allclose(vec, [1.0, 2.0, 4.0, 5.0])

    def test_missing_token_is_named(self):
        space = self._space(["w"], [], [[1.0]], np.zeros((0, 1)))
        with pytest.raises(KeyError, match="X"):
            space.entity_vector(ent(O1_NS, "X"))
        with pytest.raises(KeyError, match="nope"):
            space.word_vector("nope")

    def test_foreign_space_rejected(self):
        space = self._space(["w"], [], [[1.0]], np.zeros((0, 1)))
        value = LexValue(frozenset({ent(O1_NS, "X")}), frozenset())
        for key in (("w",), ("nope",)):
            with pytest.raises(ValueError, match="does not match the index"):
                entry_vectors(make_lexi({key: value}), space)

    def test_length_is_twice_dim(self, table1_lexi):
        space = train_embeddings(table1_lexi,
                                 DivisionConfig(dim=6, epochs=1, seed=2))
        assert entry_vectors(table1_lexi, space).shape == (len(table1_lexi),
                                                           12)


def random_lexi(rng):
    """Hand-built index: keys of 1-3 words, values of 1-40 entities.

    Some IRIs come in two kinds, so the entity order must break ties on
    the kind as `EntityRef` does.
    """
    words = [f"w{i:02d}" for i in range(25)]
    pool = [[EntityRef(f"{ns}e{i:02d}") for i in range(50)]
            for ns in (O1_NS, O2_NS)]
    for side in pool:
        side += [EntityRef(e.iri, OBJECT_PROPERTY) for e in side[::7]]
    entries = {}
    for _ in range(int(rng.integers(1, 60))):
        key = tuple(sorted(rng.choice(words, size=int(rng.integers(1, 4)),
                                      replace=False).tolist()))
        size = int(rng.integers(1, 41))
        left = int(rng.integers(0, size + 1))
        sides = [frozenset(pool[s][i] for i in rng.choice(
            len(pool[s]), size=k, replace=False))
            for s, k in ((0, left), (1, size - left))]
        entries[key] = LexValue(*sides)
    return make_lexi(entries)


def random_space(rng, lexi, dim):
    """A space over the index's vocabulary, rows of widely varied scale."""
    pairs = reference_positive_pairs(lexi)
    words = sorted({w for w, _ in pairs})
    entities = sorted({e for _, e in pairs})

    def rows(n):
        return rng.normal(size=(n, dim)) * 10.0 ** rng.uniform(
            -3, 3, size=(n, 1))
    return EmbeddingSpace(tuple(words), tuple(entities), rows(len(words)),
                          rows(len(entities)))


def large_lexi(rng, count):
    """An index of `count` entries, four in five keyed by one word, with
    values of 2-4 entities."""
    words = [f"w{i:05d}" for i in range(count)]
    pool = [[EntityRef(f"{ns}e{i:04d}") for i in range(1000)]
            for ns in (O1_NS, O2_NS)]
    entries = {}
    for i, w in enumerate(words):
        key = (w,) if rng.random() < 0.8 else tuple(sorted(
            {w, words[int(rng.integers(count))]}))
        left = int(rng.integers(1, 3))
        right = int(rng.integers(1, 3))
        entries[key] = LexValue(*(
            frozenset(side[j] for j in rng.choice(1000, size=k,
                                                  replace=False))
            for side, k in ((pool[0], left), (pool[1], right))))
    return make_lexi(entries)


def spans_gather_blocks(lexi, dim):
    """Whether some run length of keys or values has more entries than one
    gather block of `entry_vectors` holds."""
    for runs in (np.diff(lexi.key_ptr), np.diff(lexi.value_ptr)):
        sizes, counts = np.unique(runs, return_counts=True)
        rows = np.maximum(1, embedding._GATHER_BYTES // (sizes * dim * 8))
        if (counts > rows).any():
            return True
    return False


class TestEncoding:
    """The integer encoding against the per-entry object code it replaced."""

    def check(self, lexi, space):
        assert positive_pairs(lexi) == reference_positive_pairs(lexi)
        entities, multiset = embedding._value_rows(lexi)
        assert tuple(entities[i] for i in multiset) \
            == reference_value_entity_multiset(lexi)
        expected = np.stack([reference_entry_vector(entry, space)
                             for entry in entry_objects(lexi)])
        assert np.array_equal(entry_vectors(lexi, space), expected)

    def test_table1(self, table1_lexi):
        space = train_embeddings(table1_lexi,
                                 DivisionConfig(dim=8, epochs=3, seed=5))
        self.check(table1_lexi, space)

    def test_toy_pair(self, toy_pair):
        lexi = build_lexi(*toy_pair)
        space = train_embeddings(lexi, DivisionConfig(dim=16, epochs=3,
                                                      seed=6))
        self.check(lexi, space)

    @pytest.mark.parametrize("seed", range(40))
    def test_random_index(self, seed):
        rng = np.random.default_rng(seed)
        lexi = random_lexi(rng)
        self.check(lexi, random_space(rng, lexi, int(rng.integers(1, 9))))

    @pytest.mark.parametrize("gather_bytes", [1, 100, 1000])
    def test_groups_span_gather_blocks(self, monkeypatch, gather_bytes):
        monkeypatch.setattr(embedding, "_GATHER_BYTES", gather_bytes)
        rng = np.random.default_rng(gather_bytes)
        spanned = 0
        for _ in range(5):
            lexi = random_lexi(rng)
            dim = int(rng.integers(1, 9))
            spanned += spans_gather_blocks(lexi, dim)
            self.check(lexi, random_space(rng, lexi, dim))
        assert spanned

    def test_large_index(self):
        # the default gather block: 512 rows of one word at d = 64
        lexi = large_lexi(np.random.default_rng(0), 6000)
        assert spans_gather_blocks(lexi, 64)
        self.check(lexi, random_space(np.random.default_rng(1), lexi, 64))

    def test_training_vocabulary_is_the_encoding(self, table1_lexi):
        space = train_embeddings(table1_lexi,
                                 DivisionConfig(dim=4, epochs=0, seed=0))
        assert space.words is table1_lexi.words
        assert space.entities == embedding._value_rows(table1_lexi)[0]


def test_entry_vectors_hold_little_but_their_result():
    """Both halves go straight into the result, and each run-length group
    is gathered a bounded block at a time."""
    lexi = large_lexi(np.random.default_rng(2), 5000)
    space = random_space(np.random.default_rng(3), lexi, 64)
    out, peak = traced_peak(entry_vectors, lexi, space)
    assert peak < 1.5 * out.nbytes


class TestTrainerDifferential:
    """`train_embeddings`, which scatters only the entity rows of violated
    margins, against the 0.2.0 trainer that scatters the dense block."""

    @pytest.mark.parametrize("max_norm", [0.05, 10.0])
    @pytest.mark.parametrize("margin", [0.0, 0.05, 5.0])
    @pytest.mark.parametrize("dim", [1, 8])
    @pytest.mark.parametrize("negatives", [1, 10])
    def test_random_index(self, negatives, dim, margin, max_norm,
                          monkeypatch):
        monkeypatch.setattr(embedding, "_MAX_NORM", max_norm)
        rng = np.random.default_rng(
            [negatives, dim, int(margin * 100), int(max_norm * 100)])
        short_batches = 0
        for epochs in range(4):
            lexi = random_lexi(rng)
            pairs = len(positive_pairs(lexi))
            short_batches += pairs % 256 != 0
            cfg = DivisionConfig(dim=dim, epochs=epochs, negatives=negatives,
                                 margin=margin,
                                 learning_rate=float(rng.uniform(0.01, 0.5)),
                                 seed=int(rng.integers(2 ** 32)))
            space = train_embeddings(lexi, cfg)
            W, E, losses = reference_train_embeddings(lexi, cfg, max_norm)
            assert np.array_equal(space.word_matrix, W)
            assert np.array_equal(space.entity_matrix, E)
            assert space.epoch_losses == losses
            if epochs and max_norm < 1 / dim:
                # every entity row is a positive once per epoch, so each
                # was projected onto the ball (uniform init exceeds it)
                norms = np.linalg.norm(E, axis=1)
                assert norms.max() <= max_norm * (1 + 1e-12)
        assert short_batches

    def test_toy_pair_default_shape(self, toy_pair):
        # dim 64, 10 negatives, norm 10: the benchmark's step shape
        lexi = build_lexi(*toy_pair)
        cfg = DivisionConfig(epochs=3, seed=11)
        space = train_embeddings(lexi, cfg)
        W, E, losses = reference_train_embeddings(lexi, cfg, 10.0)
        assert np.array_equal(space.word_matrix, W)
        assert np.array_equal(space.entity_matrix, E)
        assert space.epoch_losses == losses


def edge_rows(rng, d, max_norm):
    """Rows at the projection's edges: of norm max_norm as computed, one
    ulp over or under it, equal entries whose bound is their norm, an inf,
    a NaN, and finite entries whose squares overflow."""
    rows = rng.normal(size=(7, d))
    rows /= np.linalg.norm(rows, axis=1)[:, None]
    if np.isfinite(max_norm):
        rows[:3] *= max_norm
        rows[1] *= np.nextafter(1.0, 2.0)
        rows[2] *= np.nextafter(1.0, 0.0)
        rows[3] = max_norm / np.sqrt(d)
    rows[4, 0] = float(rng.choice([np.inf, -np.inf]))
    rows[5, 0] = np.nan
    rows[6] = float(rng.choice([1e153, 1e155, 1e200]))
    return rows


class TestProjectDifferential:
    """`_project`, which returns early when max|x| sqrt(d) bounds every
    norm below max_norm, against the projection that takes every norm."""

    def check(self, matrix, rows, max_norm):
        got, want = matrix.copy(), matrix.copy()
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                reference_project(want, rows, max_norm)
            except ValueError as exc:
                with pytest.raises(ValueError, match=str(exc)):
                    embedding._project(got, rows, max_norm)
            else:
                embedding._project(got, rows, max_norm)
        assert np.array_equal(got, want, equal_nan=True)

    @pytest.mark.parametrize("max_norm", [1e-3, 0.05, 1.0, 10.0, np.inf])
    @pytest.mark.parametrize("edge", range(7))
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_and_errors(self, seed, edge, max_norm):
        rng = np.random.default_rng([seed, edge, int(min(max_norm, 1e6))])
        d = int(rng.integers(1, 9))
        matrix = rng.normal(size=(20, d)) * 10.0 ** rng.uniform(
            -4, 1, size=(20, 1))
        edges = edge_rows(rng, d, max_norm)
        # the edge row, and another edge row half the time
        at = rng.choice(20, size=1 + seed % 2, replace=False)
        matrix[at] = edges[[edge, int(rng.integers(len(edges)))][:len(at)]]
        rows = np.concatenate([at, rng.integers(0, 20, size=int(
            rng.integers(0, 40)))])
        self.check(matrix, rows, max_norm)

    def test_bound_below_max_norm_yet_norm_above(self):
        # 23 equal entries: max|x| sqrt(d) rounds below 0.05 and the norm
        # above it, which the bound's margin covers
        matrix = np.full((1, 23), np.nextafter(0.05 / np.sqrt(23), 0.0))
        assert np.abs(matrix).max() * np.sqrt(23) < 0.05
        assert np.linalg.norm(matrix) > 0.05
        self.check(matrix, np.zeros(1, dtype=np.intp), 0.05)

    def test_nan_row_beside_a_row_to_rescale(self):
        matrix = np.array([[np.nan, 0.0], [3.0, 4.0]])
        self.check(matrix, np.array([0, 1]), 1.0)
