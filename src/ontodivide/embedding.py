"""Task-tailored embeddings for index words and entities.

Every key word and value entity of the index gets a d-dimensional vector.
Training ranks each observed word-entity pair above sampled negative
entities by a margin, with mini-batch SGD (`_BATCH` pairs per step,
colliding updates summed) and a linearly decayed learning rate; per-entry
vectors are the concatenation of the key-word mean and the value-entity
mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lexindex import LexIndex, LexKey, LexValue
from .ontology import EntityRef

FloatArray = np.ndarray


@dataclass(frozen=True)
class TrainingConfig:
    dim: int = 64
    epochs: int = 100
    negatives: int = 10
    margin: float = 0.05
    learning_rate: float = 0.05
    seed: int = 0
    max_norm: float = 10.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")
        if self.margin < 0:
            raise ValueError("margin must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


@dataclass(frozen=True)
class EmbeddingSpace:
    words: tuple[str, ...]
    entities: tuple[EntityRef, ...]
    word_matrix: FloatArray    # (len(words), dim)
    entity_matrix: FloatArray  # (len(entities), dim)
    word_index: dict[str, int] = field(repr=False)
    entity_index: dict[EntityRef, int] = field(repr=False)
    epoch_losses: tuple[float, ...] = ()

    @property
    def dim(self) -> int:
        return self.word_matrix.shape[1]

    def word_vector(self, word: str) -> FloatArray:
        try:
            return self.word_matrix[self.word_index[word]]
        except KeyError:
            raise KeyError(f"no vector for word {word!r}") from None

    def entity_vector(self, entity: EntityRef) -> FloatArray:
        try:
            return self.entity_matrix[self.entity_index[entity]]
        except KeyError:
            raise KeyError(f"no vector for entity {entity.iri!r}") from None


def _make_space(words, entities, W, E, losses=()) -> EmbeddingSpace:
    W.flags.writeable = False
    E.flags.writeable = False
    return EmbeddingSpace(tuple(words), tuple(entities), W, E,
                          {w: i for i, w in enumerate(words)},
                          {e: i for i, e in enumerate(entities)},
                          tuple(losses))


def similarity(a: FloatArray, b: FloatArray) -> float:
    """Dot product; strict about matching lengths."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(a @ b)


def positive_pairs(lexi: LexIndex) -> list[tuple[str, EntityRef]]:
    """All word-entity pairs of the index, in canonical order.

    Each entry contributes its key words crossed with its value entities
    from both ontologies; training shuffles this list per epoch.
    """
    pairs: list[tuple[str, EntityRef]] = []
    for key, value in lexi.sorted_entries:
        ents = value.all_entities()
        for w in key:
            for e in ents:
                pairs.append((w, e))
    return pairs


# pairs per SGD step; colliding updates within a batch sum.  On the
# benchmark pairs 256 kept planted coverage within 0.02 and size ratio within
# 5 % of one-pair steps; 1024 raised the size ratio by 13-17 %.
_BATCH = 256


def batch_gaps(v_w: FloatArray, v_cand: FloatArray,
               margin: float) -> FloatArray:
    """(b, j) gaps margin - v_w.v_e + v_w.v_neg for b pairs, j negatives each.

    v_w is (b, d); v_cand is (b, 1 + j, d), each pair's positive entity
    vector followed by its j negative ones.
    """
    scores = (v_cand @ v_w[:, :, None])[..., 0]
    return margin - scores[:, :1] + scores[:, 1:]


def batch_loss(gaps: FloatArray) -> FloatArray:
    """Per-pair hinge loss: sum_k max(0, gap_k), shape (b,)."""
    return np.maximum(gaps, 0.0).sum(axis=1)


def batch_gradients(v_w: FloatArray, v_cand: FloatArray,
                    gaps: FloatArray) -> tuple[FloatArray, FloatArray]:
    """Per-pair gradients of `batch_loss` w.r.t. v_w (b, d) and v_cand.

    With c = (-k, [gap_1 > 0], ..., [gap_j > 0]), k the number of violated
    margins, the gradient is c . v_cand for v_w and c_i v_w for v_cand[i].
    """
    viol = gaps > 0
    c = np.empty(v_cand.shape[:2])
    c[:, 0] = -viol.sum(axis=1)
    c[:, 1:] = viol
    return (c[:, None, :] @ v_cand)[:, 0], c[:, :, None] * v_w[:, None, :]


def _one_pair(v_w: FloatArray, v_e: FloatArray,
              v_negs: FloatArray) -> tuple[FloatArray, FloatArray]:
    return v_w[None], np.concatenate([v_e[None], v_negs])[None]


def hinge_loss(v_w: FloatArray, v_e: FloatArray, v_negs: FloatArray,
               margin: float) -> float:
    """sum_k max(0, margin - v_w.v_e + v_w.v_neg_k).

    The batch-of-one case of `batch_loss`, as the trainer computes it.
    """
    return float(batch_loss(batch_gaps(*_one_pair(v_w, v_e, v_negs),
                                       margin))[0])


def hinge_gradients(v_w: FloatArray, v_e: FloatArray, v_negs: FloatArray,
                    margin: float) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Gradients of `hinge_loss` w.r.t. v_w, v_e and each negative vector."""
    w, cand = _one_pair(v_w, v_e, v_negs)
    g_w, g_cand = batch_gradients(w, cand, batch_gaps(w, cand, margin))
    return g_w[0], g_cand[0, 0], g_cand[0, 1:]


def _flat_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """Indices into `matrix.reshape(-1)` of every element of `rows`."""
    return (rows[:, None] * d + np.arange(d)).reshape(-1)


def _project(matrix: FloatArray, rows: np.ndarray, max_norm: float) -> None:
    """Rescale the given rows whose norm exceeds max_norm onto the ball."""
    # a mask dedupes the rows faster than np.unique's hash table
    touched = np.zeros(len(matrix), dtype=bool)
    touched[rows] = True
    rows = np.flatnonzero(touched)
    norms = np.linalg.norm(matrix[rows], axis=1)
    over = norms > max_norm
    matrix[rows[over]] *= (max_norm / norms[over])[:, None]


def train_embeddings(lexi: LexIndex, cfg: TrainingConfig) -> EmbeddingSpace:
    """Mini-batch SGD over positive pairs with sampled negatives.

    Vectors start uniform in [-1/d, 1/d].  Every epoch reshuffles the pairs
    and walks them in batches of `_BATCH`; each batch takes one step whose
    gradients come from the parameters as they stand at its start, with
    updates to the same row summed.  Each pair keeps its own learning rate,
    decayed linearly to zero over all pairs of all epochs.  Fully
    deterministic given the seed.
    """
    pairs = positive_pairs(lexi)
    if not pairs:
        raise ValueError("cannot train on an empty index")
    words = sorted({w for w, _ in pairs})
    entities = sorted({e for _, e in pairs})
    word_index = {w: i for i, w in enumerate(words)}
    entity_index = {e: i for i, e in enumerate(entities)}

    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim
    bound = 1.0 / d
    W = rng.uniform(-bound, bound, size=(len(words), d))
    E = rng.uniform(-bound, bound, size=(len(entities), d))
    flat_w = W.reshape(-1)
    flat_e = E.reshape(-1)

    pair_w = np.array([word_index[w] for w, _ in pairs], dtype=np.intp)
    pair_e = np.array([entity_index[e] for _, e in pairs], dtype=np.intp)
    multiset = np.array([entity_index[e] for e in lexi.value_entity_multiset],
                        dtype=np.intp)

    total_steps = cfg.epochs * len(pairs)
    step = 0
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pairs))
        epoch_loss = 0.0
        for start in range(0, len(pairs), _BATCH):
            batch = order[start:start + _BATCH]
            b = len(batch)
            lr = cfg.learning_rate * (
                1.0 - (step + np.arange(b)) / total_steps)[:, None]
            step += b
            wi = pair_w[batch]
            # entity rows of each pair: its positive, then its negatives
            rows = np.empty((b, 1 + cfg.negatives), dtype=np.intp)
            rows[:, 0] = pair_e[batch]
            rows[:, 1:] = multiset[rng.integers(0, len(multiset),
                                                size=(b, cfg.negatives))]
            rows = rows.reshape(-1)
            v_w = W[wi]
            v_cand = E[rows].reshape(b, 1 + cfg.negatives, d)
            gaps = batch_gaps(v_w, v_cand, cfg.margin)
            epoch_loss += float(batch_loss(gaps).sum())
            g_w, g_cand = batch_gradients(v_w, v_cand, gaps)
            g_w *= -lr
            g_cand *= -lr[:, :, None]
            np.add.at(flat_w, _flat_rows(wi, d), g_w.reshape(-1))
            np.add.at(flat_e, _flat_rows(rows, d), g_cand.reshape(-1))
            _project(W, wi, cfg.max_norm)
            _project(E, rows, cfg.max_norm)
        losses.append(epoch_loss)
        # overflowing dot products give NaN gaps while W and E stay finite
        if not (math.isfinite(epoch_loss) and np.isfinite(W).all()
                and np.isfinite(E).all()):
            raise RuntimeError(
                f"non-finite embedding values after epoch {epoch}; "
                "lower the learning rate")
    return _make_space(words, entities, W, E, losses)


def entry_vector(entry: tuple[LexKey, LexValue],
                 space: EmbeddingSpace) -> FloatArray:
    """Key-word mean concatenated with value-entity mean (length 2d)."""
    key, value = entry
    word_mean = np.mean([space.word_vector(w) for w in key], axis=0)
    ent_mean = np.mean([space.entity_vector(e) for e in value.all_entities()],
                       axis=0)
    return np.concatenate([word_mean, ent_mean])


def entry_vectors(lexi: LexIndex,
                  space: EmbeddingSpace) -> list[tuple[LexKey, FloatArray]]:
    return [(key, entry_vector((key, value), space))
            for key, value in lexi.sorted_entries]
