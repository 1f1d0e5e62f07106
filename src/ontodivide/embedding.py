"""Task-tailored embeddings for index words and entities.

Every key word and value entity of the index gets a d-dimensional vector.
Training ranks each observed word-entity pair above sampled negative
entities by a margin, with plain SGD and a linearly decayed learning rate;
per-entry vectors are the concatenation of the key-word mean and the
value-entity mean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

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


def _pair_gaps(v_w, v_e, v_negs, margin):
    return margin - v_w @ v_e + v_negs @ v_w


def _loss_from_gaps(gaps) -> float:
    return float(np.maximum(gaps, 0.0).sum())


def _gradients_from_gaps(v_w, v_e, v_negs, gaps):
    viol = gaps > 0
    k = int(viol.sum())
    g_negs = np.where(viol[:, None], v_w, 0.0)
    if k == 0:
        return np.zeros_like(v_w), np.zeros_like(v_e), g_negs
    g_w = v_negs[viol].sum(axis=0) - k * v_e
    g_e = -k * v_w
    return g_w, g_e, g_negs


def hinge_loss(v_w: FloatArray, v_e: FloatArray, v_negs: FloatArray,
               margin: float) -> float:
    """sum_k max(0, margin - v_w.v_e + v_w.v_neg_k)."""
    return _loss_from_gaps(_pair_gaps(v_w, v_e, v_negs, margin))


def hinge_gradients(v_w: FloatArray, v_e: FloatArray, v_negs: FloatArray,
                    margin: float) -> tuple[FloatArray, FloatArray, FloatArray]:
    """Gradients of `hinge_loss` w.r.t. v_w, v_e and each negative vector."""
    return _gradients_from_gaps(v_w, v_e, v_negs,
                                _pair_gaps(v_w, v_e, v_negs, margin))


def _project(matrix: FloatArray, rows: Iterable[int], max_norm: float) -> None:
    for r in set(rows):
        norm = float(np.linalg.norm(matrix[r]))
        if norm > max_norm:
            matrix[r] *= max_norm / norm


def train_embeddings(lexi: LexIndex, cfg: TrainingConfig) -> EmbeddingSpace:
    """SGD over positive pairs with sampled negatives.

    Vectors start uniform in [-1/d, 1/d]; one gradient step per positive
    pair per epoch, pairs reshuffled every epoch, learning rate decayed
    linearly to zero over all steps.  Fully deterministic given the seed.
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
        for p in order:
            lr = cfg.learning_rate * (1.0 - step / total_steps)
            step += 1
            wi = pair_w[p]
            ei = pair_e[p]
            negs = multiset[rng.integers(0, len(multiset),
                                         size=cfg.negatives)]
            v_negs = E[negs]
            gaps = _pair_gaps(W[wi], E[ei], v_negs, cfg.margin)
            epoch_loss += _loss_from_gaps(gaps)
            if not (gaps > 0).any():
                continue
            g_w, g_e, g_negs = _gradients_from_gaps(W[wi], E[ei], v_negs,
                                                    gaps)
            W[wi] -= lr * g_w
            E[ei] -= lr * g_e
            np.add.at(E, negs, -lr * g_negs)
            _project(W, (wi,), cfg.max_norm)
            _project(E, [ei, *negs.tolist()], cfg.max_norm)
        losses.append(epoch_loss)
        if not (np.isfinite(W).all() and np.isfinite(E).all()):
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
