"""Task-tailored embeddings for index words and entities.

Every key word and value entity of the index gets a d-dimensional vector.
Training ranks each observed word-entity pair above sampled negative
entities by a margin, with mini-batch SGD (`_BATCH` pairs per step,
colliding updates summed, touched rows kept within norm `_MAX_NORM`) and a
linearly decayed learning rate; per-entry vectors are the concatenation of
the key-word mean and the value-entity mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .config import DivisionConfig
from .lexindex import LexIndex
from .ontology import EntityRef

FloatArray = np.ndarray


def _value_rows(lexi: LexIndex) -> tuple[tuple[EntityRef, ...], np.ndarray]:
    """The entities of the kept values, sorted, one per (IRI, kind), and
    `lexi.value_ids` as rows of them: the value of entry i is run i of the
    rows, which are also the negative-sampling multiset."""
    ids = np.asarray(lexi.value_ids)
    used = np.flatnonzero(np.bincount(ids, minlength=len(lexi.entities)))
    refs = [lexi.entities[e] for e in used.tolist()]
    # (iri, kind) sorts and compares as EntityRef does, but hashes in C
    by_fields = {(e.iri, e.kind): e for e in refs}
    row = {f: i for i, f in enumerate(sorted(by_fields))}
    rows = np.zeros(len(lexi.entities), dtype=np.intp)
    rows[used] = [row[e.iri, e.kind] for e in refs]
    return tuple(by_fields[f] for f in row), rows[ids]


def _pairs(lexi: LexIndex, value_rows: np.ndarray
           ) -> tuple[np.ndarray, np.ndarray]:
    """Word ids and entity rows of all pairs: entry, key word, value
    entity."""
    key_sizes = np.diff(lexi.key_ptr)
    runs = np.repeat(np.diff(lexi.value_ptr), key_sizes)  # per key word
    # pair p of a key word's run is entity p of its entry's value run
    first = np.repeat(lexi.value_ptr[:-1], key_sizes) \
        - (np.cumsum(runs) - runs)
    return (np.repeat(lexi.key_words, runs),
            value_rows[np.arange(runs.sum()) + np.repeat(first, runs)])


@dataclass(frozen=True)
class EmbeddingSpace:
    words: tuple[str, ...]
    entities: tuple[EntityRef, ...]
    word_matrix: FloatArray    # (len(words), dim)
    entity_matrix: FloatArray  # (len(entities), dim)
    epoch_losses: tuple[float, ...] = ()

    @property
    def dim(self) -> int:
        return self.word_matrix.shape[1]

    @cached_property
    def word_index(self) -> dict[str, int]:
        return {w: i for i, w in enumerate(self.words)}

    @cached_property
    def entity_index(self) -> dict[EntityRef, int]:
        return {e: i for i, e in enumerate(self.entities)}

    def word_vector(self, word: str) -> FloatArray:
        if word not in self.word_index:
            raise KeyError(f"no vector for word {word!r}")
        return self.word_matrix[self.word_index[word]]

    def entity_vector(self, entity: EntityRef) -> FloatArray:
        if entity not in self.entity_index:
            raise KeyError(f"no vector for entity {entity.iri!r}")
        return self.entity_matrix[self.entity_index[entity]]


def similarity(a: FloatArray, b: FloatArray) -> float:
    """Dot product; strict about matching lengths."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(a @ b)


def positive_pairs(lexi: LexIndex) -> list[tuple[str, EntityRef]]:
    """(word, entity) pairs of the index, in the order training uses."""
    entities, value_rows = _value_rows(lexi)
    pair_w, pair_e = _pairs(lexi, value_rows)
    return [(lexi.words[w], entities[e])
            for w, e in zip(pair_w.tolist(), pair_e.tolist())]


# pairs per SGD step; colliding updates within a batch sum.  On the
# benchmark pairs 256 kept planted coverage within 0.02 and size ratio within
# 5 % of one-pair steps; 1024 raised the size ratio by 13-17 %.
_BATCH = 256
_MAX_NORM = 10.0


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
    """Per-pair gradient of `batch_loss` w.r.t. v_w (b, d), and coefficients.

    With c = (-k, [gap_1 > 0], ..., [gap_j > 0]) per pair, k the number of
    violated margins, the gradient is c . v_cand for v_w and c_i v_w for
    v_cand[i]; c is returned as a (b, 1 + j) array.
    """
    viol = gaps > 0
    c = np.empty(v_cand.shape[:2])
    c[:, 0] = -viol.sum(axis=1)
    c[:, 1:] = viol
    return (c[:, None, :] @ v_cand)[:, 0], c


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
    g_w, c = batch_gradients(w, cand, batch_gaps(w, cand, margin))
    return g_w[0], c[0, 0] * v_w, c[0, 1:, None] * v_w


def _flat_rows(rows: np.ndarray, d: int) -> np.ndarray:
    """Indices into `matrix.reshape(-1)` of every element of `rows`.

    `np.add.at(matrix, rows, steps)` adds the same bits, but numpy 2.4
    scatters whole rows about 3x slower than this flat index of elements
    (2.9 against 0.8 ms for 2,816 rows at d = 64).
    """
    return (rows[:, None] * d + np.arange(d)).reshape(-1)


def _diverged(what: str) -> ValueError:
    """The error of a run whose settings are too large for its input."""
    return ValueError(f"non-finite {what}; lower the learning rate or the "
                      "margin")


def _project(matrix: FloatArray, rows: np.ndarray, max_norm: float) -> None:
    """Rescale the given rows whose norm exceeds max_norm onto the ball."""
    # a mask dedupes the rows faster than np.unique's hash table
    touched = np.zeros(len(matrix), dtype=bool)
    touched[rows] = True
    rows = np.flatnonzero(touched)
    block = matrix.take(rows, axis=0)
    # no norm exceeds max|x| sqrt(d), and none below 1e150 overflows; the
    # margin covers rounding.  A NaN fails this test, and passes below.
    bound = np.abs(block).max() * math.sqrt(matrix.shape[1]) * (1 + 1e-9)
    if bound < max_norm and bound < 1e150:
        return
    norms = np.linalg.norm(block, axis=1)
    if np.isinf(norms).any():  # scaling by max_norm / inf would zero the row
        raise _diverged("embedding norm")
    over = norms > max_norm
    matrix[rows[over]] *= (max_norm / norms[over])[:, None]


# a run that overflows ends in the `_diverged` error; numpy's warnings
# would only print lines before it
@np.errstate(over="ignore", invalid="ignore")
def train_embeddings(lexi: LexIndex, cfg: DivisionConfig) -> EmbeddingSpace:
    """Mini-batch SGD over positive pairs with sampled negatives.

    Vectors start uniform in [-1/d, 1/d].  Every epoch reshuffles the pairs
    and walks them in batches of `_BATCH`; each batch takes one step whose
    gradients come from the parameters as they stand at its start, with
    updates to the same row summed in (pair, candidate) order; an entity
    row moves only for a violated margin.  Each pair keeps its own learning
    rate, decayed linearly to zero over all pairs of all epochs.  Fully
    deterministic given `cfg.seed`, used as given.  Reads the embedding
    settings and the seed of `cfg` only.
    """
    entities, multiset = _value_rows(lexi)
    pair_w, pair_e = _pairs(lexi, multiset)
    if not len(pair_w):
        raise ValueError("cannot train on an empty index")

    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim
    bound = 1.0 / d
    W = rng.uniform(-bound, bound, size=(len(lexi.words), d))
    E = rng.uniform(-bound, bound, size=(len(entities), d))
    flat_w = W.reshape(-1)
    flat_e = E.reshape(-1)

    total_steps = cfg.epochs * len(pair_w)
    step = 0
    losses: list[float] = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pair_w))
        epoch_loss = 0.0
        for start in range(0, len(pair_w), _BATCH):
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
            g_w, c = batch_gradients(v_w, v_cand, gaps)
            del v_cand, gaps
            neg_lr = -lr
            g_w *= neg_lr
            np.add.at(flat_w, _flat_rows(wi, d), g_w.reshape(-1))
            # candidate k of pair i moves by (c[i, k] v_w[i]) * -lr[i]; a
            # violated negative's c is 1.  Cells with c = 0 are skipped, which
            # leaves each row's sum, in order, as the dense scatter's.  (Built
            # after `del v_cand` and before the index: keeping v_cand, or the
            # other order, raised the sweep benchmark's peak RSS by 1 MiB.)
            hit = np.flatnonzero(c)
            pair, k = np.divmod(hit, 1 + cfg.negatives)
            steps = v_w[pair]
            first = k == 0
            steps[first] *= c[pair[first], :1]
            steps *= neg_lr[pair]
            np.add.at(flat_e, _flat_rows(rows[hit], d), steps.reshape(-1))
            _project(W, wi, _MAX_NORM)
            _project(E, rows, _MAX_NORM)
        losses.append(epoch_loss)
        # overflowing dot products give NaN gaps while W and E stay finite
        if not (math.isfinite(epoch_loss) and np.isfinite(W).all()
                and np.isfinite(E).all()):
            raise _diverged(f"embedding values after epoch {epoch}")
    W.flags.writeable = E.flags.writeable = False
    return EmbeddingSpace(lexi.words, entities, W, E, tuple(losses))


# bytes of one gathered block of rows in `_segment_means`
_GATHER_BYTES = 1 << 18


def _segment_means(matrix: FloatArray, ids: np.ndarray, sizes: np.ndarray,
                   out: FloatArray) -> None:
    """out[i] = mean of the rows `matrix[ids]` over the i-th consecutive run
    of `sizes`.

    Runs of one length are averaged as (count, length, d) blocks of at most
    about `_GATHER_BYTES`, row by row as `np.mean` over one run does:
    bit-identical, unlike reduceat.
    """
    starts = np.cumsum(sizes) - sizes
    row_bytes = matrix.shape[1] * matrix.itemsize
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == size)
        step = max(1, _GATHER_BYTES // max(1, size * row_bytes))
        for lo in range(0, len(rows), step):
            block = rows[lo:lo + step]
            out[block] = matrix[ids[starts[block, None]
                                    + np.arange(size)]].mean(1)


def entry_vectors(lexi: LexIndex, space: EmbeddingSpace) -> FloatArray:
    """Row i: key-word mean, then value-entity mean of entry i."""
    entities, value_rows = _value_rows(lexi)
    if space.words != lexi.words or space.entities != entities:
        raise ValueError("embedding space does not match the index")
    d = space.dim
    out = np.empty((len(lexi), 2 * d))
    _segment_means(space.word_matrix, np.asarray(lexi.key_words),
                   np.diff(lexi.key_ptr), out[:, :d])
    _segment_means(space.entity_matrix, value_rows, np.diff(lexi.value_ptr),
                   out[:, d:])
    return out
