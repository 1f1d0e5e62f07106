"""Inverted lexical index linking two ontologies through shared label words.

Keys are canonical (sorted) tuples of stemmed words; values collect the
entities of each ontology whose labels contain those words.  Entries that
touch only one ontology, or that fan out to more than ``alpha`` entities,
are dropped.  Retained entries are the source of candidate mappings.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources
from itertools import accumulate, chain, combinations, islice, product
from operator import attrgetter
from typing import Callable, Iterable

from .config import DivisionConfig
from .ontology import EntityRef, Ontology, _setters
from .stemming import porter_stem

LexKey = tuple[str, ...]

EQUIVALENCE = "="
SUBSUMED_BY = "<"
SUBSUMES = ">"
RELATIONS = (EQUIVALENCE, SUBSUMED_BY, SUBSUMES)

_TOKEN_SPLIT = re.compile(r"[^0-9A-Za-z]+")
_REF_ORDER = attrgetter("iri", "kind")  # the order of refs, as a C key
_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def iri_fragment(iri: str) -> str:
    if "#" in iri:
        return iri.rsplit("#", 1)[1]
    return iri.rsplit("/", 1)[-1]


def fragment_label(iri: str) -> str:
    """Human-readable label from an IRI fragment.

    Underscores and camel-case boundaries become spaces, e.g.
    ``Lunate_facet_of_hamate`` -> "Lunate facet of hamate" and
    ``PregnancyDisorder`` -> "Pregnancy Disorder".
    """
    text = _CAMEL_BOUNDARY.sub(" ", iri_fragment(iri))
    text = text.replace("_", " ")
    return " ".join(text.split())


def entity_labels(onto: Ontology, entity: EntityRef) -> list[str]:
    """Label literals for an entity, in axiom order; IRI fragment fallback."""
    if entity not in onto.signature:
        raise ValueError(f"entity not in signature: {entity.iri}")
    found = onto._label_map.get(entity)
    if found:
        return list(found)
    return [fragment_label(entity.iri)]


def load_default_stopwords() -> frozenset[str]:
    text = resources.files("ontodivide.data").joinpath("stopwords.txt") \
        .read_text(encoding="utf-8")
    return frozenset(line.strip() for line in text.splitlines()
                     if line.strip() and not line.startswith("#"))


_STOPWORDS = load_default_stopwords()


def normalize_label(label: str, stopwords: frozenset[str],
                    stem: Callable[[str], str] = porter_stem
                    ) -> frozenset[str]:
    """Split on non-alphanumerics, lower-case, drop stop-words, stem."""
    tokens = {t.lower() for t in _TOKEN_SPLIT.split(label) if t}
    return frozenset(stem(t) for t in tokens if t not in stopwords)


class _Stems(dict):
    """Token -> Porter stem, each token stemmed on its first lookup."""

    def __missing__(self, token: str) -> str:
        self[token] = stem = porter_stem(token)
        return stem


def word_subsets(words: Iterable[str], max_subsets: int) -> list[LexKey]:
    """Subset keys of a label's word set.

    Emits subsets of size |words| down to max(1, |words| - 2), each size in
    lexicographic order, truncated to ``max_subsets`` keys.
    """
    ordered = sorted(set(words))
    if not ordered:
        raise ValueError("word set must be non-empty")
    if max_subsets < 1:
        raise ValueError("max_subsets must be >= 1")
    n = len(ordered)
    return list(islice(chain.from_iterable(
        combinations(ordered, size)
        for size in range(n, max(1, n - 2) - 1, -1)), max_subsets))


@dataclass(frozen=True)
class IndexStats:
    raw_entries: int
    kept_entries: int
    dropped_single_side: int
    dropped_over_alpha: int


@dataclass(frozen=True)
class LexIndex:
    """The kept entries, in key order, as integer arrays.

    A word id is a position in `words`, the sorted words of the kept keys.
    An entity id is a position in `entities`: the source ontology's sorted
    signature, then the target's, so the source's ids are those below
    `n_source`.  Entry i's key is `key_words[key_ptr[i]:key_ptr[i + 1]]`;
    its value is `value_ids[value_ptr[i]:value_ptr[i + 1]]`, the ascending
    ids of its source entities, then those of its target entities.
    """

    alpha: int
    stats: IndexStats
    words: tuple[str, ...]
    entities: tuple[EntityRef, ...]
    n_source: int
    key_ptr: array
    key_words: array
    value_ptr: array
    value_ids: array

    def __len__(self) -> int:
        return len(self.key_ptr) - 1

    def mappings(self, entry_ids: Iterable[int]) -> frozenset[Mapping]:
        """The candidate mappings of the entries `entry_ids`: one
        `Mapping` per pair of a source and a target entity of one entry."""
        ptr, ids = self.value_ptr, self.value_ids
        pairs: set[tuple[int, int]] = set()
        for i in entry_ids:
            lo, hi = ptr[i], ptr[i + 1]
            mid = bisect_left(ids, self.n_source, lo, hi)  # source ids first
            pairs.update(product(ids[lo:mid], ids[mid:hi]))
        # one IRI names one entity of an ontology, so one id pair is one
        # IRI pair
        ents = self.entities
        return frozenset([Mapping(ents[a], ents[b]) for a, b in pairs])


def build_lexi(o1: Ontology, o2: Ontology,
               cfg: DivisionConfig | None = None) -> LexIndex:
    """Index both ontologies and keep entries that span the two of them.

    Reads `cfg.alpha` and `cfg.max_subsets` only.
    """
    if cfg is None:
        cfg = DivisionConfig()
    entities: list[EntityRef] = []
    postings: dict[LexKey, list[int]] = {}  # key -> ascending entity ids
    # labels repeat their words, so each distinct token is stemmed once per
    # build; not across builds, so every build costs what a fresh one does
    stem = _Stems().__getitem__
    for onto in (o1, o2):
        for ent in sorted(onto.signature, key=_REF_ORDER):
            i = len(entities)
            entities.append(ent)
            for label in entity_labels(onto, ent):
                words = normalize_label(label, _STOPWORDS, stem)
                if not words:
                    continue
                for key in word_subsets(words, cfg.max_subsets):
                    ids = postings.get(key)
                    if ids is None:
                        postings[key] = [i]
                    elif ids[-1] != i:  # a key of two labels counts once
                        ids.append(i)

    n_source = len(o1.signature)
    spanning = [key for key in sorted(postings)
                if postings[key][0] < n_source <= postings[key][-1]]
    kept = [key for key in spanning if len(postings[key]) <= cfg.alpha]
    values = list(map(postings.__getitem__, kept))
    words = sorted({w for key in kept for w in key})
    word_id = {w: i for i, w in enumerate(words)}
    stats = IndexStats(len(postings), len(kept), len(postings) - len(spanning),
                       len(spanning) - len(kept))
    return LexIndex(
        cfg.alpha, stats, tuple(words), tuple(entities), n_source,
        array("q", accumulate(map(len, kept), initial=0)),
        array("q", [word_id[w] for key in kept for w in key]),
        array("q", accumulate(map(len, values), initial=0)),
        array("q", chain.from_iterable(values)))


@dataclass(frozen=True, eq=False, slots=True, init=False)
class Mapping:
    """Candidate or asserted correspondence between two entities.

    Identity (equality/hashing) is the (e1 IRI, e2 IRI, relation) triple;
    confidence never participates in set semantics.
    """

    e1: EntityRef
    e2: EntityRef
    relation: str = EQUIVALENCE
    confidence: float = 1.0

    def __init__(self, e1: EntityRef, e2: EntityRef,
                 relation: str = EQUIVALENCE, confidence: float = 1.0):
        # what the generated `__init__` and a `__post_init__` would do, but
        # each slot is set through its descriptor, not `object.__setattr__`;
        # a confidence in range is kept as the float it equals
        if relation not in RELATIONS:
            raise ValueError(f"relation must be one of {RELATIONS}")
        if not 0.0 < confidence <= 1.0:
            raise ValueError("confidence must be in (0, 1]")
        _set_e1(self, e1)
        _set_e2(self, e2)
        _set_relation(self, relation)
        _set_confidence(self, float(confidence))

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.e1.iri, self.e2.iri, self.relation)

    def __eq__(self, other):
        return isinstance(other, Mapping) and self.key == other.key

    def __hash__(self):
        return hash((self.e1.iri, self.e2.iri, self.relation))


_set_e1, _set_e2, _set_relation, _set_confidence = _setters(Mapping)


def all_candidate_mappings(lexi: LexIndex) -> frozenset[Mapping]:
    return lexi.mappings(range(len(lexi)))
