"""Inverted lexical index linking two ontologies through shared label words.

Keys are canonical (sorted) tuples of stemmed words; values collect the
entities of each ontology whose labels contain those words.  Entries that
touch only one ontology, or that fan out to more than ``alpha`` entities,
are dropped.  Retained entries are the source of candidate mappings.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterable, Mapping as MappingT

from .errors import check_int
from .ontology import EntityRef, Ontology, entity_labels
from .stemming import porter_stem

if TYPE_CHECKING:
    from .embedding import IndexEncoding

LexKey = tuple[str, ...]

EQUIVALENCE = "="
SUBSUMED_BY = "<"
SUBSUMES = ">"
RELATIONS = (EQUIVALENCE, SUBSUMED_BY, SUBSUMES)

_TOKEN_SPLIT = re.compile(r"[^0-9A-Za-z]+")


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
    keys: list[LexKey] = []
    for size in range(n, max(1, n - 2) - 1, -1):
        for combo in combinations(ordered, size):
            keys.append(combo)
            if len(keys) == max_subsets:
                return keys
    return keys


@dataclass(frozen=True)
class LexValue:
    entities1: frozenset[EntityRef]
    entities2: frozenset[EntityRef]

    def __len__(self) -> int:
        return len(self.entities1) + len(self.entities2)


@dataclass(frozen=True)
class IndexStats:
    raw_entries: int
    kept_entries: int
    dropped_single_side: int
    dropped_over_alpha: int


@dataclass(frozen=True)
class LexConfig:
    alpha: int = 60
    max_subsets: int = 50

    def __post_init__(self):
        check_int("alpha", self.alpha)
        if self.alpha < 2:  # an entry holds an entity of each ontology
            raise ValueError("alpha must be >= 2")
        check_int("max_subsets", self.max_subsets)
        if self.max_subsets < 1:
            raise ValueError("max_subsets must be >= 1")


@dataclass(frozen=True)
class LexIndex:
    entries: MappingT[LexKey, LexValue]
    alpha: int
    stats: IndexStats

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def sorted_entries(self) -> tuple[tuple[LexKey, LexValue], ...]:
        return tuple(sorted(self.entries.items()))

    @cached_property
    def encoding(self) -> IndexEncoding:
        from .embedding import encode_index  # numpy is loaded there
        return encode_index(self)


def build_lexi(o1: Ontology, o2: Ontology,
               cfg: LexConfig | None = None) -> LexIndex:
    """Index both ontologies and keep entries that span the two of them."""
    if cfg is None:
        cfg = LexConfig()
    accum: dict[LexKey, tuple[set[EntityRef], set[EntityRef]]] = {}
    # labels repeat their words, so each distinct token is stemmed once per
    # build; not across builds, so every build costs what a fresh one does
    stem = _Stems().__getitem__
    for side, onto in ((0, o1), (1, o2)):
        for ent in onto.signature:  # entities go into sets; order unseen
            for label in entity_labels(onto, ent):
                words = normalize_label(label, _STOPWORDS, stem)
                if not words:
                    continue
                for key in word_subsets(words, cfg.max_subsets):
                    accum.setdefault(key, (set(), set()))[side].add(ent)

    entries: dict[LexKey, LexValue] = {}
    dropped_single = dropped_alpha = 0
    for key in sorted(accum):
        s1, s2 = accum[key]
        if not s1 or not s2:
            dropped_single += 1
            continue
        if len(s1) + len(s2) > cfg.alpha:
            dropped_alpha += 1
            continue
        entries[key] = LexValue(frozenset(s1), frozenset(s2))
    stats = IndexStats(raw_entries=len(accum), kept_entries=len(entries),
                       dropped_single_side=dropped_single,
                       dropped_over_alpha=dropped_alpha)
    return LexIndex(entries, cfg.alpha, stats)


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


_set_e1, _set_e2, _set_relation, _set_confidence = (
    Mapping.e1.__set__, Mapping.e2.__set__, Mapping.relation.__set__,
    Mapping.confidence.__set__)


def mappings_of(entries: Iterable[tuple[LexKey, LexValue]]
                ) -> frozenset[Mapping]:
    """Candidate mappings suggested by a subset of index entries."""
    # one `Mapping` per IRI pair, of the first entity pair met, as adding
    # each pair's `Mapping` to a set would keep
    pairs: dict[tuple[str, str], tuple[EntityRef, EntityRef]] = {}
    for _, value in entries:
        for e1 in value.entities1:
            for e2 in value.entities2:
                pairs.setdefault((e1.iri, e2.iri), (e1, e2))
    return frozenset([Mapping(e1, e2) for e1, e2 in pairs.values()])


def all_candidate_mappings(lexi: LexIndex) -> frozenset[Mapping]:
    return mappings_of(lexi.sorted_entries)
