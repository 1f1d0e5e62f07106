"""Seeded synthetic ontology pair with a planted reference alignment.

Both sides draw their labels from one Zipf-skewed vocabulary of made-up
words.  A share of the classes are planted gold pairs: the target class
gets the source label with its words shuffled and, sometimes, one word
swapped for another vocabulary word, or, more rarely, an unrelated label
(a synonym no lexical index can find).  The two class hierarchies are drawn
independently, as are the ``part_of`` existentials that make locality
modules non-trivial.  The same parameters and seed give byte-identical
files.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aiou"


@dataclass(frozen=True)
class PairSpec:
    """Generator parameters of one workload's ontology pair."""

    source_classes: int
    target_classes: int
    vocabulary: int          # distinct label words shared by both sides
    zipf: float              # word-frequency exponent
    label_words: tuple[int, int]  # min and max words per label
    gold_share: float        # share of the smaller side that is planted
    swap_share: float        # share of gold labels with one word swapped
    synonym_share: float     # share of gold labels replaced by a fresh one
    branching: int           # children per class in the is-a tree
    part_of_share: float     # share of classes with a part_of existential


def _vocabulary(rng: random.Random, size: int) -> list[str]:
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < size:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS)
                       for _ in range(rng.randint(3, 4)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def _label(rng: random.Random, vocab: list[str], cum: list[float],
           spec: PairSpec) -> list[str]:
    size = rng.randint(*spec.label_words)
    words: list[str] = []
    while len(words) < size:
        w = rng.choices(vocab, cum_weights=cum)[0]
        if w not in words:
            words.append(w)
    return words


def _paraphrase(rng: random.Random, words: list[str], vocab: list[str],
                cum: list[float], spec: PairSpec) -> list[str]:
    if rng.random() < spec.synonym_share:
        return _label(rng, vocab, cum, spec)
    out = list(words)
    rng.shuffle(out)
    if rng.random() < spec.swap_share:
        while True:
            w = rng.choices(vocab, cum_weights=cum)[0]
            if w not in out:
                break
        out[rng.randrange(len(out))] = w
    return out


def _structure(rng: random.Random, count: int,
               spec: PairSpec) -> list[tuple[str, int, int]]:
    """(kind, child, parent) edges of an acyclic random hierarchy.

    Classes are shuffled into the slots of a complete tree with
    `branching` children per node, so every seed gives the same depth
    profile; a `part_of` filler is any class of a shallower level.
    """
    order = list(range(count))
    rng.shuffle(order)
    edges: list[tuple[str, int, int]] = []
    level_start = 0  # first slot of the current slot's level
    next_level = 1
    for slot in range(1, count):
        if slot == next_level:
            level_start, next_level = slot, slot * spec.branching + 1
        child = order[slot]
        edges.append(("is_a", child, order[(slot - 1) // spec.branching]))
        if rng.random() < spec.part_of_share:
            edges.append(("part_of", child, order[rng.randrange(level_start)]))
    return edges


def _ofn(prefix: str, labels: list[list[str]],
         edges: list[tuple[str, int, int]]) -> str:
    lines = [f"Prefix(:=<{prefix}#>)", f"Ontology(<{prefix}>"]
    lines.extend(f"Declaration(Class(:C{i:05d}))" for i in range(len(labels)))
    lines.append("Declaration(ObjectProperty(:part_of))")
    for kind, child, parent in edges:
        if kind == "is_a":
            lines.append(f"SubClassOf(:C{child:05d} :C{parent:05d})")
        else:
            lines.append(f"SubClassOf(:C{child:05d} "
                         f"ObjectSomeValuesFrom(:part_of :C{parent:05d}))")
    lines.extend(f'AnnotationAssertion(rdfs:label :C{i:05d} "{" ".join(ws)}")'
                 for i, ws in enumerate(labels))
    lines.append(")")
    return "\n".join(lines) + "\n"


SOURCE_PREFIX = "http://bench.example.org/source"
TARGET_PREFIX = "http://bench.example.org/target"


def generate(spec: PairSpec, seed: int) -> tuple[str, str, str]:
    """Source `.ofn`, target `.ofn` and reference-alignment TSV texts."""
    rng = random.Random(seed)
    vocab = _vocabulary(rng, spec.vocabulary)
    cum = list(accumulate(1.0 / (k + 1) ** spec.zipf
                          for k in range(len(vocab))))
    src = [_label(rng, vocab, cum, spec) for _ in range(spec.source_classes)]
    tgt = [_label(rng, vocab, cum, spec) for _ in range(spec.target_classes)]
    planted = round(spec.gold_share * min(len(src), len(tgt)))
    gold = list(zip(rng.sample(range(len(src)), planted),
                    rng.sample(range(len(tgt)), planted)))
    for i, j in gold:
        tgt[j] = _paraphrase(rng, src[i], vocab, cum, spec)
    src_edges = _structure(rng, len(src), spec)
    tgt_edges = _structure(rng, len(tgt), spec)
    reference = "".join(f"{SOURCE_PREFIX}#C{i:05d}\t{TARGET_PREFIX}#C{j:05d}"
                        "\t=\t1.0\n" for i, j in sorted(gold))
    return (_ofn(SOURCE_PREFIX, src, src_edges),
            _ofn(TARGET_PREFIX, tgt, tgt_edges), reference)


def write_pair(spec: PairSpec, seed: int, out_dir: Path) -> tuple[Path, Path, Path]:
    """Write `source.ofn`, `target.ofn` and `reference.tsv` into `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = (out_dir / "source.ofn", out_dir / "target.ofn",
             out_dir / "reference.tsv")
    for path, text in zip(paths, generate(spec, seed)):
        path.write_text(text, encoding="utf-8")
    return paths
