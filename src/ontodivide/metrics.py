"""Quality measures for alignments and task divisions.

Precision/recall/F over mapping sets, search-space size ratios for
subtasks and whole divisions, coverage of an alignment by a division, and
the union of partial alignments.  All functions are pure and operate on
immutable inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from .lexindex import Mapping
from .ontology import Ontology

if TYPE_CHECKING:  # only for type hints; no runtime dependency
    from .division import Division, MatchingTask


@dataclass(frozen=True)
class Alignment:
    """A set of mappings between a source and a target ontology.

    Set semantics: mappings that agree on (e1, e2, relation) are one
    mapping, whatever their confidences.
    """

    mappings: frozenset[Mapping]

    def __len__(self) -> int:
        return len(self.mappings)


def precision_recall_f(ms: Alignment, mra: Alignment
                       ) -> tuple[float, float, float]:
    """Precision, recall and F-measure of `ms` against reference `mra`.

    Empty `ms` scores (0, 0, 0); an empty reference is an error.  A mapping
    counts as correct only when the relation matches exactly.
    """
    if not mra.mappings:
        raise ValueError("reference alignment is empty")
    common = len(ms.mappings & mra.mappings)
    precision = common / len(ms.mappings) if ms.mappings else 0.0
    recall = common / len(mra.mappings)
    f = 2 * precision * recall / (precision + recall) \
        if precision + recall > 0 else 0.0
    return precision, recall, f


def size_ratio_task(sub: "MatchingTask",
                    orig: tuple[Ontology, Ontology]) -> float:
    """Subtask search space relative to the original Cartesian product."""
    s1 = len(orig[0].signature)
    s2 = len(orig[1].signature)
    if s1 == 0 or s2 == 0:
        raise ValueError("empty signature")
    return (len(sub.source.signature) * len(sub.target.signature)) / (s1 * s2)


def size_ratio_division(div: "Division",
                        orig: tuple[Ontology, Ontology]) -> float:
    """Sum of per-task ratios; may exceed 1.0 since subtasks can overlap."""
    return sum(size_ratio_task(t, orig) for t in div.subtasks)


def coverage(task: "MatchingTask", m: Alignment) -> frozenset[Mapping]:
    """Mappings of `m` whose two entities fall inside the task signatures."""
    sig1 = task.source.entity_by_iri
    sig2 = task.target.entity_by_iri
    return frozenset(mp for mp in m.mappings
                     if mp.e1.iri in sig1 and mp.e2.iri in sig2)


def _covered(div: "Division", m: Alignment) -> frozenset[Mapping]:
    return frozenset().union(*(coverage(task, m) for task in div.subtasks))


def coverage_ratio(div: "Division", m: Alignment) -> float:
    """Fraction of `m` covered by at least one subtask."""
    if not m.mappings:
        raise ValueError("reference alignment is empty")
    return len(_covered(div, m)) / len(m.mappings)


def uncovered_mappings(div: "Division", m: Alignment) -> list[Mapping]:
    return sorted(m.mappings - _covered(div, m), key=lambda mp: mp.key)


def union_alignments(parts: Iterable[Alignment]) -> Alignment:
    """Set union of partial alignments; duplicates keep the max confidence."""
    best: dict[tuple[str, str, str], Mapping] = {}
    for part in parts:
        for mp in part.mappings:
            prior = best.get(mp.key)
            if prior is None or mp.confidence > prior.confidence:
                best[mp.key] = mp
    return Alignment(frozenset(best.values()))
