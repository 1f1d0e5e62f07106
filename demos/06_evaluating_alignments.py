"""Quality measures: precision/recall/F and the union of partial alignments.

When a matcher runs on each subtask separately it produces partial
alignments; their set union is the final alignment for the original task,
evaluated against a reference with the usual P/R/F measures.
"""

import json

from ontodivide import (Alignment, EntityRef, Mapping, precision_recall_f,
                        union_alignments)

NS1 = "http://example.org/mouse-anatomy#"
NS2 = "http://example.org/human-anatomy#"


def m(a, b, confidence=1.0):
    return Mapping(EntityRef(NS1 + a), EntityRef(NS2 + b),
                   confidence=confidence)


reference = Alignment(frozenset({
    m("Heart", "Heart"), m("Lung", "Lung"), m("Kidney", "Kidney"),
    m("Femur", "Femur"), m("Brain", "Brain"),
}))

# Three per-subtask alignments; they overlap and disagree on confidence.
parts = [
    Alignment(frozenset({m("Heart", "Heart", 0.9), m("Lung", "Lung", 0.8)})),
    Alignment(frozenset({m("Lung", "Lung", 0.95),
                         m("Kidney", "Kidney", 0.7)})),
    Alignment(frozenset({m("Femur", "Femur", 0.6),
                         m("Skull", "Trachea", 0.4)})),  # a wrong one
]

merged = union_alignments(parts)
print(f"union of {len(parts)} partial alignments: "
      f"{len(merged.mappings)} mappings")
for mp in sorted(merged.mappings, key=lambda x: x.key):
    print(f"  {mp.e1.iri.rsplit('#', 1)[1]:8s} -> "
          f"{mp.e2.iri.rsplit('#', 1)[1]:8s} confidence={mp.confidence}")

precision, recall, f_measure = precision_recall_f(merged, reference)
print()
print(f"P = {precision:.3f}")
print(f"R = {recall:.3f}")
print(f"F = {f_measure:.3f}")

# `ontodivide eval --report` writes the same three figures.
report = {"precision": precision, "recall": recall, "f_measure": f_measure}
print()
print("report JSON:")
print(json.dumps(report, indent=2, sort_keys=True))
