"""Workload definitions: generator parameters, division settings and why.

Each workload is one seeded ontology pair (see `gen.PairSpec`), the list
of subtask counts `n` that one run divides it into, and the
`DivisionConfig` fields that differ from the library defaults.  The
generator seed is the benchmark's `--seed`; the division seed is fixed
here, so one benchmark seed always gives one input and one expected output.

Sizes are chosen so that one repetition (a fresh process doing
parse → divide → write → read → coverage) takes a few seconds on a
2-core machine, which lets a run of `run_seconds` take the median of
several repetitions.
"""

from __future__ import annotations

from dataclasses import dataclass

from gen import PairSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pair: PairSpec
    ns: tuple[int, ...]
    config: dict[str, object]


WORKLOADS = {w.name: w for w in (
    Workload(
        name="anatomy-n10",
        why="Dense Zipf vocabulary, n=10, 2 epochs: embedding training "
            "dominates, locality is small; where an SGD speed-up must show.",
        pair=PairSpec(source_classes=700, target_classes=850,
                      vocabulary=700, zipf=1.0, label_words=(2, 4),
                      gold_share=0.5, swap_share=0.3, synonym_share=0.05,
                      branching=6, part_of_share=0.1),
        ns=(10,),
        config={"seed": 0, "epochs": 2},
    ),
    Workload(
        name="sweep-n5-100",
        why="Sparse vocabulary, deep is-a/part_of, one parse then n=5..100: "
            "modules and read-back dominate; index and training are redone "
            "for every n.",
        pair=PairSpec(source_classes=320, target_classes=320,
                      vocabulary=4000, zipf=0.5, label_words=(2, 3),
                      gold_share=0.6, swap_share=0.3, synonym_share=0.05,
                      branching=2, part_of_share=0.2),
        ns=(5, 10, 20, 50, 100),
        config={"seed": 0, "epochs": 1},
    ),
    # not in BENCHMARK.json: a pair small enough for selftest.py
    Workload(
        name="smoke",
        why="Tiny pair for the benchmark's own self-test.",
        pair=PairSpec(source_classes=60, target_classes=60, vocabulary=60,
                      zipf=1.0, label_words=(2, 3), gold_share=0.5,
                      swap_share=0.3, synonym_share=0.1, branching=2,
                      part_of_share=0.2),
        ns=(2, 3),
        config={"seed": 0, "epochs": 1},
    ),
)}
