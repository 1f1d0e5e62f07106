"""The written bits of a division match committed digests.

Criterion 8 and the hash-seed test compare two runs of the same code;
these compare a run against the bits of the commit that last changed the
output, so a change that alters them fails here.  The smoke pair's
k-means labels and entry vectors have digests of their own, so that a
failure names the stage that changed.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from digests import (SMOKE, SMOKE_LABELS, SMOKE_SEED, SMOKE_VECTORS, TOY,
                     TOY_CAPPED, TOY_CAPPED_CONFIG, array_digest,
                     division_digest)
from ontodivide import (DivisionConfig, divide, kmeans, parse_ontology,
                        write_division)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def smoke():
    """The benchmark's smoke pair, its workload and its config; the
    generator is imported without writing bytecode under perfbench/."""
    sys.path.insert(0, str(PERFBENCH))
    bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        from gen import generate
        from workloads import WORKLOADS
    finally:
        sys.dont_write_bytecode = bytecode
        sys.path.remove(str(PERFBENCH))
    workload = WORKLOADS["smoke"]
    source, target, _ = generate(workload.pair, SMOKE_SEED)
    return (parse_ontology(source), parse_ontology(target), workload.ns,
            DivisionConfig(**workload.config))


@pytest.mark.parametrize("n", sorted(TOY))
def test_toy_division(toy_pair, n, tmp_path):
    write_division(divide(*toy_pair, n), toy_pair, tmp_path)
    assert division_digest(tmp_path) == TOY[n]


def test_toy_division_at_the_norm_cap(toy_pair, tmp_path):
    cfg = DivisionConfig(**TOY_CAPPED_CONFIG)
    write_division(divide(*toy_pair, 2, cfg), toy_pair, tmp_path)
    assert division_digest(tmp_path) == TOY_CAPPED


def test_smoke_division(smoke, tmp_path):
    o1, o2, ns, cfg = smoke
    assert tuple(sorted(SMOKE)) == ns
    for n in ns:
        write_division(divide(o1, o2, n, cfg), (o1, o2), tmp_path / str(n))
    assert {n: division_digest(tmp_path / str(n)) for n in ns} == SMOKE


def test_smoke_stages(smoke):
    """The entry vectors `divide` kept, and the labels of k-means on them
    with the seed `divide` derives."""
    o1, o2, ns, cfg = smoke
    divide(o1, o2, ns[0], cfg)
    points = vars(o1)["_division_memo"].points
    assert array_digest(points) == SMOKE_VECTORS
    km_seq = np.random.SeedSequence(cfg.seed).spawn(2)[1]
    km_seed = int(km_seq.generate_state(1, np.uint64)[0])
    labels = {n: array_digest(kmeans(points, n, km_seed,
                                     cfg.kmeans_max_iters).labels
                              .astype("<i8")) for n in ns}
    assert labels == SMOKE_LABELS


def test_digest_leaves_out_provenance_only(tmp_path):
    (tmp_path / "task_0").mkdir()
    (tmp_path / "task_0" / "candidates.tsv").write_bytes(b"a\tb\t=\t1.0\n")
    meta = tmp_path / "division.json"
    meta.write_text('{\n  "n": 1,\n  "provenance": {"seed": 0}\n}\n')
    digest = division_digest(tmp_path)
    meta.write_text('{\n  "n": 1,\n  "provenance": {"seed": 1}\n}\n')
    assert division_digest(tmp_path) == digest
    meta.write_text('{\n  "n": 2,\n  "provenance": {"seed": 0}\n}\n')
    assert division_digest(tmp_path) != digest
