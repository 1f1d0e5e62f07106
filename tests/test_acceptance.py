"""Acceptance suite: one test per release criterion, at stated tolerances.

Each test registers a PASS/SKIP line that the conftest terminal-summary
hook prints as a one-line-per-criterion report at the end of the run.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import load_toy_text
from oracles import (is_local, random_ontology, random_signature,
                     semantically_local)

from ontodivide.cli import main
from ontodivide.clustering import kmeans
from ontodivide.division import Division, DivisionConfig, MatchingTask, divide
from ontodivide.embedding import hinge_gradients, hinge_loss
from ontodivide.lexindex import Mapping, all_candidate_mappings, build_lexi
from ontodivide.locality import context_of, extract_module
from ontodivide.metrics import (Alignment, coverage_ratio,
                                precision_recall_f, size_ratio_division,
                                size_ratio_task)
from ontodivide.ontology import (Declaration, EntityRef, Ontology,
                                 parse_ontology, read_ontology)

CRITERIA = {
    1: "syntactic locality and extracted modules are sound vs the semantic "
       "oracle (500+ random ontologies, zero violations, < 60 s)",
    2: "context of an alignment covers it completely (100 random alignments)",
    3: "toy divisions cover all of their own candidates for n in {1,2,4,8}",
    4: "every toy subtask has size ratio < 1.0; max ratio shrinks from "
       "n=1 to n=8",
    5: "hinge-loss gradients match finite differences within 1e-4 "
       "(100 examples)",
    6: "k-means recovers two separated blobs for 10 seeds with "
       "non-increasing inertia",
    7: "metrics match brute-force recomputation exactly (50 instances)",
    8: "two divide runs with one seed produce byte-identical output",
    9: "OAEI anatomy coverage >= 0.90 for n in {5,10,20,50,100} "
       "(needs ONTODIVIDE_OAEI_DIR)",
}
RESULTS: dict[int, str] = {}


def record(criterion: int, status: str = "PASS") -> None:
    RESULTS[criterion] = status


@pytest.fixture(scope="module")
def toy_pair():
    o1 = parse_ontology(load_toy_text("anatomy_toy_1.ofn"))
    o2 = parse_ontology(load_toy_text("anatomy_toy_2.ofn"))
    return o1, o2


@pytest.fixture(scope="module")
def toy_divisions(toy_pair):
    cfg = DivisionConfig(seed=11, epochs=30, dim=32)
    return {n: divide(*toy_pair, n, cfg) for n in (1, 2, 4, 8)}


def test_criterion_1_locality_oracle_suite():
    rng = np.random.default_rng(20240601)
    start = time.monotonic()
    violations = []
    checked = 0
    for _ in range(500):
        onto = random_ontology(rng, max_axioms=8)
        sig = random_signature(rng, onto)
        for axiom in onto.logical_axioms:
            if is_local(axiom, sig):
                checked += 1
                if not semantically_local(axiom, sig, max_domain=3):
                    violations.append((axiom, sig))
        # the extracted module leaves out only axioms local for its signature
        module = extract_module(onto, sig)
        kept = set(module.axioms)
        for axiom in onto.logical_axioms:
            if axiom not in kept and not semantically_local(
                    axiom, module.signature, max_domain=3):
                violations.append((axiom, module.signature))
    elapsed = time.monotonic() - start
    assert not violations, violations[:3]
    assert checked > 500
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"
    record(1)


def test_criterion_2_context_coverage_theorem():
    rng = np.random.default_rng(7)
    for trial in range(100):
        o1 = random_ontology(rng, base=f"http://example.org/a{trial}#")
        o2 = random_ontology(rng, base=f"http://example.org/b{trial}#")
        sig1 = sorted(o1.signature)
        sig2 = sorted(o2.signature)
        mappings = frozenset(
            Mapping(sig1[rng.integers(len(sig1))],
                    sig2[rng.integers(len(sig2))])
            for _ in range(int(rng.integers(1, 7))))
        left, right = context_of(mappings, o1, o2)
        division = Division(
            1, (MatchingTask(left, right, mappings),), {})
        ratio = coverage_ratio(division, Alignment(mappings))
        assert ratio == 1.0, (trial, ratio)
    record(2)


def test_criterion_3_division_covers_own_candidates(toy_pair, toy_divisions):
    reference = Alignment(all_candidate_mappings(build_lexi(*toy_pair)))
    for n, division in toy_divisions.items():
        ratio = coverage_ratio(division, reference)
        assert ratio == 1.0, (n, ratio)
    record(3)


def test_criterion_4_size_ratio_behaviour(toy_pair, toy_divisions):
    max_ratio = {}
    for n, division in toy_divisions.items():
        ratios = [size_ratio_task(t, toy_pair) for t in division.subtasks]
        assert all(r < 1.0 for r in ratios), (n, ratios)
        max_ratio[n] = max(ratios)
    assert max_ratio[8] <= max_ratio[1], max_ratio
    record(4)


def test_criterion_5_gradient_check():
    rng = np.random.default_rng(101)
    h = 1e-6
    examples = 0
    while examples < 100:
        d = int(rng.integers(2, 9))
        j = int(rng.integers(1, 7))
        v_w = rng.normal(size=d)
        v_e = rng.normal(size=d)
        negs = rng.normal(size=(j, d))
        margin = float(rng.uniform(0.01, 0.5))
        gaps = margin - v_w @ v_e + negs @ v_w
        if np.abs(gaps).min() < 1e-3:
            # hinge kink: finite differences are invalid at gap == 0
            continue
        examples += 1
        analytic = hinge_gradients(v_w, v_e, negs, margin)
        for which, vec in enumerate((v_w, v_e, negs)):
            numeric = np.zeros_like(vec)
            for i in range(vec.size):
                plus = vec.copy()
                plus.reshape(-1)[i] += h
                minus = vec.copy()
                minus.reshape(-1)[i] -= h
                args = [v_w, v_e, negs]
                args[which] = plus
                up = hinge_loss(args[0], args[1], args[2], margin)
                args[which] = minus
                down = hinge_loss(args[0], args[1], args[2], margin)
                numeric.reshape(-1)[i] = (up - down) / (2 * h)
            scale = max(np.linalg.norm(analytic[which]),
                        np.linalg.norm(numeric), 1e-12)
            err = np.linalg.norm(analytic[which] - numeric) / scale
            assert err < 1e-4, (which, err)
    record(5)


def test_criterion_6_clustering_recovery():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.normal(0.0, 0.1, size=(25, 3))
        b = rng.normal(0.0, 0.1, size=(25, 3))
        b[:, 0] += 10.0
        X = np.vstack([a, b])
        truth = np.array([0] * 25 + [1] * 25)
        asg = kmeans(X, 2, seed=seed)
        got = np.array([asg.labels[i] for i in range(len(X))])
        assert (got == truth).all() or (got == 1 - truth).all(), seed
        hist = asg.inertia_history
        assert all(later <= earlier * (1 + 1e-9) + 1e-12
                   for earlier, later in zip(hist, hist[1:])), seed
    record(6)


def test_criterion_7_metrics_brute_force_oracle():
    rng = np.random.default_rng(55)
    ns1 = "http://example.org/o1#"
    ns2 = "http://example.org/o2#"
    universe1 = [f"{ns1}e{i}" for i in range(8)]
    universe2 = [f"{ns2}f{i}" for i in range(8)]

    def random_mappings():
        return frozenset(
            Mapping(EntityRef(universe1[rng.integers(8)]),
                    EntityRef(universe2[rng.integers(8)]))
            for _ in range(int(rng.integers(0, 10))))

    def random_task(task_id):
        src = [e for e in universe1 if rng.random() < 0.5]
        tgt = [e for e in universe2 if rng.random() < 0.5]
        return MatchingTask(
            Ontology(tuple(Declaration(EntityRef(e)) for e in src)),
            Ontology(tuple(Declaration(EntityRef(e)) for e in tgt)),
            frozenset(), task_id)

    orig = (Ontology(tuple(Declaration(EntityRef(e)) for e in universe1)),
            Ontology(tuple(Declaration(EntityRef(e)) for e in universe2)))

    for _ in range(50):
        ms, mra = random_mappings(), random_mappings()
        if mra:
            p, r, f = precision_recall_f(Alignment(ms), Alignment(mra))
            inter = len({x.key for x in ms} & {x.key for x in mra})
            exp_p = inter / len(ms) if ms else 0.0
            exp_r = inter / len(mra)
            exp_f = (2 * exp_p * exp_r / (exp_p + exp_r)
                     if exp_p + exp_r else 0.0)
            assert (p, r, f) == (exp_p, exp_r, exp_f)

        tasks = tuple(random_task(i) for i in range(int(rng.integers(1, 5))))
        division = Division(len(tasks), tasks, {})
        alignment = random_mappings()
        if alignment:
            got = coverage_ratio(division, Alignment(alignment))
            covered = 0
            for mp in alignment:
                for t in tasks:
                    if mp.e1.iri in {e.iri for e in t.source.signature} and \
                            mp.e2.iri in {e.iri for e in t.target.signature}:
                        covered += 1
                        break
            assert got == covered / len(alignment)

        got_total = size_ratio_division(division, orig)
        expected_total = sum(
            (len(t.source.signature) * len(t.target.signature))
            / (len(universe1) * len(universe2)) for t in tasks)
        assert got_total == expected_total
        for t in tasks:
            assert size_ratio_task(t, orig) == (
                len(t.source.signature) * len(t.target.signature)
                / (len(universe1) * len(universe2)))
    record(7)


def test_criterion_8_divide_determinism(tmp_path):
    src = tmp_path / "toy1.ofn"
    tgt = tmp_path / "toy2.ofn"
    src.write_text(load_toy_text("anatomy_toy_1.ofn"), encoding="utf-8")
    tgt.write_text(load_toy_text("anatomy_toy_2.ofn"), encoding="utf-8")
    outputs = []
    for run in ("run_a", "run_b"):
        out = tmp_path / run
        code = main(["divide", str(src), str(tgt), "-n", "4", "--seed", "21",
                     "--epochs", "15", "--dim", "16", "-o", str(out)])
        assert code == 0
        outputs.append(out)
    a, b = outputs
    rel_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    rel_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert rel_a == rel_b
    for rel in rel_a:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
    record(8)


@pytest.mark.oaei
def test_criterion_9_oaei_anatomy_reproduction():
    data_dir = os.environ.get("ONTODIVIDE_OAEI_DIR")
    if not data_dir:
        record(9, "SKIP")
        pytest.skip("set ONTODIVIDE_OAEI_DIR to converted AMA/NCIA data")
    root = Path(data_dir)
    from ontodivide.division import read_alignment_tsv
    o1 = read_ontology(root / "ama.ofn")
    o2 = read_ontology(root / "ncia.ofn")
    reference = read_alignment_tsv(root / "reference.tsv")
    assert reference.mappings, "reference alignment is empty"
    runtime_100 = None
    # n=100 first: o1 remembers no division yet, so its time includes the
    # index and the training, as that of a lone `divide -n 100` run does
    for n in (100, 5, 10, 20, 50):
        start = time.monotonic()
        division = divide(o1, o2, n, DivisionConfig(seed=1))
        elapsed = time.monotonic() - start
        if n == 100:
            runtime_100 = elapsed
        ratio = coverage_ratio(division, reference)
        assert ratio >= 0.90, (n, ratio)
    assert runtime_100 is not None and runtime_100 < 600.0, runtime_100
    record(9)
