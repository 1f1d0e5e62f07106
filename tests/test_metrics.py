import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import O1_NS, O2_NS

from ontodivide.division import Division, MatchingTask
from ontodivide.lexindex import Mapping
from ontodivide.metrics import (Alignment, coverage, coverage_ratio,
                                precision_recall_f, size_ratio_division,
                                size_ratio_task, union_alignments)
from ontodivide.ontology import Declaration, EntityRef, Ontology


def m(a, b, relation="=", confidence=1.0):
    return Mapping(EntityRef(O1_NS + a), EntityRef(O2_NS + b), relation,
                   confidence)


def align(*mappings):
    return Alignment(frozenset(mappings))


def onto(ns, *names):
    return Ontology(tuple(Declaration(EntityRef(ns + n)) for n in names))


def task(src_names, tgt_names, candidates=frozenset(), task_id=0):
    return MatchingTask(onto(O1_NS, *src_names), onto(O2_NS, *tgt_names),
                        frozenset(candidates), task_id)


mapping_sets = st.sets(
    st.tuples(st.sampled_from("abcde"), st.sampled_from("vwxyz")),
    max_size=8).map(lambda pairs: frozenset(m(a, b) for a, b in pairs))


class TestPrecisionRecallF:
    def test_half_overlap(self):
        ms = align(m("a", "a"), m("b", "b"))
        mra = align(m("b", "b"), m("c", "c"))
        assert precision_recall_f(ms, mra) == (0.5, 0.5, 0.5)

    def test_perfect(self):
        ms = align(m("a", "a"), m("b", "b"))
        assert precision_recall_f(ms, ms) == (1.0, 1.0, 1.0)

    def test_empty_system_alignment(self):
        mra = align(m("a", "a"))
        assert precision_recall_f(align(), mra) == (0.0, 0.0, 0.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError, match="reference alignment is empty"):
            precision_recall_f(align(m("a", "a")), align())

    def test_relation_must_match_exactly(self):
        ms = align(m("a", "a", "<"))
        mra = align(m("a", "a", "="))
        assert precision_recall_f(ms, mra) == (0.0, 0.0, 0.0)

    def test_confidence_never_matters(self):
        ms = align(m("a", "a", confidence=0.2))
        mra = align(m("a", "a", confidence=0.9))
        assert precision_recall_f(ms, mra) == (1.0, 1.0, 1.0)

    @given(mapping_sets, mapping_sets)
    def test_swap_symmetry(self, s1, s2):
        if not s1 or not s2:
            return
        p1, r1, f1 = precision_recall_f(Alignment(s1), Alignment(s2))
        p2, r2, f2 = precision_recall_f(Alignment(s2), Alignment(s1))
        assert (p1, r1) == (r2, p2)
        assert f1 == pytest.approx(f2)

    @given(mapping_sets, mapping_sets)
    def test_brute_force_oracle(self, s1, s2):
        if not s2:
            return
        common = sum(1 for x in s1 if any(x == y for y in s2))
        p, r, f = precision_recall_f(Alignment(s1), Alignment(s2))
        assert p == (common / len(s1) if s1 else 0.0)
        assert r == common / len(s2)


class TestSizeRatios:
    def test_identity_task(self):
        orig = (onto(O1_NS, "a", "b"), onto(O2_NS, "x", "y", "z"))
        full = MatchingTask(orig[0], orig[1], frozenset())
        assert size_ratio_task(full, orig) == 1.0

    def test_half_each_side(self):
        orig = (onto(O1_NS, "a", "b"), onto(O2_NS, "x", "y"))
        sub = task(["a"], ["x"])
        assert size_ratio_task(sub, orig) == 0.25

    def test_empty_original_rejected(self):
        orig = (onto(O1_NS), onto(O2_NS, "x"))
        with pytest.raises(ValueError, match="empty signature"):
            size_ratio_task(task(["a"], ["x"]), orig)

    def test_division_sum(self):
        orig = (onto(O1_NS, "a", "b"), onto(O2_NS, "x", "y"))
        div = Division(2, (task(["a"], ["x"], task_id=0),
                           task(["b"], ["y"], task_id=1)), {})
        assert size_ratio_division(div, orig) == 0.5

    def test_identity_single_task_division(self):
        orig = (onto(O1_NS, "a"), onto(O2_NS, "x"))
        div = Division(1, (MatchingTask(orig[0], orig[1], frozenset()),), {})
        assert size_ratio_division(div, orig) == 1.0

    def test_overlapping_tasks_can_exceed_one(self):
        orig = (onto(O1_NS, "a", "b"), onto(O2_NS, "x", "y"))
        big = MatchingTask(orig[0], orig[1], frozenset())
        div = Division(2, (big, big), {})
        assert size_ratio_division(div, orig) == 2.0


class TestCoverage:
    def test_inside(self):
        t = task(["a", "b"], ["x", "y"])
        mappings = {m("a", "x"), m("b", "y")}
        assert coverage(t, Alignment(frozenset(mappings))) == mappings

    def test_empty(self):
        assert coverage(task(["a"], ["x"]), align()) == frozenset()

    def test_one_side_missing(self):
        t = task(["a"], ["x"])
        assert coverage(t, align(m("a", "zzz"))) == frozenset()
        assert coverage(t, align(m("zzz", "x"))) == frozenset()

    def test_ratio_full_division(self):
        t = task(["a", "b"], ["x", "y"])
        div = Division(1, (t,), {})
        assert coverage_ratio(div, align(m("a", "x"), m("b", "y"))) == 1.0

    def test_ratio_outside(self):
        div = Division(1, (task(["a"], ["x"]),), {})
        assert coverage_ratio(div, align(m("q", "q"))) == 0.0

    def test_ratio_empty_alignment_rejected(self):
        div = Division(1, (task(["a"], ["x"]),), {})
        with pytest.raises(ValueError, match="empty"):
            coverage_ratio(div, align())

    def test_handcrafted_ten_mapping_reference(self):
        tasks = (task(["a", "b"], ["x", "y"], task_id=0),
                 task(["c"], ["z"], task_id=1))
        div = Division(2, tasks, {})
        reference = [m(a, b) for a, b in
                     [("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"),
                      ("c", "z"), ("a", "z"), ("c", "x"), ("q", "x"),
                      ("a", "q"), ("q", "q")]]
        # brute force: per-mapping membership in at least one task
        covered = 0
        for mp in reference:
            for t in tasks:
                if mp.e1.iri in t.source.entity_by_iri and \
                        mp.e2.iri in t.target.entity_by_iri:
                    covered += 1
                    break
        ratio = coverage_ratio(div, Alignment(frozenset(reference)))
        assert ratio == covered / 10
        assert ratio == 0.5

    def test_monotone_in_tasks(self):
        t0 = task(["a"], ["x"], task_id=0)
        t1 = task(["b"], ["y"], task_id=1)
        reference = align(m("a", "x"), m("b", "y"), m("q", "q"))
        r1 = coverage_ratio(Division(1, (t0,), {}), reference)
        r2 = coverage_ratio(Division(2, (t0, t1), {}), reference)
        assert r2 >= r1


class TestUnion:
    def test_empty_parts(self):
        assert union_alignments([align(), align()]).mappings == frozenset()

    def test_idempotent(self):
        a = align(m("a", "x"))
        assert union_alignments([a, a]).mappings == a.mappings

    def test_max_confidence_kept(self):
        merged = union_alignments([align(m("a", "x", confidence=0.7)),
                                   align(m("a", "x", confidence=0.9))])
        (kept,) = merged.mappings
        assert kept.confidence == 0.9

    @given(st.lists(mapping_sets, max_size=5))
    def test_union_is_set_union(self, parts):
        merged = union_alignments([Alignment(p) for p in parts])
        expected = frozenset().union(*parts) if parts else frozenset()
        assert merged.mappings == expected


class TestBounds:
    def test_random_instances_stay_in_range(self):
        rng = np.random.default_rng(8)
        names1 = [f"a{i}" for i in range(6)]
        names2 = [f"x{i}" for i in range(6)]
        orig = (onto(O1_NS, *names1), onto(O2_NS, *names2))
        for _ in range(30):
            tasks = tuple(
                task([n for n in names1 if rng.random() < 0.6] or ["a0"],
                     [n for n in names2 if rng.random() < 0.6] or ["x0"],
                     task_id=i)
                for i in range(int(rng.integers(1, 4))))
            div = Division(len(tasks), tasks, {})
            per_task = [size_ratio_task(t, orig) for t in tasks]
            assert all(0.0 < r <= 1.0 for r in per_task)
            assert size_ratio_division(div, orig) >= max(per_task)
            mappings = frozenset(
                m(names1[rng.integers(6)], names2[rng.integers(6)])
                for _ in range(int(rng.integers(1, 8))))
            ratio = coverage_ratio(div, Alignment(mappings))
            assert 0.0 <= ratio <= 1.0

