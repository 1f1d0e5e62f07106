import gc
import json
import math
import pickle
import random
import re
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from conftest import O1_NS, O2_NS, TOY1_NS, TOY2_NS, load_toy_text
from oracles import entry_objects, reference_read_alignment_tsv

import ontodivide
import ontodivide.embedding
from ontodivide.clustering import clusters_to_entries, kmeans
from ontodivide.config import LexConfig, TrainingConfig
from ontodivide.division import (Division, DivisionConfig, divide,
                                 read_alignment_tsv, read_division,
                                 read_mappings, subtask_from_cluster,
                                 write_alignment_tsv, write_division)
from ontodivide.embedding import entry_vectors, train_embeddings
from ontodivide.lexindex import (RELATIONS, Mapping, all_candidate_mappings,
                                 build_lexi)
from ontodivide.locality import context_of, extract_module
from ontodivide.metrics import (Alignment, coverage_ratio,
                                size_ratio_division, size_ratio_task)
from ontodivide.ontology import (BUILTIN_PREFIXES, CLASS, OBJECT_PROPERTY,
                                 AnnotationAssertion, Declaration, EntityRef,
                                 Ontology, entity_labels, parse_ontology,
                                 serialize)

FAST = DivisionConfig(seed=42, epochs=15, dim=16)


@pytest.fixture(scope="module")
def toy_lexi(toy_pair):
    return build_lexi(*toy_pair)


@pytest.fixture(scope="module")
def toy_division4(toy_pair):
    return divide(*toy_pair, 4, FAST)


def entry_ids(lexi, keep) -> list[int]:
    """The ids of the entries of `lexi` whose keys `keep` accepts."""
    return [i for i, (key, _) in enumerate(entry_objects(lexi)) if keep(key)]


class TestSubtaskFromCluster:
    def test_disorder_cluster(self, table1_pair):
        o1, o2 = table1_pair
        lexi = build_lexi(o1, o2)
        ids = entry_ids(lexi, lambda key: {"disord", "pregnanc"} & set(key))
        task = subtask_from_cluster(lexi.mappings(ids), o1, o2, task_id=3)
        assert Mapping(EntityRef(O1_NS + "Disorder_of_stomach"),
                       EntityRef(O2_NS + "Pregnancy_Disorder")) \
            in task.candidates
        # superclass chain is pulled into the modules
        assert EntityRef(O1_NS + "Clinical_finding") \
            in task.source.signature
        assert EntityRef(O2_NS + "Medical_event") in task.target.signature
        assert task.task_id == 3

    def test_singleton_cluster(self, table1_pair):
        o1, o2 = table1_pair
        lexi = build_lexi(o1, o2)
        ids = entry_ids(lexi, lambda key: key == ("basaloid",))
        task = subtask_from_cluster(lexi.mappings(ids), o1, o2)
        assert len(task.candidates) == 2  # one o1 entity times two o2
        left, right = context_of(task.candidates, o1, o2)
        assert task.source.axioms == left.axioms
        assert task.target.axioms == right.axioms

    def test_own_candidates_fully_covered(self, table1_pair):
        o1, o2 = table1_pair
        lexi = build_lexi(o1, o2)
        for i in range(len(lexi)):
            task = subtask_from_cluster(lexi.mappings([i]), o1, o2)
            covered = {mp for mp in task.candidates
                       if mp.e1.iri in task.source.entity_by_iri
                       and mp.e2.iri in task.target.entity_by_iri}
            assert covered == task.candidates

    def test_empty_cluster_rejected(self, table1_pair):
        with pytest.raises(ValueError, match="non-empty"):
            subtask_from_cluster(frozenset(), *table1_pair)


class TestDivide:
    def test_n_one_equals_context_of_all_candidates(self, toy_pair,
                                                    toy_lexi):
        o1, o2 = toy_pair
        div = divide(o1, o2, 1, FAST)
        assert div.n == 1
        (task,) = div.subtasks
        assert task.candidates == all_candidate_mappings(toy_lexi)
        left, right = context_of(task.candidates, o1, o2)
        assert set(task.source.axioms) == set(left.axioms)
        assert set(task.target.axioms) == set(right.axioms)

    def test_deterministic(self):
        # fresh pairs, so the index and the training are redone, not reused
        a = divide(*parse_toy_pair(), 3, FAST)
        b = divide(*parse_toy_pair(), 3, FAST)
        assert a == b

    def test_candidates_partition_to_m_lexi(self, toy_division4, toy_lexi):
        union = frozenset()
        for task in toy_division4.subtasks:
            union |= task.candidates
        assert union == all_candidate_mappings(toy_lexi)

    def test_coverage_of_own_candidates(self, toy_pair, toy_lexi):
        reference = Alignment(all_candidate_mappings(toy_lexi))
        for n in (1, 2, 4):
            div = divide(*toy_pair, n, FAST)
            assert coverage_ratio(div, reference) == 1.0

    def test_size_ratios_below_one(self, toy_pair, toy_division4):
        for task in toy_division4.subtasks:
            assert size_ratio_task(task, toy_pair) < 1.0
        assert size_ratio_division(toy_division4, toy_pair) > 0.0

    def test_species_specific_leaves_stay_out(self, toy_division4):
        for task in toy_division4.subtasks:
            assert EntityRef(TOY1_NS + "Vibrissa") not in task.source.signature
            assert EntityRef(TOY2_NS + "Thumb") not in task.target.signature

    def test_modules_self_contained(self, toy_pair, toy_division4):
        o1, o2 = toy_pair
        for task in toy_division4.subtasks:
            seeds1 = {mp.e1 for mp in task.candidates}
            seeds2 = {mp.e2 for mp in task.candidates}
            again1 = extract_module(task.source, seeds1)
            again2 = extract_module(task.target, seeds2)
            assert set(again1.axioms) == set(task.source.axioms)
            assert set(again2.axioms) == set(task.target.axioms)

    def test_task_ids_in_cluster_order(self, toy_division4):
        assert [t.task_id for t in toy_division4.subtasks] == [0, 1, 2, 3]

    @pytest.mark.parametrize("n", [1, 3])
    def test_is_the_staged_composition(self, toy_pair, toy_lexi, n):
        """`divide` gives what its stages give, called one by one with the
        seeds it derives from the config's."""
        o1, o2 = toy_pair
        emb_seq, km_seq = np.random.SeedSequence(FAST.seed).spawn(2)
        space = train_embeddings(toy_lexi, replace(
            FAST, seed=int(emb_seq.generate_state(1, np.uint64)[0])))
        points = entry_vectors(toy_lexi, space)
        assignment = kmeans(points, n,
                            int(km_seq.generate_state(1, np.uint64)[0]),
                            FAST.kmeans_max_iters)
        tasks = tuple(subtask_from_cluster(c, o1, o2, task_id=i) for i, c in
                      enumerate(clusters_to_entries(assignment, toy_lexi)))
        assert divide(o1, o2, n, FAST) \
            == Division(n, tasks, FAST.provenance())

    def test_logs_where_logging_is_loaded(self, toy_pair, caplog):
        with caplog.at_level("INFO", logger="ontodivide.division"):
            divide(*toy_pair, 2, FAST)
        assert "divided task into 2 subtasks from" in caplog.text

    def test_n_too_large(self, toy_pair, toy_lexi):
        with pytest.raises(ValueError, match="smaller n"):
            divide(*toy_pair, len(toy_lexi) + 1, FAST)

    def test_n_zero(self, toy_pair):
        with pytest.raises(ValueError, match="n must be"):
            divide(*toy_pair, 0, FAST)

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_non_integer_n_fails_before_any_stage(self, n):
        """A float or a bool n is refused before the index is built or the
        embeddings trained, so the source keeps no division memo."""
        o1, o2 = parse_toy_pair()
        with pytest.raises(ValueError, match="n must be an integer"):
            divide(o1, o2, n, FAST)
        assert "_division_memo" not in vars(o1)

    def test_zero_kmeans_iterations(self, toy_pair):
        with pytest.raises(ValueError, match="max_iters must be >= 1"):
            divide(*toy_pair, 2, DivisionConfig(epochs=0, kmeans_max_iters=0))

    @pytest.mark.parametrize("cfg, message", [
        ({"kmeans_max_iters": 0}, "max_iters must be >= 1"),
        ({"learning_rate": math.nan}, "learning_rate must be"),
        ({"margin": math.inf}, "margin must be"),
        ({"dim": 0}, "dim must be"),
        ({"max_subsets": 0}, "max_subsets must be >= 1"),
        ({"alpha": 1}, "alpha must be >= 2"),
        ({"seed": -1}, "seed must be >= 0"),
        ({"epochs": 2.5, "dim": 8}, "epochs must be an integer, not 2.5"),
        ({"seed": True}, "seed must be an integer, not True"),
        ({"kmeans_max_iters": 0}, "^kmeans_max_iters must be >= 1$"),
    ])
    def test_bad_config_fails_before_indexing(self, toy_pair, monkeypatch,
                                              cfg, message):
        def no_index(*args, **kwargs):
            raise AssertionError("indexed before the config was checked")

        monkeypatch.setattr(ontodivide.division, "build_lexi", no_index)
        with pytest.raises(ValueError, match=message):
            divide(*toy_pair, 2, DivisionConfig(**cfg))

    def test_stage_configs_hold_only_division_settings(self):
        """The old stage config names build a `DivisionConfig`, which has
        no field beyond a division's, so `division.json` records them all."""
        assert LexConfig is TrainingConfig is DivisionConfig
        with pytest.raises(TypeError, match="max_norm"):
            TrainingConfig(max_norm=2.0)

    def test_index_ignores_other_settings(self, toy_pair):
        """`build_lexi` reads `alpha` and `max_subsets` alone."""
        base = DivisionConfig(alpha=2, max_subsets=3)
        other = replace(base, seed=3, dim=12, epochs=7, negatives=4,
                        margin=0.1, learning_rate=0.08, kmeans_max_iters=50)
        assert build_lexi(*toy_pair, other) == build_lexi(*toy_pair, base)

    def test_training_ignores_other_settings(self, toy_lexi):
        """`train_embeddings` reads neither the index's settings nor
        k-means'."""
        base = DivisionConfig(seed=5, dim=8, epochs=3)
        other = replace(base, alpha=40, max_subsets=20, kmeans_max_iters=50)
        a = train_embeddings(toy_lexi, base)
        b = train_embeddings(toy_lexi, other)
        assert (a.words, a.entities, a.epoch_losses) \
            == (b.words, b.entities, b.epoch_losses)
        assert np.array_equal(a.word_matrix, b.word_matrix)
        assert np.array_equal(a.entity_matrix, b.entity_matrix)

    @pytest.mark.parametrize("seed, message", [
        (True, "seed must be an integer, not True"),
        (1.5, "seed must be an integer, not 1.5"),
        ("3", "seed must be an integer, not '3'"),
        (-1, "seed must be >= 0"),
    ])
    def test_bad_training_seed_fails_when_built(self, seed, message):
        """A training seed is checked when its config is built, not by
        numpy when training starts."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainingConfig(seed=seed)

    def test_provenance_snapshot(self, toy_division4):
        prov = toy_division4.provenance
        assert prov["seed"] == 42
        assert prov["alpha"] == 60
        assert prov["dim"] == 16
        assert prov["epochs"] == 15
        assert prov["negatives"] == 10
        assert prov["margin"] == 0.05
        assert prov["learning_rate"] == 0.05
        assert prov["max_subsets"] == 50
        assert prov["kmeans_max_iters"] == 300
        assert prov["numpy"] == np.__version__
        assert set(prov) == {f.name for f in fields(DivisionConfig)} | {
            "version", "numpy"}
        # the config decides it all, numpy version included
        assert prov == FAST.provenance()

    def test_provenance_version_is_package_version(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        version = DivisionConfig().provenance()["version"]
        assert version == ontodivide.__version__ == declared


def parse_toy_pair():
    """A freshly parsed toy pair, whose source remembers no division yet."""
    return (parse_ontology(load_toy_text("anatomy_toy_1.ofn")),
            parse_ontology(load_toy_text("anatomy_toy_2.ofn")))


def division_files(div, orig, out_dir) -> dict[str, bytes]:
    """Every file `write_division` writes for `div`, by relative path."""
    out = write_division(div, orig, out_dir)
    return {str(p.relative_to(out)): p.read_bytes()
            for p in sorted(out.rglob("*")) if p.is_file()}


def division_text(div):
    return [(t.task_id, serialize(t.source), serialize(t.target),
             sorted(m.key for m in t.candidates)) for t in div.subtasks]


class TestDivideMemo:
    """`divide` builds the index and trains once per pair and config."""

    @pytest.fixture
    def calls(self, monkeypatch):
        # where `divide` looks each stage up: the numeric stages are
        # imported inside it, from their own module
        homes = {"build_lexi": ontodivide.division,
                 "train_embeddings": ontodivide.embedding}
        counts = dict.fromkeys(homes, 0)
        for name, module in homes.items():
            def counted(*args, _name=name, _f=getattr(module, name)):
                counts[_name] += 1
                return _f(*args)
            monkeypatch.setattr(module, name, counted)
        return counts

    def test_many_n_train_once(self, calls):
        o1, o2 = parse_toy_pair()
        for n in (1, 2, 4, 8):
            divide(o1, o2, n, FAST)
        assert calls == {"build_lexi": 1, "train_embeddings": 1}
        divide(o1, o2, 4, replace(FAST, seed=7))  # a changed config
        assert calls == {"build_lexi": 2, "train_embeddings": 2}
        divide(o1, o2, 4, replace(FAST, seed=7))
        assert calls["train_embeddings"] == 2
        o2_again = parse_toy_pair()[1]  # equal, but another object
        assert o2_again == o2
        divide(o1, o2_again, 4, replace(FAST, seed=7))
        assert calls == {"build_lexi": 3, "train_embeddings": 3}

    def test_memo_divisions_serialize_as_fresh_ones(self, tmp_path):
        o1, o2 = parse_toy_pair()
        for n in (1, 2, 4, 8):
            reused = division_files(divide(o1, o2, n, FAST), (o1, o2),
                                    tmp_path / f"reused{n}")
            fresh_pair = parse_toy_pair()
            fresh = division_files(divide(*fresh_pair, n, FAST), fresh_pair,
                                   tmp_path / f"fresh{n}")
            assert len(reused) == 3 * n + 1
            assert reused == fresh, n

    def test_hit_still_rejects_n_too_large(self, calls, toy_lexi):
        o1, o2 = parse_toy_pair()
        divide(o1, o2, 2, FAST)
        with pytest.raises(ValueError, match="smaller n"):
            divide(o1, o2, len(toy_lexi) + 1, FAST)
        assert calls == {"build_lexi": 1, "train_embeddings": 1}

    def test_memo_does_not_keep_target_alive(self):
        o1, o2 = parse_toy_pair()
        divide(o1, o2, 2, FAST)
        target = weakref.ref(o2)
        del o2
        gc.collect()
        assert target() is None

    def test_divided_ontology_still_pickles(self, calls):
        o1, o2 = parse_toy_pair()
        divide(o1, o2, 2, FAST)
        copy = pickle.loads(pickle.dumps(o1))
        assert copy == o1
        divide(copy, o2, 2, FAST)  # the copy remembers no division
        assert calls == {"build_lexi": 2, "train_embeddings": 2}

    def test_threads_get_serial_divisions(self, fast_thread_switching):
        ns = (1, 2, 4, 8)
        serial = {n: division_text(divide(*parse_toy_pair(), n, FAST))
                  for n in ns}
        o1, o2 = parse_toy_pair()
        with ThreadPoolExecutor(4) as pool:
            futures = {n: pool.submit(divide, o1, o2, n, FAST) for n in ns}
            assert {n: division_text(f.result(timeout=60))
                    for n, f in futures.items()} == serial
        # `divide` paused the collector in each thread; the last to return
        # enabled it again
        assert gc.isenabled()


class TestAlignmentTsv:
    def test_round_trip(self, tmp_path):
        mappings = {Mapping(EntityRef(O1_NS + "a"), EntityRef(O2_NS + "x"),
                            "=", 0.75),
                    Mapping(EntityRef(O1_NS + "b"), EntityRef(O2_NS + "y"),
                            "<", 1.0)}
        path = tmp_path / "alignment.tsv"
        write_alignment_tsv(mappings, path)
        loaded = read_alignment_tsv(path)
        assert loaded.mappings == frozenset(mappings)
        by_key = {mp.key: mp for mp in loaded.mappings}
        assert by_key[(O1_NS + "a", O2_NS + "x", "=")].confidence == 0.75

    def test_sorted_output(self, tmp_path):
        mappings = [Mapping(EntityRef(O1_NS + c), EntityRef(O2_NS + "x"))
                    for c in "cab"]
        path = tmp_path / "alignment.tsv"
        write_alignment_tsv(mappings, path)
        lines = path.read_text().splitlines()
        assert [ln.split("\t")[0] for ln in lines] == \
            [O1_NS + "a", O1_NS + "b", O1_NS + "c"]

    @given(st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3),
                  st.sampled_from(RELATIONS)),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
        max_size=8))
    @example({(0, 0, "="): 4e-7})  # written as 0.000000 by a fixed format
    def test_confidence_round_trip(self, tmp_path_factory, rows):
        mappings = [Mapping(EntityRef(f"{O1_NS}e{i}"),
                            EntityRef(f"{O2_NS}e{j}"), rel, conf)
                    for (i, j, rel), conf in rows.items()]
        path = tmp_path_factory.getbasetemp() / "round_trip.tsv"
        write_alignment_tsv(mappings, path)
        loaded = read_alignment_tsv(path).mappings
        assert {mp.key: mp.confidence for mp in loaded} == \
            {mp.key: mp.confidence for mp in mappings}

    @pytest.mark.parametrize("conf", [np.float64(0.5), np.float32(0.25),
                                      np.float32(0.1), True, 1],
                             ids=["float64", "float32", "float32-inexact",
                                  "bool", "int"])
    def test_non_float_confidence_round_trip(self, tmp_path, conf):
        """A numpy scalar, a bool or an int is written as the float it
        equals, which reads back."""
        mapping = Mapping(EntityRef(O1_NS + "a"), EntityRef(O2_NS + "x"),
                          "=", conf)
        path = tmp_path / "alignment.tsv"
        write_alignment_tsv([mapping], path)
        assert path.read_text().split("\t")[3] == f"{float(conf)!r}\n"
        (back,) = read_alignment_tsv(path).mappings
        assert back == mapping
        assert type(back.confidence) is float
        assert back.confidence == float(conf)

    @pytest.mark.parametrize("conf", [np.float64(0.5), np.float32(0.25),
                                      np.float32(0.1), True, 1],
                             ids=["float64", "float32", "float32-inexact",
                                  "bool", "int"])
    def test_confidence_is_stored_as_float(self, conf):
        """A `Mapping` keeps the float its confidence equals, so equal
        mappings carry confidences of one type; a string is refused."""
        mapping = Mapping(EntityRef(O1_NS + "a"), EntityRef(O2_NS + "x"),
                          "=", conf)
        assert type(mapping.confidence) is float
        assert mapping.confidence == float(conf)
        assert type(replace(mapping, confidence=conf).confidence) is float
        with pytest.raises(TypeError):
            Mapping(mapping.e1, mapping.e2, "=", "0.5")

    @pytest.mark.parametrize("bad", ["", "a\tb", "a\rb", "a\nb", "\t",
                                     "a\t", "\na"], ids=repr)
    @pytest.mark.parametrize("column", [0, 1])
    def test_unreadable_iri_refused(self, tmp_path, bad, column):
        iris = [O1_NS + "a", O2_NS + "x"]
        iris[column] = bad
        mappings = [Mapping(EntityRef(O1_NS + "b"), EntityRef(O2_NS + "y")),
                    Mapping(*map(EntityRef, iris))]
        path = tmp_path / "alignment.tsv"
        with pytest.raises(ValueError) as err:
            write_alignment_tsv(mappings, path)
        assert str(err.value).startswith(f"cannot write IRI {bad!r}:")
        assert not path.exists()

    @pytest.mark.parametrize("other", ["!b", O1_NS + "b"])
    def test_comment_iri_refused(self, tmp_path, other):
        """An e1 starting with `#` would make its row a comment, whether it
        sorts after another row (after `!`) or first (before `h`)."""
        e1 = "#a"
        mappings = [Mapping(EntityRef(other), EntityRef(O2_NS + "y")),
                    Mapping(EntityRef(e1), EntityRef(O2_NS + "x"))]
        path = tmp_path / "alignment.tsv"
        with pytest.raises(ValueError) as err:
            write_alignment_tsv(mappings, path)
        assert str(err.value).startswith(f"cannot write IRI {e1!r} first "
                                         "in a row:")
        assert not path.exists()

    def test_byte_order_mark_iri_refused(self, tmp_path):
        """A first e1 starting with U+FEFF would lose it to `utf-8-sig`;
        in a later row it reads back as written."""
        later = [Mapping(EntityRef(O1_NS + "a"), EntityRef(O2_NS + "x")),
                 Mapping(EntityRef("\ufeffz"), EntityRef(O2_NS + "y"))]
        path = tmp_path / "alignment.tsv"
        write_alignment_tsv(later, path)
        assert read_alignment_tsv(path).mappings == frozenset(later)
        path.unlink()
        first = [Mapping(EntityRef("\ufeffa"), EntityRef(O2_NS + "x"))]
        with pytest.raises(ValueError) as err:
            write_alignment_tsv(first, path)
        assert str(err.value).startswith("cannot write IRI '\\ufeffa' "
                                         "first in the file:")
        assert not path.exists()

    def test_bad_relation_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("a\tb\t?\t1.0\n")
        with pytest.raises(ValueError, match="bad relation"):
            read_alignment_tsv(path)

    @pytest.mark.parametrize("text", ["abc", "nan", "inf", "0", "-0.5", "2",
                                      ""])
    def test_bad_confidence_located(self, tmp_path, text):
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\tb\t=\t1.0\na\tc\t=\t{text}\n")
        with pytest.raises(ValueError) as err:
            read_alignment_tsv(path)
        assert str(err.value) == f"{path}:2: bad confidence {text!r}"

    @pytest.mark.parametrize("row", ["\t\t=", "a\t\t=", "\tb\t<\t0.5"])
    def test_empty_iri_located(self, tmp_path, row):
        path = tmp_path / "bad.tsv"
        path.write_text(f"a\tb\t=\n{row}\n")
        with pytest.raises(ValueError) as err:
            read_alignment_tsv(path)
        assert str(err.value) == f"{path}:2: empty IRI"

    def test_byte_order_mark_skipped(self, tmp_path):
        path = tmp_path / "bom.tsv"
        path.write_text(f"\ufeff{O1_NS}a\t{O2_NS}x\t=\n", encoding="utf-8")
        (mp,) = read_alignment_tsv(path).mappings
        assert mp.e1 == EntityRef(O1_NS + "a")

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "alignment.tsv"
        path.write_text("# header\n\n" f"{O1_NS}a\t{O2_NS}x\t=\n")
        loaded = read_alignment_tsv(path)
        assert len(loaded.mappings) == 1
        (mp,) = loaded.mappings
        assert mp.confidence == 1.0

    def test_rows_naming_one_iri_share_one_entity(self, tmp_path):
        path = tmp_path / "alignment.tsv"
        path.write_text(f"{O1_NS}a\t{O2_NS}x\t=\n{O1_NS}a\t{O2_NS}y\t<\n"
                        f"{O2_NS}x\t{O1_NS}a\t>\t0.5\n")
        by_key = {mp.key: mp for mp in read_alignment_tsv(path).mappings}
        ax = by_key[O1_NS + "a", O2_NS + "x", "="]
        ay = by_key[O1_NS + "a", O2_NS + "y", "<"]
        xa = by_key[O2_NS + "x", O1_NS + "a", ">"]
        assert ax.e1 is ay.e1 is xa.e2
        assert ax.e2 is xa.e1

    @staticmethod
    def random_texts(seed):
        """1500 small TSV texts, mostly good rows, some bad ones."""
        rng = random.Random(seed)
        iris = [O1_NS + "a", O1_NS + "b", O2_NS + "x", "c", "é", " ", ""]
        relations = [*RELATIONS, "?", "", "=="]
        confidences = ["1.0", "0.25", "1", "1e-3", "nan", "inf", "0", "2",
                       "abc", "", " 0.5", "-0.5"]

        def line():
            pick = rng.random()
            if pick < 0.1:
                return rng.choice(["# comment", "#", "", "  ", "\t"])
            cols = [rng.choice(iris), rng.choice(iris), rng.choice(relations),
                    rng.choice(confidences), rng.choice(confidences)]
            width = rng.choice([2, 3, 3, 4, 4, 4, 4, 5])
            if pick < 0.6:  # mostly good rows, so errors come late
                cols[:4] = [rng.choice(iris[:4]), rng.choice(iris[:4]),
                            rng.choice(RELATIONS), rng.choice(confidences[:4])]
                width = rng.choice([3, 4])
            return "\t".join(cols[:width])

        for _ in range(1500):
            lines = [line() for _ in range(rng.randrange(1, 9))]
            bom = "\ufeff" if rng.random() < 0.2 else ""
            yield bom + "\n".join(lines) + "\n"

    @staticmethod
    def outcome(read, path):
        try:
            return {mp.key: mp.confidence for mp in read(path).mappings}
        except ValueError as exc:
            return str(exc)

    @pytest.mark.parametrize("seed", range(3))
    def test_random_texts_match_reference_reader(self, tmp_path, seed):
        # the same mappings and confidences, or the same error message
        path = tmp_path / "random.tsv"
        for text in self.random_texts(seed):
            path.write_text(text, encoding="utf-8")
            assert self.outcome(read_alignment_tsv, path) == \
                self.outcome(reference_read_alignment_tsv, path), text

    @pytest.mark.parametrize("seed", range(3))
    def test_random_texts_read_through_shared_refs(self, tmp_path, seed):
        """`read_division`'s path, one (IRI, kind) table for many files,
        reads each as the reference does; every ref is the table's class
        ref of its IRI, whatever other kinds the table holds."""
        refs = {(iri, kind): EntityRef(iri, kind)
                for iri in (O1_NS + "a", "c") for kind in (CLASS,
                                                           OBJECT_PROPERTY)}
        path = tmp_path / "random.tsv"

        def read(path):
            return Alignment(read_mappings(path, refs))

        for text in self.random_texts(seed):
            path.write_text(text, encoding="utf-8")
            got = self.outcome(read, path)
            assert got == self.outcome(reference_read_alignment_tsv, path), \
                text
            if not isinstance(got, str):
                for mp in read(path).mappings:
                    assert mp.e1 is refs[mp.e1.iri, CLASS]
                    assert mp.e2 is refs[mp.e2.iri, CLASS]


class TestDivisionDirectory:
    def test_layout_and_round_trip(self, toy_pair, toy_division4, tmp_path):
        out = write_division(toy_division4, toy_pair, tmp_path / "div")
        for i in range(4):
            assert (out / f"task_{i}" / "source.ofn").is_file()
            assert (out / f"task_{i}" / "target.ofn").is_file()
            assert (out / f"task_{i}" / "candidates.tsv").is_file()
        meta = json.loads((out / "division.json").read_text())
        assert meta["n"] == 4
        assert len(meta["tasks"]) == 4
        assert meta["provenance"]["seed"] == 42
        total = sum(row["size_ratio"] for row in meta["tasks"])
        assert meta["size_ratio_total"] == pytest.approx(total)

        loaded = read_division(out)
        assert loaded.n == 4
        for orig_task, loaded_task in zip(toy_division4.subtasks,
                                          loaded.subtasks):
            assert loaded_task.candidates == orig_task.candidates
            assert loaded_task.source.signature == \
                orig_task.source.signature
            assert loaded_task.target.signature == \
                orig_task.target.signature

    def test_module_files_are_serialize_output(self, toy_pair, toy_division4,
                                               tmp_path):
        # write_division renders an axiom shared by several modules once
        out = write_division(toy_division4, toy_pair, tmp_path / "div")
        for task in toy_division4.subtasks:
            task_dir = out / f"task_{task.task_id}"
            assert (task_dir / "source.ofn").read_bytes() == \
                serialize(task.source).encode("utf-8")
            assert (task_dir / "target.ofn").read_bytes() == \
                serialize(task.target).encode("utf-8")

    @pytest.mark.parametrize("label", ["x\ry", "x\r\ny"])
    def test_line_breaks_in_label_round_trip(self, tmp_path, label):
        o1, o2 = parse_toy_pair()
        heart = o1.entity_by_iri[TOY1_NS + "Heart"]
        o1 = Ontology(o1.axioms + (AnnotationAssertion(
            heart, BUILTIN_PREFIXES["rdfs"] + "label", label),), o1.iri)
        div = divide(o1, o2, 2, FAST)
        assert all(label in entity_labels(task.source, heart)
                   for task in div.subtasks)
        write_division(div, (o1, o2), tmp_path / "div")
        loaded = read_division(tmp_path / "div")
        for task, loaded_task in zip(div.subtasks, loaded.subtasks):
            assert loaded_task.source == task.source
            assert loaded_task.target == task.target

    def test_provenance_reruns_division(self, tmp_path):
        cfg = DivisionConfig(seed=3, alpha=40, max_subsets=20, dim=12,
                             epochs=7, negatives=4, margin=0.1,
                             learning_rate=0.08, kmeans_max_iters=50)
        pair = parse_toy_pair()
        first = division_files(divide(*pair, 3, cfg), pair, tmp_path / "a")
        provenance = dict(read_division(tmp_path / "a").provenance)
        del provenance["version"], provenance["numpy"]
        rebuilt = DivisionConfig(**provenance)
        assert rebuilt == cfg
        pair = parse_toy_pair()  # a fresh pair redoes index and training
        again = division_files(divide(*pair, 3, rebuilt), pair,
                               tmp_path / "b")
        assert again == first

    def test_smaller_division_removes_stale_tasks(self, toy_pair, tmp_path):
        out = tmp_path / "div"
        write_division(divide(*toy_pair, 4, FAST), toy_pair, out)
        (out / "notes.txt").write_text("not part of the division")
        (out / "task_9").mkdir()  # not listed in division.json
        write_division(divide(*toy_pair, 2, FAST), toy_pair, out)
        assert sorted(p.name for p in out.iterdir()) == [
            "division.json", "notes.txt", "task_0", "task_1", "task_9"]
        assert read_division(out).n == 2

    def test_unreadable_division_json_removes_nothing(self, toy_pair,
                                                      tmp_path):
        out = tmp_path / "div"
        write_division(divide(*toy_pair, 4, FAST), toy_pair, out)
        (out / "division.json").write_text("{not json")
        write_division(divide(*toy_pair, 2, FAST), toy_pair, out)
        assert sorted(p.name for p in out.iterdir()) == [
            "division.json", "task_0", "task_1", "task_2", "task_3"]

    def test_failed_write_leaves_no_division(self, toy_pair, tmp_path):
        """A write that fails after its first task leaves no division.json,
        so the old division's other tasks do not read back as the new's."""
        out = tmp_path / "div"
        div = divide(*toy_pair, 2, FAST)
        write_division(div, toy_pair, out)
        bad = EntityRef("http://x#bad>")
        task = div.subtasks[1]
        broken = replace(div, subtasks=(div.subtasks[0], replace(
            task, source=Ontology(task.source.axioms + (Declaration(bad),)))))
        with pytest.raises(ValueError, match="cannot write IRI"):
            write_division(broken, toy_pair, out)
        assert not (out / "division.json").exists()
        with pytest.raises(FileNotFoundError):
            read_division(out)

    def test_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_division(tmp_path / "nope")

    @pytest.mark.parametrize("meta", [
        {"n": 1},
        {"tasks": []},
        {"n": "1", "tasks": []},
        {"n": True, "tasks": []},
        {"n": 1, "tasks": {}},
        {"n": 1, "tasks": [{"source_signature": 3}]},
        {"n": 1, "tasks": [{"task": "0"}]},
        {"n": 1, "tasks": [0]},
        [],
        {"n": 3, "tasks": [{"task": 0}, {"task": 1}]},
        {"n": 2, "tasks": [{"task": 0}, {"task": 0}]},
    ])
    def test_malformed_division_json_rejected(self, tmp_path, meta):
        (tmp_path / "division.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="division.json"):
            read_division(tmp_path)

    @pytest.mark.parametrize("n, ids, message", [
        (3, (0, 1), "n=3 but 2 subtasks"),
        (2, (0, 0), "duplicate task ids"),
    ])
    def test_inconsistent_division_not_written(self, toy_pair, toy_division4,
                                               tmp_path, n, ids, message):
        tasks = tuple(replace(toy_division4.subtasks[i], task_id=task_id)
                      for i, task_id in enumerate(ids))
        div = Division(n, tasks, toy_division4.provenance)
        with pytest.raises(ValueError, match=message):
            write_division(div, toy_pair, tmp_path / "div")
        assert not (tmp_path / "div").exists()
