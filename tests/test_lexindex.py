from concurrent.futures import ThreadPoolExecutor
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import O1_NS, O2_NS
from oracles import (LexValue, entry_map, entry_objects,
                     reference_build_lexi, reference_mappings_of,
                     reference_positive_pairs)

import ontodivide.lexindex
from ontodivide import embedding
from ontodivide.clustering import ClusterAssignment, clusters_to_entries
from ontodivide.config import DivisionConfig
from ontodivide.division import subtask_from_cluster
from ontodivide.embedding import positive_pairs
from ontodivide.lexindex import (Mapping, all_candidate_mappings, build_lexi,
                                 entity_labels, load_default_stopwords,
                                 normalize_label, word_subsets)
from ontodivide.locality import context_of
from ontodivide.ontology import EntityRef, parse_ontology
from ontodivide.stemming import porter_stem

STOPWORDS = load_default_stopwords()


def e1(name):
    return EntityRef(O1_NS + name)


def e2(name):
    return EntityRef(O2_NS + name)


class TestNormalizeLabel:
    def test_lunate_facet_of_hamate(self):
        assert normalize_label("Lunate facet of hamate", STOPWORDS) == \
            {"lunat", "facet", "hamat"}

    def test_all_stopwords(self):
        assert normalize_label("of the", STOPWORDS) == frozenset()

    def test_disorder_of_pregnancy(self):
        # stems frozen from the reference stemmer run
        assert normalize_label("Disorder of pregnancy", STOPWORDS) == \
            {"disord", "pregnanc"}

    def test_punctuation_and_digits(self):
        assert normalize_label("T4-weighted (image)", STOPWORDS) == \
            {"t4", "weight", "imag"}

    def test_duplicates_collapse(self):
        assert normalize_label("bone bone BONE", STOPWORDS) == {"bone"}

    @given(st.text(max_size=40))
    def test_total_on_arbitrary_text(self, label):
        words = normalize_label(label, STOPWORDS)
        assert all(w and w == w.lower() for w in words)


class TestWordSubsets:
    def test_three_words_gives_seven_subsets(self):
        keys = word_subsets({"lunat", "facet", "hamat"}, 50)
        assert len(keys) == 7
        assert ("facet", "lunat") in keys
        assert ("hamat", "lunat") in keys
        assert keys[0] == ("facet", "hamat", "lunat")

    def test_singleton(self):
        assert word_subsets({"disord"}, 50) == [("disord",)]

    def test_five_words_truncated_to_ten(self):
        words = {"a", "b", "c", "d", "e"}
        keys = word_subsets(words, 10)
        # oracle: enumerate sizes 5,4,3 lexicographically and cut at 10
        expected = []
        for size in (5, 4, 3):
            expected.extend(combinations(sorted(words), size))
        assert keys == expected[:10]
        assert [len(k) for k in keys] == [5] + [4] * 5 + [3] * 4

    def test_sizes_bounded_below(self):
        keys = word_subsets({"a", "b", "c", "d", "e"}, 1000)
        assert {len(k) for k in keys} == {3, 4, 5}

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            word_subsets(set(), 10)

    @given(st.sets(st.text(alphabet="abcdefg", min_size=1, max_size=3),
                   min_size=1, max_size=6))
    def test_keys_are_canonical(self, words):
        keys = word_subsets(words, 50)
        assert len(keys) == len(set(keys))
        for key in keys:
            assert tuple(sorted(key)) == key
            assert max(1, len(words) - 2) <= len(key) <= len(words)


class TestBuildLexi:
    def test_disord_entry(self, table1_pair):
        lexi = build_lexi(*table1_pair)
        value = entry_map(lexi)[("disord",)]
        assert value.entities1 == {e1("Disorder_of_pregnancy"),
                                   e1("Disorder_of_stomach")}
        assert value.entities2 == {e2("Pregnancy_Disorder")}

    def test_single_side_entry_removed(self, table1_pair):
        lexi = build_lexi(*table1_pair)
        assert ("hamat", "lunat") not in entry_map(lexi)
        assert ("lunat",) not in entry_map(lexi)
        assert lexi.stats.dropped_single_side > 0

    def test_alpha_filter(self, table1_pair):
        lexi = build_lexi(*table1_pair, DivisionConfig(alpha=2))
        assert ("disord",) not in entry_map(lexi)
        assert lexi.stats.dropped_over_alpha > 0

    def test_every_entry_spans_both_sides_within_alpha(self, toy_pair):
        lexi = build_lexi(*toy_pair)
        for _, value in entry_objects(lexi):
            assert value.entities1 and value.entities2
            assert len(value) <= lexi.alpha

    def test_deterministic_sorted_entries(self, toy_pair):
        a = build_lexi(*toy_pair)
        b = build_lexi(*toy_pair)
        assert entry_objects(a) == entry_objects(b)
        assert a == b

    def test_threads_get_serial_entries(self, toy_pair,
                                        fast_thread_switching):
        serial = build_lexi(*toy_pair)
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(build_lexi, *toy_pair) for _ in range(4)]
            assert all(f.result(timeout=60) == serial for f in futures)

    def test_shared_stem_entities_co_occur_before_alpha(self, toy_pair):
        # with a huge alpha nothing is size-filtered, so any cross-ontology
        # pair sharing a stem must meet in some entry (toy labels are short
        # enough that singleton keys always exist)
        o1, o2 = toy_pair
        lexi = build_lexi(o1, o2, DivisionConfig(alpha=10_000))

        def stems(onto, ent):
            out = set()
            for label in entity_labels(onto, ent):
                out |= normalize_label(label, STOPWORDS)
            return out

        stems1 = {ent: stems(o1, ent) for ent in o1.signature}
        stems2 = {ent: stems(o2, ent) for ent in o2.signature}
        for ent1, s1 in stems1.items():
            for ent2, s2 in stems2.items():
                if s1 & s2:
                    assert any(ent1 in v.entities1 and ent2 in v.entities2
                               for v in entry_map(lexi).values()), (ent1, ent2)


def entries_from_normalize_label(o1, o2, cfg):
    """The kept entries, each label normalised by `normalize_label` alone."""
    accum = {}
    for side, onto in ((0, o1), (1, o2)):
        for ent in onto.signature:
            for label in entity_labels(onto, ent):
                words = normalize_label(label, STOPWORDS)
                keys = word_subsets(words, cfg.max_subsets) if words else []
                for key in keys:
                    accum.setdefault(key, (set(), set()))[side].add(ent)
    return {key: LexValue(frozenset(s1), frozenset(s2))
            for key, (s1, s2) in accum.items()
            if s1 and s2 and len(s1) + len(s2) <= cfg.alpha}


def random_labelled_ontology(rng, ns, size):
    """Classes labelled from a small vocabulary of inflected words."""
    stems = ["bone", "connect", "nerv", "muscl", "cell", "lobe", "gland"]
    endings = ["", "s", "ed", "ing", "ion", "ional", "ness", "ly", "al"]
    glue = [" ", "  ", "-", "_", ", ", "/"]
    lines = [f"Prefix(:=<{ns}>)", f"Ontology(<{ns.rstrip('#')}>"]
    for i in range(size):
        lines.append(f"  Declaration(Class(:C{i}))")
        for _ in range(int(rng.integers(0, 3))):
            words = []
            for _ in range(int(rng.integers(1, 6))):
                pick = rng.random()
                if pick < 0.15:
                    words.append(str(rng.choice(["of", "the", "And"])))
                elif pick < 0.25:
                    words.append(f"T{int(rng.integers(0, 9))}")
                else:
                    word = str(rng.choice(stems)) + str(rng.choice(endings))
                    words.append(word.upper() if pick > 0.9 else word)
            label = "".join(w + str(rng.choice(glue)) for w in words)
            lines.append(f'  AnnotationAssertion(rdfs:label :C{i} "{label}")')
    lines.append(")")
    return parse_ontology("\n".join(lines))


class TestStemOncePerBuild:
    """`build_lexi` stems each distinct token once, as `normalize_label`."""

    def test_toy_pair(self, toy_pair):
        cfg = DivisionConfig()
        assert entry_map(build_lexi(*toy_pair, cfg)) == \
            entries_from_normalize_label(*toy_pair, cfg)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_labels(self, seed):
        rng = np.random.default_rng(seed)
        o1 = random_labelled_ontology(rng, O1_NS, 40)
        o2 = random_labelled_ontology(rng, O2_NS, 40)
        cfg = DivisionConfig(alpha=int(rng.integers(2, 40)),
                             max_subsets=int(rng.integers(1, 10)))
        expected = entries_from_normalize_label(o1, o2, cfg)
        assert expected
        assert entry_map(build_lexi(o1, o2, cfg)) == expected

    def test_one_stem_per_distinct_token_and_build(self, toy_pair,
                                                   monkeypatch):
        calls = []

        def counting_stem(token):
            calls.append(token)
            return porter_stem(token)

        monkeypatch.setattr(ontodivide.lexindex, "porter_stem",
                            counting_stem)
        build_lexi(*toy_pair)
        assert calls and len(calls) == len(set(calls))
        first = len(calls)
        build_lexi(*toy_pair)  # nothing carries over between builds
        assert len(calls) == 2 * first


class TestMappings:
    def test_row_one_yields_two_mappings(self, table1_pair):
        lexi = build_lexi(*table1_pair)
        keys = [key for key, _ in entry_objects(lexi)]
        ms = lexi.mappings([keys.index(("disord",))])
        assert len(ms) == 2
        assert Mapping(e1("Disorder_of_stomach"),
                       e2("Pregnancy_Disorder")) in ms
        assert all(m.relation == "=" and m.confidence == 1.0 for m in ms)

    def test_empty(self, table1_pair):
        assert build_lexi(*table1_pair).mappings([]) == frozenset()

    def test_far_smaller_than_cartesian_product(self, toy_pair):
        o1, o2 = toy_pair
        lexi = build_lexi(o1, o2)
        ms = all_candidate_mappings(lexi)
        cartesian = len(o1.signature) * len(o2.signature)
        assert 0 < len(ms) < cartesian / 2

    def test_monotone_in_entries(self, toy_pair):
        lexi = build_lexi(*toy_pair)
        ids = range(len(lexi))
        for cut in (0, 1, len(ids) // 2, len(ids)):
            smaller = lexi.mappings(ids[:cut])
            assert smaller <= lexi.mappings(ids)

    def test_identity_ignores_confidence(self):
        a = Mapping(e1("A"), e2("B"), confidence=0.5)
        b = Mapping(e1("A"), e2("B"), confidence=0.9)
        assert a == b
        assert len({a, b}) == 1

    def test_relation_distinguishes(self):
        a = Mapping(e1("A"), e2("B"), "=")
        b = Mapping(e1("A"), e2("B"), "<")
        assert a != b

    def test_validation(self):
        with pytest.raises(ValueError):
            Mapping(e1("A"), e2("B"), "~")
        with pytest.raises(ValueError):
            Mapping(e1("A"), e2("B"), confidence=0.0)


# --- the integer index against the 0.2.0 object index -----------------------

SHARED = "http://example.org/shared#"
WORDS = ["bone", "Bones", "nerve", "nervous", "cell", "cells", "lobe",
         "gland", "of", "the", "T4", "muscle", "muscular"]


@st.composite
def labelled_pairs(draw):
    """Two small ontologies that hold, besides random labelled entities:
    an IRI both declare as a class, one declared as a class in the source
    and as a property in the target, labels of stop-words only, a word of
    one side only, two labels that give one key, and an entity labelled by
    its IRI fragment."""
    texts = []
    for side, (ns, kind) in enumerate(((O1_NS, "Class"),
                                       (O2_NS, "ObjectProperty"))):
        lines = [f"Prefix(:=<{ns}>)", f"Ontology(<{ns.rstrip('#')}>",
                 f"Declaration(Class(<{SHARED}X>))",
                 f'AnnotationAssertion(rdfs:label <{SHARED}X> "bone cell")',
                 f"Declaration({kind}(<{SHARED}Y>))",
                 f'AnnotationAssertion(rdfs:label <{SHARED}Y> "gland")',
                 "Declaration(Class(:Empty))",
                 'AnnotationAssertion(rdfs:label :Empty "of the")',
                 "Declaration(Class(:Only))",
                 f'AnnotationAssertion(rdfs:label :Only '
                 f'"{("lunate", "hamate")[side]} bone")',
                 "Declaration(Class(:Twice))",
                 'AnnotationAssertion(rdfs:label :Twice "Nerve cell")',
                 'AnnotationAssertion(rdfs:label :Twice "cells of nerves")',
                 "Declaration(ObjectProperty(:part_of))"]
        for i in range(draw(st.integers(0, 12))):
            kind_i = draw(st.sampled_from(["Class", "Class", "ObjectProperty",
                                           "NamedIndividual"]))
            lines.append(f"Declaration({kind_i}(:E{i}))")
            labels = draw(st.lists(st.lists(st.sampled_from(WORDS),
                                            min_size=1, max_size=4),
                                   max_size=2))
            lines += [f'AnnotationAssertion(rdfs:label :E{i} '
                      f'"{" ".join(words)}")' for words in labels]
        lines.append(")")
        texts.append("\n".join(lines))
    return parse_ontology(texts[0]), parse_ontology(texts[1])


class TestIntegerIndex:
    """`build_lexi`, the trainer's arrays, and the candidates and modules
    of any entry clustering, against the 0.2.0 index of entity objects."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(labelled_pairs(), st.data())
    def test_same_as_object_index(self, pair, data):
        o1, o2 = pair
        max_subsets = data.draw(st.integers(1, 10))
        wide = DivisionConfig(alpha=10_000, max_subsets=max_subsets)
        sizes = sorted({len(v) for v in reference_build_lexi(
            o1, o2, wide).entries.values()})
        # an alpha that some entry meets exactly
        cfg = DivisionConfig(alpha=data.draw(st.sampled_from(sizes)),
                             max_subsets=max_subsets)
        old, new = reference_build_lexi(o1, o2, cfg), build_lexi(o1, o2, cfg)
        assert new.stats == old.stats
        assert new.stats.dropped_single_side
        assert len(new) == len(old) and entry_map(new) == old.entries
        assert entry_objects(new) == old.sorted_entries
        assert any(len(v) == cfg.alpha for v in old.entries.values())

        enc = old.encoding
        entities, value_rows = embedding._value_rows(new)
        assert (new.words, entities) == (enc.words, enc.entities)
        for got, want in ((new.key_words, enc.key_words),
                          (np.diff(new.key_ptr), enc.key_sizes),
                          (value_rows, enc.value_entities),
                          (np.diff(new.value_ptr), enc.value_sizes),
                          *zip(embedding._pairs(new, value_rows),
                               enc.pairs)):
            assert np.array_equal(got, want)
        assert positive_pairs(new) == reference_positive_pairs(old)

        drawn = data.draw(st.lists(st.integers(0, 3), min_size=len(new),
                                   max_size=len(new)))
        _, labels = np.unique(drawn, return_inverse=True)  # no empty cluster
        asg = ClusterAssignment(int(labels.max()) + 1, labels,
                                np.zeros((labels.max() + 1, 1)), 0.0, 1,
                                (0.0,))
        for c, got in enumerate(clusters_to_entries(asg, new)):
            want = reference_mappings_of(
                [old.sorted_entries[i] for i in np.flatnonzero(labels == c)])
            # the same refs, kinds included, for the same IRI pairs
            assert {m.key: (m.e1, m.e2) for m in got} \
                == {m.key: (m.e1, m.e2) for m in want}
            task = subtask_from_cluster(got, o1, o2, c)
            assert task.candidates == got and task.task_id == c
            assert (task.source, task.target) == context_of(want, o1, o2)
        assert all_candidate_mappings(new) \
            == reference_mappings_of(old.sorted_entries)
