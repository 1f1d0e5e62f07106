import time

import numpy as np
import pytest

from conftest import TOY1_NS, TOY2_NS
from oracles import (is_bot_equivalent, is_local, is_top_equivalent,
                     random_ontology, random_signature,
                     reference_extract_module, semantically_bot,
                     semantically_local, semantically_top)

from ontodivide._ofn import serialize
from ontodivide.errors import InvariantError
from ontodivide.lexindex import Mapping
from ontodivide.locality import _LocalityGraph, context_of, extract_module
from ontodivide.metrics import Alignment, coverage
from ontodivide.ontology import (CLASS, OBJECT_PROPERTY, AnnotationAssertion,
                                 Declaration, EntityRef, EquivalentClasses,
                                 IntersectionOf, NamedClass, Nothing,
                                 Ontology, SomeValuesFrom, SubClassOf,
                                 SubObjectPropertyOf, Thing, UnionOf,
                                 parse_ontology)

NS = "http://example.org/ontology#"
A = EntityRef(NS + "A")
B = EntityRef(NS + "B")
C = EntityRef(NS + "C")
R = EntityRef(NS + "r", OBJECT_PROPERTY)


class TestBotEquivalence:
    def test_name_outside_signature(self):
        assert is_bot_equivalent(NamedClass(A), frozenset())
        assert semantically_bot(NamedClass(A), frozenset())

    def test_name_inside_signature(self):
        assert not is_bot_equivalent(NamedClass(A), {A})

    def test_thing_never_bot(self):
        assert not is_bot_equivalent(Thing(), frozenset())

    def test_nothing_always_bot(self):
        assert is_bot_equivalent(Nothing(), {A, B})

    def test_restriction_with_unknown_property(self):
        expr = SomeValuesFrom(R, NamedClass(B))
        sig = frozenset({B})
        assert is_bot_equivalent(expr, sig)
        assert semantically_bot(expr, sig)

    def test_intersection_union(self):
        bot = NamedClass(A)  # A outside sig
        live = NamedClass(B)
        sig = frozenset({B})
        assert is_bot_equivalent(IntersectionOf((live, bot)), sig)
        assert not is_bot_equivalent(UnionOf((live, bot)), sig)
        assert is_bot_equivalent(UnionOf((bot, bot)), sig)


class TestTopEquivalence:
    def test_thing(self):
        assert is_top_equivalent(Thing(), frozenset())
        assert semantically_top(Thing(), frozenset())

    def test_union_with_thing(self):
        expr = UnionOf((NamedClass(A), Thing()))
        assert is_top_equivalent(expr, frozenset())
        assert semantically_top(expr, frozenset())

    def test_intersection_with_live_name(self):
        expr = IntersectionOf((Thing(), NamedClass(A)))
        sig = frozenset({B})
        assert not is_top_equivalent(expr, sig)
        # A is substituted by bottom here, so semantically bot, not top
        assert not semantically_top(expr, sig)

    def test_named_never_top(self):
        assert not is_top_equivalent(NamedClass(A), {A})


class TestIsLocal:
    def test_subclass_seed_on_sub_side(self):
        ax = SubClassOf(NamedClass(A), NamedClass(B))
        assert not is_local(ax, {A})
        # the oracle confirms substituting B by bottom is no tautology
        assert not semantically_local(ax, {A})

    def test_subclass_seed_on_sup_side(self):
        ax = SubClassOf(NamedClass(A), NamedClass(B))
        assert is_local(ax, {B})
        assert semantically_local(ax, {B})

    def test_equivalence_partial_signature(self):
        ax = EquivalentClasses((NamedClass(A), NamedClass(B)))
        assert not is_local(ax, {A})
        assert not semantically_local(ax, {A})

    def test_subproperty(self):
        from ontodivide.ontology import SubObjectPropertyOf
        sp = SubObjectPropertyOf(R, EntityRef(NS + "s", OBJECT_PROPERTY))
        assert is_local(sp, frozenset())
        assert semantically_local(sp, frozenset())
        assert not is_local(sp, {R})

    def test_tautology_is_local(self):
        ax = SubClassOf(NamedClass(A), Thing())
        assert is_local(ax, {A})
        assert semantically_local(ax, {A})

    def test_declarations_and_annotations_local(self):
        assert is_local(Declaration(A), {A})


class TestRandomSoundness:
    def test_syntactic_local_implies_semantic(self):
        rng = np.random.default_rng(2024)
        for _ in range(80):
            onto = random_ontology(rng)
            sig = random_signature(rng, onto)
            for ax in onto.logical_axioms:
                if is_local(ax, sig):
                    assert semantically_local(ax, sig), (ax, sorted(sig))


CHAIN = """
Declaration(Class(:A)) Declaration(Class(:B)) Declaration(Class(:C))
SubClassOf(:A :B)
SubClassOf(:B :C)
"""


class TestExtractModule:
    def test_chain_pulled_in_transitively(self):
        onto = parse_ontology(CHAIN)
        module = extract_module(onto, {A})
        logical = set(module.logical_axioms)
        assert logical == set(onto.logical_axioms)
        assert module.signature == {A, B, C}

    def test_chain_from_top_is_empty(self):
        onto = parse_ontology(CHAIN)
        module = extract_module(onto, {C})
        assert module.logical_axioms == ()
        assert module.signature == {C}

    def test_full_seed_keeps_all_non_tautologies(self, toy_pair):
        o1, _ = toy_pair
        module = extract_module(o1, o1.signature)
        assert set(module.logical_axioms) == set(o1.logical_axioms)

    def test_tautologies_stay_out(self):
        onto = parse_ontology(
            "Declaration(Class(:A)) SubClassOf(:A owl:Thing)")
        module = extract_module(onto, {A})
        assert module.logical_axioms == ()

    def test_unknown_seed_ignored_with_warning(self, caplog):
        onto = parse_ontology(CHAIN)
        with caplog.at_level("WARNING"):
            module = extract_module(onto, {A, EntityRef(NS + "Ghost")})
        assert "outside the signature" in caplog.text
        assert module.axioms == extract_module(onto, {A}).axioms

    def test_iri_of_two_kinds_refused(self):
        # one IRI names one entity: the module must not depend on which of
        # A's two refs a frozenset yields last
        a_prop = EntityRef(A.iri, OBJECT_PROPERTY)
        onto = Ontology((Declaration(A), Declaration(a_prop),
                         SubObjectPropertyOf(a_prop, R)))
        with pytest.raises(ValueError,
                           match="#A declared as class and object-property"):
            extract_module(onto, {A})

    def test_lost_seed_raises(self, monkeypatch):
        """A closure that loses a seed's declaration is caught."""
        onto = parse_ontology(CHAIN)
        declare_a = onto.axioms.index(Declaration(A))
        closure = _LocalityGraph.closure
        monkeypatch.setattr(_LocalityGraph, "closure", lambda self, seed: [
            i for i in closure(self, seed) if i != declare_a])
        with pytest.raises(InvariantError, match="lost part of its seed"):
            extract_module(onto, {A})

    def test_monotone_in_seed(self, toy_pair):
        o1, _ = toy_pair
        rng = np.random.default_rng(5)
        entities = sorted(o1.signature)
        for _ in range(20):
            small = {e for e in entities if rng.random() < 0.3}
            extra = {e for e in entities if rng.random() < 0.3}
            m_small = extract_module(o1, small)
            m_big = extract_module(o1, small | extra)
            assert set(m_small.axioms) <= set(m_big.axioms)

    def test_self_contained_fixpoint(self, toy_pair):
        o1, _ = toy_pair
        rng = np.random.default_rng(11)
        entities = sorted(o1.signature)
        for _ in range(10):
            seed = {e for e in entities if rng.random() < 0.4}
            module = extract_module(o1, seed)
            again = extract_module(module, seed)
            assert set(again.axioms) == set(module.axioms)

    def test_module_annotations_attached(self, toy_pair):
        o1, _ = toy_pair
        mitral = EntityRef(TOY1_NS + "Mitral_valve")
        module = extract_module(o1, {mitral})
        from ontodivide.lexindex import entity_labels
        assert entity_labels(module, mitral) == \
            ["Mitral valve", "Left atrioventricular valve"]


RDFS_LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


def _shuffled_variant(rng, onto: Ontology) -> Ontology:
    """`onto` with top axioms, labels, a duplicate and a missing
    declaration mixed in, in random axiom order."""
    decls = [a for a in onto.axioms if isinstance(a, Declaration)]
    classes = [d.entity for d in decls if d.entity.kind == CLASS]
    axioms = [d for d in decls if rng.random() < 0.9]
    axioms += onto.logical_axioms
    if rng.random() < 0.3:
        axioms.append(SubClassOf(Thing(),
                                 NamedClass(classes[rng.integers(3)])))
    if rng.random() < 0.1:
        axioms.append(SubClassOf(Thing(), Nothing()))
    if onto.logical_axioms and rng.random() < 0.2:
        axioms.append(onto.logical_axioms[0])
    for d in decls:
        axioms += [AnnotationAssertion(d.entity, RDFS_LABEL, f"label {k}")
                   for k in range(int(rng.integers(0, 3)))]
    order = rng.permutation(len(axioms))
    return Ontology(tuple(axioms[i] for i in order), iri=onto.iri)


def _seed(rng, onto: Ontology, base: str) -> frozenset[EntityRef]:
    """Random signature plus, sometimes, an unknown entity and an IRI of the
    signature under the wrong kind."""
    seed = set(random_signature(rng, onto))
    if rng.random() < 0.3:
        seed.add(EntityRef(base + "Ghost"))
    if rng.random() < 0.3:
        seed.add(EntityRef(base + "r", CLASS))
    return frozenset(seed)


class TestExtractModuleDifferential:
    """The indexed extraction equals the whole-ontology reference."""

    def test_random_ontologies(self):
        rng = np.random.default_rng(31)
        unconditional = unknown = 0
        for trial in range(1200):
            base = f"http://example.org/d{trial}#"
            onto = _shuffled_variant(rng, random_ontology(rng, base))
            seed = _seed(rng, onto, base)
            unconditional += any(not is_local(a, frozenset())
                                 for a in onto.axioms)
            unknown += any(e.iri not in onto.entity_by_iri for e in seed)
            assert serialize(extract_module(onto, seed)) == \
                serialize(reference_extract_module(onto, seed)), trial
        # the cases the per-ontology structures must get right did occur
        assert unconditional > 100 and unknown > 100

    def test_graph_linear_in_expression_size(self):
        # as a DNF the first subclass would need 2**40 conjuncts
        names = [EntityRef(f"{NS}X{k}") for k in range(81)]
        wide = IntersectionOf(tuple(
            UnionOf((NamedClass(names[2 * k]), NamedClass(names[2 * k + 1])))
            for k in range(40)))
        deep = NamedClass(names[0])
        for k in range(100):
            deep = SomeValuesFrom(R, deep) if k % 2 else \
                IntersectionOf((deep, NamedClass(names[k % 81])))
        decls = tuple(Declaration(e) for e in (*names, R))
        for sub in (wide, deep):
            onto = Ontology(decls + (SubClassOf(sub, NamedClass(names[80])),))
            for seed in (names[:40], names[::2], [*names, R]):
                start = time.monotonic()
                module = extract_module(onto, seed)
                assert time.monotonic() - start < 1.0
                assert serialize(module) == \
                    serialize(reference_extract_module(onto, seed))

    def test_toy_pair_random_seeds(self, toy_pair):
        rng = np.random.default_rng(8)
        for onto in toy_pair:
            entities = sorted(onto.signature)
            for _ in range(60):
                share = rng.random() * 0.3
                seed = {e for e in entities if rng.random() < share}
                if rng.random() < 0.2:
                    seed.add(EntityRef(entities[0].iri + "_ghost"))
                assert serialize(extract_module(onto, seed)) == \
                    serialize(reference_extract_module(onto, seed))


class TestContext:
    def test_empty_alignment(self, toy_pair):
        left, right = context_of([], *toy_pair)
        assert left.axioms == ()
        assert right.axioms == ()

    def test_single_mapping_definition(self, toy_pair):
        o1, o2 = toy_pair
        heart1 = EntityRef(TOY1_NS + "Heart")
        heart2 = EntityRef(TOY2_NS + "Heart")
        left, right = context_of([Mapping(heart1, heart2)], o1, o2)
        assert left.axioms == \
            extract_module(o1, {heart1}).axioms
        assert right.axioms == \
            extract_module(o2, {heart2}).axioms

    def test_context_covers_its_alignment(self, toy_pair):
        o1, o2 = toy_pair
        rng = np.random.default_rng(3)
        sig1 = sorted(o1.signature)
        sig2 = sorted(o2.signature)
        for _ in range(10):
            mappings = frozenset(
                Mapping(sig1[rng.integers(len(sig1))],
                        sig2[rng.integers(len(sig2))])
                for _ in range(int(rng.integers(1, 8))))
            left, right = context_of(mappings, o1, o2)
            task = _task(left, right, mappings)
            assert coverage(task, Alignment(mappings)) == mappings

    def test_out_of_signature_mapping_dropped(self, toy_pair, caplog):
        o1, o2 = toy_pair
        ghost = Mapping(EntityRef(TOY1_NS + "Ghost"),
                        EntityRef(TOY2_NS + "Heart"))
        with caplog.at_level("WARNING"):
            left, _ = context_of([ghost], o1, o2)
        assert "dropped 1 mapping" in caplog.text
        assert left.axioms == ()


def _task(left, right, mappings):
    from ontodivide.division import MatchingTask
    return MatchingTask(left, right, frozenset(mappings))
