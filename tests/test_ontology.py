import numpy as np
import pytest

from conftest import TOY1_NS, load_toy_text
from oracles import random_ontology

from ontodivide.errors import OfnSyntaxError, UnsupportedConstructError
from ontodivide.ontology import (CLASS, MAX_EXPR_DEPTH, OBJECT_PROPERTY,
                                 AnnotationAssertion, Declaration, EntityRef,
                                 NamedClass, Ontology, SomeValuesFrom,
                                 SubClassOf, axiom_signature, entity_labels,
                                 fragment_label, parse_ontology,
                                 read_ontology, serialize)

NS = "http://example.org/ontology#"  # default prefix expansion


def nested_axiom(depth: int) -> str:
    """`SubClassOf` whose superclass nests `depth` constructors."""
    expr = ":B"
    for i in range(depth):
        expr = f"ObjectIntersectionOf(:A {expr})" if i % 2 \
            else f"ObjectSomeValuesFrom(:r {expr})"
    return f"SubClassOf(:A {expr})"


class TestParsing:
    def test_minimal_input_with_auto_declaration(self, caplog):
        onto = parse_ontology("Declaration(Class(:A)) SubClassOf(:A :B)")
        assert len(onto.axioms) == 3
        kinds = [type(a).__name__ for a in onto.axioms]
        assert kinds == ["Declaration", "SubClassOf", "Declaration"]
        assert onto.axioms[2].entity == EntityRef(NS + "B")

    def test_auto_declaration_warns(self, caplog):
        with caplog.at_level("WARNING"):
            parse_ontology("SubClassOf(:A :B)")
        assert "auto-declared" in caplog.text

    def test_equivalent_classes_arity(self):
        with pytest.raises(OfnSyntaxError,
                           match="EquivalentClasses requires ≥ 2 members"):
            parse_ontology("EquivalentClasses(:A)")

    def test_unknown_construct_named(self):
        with pytest.raises(UnsupportedConstructError,
                           match="DisjointClasses"):
            parse_ontology("DisjointClasses(:A :B)")

    def test_unknown_expression_named(self):
        with pytest.raises(UnsupportedConstructError,
                           match="ObjectAllValuesFrom"):
            parse_ontology(
                "SubClassOf(:A ObjectAllValuesFrom(:r :B))")

    def test_syntax_error_carries_position(self):
        with pytest.raises(OfnSyntaxError) as err:
            parse_ontology("SubClassOf(:A\n  %")
        assert err.value.line == 2
        assert err.value.column == 3

    @pytest.mark.parametrize("char", ["\t", "\r", "\n"])
    def test_control_character_in_iri_rejected(self, char):
        text = ("Declaration(Class(:A))\n"
                f"Declaration(Class(<http://a#x{char}y>))")
        with pytest.raises(OfnSyntaxError, match="control character") as err:
            parse_ontology(text)
        assert err.value.line == 2
        assert err.value.column == 30  # the character itself

    def test_kind_conflict_rejected(self):
        with pytest.raises(OfnSyntaxError, match="already known"):
            parse_ontology("Declaration(ObjectProperty(:r)) SubClassOf(:r :B)")

    def test_undeclared_prefix(self):
        with pytest.raises(OfnSyntaxError, match="undeclared prefix"):
            parse_ontology("Declaration(Class(foo:A))")

    def test_comments_and_prefixes(self):
        onto = parse_ontology(
            "Prefix(m:=<http://x.org/m#>)\n"
            "# nothing to see\n"
            "Declaration(Class(m:A)) # trailing\n")
        assert onto.signature == {EntityRef("http://x.org/m#A")}

    def test_parsing_is_deterministic(self):
        text = load_toy_text("anatomy_toy_1.ofn")
        assert parse_ontology(text) == parse_ontology(text)

    def test_toy_fixture_counts(self):
        # independent check: scan the raw text for declaration lines
        text = load_toy_text("anatomy_toy_1.ofn")
        class_lines = text.count("Declaration(Class(")
        prop_lines = text.count("Declaration(ObjectProperty(")
        assert class_lines == 30
        assert prop_lines == 2
        onto = parse_ontology(text)
        sig = onto.signature
        assert sum(1 for e in sig if e.kind == CLASS) == class_lines
        assert sum(1 for e in sig if e.kind == OBJECT_PROPERTY) == prop_lines


class TestReadOntology:
    def test_byte_order_mark_skipped(self, tmp_path):
        text = "Declaration(Class(:A)) SubClassOf(:A :B)"
        path = tmp_path / "bom.ofn"
        path.write_text("\ufeff" + text, encoding="utf-8")
        assert read_ontology(path) == parse_ontology(text)


class TestNestingLimit:
    def test_limit_parses_and_round_trips(self):
        onto = parse_ontology(nested_axiom(MAX_EXPR_DEPTH))
        text = serialize(onto)
        assert parse_ontology(text) == onto

    def test_past_limit_rejected_at_the_keyword(self):
        text = "\n" + nested_axiom(MAX_EXPR_DEPTH + 1)
        with pytest.raises(OfnSyntaxError,
                           match=f"nested deeper than {MAX_EXPR_DEPTH}") as err:
            parse_ontology(text)
        assert err.value.line == 2
        assert err.value.column == text.rindex("Object")


class TestSignature:
    def test_empty_ontology(self):
        assert Ontology(()).signature == frozenset()

    def test_auto_declared_included(self):
        onto = parse_ontology("Declaration(Class(:A)) SubClassOf(:A :B)")
        assert onto.signature == {EntityRef(NS + "A"), EntityRef(NS + "B")}

    def test_signature_equals_union_of_axiom_signatures(self, toy_pair):
        for onto in toy_pair:
            from_axioms = frozenset()
            for a in onto.logical_axioms:
                from_axioms |= axiom_signature(a)
            declared = onto.signature
            assert from_axioms <= declared
            assert declared == from_axioms | declared


class TestAxiomSignature:
    def test_subclass_with_restriction(self):
        a = EntityRef(NS + "A")
        r = EntityRef(NS + "r", OBJECT_PROPERTY)
        b = EntityRef(NS + "B")
        ax = SubClassOf(NamedClass(a), SomeValuesFrom(r, NamedClass(b)))
        assert axiom_signature(ax) == {a, r, b}

    def test_declaration(self):
        a = EntityRef(NS + "A")
        assert axiom_signature(Declaration(a)) == {a}

    def test_annotation_subject_only(self):
        a = EntityRef(NS + "A")
        ax = AnnotationAssertion(a, "http://www.w3.org/2000/01/rdf-schema#label", "x")
        assert axiom_signature(ax) == {a}


class TestLabels:
    def test_fragment_fallback_spaces_underscores(self):
        onto = parse_ontology("Declaration(Class(:Lunate_facet_of_hamate))")
        labels = entity_labels(onto, EntityRef(NS + "Lunate_facet_of_hamate"))
        assert labels == ["Lunate facet of hamate"]

    def test_fragment_fallback_camel_case(self):
        onto = parse_ontology("Declaration(Class(:PregnancyDisorder))")
        labels = entity_labels(onto, EntityRef(NS + "PregnancyDisorder"))
        assert labels == ["Pregnancy Disorder"]

    def test_annotation_order_preserved(self):
        onto = parse_ontology(
            'Declaration(Class(:A))\n'
            'AnnotationAssertion(rdfs:label :A "Basaloid carcinoma")\n'
            'AnnotationAssertion(oboInOwl:hasExactSynonym :A "Basaloid Ca")\n')
        assert entity_labels(onto, EntityRef(NS + "A")) == \
            ["Basaloid carcinoma", "Basaloid Ca"]

    def test_non_label_properties_ignored(self):
        onto = parse_ontology(
            'Declaration(Class(:A))\n'
            'AnnotationAssertion(rdfs:comment :A "not a label")\n')
        assert entity_labels(onto, EntityRef(NS + "A")) == ["A"]

    def test_unknown_entity_rejected(self):
        onto = parse_ontology("Declaration(Class(:A))")
        with pytest.raises(ValueError, match="not in signature"):
            entity_labels(onto, EntityRef(NS + "Z"))

    def test_fragment_label_shapes(self):
        assert fragment_label("http://x.org/o#HeartValve") == "Heart Valve"
        assert fragment_label("http://x.org/o/Tail_vertebra") == "Tail vertebra"


class TestRoundTrip:
    def test_toy_pair(self, toy_pair):
        for onto in toy_pair:
            again = parse_ontology(serialize(onto), onto.label_properties)
            assert set(again.axioms) == set(onto.axioms)
            assert again.signature == onto.signature

    def test_random_ontologies(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            onto = random_ontology(rng)
            again = parse_ontology(serialize(onto))
            assert set(again.axioms) == set(onto.axioms)

    def test_literal_escaping(self):
        onto = parse_ontology(
            'Declaration(Class(:A))\n'
            'AnnotationAssertion(rdfs:label :A "say \\"hi\\" \\\\ bye")\n')
        again = parse_ontology(serialize(onto))
        assert set(again.axioms) == set(onto.axioms)

    def test_toy_labels_survive(self, toy_pair):
        o1, _ = toy_pair
        again = parse_ontology(serialize(o1), o1.label_properties)
        mitral = EntityRef(TOY1_NS + "Mitral_valve")
        assert entity_labels(again, mitral) == \
            ["Mitral valve", "Left atrioventricular valve"]
