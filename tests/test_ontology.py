import numpy as np
import pytest

from conftest import ANNOTATED_BEFORE_USE, TOY1_NS, load_toy_text
from oracles import random_ontology, reference_parse_ontology

from ontodivide.errors import OfnSyntaxError, UnsupportedConstructError
from ontodivide.ontology import (CLASS, INDIVIDUAL, MAX_EXPR_DEPTH,
                                 OBJECT_PROPERTY, AnnotationAssertion,
                                 Declaration, EntityRef,
                                 EquivalentClasses, NamedClass, Ontology,
                                 SomeValuesFrom, SubClassOf,
                                 SubObjectPropertyOf, axiom_signature,
                                 entity_labels, expr_entities, fragment_label,
                                 parse_ontology, read_ontology, serialize)

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

    @pytest.mark.parametrize("text", [
        "Declaration(Class(:A)) Declaration(ObjectProperty(:A))",
        "SubClassOf(:A :B)\nDeclaration(NamedIndividual(:B))",
        "Declaration(ObjectProperty(:r)) SubClassOf(:r :B)",
        "SubClassOf(:A ObjectSomeValuesFrom(:r :B)) SubClassOf(:r :A)",
        "SubClassOf(:A :B) SubObjectPropertyOf(:r :A)",
        'AnnotationAssertion(rdfs:label :r "r")'
        " Declaration(ObjectProperty(:r)) SubClassOf(:r :A)",
        "Declaration(Class(:A)) Declaration(Class(:A)) SubClassOf(:A :A)",
        "SubClassOf(:A :B) Declaration(Class(:B)) SubClassOf(:B :A)",
    ])
    def test_kinds_as_the_reference_parser(self, text):
        # a kind is fixed by the first declaration or use, in either order
        def outcome(parse):
            try:
                return serialize(parse(text))
            except OfnSyntaxError as exc:
                return type(exc), str(exc), exc.line, exc.column

        assert outcome(parse_ontology) == outcome(reference_parse_ontology)

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

    def test_one_entity_ref_per_iri_and_kind(self):
        onto = parse_ontology(ANNOTATED_BEFORE_USE)
        refs = []
        for a in onto.axioms:
            if isinstance(a, Declaration):
                refs.append(a.entity)
            elif isinstance(a, AnnotationAssertion):
                refs.append(a.subject)
            elif isinstance(a, SubObjectPropertyOf):
                refs += [a.sub, a.sup]
            else:
                parts = a.parts if isinstance(a, EquivalentClasses) \
                    else (a.sub, a.sup)
                refs += [e for p in parts for e in expr_entities(p)]
        one = {}
        for ref in refs:
            assert one.setdefault((ref.iri, ref.kind), ref) is ref
        assert len(refs) == 25
        assert sorted(one) == sorted(
            (NS + name, CLASS) for name in "ABCZ") + [
            (NS + "i", INDIVIDUAL),
            (NS + "r", OBJECT_PROPERTY), (NS + "s", OBJECT_PROPERTY)]
        assert not hasattr(refs[0], "__dict__")  # slots

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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"])
    def test_comment_ends_at_any_line_end(self, tmp_path, end):
        lines = ["# two classes", "Declaration(Class(:A))", "# and one axiom",
                 "SubClassOf(:A :B)"]
        path = tmp_path / "ends.ofn"
        path.write_bytes(end.join(lines).encode("utf-8"))
        onto = read_ontology(path)
        assert onto == parse_ontology("\n".join(lines))
        assert len(onto.axioms) == 3  # :B is auto-declared


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
            again = parse_ontology(serialize(onto))
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
        again = parse_ontology(serialize(o1))
        mitral = EntityRef(TOY1_NS + "Mitral_valve")
        assert entity_labels(again, mitral) == \
            ["Mitral valve", "Left atrioventricular valve"]
