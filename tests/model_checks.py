"""Checks of the model's value classes, and of the cyclic collector's pause
around a parse, that need neither pytest nor numpy.

`test_model.py` runs each of them, and runs this file under Python 3.10 as
well where one is installed.  To run it by hand, from the repository root:

    PYTHONPATH=src python tests/model_checks.py
"""

import copy
import dataclasses
import gc
import pickle
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

from ontodivide.division import Division, MatchingTask
from ontodivide.errors import OfnSyntaxError
from ontodivide.lexindex import Mapping
from ontodivide.metrics import Alignment
from ontodivide.ontology import (OBJECT_PROPERTY, AnnotationAssertion,
                                 Declaration, EntityRef, EquivalentClasses,
                                 IntersectionOf, NamedClass, Nothing,
                                 Ontology, SomeValuesFrom, SubClassOf,
                                 SubObjectPropertyOf, Thing, UnionOf,
                                 parse_ontology, read_ontology)

NS = "http://example.org/m#"
LABEL = "http://www.w3.org/2000/01/rdf-schema#label"
A, B = EntityRef(NS + "A"), EntityRef(NS + "B")
R, S = EntityRef(NS + "r", OBJECT_PROPERTY), EntityRef(NS + "s",
                                                       OBJECT_PROPERTY)

EXPRESSIONS = [NamedClass(A), Thing(), Nothing(),
               IntersectionOf((NamedClass(A), NamedClass(B))),
               UnionOf((NamedClass(A), Thing())),
               SomeValuesFrom(R, NamedClass(B))]
AXIOMS = [Declaration(A), Declaration(R),
          SubClassOf(NamedClass(A), SomeValuesFrom(R, NamedClass(B))),
          EquivalentClasses((NamedClass(A), UnionOf((NamedClass(B),
                                                      Nothing())))),
          SubObjectPropertyOf(R, S),
          AnnotationAssertion(A, LABEL, 'a "quoted" label')]
MAPPING = Mapping(A, EntityRef(NS + "X"), "<", 0.5)


def division() -> Division:
    onto = Ontology(tuple(AXIOMS), NS + "o")
    task = MatchingTask(onto, Ontology(tuple(AXIOMS[:2])),
                        frozenset({MAPPING, Mapping(B, A)}), task_id=3)
    return Division(1, (task,), {"seed": 0})


def raises(error: type[Exception], message: str | None, call, *args,
           **kwargs):
    """`call(*args, **kwargs)` raises `error`, with `message` unless it is
    None."""
    try:
        call(*args, **kwargs)
    except error as exc:
        assert message is None or str(exc) == message, str(exc)
        return
    raise AssertionError(f"no {error.__name__}: {message}")


def check_value_classes_have_no_instance_dict():
    for value in [*EXPRESSIONS, *AXIOMS, MAPPING]:
        assert not hasattr(value, "__dict__"), type(value).__name__
    assert {type(v) for v in [*EXPRESSIONS, *AXIOMS]} == {
        NamedClass, Thing, Nothing, IntersectionOf, UnionOf, SomeValuesFrom,
        Declaration, SubClassOf, EquivalentClasses, SubObjectPropertyOf,
        AnnotationAssertion}


def check_value_classes_stay_frozen():
    onto = Ontology(tuple(AXIOMS))
    fields = [(value, value.__match_args__)
              for value in [A, *EXPRESSIONS, *AXIOMS, onto]]
    fields.append((MAPPING, [f.name for f in dataclasses.fields(MAPPING)]))
    for value, names in fields:
        for name in [*names, "extra"]:
            for change in (lambda: setattr(value, name, None),
                           lambda: delattr(value, name)):
                try:
                    change()
                except (AttributeError, TypeError):
                    continue
                raise AssertionError(f"{type(value).__name__}.{name} was "
                                     "set or deleted")
    assert onto == Ontology(tuple(AXIOMS))


def check_value_reprs():
    a = "EntityRef(iri='http://example.org/m#A', kind='class')"
    b = "EntityRef(iri='http://example.org/m#B', kind='class')"
    r = "EntityRef(iri='http://example.org/m#r', kind='object-property')"
    s = "EntityRef(iri='http://example.org/m#s', kind='object-property')"
    assert [repr(v) for v in [A, R, *EXPRESSIONS]] == [
        a, r, f"NamedClass(ref={a})", "Thing()", "Nothing()",
        f"IntersectionOf(parts=(NamedClass(ref={a}), NamedClass(ref={b})))",
        f"UnionOf(parts=(NamedClass(ref={a}), Thing()))",
        f"SomeValuesFrom(prop={r}, filler=NamedClass(ref={b}))"]
    assert [repr(v) for v in AXIOMS] == [
        f"Declaration(entity={a})", f"Declaration(entity={r})",
        f"SubClassOf(sub=NamedClass(ref={a}), sup=SomeValuesFrom(prop={r}, "
        f"filler=NamedClass(ref={b})))",
        f"EquivalentClasses(parts=(NamedClass(ref={a}), UnionOf(parts=("
        f"NamedClass(ref={b}), Nothing()))))",
        f"SubObjectPropertyOf(sub={r}, sup={s})",
        f"AnnotationAssertion(subject={a}, property='{LABEL}', "
        """literal='a "quoted" label')"""]
    assert repr(Ontology((Declaration(A),))) == \
        f"Ontology(axioms=(Declaration(entity={a}),), iri=None)"
    assert repr(Ontology((), NS + "o")) == \
        "Ontology(axioms=(), iri='http://example.org/m#o')"


def check_equality_is_within_one_class():
    assert Thing() == Thing() and Nothing() == Nothing()
    assert Thing() != Nothing() and NamedClass(A) != Declaration(A)
    parts = (NamedClass(A), NamedClass(B))
    assert IntersectionOf(parts) != UnionOf(parts) != EquivalentClasses(parts)
    assert SubClassOf(NamedClass(A), NamedClass(B)) != \
        SubClassOf(NamedClass(B), NamedClass(A))
    assert EntityRef(NS + "A") == A and EntityRef(NS + "A", "individual") != A
    assert A != (A.iri, A.kind) and Declaration(A) != (A,)
    for value in [A, R, *EXPRESSIONS, *AXIOMS]:
        assert [v for v in [A, R, *EXPRESSIONS, *AXIOMS] if v == value] \
            == [value]
    assert Ontology(tuple(AXIOMS), NS + "o") == Ontology(tuple(AXIOMS),
                                                         NS + "o")
    assert Ontology(tuple(AXIOMS)) != Ontology(tuple(AXIOMS), NS + "o")


def check_hash_is_the_hash_of_the_fields():
    onto = Ontology(tuple(AXIOMS), NS + "o")
    for value in [A, R, *EXPRESSIONS, *AXIOMS, onto]:
        fields = tuple(getattr(value, name) for name in value.__match_args__)
        assert hash(value) == hash(fields), value
    assert hash(A) == hash((NS + "A", "class")) and hash(Thing()) == hash(())


def check_keyword_construction_and_defaults():
    assert EntityRef(iri=NS + "A") == A and A.kind == "class"
    assert EntityRef(kind=OBJECT_PROPERTY, iri=NS + "r") == R
    assert Ontology(axioms=()).iri is None
    assert Ontology(iri=NS + "o", axioms=tuple(AXIOMS)) == \
        Ontology(tuple(AXIOMS), NS + "o")
    assert NamedClass(ref=A) == EXPRESSIONS[0]
    assert SomeValuesFrom(filler=NamedClass(B), prop=R) == EXPRESSIONS[5]
    assert Declaration(entity=A) == AXIOMS[0]
    assert SubClassOf(sup=EXPRESSIONS[5], sub=NamedClass(A)) == AXIOMS[2]
    assert SubObjectPropertyOf(sup=S, sub=R) == AXIOMS[4]
    assert AnnotationAssertion(literal='a "quoted" label', property=LABEL,
                               subject=A) == AXIOMS[5]
    assert IntersectionOf(parts=EXPRESSIONS[3].parts) == EXPRESSIONS[3]
    assert UnionOf(parts=EXPRESSIONS[4].parts) == EXPRESSIONS[4]
    assert EquivalentClasses(parts=AXIOMS[3].parts) == AXIOMS[3]
    for call in (lambda: EntityRef(), lambda: Thing(A),
                 lambda: NamedClass(A, B), lambda: Ontology(),
                 lambda: Declaration(ref=A)):
        raises(TypeError, None, call)


def check_match_args():
    assert {cls.__name__: cls.__match_args__ for cls in [
        EntityRef, NamedClass, Thing, Nothing, IntersectionOf, UnionOf,
        SomeValuesFrom, Declaration, SubClassOf, EquivalentClasses,
        SubObjectPropertyOf, AnnotationAssertion, Ontology]} == {
        "EntityRef": ("iri", "kind"), "NamedClass": ("ref",),
        "Thing": (), "Nothing": (), "IntersectionOf": ("parts",),
        "UnionOf": ("parts",), "SomeValuesFrom": ("prop", "filler"),
        "Declaration": ("entity",), "SubClassOf": ("sub", "sup"),
        "EquivalentClasses": ("parts",),
        "SubObjectPropertyOf": ("sub", "sup"),
        "AnnotationAssertion": ("subject", "property", "literal"),
        "Ontology": ("axioms", "iri")}
    match AXIOMS[2]:
        case SubClassOf(NamedClass(ref), SomeValuesFrom(prop, filler)):
            assert (ref, prop, filler) == (A, R, NamedClass(B))
        case _:
            raise AssertionError("no match")


def check_entity_refs_order_by_iri_then_kind():
    refs = [EntityRef(NS + "b"), EntityRef(NS + "a", "individual"),
            EntityRef(NS + "a", OBJECT_PROPERTY), EntityRef(NS + "a")]
    assert [(e.iri, e.kind) for e in sorted(refs)] == \
        sorted((e.iri, e.kind) for e in refs)
    assert A < B <= B and B > A >= A and not A < A
    for compare in ("<", "<=", ">", ">="):
        raises(TypeError, None, eval, f"A {compare} 'x'", {"A": A})
        raises(TypeError, None, eval, f"A {compare} t", {"A": A, "t": Thing()})


def check_mapping_identity_is_its_key():
    other = Mapping(EntityRef(NS + "A"), EntityRef(NS + "X"), "<", 1.0)
    assert other == MAPPING and hash(other) == hash(MAPPING)
    assert hash(MAPPING) == hash(MAPPING.key)
    assert Mapping(A, EntityRef(NS + "X")) != MAPPING
    assert MAPPING != MAPPING.key




def check_mapping_init_validates():
    """`Mapping` has its own `__init__`, which keeps the dataclass's
    fields, defaults, checks and frozenness."""
    relations = "relation must be one of ('=', '<', '>')"
    confidences = "confidence must be in (0, 1]"
    raises(ValueError, relations, Mapping, A, B, "?")
    raises(ValueError, relations, Mapping, A, B, relation="")
    for bad in (0.0, -0.5, 1.5, float("nan"), float("inf")):
        raises(ValueError, confidences, Mapping, A, B, "=", bad)
        raises(ValueError, confidences, Mapping, A, B, confidence=bad)
        raises(ValueError, confidences, dataclasses.replace, MAPPING,
               confidence=bad)
    raises(ValueError, relations, dataclasses.replace, MAPPING, relation="?")
    moved = dataclasses.replace(MAPPING, e2=B, confidence=0.25)
    assert (moved.e1, moved.e2, moved.relation, moved.confidence) == \
        (A, B, "<", 0.25)
    plain = Mapping(e2=B, e1=A)
    assert (plain.e1, plain.e2, plain.relation, plain.confidence) == \
        (A, B, "=", 1.0)
    for name in ("e1", "e2", "relation", "confidence"):
        raises(dataclasses.FrozenInstanceError, f"cannot assign to field "
               f"{name!r}", setattr, MAPPING, name, None)
    assert [(f.name, f.default) for f in dataclasses.fields(Mapping)] == [
        ("e1", dataclasses.MISSING), ("e2", dataclasses.MISSING),
        ("relation", "="), ("confidence", 1.0)]
    assert Mapping.__match_args__ == ("e1", "e2", "relation", "confidence")
    assert repr(MAPPING) == (f"Mapping(e1={A!r}, e2={MAPPING.e2!r}, "
                             "relation='<', confidence=0.5)")


def round_trips(value):
    """`value` after pickling at every protocol and after `deepcopy`."""
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        yield pickle.loads(pickle.dumps(value, protocol))
    yield copy.deepcopy(value)


def check_values_round_trip():
    for value in [A, R, *EXPRESSIONS, *AXIOMS]:
        for again in round_trips(value):
            assert type(again) is type(value) and again == value, value
            assert hash(again) == hash(value) and repr(again) == repr(value)


def check_ontology_round_trips():
    onto = Ontology(tuple(AXIOMS), NS + "o")
    assert onto.signature == {A, R}  # cached on the instance
    for again in round_trips(onto):
        assert again == onto and again.signature == onto.signature
        assert [type(a) for a in again.axioms] == [type(a) for a in AXIOMS]
        # one ref per IRI stays one object within the copy
        assert again.axioms[0].entity is again.axioms[2].sub.ref


def check_mapping_round_trips():
    for again in round_trips(MAPPING):
        assert again == MAPPING and again.confidence == MAPPING.confidence
        assert again.e1 == A and hash(again) == hash(MAPPING)


def check_alignment_round_trips():
    alignment = Alignment(frozenset({MAPPING, Mapping(B, A)}))
    for again in round_trips(alignment):
        assert again == alignment
        assert {m.key: m.confidence for m in again.mappings} == \
            {m.key: m.confidence for m in alignment.mappings}


def check_division_round_trips():
    div = division()
    for again in round_trips(div):
        assert again == div
        task = again.subtasks[0]
        assert task.task_id == 3 and task.source.iri == NS + "o"
        assert {m.key: m.confidence for m in task.candidates} == \
            {m.key: m.confidence for m in div.subtasks[0].candidates}


# a text of many axioms, long enough for the collector to run while it is
# parsed, and one the parser refuses at its last line
LONG = (f"Ontology(<{NS}o>\n"
        + "".join(f"Declaration(Class(<{NS}C{i}>))\n"
                  f"SubClassOf(<{NS}C{i}> <{NS}C{i // 2}>)\n"
                  for i in range(1000)) + ")\n")
MALFORMED = LONG[:-2] + "SubClassOf(\n)\n"


@contextmanager
def collector(enabled: bool, threshold: int | None = None):
    """The cyclic collector enabled or not, with `threshold` young objects
    before a collection if given; as it was again afterwards."""
    was, thresholds = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    if threshold is not None:
        gc.set_threshold(threshold, *thresholds[1:])
    try:
        yield
    finally:
        gc.set_threshold(*thresholds)
        (gc.enable if was else gc.disable)()


def collections_during(call, *args) -> list[int]:
    """`call(*args)`; the generation of each collection that starts while
    the function `call` wraps, or else `call` itself, is running."""
    code = getattr(call, "__wrapped__", call).__code__
    found = []

    def seen(phase, info):
        frame = sys._getframe()
        while frame is not None and frame.f_code is not code:
            frame = frame.f_back
        if phase == "start" and frame is not None:
            found.append(info["generation"])
    gc.callbacks.append(seen)
    try:
        call(*args)
    finally:
        gc.callbacks.remove(seen)
    return found


def check_parse_pauses_the_collector():
    # with a threshold of one object, an unpaused parse collects at once
    with collector(True, threshold=1):
        assert collections_during(parse_ontology.__wrapped__, LONG)
        assert collections_during(parse_ontology, LONG) == []


def check_parse_leaves_the_collector_as_it_was():
    """Returning or raising, `parse_ontology` and `read_ontology` leave the
    collector enabled if it was, and disabled if the caller disabled it."""
    with tempfile.TemporaryDirectory() as tmp:
        good, bad = Path(tmp, "good.ofn"), Path(tmp, "bad.ofn")
        good.write_text(LONG, encoding="utf-8")
        bad.write_text(MALFORMED, encoding="utf-8")
        for enabled in (True, False):
            with collector(enabled):
                assert len(parse_ontology(LONG).axioms) == 2000
                assert gc.isenabled() is enabled
                assert read_ontology(good) == parse_ontology(LONG)
                assert gc.isenabled() is enabled
                raises(OfnSyntaxError, None, parse_ontology, MALFORMED)
                assert gc.isenabled() is enabled
                raises(OfnSyntaxError, None, read_ontology, bad)
                assert gc.isenabled() is enabled


CHECKS = [value for name, value in sorted(globals().items())
          if name.startswith("check_")]

if __name__ == "__main__":
    for check in CHECKS:
        check()
    print(f"{len(CHECKS)} model checks passed")
