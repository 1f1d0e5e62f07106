"""Ontology data model and the `.ofn` functional-syntax subset.

The model is deliberately small: named classes, object properties and
individuals; subclass/equivalence/subproperty axioms; intersection, union
and existential restrictions as class expressions; plus label annotations.
Everything is immutable after parsing; derived structures (signature, IRI
lookup, locality graph) are computed once per ontology on first use and
cached on the instance, where `division.divide` also keeps the index of
the ontology's last division.  One parse hands out one `EntityRef` per
(IRI, kind).

Every text is read by one line pass (`_parse`), which reads a text laid
out one axiom per line by itself, and hands any other text to the grammar
at the offset where the layout ends, from the text's start if it holds a
CR.  `read_division` runs the same pass over every file of a division,
with one ref table and one memo of the lines read, so that the files
share their refs and each distinct line is read once.  The grammar and
the writer live in `_ofn`, which is imported only when a line or a text
needs the grammar, or an ontology is written: reading a file of flat
lines does not load it.
"""

from __future__ import annotations

import gc
import re
from _thread import allocate_lock
from collections.abc import Iterator
from functools import cached_property, total_ordering, wraps

# entity kinds
CLASS = "class"
OBJECT_PROPERTY = "object-property"
INDIVIDUAL = "individual"

THING_IRI = "http://www.w3.org/2002/07/owl#Thing"
NOTHING_IRI = "http://www.w3.org/2002/07/owl#Nothing"

BUILTIN_PREFIXES = {
    "rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
    "rdfs": "http://www.w3.org/2000/01/rdf-schema#",
    "xsd": "http://www.w3.org/2001/XMLSchema#",
    "owl": "http://www.w3.org/2002/07/owl#",
    "skos": "http://www.w3.org/2004/02/skos/core#",
    "oboInOwl": "http://www.geneontology.org/formats/oboInOwl#",
    # default prefix used when input omits a Prefix(:=<...>) line
    "": "http://example.org/ontology#",
}

DEFAULT_LABEL_PROPERTIES = frozenset({
    BUILTIN_PREFIXES["rdfs"] + "label",
    BUILTIN_PREFIXES["skos"] + "prefLabel",
    BUILTIN_PREFIXES["skos"] + "altLabel",
    BUILTIN_PREFIXES["oboInOwl"] + "hasExactSynonym",
    BUILTIN_PREFIXES["oboInOwl"] + "hasRelatedSynonym",
})


class _Value:
    """An immutable value whose fields are the attributes its class names in
    `__match_args__`.  It is compared (with values of its own class only),
    hashed, printed and pickled by its fields in order, as a frozen
    dataclass is; no attribute can be set or deleted."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        return f"{type(self).__qualname__}(" + ", ".join([
            f"{name}={getattr(self, name)!r}"
            for name in self.__match_args__]) + ")"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __reduce__(self):
        return type(self), self._fields()


def _setters(cls: type) -> list:
    """The `__set__` of each slot of `cls`, in field order: the way round
    the class's `__setattr__`, for its `__init__`."""
    return [getattr(cls, name).__set__ for name in cls.__match_args__]


@total_ordering
class EntityRef(_Value):
    """A named entity; `kind` is fixed by its declaration.  Refs order by
    (IRI, kind)."""

    __slots__ = __match_args__ = ("iri", "kind")

    def __init__(self, iri: str, kind: str = CLASS):
        _set_iri(self, iri)
        _set_kind(self, kind)

    # spelt out, as every hot path hashes and compares refs
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.iri, self.kind) == (other.iri, other.kind)
        return NotImplemented

    def __hash__(self):
        return hash((self.iri, self.kind))

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.iri, self.kind) < (other.iri, other.kind)
        return NotImplemented


_set_iri, _set_kind = _setters(EntityRef)


# --- class expressions ----------------------------------------------------

class NamedClass(_Value):
    __slots__ = __match_args__ = ("ref",)

    def __init__(self, ref: EntityRef):
        _set_ref(self, ref)


class Thing(_Value):
    __slots__ = ()


class Nothing(_Value):
    __slots__ = ()


class IntersectionOf(_Value):
    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple[ClassExpr, ...]):
        _set_intersection_parts(self, parts)


class UnionOf(_Value):
    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple[ClassExpr, ...]):
        _set_union_parts(self, parts)


class SomeValuesFrom(_Value):
    __slots__ = __match_args__ = ("prop", "filler")

    def __init__(self, prop: EntityRef, filler: ClassExpr):
        _set_prop(self, prop)
        _set_filler(self, filler)


_set_ref, = _setters(NamedClass)
_set_intersection_parts, = _setters(IntersectionOf)
_set_union_parts, = _setters(UnionOf)
_set_prop, _set_filler = _setters(SomeValuesFrom)

ClassExpr = (NamedClass | Thing | Nothing | IntersectionOf | UnionOf
             | SomeValuesFrom)


# --- axioms -----------------------------------------------------------------

class Declaration(_Value):
    __slots__ = __match_args__ = ("entity",)

    def __init__(self, entity: EntityRef):
        _set_entity(self, entity)


class SubClassOf(_Value):
    __slots__ = __match_args__ = ("sub", "sup")

    def __init__(self, sub: ClassExpr, sup: ClassExpr):
        _set_sub(self, sub)
        _set_sup(self, sup)


class EquivalentClasses(_Value):
    __slots__ = __match_args__ = ("parts",)

    def __init__(self, parts: tuple[ClassExpr, ...]):
        _set_equivalent_parts(self, parts)


class SubObjectPropertyOf(_Value):
    __slots__ = __match_args__ = ("sub", "sup")

    def __init__(self, sub: EntityRef, sup: EntityRef):
        _set_sub_property(self, sub)
        _set_sup_property(self, sup)


class AnnotationAssertion(_Value):
    __slots__ = __match_args__ = ("subject", "property", "literal")

    def __init__(self, subject: EntityRef, property: str, literal: str):
        _set_subject(self, subject)
        _set_property(self, property)
        _set_literal(self, literal)


_set_entity, = _setters(Declaration)
_set_sub, _set_sup = _setters(SubClassOf)
_set_equivalent_parts, = _setters(EquivalentClasses)
_set_sub_property, _set_sup_property = _setters(SubObjectPropertyOf)
_set_subject, _set_property, _set_literal = _setters(AnnotationAssertion)

Axiom = (Declaration | SubClassOf | EquivalentClasses | SubObjectPropertyOf
         | AnnotationAssertion)

LOGICAL_AXIOM_TYPES = (SubClassOf, EquivalentClasses, SubObjectPropertyOf)


def expr_entities(expr: ClassExpr) -> Iterator[EntityRef]:
    """Named classes and properties occurring in a class expression."""
    match expr:
        case NamedClass(ref):
            yield ref
        case Thing() | Nothing():
            return
        case IntersectionOf(parts) | UnionOf(parts):
            for p in parts:
                yield from expr_entities(p)
        case SomeValuesFrom(prop, filler):
            yield prop
            yield from expr_entities(filler)


def axiom_signature(axiom: Axiom) -> frozenset[EntityRef]:
    """Entities occurring in an axiom.

    Annotation subjects count; annotation property IRIs do not (they are
    vocabulary, not ontology entities in this model).
    """
    match axiom:
        case Declaration(entity):
            return frozenset({entity})
        case SubClassOf(sub, sup):
            return frozenset(expr_entities(sub)) | frozenset(expr_entities(sup))
        case EquivalentClasses(parts):
            out: set[EntityRef] = set()
            for p in parts:
                out.update(expr_entities(p))
            return frozenset(out)
        case SubObjectPropertyOf(sub, sup):
            return frozenset({sub, sup})
        case AnnotationAssertion(subject, _, _):
            return frozenset({subject})
    raise TypeError(f"not an axiom: {axiom!r}")


class Ontology(_Value):
    """Immutable ordered axiom list plus the ontology IRI.

    Its instance dict holds the fields and what is derived from them:
    `cached_property` values and `division.divide`'s memo.  A copy is made
    through the constructor, so it derives them anew.
    """

    __match_args__ = ("axioms", "iri")

    def __init__(self, axioms: tuple[Axiom, ...], iri: str | None = None):
        fields = self.__dict__
        fields["axioms"] = axioms
        fields["iri"] = iri

    @cached_property
    def signature(self) -> frozenset[EntityRef]:
        return frozenset(a.entity for a in self.axioms
                         if isinstance(a, Declaration))

    @cached_property
    def entity_by_iri(self) -> dict[str, EntityRef]:
        """The declared entity of each IRI; ValueError if one IRI is
        declared as two kinds, as the parser refuses it too."""
        out = {e.iri: e for e in self.signature}
        if len(out) < len(self.signature):
            iri = min(e.iri for e in self.signature if out[e.iri] is not e)
            kinds = sorted(e.kind for e in self.signature if e.iri == iri)
            raise ValueError(f"{iri} declared as {' and '.join(kinds)}")
        return out

    @cached_property
    def logical_axioms(self) -> tuple[Axiom, ...]:
        return tuple(a for a in self.axioms
                     if isinstance(a, LOGICAL_AXIOM_TYPES))

    @cached_property
    def locality_graph(self):
        from .locality import _LocalityGraph  # the locality rules live there
        return _LocalityGraph(self.axioms)

    @cached_property
    def _label_map(self) -> dict[EntityRef, tuple[str, ...]]:
        out: dict[EntityRef, list[str]] = {}
        for a in self.axioms:
            if isinstance(a, AnnotationAssertion) \
                    and a.property in DEFAULT_LABEL_PROPERTIES:
                out.setdefault(a.subject, []).append(a.literal)
        return {e: tuple(ls) for e, ls in out.items()}


# --- parse state ------------------------------------------------------------

_DECL_KEYWORDS = {"Class": CLASS, "ObjectProperty": OBJECT_PROPERTY,
                  "NamedIndividual": INDIVIDUAL}
_NAME_CHARS = r"[A-Za-z0-9_.\-]*"  # the characters of a name, after its first
_ESCAPE = re.compile(r'\\(["\\])')


def _value(tok: str) -> str:
    """The token without IRI brackets, string quotes or escapes."""
    if tok[:1] == '"':
        tok = tok[1:-1]
        return _ESCAPE.sub(r"\1", tok) if "\\" in tok else tok
    return tok[1:-1] if tok[:1] == "<" else tok


class _ParseState:
    """What a read of one text has built so far, shared by the line pass
    and the grammar (`_ofn._Parser`, which extends it).  Every `EntityRef`
    comes from `refs`, one per (IRI, kind), which reads may share."""

    def __init__(self, refs: dict[tuple[str, str], EntityRef] | None = None):
        self.refs = {} if refs is None else refs
        self.prefixes = dict(BUILTIN_PREFIXES)
        # prefixed name -> its IRI; the prefixes are fixed once an axiom
        # is read, as a `Prefix` only comes before the first
        self.names: dict[str, str] = {}
        # iri -> its EntityRef, of the kind its first declaration or use gave
        self.known: dict[str, EntityRef] = {}
        self.declared: set[str] = set()
        self.axioms: list[Axiom] = []
        # indices of the annotations whose subject was not known when read;
        # each holds a placeholder class ref until the parse ends
        self.unresolved: list[int] = []
        self.ontology_iri: str | None = None

    def new_ref(self, iri: str, kind: str) -> EntityRef:
        """The ref of `iri` as `kind`; a read makes none else."""
        ref = self.refs.get((iri, kind))
        if ref is None:
            ref = self.refs[iri, kind] = EntityRef(iri, kind)
        return ref

    def finish(self) -> Ontology:
        """The ontology of the axioms read, once the whole text is read."""
        axioms, known = self.axioms, self.known
        for i in self.unresolved:  # a subject only ever annotated is a class
            a = axioms[i]
            ref = known.setdefault(a.subject.iri, a.subject)
            if ref is not a.subject:
                axioms[i] = AnnotationAssertion(ref, a.property, a.literal)

        missing = sorted(known.keys() - self.declared)
        if missing:
            import logging  # only here, so that a read does not load it
            logging.getLogger(__name__).warning("auto-declared %d undeclared entit%s: %s",
                           len(missing), "y" if len(missing) == 1 else "ies",
                           ", ".join(missing[:5])
                           + ("..." if len(missing) > 5 else ""))
            axioms.extend(Declaration(known[iri]) for iri in missing)
        return Ontology(tuple(axioms), self.ontology_iri)


# --- line pass ----------------------------------------------------------------
# The flat axiom lines, maybe indented: a declaration (groups 1-2), a subclass
# of a class (3-4) or of an existential (3, 5-6), and an annotation (7-9).  A
# name slot takes any run of characters but controls, spaces, parentheses
# and quotes, and `_FlatNames` checks that it is one <IRI> or prefixed name:
# a loose slot keeps the pattern quick to compile.
_NAME = r'([^\x00- ()"]+)'
_SHAPE = re.compile(
    rf"[ \t]*(?:Declaration\((Class|ObjectProperty|NamedIndividual)\({_NAME}\)\)"
    rf"|SubClassOf\({_NAME} (?:{_NAME}|ObjectSomeValuesFrom\({_NAME} {_NAME}\))\)"
    rf'|AnnotationAssertion\({_NAME} {_NAME} ("[^"\\]*(?:\\.[^"\\]*)*")\))')
_PNAME = re.compile(rf"(?:[A-Za-z_]{_NAME_CHARS})?:{_NAME_CHARS}")
# The head lines, each alone on its line, with blanks between its tokens:
# `Prefix(p:=<iri>)` (groups 1-2), and `Ontology(` with at most its IRI (3).
_HEAD = re.compile(
    rf"[ \t]*(?:Prefix[ \t]*\([ \t]*((?:[A-Za-z_]{_NAME_CHARS})?):[ \t]*=[ \t]*"
    r"<([^>\t\r\n]*)>[ \t]*\)|Ontology[ \t]*\([ \t]*(?:<([^>\t\r\n]*)>)?)[ \t]*")


class _FlatNames(dict):
    """Name slot token of a `_SHAPE` match -> its ref of `kind` from
    `state`, or its IRI if `kind` is None; the token is resolved on its
    first lookup.  None unless the token is an <IRI> or a prefixed name of
    a prefix of `state`, and names neither owl:Thing nor owl:Nothing: the
    grammar then reads the line."""

    def __init__(self, state: _ParseState, kind: str | None = None):
        self.state, self.kind = state, kind

    def __missing__(self, tok: str) -> EntityRef | str | None:
        prefixes = self.state.prefixes
        if tok[0] == "<":
            iri = tok[1:-1] if tok.find(">") == len(tok) - 1 else None
        else:
            prefix, colon, local = tok.partition(":")
            iri = prefixes[prefix] + local if colon and prefix in prefixes \
                and _PNAME.fullmatch(tok) else None
        if iri == THING_IRI or iri == NOTHING_IRI:
            iri = None
        value = self[tok] = iri if iri is None or self.kind is None \
            else self.state.new_ref(iri, self.kind)
        return value


def _parse(text: str, refs: dict | None = None, memo: dict | None = None
           ) -> Ontology:
    """`parse_ontology(text)`: the ontology of `text` as the grammar reads
    it, read line by line as far as the text allows.

    The head is blank and comment lines, `Prefix(p:=<iri>)` lines, then an
    `Ontology(` line with at most its <IRI>, each alone on its line.  Then
    each line is blank, a comment, or one axiom, which becomes the entry a
    fresh `_Parser(line, refs)` gives: its axiom and the entities it uses,
    in order of first use.  A flat shape builds its entry itself, the
    grammar reads any other line alone, and every entry is replayed the
    same way against the file's kind table.  A `)` line followed by blank
    and comment lines ends the text.  Elsewhere the grammar reads on from
    the state read so far (`_ofn._parse_rest`), and gives the result or
    the error: from the start of a text with a CR, from another head line,
    from the first other body line (a line the grammar refuses alone, an
    entity of two kinds, more after the `)`; from `Ontology(` if no axiom
    came yet), or from the end of a text with no `Ontology(` or `)` line.

    Every `EntityRef` comes from `refs`, keyed by (IRI, kind).  `memo`
    maps each line read to its entry, and a line met again is replayed
    from it.  It serves only a text with the built-in prefixes, as an entry
    holds the IRIs its names have under them.
    """
    state, lines = _ParseState(refs), text.split("\n")

    def rest(at: int, body: bool) -> Ontology:  # from line `at` on
        from ._ofn import _parse_rest
        start = sum(map(len, lines[:at])) + at  # len(text) + 1 past the last
        return _parse_rest(state, text, min(start, len(text)), body)

    if "\r" in text:  # a CR ends a comment but not a line
        return rest(0, False)
    for head, line in enumerate(lines):
        m = _HEAD.fullmatch(line)
        if m is None:
            if line.strip(" \t")[:1] not in ("", "#"):
                return rest(head, False)
        elif m[2] is not None:  # Prefix(p:=<iri>)
            state.prefixes[m[1]] = m[2]
        else:  # Ontology(, maybe with its IRI
            state.ontology_iri = m[3]
            break
    else:
        return rest(len(lines), False)
    prefixes, known, axioms = state.prefixes, state.known, state.axioms
    declared, unresolved = state.declared, state.unresolved
    shape, iris = _SHAPE.fullmatch, _FlatNames(state)
    refs_as = {word: _FlatNames(state, kind)  # by declaration keyword
               for word, kind in _DECL_KEYWORDS.items()}
    classes, properties = refs_as["Class"], refs_as["ObjectProperty"]
    if prefixes != BUILTIN_PREFIXES:
        memo = None
    alone = None  # parses each line no shape takes, made for the first
    for at in range(head + 1, len(lines)):
        line = lines[at]
        entry = None if memo is None else memo.get(line)
        if entry is None:
            m = shape(line)
            if m is not None:
                kind, name, sub, sup, prop, filler, annotation, subject, \
                    literal = m.groups()
                if kind is not None:  # Declaration(Kind(name))
                    ref = refs_as[kind][name]
                    if ref is not None:
                        entry = Declaration(ref), (ref,)
                elif literal is not None:  # AnnotationAssertion(p subject "…")
                    p, s = iris[annotation], classes[subject]
                    if p is not None and s is not None:
                        entry = AnnotationAssertion(s, p, _value(literal)), ()
                elif prop is None:  # SubClassOf(sub sup)
                    a, b = classes[sub], classes[sup]
                    if a is not None and b is not None:
                        entry = (SubClassOf(NamedClass(a), NamedClass(b)),
                                 (a,) if a is b else (a, b))
                else:  # SubClassOf(sub ObjectSomeValuesFrom(prop filler))
                    a, p, f = classes[sub], properties[prop], classes[filler]
                    # the grammar refuses the property's IRI as a class
                    if a is not None and p is not None and f is not None \
                            and p.iri != a.iri and p.iri != f.iri:
                        entry = (SubClassOf(NamedClass(a),
                                            SomeValuesFrom(p, NamedClass(f))),
                                 (a, p) if a is f else (a, p, f))
            if entry is None:
                word = line.strip(" \t")
                if not word or word[0] == "#":
                    continue
                if word == ")":
                    if all(rest.strip(" \t")[:1] in ("", "#")
                           for rest in lines[at + 1:]):
                        return state.finish()
                    break
                if alone is None:
                    from ._ofn import _Parser
                    alone = _Parser("", state.refs)
                    alone.prefixes, alone.names = prefixes, state.names
                entry = alone.parse_alone(line)
                if entry is None:
                    break
            if memo is not None:
                memo[line] = entry
        # replay the entry against the file's kind table
        axiom, uses = entry
        for ref in uses:  # refs are shared, so another kind is another ref
            if known.setdefault(ref.iri, ref) is not ref:
                break
        else:
            if type(axiom) is Declaration:
                declared.add(axiom.entity.iri)
            elif type(axiom) is AnnotationAssertion:
                # the subject as the grammar takes it here: the known
                # entity, else the entry's class placeholder
                subject = known.get(axiom.subject.iri)
                if subject is None:
                    unresolved.append(len(axioms))
                elif subject is not axiom.subject:
                    axiom = AnnotationAssertion(subject, axiom.property,
                                                axiom.literal)
            axioms.append(axiom)
            continue
        break  # an entity of two kinds
    else:
        return rest(len(lines), True)  # no closing ')'
    # before any axiom, from `Ontology(`, as its IRI may be on a later line
    return rest(at, True) if axioms else rest(head, False)


# the paused calls running in this process, and whether the cyclic collector
# was enabled when the first of them began
_pause_lock = allocate_lock()
_paused_calls = 0
_gc_was_enabled = False


def _gc_paused(fn):
    """`fn`, run with Python's cyclic garbage collector paused.

    The model's values make no reference cycles, so reference counting
    frees all of them; the collector would only rescan, at every full
    collection, every object a large read or division has built.  The
    collector is one per process: it stays paused while any paused call
    runs, in any thread, and the last of them to return, or to raise,
    enables it again if it was enabled when the first began.
    """
    @wraps(fn)
    def paused(*args, **kwargs):
        global _paused_calls, _gc_was_enabled
        with _pause_lock:
            if not _paused_calls:
                _gc_was_enabled = gc.isenabled()
                gc.disable()
            _paused_calls += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _pause_lock:
                _paused_calls -= 1
                if not _paused_calls and _gc_was_enabled:
                    gc.enable()
    return paused


@_gc_paused
def parse_ontology(text: str) -> Ontology:
    """Parse `.ofn` text into an Ontology.

    Axiom order is preserved.  Entities referenced by logical axioms or
    annotations without a Declaration are auto-declared (appended after the
    explicit axioms, sorted by IRI) and reported via a warning log.  A line
    pass (`_parse`) reads the text as far as it holds one axiom per line,
    the grammar reads on from there, and the result is the grammar's.
    """
    return _parse(text)


def _read_text(path) -> str:
    # utf-8-sig drops a leading byte-order mark, which is not OFN syntax
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def read_ontology(path) -> Ontology:
    return parse_ontology(_read_text(path))
