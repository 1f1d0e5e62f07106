"""Ontology data model and the `.ofn` functional-syntax subset.

The model is deliberately small: named classes, object properties and
individuals; subclass/equivalence/subproperty axioms; intersection, union
and existential restrictions as class expressions; plus label annotations.
Everything is immutable after parsing; derived structures (signature,
entity occurrences, IRI lookup) are computed once per ontology on first use.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Union

from .errors import OfnSyntaxError, UnsupportedConstructError

logger = logging.getLogger(__name__)

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


@dataclass(frozen=True, order=True)
class EntityRef:
    """A named entity; `kind` is fixed by its declaration."""

    iri: str
    kind: str = CLASS


# --- class expressions ----------------------------------------------------

@dataclass(frozen=True)
class NamedClass:
    ref: EntityRef


@dataclass(frozen=True)
class Thing:
    pass


@dataclass(frozen=True)
class Nothing:
    pass


@dataclass(frozen=True)
class IntersectionOf:
    parts: tuple["ClassExpr", ...]


@dataclass(frozen=True)
class UnionOf:
    parts: tuple["ClassExpr", ...]


@dataclass(frozen=True)
class SomeValuesFrom:
    prop: EntityRef
    filler: "ClassExpr"


ClassExpr = Union[NamedClass, Thing, Nothing, IntersectionOf, UnionOf,
                  SomeValuesFrom]


# --- axioms -----------------------------------------------------------------

@dataclass(frozen=True)
class Declaration:
    entity: EntityRef


@dataclass(frozen=True)
class SubClassOf:
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class EquivalentClasses:
    parts: tuple[ClassExpr, ...]


@dataclass(frozen=True)
class SubObjectPropertyOf:
    sub: EntityRef
    sup: EntityRef


@dataclass(frozen=True)
class AnnotationAssertion:
    subject: EntityRef
    property: str
    literal: str


Axiom = Union[Declaration, SubClassOf, EquivalentClasses,
              SubObjectPropertyOf, AnnotationAssertion]

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


@dataclass(frozen=True)
class Ontology:
    """Immutable ordered axiom list plus the label-source property set."""

    axioms: tuple[Axiom, ...]
    label_properties: frozenset[str] = DEFAULT_LABEL_PROPERTIES
    iri: str | None = None

    @cached_property
    def signature(self) -> frozenset[EntityRef]:
        return frozenset(a.entity for a in self.axioms
                         if isinstance(a, Declaration))

    @cached_property
    def entity_by_iri(self) -> dict[str, EntityRef]:
        return {e.iri: e for e in self.signature}

    @cached_property
    def logical_axioms(self) -> tuple[Axiom, ...]:
        return tuple(a for a in self.axioms
                     if isinstance(a, LOGICAL_AXIOM_TYPES))

    @cached_property
    def occurrences(self) -> dict[EntityRef, list[int]]:
        """Entity -> indices of every axiom whose signature contains it."""
        out: dict[EntityRef, list[int]] = {}
        for i, a in enumerate(self.axioms):
            for e in axiom_signature(a):
                out.setdefault(e, []).append(i)
        return out

    @cached_property
    def unconditional_axioms(self) -> tuple[int, ...]:
        """Indices of logical axioms non-local for the empty signature.

        Such an axiom (e.g. ``owl:Thing ⊑ C``) is non-local for every
        signature, so it belongs to every bottom-locality module.
        """
        from .locality import is_local  # the locality rule lives there only
        return tuple(i for i, a in enumerate(self.axioms)
                     if isinstance(a, LOGICAL_AXIOM_TYPES)
                     and not is_local(a, frozenset()))

    @cached_property
    def _label_map(self) -> dict[EntityRef, tuple[str, ...]]:
        out: dict[EntityRef, list[str]] = {}
        for a in self.axioms:
            if isinstance(a, AnnotationAssertion) \
                    and a.property in self.label_properties:
                out.setdefault(a.subject, []).append(a.literal)
        return {e: tuple(ls) for e, ls in out.items()}


_CAMEL_BOUNDARY = re.compile(r"(?<=[a-z0-9])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])")


def iri_fragment(iri: str) -> str:
    if "#" in iri:
        return iri.rsplit("#", 1)[1]
    return iri.rsplit("/", 1)[-1]


def fragment_label(iri: str) -> str:
    """Human-readable label from an IRI fragment.

    Underscores and camel-case boundaries become spaces, e.g.
    ``Lunate_facet_of_hamate`` -> "Lunate facet of hamate" and
    ``PregnancyDisorder`` -> "Pregnancy Disorder".
    """
    text = _CAMEL_BOUNDARY.sub(" ", iri_fragment(iri))
    text = text.replace("_", " ")
    return " ".join(text.split())


def entity_labels(onto: Ontology, entity: EntityRef) -> list[str]:
    """Label literals for an entity, in axiom order; IRI fragment fallback."""
    if entity not in onto.signature:
        raise ValueError(f"entity not in signature: {entity.iri}")
    found = onto._label_map.get(entity)
    if found:
        return list(found)
    return [fragment_label(entity.iri)]


# --- tokenizer ----------------------------------------------------------------

class _Token(NamedTuple):
    kind: str  # "(", ")", "=", "iri", "pname", "string", "ident", "eof"
    value: str
    pos: int  # offset into the text; _line_col turns it into line/column


# One alternative per token kind.  An IRI holds no tab/CR/LF (they would
# split its row in the TSV files written for a division).  In a string a
# backslash always pairs with the next character, but only \" and \\ are
# escapes.  A prefixed name's prefix may be empty (the default prefix).
_NAME_CHARS = r"[A-Za-z0-9_.\-]*"
_TOKEN = re.compile(rf"""
    (?P<skip>   (?: [ \t\r\n]+ | \#[^\n]* )+ )
  | (?P<punct>  [()=] )
  | < (?P<iri>  [^>\t\r\n]* ) >
  | " (?P<string> [^"\\]* (?: \\[\s\S] [^"\\]* )* ) "
  | (?P<pname>  (?: [A-Za-z_]{_NAME_CHARS} )? : {_NAME_CHARS} )
  | (?P<ident>  [A-Za-z_]{_NAME_CHARS} )
""", re.VERBOSE)
_ESCAPE = re.compile(r'\\(["\\])')
_IRI_FORBIDDEN = re.compile(r"[\t\r\n]")


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of the character at offset `pos`."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _scan_error(text: str, pos: int) -> OfnSyntaxError:
    """Why no token starts at offset `pos`."""
    ch = text[pos]
    if ch == "<":
        end = text.find(">", pos + 1)
        if end < 0:
            message = "unterminated IRI"
        else:
            pos = _IRI_FORBIDDEN.search(text, pos + 1, end).start()
            message = f"control character {text[pos]!r} in IRI"
    elif ch == '"':
        message = "unterminated string literal"
    else:
        message = f"unexpected character {ch!r}"
    return OfnSyntaxError(message, *_line_col(text, pos))


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise _scan_error(text, pos)
        kind = m.lastgroup
        value = m[kind]
        if kind == "punct":
            kind = value
        elif kind == "string":
            value = _ESCAPE.sub(r"\1", value)
        if kind != "skip":
            tokens.append(_Token(kind, value, pos))
        pos = m.end()
    tokens.append(_Token("eof", "", pos))
    return tokens


# --- parser -----------------------------------------------------------------

_AXIOM_KEYWORDS = {"Declaration", "SubClassOf", "EquivalentClasses",
                   "SubObjectPropertyOf", "AnnotationAssertion"}
_EXPR_KEYWORDS = {"ObjectIntersectionOf", "ObjectUnionOf",
                  "ObjectSomeValuesFrom"}
_DECL_KEYWORDS = {"Class": CLASS, "ObjectProperty": OBJECT_PROPERTY,
                  "NamedIndividual": INDIVIDUAL}
# keeps every recursive walk over a parsed expression within Python's stack
MAX_EXPR_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.prefixes = dict(BUILTIN_PREFIXES)
        self.declared: dict[str, str] = {}        # iri -> declared kind
        self.used: dict[str, str] = {}            # iri -> kind from position of use
        self.annotation_subjects: list[str] = []  # iris used only as subjects
        self.ontology_iri: str | None = None

    # token plumbing

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {kind!r} but found {tok.value!r}", tok)
        return tok

    def fail(self, message: str, tok: _Token,
             error: type[OfnSyntaxError] = OfnSyntaxError):
        raise error(message, *_line_col(self.text, tok.pos))

    # IRI resolution

    def resolve_iri(self, tok: _Token) -> str:
        if tok.kind == "iri":
            return tok.value
        if tok.kind == "pname":
            prefix, local = tok.value.split(":", 1)
            if prefix not in self.prefixes:
                self.fail(f"undeclared prefix {prefix + ':'!r}", tok)
            return self.prefixes[prefix] + local
        self.fail(f"expected an IRI but found {tok.value!r}", tok)

    def record_use(self, iri: str, kind: str, tok: _Token) -> EntityRef:
        prior = self.used.get(iri) or self.declared.get(iri)
        if prior is not None and prior != kind:
            self.fail(f"{iri} used as {kind} but already known as {prior}",
                      tok)
        self.used.setdefault(iri, kind)
        return EntityRef(iri, kind)

    # grammar

    def parse_document(self) -> tuple[list[Axiom], str | None]:
        axioms: list[Axiom] = []
        while self.peek().kind == "ident" and self.peek().value == "Prefix":
            self.parse_prefix()
        wrapped = False
        if self.peek().kind == "ident" and self.peek().value == "Ontology":
            wrapped = True
            self.next()
            self.expect("(")
            if self.peek().kind == "iri":
                self.ontology_iri = self.next().value
        while True:
            tok = self.peek()
            if tok.kind == "eof":
                if wrapped:
                    self.fail("missing ')' closing Ontology(...)", tok)
                break
            if tok.kind == ")":
                if not wrapped:
                    self.fail("unexpected ')'", tok)
                self.next()
                trailing = self.peek()
                if trailing.kind != "eof":
                    self.fail("content after closing ')' of Ontology(...)",
                              trailing)
                break
            axioms.append(self.parse_axiom())
        return axioms, self.ontology_iri

    def parse_prefix(self) -> None:
        self.next()  # Prefix
        self.expect("(")
        tok = self.next()
        if tok.kind != "pname" or tok.value.split(":", 1)[1]:
            self.fail("expected prefix declaration like p:=<iri>", tok)
        name = tok.value.split(":", 1)[0]
        self.expect("=")
        iri_tok = self.next()
        if iri_tok.kind != "iri":
            self.fail("prefix must expand to a full <IRI>", iri_tok)
        self.expect(")")
        self.prefixes[name] = iri_tok.value

    def parse_axiom(self) -> Axiom:
        tok = self.next()
        if tok.kind != "ident":
            self.fail(f"expected an axiom but found {tok.value!r}", tok)
        kw = tok.value
        if kw not in _AXIOM_KEYWORDS:
            self.fail(kw, tok, UnsupportedConstructError)
        self.expect("(")
        if kw == "Declaration":
            axiom = self.parse_declaration_body()
        elif kw == "SubClassOf":
            axiom = SubClassOf(self.parse_class_expr(), self.parse_class_expr())
        elif kw == "EquivalentClasses":
            parts = []
            while self.peek().kind != ")":
                parts.append(self.parse_class_expr())
            if len(parts) < 2:
                self.fail("EquivalentClasses requires ≥ 2 members", tok)
            axiom = EquivalentClasses(tuple(parts))
        elif kw == "SubObjectPropertyOf":
            sub = self.parse_entity(OBJECT_PROPERTY)
            sup = self.parse_entity(OBJECT_PROPERTY)
            axiom = SubObjectPropertyOf(sub, sup)
        else:  # AnnotationAssertion(property subject "literal")
            prop_tok = self.next()
            prop_iri = self.resolve_iri(prop_tok)
            subj_tok = self.next()
            subj_iri = self.resolve_iri(subj_tok)
            if subj_iri in (THING_IRI, NOTHING_IRI):
                self.fail("owl:Thing/owl:Nothing cannot carry annotations",
                          subj_tok)
            lit_tok = self.next()
            if lit_tok.kind != "string":
                self.fail("annotation value must be a quoted string", lit_tok)
            self.annotation_subjects.append(subj_iri)
            # provisional kind; fixed up once declarations are all known
            axiom = AnnotationAssertion(EntityRef(subj_iri, CLASS),
                                        prop_iri, lit_tok.value)
        self.expect(")")
        return axiom

    def parse_declaration_body(self) -> Declaration:
        tok = self.next()
        if tok.kind != "ident" or tok.value not in _DECL_KEYWORDS:
            if tok.kind == "ident":
                self.fail(tok.value, tok, UnsupportedConstructError)
            self.fail("expected Class/ObjectProperty/NamedIndividual", tok)
        kind = _DECL_KEYWORDS[tok.value]
        self.expect("(")
        iri_tok = self.next()
        iri = self.resolve_iri(iri_tok)
        if iri in (THING_IRI, NOTHING_IRI):
            self.fail("owl:Thing and owl:Nothing cannot be declared", iri_tok)
        prior = self.declared.get(iri) or self.used.get(iri)
        if prior is not None and prior != kind:
            self.fail(f"{iri} declared as {kind} but already known as {prior}",
                      iri_tok)
        self.declared[iri] = kind
        self.expect(")")
        return Declaration(EntityRef(iri, kind))

    def parse_entity(self, kind: str) -> EntityRef:
        tok = self.next()
        iri = self.resolve_iri(tok)
        if iri in (THING_IRI, NOTHING_IRI):
            self.fail(f"owl:{iri_fragment(iri)} is not allowed here", tok)
        return self.record_use(iri, kind, tok)

    def parse_class_expr(self, depth: int = 0) -> ClassExpr:
        """`depth` counts the constructors enclosing this expression."""
        tok = self.next()
        if tok.kind in ("iri", "pname"):
            iri = self.resolve_iri(tok)
            if iri == THING_IRI:
                return Thing()
            if iri == NOTHING_IRI:
                return Nothing()
            return NamedClass(self.record_use(iri, CLASS, tok))
        if tok.kind == "ident":
            kw = tok.value
            if kw not in _EXPR_KEYWORDS:
                self.fail(kw, tok, UnsupportedConstructError)
            if depth == MAX_EXPR_DEPTH:
                self.fail(f"class expression nested deeper than "
                          f"{MAX_EXPR_DEPTH}", tok)
            self.expect("(")
            if kw == "ObjectSomeValuesFrom":
                prop = self.parse_entity(OBJECT_PROPERTY)
                filler = self.parse_class_expr(depth + 1)
                self.expect(")")
                return SomeValuesFrom(prop, filler)
            parts = []
            while self.peek().kind != ")":
                parts.append(self.parse_class_expr(depth + 1))
            self.expect(")")
            if len(parts) < 2:
                self.fail(f"{kw} requires ≥ 2 members", tok)
            return IntersectionOf(tuple(parts)) if kw == "ObjectIntersectionOf" \
                else UnionOf(tuple(parts))
        self.fail(f"expected a class expression but found {tok.value!r}", tok)


def _fix_annotation_kinds(axioms: list[Axiom],
                          kinds: dict[str, str]) -> list[Axiom]:
    out = []
    for a in axioms:
        if isinstance(a, AnnotationAssertion):
            kind = kinds[a.subject.iri]
            if kind != a.subject.kind:
                a = AnnotationAssertion(EntityRef(a.subject.iri, kind),
                                        a.property, a.literal)
        out.append(a)
    return out


def parse_ontology(text: str,
                   label_properties: frozenset[str] = DEFAULT_LABEL_PROPERTIES,
                   ) -> Ontology:
    """Parse `.ofn` text into an Ontology.

    Axiom order is preserved.  Entities referenced by logical axioms or
    annotations without a Declaration are auto-declared (appended after the
    explicit axioms, sorted by IRI) and reported via a warning log.
    """
    parser = _Parser(text)
    axioms, onto_iri = parser.parse_document()

    kinds = dict(parser.declared)
    for iri, kind in parser.used.items():
        kinds.setdefault(iri, kind)
    for iri in parser.annotation_subjects:
        kinds.setdefault(iri, CLASS)

    missing = sorted(set(kinds) - set(parser.declared))
    if missing:
        logger.warning("auto-declared %d undeclared entit%s: %s",
                       len(missing), "y" if len(missing) == 1 else "ies",
                       ", ".join(missing[:5]) + ("..." if len(missing) > 5 else ""))
        axioms.extend(Declaration(EntityRef(iri, kinds[iri]))
                      for iri in missing)

    axioms = _fix_annotation_kinds(axioms, kinds)
    return Ontology(tuple(axioms), frozenset(label_properties), onto_iri)


def read_ontology(path,
                  label_properties: frozenset[str] = DEFAULT_LABEL_PROPERTIES,
                  ) -> Ontology:
    # utf-8-sig drops a leading byte-order mark, which is not OFN syntax
    with open(path, encoding="utf-8-sig") as fh:
        return parse_ontology(fh.read(), label_properties)


# --- serializer ---------------------------------------------------------------

def _escape(literal: str) -> str:
    return literal.replace("\\", "\\\\").replace('"', '\\"')


def _expr_text(expr: ClassExpr) -> str:
    match expr:
        case NamedClass(ref):
            return f"<{ref.iri}>"
        case Thing():
            return "owl:Thing"
        case Nothing():
            return "owl:Nothing"
        case IntersectionOf(parts):
            return "ObjectIntersectionOf(" + " ".join(map(_expr_text, parts)) + ")"
        case UnionOf(parts):
            return "ObjectUnionOf(" + " ".join(map(_expr_text, parts)) + ")"
        case SomeValuesFrom(prop, filler):
            return f"ObjectSomeValuesFrom(<{prop.iri}> {_expr_text(filler)})"
    raise TypeError(f"not a class expression: {expr!r}")


_DECL_NAMES = {CLASS: "Class", OBJECT_PROPERTY: "ObjectProperty",
               INDIVIDUAL: "NamedIndividual"}


def axiom_text(axiom: Axiom) -> str:
    match axiom:
        case Declaration(entity):
            return f"Declaration({_DECL_NAMES[entity.kind]}(<{entity.iri}>))"
        case SubClassOf(sub, sup):
            return f"SubClassOf({_expr_text(sub)} {_expr_text(sup)})"
        case EquivalentClasses(parts):
            return "EquivalentClasses(" + " ".join(map(_expr_text, parts)) + ")"
        case SubObjectPropertyOf(sub, sup):
            return f"SubObjectPropertyOf(<{sub.iri}> <{sup.iri}>)"
        case AnnotationAssertion(subject, prop, literal):
            return (f"AnnotationAssertion(<{prop}> <{subject.iri}> "
                    f'"{_escape(literal)}")')
    raise TypeError(f"not an axiom: {axiom!r}")


def serialize(onto: Ontology) -> str:
    """Render back to `.ofn` text (full IRIs, one axiom per line)."""
    head = f"Ontology(<{onto.iri}>" if onto.iri else "Ontology("
    lines = [head]
    lines.extend("  " + axiom_text(a) for a in onto.axioms)
    lines.append(")")
    return "\n".join(lines) + "\n"
