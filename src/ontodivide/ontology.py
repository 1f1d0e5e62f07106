"""Ontology data model and the `.ofn` functional-syntax subset.

The model is deliberately small: named classes, object properties and
individuals; subclass/equivalence/subproperty axioms; intersection, union
and existential restrictions as class expressions; plus label annotations.
Everything is immutable after parsing; derived structures (signature, IRI
lookup, locality graph) are computed once per ontology on first use and
cached on the instance, where `division.divide` also keeps the index of
the ontology's last division.  One parse hands out one `EntityRef` per
(IRI, kind).
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from functools import cached_property
from itertools import islice
from typing import Iterator, Union

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


@dataclass(frozen=True, order=True, slots=True)
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
    """Immutable ordered axiom list plus the ontology IRI."""

    axioms: tuple[Axiom, ...]
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
# A token is its text: `(`, `)`, `=`, an IRI in brackets, a quoted string, a
# prefixed name or an identifier; "" ends the text.  An IRI holds no tab/CR/LF
# (they would split its row in the TSV files written for a division).  In a
# string a backslash always pairs with the next character, but only \" and \\
# are escapes.  A name is scanned once: an identifier, made a prefixed name by
# a following `:local`; or `:local` alone, in the default prefix.
_NAME_CHARS = r"[A-Za-z0-9_.\-]*"
_WORD = rf"""
    [()=]
  | <[^>\t\r\n]*>
  | "[^"\\]*(?:\\[\s\S][^"\\]*)*"
  | [A-Za-z_]{_NAME_CHARS}(?::{_NAME_CHARS})?
  | :{_NAME_CHARS}
"""
_ONE_TOKEN = re.compile(_WORD, re.VERBOSE)
# Blanks and comments prefix each match: blanks, then comments, each running
# up to a CR or LF and followed by blanks.  The group then always matches: a
# token, else a catch-all taking the rest of the text (a scan error), else
# `\Z`; so no prefix is given back and trailing blanks are not rescanned.
_TOKEN = re.compile(rf"""[ \t\r\n]* (?:\#[^\r\n]* [ \t\r\n]*)*
                         ({_WORD}|[\s\S]+|\Z)""", re.VERBOSE)
_ESCAPE = re.compile(r'\\(["\\])')
_IRI_FORBIDDEN = re.compile(r"[\t\r\n]")
_KINDS = {"(": "(", ")": ")", "=": "=", "<": "iri", '"': "string", "": "eof"}


def _kind(tok: str) -> str:
    """One of "(", ")", "=", "iri", "string", "pname", "ident", "eof"."""
    return _KINDS.get(tok[:1]) or ("pname" if ":" in tok else "ident")


def _value(tok: str) -> str:
    """The token without IRI brackets, string quotes or escapes."""
    if tok[:1] == '"':
        tok = tok[1:-1]
        return _ESCAPE.sub(r"\1", tok) if "\\" in tok else tok
    return tok[1:-1] if tok[:1] == "<" else tok


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of the character at offset `pos`."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _token_offset(text: str, i: int) -> int:
    """Offset of token `i` of `_tokenize(text)`, by scanning again."""
    return next(islice(_TOKEN.finditer(text), i, None)).start(1)


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


def _tokenize(text: str) -> list[str]:
    """Token strings of `text`, ending in one ""."""
    tokens = _TOKEN.findall(text)
    if len(tokens) > 1:
        last = tokens[-2]
        if not last:  # trailing blanks leave a second "" at the very end
            tokens.pop()
        elif not _ONE_TOKEN.fullmatch(last):  # the catch-all: a scan error
            raise _scan_error(text, len(text) - len(last))
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
    """Recursive descent over the token strings of one text.

    A production reads its tokens by index, checks each before it reads the
    next (so it never reads past the final ""), and leaves `pos` after
    itself.  It calls out to resolve a prefixed name, to check the kind
    of an entity (`use`), or to fail.  Each (IRI, kind) gets one `EntityRef`
    once `parse_ontology` resolves the annotations in `unresolved`.
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0                              # index of the next token
        self.prefixes = dict(BUILTIN_PREFIXES)
        # iri -> its EntityRef, of the kind its first declaration or use gave
        self.known: dict[str, EntityRef] = {}
        self.declared: set[str] = set()
        self.axioms: list[Axiom] = []
        # indices of the annotations whose subject was not known when read;
        # each holds a placeholder class ref until the parse ends
        self.unresolved: list[int] = []
        self.ontology_iri: str | None = None

    def fail(self, message: str, at: int,
             error: type[OfnSyntaxError] = OfnSyntaxError):
        """Raise `error` at the line and column of token `at`."""
        offset = _token_offset(self.text, at)
        raise error(message, *_line_col(self.text, offset))

    def fail_expected(self, punct: str, at: int):
        self.fail(f"expected {punct!r} but found "
                  f"{_value(self.tokens[at])!r}", at)

    def fail_keyword(self, at: int, expected: str):
        """Token `at` is no keyword allowed there; `expected` formats it."""
        tok = self.tokens[at]
        if _kind(tok) == "ident":
            self.fail(tok, at, UnsupportedConstructError)
        self.fail(expected.format(_value(tok)), at)

    def name_iri(self, at: int) -> str:
        """The full IRI of prefixed name `at`.  An <IRI> is read in place,
        so any other token is an error."""
        tok = self.tokens[at]
        if _kind(tok) != "pname":
            self.fail(f"expected an IRI but found {_value(tok)!r}", at)
        prefix, local = tok.split(":", 1)
        if prefix not in self.prefixes:
            self.fail(f"undeclared prefix {prefix + ':'!r}", at)
        return self.prefixes[prefix] + local

    def use(self, iri: str, kind: str, at: int, verb: str = "used"
            ) -> EntityRef:
        """`known[iri]`, made of `kind` if `iri` is new; fails if `iri` is
        known as another kind.  `verb` says how token `at` met `iri`."""
        ref = self.known.get(iri)
        if ref is None:
            ref = self.known[iri] = EntityRef(iri, kind)
        elif ref.kind != kind:
            self.fail(f"{iri} {verb} as {kind} but already known as "
                      f"{ref.kind}", at)
        return ref

    # grammar

    def parse_document(self) -> tuple[list[Axiom], str | None]:
        tokens = self.tokens
        axioms = self.axioms
        while tokens[self.pos] == "Prefix":
            self.parse_prefix()
        at = self.pos
        wrapped = tokens[at] == "Ontology"
        if wrapped:
            if tokens[at + 1] != "(":
                self.fail_expected("(", at + 1)
            self.pos = at + 2
            if tokens[at + 2][:1] == "<":
                self.ontology_iri = tokens[at + 2][1:-1]
                self.pos = at + 3
        while tokens[self.pos] not in ("", ")"):
            axioms.append(self.parse_axiom())
        at = self.pos  # the end of the text or a ')'
        if wrapped and not tokens[at]:
            self.fail("missing ')' closing Ontology(...)", at)
        if tokens[at] and not wrapped:
            self.fail("unexpected ')'", at)
        if wrapped and tokens[at + 1]:
            self.fail("content after closing ')' of Ontology(...)", at + 1)
        return axioms, self.ontology_iri

    def parse_prefix(self) -> None:
        tokens = self.tokens
        at = self.pos  # Prefix
        if tokens[at + 1] != "(":
            self.fail_expected("(", at + 1)
        name = tokens[at + 2]
        if _kind(name) != "pname" or not name.endswith(":"):
            self.fail("expected prefix declaration like p:=<iri>", at + 2)
        if tokens[at + 3] != "=":
            self.fail_expected("=", at + 3)
        iri = tokens[at + 4]
        if iri[:1] != "<":
            self.fail("prefix must expand to a full <IRI>", at + 4)
        self.prefixes[name[:-1]] = iri[1:-1]
        if tokens[at + 5] != ")":
            self.fail_expected(")", at + 5)
        self.pos = at + 6

    def parse_axiom(self) -> Axiom:
        tokens = self.tokens
        at = self.pos
        kw = tokens[at]
        if kw not in _AXIOM_KEYWORDS:
            self.fail_keyword(at, "expected an axiom but found {!r}")
        if tokens[at + 1] != "(":
            self.fail_expected("(", at + 1)
        pos = at + 2
        if kw == "Declaration":  # Declaration(Kind(iri))
            kind = _DECL_KEYWORDS.get(tokens[pos])
            if kind is None:
                self.fail_keyword(
                    pos, "expected Class/ObjectProperty/NamedIndividual")
            if tokens[pos + 1] != "(":
                self.fail_expected("(", pos + 1)
            tok = tokens[pos + 2]
            iri = tok[1:-1] if tok[:1] == "<" else self.name_iri(pos + 2)
            if iri in (THING_IRI, NOTHING_IRI):
                self.fail("owl:Thing and owl:Nothing cannot be declared",
                          pos + 2)
            ref = self.use(iri, kind, pos + 2, "declared")
            self.declared.add(iri)
            if tokens[pos + 3] != ")":
                self.fail_expected(")", pos + 3)
            axiom = Declaration(ref)
            pos += 4
        elif kw == "AnnotationAssertion":  # (property subject "literal")
            tok = tokens[pos]
            prop_iri = tok[1:-1] if tok[:1] == "<" else self.name_iri(pos)
            tok = tokens[pos + 1]
            subj_iri = tok[1:-1] if tok[:1] == "<" else self.name_iri(pos + 1)
            subject = self.known.get(subj_iri)
            if subject is None and subj_iri in (THING_IRI, NOTHING_IRI):
                self.fail("owl:Thing/owl:Nothing cannot carry annotations",
                          pos + 1)
            literal = tokens[pos + 2]
            if literal[:1] != '"':
                self.fail("annotation value must be a quoted string", pos + 2)
            if subject is None:
                subject = EntityRef(subj_iri, CLASS)
                self.unresolved.append(len(self.axioms))
            axiom = AnnotationAssertion(subject, prop_iri, _value(literal))
            pos += 3
        else:
            self.pos = pos
            if kw == "SubClassOf":
                axiom = SubClassOf(self.parse_class_expr(),
                                   self.parse_class_expr())
            elif kw == "EquivalentClasses":
                parts = []
                while tokens[self.pos] != ")":
                    parts.append(self.parse_class_expr())
                if len(parts) < 2:
                    self.fail("EquivalentClasses requires ≥ 2 members", at)
                axiom = EquivalentClasses(tuple(parts))
            else:
                axiom = SubObjectPropertyOf(self.parse_property(),
                                            self.parse_property())
            pos = self.pos
        if tokens[pos] != ")":
            self.fail_expected(")", pos)
        self.pos = pos + 1
        return axiom

    def parse_property(self) -> EntityRef:
        at = self.pos
        self.pos = at + 1
        tok = self.tokens[at]
        iri = tok[1:-1] if tok[:1] == "<" else self.name_iri(at)
        if iri in (THING_IRI, NOTHING_IRI):
            self.fail(f"owl:{iri_fragment(iri)} is not allowed here", at)
        return self.use(iri, OBJECT_PROPERTY, at)

    def parse_class_expr(self, depth: int = 0) -> ClassExpr:
        """`depth` counts the constructors enclosing this expression."""
        at = self.pos
        tok = self.tokens[at]
        if tok[:1] == "<":
            iri = tok[1:-1]
        elif tok in _EXPR_KEYWORDS:
            return self.parse_constructor(tok, depth)
        elif _kind(tok) == "pname":
            iri = self.name_iri(at)
        else:
            self.fail_keyword(at, "expected a class expression but found {!r}")
        self.pos = at + 1
        if iri == THING_IRI:
            return Thing()
        if iri == NOTHING_IRI:
            return Nothing()
        return NamedClass(self.use(iri, CLASS, at))

    def parse_constructor(self, kw: str, depth: int) -> ClassExpr:
        """The expression built by keyword `kw`, the token at `pos`."""
        tokens = self.tokens
        at = self.pos
        if depth == MAX_EXPR_DEPTH:
            self.fail(f"class expression nested deeper than {MAX_EXPR_DEPTH}",
                      at)
        if tokens[at + 1] != "(":
            self.fail_expected("(", at + 1)
        self.pos = at + 2
        if kw == "ObjectSomeValuesFrom":
            expr = SomeValuesFrom(self.parse_property(),
                                  self.parse_class_expr(depth + 1))
            if tokens[self.pos] != ")":
                self.fail_expected(")", self.pos)
        else:
            parts = []
            while tokens[self.pos] != ")":
                parts.append(self.parse_class_expr(depth + 1))
            if len(parts) < 2:
                self.fail(f"{kw} requires ≥ 2 members", at)
            expr = IntersectionOf(tuple(parts)) \
                if kw == "ObjectIntersectionOf" else UnionOf(tuple(parts))
        self.pos += 1
        return expr


def parse_ontology(text: str) -> Ontology:
    """Parse `.ofn` text into an Ontology.

    Axiom order is preserved.  Entities referenced by logical axioms or
    annotations without a Declaration are auto-declared (appended after the
    explicit axioms, sorted by IRI) and reported via a warning log.
    """
    parser = _Parser(text)
    axioms, onto_iri = parser.parse_document()

    known = parser.known
    for i in parser.unresolved:  # a subject only ever annotated is a class
        a = axioms[i]
        ref = known.setdefault(a.subject.iri, a.subject)
        if ref is not a.subject:
            axioms[i] = AnnotationAssertion(ref, a.property, a.literal)

    missing = sorted(known.keys() - parser.declared)
    if missing:
        logger.warning("auto-declared %d undeclared entit%s: %s",
                       len(missing), "y" if len(missing) == 1 else "ies",
                       ", ".join(missing[:5]) + ("..." if len(missing) > 5 else ""))
        axioms.extend(Declaration(known[iri]) for iri in missing)
    return Ontology(tuple(axioms), onto_iri)


def read_ontology(path) -> Ontology:
    # utf-8-sig drops a leading byte-order mark, which is not OFN syntax
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return parse_ontology(fh.read())


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
