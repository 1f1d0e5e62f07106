"""Ontology data model and the `.ofn` functional-syntax subset.

The model is deliberately small: named classes, object properties and
individuals; subclass/equivalence/subproperty axioms; intersection, union
and existential restrictions as class expressions; plus label annotations.
Everything is immutable after parsing; derived structures (signature, IRI
lookup, locality graph) are computed once per ontology on first use and
cached on the instance, where `division.divide` also keeps the index of
the ontology's last division.  One parse hands out one `EntityRef` per
(IRI, kind).

A text laid out one axiom per line is read by one line pass
(`_parse_lines`), any other text by the grammar as a whole.
`read_division` runs the same pass over every file of a division, with
one ref table and one memo of the lines read, so that the files share
their refs and each distinct line is read once.
"""

from __future__ import annotations

import gc
import re
from _thread import allocate_lock
from collections.abc import Iterator
from functools import cached_property, total_ordering, wraps
from itertools import islice

from .errors import OfnSyntaxError, UnsupportedConstructError

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


def _scan_error(text: str, pos: int, line: int = 0) -> OfnSyntaxError:
    """Why no token starts at offset `pos`, in a document whose first
    `line` lines come before `text`."""
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
    row, column = _line_col(text, pos)
    return OfnSyntaxError(message, line + row, column)


def _tokenize(text: str, line: int = 0) -> list[str]:
    """Token strings of `text`, ending in one "".  A scan error counts the
    `line` lines of the document before `text`."""
    tokens = _TOKEN.findall(text)
    if len(tokens) > 1:
        last = tokens[-2]
        if not last:  # trailing blanks leave a second "" at the very end
            tokens.pop()
        elif last != ")" and not _ONE_TOKEN.fullmatch(last):
            # the catch-all took the rest of the text: a scan error
            raise _scan_error(text, len(text) - len(last), line)
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
    of an entity (`use`), or to fail.  Every `EntityRef` comes from `refs`,
    one per (IRI, kind), which parsers may share.  `text` may be the rest
    of a document, after its first `line` lines.
    """

    def __init__(self, text: str,
                 refs: dict[tuple[str, str], EntityRef] | None = None):
        self.text = text
        self.line = 0
        self.refs = {} if refs is None else refs
        self.tokens = _tokenize(text)
        self.pos = 0                              # index of the next token
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

    def fail(self, message: str, at: int,
             error: type[OfnSyntaxError] = OfnSyntaxError):
        """Raise `error` at the line and column of token `at`."""
        row, column = _line_col(self.text, _token_offset(self.text, at))
        raise error(message, self.line + row, column)

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
        iri = self.names.get(tok)
        if iri is None:
            if _kind(tok) != "pname":
                self.fail(f"expected an IRI but found {_value(tok)!r}", at)
            prefix, local = tok.split(":", 1)
            if prefix not in self.prefixes:
                self.fail(f"undeclared prefix {prefix + ':'!r}", at)
            iri = self.names[tok] = self.prefixes[prefix] + local
        return iri

    def new_ref(self, iri: str, kind: str) -> EntityRef:
        """The ref of `iri` as `kind`; the parser makes none else."""
        ref = self.refs.get((iri, kind))
        if ref is None:
            ref = self.refs[iri, kind] = EntityRef(iri, kind)
        return ref

    def use(self, iri: str, kind: str, at: int, verb: str = "used"
            ) -> EntityRef:
        """`known[iri]`, made of `kind` if `iri` is new; fails if `iri` is
        known as another kind.  `verb` says how token `at` met `iri`."""
        ref = self.known.get(iri)
        if ref is None:
            ref = self.known[iri] = self.new_ref(iri, kind)
        elif ref.kind != kind:
            self.fail(f"{iri} {verb} as {kind} but already known as "
                      f"{ref.kind}", at)
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

    # grammar

    def parse_document(self) -> None:
        self.parse_body(self.parse_head())

    def parse_body(self, wrapped: bool) -> None:
        """Read axioms up to the end of the text or a `)`, which closes
        `Ontology(` if `wrapped`, and check that nothing follows."""
        tokens = self.tokens
        axioms = self.axioms
        while tokens[self.pos] not in ("", ")"):
            axioms.append(self.parse_axiom())
        at = self.pos  # the end of the text or a ')'
        if wrapped and not tokens[at]:
            self.fail("missing ')' closing Ontology(...)", at)
        if tokens[at] and not wrapped:
            self.fail("unexpected ')'", at)
        if wrapped and tokens[at + 1]:
            self.fail("content after closing ')' of Ontology(...)", at + 1)

    def parse_head(self) -> bool:
        """Read the prefixes, then `Ontology(` and its IRI if they come
        next; whether they came."""
        tokens = self.tokens
        while tokens[self.pos] == "Prefix":
            self.parse_prefix()
        at = self.pos
        if tokens[at] != "Ontology":
            return False
        if tokens[at + 1] != "(":
            self.fail_expected("(", at + 1)
        self.pos = at + 2
        self.parse_ontology_iri()
        return True

    def parse_ontology_iri(self) -> None:
        """Read the ontology IRI, if it comes next."""
        tok = self.tokens[self.pos]
        if tok[:1] == "<":
            self.ontology_iri = tok[1:-1]
            self.pos += 1

    def parse_alone(self, line: str
                    ) -> tuple[Axiom, tuple[EntityRef, ...]] | None:
        """The one axiom `line` holds and the entities it uses, in order of
        first use, as a fresh parser with these prefixes reads them; None
        unless `line` is one axiom."""
        self.known = {}
        try:
            self.text, self.pos = line, 0
            self.tokens = _tokenize(line)
            axiom = self.parse_axiom()
        except OfnSyntaxError:
            return None
        return None if self.tokens[self.pos] \
            else (axiom, tuple(self.known.values()))

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
                subject = self.new_ref(subj_iri, CLASS)
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


# --- line pass ----------------------------------------------------------------
# The flat axiom lines, maybe indented: a declaration (groups 1-2), a subclass
# of a class (3-4) or of an existential (3, 5-6), and an annotation (7-9).  A
# name slot takes any run of characters but controls, spaces, parentheses
# and quotes, and `_flat_iri` checks that it is one <IRI> or prefixed name:
# a loose slot keeps the pattern quick to compile.
_NAME = r'([^\x00- ()"]+)'
_SHAPE = re.compile(
    rf"[ \t]*(?:Declaration\((Class|ObjectProperty|NamedIndividual)\({_NAME}\)\)"
    rf"|SubClassOf\({_NAME} (?:{_NAME}|ObjectSomeValuesFrom\({_NAME} {_NAME}\))\)"
    rf'|AnnotationAssertion\({_NAME} {_NAME} ("[^"\\]*(?:\\.[^"\\]*)*")\))')


def _flat_iri(tok: str, prefixes: dict[str, str]) -> str | None:
    """The IRI of name slot `tok` of a `_SHAPE` match, if `tok` is an <IRI>
    or a prefixed name of a prefix in `prefixes`, and names neither
    owl:Thing nor owl:Nothing; else None, and the grammar reads the line."""
    if tok[0] == "<":
        if tok.find(">") != len(tok) - 1:
            return None
        iri = tok[1:-1]
    else:
        prefix, colon, local = tok.partition(":")
        if not colon or prefix not in prefixes \
                or not _ONE_TOKEN.fullmatch(tok):
            return None
        iri = prefixes[prefix] + local
    return None if iri == THING_IRI or iri == NOTHING_IRI else iri


def _parse_lines(text: str, refs: dict | None = None,
                 memo: dict | None = None) -> Ontology | None:
    """The ontology of `text` as `_Parser.parse_document` reads it, read
    line by line; None where the whole text must be parsed.

    The grammar reads the prefixes and the `Ontology(` header, up to the
    header's line.  Then each line is blank, a comment, a flat shape, or one
    axiom that the grammar reads alone.  A flat line meets its entities in
    the grammar's order, against the file's kind table; a line read alone
    is replayed against it.  At the first other line (the closing `)`, a
    line the grammar refuses alone, an entity of two kinds) the grammar
    reads the rest of the text from the state read so far, and gives the
    result or the error.  None for another head, a CR, or no `)` line.

    Every `EntityRef` comes from `refs`, keyed by (IRI, kind).  `memo`
    maps each line read to its axiom and the entities it uses, in order of
    first use, as a fresh `_Parser(line, refs)` gives them, and a line met
    again is replayed from it.  It serves only a text with the built-in
    prefixes, as an entry holds the IRIs its names have under them.
    """
    if "\r" in text:  # a CR ends a comment but not a line
        return None
    lines = text.split("\n")
    for at, line in enumerate(lines):
        word = line.lstrip(" \t")[:8]
        if word == "Ontology":
            break
        if word and word[0] != "#" and word[:6] != "Prefix":
            return None
    else:
        return None
    try:
        parser = _Parser("\n".join(lines[:at + 1]), refs)
        if not parser.parse_head() or parser.tokens[parser.pos]:
            return None
    except OfnSyntaxError:
        return None
    prefixes, known, axioms = parser.prefixes, parser.known, parser.axioms
    declared, new_ref, shape = parser.declared, parser.new_ref, _SHAPE.fullmatch
    if prefixes != BUILTIN_PREFIXES:
        memo = None
    alone = None  # parses each line no shape takes, made for the first
    seen: dict[str, EntityRef] = {}  # name token -> its known ref
    properties: dict[str, str] = {}  # annotation property token -> its IRI

    def use(tok: str, kind: str) -> EntityRef | None:
        """`parser.use` of name slot `tok`; None if it would fail, or if
        `_flat_iri` does not take the slot."""
        ref = seen.get(tok)
        if ref is None:
            iri = _flat_iri(tok, prefixes)
            if iri is None:
                return None
            ref = known.get(iri)
            if ref is None:
                ref = known[iri] = new_ref(iri, kind)
            seen[tok] = ref
        return ref if ref.kind == kind else None

    for at in range(at + 1, len(lines)):
        line = lines[at]
        entry = None if memo is None else memo.get(line)
        m = shape(line) if entry is None else None
        if m is not None:
            kind, name, sub, sup, prop, filler, annotation, subject, literal \
                = m.groups()
            if kind is not None:  # Declaration(Kind(name))
                ref = use(name, _DECL_KEYWORDS[kind])
                if ref is not None:
                    declared.add(ref.iri)
                    entry = Declaration(ref), (ref,)
            elif literal is not None:  # AnnotationAssertion(p subject "…")
                prop = properties.get(annotation)
                if prop is None:
                    prop = _flat_iri(annotation, prefixes)
                    properties[annotation] = prop
                ref = seen.get(subject)
                if ref is None and prop is not None:
                    iri = _flat_iri(subject, prefixes)
                    if iri is not None:
                        ref = known.get(iri)
                        if ref is None:  # a placeholder, as `parse_axiom` makes
                            ref = new_ref(iri, CLASS)
                            parser.unresolved.append(len(axioms))
                        else:
                            seen[subject] = ref
                if ref is not None and prop is not None:
                    axiom = AnnotationAssertion(ref, prop, _value(literal))
                    axioms.append(axiom)
                    if memo is not None:  # read alone, the subject is a class
                        if ref.kind != CLASS:
                            axiom = AnnotationAssertion(
                                new_ref(ref.iri, CLASS), prop, axiom.literal)
                        memo[line] = axiom, ()
                    continue
            # every name is met even after one fails: the grammar then reads
            # the line again, meeting the same names, or refuses it
            elif prop is None:  # SubClassOf(sub sup)
                a, b = use(sub, CLASS), use(sup, CLASS)
                if a is not None and b is not None:
                    entry = (SubClassOf(NamedClass(a), NamedClass(b)),
                             (a,) if a is b else (a, b))
            else:  # SubClassOf(sub ObjectSomeValuesFrom(prop filler))
                a, p = use(sub, CLASS), use(prop, OBJECT_PROPERTY)
                f = use(filler, CLASS)
                if a is not None and p is not None and f is not None:
                    entry = (SubClassOf(NamedClass(a),
                                        SomeValuesFrom(p, NamedClass(f))),
                             (a, p) if a is f else (a, p, f))
            if entry is not None:
                axioms.append(entry[0])
                if memo is not None:
                    memo[line] = entry
                continue
        if entry is None:
            word = line.strip(" \t")
            if not word or word[0] == "#":
                continue
            if word == ")":
                break
            if alone is None:
                alone = _Parser("", parser.refs)
                alone.prefixes, alone.names = prefixes, parser.names
            entry = alone.parse_alone(line)
            if entry is None:
                break
            if memo is not None:
                memo[line] = entry
        # replay the line read alone against the file's kind table
        axiom, uses = entry
        for ref in uses:  # refs are shared, so another kind is another ref
            if known.setdefault(ref.iri, ref) is not ref:
                break
        else:
            if type(axiom) is Declaration:
                declared.add(axiom.entity.iri)
            elif type(axiom) is AnnotationAssertion:
                # the subject as the grammar takes it here: the known
                # entity, else a class placeholder
                subject = known.get(axiom.subject.iri)
                if subject is None:
                    subject = new_ref(axiom.subject.iri, CLASS)
                    parser.unresolved.append(len(axioms))
                if subject is not axiom.subject:
                    axiom = AnnotationAssertion(subject, axiom.property,
                                                axiom.literal)
            axioms.append(axiom)
            continue
        break  # an entity of two kinds
    else:
        return None  # no closing ')'
    # the grammar reads the rest, from line `at` on, with the state so far
    rest = parser.text = "\n".join(lines[at:])
    parser.line, parser.pos, parser.tokens = at, 0, _tokenize(rest, at)
    if not axioms and parser.ontology_iri is None:
        parser.parse_ontology_iri()  # on a line after `Ontology(`
    parser.parse_body(True)
    return parser.finish()


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
    explicit axioms, sorted by IRI) and reported via a warning log.  A text
    laid out one axiom per line is read line by line (`_parse_lines`), any
    other text as a whole; the two give one result.
    """
    return _parse(text)


def _parse(text: str, refs: dict | None = None, memo: dict | None = None
           ) -> Ontology:
    """`parse_ontology(text)`, through `_parse_lines`' `refs` and `memo`."""
    onto = _parse_lines(text, refs, memo)
    if onto is None:
        parser = _Parser(text, refs)
        parser.parse_document()
        onto = parser.finish()
    return onto


def _read_text(path) -> str:
    # utf-8-sig drops a leading byte-order mark, which is not OFN syntax
    with open(path, encoding="utf-8-sig", newline="") as fh:
        return fh.read()


def read_ontology(path) -> Ontology:
    return parse_ontology(_read_text(path))


# --- serializer ---------------------------------------------------------------

def _escape(literal: str) -> str:
    return literal.replace("\\", "\\\\").replace('"', '\\"')


def _iri(iri: str) -> str:
    """`<iri>`; ValueError if the parser would not read it back."""
    if ">" in iri or "\t" in iri or "\r" in iri or "\n" in iri:
        raise ValueError(f"cannot write IRI {iri!r}: it holds '>', a tab, "
                         "CR or LF")
    return f"<{iri}>"


def _expr_text(expr: ClassExpr) -> str:
    match expr:
        case NamedClass(ref):
            return _iri(ref.iri)
        case Thing():
            return "owl:Thing"
        case Nothing():
            return "owl:Nothing"
        case IntersectionOf(parts):
            return "ObjectIntersectionOf(" + " ".join(map(_expr_text, parts)) + ")"
        case UnionOf(parts):
            return "ObjectUnionOf(" + " ".join(map(_expr_text, parts)) + ")"
        case SomeValuesFrom(prop, filler):
            return f"ObjectSomeValuesFrom({_iri(prop.iri)} {_expr_text(filler)})"
    raise TypeError(f"not a class expression: {expr!r}")


_DECL_NAMES = {kind: name for name, kind in _DECL_KEYWORDS.items()}


def axiom_text(axiom: Axiom) -> str:
    match axiom:
        case Declaration(entity):
            return f"Declaration({_DECL_NAMES[entity.kind]}({_iri(entity.iri)}))"
        case SubClassOf(sub, sup):
            return f"SubClassOf({_expr_text(sub)} {_expr_text(sup)})"
        case EquivalentClasses(parts):
            return "EquivalentClasses(" + " ".join(map(_expr_text, parts)) + ")"
        case SubObjectPropertyOf(sub, sup):
            return f"SubObjectPropertyOf({_iri(sub.iri)} {_iri(sup.iri)})"
        case AnnotationAssertion(subject, prop, literal):
            return (f"AnnotationAssertion({_iri(prop)} {_iri(subject.iri)} "
                    f'"{_escape(literal)}")')
    raise TypeError(f"not an axiom: {axiom!r}")


def serialize(onto: Ontology) -> str:
    """Render back to `.ofn` text (full IRIs, one axiom per line)."""
    return _serialize(onto, {})


def _serialize(onto: Ontology, lines: dict[int, str]) -> str:
    """`serialize(onto)`, taking each axiom's line from `lines`, keyed by the
    axiom's id, and adding the lines it lacks.  The caller keeps every axiom
    rendered into `lines` alive while it uses `lines`, since a dead object's
    id can be reused."""
    out = [f"Ontology({_iri(onto.iri)}" if onto.iri is not None
           else "Ontology("]
    for a in onto.axioms:
        line = lines.get(id(a))
        if line is None:
            line = lines[id(a)] = "  " + axiom_text(a)
        out.append(line)
    out.append(")")
    return "\n".join(out) + "\n"
