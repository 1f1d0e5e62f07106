"""The `.ofn` grammar and writer, imported on first need.

`ontology._parse` reads a text laid out one axiom per line by itself;
this module holds what it hands any other line to, and any other text
from the offset where the line pass stops (`_parse_rest`): the tokenizer
and the recursive-descent `_Parser`, which reads the whole subset and
places every error at its line and column in the whole text.  The writer
renders an ontology back to text, one axiom per line, as `write_division`
writes each module.
"""

from __future__ import annotations

import re
from itertools import islice

from .errors import OfnSyntaxError, UnsupportedConstructError
from .ontology import (_DECL_KEYWORDS, _NAME_CHARS, CLASS, NOTHING_IRI,
                       OBJECT_PROPERTY, THING_IRI, AnnotationAssertion, Axiom,
                       ClassExpr, Declaration, EntityRef, EquivalentClasses,
                       IntersectionOf, NamedClass, Nothing, Ontology,
                       SomeValuesFrom, SubClassOf, SubObjectPropertyOf, Thing,
                       UnionOf, _ParseState, _value)

# --- tokenizer ----------------------------------------------------------------
# A token is its text: `(`, `)`, `=`, an IRI in brackets, a quoted string, a
# prefixed name or an identifier; "" ends the text.  An IRI holds no tab/CR/LF
# (they would split its row in the TSV files written for a division).  In a
# string a backslash always pairs with the next character, but only \" and \\
# are escapes.  A name is scanned once: an identifier, made a prefixed name by
# a following `:local`; or `:local` alone, in the default prefix.
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
_IRI_FORBIDDEN = re.compile(r"[\t\r\n]")
_KINDS = {"(": "(", ")": ")", "=": "=", "<": "iri", '"': "string", "": "eof"}


def _kind(tok: str) -> str:
    """One of "(", ")", "=", "iri", "string", "pname", "ident", "eof"."""
    return _KINDS.get(tok[:1]) or ("pname" if ":" in tok else "ident")


def _line_col(text: str, pos: int) -> tuple[int, int]:
    """1-based line and column of the character at offset `pos`."""
    return text.count("\n", 0, pos) + 1, pos - text.rfind("\n", 0, pos)


def _token_offset(text: str, i: int, start: int = 0) -> int:
    """Offset of token `i` of `_tokenize(text, start)`, by scanning again."""
    return next(islice(_TOKEN.finditer(text, start), i, None)).start(1)


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


def _tokenize(text: str, start: int = 0) -> list[str]:
    """Token strings of `text` from offset `start` on, ending in one ""."""
    tokens = _TOKEN.findall(text, start)
    if len(tokens) > 1:
        last = tokens[-2]
        if not last:  # trailing blanks leave a second "" at the very end
            tokens.pop()
        elif last != ")" and not _ONE_TOKEN.fullmatch(last):
            # the catch-all took the rest of the text: a scan error
            raise _scan_error(text, len(text) - len(last))
    return tokens


# --- parser -----------------------------------------------------------------

_AXIOM_KEYWORDS = {"Declaration", "SubClassOf", "EquivalentClasses",
                   "SubObjectPropertyOf", "AnnotationAssertion"}
_EXPR_KEYWORDS = {"ObjectIntersectionOf", "ObjectUnionOf",
                  "ObjectSomeValuesFrom"}
# keeps every recursive walk over a parsed expression within Python's stack
MAX_EXPR_DEPTH = 100


class _Parser(_ParseState):
    """Recursive descent over the token strings of one text, from offset
    `start` on (`_parse_rest`).

    A production reads its tokens by index, checks each before it reads the
    next (so it never reads past the final ""), and leaves `pos` after
    itself.  It calls out to resolve a prefixed name, to check the kind
    of an entity (`use`), or to fail.
    """

    def __init__(self, text: str,
                 refs: dict[tuple[str, str], EntityRef] | None = None,
                 start: int = 0):
        super().__init__(refs)
        self.text, self.start = text, start
        self.tokens = _tokenize(text, start)
        self.pos = 0                              # index of the next token

    def fail(self, message: str, at: int,
             error: type[OfnSyntaxError] = OfnSyntaxError):
        """Raise `error` at the line and column of token `at`."""
        raise error(message, *_line_col(
            self.text, _token_offset(self.text, at, self.start)))

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

    # grammar

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
        next; whether `Ontology(` came."""
        tokens = self.tokens
        while tokens[self.pos] == "Prefix":
            self.parse_prefix()
        at = self.pos
        if tokens[at] != "Ontology":
            return False
        if tokens[at + 1] != "(":
            self.fail_expected("(", at + 1)
        self.pos = at + 2
        tok = tokens[at + 2]
        if tok[:1] == "<":  # the ontology IRI
            self.ontology_iri = tok[1:-1]
            self.pos += 1
        return True

    def parse_alone(self, line: str
                    ) -> tuple[Axiom, tuple[EntityRef, ...]] | None:
        """The one axiom `line` holds and the entities it uses, in order of
        first use, as a fresh parser with these prefixes reads them; None
        unless `line` is one axiom.  `unresolved` is left as it was."""
        self.known, unresolved = {}, len(self.unresolved)
        try:
            self.text, self.pos = line, 0
            self.tokens = _tokenize(line)
            axiom = self.parse_axiom()
        except OfnSyntaxError:
            return None
        finally:  # drop an annotation's placeholder index
            del self.unresolved[unresolved:]
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
            self.fail(f"owl:{iri.rpartition('#')[2]} is not allowed here", at)
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


def _parse_rest(state: _ParseState, text: str, start: int, body: bool
                ) -> Ontology:
    """The ontology of `text`, whose part before offset `start` the line
    pass read into `state`: the grammar reads on from that state and
    offset, the head first unless `body` (the pass read `Ontology(`)."""
    parser = _Parser(text, state.refs, start)
    for name, value in vars(state).items():
        setattr(parser, name, value)
    parser.parse_body(body or parser.parse_head())
    return parser.finish()


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
