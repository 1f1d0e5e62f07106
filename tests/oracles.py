"""Independent brute-force oracles used by the test suite.

The semantic locality oracle enumerates every interpretation of the
in-signature names over domains of size 1..3 (classes as bitmasks over the
domain, properties as bitmasks over domain pairs); names outside the
signature are fixed to the empty class/property.  It never consults the
syntactic locality rules (`is_local` below, or the package's locality
graph), so it can catch them being unsound.
"""

from __future__ import annotations

import itertools
import logging
import math
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping as MappingT, NamedTuple

import numpy as np

from ontodivide.clustering import ClusterAssignment
from ontodivide.config import MAX_ITERS, DivisionConfig
from ontodivide.errors import (InvariantError, OfnSyntaxError,
                               UnsupportedConstructError, check_int)
from ontodivide.lexindex import (_STOPWORDS, RELATIONS, IndexStats,
                                 LexKey, Mapping, _Stems,
                                 normalize_label, word_subsets)
from ontodivide.metrics import Alignment
from ontodivide.ontology import (BUILTIN_PREFIXES, CLASS, INDIVIDUAL,
                                 MAX_EXPR_DEPTH, NOTHING_IRI,
                                 OBJECT_PROPERTY, THING_IRI,
                                 AnnotationAssertion, Axiom, ClassExpr,
                                 Declaration, EntityRef, EquivalentClasses,
                                 IntersectionOf, NamedClass, Nothing,
                                 Ontology, SomeValuesFrom, SubClassOf,
                                 SubObjectPropertyOf, Thing, UnionOf,
                                 axiom_signature, entity_labels,
                                 iri_fragment)

logger = logging.getLogger(__name__)

# --- name collection (kept local so the oracle stands on its own) ----------


def expr_names(expr):
    if isinstance(expr, NamedClass):
        yield expr.ref
    elif isinstance(expr, (Thing, Nothing)):
        return
    elif isinstance(expr, (IntersectionOf, UnionOf)):
        for p in expr.parts:
            yield from expr_names(p)
    elif isinstance(expr, SomeValuesFrom):
        yield expr.prop
        yield from expr_names(expr.filler)
    else:
        raise TypeError(expr)


def axiom_names(axiom):
    if isinstance(axiom, SubClassOf):
        yield from expr_names(axiom.sub)
        yield from expr_names(axiom.sup)
    elif isinstance(axiom, EquivalentClasses):
        for p in axiom.parts:
            yield from expr_names(p)
    elif isinstance(axiom, SubObjectPropertyOf):
        yield axiom.sub
        yield axiom.sup
    elif isinstance(axiom, (Declaration, AnnotationAssertion)):
        return
    else:
        raise TypeError(axiom)


# --- model evaluation -------------------------------------------------------


def eval_expr(expr, env, m):
    """Bitmask of domain elements in the extension of `expr`."""
    full = (1 << m) - 1
    if isinstance(expr, NamedClass):
        return env.get(expr.ref, 0)
    if isinstance(expr, Thing):
        return full
    if isinstance(expr, Nothing):
        return 0
    if isinstance(expr, IntersectionOf):
        out = full
        for p in expr.parts:
            out &= eval_expr(p, env, m)
        return out
    if isinstance(expr, UnionOf):
        out = 0
        for p in expr.parts:
            out |= eval_expr(p, env, m)
        return out
    if isinstance(expr, SomeValuesFrom):
        rel = env.get(expr.prop, 0)
        filler = eval_expr(expr.filler, env, m)
        full_mask = full
        out = 0
        for x in range(m):
            if (rel >> (x * m)) & full_mask & filler:
                out |= 1 << x
        return out
    raise TypeError(expr)


def axiom_holds(axiom, env, m):
    if isinstance(axiom, SubClassOf):
        full = (1 << m) - 1
        return (eval_expr(axiom.sub, env, m)
                & ~eval_expr(axiom.sup, env, m) & full) == 0
    if isinstance(axiom, EquivalentClasses):
        masks = {eval_expr(p, env, m) for p in axiom.parts}
        return len(masks) == 1
    if isinstance(axiom, SubObjectPropertyOf):
        full = (1 << (m * m)) - 1
        return (env.get(axiom.sub, 0) & ~env.get(axiom.sup, 0) & full) == 0
    return True


def _interpretations(names, m):
    ranges = [range(1 << (m * m)) if e.kind == OBJECT_PROPERTY
              else range(1 << m) for e in names]
    for combo in itertools.product(*ranges):
        yield dict(zip(names, combo))


def semantically_bot(expr, sig, max_domain=3):
    names = sorted({e for e in expr_names(expr) if e in sig})
    for m in range(1, max_domain + 1):
        for env in _interpretations(names, m):
            if eval_expr(expr, env, m) != 0:
                return False
    return True


def semantically_top(expr, sig, max_domain=3):
    names = sorted({e for e in expr_names(expr) if e in sig})
    for m in range(1, max_domain + 1):
        full = (1 << m) - 1
        for env in _interpretations(names, m):
            if eval_expr(expr, env, m) != full:
                return False
    return True


def semantically_local(axiom, sig, max_domain=3):
    """True iff the bot-substituted axiom holds in every small model."""
    names = sorted({e for e in axiom_names(axiom) if e in sig})
    for m in range(1, max_domain + 1):
        for env in _interpretations(names, m):
            if not axiom_holds(axiom, env, m):
                return False
    return True


# --- random ontologies -------------------------------------------------------


def random_ontology(rng: np.random.Generator, base: str = "http://example.org/rand#",
                    max_axioms: int = 8) -> Ontology:
    """Small random ontology over <= 5 names with oracle-friendly axioms.

    Class axioms reference at most two distinct class names and one
    property, which keeps full model enumeration cheap.
    """
    classes = [EntityRef(base + n) for n in ("A", "B", "C")]
    props = [EntityRef(base + n, OBJECT_PROPERTY) for n in ("r", "s")]

    def named(pool):
        roll = rng.random()
        if roll < 0.8:
            return NamedClass(pool[rng.integers(len(pool))])
        return Thing() if roll < 0.9 else Nothing()

    def expr(pool, allow_prop):
        roll = rng.random()
        if roll < 0.45:
            return named(pool)
        if roll < 0.65:
            return IntersectionOf((named(pool), named(pool)))
        if roll < 0.85:
            return UnionOf((named(pool), named(pool)))
        if allow_prop:
            return SomeValuesFrom(props[0], named(pool))
        return named(pool)

    axioms = []
    n_axioms = int(rng.integers(1, max_axioms + 1))
    for _ in range(n_axioms):
        pool_idx = rng.permutation(3)[:2]
        pool = [classes[i] for i in pool_idx]
        roll = rng.random()
        if roll < 0.6:
            prop_side = rng.integers(2)
            axioms.append(SubClassOf(expr(pool, prop_side == 0),
                                     expr(pool, prop_side == 1)))
        elif roll < 0.85:
            axioms.append(EquivalentClasses((expr(pool, True),
                                             expr(pool, False))))
        else:
            sub, sup = rng.permutation(2)
            axioms.append(SubObjectPropertyOf(props[sub], props[sup]))
    decls = [Declaration(e) for e in (*classes, *props)]
    return Ontology(tuple(decls) + tuple(axioms), iri=base.rstrip("#"))


def random_signature(rng: np.random.Generator, onto: Ontology):
    return frozenset(e for e in sorted(onto.signature) if rng.random() < 0.5)


# --- syntactic locality -----------------------------------------------------
# The per-axiom bottom-locality rules that module extraction compiles into
# its and/or graph, kept as the reference for `reference_extract_module`
# and checked against the semantic oracle above.

def is_bot_equivalent(expr: ClassExpr, sig: Iterable[EntityRef]) -> bool:
    """True iff `expr` denotes the empty class once out-of-signature names
    are replaced by bottom, by the syntactic rules."""
    sig = sig if isinstance(sig, (set, frozenset)) else frozenset(sig)
    match expr:
        case NamedClass(ref):
            return ref not in sig
        case Nothing():
            return True
        case Thing():
            return False
        case IntersectionOf(parts):
            return any(is_bot_equivalent(p, sig) for p in parts)
        case UnionOf(parts):
            return all(is_bot_equivalent(p, sig) for p in parts)
        case SomeValuesFrom(prop, filler):
            return prop not in sig or is_bot_equivalent(filler, sig)
    raise TypeError(f"not a class expression: {expr!r}")


def is_top_equivalent(expr: ClassExpr, sig: Iterable[EntityRef]) -> bool:
    """True iff `expr` denotes the whole domain under the same substitution.

    Named classes are never top: the substitution maps them to bottom (when
    outside the signature) or leaves them unconstrained (when inside).
    """
    sig = sig if isinstance(sig, (set, frozenset)) else frozenset(sig)
    match expr:
        case Thing():
            return True
        case IntersectionOf(parts):
            return all(is_top_equivalent(p, sig) for p in parts)
        case UnionOf(parts):
            return any(is_top_equivalent(p, sig) for p in parts)
        case NamedClass(_) | Nothing() | SomeValuesFrom(_, _):
            return False
    raise TypeError(f"not a class expression: {expr!r}")


def is_local(axiom: Axiom, sig: Iterable[EntityRef]) -> bool:
    """Syntactic bottom-locality of one axiom w.r.t. a signature."""
    sig = sig if isinstance(sig, (set, frozenset)) else frozenset(sig)
    match axiom:
        case SubClassOf(sub, sup):
            return is_bot_equivalent(sub, sig) or is_top_equivalent(sup, sig)
        case EquivalentClasses(parts):
            return (all(is_bot_equivalent(p, sig) for p in parts)
                    or all(is_top_equivalent(p, sig) for p in parts))
        case SubObjectPropertyOf(sub, _):
            return sub not in sig
        case Declaration(_) | AnnotationAssertion(_, _, _):
            return True
    raise TypeError(f"not an axiom: {axiom!r}")


# --- reference module extraction ---------------------------------------------


def reference_extract_module(onto: Ontology,
                             seed: Iterable[EntityRef]) -> Ontology:
    """Module extraction by full scans of the ontology on every call.

    Least set of axioms closed under non-locality for the growing signature,
    plus the declarations and annotations of every module entity.
    """
    by_iri = {e.iri: e for e in onto.signature}
    resolved: set[EntityRef] = set()
    unknown: list[str] = []
    for e in seed:
        hit = by_iri.get(e.iri)
        if hit is None:
            unknown.append(e.iri)
        else:
            resolved.add(hit)
    if unknown:
        logger.warning("ignoring %d seed entit%s outside the signature: %s",
                       len(unknown), "y" if len(unknown) == 1 else "ies",
                       ", ".join(sorted(unknown)[:5]))

    logical = [(i, a) for i, a in enumerate(onto.axioms)
               if not isinstance(a, (Declaration, AnnotationAssertion))]
    occurs: dict[EntityRef, list[int]] = {}
    axiom_at: dict[int, Axiom] = {}
    for i, a in logical:
        axiom_at[i] = a
        for e in axiom_signature(a):
            occurs.setdefault(e, []).append(i)

    sig: set[EntityRef] = set(resolved)
    member: set[int] = set()
    queue: deque[EntityRef] = deque()

    def include(idx: int, a: Axiom) -> None:
        member.add(idx)
        for e in axiom_signature(a):
            if e not in sig:
                sig.add(e)
                queue.append(e)

    for i, a in logical:
        if i not in member and not is_local(a, sig):
            include(i, a)
    while queue:
        ent = queue.popleft()
        for i in occurs.get(ent, ()):
            if i not in member and not is_local(axiom_at[i], sig):
                include(i, axiom_at[i])

    module_entities = sig | resolved
    axioms: list[Axiom] = []
    for i, a in enumerate(onto.axioms):
        if isinstance(a, Declaration):
            if a.entity in module_entities:
                axioms.append(a)
        elif isinstance(a, AnnotationAssertion):
            if a.subject in module_entities:
                axioms.append(a)
        elif i in member:
            axioms.append(a)
    mod_onto = Ontology(tuple(axioms), onto.iri)
    if not resolved <= mod_onto.signature:
        raise InvariantError("module lost part of its seed signature")
    return mod_onto


# --- reference tokenizer ----------------------------------------------------
# The character-at-a-time `.ofn` scanner the token pattern replaced, kept
# verbatim as the differential reference for `ontology._tokenize`, except
# that a comment ends at CR as well as at LF.

@dataclass(frozen=True)
class _Token:
    kind: str  # "(", ")", "=", "iri", "pname", "string", "ident", "eof"
    value: str
    line: int
    column: int


_IDENT_START = re.compile(r"[A-Za-z_]")
_IDENT_CHAR = re.compile(r"[A-Za-z0-9_.\-]")
# would split the IRI's row in the TSV files written for a division
_IRI_FORBIDDEN = re.compile(r"[\t\r\n]")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def advance(k: int = 1):
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "#":
            while i < n and text[i] not in "\r\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch in "()=":
            tokens.append(_Token(ch, ch, start_line, start_col))
            advance()
            continue
        if ch == "<":
            j = text.find(">", i + 1)
            if j < 0:
                raise OfnSyntaxError("unterminated IRI", start_line, start_col)
            iri = text[i + 1:j]
            bad = _IRI_FORBIDDEN.search(iri)
            if bad:
                raise OfnSyntaxError(
                    f"control character {bad.group()!r} in IRI",
                    start_line, start_col + 1 + bad.start())
            advance(j - i + 1)
            tokens.append(_Token("iri", iri, start_line, start_col))
            continue
        if ch == '"':
            buf = []
            advance()
            while i < n and text[i] != '"':
                if text[i] == "\\" and i + 1 < n and text[i + 1] in '"\\':
                    buf.append(text[i + 1])
                    advance(2)
                else:
                    buf.append(text[i])
                    advance()
            if i >= n:
                raise OfnSyntaxError("unterminated string literal",
                                     start_line, start_col)
            advance()  # closing quote
            tokens.append(_Token("string", "".join(buf), start_line, start_col))
            continue
        if _IDENT_START.match(ch) or ch == ":":
            j = i
            while j < n and _IDENT_CHAR.match(text[j]):
                j += 1
            name = text[i:j]
            if j < n and text[j] == ":":
                # prefixed name (prefix may be empty for the default prefix)
                k = j + 1
                while k < n and _IDENT_CHAR.match(text[k]):
                    k += 1
                local = text[j + 1:k]
                advance(k - i)
                tokens.append(_Token("pname", f"{name}:{local}",
                                     start_line, start_col))
            elif name:
                advance(j - i)
                tokens.append(_Token("ident", name, start_line, start_col))
            else:
                raise OfnSyntaxError(f"unexpected character {ch!r}",
                                     start_line, start_col)
            continue
        raise OfnSyntaxError(f"unexpected character {ch!r}", start_line,
                             start_col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# --- reference parser -------------------------------------------------------
# The `.ofn` front end that the token-string parser replaced: one match
# object and one `_RefToken` per token, each carrying its offset.  Kept
# verbatim (only renamed, and a comment ends at CR as well as at LF) as the
# differential reference for `ontology.parse_ontology`.

class _RefToken(NamedTuple):
    kind: str  # "(", ")", "=", "iri", "pname", "string", "ident", "eof"
    value: str
    pos: int  # offset into the text; _line_col turns it into line/column


# One alternative per token kind.  An IRI holds no tab/CR/LF (they would
# split its row in the TSV files written for a division).  In a string a
# backslash always pairs with the next character, but only \" and \\ are
# escapes.  A prefixed name's prefix may be empty (the default prefix).
_NAME_CHARS = r"[A-Za-z0-9_.\-]*"
_REF_TOKEN = re.compile(rf"""
    (?P<skip>   (?: [ \t\r\n]+ | \#[^\r\n]* )+ )
  | (?P<punct>  [()=] )
  | < (?P<iri>  [^>\t\r\n]* ) >
  | " (?P<string> [^"\\]* (?: \\[\s\S] [^"\\]* )* ) "
  | (?P<pname>  (?: [A-Za-z_]{_NAME_CHARS} )? : {_NAME_CHARS} )
  | (?P<ident>  [A-Za-z_]{_NAME_CHARS} )
""", re.VERBOSE)
_ESCAPE = re.compile(r'\\(["\\])')


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


def _ref_tokenize(text: str) -> list[_RefToken]:
    tokens: list[_RefToken] = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if m is None:
            raise _scan_error(text, pos)
        kind = m.lastgroup
        value = m[kind]
        if kind == "punct":
            kind = value
        elif kind == "string":
            value = _ESCAPE.sub(r"\1", value)
        if kind != "skip":
            tokens.append(_RefToken(kind, value, pos))
        pos = m.end()
    tokens.append(_RefToken("eof", "", pos))
    return tokens


_AXIOM_KEYWORDS = {"Declaration", "SubClassOf", "EquivalentClasses",
                   "SubObjectPropertyOf", "AnnotationAssertion"}
_EXPR_KEYWORDS = {"ObjectIntersectionOf", "ObjectUnionOf",
                  "ObjectSomeValuesFrom"}
_DECL_KEYWORDS = {"Class": CLASS, "ObjectProperty": OBJECT_PROPERTY,
                  "NamedIndividual": INDIVIDUAL}


class _RefParser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _ref_tokenize(text)
        self.pos = 0
        self.prefixes = dict(BUILTIN_PREFIXES)
        self.declared: dict[str, str] = {}        # iri -> declared kind
        self.used: dict[str, str] = {}            # iri -> kind from position of use
        self.annotation_subjects: list[str] = []  # iris used only as subjects
        self.ontology_iri: str | None = None

    # token plumbing

    def peek(self) -> _RefToken:
        return self.tokens[self.pos]

    def next(self) -> _RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _RefToken:
        tok = self.next()
        if tok.kind != kind:
            self.fail(f"expected {kind!r} but found {tok.value!r}", tok)
        return tok

    def fail(self, message: str, tok: _RefToken,
             error: type[OfnSyntaxError] = OfnSyntaxError):
        raise error(message, *_line_col(self.text, tok.pos))

    # IRI resolution

    def resolve_iri(self, tok: _RefToken) -> str:
        if tok.kind == "iri":
            return tok.value
        if tok.kind == "pname":
            prefix, local = tok.value.split(":", 1)
            if prefix not in self.prefixes:
                self.fail(f"undeclared prefix {prefix + ':'!r}", tok)
            return self.prefixes[prefix] + local
        self.fail(f"expected an IRI but found {tok.value!r}", tok)

    def record_use(self, iri: str, kind: str, tok: _RefToken) -> EntityRef:
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


def reference_parse_ontology(text: str) -> Ontology:
    """Parse `.ofn` text into an Ontology.

    Axiom order is preserved.  Entities referenced by logical axioms or
    annotations without a Declaration are auto-declared (appended after the
    explicit axioms, sorted by IRI) and reported via a warning log.
    """
    parser = _RefParser(text)
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
    return Ontology(tuple(axioms), onto_iri)


# --- reference alignment reader ---------------------------------------------
# The row-at-a-time TSV reader that builds two `EntityRef`s per row, kept
# verbatim as the differential reference for `division.read_alignment_tsv`.

def reference_read_alignment_tsv(path) -> Alignment:
    """Read mappings from TSV; missing confidence defaults to 1.0."""
    mappings: set[Mapping] = set()
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) not in (3, 4):
                raise ValueError(
                    f"{path}:{lineno}: expected 3 or 4 tab-separated columns")
            e1, e2, rel = parts[0], parts[1], parts[2]
            if not e1 or not e2:
                raise ValueError(f"{path}:{lineno}: empty IRI")
            if rel not in RELATIONS:
                raise ValueError(f"{path}:{lineno}: bad relation {rel!r}")
            conf = 1.0
            if len(parts) == 4:
                try:
                    conf = float(parts[3])
                except ValueError:
                    conf = math.nan
                if not 0.0 < conf <= 1.0:
                    raise ValueError(
                        f"{path}:{lineno}: bad confidence {parts[3]!r}")
            mappings.add(Mapping(EntityRef(e1), EntityRef(e2), rel, conf))
    return Alignment(frozenset(mappings))


# --- reference lexical index ----------------------------------------------
# The 0.2.0 index, which keeps two `EntityRef` frozensets per entry, and its
# encoding for the trainer, built from those objects: `build_lexi`,
# `encode_index` and `mappings_of` verbatim (renamed), with the `LexValue`,
# `LexIndex` and `IndexEncoding` classes they build.  The integer index must
# give the same entries, stats, encoding arrays, candidates and modules.
# `entry_objects` decodes an integer index into that index's objects.

@dataclass(frozen=True)
class LexValue:
    entities1: frozenset[EntityRef]
    entities2: frozenset[EntityRef]

    def __len__(self) -> int:
        return len(self.entities1) + len(self.entities2)


def _ids(values) -> np.ndarray:
    out = np.array(values, dtype=np.intp)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class ReferenceIndexEncoding:
    words: tuple[str, ...]
    entities: tuple[EntityRef, ...]
    key_words: np.ndarray
    key_sizes: np.ndarray
    value_entities: np.ndarray
    value_sizes: np.ndarray

    @cached_property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Word and entity ids of all pairs: entry, key word, value entity."""
        runs = np.repeat(self.value_sizes, self.key_sizes)  # per key word
        # pair p of a key word's run is entity p of its entry's value run
        first = np.repeat(np.cumsum(self.value_sizes) - self.value_sizes,
                          self.key_sizes) - (np.cumsum(runs) - runs)
        pair_e = self.value_entities[np.arange(runs.sum())
                                     + np.repeat(first, runs)]
        return _ids(np.repeat(self.key_words, runs)), _ids(pair_e)


@dataclass(frozen=True)
class ReferenceLexIndex:
    entries: MappingT[LexKey, LexValue]
    alpha: int
    stats: IndexStats

    def __len__(self) -> int:
        return len(self.entries)

    @cached_property
    def sorted_entries(self) -> tuple[tuple[LexKey, LexValue], ...]:
        return tuple(sorted(self.entries.items()))

    @cached_property
    def encoding(self) -> ReferenceIndexEncoding:
        return reference_encode_index(self)


def entry_objects(lexi) -> tuple[tuple[LexKey, LexValue], ...]:
    """The entries of a `ReferenceLexIndex`, or those of a `LexIndex` read
    off its arrays, as (key, value) objects in key order."""
    if isinstance(lexi, ReferenceLexIndex):
        return lexi.sorted_entries
    entries = []
    for i in range(len(lexi)):
        key = lexi.key_words[lexi.key_ptr[i]:lexi.key_ptr[i + 1]]
        value = lexi.value_ids[lexi.value_ptr[i]:lexi.value_ptr[i + 1]]
        entries.append((tuple(lexi.words[w] for w in key), LexValue(
            frozenset(lexi.entities[e] for e in value if e < lexi.n_source),
            frozenset(lexi.entities[e] for e in value
                      if e >= lexi.n_source))))
    return tuple(entries)


def entry_map(lexi) -> dict[LexKey, LexValue]:
    """The entries of `lexi` by key, as `entry_objects` gives them."""
    return dict(entry_objects(lexi))


def reference_build_lexi(o1: Ontology, o2: Ontology,
                         cfg: DivisionConfig | None = None
                         ) -> ReferenceLexIndex:
    """Index both ontologies and keep entries that span the two of them."""
    if cfg is None:
        cfg = DivisionConfig()
    accum: dict[LexKey, tuple[set[EntityRef], set[EntityRef]]] = {}
    # labels repeat their words, so each distinct token is stemmed once per
    # build; not across builds, so every build costs what a fresh one does
    stem = _Stems().__getitem__
    for side, onto in ((0, o1), (1, o2)):
        for ent in onto.signature:  # entities go into sets; order unseen
            for label in entity_labels(onto, ent):
                words = normalize_label(label, _STOPWORDS, stem)
                if not words:
                    continue
                for key in word_subsets(words, cfg.max_subsets):
                    accum.setdefault(key, (set(), set()))[side].add(ent)

    entries: dict[LexKey, LexValue] = {}
    dropped_single = dropped_alpha = 0
    for key in sorted(accum):
        s1, s2 = accum[key]
        if not s1 or not s2:
            dropped_single += 1
            continue
        if len(s1) + len(s2) > cfg.alpha:
            dropped_alpha += 1
            continue
        entries[key] = LexValue(frozenset(s1), frozenset(s2))
    stats = IndexStats(raw_entries=len(accum), kept_entries=len(entries),
                       dropped_single_side=dropped_single,
                       dropped_over_alpha=dropped_alpha)
    return ReferenceLexIndex(entries, cfg.alpha, stats)


def reference_encode_index(lexi) -> ReferenceIndexEncoding:
    """The encoding of `lexi`; use the cached `lexi.encoding` instead."""
    entries = entry_objects(lexi)
    words = sorted({w for key, _ in entries for w in key})
    # (iri, kind) sorts and compares as EntityRef does, but hashes in C
    by_fields = {(e.iri, e.kind): e for _, value in entries
                 for e in value.entities1 | value.entities2}
    word_id = {w: i for i, w in enumerate(words)}
    ent_id = {f: i for i, f in enumerate(sorted(by_fields))}
    return ReferenceIndexEncoding(
        tuple(words), tuple(by_fields[f] for f in ent_id),
        _ids([word_id[w] for key, _ in entries for w in key]),
        _ids([len(key) for key, _ in entries]),
        # ids follow the entity order, so sorting ids sorts each side
        _ids([i for _, value in entries
              for side in (value.entities1, value.entities2)
              for i in sorted(ent_id[e.iri, e.kind] for e in side)]),
        _ids([len(value) for _, value in entries]))


def reference_mappings_of(entries: Iterable[tuple[LexKey, LexValue]]
                          ) -> frozenset[Mapping]:
    """Candidate mappings suggested by a subset of index entries."""
    # one `Mapping` per IRI pair, of the first entity pair met, as adding
    # each pair's `Mapping` to a set would keep
    pairs: dict[tuple[str, str], tuple[EntityRef, EntityRef]] = {}
    for _, value in entries:
        for e1 in value.entities1:
            for e2 in value.entities2:
                pairs.setdefault((e1.iri, e2.iri), (e1, e2))
    return frozenset([Mapping(e1, e2) for e1, e2 in pairs.values()])


# --- reference entry vectors and training pairs -----------------------------
# The per-entry object code that `LexIndex.encoding` replaced, kept as the
# differential reference for the encoding and `entry_vectors`; the removed
# `LexValue.all_entities` method is the free function `all_entities` here.

def all_entities(value) -> tuple[EntityRef, ...]:
    return tuple(sorted(value.entities1)) + tuple(sorted(value.entities2))


def reference_positive_pairs(lexi) -> list[tuple[str, EntityRef]]:
    pairs: list[tuple[str, EntityRef]] = []
    for key, value in entry_objects(lexi):
        ents = all_entities(value)
        for w in key:
            for e in ents:
                pairs.append((w, e))
    return pairs


def reference_value_entity_multiset(lexi) -> tuple[EntityRef, ...]:
    """Value entities with one occurrence per containing entry."""
    out: list[EntityRef] = []
    for _, value in entry_objects(lexi):
        out.extend(all_entities(value))
    return tuple(out)


def reference_entry_vector(entry, space) -> np.ndarray:
    """Key-word mean concatenated with value-entity mean (length 2d)."""
    key, value = entry
    word_mean = np.mean([space.word_vector(w) for w in key], axis=0)
    ent_mean = np.mean([space.entity_vector(e) for e in all_entities(value)],
                       axis=0)
    return np.concatenate([word_mean, ent_mean])


# --- reference trainer -------------------------------------------------------
# The 0.2.0 mini-batch trainer, verbatim with its helpers, which builds and
# scatters the dense (b, 1 + j, d) entity-gradient block, zero cells
# included.  `train_embeddings` must match it bit for bit.

_REF_BATCH = 256


def _ref_batch_gaps(v_w, v_cand, margin):
    scores = (v_cand @ v_w[:, :, None])[..., 0]
    return margin - scores[:, :1] + scores[:, 1:]


def _ref_batch_loss(gaps):
    return np.maximum(gaps, 0.0).sum(axis=1)


def _ref_batch_gradients(v_w, v_cand, gaps):
    viol = gaps > 0
    c = np.empty(v_cand.shape[:2])
    c[:, 0] = -viol.sum(axis=1)
    c[:, 1:] = viol
    return (c[:, None, :] @ v_cand)[:, 0], c[:, :, None] * v_w[:, None, :]


def _ref_flat_rows(rows, d):
    return (rows[:, None] * d + np.arange(d)).reshape(-1)


def _ref_project(matrix, rows, max_norm):
    touched = np.zeros(len(matrix), dtype=bool)
    touched[rows] = True
    rows = np.flatnonzero(touched)
    norms = np.linalg.norm(matrix[rows], axis=1)
    over = norms > max_norm
    matrix[rows[over]] *= (max_norm / norms[over])[:, None]


def reference_train_embeddings(lexi, cfg, max_norm):
    """(W, E, epoch_losses) as the 0.2.0 trainer computes them, from the
    0.2.0 encoding of `lexi`'s entries, with rows kept within `max_norm`."""
    enc = reference_encode_index(lexi)
    pair_w, pair_e = enc.pairs
    multiset = enc.value_entities
    if not len(pair_w):
        raise ValueError("cannot train on an empty index")

    rng = np.random.default_rng(cfg.seed)
    d = cfg.dim
    bound = 1.0 / d
    W = rng.uniform(-bound, bound, size=(len(enc.words), d))
    E = rng.uniform(-bound, bound, size=(len(enc.entities), d))
    flat_w = W.reshape(-1)
    flat_e = E.reshape(-1)

    total_steps = cfg.epochs * len(pair_w)
    step = 0
    losses = []
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(pair_w))
        epoch_loss = 0.0
        for start in range(0, len(pair_w), _REF_BATCH):
            batch = order[start:start + _REF_BATCH]
            b = len(batch)
            lr = cfg.learning_rate * (
                1.0 - (step + np.arange(b)) / total_steps)[:, None]
            step += b
            wi = pair_w[batch]
            rows = np.empty((b, 1 + cfg.negatives), dtype=np.intp)
            rows[:, 0] = pair_e[batch]
            rows[:, 1:] = multiset[rng.integers(0, len(multiset),
                                                size=(b, cfg.negatives))]
            rows = rows.reshape(-1)
            v_w = W[wi]
            v_cand = E[rows].reshape(b, 1 + cfg.negatives, d)
            gaps = _ref_batch_gaps(v_w, v_cand, cfg.margin)
            epoch_loss += float(_ref_batch_loss(gaps).sum())
            g_w, g_cand = _ref_batch_gradients(v_w, v_cand, gaps)
            g_w *= -lr
            g_cand *= -lr[:, :, None]
            np.add.at(flat_w, _ref_flat_rows(wi, d), g_w.reshape(-1))
            np.add.at(flat_e, _ref_flat_rows(rows, d), g_cand.reshape(-1))
            _ref_project(W, wi, max_norm)
            _ref_project(E, rows, max_norm)
        losses.append(epoch_loss)
        if not (math.isfinite(epoch_loss) and np.isfinite(W).all()
                and np.isfinite(E).all()):
            raise RuntimeError(
                f"non-finite embedding values after epoch {epoch}; "
                "lower the learning rate")
    return W, E, tuple(losses)


# --- reference projection ----------------------------------------------------
# The projection of the trainer before its bound test, verbatim: it takes
# the norm of every touched row.  `embedding._project` must leave the same
# bits and raise the same errors.

def reference_project(matrix, rows, max_norm):
    """Rescale the given rows whose norm exceeds max_norm onto the ball."""
    # a mask dedupes the rows faster than np.unique's hash table
    touched = np.zeros(len(matrix), dtype=bool)
    touched[rows] = True
    rows = np.flatnonzero(touched)
    norms = np.linalg.norm(matrix[rows], axis=1)
    if np.isinf(norms).any():  # scaling by max_norm / inf would zero the row
        raise ValueError("non-finite embedding norm; lower the learning "
                         "rate or the margin")
    over = norms > max_norm
    matrix[rows[over]] *= (max_norm / norms[over])[:, None]


# --- reference k-means -------------------------------------------------------
# The 0.2.0 k-means, verbatim with its helpers, which builds fresh
# data-sized temporaries at every step.  `kmeans` must match it bit for bit.

_INERTIA_TOL = 1e-9


def _ref_pairwise_sq_dists(X: np.ndarray, x2: np.ndarray,
                           C: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of X (squared norms x2) to C's rows."""
    d2 = x2[:, None] + np.sum(C * C, axis=1)[None, :] - 2.0 * (X @ C.T)
    return np.maximum(d2, 0.0)


def _ref_plus_plus_init(X: np.ndarray, n: int,
                        rng: np.random.Generator) -> np.ndarray:
    m = X.shape[0]
    centroids = np.empty((n, X.shape[1]), dtype=float)
    first = int(rng.integers(m))
    centroids[0] = X[first]
    closest = np.sum((X - centroids[0]) ** 2, axis=1)
    for c in range(1, n):
        total = closest.sum()
        if total <= 0:  # every point equals one of the c centroids
            raise ValueError(
                f"n={n} exceeds the {c} distinct points available")
        idx = int(rng.choice(m, p=closest / total))
        centroids[c] = X[idx]
        closest = np.minimum(closest, np.sum((X - centroids[c]) ** 2, axis=1))
    return centroids


def reference_kmeans(points: np.ndarray, n: int, seed: int,
                     max_iters: int = MAX_ITERS) -> ClusterAssignment:
    """Cluster the rows of an (m, dim) matrix into n non-empty clusters."""
    check_int("n", n)
    if n <= 0:
        raise ValueError("n must be >= 1")
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    X = np.asarray(points, dtype=float)
    if X.ndim != 2 or not len(X):
        raise ValueError("points must be a non-empty (m, dim) matrix")
    m = X.shape[0]
    centroids = _ref_plus_plus_init(X, n, np.random.default_rng(seed))

    history: list[float] = []
    assign = np.full(m, -1, dtype=np.intp)
    x2 = np.sum(X * X, axis=1)
    for _ in range(max_iters):
        d2 = _ref_pairwise_sq_dists(X, x2, centroids)
        new_assign = d2.argmin(axis=1)

        for repairs in range(n + 1):
            empties = np.flatnonzero(np.bincount(new_assign, minlength=n) == 0)
            if empties.size == 0:
                break
            if repairs == n:
                raise InvariantError("empty-cluster repair failed to settle")
            far = int(d2[np.arange(m), new_assign].argmax())
            empty_id = int(empties[0])
            centroids[empty_id] = X[far]
            d2[:, empty_id] = np.sum((X - centroids[empty_id]) ** 2, axis=1)
            new_assign = d2.argmin(axis=1)

        inertia = float(d2[np.arange(m), new_assign].sum())
        if history and inertia > history[-1] * (1 + _INERTIA_TOL) + 1e-12:
            raise InvariantError(
                f"inertia increased: {history[-1]} -> {inertia}")
        history.append(inertia)

        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(n):
            centroids[c] = X[assign == c].mean(axis=0)

    centroids.flags.writeable = assign.flags.writeable = False
    return ClusterAssignment(n, assign, centroids, history[-1], len(history),
                             tuple(history))


# --- reference Porter stemmer ----------------------------------------------
# The stateful buffer port of the maintained C stemmer that
# `ontodivide.stemming` replaced, kept verbatim; one instance per thread.


class ReferencePorterStemmer:
    """Stateful buffer implementation; one instance may be reused freely."""

    def __init__(self):
        self._b = ""  # current word buffer
        self._k = 0   # index of last live character in the buffer
        self._j = 0   # end of the stem a matched suffix was removed from

    # -- classification helpers over the buffer ---------------------------

    def _is_consonant(self, i: int) -> bool:
        ch = self._b[i]
        if ch in "aeiou":
            return False
        if ch == "y":
            return i == 0 or not self._is_consonant(i - 1)
        return True

    def _measure(self) -> int:
        """Number of vowel-consonant sequences in b[0..j]."""
        i = 0
        n = 0
        while i <= self._j and self._is_consonant(i):
            i += 1
        while True:
            while True:
                if i > self._j:
                    return n
                if self._is_consonant(i):
                    break
                i += 1
            n += 1
            while i <= self._j and self._is_consonant(i):
                i += 1

    def _has_vowel(self) -> bool:
        return any(not self._is_consonant(i) for i in range(self._j + 1))

    def _double_consonant(self, i: int) -> bool:
        return i > 0 and self._b[i] == self._b[i - 1] and self._is_consonant(i)

    def _cvc(self, i: int) -> bool:
        """consonant-vowel-consonant ending at i, last consonant not w/x/y."""
        if i < 2 or not self._is_consonant(i) or self._is_consonant(i - 1) \
                or not self._is_consonant(i - 2):
            return False
        return self._b[i] not in "wxy"

    # -- suffix matching/rewriting -----------------------------------------

    def _ends(self, suffix: str) -> bool:
        if suffix[-1] != self._b[self._k]:
            return False
        length = len(suffix)
        if length > self._k + 1:
            return False
        if self._b[self._k - length + 1:self._k + 1] != suffix:
            return False
        self._j = self._k - length
        return True

    def _set_suffix(self, s: str) -> None:
        self._b = self._b[:self._j + 1] + s
        self._k = len(self._b) - 1

    def _replace_if_measure(self, s: str) -> None:
        if self._measure() > 0:
            self._set_suffix(s)

    # -- the five steps ------------------------------------------------------

    def _step1ab(self) -> None:
        # plurals, -ed, -ing
        if self._b[self._k] == "s":
            if self._ends("sses"):
                self._k -= 2
            elif self._ends("ies"):
                self._set_suffix("i")
            elif self._b[self._k - 1] != "s":
                self._k -= 1
        if self._ends("eed"):
            if self._measure() > 0:
                self._k -= 1
        elif (self._ends("ed") or self._ends("ing")) and self._has_vowel():
            self._k = self._j
            if self._ends("at"):
                self._set_suffix("ate")
            elif self._ends("bl"):
                self._set_suffix("ble")
            elif self._ends("iz"):
                self._set_suffix("ize")
            elif self._double_consonant(self._k):
                if self._b[self._k - 1] not in "lsz":
                    self._k -= 1
            elif self._measure() == 1 and self._cvc(self._k):
                self._set_suffix("e")

    def _step1c(self) -> None:
        # terminal y -> i when the stem has another vowel
        if self._ends("y") and self._has_vowel():
            self._b = self._b[:self._k] + "i"

    # Ordered (suffix, replacement) tables; at most one group can apply per
    # word, so sequential scanning preserves the reference precedence.
    _STEP2 = (
        ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
        ("anci", "ance"), ("izer", "ize"), ("bli", "ble"), ("alli", "al"),
        ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
        ("ation", "ate"), ("ator", "ate"), ("alism", "al"),
        ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
        ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"), ("logi", "log"),
    )
    _STEP3 = (
        ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
        ("ical", "ic"), ("ful", ""), ("ness", ""),
    )

    def _step2(self) -> None:
        for suffix, repl in self._STEP2:
            if self._ends(suffix):
                self._replace_if_measure(repl)
                return

    def _step3(self) -> None:
        for suffix, repl in self._STEP3:
            if self._ends(suffix):
                self._replace_if_measure(repl)
                return

    _STEP4 = (
        "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
        "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )

    def _step4(self) -> None:
        for suffix in self._STEP4:
            if self._ends(suffix):
                # -ion only counts after s or t
                if suffix == "ion" and self._b[self._j] not in "st":
                    continue
                if self._measure() > 1:
                    self._k = self._j
                return

    def _step5(self) -> None:
        self._j = self._k
        if self._b[self._k] == "e":
            m = self._measure()
            if m > 1 or (m == 1 and not self._cvc(self._k - 1)):
                self._k -= 1
        if self._b[self._k] == "l" and self._double_consonant(self._k) \
                and self._measure() > 1:
            self._k -= 1

    def stem(self, word: str) -> str:
        word = word.lower()
        if len(word) <= 2:
            return word
        self._b = word
        self._k = len(word) - 1
        self._step1ab()
        self._step1c()
        self._step2()
        self._step3()
        self._step4()
        self._step5()
        return self._b[:self._k + 1]
