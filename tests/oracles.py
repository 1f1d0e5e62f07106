"""Independent brute-force oracles used by the test suite.

The semantic locality oracle enumerates every interpretation of the
in-signature names over domains of size 1..3 (classes as bitmasks over the
domain, properties as bitmasks over domain pairs); names outside the
signature are fixed to the empty class/property.  It never consults the
package's syntactic rules, so it can catch them being unsound.
"""

from __future__ import annotations

import itertools
import logging
import re
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ontodivide.errors import InvariantError, OfnSyntaxError
from ontodivide.locality import is_local
from ontodivide.ontology import (OBJECT_PROPERTY, AnnotationAssertion, Axiom,
                                 Declaration, EntityRef, EquivalentClasses,
                                 IntersectionOf, NamedClass, Nothing,
                                 Ontology, SomeValuesFrom, SubClassOf,
                                 SubObjectPropertyOf, Thing, UnionOf,
                                 axiom_signature)

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
    mod_onto = Ontology(tuple(axioms), onto.label_properties, onto.iri)
    if not resolved <= mod_onto.signature:
        raise InvariantError("module lost part of its seed signature")
    return mod_onto


# --- reference tokenizer ----------------------------------------------------
# The character-at-a-time `.ofn` scanner the token pattern replaced, kept
# verbatim as the differential reference for `ontology._tokenize`.

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
            while i < n and text[i] != "\n":
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


# --- reference entry vectors and training pairs -----------------------------
# The per-entry object code that `LexIndex.encoding` replaced, kept as the
# differential reference for the encoding and `entry_vectors`; the removed
# `LexValue.all_entities` method is the free function `all_entities` here.

def all_entities(value) -> tuple[EntityRef, ...]:
    return tuple(sorted(value.entities1)) + tuple(sorted(value.entities2))


def reference_positive_pairs(lexi) -> list[tuple[str, EntityRef]]:
    pairs: list[tuple[str, EntityRef]] = []
    for key, value in lexi.sorted_entries:
        ents = all_entities(value)
        for w in key:
            for e in ents:
                pairs.append((w, e))
    return pairs


def reference_value_entity_multiset(lexi) -> tuple[EntityRef, ...]:
    """Value entities with one occurrence per containing entry."""
    out: list[EntityRef] = []
    for _, value in lexi.sorted_entries:
        out.extend(all_entities(value))
    return tuple(out)


def reference_entry_vector(entry, space) -> np.ndarray:
    """Key-word mean concatenated with value-entity mean (length 2d)."""
    key, value = entry
    word_mean = np.mean([space.word_vector(w) for w in key], axis=0)
    ent_mean = np.mean([space.entity_vector(e) for e in all_entities(value)],
                       axis=0)
    return np.concatenate([word_mean, ent_mean])
