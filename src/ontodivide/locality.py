"""Bottom-locality module extraction and mapping contexts.

An axiom is omitted from a module only when replacing every class/property
name outside the signature by the bottom concept (empty class/property)
turns it into a tautology.  The resulting module is self-contained: no
axiom of the source ontology outside the module is non-local with respect
to the seed plus the module's own signature.
"""

from __future__ import annotations

import logging
from collections import deque
from typing import Iterable

from .errors import InvariantError
from .lexindex import Mapping
from .ontology import (LOGICAL_AXIOM_TYPES, AnnotationAssertion, Axiom,
                       ClassExpr, Declaration, EntityRef, EquivalentClasses,
                       IntersectionOf, NamedClass, Nothing, Ontology,
                       SomeValuesFrom, SubClassOf, SubObjectPropertyOf, Thing,
                       UnionOf, axiom_signature)

logger = logging.getLogger(__name__)


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


def extract_module(onto: Ontology, seed: Iterable[EntityRef]) -> Ontology:
    """Least set of axioms closed under non-locality for the growing signature.

    Seed entities not in the ontology's signature are ignored with a warning.
    Declarations and annotations for every module entity are attached, so the
    result is a valid ontology usable on its own.  Only axioms that mention a
    module entity are visited, through the per-ontology `occurrences` and
    `unconditional_axioms`, so the cost grows with the module.
    """
    resolved: set[EntityRef] = set()
    unknown: list[str] = []
    for e in seed:
        hit = onto.entity_by_iri.get(e.iri)
        if hit is None:
            unknown.append(e.iri)
        else:
            resolved.add(hit)
    if unknown:
        logger.warning("ignoring %d seed entit%s outside the signature: %s",
                       len(unknown), "y" if len(unknown) == 1 else "ies",
                       ", ".join(sorted(unknown)[:5]))

    axioms = onto.axioms
    occurrences = onto.occurrences
    sig: set[EntityRef] = set(resolved)
    member: set[int] = set()
    queue: deque[EntityRef] = deque(resolved)

    def include(idx: int) -> None:
        member.add(idx)
        for e in axiom_signature(axioms[idx]):
            if e not in sig:
                sig.add(e)
                queue.append(e)

    # An axiom is local for a signature iff it is local for the part of the
    # signature it mentions, so a non-local axiom either is unconditional or
    # mentions an entity of the module; every entity is visited once.
    for i in onto.unconditional_axioms:
        include(i)
    while queue:
        for i in occurrences.get(queue.popleft(), ()):
            if i in member:
                continue
            a = axioms[i]
            # declarations and annotations of a module entity join with it
            if not isinstance(a, LOGICAL_AXIOM_TYPES) or not is_local(a, sig):
                include(i)

    mod_onto = Ontology(tuple(axioms[i] for i in sorted(member)),
                        onto.label_properties, onto.iri)
    if not resolved <= mod_onto.signature:
        raise InvariantError("module lost part of its seed signature")
    return mod_onto


def context_of(mappings: Iterable[Mapping], o1: Ontology,
               o2: Ontology) -> tuple[Ontology, Ontology]:
    """Pair of modules for the left- and right-hand entities of an alignment.

    Mappings whose entities are missing from the respective signatures are
    dropped with a warning.
    """
    sig1 = o1.entity_by_iri
    sig2 = o2.entity_by_iri
    left_seed: set[EntityRef] = set()
    right_seed: set[EntityRef] = set()
    dropped = 0
    for m in mappings:
        if m.e1.iri not in sig1 or m.e2.iri not in sig2:
            dropped += 1
            continue
        left_seed.add(m.e1)
        right_seed.add(m.e2)
    if dropped:
        logger.warning("dropped %d mapping(s) referencing entities outside "
                       "the ontology signatures", dropped)
    return extract_module(o1, left_seed), extract_module(o2, right_seed)
