"""Bottom-locality module extraction and mapping contexts.

An axiom is omitted from a module only when replacing every class/property
name outside the signature by the bottom concept (empty class/property)
turns it into a tautology.  The resulting module is self-contained: no
axiom of the source ontology outside the module is non-local with respect
to the seed plus the module's own signature.
"""

from __future__ import annotations

import logging
from typing import Iterable

from .errors import InvariantError
from .lexindex import Mapping
from .ontology import (AnnotationAssertion, Axiom, ClassExpr, Declaration,
                       EntityRef, EquivalentClasses, IntersectionOf,
                       NamedClass, Nothing, Ontology, SomeValuesFrom,
                       SubClassOf, SubObjectPropertyOf, Thing, UnionOf,
                       axiom_signature)

logger = logging.getLogger(__name__)


def _is_top(expr: ClassExpr) -> bool:
    """True iff `expr` is top by the syntactic rules, for any signature."""
    match expr:
        case Thing():
            return True
        case IntersectionOf(parts):
            return all(map(_is_top, parts))
        case UnionOf(parts):
            return any(map(_is_top, parts))
    return False


class _LocalityGraph:
    """The axioms of an ontology as a monotone and/or graph.

    Node i < m is axiom i, m is ⊤ and m + 1 is ⊥; entities, intersections,
    unions and existentials follow.  A node fires once `need[i]` of its
    inputs have: an expression's iff it is not bottom for the fired
    entities, an axiom's iff it is non-local for them or declares or
    annotates one.  A fired axiom fires its entities.
    """

    def __init__(self, axioms: tuple[Axiom, ...]):
        self.top, self.bot = len(axioms), len(axioms) + 1
        self.need = [1] * self.top + [0, 1]
        self.feeds: list[list[int]] = [[] for _ in range(self.bot + 1)]
        self.entity_node: dict[EntityRef, int] = {}
        for i, a in enumerate(axioms):
            self.feeds[i] = [self._entity(e) for e in axiom_signature(a)]
            match a:
                case SubClassOf(sub, sup):
                    inputs = [self.bot if _is_top(sup) else self._node(sub)]
                case EquivalentClasses(parts):
                    inputs = [self.bot] if all(map(_is_top, parts)) \
                        else [self._node(p) for p in parts]
                case SubObjectPropertyOf(e, _) | Declaration(e) \
                        | AnnotationAssertion(e, _, _):
                    inputs = [self._entity(e)]
            for j in inputs:
                self.feeds[j].append(i)
        # ⊤ and any intersection of no parts
        self.sources = [i for i, k in enumerate(self.need) if not k]

    def _gate(self, inputs: list[int], need: int) -> int:
        node = len(self.need)
        self.need.append(need)
        self.feeds.append([])
        for j in inputs:
            self.feeds[j].append(node)
        return node

    def _entity(self, e: EntityRef) -> int:
        if e not in self.entity_node:
            self.entity_node[e] = self._gate([], 1)
        return self.entity_node[e]

    def _node(self, expr: ClassExpr) -> int:
        """The node that fires iff `expr` is not bottom."""
        match expr:
            case NamedClass(ref):
                return self._entity(ref)
            case Thing():
                return self.top
            case Nothing():
                return self.bot
            case IntersectionOf(parts):
                return self._gate([self._node(p) for p in parts], len(parts))
            case UnionOf(parts):
                return self._gate([self._node(p) for p in parts], 1)
            case SomeValuesFrom(prop, filler):
                return self._gate([self._entity(prop), self._node(filler)], 2)
        raise TypeError(f"not a class expression: {expr!r}")

    def closure(self, seed: Iterable[EntityRef]) -> list[int]:
        """Sorted indices of the axioms fired by ⊤ and the `seed` entities."""
        need, feeds, top = self.need.copy(), self.feeds, self.top
        stack = [self.entity_node[e] for e in seed]
        for i in stack:
            need[i] = 0
        stack += self.sources
        fired = []
        while stack:
            i = stack.pop()
            if i < top:  # an axiom
                fired.append(i)
            for j in feeds[i]:
                need[j] -= 1
                if not need[j]:
                    stack.append(j)
        return sorted(fired)


def extract_module(onto: Ontology, seed: Iterable[EntityRef]) -> Ontology:
    """Least set of axioms closed under non-locality for the growing signature.

    Seed entities not in the ontology's signature are ignored with a warning.
    Declarations and annotations for every module entity are attached, so the
    result is a valid ontology usable on its own.
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

    kept = onto.locality_graph.closure(resolved)
    mod_onto = Ontology(tuple(onto.axioms[i] for i in kept), onto.iri)
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
