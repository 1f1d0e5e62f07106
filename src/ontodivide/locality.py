"""Bottom-locality module extraction and mapping contexts.

An axiom is omitted from a module only when replacing every class/property
name outside the signature by the bottom concept (empty class/property)
turns it into a tautology.  The resulting module is self-contained: no
axiom of the source ontology outside the module is non-local with respect
to the seed plus the module's own signature.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvariantError
from .lexindex import Mapping
from .ontology import (AnnotationAssertion, Axiom, ClassExpr, Declaration,
                       EntityRef, EquivalentClasses, IntersectionOf,
                       NamedClass, Nothing, Ontology, SomeValuesFrom,
                       SubClassOf, SubObjectPropertyOf, Thing, UnionOf)


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
    annotates one.  A fired logical axiom fires its entities; a declaration
    or annotation fires only after its entity, so it feeds nothing.  Entity
    nodes are keyed by IRI: one IRI names one entity.
    """

    def __init__(self, axioms: tuple[Axiom, ...]):
        self.top, self.bot = top, bot = len(axioms), len(axioms) + 1
        self.need = need = [1] * top + [0, 1]
        self.feeds: list[list[int]] = [[] for _ in range(bot + 1)]
        self.entity_node: dict[str, int] = {}
        feeds, entity_node = self.feeds, self.entity_node

        def gate(inputs: list[int], k: int) -> int:
            node = len(need)
            need.append(k)
            feeds.append([])
            for j in inputs:
                feeds[j].append(node)
            return node

        def entity(iri: str, out: list[int]) -> int:
            node = entity_node.get(iri)
            if node is None:
                node = entity_node[iri] = len(need)
                need.append(1)
                feeds.append([])
            out.append(node)
            return node

        def names(expr: ClassExpr, out: list[int]) -> None:
            """Add the entity nodes of `expr` to `out`."""
            t = type(expr)
            if t is NamedClass:
                entity(expr.ref.iri, out)
            elif t is SomeValuesFrom:
                entity(expr.prop.iri, out)
                names(expr.filler, out)
            elif t is IntersectionOf or t is UnionOf:
                for p in expr.parts:
                    names(p, out)

        def node(expr: ClassExpr, out: list[int]) -> int:
            """The node that fires iff `expr` is not bottom; its entity
            nodes go to `out`."""
            t = type(expr)
            if t is NamedClass:
                return entity(expr.ref.iri, out)
            if t is SomeValuesFrom:
                return gate([entity(expr.prop.iri, out),
                             node(expr.filler, out)], 2)
            if t is IntersectionOf:
                return gate([node(p, out) for p in expr.parts],
                            len(expr.parts))
            if t is UnionOf:
                return gate([node(p, out) for p in expr.parts], 1)
            if t is Thing:
                return top
            if t is Nothing:
                return bot
            raise TypeError(f"not a class expression: {expr!r}")

        # a logical axiom's entity nodes are its feeds; an entity met twice
        # is fed twice, which fires it once all the same
        for i, a in enumerate(axioms):
            out = feeds[i]
            t = type(a)
            if t is Declaration:
                inputs = [entity(a.entity.iri, [])]
            elif t is AnnotationAssertion:
                inputs = [entity(a.subject.iri, [])]
            elif t is SubClassOf:
                if _is_top(a.sup):
                    names(a.sub, out)
                    inputs = [bot]
                else:
                    inputs = [node(a.sub, out)]
                names(a.sup, out)
            elif t is EquivalentClasses:
                if all(map(_is_top, a.parts)):
                    for p in a.parts:
                        names(p, out)
                    inputs = [bot]
                else:
                    inputs = [node(p, out) for p in a.parts]
            elif t is SubObjectPropertyOf:
                inputs = [entity(a.sub.iri, out)]
                entity(a.sup.iri, out)
            else:
                raise TypeError(f"not an axiom: {a!r}")
            for j in inputs:
                feeds[j].append(i)
        # `names` and `node` reach themselves through their closure cells:
        # emptying the cells leaves no cycle for the collector to free
        del names, node
        # ⊤ and any intersection of no parts
        self.sources = [i for i, k in enumerate(need) if not k]

    def closure(self, seed: Iterable[str]) -> list[int]:
        """Sorted indices of the axioms fired by ⊤ and the `seed` IRIs."""
        need, feeds, top = self.need.copy(), self.feeds, self.top
        stack = [self.entity_node[iri] for iri in seed]
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

    Seed entities not in the ontology's signature are ignored with a warning;
    a seed entity stands for the entity of its IRI, whatever its kind.
    Declarations and annotations for every module entity are attached, so the
    result is a valid ontology usable on its own.
    """
    known = onto.entity_by_iri
    iris: set[str] = set()
    unknown: list[str] = []
    for e in seed:
        if e.iri in known:
            iris.add(e.iri)
        else:
            unknown.append(e.iri)
    if unknown:
        import logging  # only here, so that a division does not load it
        logging.getLogger(__name__).warning(
            "ignoring %d seed entit%s outside the signature: %s",
            len(unknown), "y" if len(unknown) == 1 else "ies",
            ", ".join(sorted(unknown)[:5]))
    return _module(onto, iris)


def _module(onto: Ontology, iris: set[str]) -> Ontology:
    """The module of `onto` for `iris`, all of its signature."""
    kept = onto.locality_graph.closure(iris)
    mod_onto = Ontology(tuple(onto.axioms[i] for i in kept), onto.iri)
    if not iris.issubset(e.iri for e in mod_onto.signature):
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
    left_seed: set[str] = set()
    right_seed: set[str] = set()
    dropped = 0
    for m in mappings:
        iri1, iri2 = m.e1.iri, m.e2.iri
        if iri1 not in sig1 or iri2 not in sig2:
            dropped += 1
            continue
        left_seed.add(iri1)
        right_seed.add(iri2)
    if dropped:
        import logging  # only here, so that a division does not load it
        logging.getLogger(__name__).warning(
            "dropped %d mapping(s) referencing entities outside the "
            "ontology signatures", dropped)
    return _module(o1, left_seed), _module(o2, right_seed)
