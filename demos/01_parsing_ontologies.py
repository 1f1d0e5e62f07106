"""Parsing `.ofn` ontologies and inspecting entities and labels.

Walks through the input format: declarations, subclass axioms, class
expressions and label annotations, plus what happens when an entity is
referenced without being declared.
"""

from importlib import resources

from ontodivide import EntityRef, entity_labels, parse_ontology, serialize

# The package bundles a small anatomy pair used throughout the demos.
text = resources.files("ontodivide.data").joinpath("anatomy_toy_1.ofn") \
    .read_text(encoding="utf-8")
onto = parse_ontology(text)

print("== signature ==")
classes = sorted(e.iri for e in onto.signature if e.kind == "class")
props = sorted(e.iri for e in onto.signature if e.kind == "object-property")
print(f"{len(classes)} classes, {len(props)} object properties")
print("first five classes:")
for iri in classes[:5]:
    print(" ", iri)

# Labels come from annotation assertions (rdfs:label, skos and oboInOwl
# synonyms by default); entities without any fall back to a readable
# version of their IRI fragment.
print()
print("== labels ==")
ns = "http://example.org/mouse-anatomy#"
for name in ("Mitral_valve", "Renal_pelvis", "Vibrissa"):
    labels = entity_labels(onto, EntityRef(ns + name))
    print(f"{name}: {labels}")

# Undeclared entities referenced by axioms are auto-declared with a warning.
print()
print("== auto-declaration ==")
small = parse_ontology("Declaration(Class(:A)) SubClassOf(:A :B)")
print("axioms after parsing 'Declaration(Class(:A)) SubClassOf(:A :B)':")
print(serialize(small))

# Serialization round-trips: re-parsing gives the same axiom set.
again = parse_ontology(serialize(onto))
print("round trip preserves the axiom set:",
      set(again.axioms) == set(onto.axioms))
