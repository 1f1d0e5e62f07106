"""Bottom-locality modules: self-contained fragments for a seed signature.

An axiom stays out of a module only when replacing every name outside the
signature by the bottom concept makes it trivially true.  Subclass axioms
therefore pull in superclasses (and restriction fillers) transitively,
while unrelated siblings stay out.  The context of an alignment is the
pair of modules for its left and right entities.
"""

from importlib import resources

from ontodivide import (EntityRef, Mapping, context_of, extract_module,
                        parse_ontology, serialize)

NS = "http://example.org/ontology#"
A, B, C = (EntityRef(NS + n) for n in "ABC")

print("== locality of single axioms ==")
# an axiom is local for a signature iff the module of that signature in the
# ontology of that axiom alone leaves it out
decls = "Declaration(Class(:A)) Declaration(Class(:B))\n"
for axiom in ("SubClassOf(:A :B)", "SubClassOf(:A owl:Thing)"):
    single = parse_ontology(decls + axiom)
    for seed, name in (({A}, "{A}"), ({B}, "{B}")):
        local = not extract_module(single, seed).logical_axioms
        print(f"{axiom} with signature {name}: local = {local}")

chain = parse_ontology(
    "Declaration(Class(:A)) Declaration(Class(:B)) Declaration(Class(:C))\n"
    "SubClassOf(:A :B)\nSubClassOf(:B :C)\n")
print()
print("== transitive pull-in along a subclass chain ==")
module = extract_module(chain, {A})
print("seed {A} gives", len(module.logical_axioms),
      "logical axioms (both links of the chain)")
module = extract_module(chain, {C})
print("seed {C} gives", len(module.logical_axioms),
      "logical axioms (nothing above C)")

data = resources.files("ontodivide.data")
o1 = parse_ontology(data.joinpath("anatomy_toy_1.ofn").read_text())
o2 = parse_ontology(data.joinpath("anatomy_toy_2.ofn").read_text())

print()
print("== module for one entity of the toy ontology ==")
mitral = EntityRef("http://example.org/mouse-anatomy#Mitral_valve")
module = extract_module(o1, {mitral})
print(f"|Sig| = {len(module.signature)} of {len(o1.signature)}:")
for e in sorted(module.signature):
    print(" ", e.iri.rsplit("#", 1)[1])

print()
print("== context of a two-mapping alignment ==")
alignment = [
    Mapping(EntityRef("http://example.org/mouse-anatomy#Kidney"),
            EntityRef("http://example.org/human-anatomy#Kidney")),
    Mapping(EntityRef("http://example.org/mouse-anatomy#Renal_pelvis"),
            EntityRef("http://example.org/human-anatomy#RenalPelvis")),
]
left, right = context_of(alignment, o1, o2)
print(f"left module: {len(left.signature)} entities, "
      f"right module: {len(right.signature)} entities")
print()
print("left module serialized:")
print(serialize(left))
