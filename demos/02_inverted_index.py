"""Building the inverted lexical index that links two ontologies.

Labels are split into words, stop-words dropped, the rest stemmed; subsets
of each word set become index keys pointing at the entities on both sides.
Entries touching only one ontology, or fanning out past alpha entities,
are discarded.  What survives generates the candidate mappings.
"""

from importlib import resources

from ontodivide import (LexConfig, all_candidate_mappings, build_lexi,
                        load_default_stopwords, normalize_label,
                        parse_ontology, porter_stem, word_subsets)

stopwords = load_default_stopwords()

print("== label normalization ==")
for label in ("Lunate facet of hamate", "Disorder of pregnancy", "of the"):
    print(f"{label!r} -> {sorted(normalize_label(label, stopwords))}")

print()
print("== stemming a few tokens ==")
for word in ("arteries", "pregnancy", "anatomical", "valves"):
    print(f"{word} -> {porter_stem(word)}")

print()
print("== word subsets used as keys ==")
words = normalize_label("Left atrioventricular valve", stopwords)
for key in word_subsets(words, max_subsets=50):
    print(" ", key)

data = resources.files("ontodivide.data")
o1 = parse_ontology(data.joinpath("anatomy_toy_1.ofn").read_text())
o2 = parse_ontology(data.joinpath("anatomy_toy_2.ofn").read_text())

print()
print("== index over the toy pair ==")
lexi = build_lexi(o1, o2, LexConfig(alpha=60, max_subsets=50))
print(f"raw entries: {lexi.stats.raw_entries}")
print(f"kept: {lexi.stats.kept_entries} "
      f"(dropped {lexi.stats.dropped_single_side} single-side, "
      f"{lexi.stats.dropped_over_alpha} over alpha)")
print("a few entries, read off the index's integer arrays:")
for i in range(6):
    key = tuple(lexi.words[w]
                for w in lexi.key_words[lexi.key_ptr[i]:lexi.key_ptr[i + 1]])
    ids = lexi.value_ids[lexi.value_ptr[i]:lexi.value_ptr[i + 1]]
    names = [lexi.entities[e].iri.rsplit("#", 1)[1] for e in ids]
    # entity ids below n_source are the source ontology's
    left = sorted(n for e, n in zip(ids, names) if e < lexi.n_source)
    right = sorted(n for e, n in zip(ids, names) if e >= lexi.n_source)
    print(f"  {key} -> {left} | {right}")

candidates = all_candidate_mappings(lexi)
cartesian = len(o1.signature) * len(o2.signature)
print()
print(f"candidate mappings: {len(candidates)} "
      f"(full Cartesian product would be {cartesian})")
