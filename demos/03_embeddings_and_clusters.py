"""Learning embeddings for index words/entities and clustering the entries.

Training ranks each observed word-entity pair above randomly sampled
negative entities by a margin.  Each index entry then gets a vector (key
mean concatenated with value mean) and k-means splits the entries into n
clusters, the seeds of the future matching subtasks: each cluster's
entries give its candidate mappings.
"""

from importlib import resources

from ontodivide import (TrainingConfig, build_lexi, clusters_to_entries,
                        entry_vectors, kmeans, parse_ontology, similarity,
                        train_embeddings)

data = resources.files("ontodivide.data")
o1 = parse_ontology(data.joinpath("anatomy_toy_1.ofn").read_text())
o2 = parse_ontology(data.joinpath("anatomy_toy_2.ofn").read_text())
lexi = build_lexi(o1, o2)

cfg = TrainingConfig(dim=32, epochs=60, negatives=10, margin=0.05,
                     learning_rate=0.05, seed=0)
space = train_embeddings(lexi, cfg)
print(f"trained {len(space.words)} word and {len(space.entities)} entity "
      f"vectors of dimension {space.dim}")
print(f"epoch loss went from {space.epoch_losses[0]:.2f} "
      f"to {space.epoch_losses[-1]:.2f}")

# Words should score their own entities higher than unrelated ones.
print()
print("== similarities after training ==")
heart1 = next(e for e in space.entities if e.iri.endswith("#Heart"))
femur1 = next(e for e in space.entities if e.iri.endswith("#Femur"))
for word in ("heart", "femur"):
    s_heart = similarity(space.word_vector(word), space.entity_vector(heart1))
    s_femur = similarity(space.word_vector(word), space.entity_vector(femur1))
    print(f"sim({word!r}, Heart) = {s_heart:+.3f}   "
          f"sim({word!r}, Femur) = {s_femur:+.3f}")

# Entry vectors concatenate the key-word mean with the value-entity mean:
# row i is entry i of the index, and entries are in key order.
points = entry_vectors(lexi, space)
print()
print(f"{points.shape[0]} entry vectors of length {points.shape[1]}")

print()
print("== k-means over the entry vectors ==")
assignment = kmeans(points, n=4, seed=0)
print(f"inertia: {assignment.inertia:.3f} "
      f"after {assignment.n_iter} iterations")
candidates = clusters_to_entries(assignment, lexi)
ptr, key_words = lexi.key_ptr, lexi.key_words  # entry i's key word ids
for cluster_id in range(assignment.n):
    ids = [i for i, c in enumerate(assignment.labels) if c == cluster_id]
    words = sorted({lexi.words[w] for i in ids
                    for w in key_words[ptr[i]:ptr[i + 1]]})
    print(f"cluster {cluster_id}: {len(ids)} entries, "
          f"{len(candidates[cluster_id])} candidate mappings, "
          f"vocabulary {words[:8]}{' ...' if len(words) > 8 else ''}")
