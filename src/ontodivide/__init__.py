"""Divide large ontology-matching tasks into small self-contained subtasks.

The pipeline indexes the labels of both ontologies into an inverted index,
learns embeddings for its words and entities, clusters the entries with
k-means, and turns each cluster's candidate mappings into a pair of
locality modules, giving n independent matching subtasks.  Quality of a
division is measured by alignment coverage and search-space size ratios.
"""

from ._version import __version__
from .clustering import ClusterAssignment, clusters_to_entries, kmeans
from .division import (Division, DivisionConfig, MatchingTask, divide,
                       read_alignment_tsv, read_division,
                       subtask_from_cluster, write_alignment_tsv,
                       write_division)
from .embedding import (EmbeddingSpace, TrainingConfig, entry_vectors,
                        positive_pairs, similarity, train_embeddings)
from .errors import InvariantError, OfnSyntaxError, UnsupportedConstructError
from .lexindex import (LexConfig, LexIndex, Mapping, all_candidate_mappings,
                       build_lexi, load_default_stopwords, mappings_of,
                       normalize_label, word_subsets)
from .locality import context_of, extract_module
from .metrics import (Alignment, coverage, coverage_ratio, precision_recall_f,
                      size_ratio_division, size_ratio_task,
                      uncovered_mappings, union_alignments)
from .ontology import (DEFAULT_LABEL_PROPERTIES, AnnotationAssertion, Axiom,
                       ClassExpr, Declaration, EntityRef, EquivalentClasses,
                       IntersectionOf, NamedClass, Nothing, Ontology,
                       SomeValuesFrom, SubClassOf, SubObjectPropertyOf,
                       Thing, UnionOf, axiom_signature, entity_labels,
                       fragment_label, parse_ontology, read_ontology,
                       serialize)
from .stemming import porter_stem
