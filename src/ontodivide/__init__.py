"""Divide large ontology-matching tasks into small self-contained subtasks.

The pipeline indexes the labels of both ontologies into an inverted index,
learns embeddings for its words and entities, clusters the entries with
k-means, and turns each cluster's candidate mappings into a pair of
locality modules, giving n independent matching subtasks.  Quality of a
division is measured by alignment coverage and search-space size ratios.

Only the embedding and clustering stages use numpy, and their names load
on first use, so importing the package does not import numpy.
"""

from importlib import import_module as _import_module

from ._version import __version__
from .config import TrainingConfig
from .division import (Division, DivisionConfig, MatchingTask, divide,
                       read_alignment_tsv, read_division,
                       subtask_from_cluster, write_alignment_tsv,
                       write_division)
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

# name -> the numpy-backed module that defines it, imported on first access
_NUMERIC = {
    **dict.fromkeys(("ClusterAssignment", "clusters_to_entries", "kmeans"),
                    "clustering"),
    **dict.fromkeys(("EmbeddingSpace", "entry_vectors", "positive_pairs",
                     "similarity", "train_embeddings"), "embedding"),
}


def __getattr__(name: str):
    if name not in _NUMERIC:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_NUMERIC[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_NUMERIC})
