"""Divide large ontology-matching tasks into small self-contained subtasks.

The pipeline indexes the labels of both ontologies into an inverted index,
learns embeddings for its words and entities, clusters the entries with
k-means, and turns each cluster's candidate mappings into a pair of
locality modules, giving n independent matching subtasks.  Quality of a
division is measured by alignment coverage and search-space size ratios.

Importing the package loads none of its stages: every public name loads
its module on first use.  Reading an ontology thus loads only the parser,
and only the embedding and clustering stages load numpy.
"""

from importlib import import_module as _import_module

from ._version import __version__

# public name -> the submodule that defines it, imported on first access
_EXPORTS = {
    **dict.fromkeys(("ClusterAssignment", "clusters_to_entries", "kmeans"),
                    "clustering"),
    **dict.fromkeys(("DivisionConfig", "LexConfig", "TrainingConfig"),
                    "config"),
    **dict.fromkeys(("Division", "MatchingTask", "divide",
                     "read_alignment_tsv", "read_division",
                     "subtask_from_cluster", "write_alignment_tsv",
                     "write_division"), "division"),
    **dict.fromkeys(("EmbeddingSpace", "entry_vectors", "positive_pairs",
                     "similarity", "train_embeddings"), "embedding"),
    **dict.fromkeys(("InvariantError", "OfnSyntaxError",
                     "UnsupportedConstructError"), "errors"),
    **dict.fromkeys(("LexIndex", "Mapping",
                     "all_candidate_mappings", "build_lexi",
                     "load_default_stopwords", "normalize_label",
                     "word_subsets"), "lexindex"),
    **dict.fromkeys(("context_of", "extract_module"), "locality"),
    **dict.fromkeys(("Alignment", "coverage", "coverage_ratio",
                     "precision_recall_f", "size_ratio_division",
                     "size_ratio_task", "uncovered_mappings",
                     "union_alignments"), "metrics"),
    **dict.fromkeys(("DEFAULT_LABEL_PROPERTIES", "AnnotationAssertion",
                     "Axiom", "ClassExpr", "Declaration", "EntityRef",
                     "EquivalentClasses", "IntersectionOf", "NamedClass",
                     "Nothing", "Ontology", "SomeValuesFrom", "SubClassOf",
                     "SubObjectPropertyOf", "Thing", "UnionOf",
                     "axiom_signature", "entity_labels", "fragment_label",
                     "parse_ontology", "read_ontology", "serialize"),
                    "ontology"),
    "porter_stem": "stemming",
}
# the submodules that are attributes of the package, imported on first
# access; `clustering` and `embedding` become attributes once imported
_SUBMODULES = {"config", "data", "division", "errors", "lexindex",
               "locality", "metrics", "ontology", "stemming"}

# what `from ontodivide import *` binds: all but the numeric stages' names,
# so that it loads no numpy
__all__ = sorted({name for name, module in _EXPORTS.items()
                  if module not in ("clustering", "embedding")}
                 | _SUBMODULES)


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return _import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
