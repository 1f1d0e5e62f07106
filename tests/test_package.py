"""The package's public names, and the modules that may load numpy.

Only `clustering` and `embedding` use numpy.  No other module imports
numpy, or either of those two, while it is itself imported: `divide` and
`ontodivide.__getattr__` import them on first use, so that importing the
package and every command but `divide` stay numpy-free.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

import ontodivide

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ontodivide")
                 .glob("*.py"))
NUMERIC = {"clustering", "embedding"}

# the names the package exported before its numeric stages loaded lazily,
# by the module each was imported from
EXPORTS = {
    "clustering": ["ClusterAssignment", "clusters_to_entries", "kmeans"],
    "division": ["Division", "DivisionConfig", "MatchingTask", "divide",
                 "read_alignment_tsv", "read_division",
                 "subtask_from_cluster", "write_alignment_tsv",
                 "write_division"],
    "embedding": ["EmbeddingSpace", "TrainingConfig", "entry_vectors",
                  "positive_pairs", "similarity", "train_embeddings"],
    "errors": ["InvariantError", "OfnSyntaxError",
               "UnsupportedConstructError"],
    "lexindex": ["LexConfig", "LexIndex", "Mapping",
                 "all_candidate_mappings", "build_lexi",
                 "load_default_stopwords", "mappings_of", "normalize_label",
                 "word_subsets"],
    "locality": ["context_of", "extract_module"],
    "metrics": ["Alignment", "coverage", "coverage_ratio",
                "precision_recall_f", "size_ratio_division",
                "size_ratio_task", "uncovered_mappings", "union_alignments"],
    "ontology": ["DEFAULT_LABEL_PROPERTIES", "AnnotationAssertion", "Axiom",
                 "ClassExpr", "Declaration", "EntityRef",
                 "EquivalentClasses", "IntersectionOf", "NamedClass",
                 "Nothing", "Ontology", "SomeValuesFrom", "SubClassOf",
                 "SubObjectPropertyOf", "Thing", "UnionOf",
                 "axiom_signature", "entity_labels", "fragment_label",
                 "parse_ontology", "read_ontology", "serialize"],
    "stemming": ["porter_stem"],
    "_version": ["__version__"],
}


@pytest.mark.parametrize("module, name", [
    (module, name) for module, names in EXPORTS.items() for name in names])
def test_exported_name_is_the_submodules(module, name):
    namespace = {}
    exec(f"from ontodivide import {name} as value", namespace)
    assert namespace["value"] is getattr(
        import_module(f"ontodivide.{module}"), name)
    assert name in dir(ontodivide)


def test_moved_settings_keep_their_old_homes():
    from ontodivide import clustering, config, embedding
    assert embedding.TrainingConfig is config.TrainingConfig
    assert clustering.MAX_ITERS is config.MAX_ITERS


def test_unknown_name_is_attribute_error():
    assert not hasattr(ontodivide, "no_such_name")
    with pytest.raises(ImportError):
        exec("from ontodivide import no_such_name", {})


def _runs_at_import(body: list[ast.stmt]):
    """The statements of `body` that run when the module is imported:
    not those in a function, nor in an `if TYPE_CHECKING:` block."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING", "typing.TYPE_CHECKING"):
            yield from _runs_at_import(node.orelse)
            continue
        yield node
        for field in ("body", "orelse", "finalbody", "handlers"):
            yield from _runs_at_import(getattr(node, field, []))


def numeric_imports(text: str) -> list[str]:
    """Imports of numpy, `clustering` or `embedding` in `text` that run
    when it is imported as a module of the package; [] if none."""
    found = []
    for node in _runs_at_import(ast.parse(text).body):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if node.level and module == [""]:  # from . import x
                names = [alias.name for alias in node.names]
            elif node.level:
                names = module[:1]
            else:
                names = [".".join(module[:2])]
        else:
            continue
        found += [f"line {node.lineno}: import {name}" for name in names
                  if name.split(".")[0] == "numpy"
                  or name.removeprefix("ontodivide.") in NUMERIC]
    return found


def test_sources_found():
    assert {p.stem for p in SOURCES} >= NUMERIC | {"__init__", "division"}


@pytest.mark.parametrize("path", [p for p in SOURCES
                                  if p.stem not in NUMERIC],
                         ids=lambda p: p.name)
def test_module_imports_no_numpy(path):
    assert numeric_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("text", [
    "import numpy as np\n",
    "from numpy.random import SeedSequence\n",
    "from .clustering import kmeans\n",
    "from . import embedding\n",
    "from ontodivide.embedding import entry_vectors\n",
    "import ontodivide.clustering\n",
    "try:\n    import numpy\nexcept ImportError:\n    pass\n",
    "if True:\n    from .embedding import similarity\n",
    "class A:\n    import numpy\n",
])
def test_numeric_import_found(text):
    assert len(numeric_imports(text)) == 1


@pytest.mark.parametrize("text", [
    "def f():\n    import numpy as np\n",
    "from typing import TYPE_CHECKING\n"
    "if TYPE_CHECKING:\n    from .embedding import IndexEncoding\n",
    "from .config import TrainingConfig\n",
    "from .lexindex import LexIndex\n",
])
def test_lazy_or_numpy_free_import_passes(text):
    assert numeric_imports(text) == []
