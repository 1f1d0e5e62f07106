"""The package's public names, and the modules that may load numpy.

`import ontodivide` loads no stage: `ontodivide.__getattr__` imports the
module of each public name on first use.  Only `clustering` and
`embedding` use numpy.  No other module imports numpy, or either of those
two, while it is itself imported: `divide` and `ontodivide.__getattr__`
import them on first use, so that importing the package and every command
but `divide` stay numpy-free.
"""

import ast
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

from test_model import OTHER_PYTHONS

import ontodivide

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "ontodivide")
                 .glob("*.py"))
NUMERIC = {"clustering", "embedding"}

# the package's public names, by a module each can be imported from
EXPORTS = {
    "clustering": ["ClusterAssignment", "clusters_to_entries", "kmeans"],
    "config": ["LexConfig", "TrainingConfig"],
    "division": ["Division", "DivisionConfig", "MatchingTask", "divide",
                 "read_alignment_tsv", "read_division",
                 "subtask_from_cluster", "write_alignment_tsv",
                 "write_division"],
    "embedding": ["EmbeddingSpace", "entry_vectors", "positive_pairs",
                  "similarity", "train_embeddings"],
    "errors": ["InvariantError", "OfnSyntaxError",
               "UnsupportedConstructError"],
    "lexindex": ["LexIndex", "Mapping", "all_candidate_mappings",
                 "build_lexi", "entity_labels", "fragment_label",
                 "load_default_stopwords", "normalize_label", "word_subsets"],
    "locality": ["context_of", "extract_module"],
    "metrics": ["Alignment", "coverage", "coverage_ratio",
                "precision_recall_f", "size_ratio_division",
                "size_ratio_task", "uncovered_mappings", "union_alignments"],
    "ontology": ["DEFAULT_LABEL_PROPERTIES", "AnnotationAssertion", "Axiom",
                 "ClassExpr", "Declaration", "EntityRef",
                 "EquivalentClasses", "IntersectionOf", "NamedClass",
                 "Nothing", "Ontology", "SomeValuesFrom", "SubClassOf",
                 "SubObjectPropertyOf", "Thing", "UnionOf",
                 "axiom_signature", "parse_ontology", "read_ontology"],
    "_ofn": ["serialize"],
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


# what `from ontodivide import *` bound while every stage but the numeric
# ones was imported with the package: their names, and their modules
STAR = {name for module, names in EXPORTS.items()
        if module not in ("clustering", "embedding", "_version")
        for name in names} | {"config", "data", "division", "errors",
                              "lexindex", "locality", "metrics", "ontology",
                              "stemming"}


def test_star_import_binds_what_it_bound():
    namespace = {}
    exec("from ontodivide import *", namespace)
    assert set(namespace) - {"__builtins__"} == STAR


@pytest.mark.parametrize("name", sorted(ontodivide._SUBMODULES))
def test_submodule_is_an_attribute(name, monkeypatch):
    module = import_module(f"ontodivide.{name}")
    monkeypatch.delattr(ontodivide, name)  # as before its first access
    assert getattr(ontodivide, name) is module


def flat_text(name: str) -> str:
    """An ontology laid out one flat axiom per line, all declared, so that
    its read neither needs the grammar nor logs.  One label comes before
    its subject's declaration and one labels an object property, so the
    read replays a placeholder and rebuilds a subject too."""
    return f"""\
# one flat axiom per line
Prefix(:=<http://x.org/{name}#>)
Ontology(<http://x.org/{name}>
  AnnotationAssertion(rdfs:label :Heart "heart")
  Declaration(Class(:Heart))
  Declaration(Class(:Heart_valve))
  Declaration(ObjectProperty(:part_of))
  SubClassOf(:Heart_valve :Heart)
  SubClassOf(:Heart_valve ObjectSomeValuesFrom(:part_of :Heart))
  AnnotationAssertion(rdfs:label :Heart_valve "heart valve")
  AnnotationAssertion(rdfs:label :part_of "part of")
)
"""


LOADED = """\
import sys

def loaded():
    return " ".join(sorted(m for m in sys.modules
                           if m.partition(".")[0] == "ontodivide"))

import ontodivide
print(loaded())
before = set(sys.modules)
for path in sys.argv[1:]:
    ontodivide.read_ontology(path)
    print(loaded())
print(" ".join(sorted((set(sys.modules) - before)
                      & {"contextlib", "dataclasses", "inspect", "logging",
                         "threading", "traceback", "typing"})))
"""


@pytest.mark.parametrize("version", ["this", "3.10"])
def test_import_and_read_load_only_the_parser(version, tmp_path):
    """In a fresh interpreter without numpy on its path, `import ontodivide`
    loads only `_version`; reading a file of flat axiom lines loads only
    `ontology`, and reading the toy file, which holds a line only the
    grammar reads, then loads `_ofn` and `errors`.  Neither read loads any
    of the stdlib's `contextlib`, `dataclasses`, `inspect`, `logging`,
    `threading`, `traceback` or `typing`: the collector's pause takes only
    the built-in `gc` and `_thread`."""
    this = "%d.%d" % sys.version_info[:2]
    exe = sys.executable if version in ("this", this) \
        else OTHER_PYTHONS.get(version)
    if exe is None:
        pytest.skip(f"no Python {version} interpreter found")
    src = Path(ontodivide.__file__).resolve().parent
    flat = tmp_path / "flat.ofn"
    flat.write_text(flat_text("o"), encoding="utf-8")
    # -S: no site-packages, so no numpy; -B: no .pyc in the source tree
    done = subprocess.run(
        [exe, "-S", "-B", "-c", LOADED, str(flat),
         str(src / "data" / "anatomy_toy_1.ofn")],
        env={**os.environ, "PYTHONPATH": str(src.parent)}, cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "ontodivide ontodivide._version",
        "ontodivide ontodivide._version ontodivide.ontology",
        "ontodivide ontodivide._ofn ontodivide._version ontodivide.errors "
        "ontodivide.ontology",
        ""]


READ_BACK = """\
import sys

import ontodivide

ontodivide.read_division(sys.argv[1])
print("ontodivide._ofn" in sys.modules)
"""


def test_flat_division_read_back_loads_no_grammar(tmp_path):
    """The modules `write_division` writes for flat inputs hold only flat
    axiom lines, so reading the division back, in a fresh interpreter,
    does not load the grammar."""
    from ontodivide.division import DivisionConfig, divide, write_division
    from ontodivide.ontology import parse_ontology

    pair = parse_ontology(flat_text("s")), parse_ontology(flat_text("t"))
    div = divide(*pair, 1, DivisionConfig(epochs=1, dim=4))
    assert div.subtasks[0].candidates
    write_division(div, pair, tmp_path / "div")
    src = Path(ontodivide.__file__).resolve().parent
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", READ_BACK, str(tmp_path / "div")],
        env={**os.environ, "PYTHONPATH": str(src.parent)}, cwd=tmp_path,
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


DIVIDED = """\
import sys
from pathlib import Path

import numpy  # numpy 1.x loads numpy.ma with it
import ontodivide

data = Path(ontodivide.__file__).parent / "data"
o1 = ontodivide.read_ontology(data / "anatomy_toy_1.ofn")
o2 = ontodivide.read_ontology(data / "anatomy_toy_2.ofn")
before = set(sys.modules)
div = ontodivide.divide(o1, o2, 2, ontodivide.DivisionConfig(epochs=1, dim=4))
ontodivide.write_division(div, (o1, o2), sys.argv[1])
ontodivide.read_division(sys.argv[1])
print(" ".join(sorted((set(sys.modules) - before) & {"logging", "numpy.ma"})))
"""


def test_division_loads_neither_logging_nor_numpy_ma(tmp_path):
    """In a fresh interpreter, `divide`, `write_division` and
    `read_division` of the toy pair load neither `numpy.ma` (which
    `np.unique` loads) nor `logging`: a division that logs nothing needs no
    handler."""
    import numpy

    src = Path(ontodivide.__file__).resolve().parent
    paths = [src.parent, Path(numpy.__file__).resolve().parents[1]]
    # -S: no site hooks, which may load modules; -B: no .pyc in the tree
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", DIVIDED, str(tmp_path / "out")],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))},
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [""]


def test_moved_settings_keep_their_old_homes():
    from ontodivide import clustering, config, division
    assert division.DivisionConfig is config.DivisionConfig
    assert clustering.MAX_ITERS is config.MAX_ITERS


def test_entry_object_path_is_gone():
    """Subtasks are built from entry ids alone: the index has no views of
    (key, LexValue) objects, and no `mappings_of` reads them; those live on
    only in the test oracles."""
    from ontodivide import lexindex
    for name in ("mappings_of", "LexValue"):
        assert not hasattr(lexindex, name)
        assert not hasattr(ontodivide, name)
    for view in ("entries", "sorted_entries"):
        assert not hasattr(lexindex.LexIndex, view)


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
    "from .config import DivisionConfig\n",
    "from .lexindex import LexIndex\n",
])
def test_lazy_or_numpy_free_import_passes(text):
    assert numeric_imports(text) == []
