import sys
import tracemalloc
from importlib import resources

import pytest

from ontodivide.ontology import parse_ontology

# Small disorder/carcinoma pair mirroring the classic inverted-index
# illustration: most fragments share stems across the two files, the
# hamate entry exists on one side only, and each side has a superclass
# whose vocabulary the other side lacks.
TABLE1_O1 = """
Prefix(:=<http://example.org/o1#>)
Ontology(<http://example.org/o1>
  Declaration(Class(:Clinical_finding))
  Declaration(Class(:Disorder_of_pregnancy))
  Declaration(Class(:Disorder_of_stomach))
  Declaration(Class(:Basaloid_carcinoma))
  Declaration(Class(:Follicular_thyroid_carcinoma))
  Declaration(Class(:Lunate_facet_of_hamate))
  SubClassOf(:Disorder_of_pregnancy :Clinical_finding)
  SubClassOf(:Disorder_of_stomach :Clinical_finding)
  SubClassOf(:Basaloid_carcinoma :Clinical_finding)
  SubClassOf(:Follicular_thyroid_carcinoma :Clinical_finding)
)
"""

TABLE1_O2 = """
Prefix(:=<http://example.org/o2#>)
Ontology(<http://example.org/o2>
  Declaration(Class(:Medical_event))
  Declaration(Class(:Pregnancy_Disorder))
  Declaration(Class(:Basaloid_Carcinoma))
  Declaration(Class(:Basaloid_Lung_Carcinoma))
  Declaration(Class(:Follicular_Thyroid_carcinoma))
  SubClassOf(:Pregnancy_Disorder :Medical_event)
  SubClassOf(:Basaloid_Carcinoma :Medical_event)
  SubClassOf(:Basaloid_Lung_Carcinoma :Basaloid_Carcinoma)
  SubClassOf(:Follicular_Thyroid_carcinoma :Medical_event)
)
"""

# Annotations that name an entity before its declaration or first use: a
# property, an individual and a class, each annotated twice or more, and an
# entity that nothing but annotations names.
ANNOTATED_BEFORE_USE = """
    AnnotationAssertion(rdfs:label :r "part of")
    AnnotationAssertion(rdfs:label :A "a")
    AnnotationAssertion(rdfs:label :Z "only annotated")
    AnnotationAssertion(rdfs:label :Z "annotated again")
    AnnotationAssertion(rdfs:label :r "part")
    AnnotationAssertion(rdfs:label :i "i")
    Declaration(NamedIndividual(:i))
    Declaration(Class(:A))
    AnnotationAssertion(rdfs:label :A "a again")
    SubClassOf(:A ObjectSomeValuesFrom(:r :B))
    SubClassOf(:B :A)
    Declaration(ObjectProperty(:r))
    SubObjectPropertyOf(:r :s)
    EquivalentClasses(:A :B ObjectIntersectionOf(:A :C))
"""

O1_NS = "http://example.org/o1#"
O2_NS = "http://example.org/o2#"
TOY1_NS = "http://example.org/mouse-anatomy#"
TOY2_NS = "http://example.org/human-anatomy#"


def load_toy_text(name: str) -> str:
    return resources.files("ontodivide.data").joinpath(name) \
        .read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def toy_pair():
    o1 = parse_ontology(load_toy_text("anatomy_toy_1.ofn"))
    o2 = parse_ontology(load_toy_text("anatomy_toy_2.ofn"))
    return o1, o2


@pytest.fixture(scope="session")
def table1_pair():
    return parse_ontology(TABLE1_O1), parse_ontology(TABLE1_O2)


@pytest.fixture
def fast_thread_switching():
    """Switch threads every microsecond, so state they share shows up."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def traced_peak(fn, *args):
    """`fn(*args)` and the most bytes it held at once, numpy's buffers
    included."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    mod = next((m for name, m in sys.modules.items()
                if name.rpartition(".")[2] == "test_acceptance"
                and hasattr(m, "CRITERIA")), None)
    if mod is None or not mod.RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for cid, description in mod.CRITERIA.items():
        status = mod.RESULTS.get(cid, "FAIL")
        terminalreporter.write_line(f"[{status}] criterion {cid}: {description}")
