"""Differential test: the `.ofn` line pass against the reference parser.

`parse_ontology` reads a text laid out one axiom per line one line at a
time (`ontology._parse_lines`), and any other text as a whole.  On every
text the line pass reads, it must give the reference parser's ontology and
auto-declaration warning, or its error, also where it hands the rest of
the text to the grammar; on every other text it must give None, so that
the whole-text parse gives the reference parser's result or error.
"""

import logging
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TABLE1_O1, TABLE1_O2
from oracles import reference_parse_ontology

from ontodivide.errors import OfnSyntaxError
from ontodivide.ontology import _parse_lines, _Parser, parse_ontology

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
P = "http://x.org/p#"

# the locals of each kind of name; with the "kinds" fault any name takes
# any local, so that one name meets several kinds
LOCALS = {"class": ["A", "B", "C"], "property": ["r", "s"],
          "individual": ["i"]}
DECLARED = {"Class": "class", "ObjectProperty": "property",
            "NamedIndividual": "individual"}
LITERALS = ['"a"', '""', r'"say \"hi\""', r'"a\\b"', '"(x) <y> # z"', '"é"']
ODD_LITERALS = ['"two\nlines"', '"open']
PROPERTIES = ["rdfs:label", "skos:altLabel", f"<{P}note>", "p:note"]
ODD_PROPERTIES = ["owl:Thing", "q:p"]
FAULTS = ["kinds", "names", "prefixes", "literals", "lines", "cr", "head",
          "tail"]


@st.composite
def flat_texts(draw) -> str:
    """A text laid out one axiom per line, with prefixed and full names,
    comment and blank lines, indentation and some lines that are not flat
    axioms; most with one kind of fault: kind conflicts, names only the
    grammar reads or refuses, an undeclared prefix, literals that span
    lines, broken lines, CRs, odd headers or text after the closing
    `)`."""
    pick = lambda values: draw(st.sampled_from(values))  # noqa: E731
    fault = pick([None, None] + FAULTS)

    def name(kind: str) -> str:
        local = pick(sum(LOCALS.values(), []) if fault == "kinds"
                     else LOCALS[kind])
        form = draw(st.integers(0, 9))
        if form <= 4:
            return f":{local}"
        if form <= 7:
            return f"p:{local}"
        if form == 8 or fault != "names":
            return f"<{P}{local}>"
        return pick(["owl:Thing", "owl:Nothing", f"q:{local}", local,
                     f"<{P}{local}><{P}{local}>", f"p:{local}#x"])

    def expr() -> str:  # a class expression: a class, or a built-in one
        return pick(["owl:Thing", "owl:Nothing"]) \
            if draw(st.integers(0, 9)) == 0 else name("class")

    def line() -> str:
        shape = draw(st.integers(0, 15))
        if shape <= 2:
            kind = pick(["Class", "Class", "ObjectProperty", "NamedIndividual"])
            return f"Declaration({kind}({name(DECLARED[kind])}))"
        if shape <= 4:
            return f"SubClassOf({expr()} {expr()})"
        if shape == 5:
            return f"SubClassOf({expr()} " \
                   f"ObjectSomeValuesFrom({name('property')} {expr()}))"
        if shape <= 7:
            odd = fault == "literals"
            return f"AnnotationAssertion(" \
                   f"{pick(PROPERTIES + ODD_PROPERTIES * odd)} " \
                   f"{name(pick(list(LOCALS)))} " \
                   f"{pick(LITERALS + ODD_LITERALS * odd)})"
        others = [f"EquivalentClasses({expr()} {expr()})",
                  f"SubClassOf({expr()} ObjectIntersectionOf("
                  f"{expr()} {expr()}))",
                  f"SubObjectPropertyOf({name('property')} "
                  f"{name('property')})",
                  f"SubClassOf({expr()} {expr()}) # trailing comment",
                  f"SubClassOf( {expr()}  {expr()} )",
                  "# a comment", "", "   "]
        if fault == "lines":
            others += [f"SubClassOf({expr()}", f"{expr()})",
                       "Prefix(p:=<http://x.org/late#>)", ")"]
        if fault == "cr":
            others += [f"# a comment\r{line()}", f"SubClassOf({expr()}\r"
                       f"{expr()})"]
        return pick(others)

    prefixes = draw(st.sets(st.sampled_from(["", "q"])))
    if fault != "prefixes":
        prefixes.add("p")
    lines = [f"Prefix({prefix}:=<http://x.org/{prefix or 'd'}#>)"
             for prefix in sorted(prefixes)]
    if draw(st.booleans()):
        lines.insert(0, "# a head comment")
    lines.append(pick(["Ontology(", "Ontology(<http://x.org/o>"]
                      + ["Ontology(<>", "Ontology( <http://x.org/o>",
                         "Ontology(<http://x.org/o> )", "Ontology",
                         "SubClassOf(:A :B)"] * (fault == "head")))
    indent = ["", "  ", "\t", " \t "]
    for _ in range(draw(st.integers(0, 12))):
        lines.append(pick(indent) + line())
    ending = pick([[")"], [")", ""], [")", "", "# done"]]
                  + [[") # done"], [], [")", "Declaration(Class(:A))"],
                     [")", ")"]] * (fault == "tail"))
    text = "\n".join(lines + ending)
    if draw(st.booleans()):
        text += "\n"
    if fault == "cr" and draw(st.booleans()):
        text = text.replace("\n", "\r\n")
    return text


class Warnings(logging.Handler):
    """The messages logged to a logger while the handler is attached."""

    def __init__(self, name: str):
        super().__init__(logging.WARNING)
        self.logger, self.messages = logging.getLogger(name), []

    def emit(self, record):
        self.messages.append(record.getMessage())

    def __enter__(self):
        self.logger.addHandler(self)
        return self.messages

    def __exit__(self, *exc):
        self.logger.removeHandler(self)


def outcome(parse, text, logger: str):
    """The ontology `parse` gives `text` and its warnings, or its error."""
    with Warnings(logger) as messages:
        try:
            onto = parse(text)
        except OfnSyntaxError as exc:
            return type(exc), str(exc), exc.line, exc.column
    return onto, messages


def whole(text: str):
    """The parse of `text` as a whole, without the line pass."""
    parser = _Parser(text)
    parser.parse_document()
    return parser.finish()


# one axiom per line, in each layout the line pass reads
LAYOUT = f"""\
# a head comment
Prefix(p:=<{P}>)

Prefix(:=<http://x.org/d#>)
Ontology(<http://x.org/o>
  # a comment, then a blank line and blank-only lines

\t
  AnnotationAssertion(rdfs:label p:A "say \\"hi\\"")
\tDeclaration(Class(p:A))
SubClassOf(<{P}A> ObjectSomeValuesFrom(:r owl:Thing))
 \t SubClassOf(p:A :B) # a trailing comment
  EquivalentClasses(:B ObjectIntersectionOf(p:A :C))
  Declaration(ObjectProperty(:r))
)

# an end comment
"""


@settings(max_examples=400, deadline=None)
@given(flat_texts())
@example(LAYOUT)
@example("Ontology(\n# a CR ends this comment\rDeclaration(Class(:A))\n"
         "SubClassOf(:A :B)\n)\n")
@example("Ontology(\nSubClassOf(:A p:B)\n)\n")
@example("Ontology(\nDeclaration(ObjectProperty(:A))\nSubClassOf(:A :B)\n)")
@example('Ontology(\nAnnotationAssertion(rdfs:label :A "a")\n'
         "SubClassOf(:B ObjectSomeValuesFrom(:A :C))\n)")
@example('Ontology(\nAnnotationAssertion(rdfs:label owl:Thing "a")\n)')
# the ontology IRI on a line of its own, then an axiom or a stray `)`
@example("Ontology(\n# c\n<http://x.org/o>\nDeclaration(Class(:A))\n)\n")
@example("Prefix(p:=<http://x.org/p#>)\nOntology(\n<http://x.org/p#A>)\n)")
def test_line_pass_matches_reference(text):
    expected = outcome(reference_parse_ontology, text, "oracles")
    assert outcome(parse_ontology, text, "ontodivide.ontology") == expected
    lines = outcome(_parse_lines, text, "ontodivide.ontology")
    if lines[0] is not None:  # read line by line, so read right
        assert lines == expected


def test_line_pass_reads_most_generated_texts():
    """The strategy reaches both paths: the line pass reads a good share of
    its texts, and leaves others to the grammar, which reads them whole or
    refuses them from the line the pass hands it."""
    taken = []

    @settings(max_examples=150, deadline=None, database=None)
    @given(flat_texts())
    def count(text):
        try:
            taken.append(_parse_lines(text) is not None)
        except OfnSyntaxError:
            taken.append(None)

    count()
    assert 0.2 * len(taken) < taken.count(True) < 0.9 * len(taken)
    assert False in taken and None in taken


def generated_pairs():
    """The benchmark generator's pairs of both workloads, seeds 201-205."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        from gen import generate
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(PERFBENCH))
    for name in ("anatomy-n10", "sweep-n5-100"):
        for seed in range(201, 206):
            source, target, _ = generate(WORKLOADS[name].pair, seed)
            yield f"{name}-{seed}-source", source
            yield f"{name}-{seed}-target", target


def packaged_texts():
    data = resources.files("ontodivide.data")
    return [(f.name, f.read_text(encoding="utf-8")) for f in data.iterdir()
            if f.name.endswith(".ofn")]


@pytest.mark.parametrize("text", [
    pytest.param(text, id=name) for name, text in
    [*packaged_texts(), ("table1-o1", TABLE1_O1), ("table1-o2", TABLE1_O2),
     ("layout", LAYOUT), *generated_pairs()]])
def test_line_pass_reads_one_axiom_per_line_files(text):
    """The line pass itself reads the generator's files, the packaged toy
    files, the inverted-index fixtures and every layout it takes, as the
    whole-text parse does."""
    lines = outcome(_parse_lines, text, "ontodivide.ontology")
    assert lines[0] is not None
    assert lines == outcome(whole, text, "ontodivide.ontology")
