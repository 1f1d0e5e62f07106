"""Differential test: the `.ofn` line pass against the reference parser.

`parse_ontology` reads a text one line at a time (`ontology._parse`) as
far as it is laid out one axiom per line, and hands the rest to the
grammar (`_ofn._parse_rest`), which reads on from that offset of the whole
text.  On every text it must give the reference parser's ontology and
auto-declaration warning, or its error at the same line and column,
wherever the grammar takes over: at the start of a text with a CR, at
another head line, at a body line, or at the end of a text with no
`Ontology(` or no `)` line.
"""

import logging
import sys
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import TABLE1_O1, TABLE1_O2
from oracles import reference_parse_ontology

from ontodivide import _ofn
from ontodivide._ofn import _parse_rest
from ontodivide.errors import OfnSyntaxError
from ontodivide.ontology import _parse, _ParseState, parse_ontology

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
    return _parse_rest(_ParseState(), text, 0, False)


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
    assert outcome(_parse, text, "ontodivide.ontology") == expected


def test_line_pass_reads_most_generated_texts(monkeypatch):
    """The strategy reaches both paths: the line pass reads a good share of
    its texts itself, and leaves others to the grammar, which reads them
    or refuses them from the offset the pass hands it."""
    taken, handed = [], []

    def counted(*args):
        handed.append(True)
        return _parse_rest(*args)

    monkeypatch.setattr(_ofn, "_parse_rest", counted)

    @settings(max_examples=150, deadline=None, database=None)
    @given(flat_texts())
    def count(text):
        handed.clear()
        try:
            _parse(text)
            taken.append(not handed)
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
def test_line_pass_reads_one_axiom_per_line_files(text, monkeypatch):
    """The line pass itself reads the generator's files, the packaged toy
    files, the inverted-index fixtures and every layout it takes, as the
    whole-text parse does."""
    expected = outcome(whole, text, "ontodivide.ontology")
    handed = []
    monkeypatch.setattr(_ofn, "_parse_rest", lambda *args: handed.append(1))
    assert outcome(_parse, text, "ontodivide.ontology") == expected
    assert handed == []


# heads and tails around flat lines: those the line pass reads itself, and
# others, which the grammar reads or refuses
BETWEEN = ["", "  ", "\t", "# a comment", "  # an indented comment"]
PREFIX_LINES = ["Prefix(:=<http://x.org/d#>)", "Prefix(p:=<http://x.org/p#>)",
                "Prefix(rdfs:=<http://x.org/r#>)",
                "Prefix(owl:=<http://x.org/w#>)",
                "Prefix( : = <http://x.org/e#> )",
                "\tPrefix (\tp: =<http://x.org/t#>\t) ",
                "Prefix(p.-_1:=<>)", "Prefix(p:=<http://x.org/p#>) # c",
                "Prefix(p:=<http://x.org/p#>) Prefix(q:=<http://x.org/q#>)",
                "Prefix(p:=<http://x.org/p#>", "Prefix(p=<http://x.org/p#>)",
                "Prefix(p:a=<http://x.org/p#>)", "Prefix(p:=p:a)",
                "Prefix(1p:=<http://x.org/p#>)", "Prefix",
                "Prefix(p:=<http://x.org/p#>)x"]
ONTOLOGY_LINES = ["Ontology(", "Ontology(<http://x.org/o>",
                  "  Ontology ( <http://x.org/o> ", "Ontology(<>",
                  "Ontology(\n<http://x.org/o>",
                  "Ontology(\n# c\n  <http://x.org/o>",
                  "Ontology(<http://x.org/o> <http://x.org/v>",
                  "Ontology(<http://x.org/o> Declaration(Class(:A))",
                  "Ontology(<http://x.org/o> )", "Ontology(<http://x.org/o",
                  "Ontology(<http://x.org/o> # c", "Ontology",
                  "Ontology(x", "Ontologyx("]
BODY_LINES = ["Declaration(Class(:A))", "Declaration(Class(p:B))",
              'AnnotationAssertion(rdfs:label :A "a")',
              "SubClassOf(p:B :A)", "SubClassOf(:A owl:Thing)",
              "SubClassOf(:A ObjectSomeValuesFrom(p:r :C))",
              "EquivalentClasses(:A p:B)"]
TAILS = [[")"], [")", ""], ["  )\t", "", "# done", "  "], [") # done"],
         [")", "Declaration(Class(:A))"], [")", ")"], [")", "", ")"],
         [")", "# c", "<http://x.org/o>"], [], ["# no close"],
         [")Declaration(Class(:A))"]]


@st.composite
def head_tail_texts(draw) -> str:
    """Flat lines between a head of prefixes, blank and comment lines and
    an `Ontology(` line, and a tail from the closing `)` on; each of them
    one that the line pass reads or one that it leaves to the grammar."""
    lines = []
    for _ in range(draw(st.integers(0, 3))):
        lines += draw(st.lists(st.sampled_from(BETWEEN), max_size=2))
        lines.append(draw(st.sampled_from(PREFIX_LINES)))
    lines += draw(st.lists(st.sampled_from(BETWEEN), max_size=2))
    lines.append(draw(st.sampled_from(ONTOLOGY_LINES)))
    lines += draw(st.lists(st.sampled_from(BODY_LINES + BETWEEN),
                           max_size=4))
    lines += draw(st.sampled_from(TAILS))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=500, deadline=None)
@given(head_tail_texts())
@example(LAYOUT)
@example("Prefix( : = <http://x.org/e#> )\nOntology(\n"
         "Declaration(Class(:A))\n)\n# done\n")
@example("Ontology(<http://x.org/o>\nDeclaration(Class(:A))\n) # done")
def test_head_and_tail_match_grammar_and_reference(text):
    """On every head and tail, the line pass gives what the grammar and the
    reference parser give: the same ontology and warnings, or the same
    error at the same line and column."""
    expected = outcome(reference_parse_ontology, text, "oracles")
    assert outcome(whole, text, "ontodivide.ontology") == expected
    assert outcome(parse_ontology, text, "ontodivide.ontology") == expected
    assert outcome(_parse, text, "ontodivide.ontology") == expected


@pytest.mark.parametrize("head", [
    "Ontology(", "Ontology(<http://x.org/o>",
    "# c\n\nPrefix(:=<http://x.org/d#>)\n  \nOntology(<http://x.org/o>",
    "Prefix( : = <http://x.org/e#> )\n\tPrefix (p: =<http://x.org/p#>\t) "
    "\nPrefix(rdfs:=<http://x.org/r#>)\nPrefix(p.-_1:=<http://x.org/q#>)"
    "\n  Ontology ( <> "])
@pytest.mark.parametrize("tail", [")", ")\n", "  )\t\n\n# done\n  "])
def test_line_pass_reads_flat_head_and_tail_itself(head, tail, monkeypatch):
    """The line pass reads a head of prefix, blank and comment lines and an
    `Ontology(` line with at most its IRI, and a `)` followed only by blank
    and comment lines, without the grammar's tokenizer."""
    text = "\n".join([head, "  Declaration(Class(:A))",
                      '  AnnotationAssertion(rdfs:label :A "a")', tail])
    expected = outcome(whole, text, "ontodivide.ontology")
    tokenized = []
    monkeypatch.setattr(_ofn, "_tokenize", tokenized.append)
    assert outcome(_parse, text, "ontodivide.ontology") == expected
    assert tokenized == []


def test_alone_parser_keeps_no_placeholder_index():
    """The line pass's parser of single lines leaves `unresolved` as it
    found it, read or refused, so that it keeps nothing per line."""
    parser = _ofn._Parser("")
    for line in ['AnnotationAssertion(rdfs:label :A "a") # c'] * 3 + [
            'AnnotationAssertion(rdfs:label :A "a" :B)']:
        parser.parse_alone(line)
    assert parser.unresolved == []
    parser.unresolved.append(7)
    assert parser.parse_alone('AnnotationAssertion(rdfs:label :A "a")')
    assert parser.unresolved == [7]
