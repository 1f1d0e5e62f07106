"""`read_division` parses each distinct axiom line of a division once.

Every file it reads must come back as `read_ontology` reads that file on its
own: the same ontology, the same warnings, or the same error at the same
line and column.
"""

import json
import logging
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import TOY1_NS, TOY2_NS
from oracles import random_ontology

from ontodivide import _ofn, ontology
from ontodivide._ofn import serialize
from ontodivide.division import (DivisionConfig, divide, read_alignment_tsv,
                                 read_division, write_division)
from ontodivide.errors import OfnSyntaxError
from ontodivide.ontology import (CLASS, OBJECT_PROPERTY, AnnotationAssertion,
                                 Declaration, EntityRef, Ontology,
                                 axiom_signature, read_ontology)

FAST = DivisionConfig(seed=42, epochs=5, dim=16)
NS = "http://example.org/x#"
LABEL = "http://www.w3.org/2000/01/rdf-schema#label"


def task_files(root):
    """The module files of the division in `root`, in the order read."""
    meta = json.loads((root / "division.json").read_text(encoding="utf-8"))
    return [root / f"task_{row['task']}" / f"{side}.ofn"
            for row in meta["tasks"] for side in ("source", "target")]


def write_files(root, texts):
    """A division directory whose files, in reading order, hold `texts`
    (source and target of task 0, then of task 1, ...)."""
    root.mkdir()
    n = (len(texts) + 1) // 2
    (root / "division.json").write_text(json.dumps(
        {"n": n, "tasks": [{"task": i} for i in range(n)]}))
    for i in range(n):
        (root / f"task_{i}").mkdir()
        (root / f"task_{i}" / "candidates.tsv").write_text("")
    texts = list(texts) + ["Ontology(\n)\n"] * (2 * n - len(texts))
    for path, text in zip(task_files(root), texts):
        path.write_bytes(text.encode("utf-8"))
    return root


def outcome(read, path):
    try:
        return read(path)
    except OfnSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column


def assert_refs_shared(ontos):
    """One object per (IRI, kind) within each ontology."""
    for onto in ontos:
        refs = {}
        for axiom in onto.axioms:
            for ref in axiom_signature(axiom):
                assert refs.setdefault((ref.iri, ref.kind), ref) is ref


def assert_reads_as_read_ontology(root, caplog):
    """`read_division(root)` gives each file's `read_ontology` result and
    warnings, or the first file's error."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="ontodivide.ontology"):
        expected = [outcome(read_ontology, p) for p in task_files(root)]
        expected_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        got = outcome(read_division, root)
        got_log = [r.getMessage() for r in caplog.records]
    error = next((e for e in expected if not isinstance(e, Ontology)), None)
    if error is not None:
        assert got == error
        return
    ontos = [o for task in got.subtasks for o in (task.source, task.target)]
    assert ontos == expected
    assert got_log == expected_log
    assert_refs_shared(ontos)


def lines(*axioms, head="Ontology("):
    return "\n".join([head, *("  " + a for a in axioms), ")"]) + "\n"


@pytest.mark.parametrize("n", [1, 2, 4])
def test_toy_divisions_read_as_read_ontology(toy_pair, tmp_path, caplog, n):
    out = write_division(divide(*toy_pair, n, FAST), toy_pair, tmp_path / "d")
    assert_reads_as_read_ontology(out, caplog)
    # the files of one division share their refs too
    assert_refs_shared([Ontology(tuple(
        a for task in read_division(out).subtasks
        for onto in (task.source, task.target) for a in onto.axioms))])


def shuffled_module(rng, onto):
    """Some of `onto`'s axioms in another order, with labels mixed in, so
    that entities go undeclared or are annotated before they are declared."""
    axioms = [a for a in onto.axioms if rng.random() < 0.8]
    entities = sorted({e for a in onto.axioms for e in axiom_signature(a)})
    for _ in range(int(rng.integers(0, 4))):
        e = entities[rng.integers(len(entities))]
        axioms.append(AnnotationAssertion(e, LABEL, f"l{rng.integers(3)}"))
    if rng.random() < 0.1:  # an object property declared as a class too
        axioms.append(Declaration(EntityRef(onto.iri + "#r", CLASS)))
    order = rng.permutation(len(axioms))
    return Ontology(tuple(axioms[i] for i in order), onto.iri)


def test_random_divisions_read_as_read_ontology(tmp_path, caplog):
    rng = np.random.default_rng(5)
    for trial in range(60):
        texts = [serialize(shuffled_module(rng, random_ontology(rng)))
                 for _ in range(int(rng.integers(1, 7)))]
        root = write_files(tmp_path / f"d{trial}", texts)
        assert_reads_as_read_ontology(root, caplog)


DECLARE_A = f"Declaration(Class(<{NS}A>))"
DECLARE_R = f"Declaration(ObjectProperty(<{NS}r>))"
R_AS_CLASS = f"Declaration(Class(<{NS}r>))"
SUB_R = f"SubObjectPropertyOf(<{NS}r> <{NS}s>)"
SUB_A = f"SubClassOf(<{NS}A> <{NS}B>)"
SOME_R = f"SubClassOf(<{NS}A> ObjectSomeValuesFrom(<{NS}r> <{NS}B>))"
LABEL_R = f'AnnotationAssertion(<{LABEL}> <{NS}r> "r")'
LABEL_A = f'AnnotationAssertion(<{LABEL}> <{NS}A> "a")'
LABEL_THING = (f'AnnotationAssertion(<{LABEL}> '
               '<http://www.w3.org/2002/07/owl#Thing> "t")')
SUB_NAMES = "SubClassOf(:A :B)"
SUB_THING = "SubClassOf(:A owl:Thing)"
PREFIX_DEFAULT = "Prefix(:=<http://example.org/x#>)\n"
PREFIX_OWL = "Prefix(owl:=<http://example.org/x#>)\n"


DAMAGED = [
    # a kind conflict between two lines of one file, first met on a line
    # parsed for the first time, then on a line parsed before
    [lines(DECLARE_A, R_AS_CLASS, SUB_R)],
    [lines(DECLARE_R, SUB_R), lines(DECLARE_A, R_AS_CLASS, SUB_R)],
    [lines(SOME_R), lines(R_AS_CLASS, DECLARE_A, SOME_R)],
    # one IRI, a class in task 0 and an object property in task 1
    [lines(R_AS_CLASS, SUB_A), lines(), lines(DECLARE_R, SUB_R, SUB_A)],
    # annotations before their subject's declaration, or with none at all
    [lines(DECLARE_R, LABEL_R), lines(LABEL_R, DECLARE_R), lines(LABEL_R)],
    [lines(LABEL_R, SUB_R), lines(DECLARE_R, LABEL_R), lines(LABEL_R, SOME_R)],
    [lines(LABEL_A, LABEL_R), lines(SOME_R, LABEL_A), lines(LABEL_R, SUB_A)],
    [lines(LABEL_THING)],
    [lines(DECLARE_A), lines(LABEL_THING)],
    # undeclared entities are auto-declared, with a warning per file
    [lines(SUB_A, SOME_R), lines(DECLARE_A, SUB_A), lines(SOME_R)],
    # a truncated line, an axiom over two lines, two axioms on one line
    [lines(DECLARE_A), lines(DECLARE_A, SUB_A[:-5])],
    [lines(DECLARE_A), lines(DECLARE_A, SUB_A).replace("> <", ">\n<")],
    [lines(DECLARE_A, SUB_A + " " + SUB_A)],
    [lines(DECLARE_A, "SubClassOf(<x>)", SUB_A)],
    [lines(DECLARE_A, "Prefix(:=<http://example.org/x#>)", SUB_A)],
    # other layouts: Prefix lines, comments, blank lines, a byte-order mark,
    # CRLF line ends, line breaks in a literal, no final newline
    [lines(DECLARE_A), "Prefix(:=<http://example.org/x#>)\n"
     + lines(DECLARE_A, "SubClassOf(:A :B)")],
    [lines(DECLARE_A, SUB_A), lines("# note", DECLARE_A, SUB_A + " # note")],
    [lines(DECLARE_A, "", SUB_A), lines(DECLARE_A, SUB_A + "  ")],
    [lines(DECLARE_A), "\ufeff" + lines(DECLARE_A, SUB_A)],
    [lines(DECLARE_A, SUB_A), lines(DECLARE_A, SUB_A).replace("\n", "\r\n")],
    [lines(f'AnnotationAssertion(<{LABEL}> <{NS}A> "x\r\ny")', DECLARE_A),
     lines(f'AnnotationAssertion(<{LABEL}> <{NS}A> "x\ry")', DECLARE_A)],
    [lines(DECLARE_A, f'AnnotationAssertion(<{LABEL}> <{NS}A> "x\ny")')],
    [lines(DECLARE_A, SUB_A), lines(DECLARE_A, SUB_A)[:-1]],
    [lines(SUB_A, head=f"Ontology(<{NS}o>"), lines(SUB_A, head="Ontology(<>")],
    [lines(SUB_A, head=f"Ontology(<{NS}o> <{NS}v>")],
    [lines(DECLARE_A), lines(DECLARE_A) + ")\n"],
    [lines(DECLARE_A), lines(DECLARE_A)[:-3]],
    # one line under the built-in prefixes and under a declared one, in
    # both orders: what a line means depends on the prefixes of its file
    [lines(SUB_NAMES), PREFIX_DEFAULT + lines(SUB_NAMES)],
    [PREFIX_DEFAULT + lines(SUB_NAMES), lines(SUB_NAMES)],
    [lines(SUB_THING), PREFIX_OWL + lines(SUB_THING)],
    [PREFIX_OWL + lines(SUB_THING), lines(SUB_THING)],
    # one label line from the memo, into a file where its subject has the
    # other kind
    [lines(DECLARE_R, LABEL_R), lines(R_AS_CLASS, LABEL_R)],
    [lines(R_AS_CLASS, LABEL_R), lines(DECLARE_R, LABEL_R)],
    [lines(LABEL_R, DECLARE_R), lines(LABEL_R, R_AS_CLASS)],
]


@pytest.mark.parametrize("texts", DAMAGED)
def test_damaged_files_read_as_read_ontology(tmp_path, caplog, texts):
    assert_reads_as_read_ontology(write_files(tmp_path / "d", texts), caplog)


def test_files_parsed_whole_share_refs(tmp_path):
    """A file that is not read line by line takes its refs from the table
    of the files that are, so a division has one ref per (IRI, kind)."""
    read = 0
    for i, texts in enumerate(DAMAGED):
        try:
            div = read_division(write_files(tmp_path / f"d{i}", texts))
        except OfnSyntaxError:
            continue
        read += 1
        assert_refs_shared([Ontology(tuple(
            a for task in div.subtasks
            for onto in (task.source, task.target) for a in onto.axioms))])
    assert read == 23


def test_empty_ontology_iri_round_trips(tmp_path):
    onto = Ontology((Declaration(EntityRef(NS + "A")),), "")
    assert serialize(onto).startswith("Ontology(<>\n")
    root = write_files(tmp_path / "d", [serialize(onto)])
    div = read_division(root)
    assert div.subtasks[0].source == onto
    assert div.subtasks[0].target.iri is None


def test_each_distinct_line_parsed_once(toy_pair, tmp_path, monkeypatch):
    """Each distinct axiom line is read once per division: matched against
    the flat shapes, then parsed if they do not take it.  A line met again
    is replayed from its memo entry."""
    out = write_division(divide(*toy_pair, 4, FAST), toy_pair, tmp_path / "d")
    axiom_lines = [line for path in task_files(out)
                   for line in path.read_text(encoding="utf-8")
                   .split("\n")[1:-2]]
    assert len(set(axiom_lines)) < len(axiom_lines)  # the tasks share axioms
    met, parsed = [], []
    shape = ontology._SHAPE
    parse_axiom = _ofn._Parser.parse_axiom

    class CountedShape:
        def fullmatch(self, line):
            if line != ")":  # each file's closing line
                met.append(line)
            return shape.fullmatch(line)

    def counted_parse(self):
        parsed.append(self.text)
        return parse_axiom(self)

    monkeypatch.setattr(ontology, "_SHAPE", CountedShape())
    monkeypatch.setattr(_ofn._Parser, "parse_axiom", counted_parse)
    read_division(out)
    assert sorted(met) == sorted(set(axiom_lines))
    # the toy modules hold lines of both kinds
    assert 0 < len(parsed) == len(set(parsed)) < len(met)
    assert set(parsed) < set(axiom_lines)


OWL = "http://www.w3.org/2002/07/owl#"


def shape_edges():
    """Lines of the flat shapes `serialize` writes, filled so that the
    parser fails on them or reads them otherwise, and lines near them."""
    a, b, r, f = (f"<{NS}{name}>" for name in "ABrF")
    shapes = ["Declaration(Class({}))", "Declaration(ObjectProperty({}))",
              "Declaration(NamedIndividual({}))",
              "SubClassOf({} " + b + ")", "SubClassOf(" + a + " {})",
              f"SubClassOf({{}} ObjectSomeValuesFrom({r} {f}))",
              f"SubClassOf({a} ObjectSomeValuesFrom({{}} {f}))",
              f"SubClassOf({a} ObjectSomeValuesFrom({r} {{}}))",
              f'AnnotationAssertion({{}} {a} "x")',
              f'AnnotationAssertion(<{LABEL}> {{}} "x")']
    edges = [shape.format(iri) for shape in shapes
             for iri in (a, f"<{OWL}Thing>", f"<{OWL}Nothing>")]
    edges += [f"SubClassOf({a} {a})",  # a == b, p == a, p == f, f == a
              f"SubClassOf({a} ObjectSomeValuesFrom({a} {f}))",
              f"SubClassOf({a} ObjectSomeValuesFrom({r} {r}))",
              f"SubClassOf({a} ObjectSomeValuesFrom({r} {a}))",
              f"SubClassOf({a} ObjectSomeValuesFrom({a} {a}))",
              f"SubClassOf(<> <{NS}a b(c)>)"]
    edges += [f"AnnotationAssertion(<{LABEL}> {a} {literal})" for literal in
              (r'"say \"hi\""', r'"a\\b"', r'"\\"', r'"\\\""',
               r'"a\nb"', '""', '"(x) <y>"', '"\r"', '"a"b"', r'"a\"')]
    edges += [f"Declaration({kind}({a}))"
              for kind in ("Datatype", "SubClassOf", "class")]
    lines = ["  " + edge for edge in edges]
    # other blanks and layouts, which the parser reads
    lines += [f"   SubClassOf({a} {b})", f"\tSubClassOf({a} {b})",
              f"  SubClassOf( {a} {b})", f"  SubClassOf({a}  {b})",
              f"  SubClassOf({a}\t{b})", f"  SubClassOf({a} {b} )",
              f"  SubClassOf({a} {b}) ", f"SubClassOf({a} {b})",
              f"  Declaration( Class({a}))", f"  Declaration(Class({a}) )",
              f"  SubClassOf({a} ObjectSomeValuesFrom( {r} {f}))",
              f'  AnnotationAssertion(<{LABEL}> {a} "x" )',
              f'  AnnotationAssertion(<{LABEL}>  {a} "x")',
              f"  SubClassOf({a} {b}) # note", f"  SubClassOf({a} :B)",
              f"  SubClassOf({a} owl:Thing)", "  Declaration(Class(:A))"]
    return lines


def test_reused_parser_gives_fresh_parser_entries():
    """The line pass parses every new line that no flat shape takes with
    one parser per file; each line's memo entry, matched or parsed, is the
    one a fresh `_Parser(line)` gives, failed lines between them
    included."""
    rng = np.random.default_rng(11)
    texts = [serialize(shuffled_module(rng, random_ontology(
        rng, f"http://example.org/r{i % 10}#"))) for i in range(100)]
    texts += [text for case in DAMAGED for text in case]
    # lines of the flat shapes and near them, each in a file of its own,
    # since a file is left at its first line that does not read alone
    texts += ["Ontology(\n" + line + "\n)\n" for line in shape_edges()]
    refs, memo = {}, {}
    for text in texts:
        try:
            ontology._parse(text, refs, memo)
        except OfnSyntaxError:
            pass
    assert len(memo) > 300
    for line, (axiom, uses) in memo.items():
        fresh = _ofn._Parser(line, refs)
        assert fresh.parse_axiom() == axiom
        assert not fresh.tokens[fresh.pos]
        assert len(fresh.known) == len(uses)
        assert all(a is b for a, b in zip(fresh.known.values(), uses))


@pytest.mark.parametrize("n", [1, 4])
def test_candidate_refs_are_module_refs(toy_pair, tmp_path, n):
    """A candidate's ref is its task's module ref of that IRI, of whatever
    kind (a TSV row names none), and one object per (IRI, kind) serves the
    whole division.  The toy pair's `part_of`/`isPartOf` candidate reads
    back as object properties, as `divide` gave it."""
    div = divide(*toy_pair, n, FAST)
    out = write_division(div, toy_pair, tmp_path / "d")
    divided = {m.key: (m.e1.kind, m.e2.kind)
               for task in div.subtasks for m in task.candidates}
    refs, kinds = {}, {}
    for task in read_division(out).subtasks:
        for onto in (task.source, task.target):
            for a in onto.axioms:
                for ref in axiom_signature(a):
                    assert refs.setdefault((ref.iri, ref.kind), ref) is ref
        for m in task.candidates:
            for ref, onto in ((m.e1, task.source), (m.e2, task.target)):
                assert ref is onto.entity_by_iri[ref.iri]
                assert refs.setdefault((ref.iri, ref.kind), ref) is ref
            kinds[m.key] = m.e1.kind, m.e2.kind
    assert kinds == divided
    part_of = (TOY1_NS + "part_of", TOY2_NS + "isPartOf", "=")
    assert kinds[part_of] == (OBJECT_PROPERTY, OBJECT_PROPERTY)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 8), seed=st.integers(0, 10_000))
def test_division_round_trips(toy_pair, n, seed):
    """`read_division(write_division(d))` is `d` task by task: the module
    axioms, with the kind of every ref in them, and the candidates, with the
    kinds of their refs."""
    div = divide(*toy_pair, n, DivisionConfig(seed=seed, epochs=2, dim=8))
    with tempfile.TemporaryDirectory() as tmp:
        back = read_division(write_division(div, toy_pair, Path(tmp) / "d"))

    def candidates(task):
        return {m.key: (m.e1.kind, m.e2.kind, m.confidence)
                for m in task.candidates}

    assert back.n == n and len(back.subtasks) == n
    for task, read in zip(div.subtasks, back.subtasks):
        assert read.task_id == task.task_id
        # refs compare by IRI and kind
        assert read.source == task.source and read.target == task.target
        assert candidates(read) == candidates(task)


def test_candidates_read_as_read_alignment_tsv(tmp_path):
    """Candidates read as `read_alignment_tsv` reads them, mapping for
    mapping.  One naming its module's object property takes that ref; one
    naming no entity read so far takes a new class ref."""
    root = write_files(tmp_path / "d", [lines(DECLARE_A, DECLARE_R, SUB_R),
                                        lines(SUB_A), lines(R_AS_CLASS)])
    tsv = root / "task_0" / "candidates.tsv"
    tsv.write_text(f"{NS}A\t{NS}B\t=\t0.5\n{NS}r\t{NS}new\t<\n"
                   f"{NS}B\t{NS}r\t>\t0.25\n", encoding="utf-8")
    div = read_division(root)
    task = div.subtasks[0]
    expected = read_alignment_tsv(tsv).mappings
    assert task.candidates == expected
    assert {m.key: m.confidence for m in task.candidates} == \
        {m.key: m.confidence for m in expected}
    by_key = {m.key: m for m in task.candidates}
    a_b = by_key[NS + "A", NS + "B", "="]
    r_new = by_key[NS + "r", NS + "new", "<"]
    b_r = by_key[NS + "B", NS + "r", ">"]
    assert a_b.e1 is task.source.entity_by_iri[NS + "A"]
    assert a_b.e2 is task.target.entity_by_iri[NS + "B"]
    assert r_new.e1 is task.source.entity_by_iri[NS + "r"] is b_r.e2
    assert r_new.e1.kind == OBJECT_PROPERTY
    assert r_new.e2 == EntityRef(NS + "new", CLASS)
    assert div.subtasks[1].source.entity_by_iri[NS + "r"] == \
        EntityRef(NS + "r", CLASS)


def test_candidate_of_labelled_property_reads_as_its_module_ref(tmp_path):
    """A candidate takes the ref of its own module, source for e1 and
    target for e2: the class ref that a label puts in the division's ref
    table does not shadow a labelled object property."""
    module = lines(DECLARE_R, LABEL_R)
    root = write_files(tmp_path / "d", [module, module])
    (root / "task_0" / "candidates.tsv").write_text(f"{NS}r\t{NS}r\t=\n",
                                                    encoding="utf-8")
    task = read_division(root).subtasks[0]
    (m,) = task.candidates
    assert m.e1 is task.source.entity_by_iri[NS + "r"]
    assert m.e2 is task.target.entity_by_iri[NS + "r"]
    assert m.e1.kind == m.e2.kind == OBJECT_PROPERTY
