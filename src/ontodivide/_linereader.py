"""Read the files of one division: each distinct axiom line once, and the
candidates through the refs of the modules.

The modules of one division overlap, so one axiom line is written into
many of its files.  `read_division` and `read_alignment_tsv` import this
module on first use, so `import ontodivide` does not load it.
"""

from __future__ import annotations

import math
import re
from itertools import islice

from .lexindex import RELATIONS, Mapping
from .ontology import (CLASS, INDIVIDUAL, NOTHING_IRI, OBJECT_PROPERTY,
                       THING_IRI, _DECL_KEYWORDS, _ONE_TOKEN,
                       AnnotationAssertion, Axiom, Declaration, EntityRef,
                       NamedClass, Ontology, SomeValuesFrom, SubClassOf,
                       _Parser, _read_text, _value)

# The flat axiom lines `serialize` writes, IRIs and string as `_WORD` scans
# them: a declaration (groups 1-2), a subclass of a class (3-4) or of an
# existential (3, 5-6), and an annotation (7-9).  It is not the line pass's
# `ontology._SHAPE`: taking only <IRI>s, it gives each IRI as matched, with
# no check per name in Python, and reading back through the line pass's
# pattern took 3-4 % longer (`coverage_s`).
_IRI = r"<([^>\t\r\n]*)>"
_SHAPE = re.compile(
    rf"  (?:Declaration\((Class|ObjectProperty|NamedIndividual)\({_IRI}\)\)"
    rf"|SubClassOf\({_IRI} (?:{_IRI}|ObjectSomeValuesFrom\({_IRI} {_IRI}\))\)"
    rf'|AnnotationAssertion\({_IRI} {_IRI} ("[^"\\]*(?:\\[\s\S][^"\\]*)*")\))')
_BUILTIN_CLASSES = frozenset((THING_IRI, NOTHING_IRI))


class LineReader:
    """Reads `.ofn` files, parsing each distinct axiom line once per reader.

    A file laid out as `serialize` writes it (an `Ontology(` line, one axiom
    per line, then `)`) is read line by line.  A line is read on its own
    the first time it is met: matched against the flat shapes `serialize`
    writes, else parsed by the reader's one line parser reset for it.  Its
    axiom and the entities it uses are then replayed against the file's
    own kind table, as a parse of the whole file would have met them.  Any
    other file, and any file whose lines do not parse or replay, is parsed
    whole, so every result and every error is the one `read_ontology`
    gives.  Every parse of one reader takes its `EntityRef`s from one
    table, so the files share them; `read_division` reads its candidates
    through that table too.
    """

    def __init__(self):
        # line -> its axiom and the entities it uses, an annotation's
        # subject aside
        self.lines: dict[str, tuple[Axiom, tuple[EntityRef, ...]]] = {}
        self.refs: dict[tuple[str, str], EntityRef] = {}
        # parses every new line, reset for each; of its state only the
        # `known` of the line just parsed is read
        self.alone = _Parser("", self.refs)

    def read(self, path) -> Ontology:
        text = _read_text(path)
        onto = self.read_lines(text)
        if onto is None:
            parser = _Parser(text, self.refs)
            parser.parse_document()
            onto = parser.finish()
        return onto

    def read_lines(self, text: str) -> Ontology | None:
        """The ontology of `text`, or None where it must be parsed whole:
        another layout, a line that does not parse on its own, or an entity
        used as two kinds."""
        lines = text.split("\n")
        if lines[-2:] != [")", ""]:
            return None
        parser = _Parser("", self.refs)
        head = lines[0]  # `Ontology(`, then maybe the ontology's <IRI>
        if head[:10] == "Ontology(<" and _ONE_TOKEN.fullmatch(head, 9):
            parser.ontology_iri = head[10:-1]
        elif head != "Ontology(":
            return None
        known, axioms, memo = parser.known, parser.axioms, self.lines
        for line in islice(lines, 1, len(lines) - 2):
            entry = memo.get(line)
            if entry is None:
                entry = self.match_line(line) or self.parse_line(line)
                if entry is None:
                    return None
                memo[line] = entry
            axiom, uses = entry
            for ref in uses:  # refs are shared, so another kind is another ref
                if known.setdefault(ref.iri, ref) is not ref:
                    return None
            if type(axiom) is Declaration:
                parser.declared.add(axiom.entity.iri)
            elif type(axiom) is AnnotationAssertion:
                # the subject as the parser would take it here: the known
                # entity, else a class placeholder
                subject = known.get(axiom.subject.iri)
                if subject is None:
                    subject = parser.new_ref(axiom.subject.iri, CLASS)
                    parser.unresolved.append(len(axioms))
                if subject is not axiom.subject:
                    axiom = AnnotationAssertion(subject, axiom.property,
                                                axiom.literal)
            axioms.append(axiom)
        return parser.finish()

    def match_line(self, line: str
                   ) -> tuple[Axiom, tuple[EntityRef, ...]] | None:
        """The entry `parse_line` gives `line`, if `line` has a flat shape;
        else None.  None too where owl:Thing or owl:Nothing fills an IRI, or
        where the property is also a class of the line: the parser reads
        or refuses those lines."""
        m = _SHAPE.fullmatch(line)
        if m is None:
            return None
        kind, entity, sub, sup, prop, filler, annotation, subject, literal \
            = m.groups()
        new_ref = self.alone.new_ref
        if kind is not None:  # Declaration(Kind(<entity>))
            if entity in _BUILTIN_CLASSES:
                return None
            ref = new_ref(entity, _DECL_KEYWORDS[kind])
            return Declaration(ref), (ref,)
        if literal is not None:  # AnnotationAssertion(<p> <subject> "…")
            if annotation in _BUILTIN_CLASSES or subject in _BUILTIN_CLASSES:
                return None
            # the parser's placeholder for a subject it does not know yet
            return AnnotationAssertion(new_ref(subject, CLASS), annotation,
                                       _value(literal)), ()
        if prop is None:  # SubClassOf(<sub> <sup>)
            if sub in _BUILTIN_CLASSES or sup in _BUILTIN_CLASSES:
                return None
            a = new_ref(sub, CLASS)
            if sup == sub:
                return SubClassOf(NamedClass(a), NamedClass(a)), (a,)
            b = new_ref(sup, CLASS)
            return SubClassOf(NamedClass(a), NamedClass(b)), (a, b)
        # SubClassOf(<sub> ObjectSomeValuesFrom(<prop> <filler>))
        if prop == sub or prop == filler or sub in _BUILTIN_CLASSES \
                or prop in _BUILTIN_CLASSES or filler in _BUILTIN_CLASSES:
            return None
        a, p = new_ref(sub, CLASS), new_ref(prop, OBJECT_PROPERTY)
        if filler == sub:
            return SubClassOf(NamedClass(a),
                              SomeValuesFrom(p, NamedClass(a))), (a, p)
        f = new_ref(filler, CLASS)
        return SubClassOf(NamedClass(a),
                          SomeValuesFrom(p, NamedClass(f))), (a, p, f)

    def parse_line(self, line: str
                   ) -> tuple[Axiom, tuple[EntityRef, ...]] | None:
        """The axiom of `line` and the entities it uses, in order of first
        use, as a fresh `_Parser(line)` gives them; None unless `line` is
        one axiom."""
        alone = self.alone
        alone.known = {}
        axiom = alone.parse_line(line)
        return None if axiom is None else (axiom, tuple(alone.known.values()))


def read_mappings(path, refs: dict[tuple[str, str], EntityRef]
                  ) -> frozenset[Mapping]:
    """The mappings of the TSV file at `path`.  An IRI's ref is its ref in
    `refs`: as a class, else as an object property, else as an individual;
    else a new class ref, which `refs` gains."""
    def module_ref(iri: str) -> EntityRef:
        ref = refs.get((iri, CLASS))
        if ref is None:  # a row names no kind: take the one the modules use
            ref = refs.get((iri, OBJECT_PROPERTY)) \
                or refs.get((iri, INDIVIDUAL))
            if ref is None:
                ref = refs[iri, CLASS] = EntityRef(iri)
        return ref

    # text mode reads every line end as "\n", as iterating the file would
    with open(path, encoding="utf-8-sig") as fh:
        text = fh.read()
    mappings: set[Mapping] = set()
    seen: dict[str, EntityRef] = {}  # the refs of this file, by IRI
    confidences: dict[str, float] = {}  # the valid ones of this file
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line.isspace() or line[0] == "#":
            continue
        parts = line.split("\t")
        if len(parts) not in (3, 4):
            raise ValueError(
                f"{path}:{lineno}: expected 3 or 4 tab-separated columns")
        e1, e2, rel = parts[0], parts[1], parts[2]
        if not e1 or not e2:
            raise ValueError(f"{path}:{lineno}: empty IRI")
        if rel not in RELATIONS:
            raise ValueError(f"{path}:{lineno}: bad relation {rel!r}")
        conf = 1.0
        if len(parts) == 4:
            conf = confidences.get(parts[3])
            if conf is None:
                try:
                    conf = float(parts[3])
                except ValueError:
                    conf = math.nan
                if not 0.0 < conf <= 1.0:
                    raise ValueError(
                        f"{path}:{lineno}: bad confidence {parts[3]!r}")
                confidences[parts[3]] = conf
        mappings.add(Mapping(
            seen.get(e1) or seen.setdefault(e1, module_ref(e1)),
            seen.get(e2) or seen.setdefault(e2, module_ref(e2)),
            rel, conf))
    return frozenset(mappings)
