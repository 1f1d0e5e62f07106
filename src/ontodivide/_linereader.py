"""Read the `.ofn` files of one division, each distinct axiom line once.

The modules of one division overlap, so one axiom line is written into
many of its files.  `read_division` alone needs this reader and imports
it on first use, so `import ontodivide` does not load it.
"""

from __future__ import annotations

from itertools import islice

from .errors import OfnSyntaxError
from .ontology import (CLASS, _ONE_TOKEN, _TOKEN, AnnotationAssertion, Axiom,
                       Declaration, EntityRef, Ontology, _Parser, _read_text,
                       parse_ontology)


class LineParser(_Parser):
    """`_Parser` over one file, fed one axiom line at a time.  Every
    `EntityRef` it makes comes from `refs`, one per (IRI, kind), and `uses`
    lists the entities the last line used."""

    def __init__(self, refs: dict[tuple[str, str], EntityRef]):
        super().__init__("")
        self.refs = refs
        self.uses: list[EntityRef] = []

    def new_ref(self, iri: str, kind: str) -> EntityRef:
        ref = self.refs.get((iri, kind))
        if ref is None:
            ref = self.refs[iri, kind] = EntityRef(iri, kind)
        return ref

    def use(self, iri: str, kind: str, at: int, verb: str = "used"
            ) -> EntityRef:
        ref = super().use(iri, kind, at, verb)
        self.uses.append(ref)
        return ref

    def parse_line(self, line: str) -> Axiom | None:
        """The one axiom that makes up `line`, else None."""
        self.tokens = tokens = _TOKEN.findall(line)
        # an axiom ends in ')', which also rules out a scan error (the
        # catch-all token is never ")")
        if tokens[-2:] != [")", ""]:
            return None
        self.text = line
        self.pos = 0
        self.uses = []
        try:
            axiom = self.parse_axiom()
        except OfnSyntaxError:
            return None
        return axiom if self.pos == len(tokens) - 1 else None


class LineReader:
    """Reads `.ofn` files, parsing each distinct axiom line once per reader.

    A file laid out as `serialize` writes it (an `Ontology(` line, one axiom
    per line, then `)`) is read line by line: a line met before is not
    parsed again, but its axiom and the entities the parse used are replayed
    against the file's own kind table, as the parser would have met them.
    Any other file, and any file whose replay or parse fails, is read by
    `parse_ontology`, so every result and every error is the one
    `read_ontology` gives.  Files read by one reader share their `EntityRef`s.
    """

    def __init__(self):
        # line -> its axiom and the entities it uses, an annotation's
        # subject aside
        self.lines: dict[str, tuple[Axiom, tuple[EntityRef, ...]]] = {}
        self.refs: dict[tuple[str, str], EntityRef] = {}

    def read(self, path) -> Ontology:
        text = _read_text(path)
        onto = self.read_lines(text)
        return parse_ontology(text) if onto is None else onto

    def read_lines(self, text: str) -> Ontology | None:
        """The ontology of `text`, or None where `parse_ontology` must
        read it: another layout, a line that does not parse on its own, or
        an entity used as two kinds."""
        lines = text.split("\n")
        if lines[-2:] != [")", ""]:
            return None
        parser = LineParser(self.refs)
        head = lines[0]  # `Ontology(`, then maybe the ontology's <IRI>
        if head[:10] == "Ontology(<" and _ONE_TOKEN.fullmatch(head, 9):
            parser.ontology_iri = head[10:-1]
        elif head != "Ontology(":
            return None
        known, axioms, memo = parser.known, parser.axioms, self.lines
        for line in islice(lines, 1, len(lines) - 2):
            entry = memo.get(line)
            if entry is None:
                axiom = parser.parse_line(line)
                if axiom is None:
                    return None
                memo[line] = axiom, tuple(parser.uses)
                axioms.append(axiom)
                continue
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
