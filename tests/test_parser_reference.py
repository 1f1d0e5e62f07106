"""Differential test: `parse_ontology` against the reference parser.

On every input both must give the same ontology (compared by its
serialization and IRI) or the same error type, message, line and column.
"""

import logging
import random
from importlib import resources

import numpy as np
import pytest

from conftest import TABLE1_O1, TABLE1_O2
from oracles import random_ontology, reference_parse_ontology

from ontodivide.errors import OfnSyntaxError
from ontodivide.ontology import parse_ontology, serialize

# lexical pieces plus the fragments that reach the grammar's branches
PIECES = ["(", ")", "=", "<", ">", '"', "\\", ":", "#", "é", "\t", "\r", "\n",
          " ", "a", "Z", "_", "7", ".", "-", "%", "rdfs:label", ":A",
          "Class", "<http://x.org/o#A>", '"lit"', '\\"', "\\\\", "p:"]
GRAMMAR = ["Ontology(", "Prefix(", "p:=<http://x.org/p#>", "SubClassOf(",
           "Declaration(Class(:A))", "Declaration(", "ObjectProperty(",
           "NamedIndividual(", "EquivalentClasses(", "SubObjectPropertyOf(",
           "AnnotationAssertion(", "ObjectIntersectionOf(", "ObjectUnionOf(",
           "ObjectSomeValuesFrom(", "ObjectAllValuesFrom(", "owl:Thing",
           "owl:Nothing", "p:B", ":r", "<http://x.org/o>", " ", " ", ")"]


def outcome(text, parse):
    try:
        onto = parse(text)
    except OfnSyntaxError as exc:
        return (type(exc), str(exc), exc.line, exc.column)
    return serialize(onto), onto.iri


def mismatches(texts):
    logging.disable(logging.WARNING)  # auto-declaration warnings
    try:
        return [t for t in texts if outcome(t, parse_ontology)
                != outcome(t, reference_parse_ontology)]
    finally:
        logging.disable(logging.NOTSET)


def test_fixtures_and_data_files():
    data = resources.files("ontodivide.data")
    texts = [f.read_text(encoding="utf-8") for f in data.iterdir()
             if f.name.endswith(".ofn")]
    assert len(texts) == 2
    texts += [TABLE1_O1, TABLE1_O2]
    assert mismatches(texts) == []


@pytest.mark.parametrize("seed", range(4))
def test_random_piece_strings(seed):
    rng = random.Random(seed)
    pool = PIECES + GRAMMAR * (1 + 2 * seed)  # later seeds reach deeper
    texts = ["".join(rng.choices(pool, k=rng.randrange(16)))
             for _ in range(8_000)]
    assert mismatches(texts) == []


def test_mutated_serializations():
    rng = np.random.default_rng(23)
    texts = []
    for _ in range(200):
        text = serialize(random_ontology(rng))
        texts.append(text)
        for _ in range(10):
            start, end = sorted(rng.integers(0, len(text) + 1, size=2))
            chars = list(text[start:end])
            for _ in range(int(rng.integers(4))):
                at = int(rng.integers(len(chars) + 1))
                pool = PIECES if rng.random() < 0.5 else GRAMMAR
                chars[at:at + int(rng.integers(2))] = \
                    pool[rng.integers(len(pool))]
            texts.append("".join(chars))
    assert mismatches(texts) == []
