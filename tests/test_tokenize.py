"""Differential test: the `.ofn` token pattern against the reference scanner.

Both must give the same (kind, value, line, column) tokens, or the same
error message and position, on every input.
"""

import random
from importlib import resources

import numpy as np
import pytest

from conftest import TABLE1_O1, TABLE1_O2
from oracles import _tokenize as reference_tokenize
from oracles import random_ontology

from ontodivide.errors import OfnSyntaxError
from ontodivide.ontology import _line_col, _tokenize, serialize

PIECES = ["(", ")", "=", "<", ">", '"', "\\", ":", "#", "é", "\t", "\r", "\n",
          " ", "a", "Z", "_", "7", ".", "-", "%", "rdfs:label", ":A",
          "Class", "<http://x.org/o#A>", '"lit"', '\\"', "\\\\", "p:"]


def outcome(text, tokens_of):
    try:
        return tokens_of(text)
    except OfnSyntaxError as exc:
        return ("error", str(exc), exc.line, exc.column)


def reference(text):
    return outcome(text, lambda t: [(tok.kind, tok.value, tok.line, tok.column)
                                    for tok in reference_tokenize(t)])


def scanned(text):
    return outcome(text, lambda t: [(tok.kind, tok.value, *_line_col(t, tok.pos))
                                    for tok in _tokenize(t)])


def mismatches(texts):
    return [t for t in texts if scanned(t) != reference(t)]


def test_fixtures_and_data_files():
    data = resources.files("ontodivide.data")
    texts = [f.read_text(encoding="utf-8") for f in data.iterdir()
             if f.name.endswith(".ofn")]
    assert len(texts) == 2
    texts += [TABLE1_O1, TABLE1_O2]
    assert mismatches(texts) == []


@pytest.mark.parametrize("seed", range(4))
def test_random_strings(seed):
    rng = random.Random(seed)
    texts = ["".join(rng.choices(PIECES, k=rng.randrange(13)))
             for _ in range(25_000)]
    assert mismatches(texts) == []


def test_mutated_serializations():
    rng = np.random.default_rng(11)
    texts = []
    for _ in range(200):
        text = serialize(random_ontology(rng))
        for _ in range(10):
            start, end = sorted(rng.integers(0, len(text) + 1, size=2))
            chars = list(text[start:end])
            for _ in range(int(rng.integers(4))):
                at = int(rng.integers(len(chars) + 1))
                chars[at:at + int(rng.integers(2))] = \
                    PIECES[rng.integers(len(PIECES))]
            texts.append("".join(chars))
    assert mismatches(texts) == []

