"""Differential test: the `.ofn` token pattern against the reference scanner.

Both must give the same (kind, value, line, column) tokens, or the same
error message and position, on every input.  A token of `_tokenize` is its
text: kind and value come from that text, the offset from `_token_offset`.
"""

import random
import re
import sys
import time
from importlib import resources

import numpy as np
import pytest

from conftest import TABLE1_O1, TABLE1_O2
from oracles import _tokenize as reference_tokenize
from oracles import random_ontology

from ontodivide._ofn import (_kind, _line_col, _token_offset, _tokenize,
                             _value, serialize)
from ontodivide.errors import OfnSyntaxError
from ontodivide.ontology import parse_ontology

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
    return outcome(text, lambda t: [
        (_kind(tok), _value(tok), *_line_col(t, _token_offset(t, i)))
        for i, tok in enumerate(_tokenize(t))])


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


@pytest.mark.parametrize("text", ["a:", ":", "a:b:c", "_x.y-z:w", "Class:",
                                  "Class:A", ":.", "a:<x>", "a::b"])
def test_name_edges(text):
    # a name is scanned once, its `:local` part optional
    assert scanned(text) == reference(text)


def test_trailing_blanks_and_comment_give_one_end_token():
    text = "Declaration(Class(:A))" + " " * 1_000_000 + "#" * 1_000_000
    start = time.perf_counter()
    tokens = _tokenize(text)
    elapsed = time.perf_counter() - start
    assert tokens.count("") == 1 and tokens[-1] == ""
    assert _token_offset(text, len(tokens) - 1) == len(text)
    assert elapsed < 0.5  # linear: a rescan per character would take hours


def test_scan_error_wins_over_an_earlier_parse_error():
    # `Foo` is an unsupported construct, but the scan fails first
    with pytest.raises(OfnSyntaxError, match="unexpected character '@'") as err:
        parse_ontology("Foo( @")
    assert (err.value.line, err.value.column) == (1, 6)


def opcodes(tree):
    """The opcodes of a parsed regular expression, nested ones included."""
    from re import _parser
    for op, arg in tree:
        yield op
        stack = [arg]
        while stack:
            item = stack.pop()
            if isinstance(item, _parser.SubPattern):
                yield from opcodes(item)
            elif isinstance(item, (tuple, list)):
                stack.extend(item)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="importing the package compiled every pattern")
def test_patterns_compile_on_python_3_10():
    # the package supports Python 3.10, whose `re` rejects possessive
    # quantifiers and atomic groups
    from re import _constants, _parser
    newer = {_constants.POSSESSIVE_REPEAT, _constants.ATOMIC_GROUP}
    assert newer <= set(opcodes(_parser.parse("a*+(?>b)")))
    patterns = [(name, value) for module_name, module in sys.modules.items()
                if module_name.split(".")[0] == "ontodivide"
                for name, value in vars(module).items()
                if isinstance(value, re.Pattern)]
    assert len(patterns) >= 5
    for name, pattern in patterns:
        used = set(opcodes(_parser.parse(pattern.pattern, pattern.flags)))
        assert not used & newer, name
