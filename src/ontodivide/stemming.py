"""Porter suffix-stripping stemmer.

Implements the 1980 algorithm (steps 1a through 5b) in the form distributed
with the author's maintained ANSI C version, i.e. including its two small
revisions to step 2 (``bli`` -> ``ble`` instead of ``abli`` -> ``able``, and
the added ``logi`` -> ``log`` rule) and the rule that words of length <= 2
are left untouched.  Tokens are expected lower-case; digits are treated as
consonants, which keeps the stemmer total over alphanumeric tokens.

Every step is a pure function from string to string, so the stemmer keeps
no state between calls and may be used from any number of threads.
"""

from __future__ import annotations

__all__ = ["porter_stem"]

# Ordered (suffix, replacement) tables; at most one group can apply per
# word, so the first matching suffix keeps the reference precedence.
_STEP2 = (
    ("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
    ("anci", "ance"), ("izer", "ize"), ("bli", "ble"), ("alli", "al"),
    ("entli", "ent"), ("eli", "e"), ("ousli", "ous"), ("ization", "ize"),
    ("ation", "ate"), ("ator", "ate"), ("alism", "al"),
    ("iveness", "ive"), ("fulness", "ful"), ("ousness", "ous"),
    ("aliti", "al"), ("iviti", "ive"), ("biliti", "ble"), ("logi", "log"),
)
_STEP3 = (
    ("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
    ("ical", "ic"), ("ful", ""), ("ness", ""),
)
_STEP4 = (
    "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
    "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
)
# every suffix of a step, for one C-level test before scanning its table
_ENDS2 = tuple(s for s, _ in _STEP2)
_ENDS3 = tuple(s for s, _ in _STEP3)


def _cv(word: str) -> str:
    """One 'c' or 'v' per character; y is a vowel only after a consonant."""
    out = ""
    kind = "v"  # a leading y is a consonant
    for ch in word:
        kind = "v" if ch in "aeiou" or (ch == "y" and kind == "c") else "c"
        out += kind
    return out


def _measure(stem: str) -> int:
    """m in [C](VC)^m[V]: the number of vowel runs followed by consonants."""
    return _cv(stem).count("vc")


def _cvc(stem: str) -> bool:
    """Ends consonant-vowel-consonant, the last consonant not w, x or y."""
    return _cv(stem).endswith("cvc") and stem[-1] not in "wxy"


def _step1a(w: str) -> str:
    # plurals: sses -> ss, ies -> i, s -> '' unless ss
    if w.endswith(("sses", "ies")):
        return w[:-2]
    if w.endswith("s") and not w.endswith("ss"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    # -eed, -ed, -ing
    if w.endswith("eed"):
        return w[:-1] if _measure(w[:-3]) > 0 else w
    for suffix in ("ed", "ing"):
        if w.endswith(suffix):
            stem = w[:-len(suffix)]
            if "v" not in _cv(stem):
                return w
            if stem.endswith(("at", "bl", "iz")):
                return stem + "e"
            if len(stem) > 1 and stem[-1] == stem[-2] \
                    and _cv(stem)[-1] == "c":
                return stem[:-1] if stem[-1] not in "lsz" else stem
            if _measure(stem) == 1 and _cvc(stem):
                return stem + "e"
            return stem
    return w


def _step1c(w: str) -> str:
    # terminal y -> i when the stem has another vowel
    if w.endswith("y") and "v" in _cv(w[:-1]):
        return w[:-1] + "i"
    return w


def _replace(w: str, table, suffixes) -> str:
    """Steps 2 and 3: rewrite the first matching suffix when m > 0."""
    if not w.endswith(suffixes):
        return w
    for suffix, repl in table:
        if w.endswith(suffix):
            stem = w[:-len(suffix)]
            return stem + repl if _measure(stem) > 0 else w
    return w


def _step4(w: str) -> str:
    if not w.endswith(_STEP4):
        return w
    for suffix in _STEP4:
        if w.endswith(suffix):
            stem = w[:-len(suffix)]
            # -ion only counts after s or t
            if _measure(stem) > 1 and (suffix != "ion"
                                       or stem.endswith(("s", "t"))):
                return stem
            return w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        m = _measure(w[:-1])
        if m > 1 or (m == 1 and not _cvc(w[:-1])):
            w = w[:-1]
    if w.endswith("ll") and _measure(w) > 1:
        w = w[:-1]
    return w


def porter_stem(word: str) -> str:
    """Stem a single token (lower-cased first)."""
    word = word.lower()
    if len(word) <= 2:
        return word
    w = _step1c(_step1b(_step1a(word)))
    w = _replace(_replace(w, _STEP2, _ENDS2), _STEP3, _ENDS3)
    return _step5(_step4(w))
