import itertools
import random
import string
from concurrent.futures import ThreadPoolExecutor

from hypothesis import given, strategies as st

from ontodivide.lexindex import normalize_label
from ontodivide.ontology import entity_labels
from ontodivide.stemming import porter_stem
from oracles import ReferencePorterStemmer

# (word, stem) pairs frozen from a reference run of the classic
# suffix-stripping implementation (maintained variant, revisions included).
REFERENCE_VOCABULARY = [
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"), ("feed", "feed"),
    ("agreed", "agre"), ("plastered", "plaster"), ("bled", "bled"),
    ("motoring", "motor"), ("sing", "sing"), ("conflated", "conflat"),
    ("troubled", "troubl"), ("sized", "size"), ("hopping", "hop"),
    ("tanned", "tan"), ("falling", "fall"), ("hissing", "hiss"),
    ("fizzed", "fizz"), ("failing", "fail"), ("filing", "file"),
    ("happy", "happi"), ("sky", "sky"), ("crying", "cry"),
    ("trying", "try"), ("relational", "relat"), ("conditional", "condit"),
    ("rational", "ration"), ("valency", "valenc"), ("hesitancy", "hesit"),
    ("digitizer", "digit"), ("conformably", "conform"),
    ("radically", "radic"), ("differently", "differ"), ("vilely", "vile"),
    ("analogously", "analog"), ("vietnamization", "vietnam"),
    ("predication", "predic"), ("operator", "oper"),
    ("feudalism", "feudal"), ("decisiveness", "decis"),
    ("hopefulness", "hope"), ("callousness", "callous"),
    ("formality", "formal"), ("sensitivity", "sensit"),
    ("sensibility", "sensibl"), ("triplicate", "triplic"),
    ("formative", "form"), ("formalize", "formal"),
    ("electricity", "electr"), ("electrical", "electr"),
    ("hopeful", "hope"), ("goodness", "good"), ("revival", "reviv"),
    ("allowance", "allow"), ("inference", "infer"), ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
    ("defensible", "defens"), ("irritant", "irrit"),
    ("replacement", "replac"), ("adjustment", "adjust"),
    ("dependent", "depend"), ("adoption", "adopt"),
    ("communism", "commun"), ("activate", "activ"),
    ("angularity", "angular"), ("homologous", "homolog"),
    ("effective", "effect"), ("bowdlerize", "bowdler"),
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
    ("generalization", "gener"), ("generalizations", "gener"),
    ("oscillators", "oscil"), ("terribly", "terribl"),
    ("geology", "geologi"), ("geological", "geolog"),
    ("archaeology", "archaeolog"), ("controlling", "control"),
    ("rolled", "roll"), ("mapping", "map"), ("mapped", "map"),
    ("matting", "mat"), ("mating", "mate"), ("meetings", "meet"),
    ("meeting", "meet"), ("y", "y"), ("a", "a"), ("an", "an"),
    ("be", "be"), ("the", "the"), ("was", "wa"),
    ("disorder", "disord"), ("disorders", "disord"),
    ("pregnancy", "pregnanc"), ("pregnancies", "pregnanc"),
    ("stomach", "stomach"), ("carcinoma", "carcinoma"),
    ("carcinomas", "carcinoma"), ("basaloid", "basaloid"),
    ("follicular", "follicular"), ("thyroid", "thyroid"),
    ("lunate", "lunat"), ("facet", "facet"), ("hamate", "hamat"),
    ("anatomy", "anatomi"), ("anatomical", "anatom"),
    ("structure", "structur"), ("structures", "structur"),
    ("organ", "organ"), ("organs", "organ"), ("heart", "heart"),
    ("valve", "valv"), ("valves", "valv"), ("mitral", "mitral"),
    ("aortic", "aortic"), ("lung", "lung"), ("lungs", "lung"),
    ("bronchus", "bronchu"), ("trachea", "trachea"), ("brain", "brain"),
    ("cortex", "cortex"), ("cerebral", "cerebr"),
    ("cerebellum", "cerebellum"), ("kidney", "kidnei"),
    ("renal", "renal"), ("pelvis", "pelvi"), ("liver", "liver"),
    ("hepatic", "hepat"), ("artery", "arteri"), ("arteries", "arteri"),
    ("bone", "bone"), ("bones", "bone"), ("femur", "femur"),
    ("tibia", "tibia"), ("skull", "skull"), ("parietal", "pariet"),
    ("blood", "blood"), ("vessel", "vessel"), ("vessels", "vessel"),
    ("aorta", "aorta"), ("pulmonary", "pulmonari"),
    ("carotid", "carotid"), ("vertebra", "vertebra"),
    ("vibrissa", "vibrissa"), ("thumb", "thumb"),
    ("olecranon", "olecranon"), ("membrane", "membran"),
    ("tissue", "tissu"), ("tissues", "tissu"), ("cell", "cell"),
    ("cells", "cell"), ("nucleus", "nucleu"), ("nuclei", "nuclei"),
    ("muscle", "muscl"), ("muscles", "muscl"), ("nerve", "nerv"),
    ("nerves", "nerv"), ("ganglion", "ganglion"), ("vein", "vein"),
    ("veins", "vein"), ("t4", "t4"), ("3d", "3d"),
    ("covid19", "covid19"), ("b12", "b12"), ("x", "x"), ("abc", "abc"),
    ("ability", "abil"), ("absorbed", "absorb"),
    ("according", "accord"), ("accuracy", "accuraci"),
    ("achieved", "achiev"), ("complicated", "complic"),
]


def test_reference_vocabulary():
    for word, expected in REFERENCE_VOCABULARY:
        assert porter_stem(word) == expected, word


def test_no_rule_applies():
    assert porter_stem("sky") == "sky"


def test_short_words_untouched():
    assert porter_stem("be") == "be"
    assert porter_stem("I") == "i"


def test_uppercase_is_folded():
    assert porter_stem("Caresses") == "caress"


@given(st.text(alphabet=string.ascii_lowercase + string.digits,
               min_size=1, max_size=20))
def test_total_and_never_longer(word):
    out = porter_stem(word)
    assert isinstance(out, str)
    assert 0 < len(out) <= len(word)
    assert out == out.lower()
    assert out == ReferencePorterStemmer().stem(word)


def label_tokens(*ontologies):
    return sorted({token for onto in ontologies for ent in onto.signature
                   for label in entity_labels(onto, ent)
                   for token in normalize_label(label, frozenset(),
                                                lambda t: t)})


def generated_words(seed: int, count: int) -> list[str]:
    """Random stems followed by 0-3 suffixes the rules look for."""
    ref = ReferencePorterStemmer
    suffixes = ([s for s, _ in ref._STEP2] + [s for s, _ in ref._STEP3]
                + list(ref._STEP4) + ["s", "ed", "ing", "e", "ll", "y"])
    letters = string.ascii_lowercase + "aeiouy"
    rng = random.Random(seed)
    return ["".join(rng.choices(letters, k=rng.randint(1, 7))
                    + rng.choices(suffixes, k=rng.randint(0, 3)))
            for _ in range(count)]


class TestAgainstReference:
    """`porter_stem` against the stateful port it replaced."""

    @staticmethod
    def assert_same_stems(words):
        ref = ReferencePorterStemmer()
        wrong = [(w, porter_stem(w), ref.stem(w)) for w in words
                 if porter_stem(w) != ref.stem(w)]
        assert not wrong, f"{len(wrong)} wrong stems, e.g. {wrong[:5]}"

    def test_reference_vocabulary(self):
        self.assert_same_stems([w for w, _ in REFERENCE_VOCABULARY])

    def test_fixture_label_tokens(self, toy_pair, table1_pair):
        self.assert_same_stems(label_tokens(*toy_pair, *table1_pair))

    def test_generated_words(self):
        self.assert_same_stems(generated_words(seed=0, count=100_000))

    def test_short_strings(self):
        self.assert_same_stems(
            "".join(chars) for size in range(1, 5)
            for chars in itertools.product("aeysbcl", repeat=size))


def test_threads_get_serial_stems(fast_thread_switching):
    words = [w for w, _ in REFERENCE_VOCABULARY] * 10
    serial = [porter_stem(w) for w in words]
    with ThreadPoolExecutor(4) as pool:
        futures = [pool.submit(lambda: [porter_stem(w) for w in words])
                   for _ in range(4)]
        assert [f.result(timeout=60) for f in futures] == [serial] * 4
