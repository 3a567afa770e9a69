import pytest
from hypothesis import given, strategies as st

from corplex.porter import (
    _STEP2_ORDERED,
    _STEP3_ORDERED,
    _STEP4_ORDERED,
    _map_suffix,
    _measure,
    _step1a,
    _step1b,
    _step1c,
    _step2,
    _step3,
    _step4,
    _step5,
    porter_stem,
)


class TestMeasure:
    @pytest.mark.parametrize(
        "stem,m",
        [
            ("tr", 0), ("ee", 0), ("tree", 0), ("y", 0), ("by", 0),
            ("trouble", 1), ("oats", 1), ("trees", 1), ("ivy", 1),
            ("troubles", 2), ("private", 2), ("oaten", 2), ("orrery", 2),
        ],
    )
    def test_published_values(self, stem, m):
        assert _measure(stem) == m


class TestSteps:
    @pytest.mark.parametrize(
        "w,out",
        [
            ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
            ("caress", "caress"), ("cats", "cat"),
        ],
    )
    def test_1a(self, w, out):
        assert _step1a(w) == out

    @pytest.mark.parametrize(
        "w,out",
        [
            ("feed", "feed"), ("agreed", "agree"), ("plastered", "plaster"),
            ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
            ("conflated", "conflate"), ("troubled", "trouble"),
            ("sized", "size"), ("hopping", "hop"), ("tanned", "tan"),
            ("falling", "fall"), ("hissing", "hiss"), ("fizzed", "fizz"),
            ("failing", "fail"), ("filing", "file"),
        ],
    )
    def test_1b(self, w, out):
        assert _step1b(w) == out

    @pytest.mark.parametrize("w,out", [("happy", "happi"), ("sky", "sky")])
    def test_1c(self, w, out):
        assert _step1c(w) == out

    @pytest.mark.parametrize(
        "w,out",
        [
            ("relational", "relate"), ("conditional", "condition"),
            ("rational", "rational"), ("valenci", "valence"),
            ("hesitanci", "hesitance"), ("digitizer", "digitize"),
            ("radicalli", "radical"), ("differentli", "different"),
            ("vileli", "vile"), ("analogousli", "analogous"),
            ("vietnamization", "vietnamize"), ("predication", "predicate"),
            ("operator", "operate"), ("feudalism", "feudal"),
            ("decisiveness", "decisive"), ("hopefulness", "hopeful"),
            ("callousness", "callous"), ("formaliti", "formal"),
            ("sensitiviti", "sensitive"), ("sensibiliti", "sensible"),
        ],
    )
    def test_2(self, w, out):
        assert _step2(w) == out

    @pytest.mark.parametrize(
        "w,out",
        [
            ("triplicate", "triplic"), ("formative", "form"),
            ("formalize", "formal"), ("electriciti", "electric"),
            ("electrical", "electric"), ("hopeful", "hope"),
            ("goodness", "good"),
        ],
    )
    def test_3(self, w, out):
        assert _step3(w) == out

    @pytest.mark.parametrize(
        "w,out",
        [
            ("revival", "reviv"), ("allowance", "allow"),
            ("inference", "infer"), ("airliner", "airlin"),
            ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
            ("defensible", "defens"), ("irritant", "irrit"),
            ("replacement", "replac"), ("adjustment", "adjust"),
            ("dependent", "depend"), ("adoption", "adopt"),
            ("homologou", "homolog"), ("communism", "commun"),
            ("activate", "activ"), ("angulariti", "angular"),
            ("homologous", "homolog"), ("effective", "effect"),
            ("bowdlerize", "bowdler"),
        ],
    )
    def test_4(self, w, out):
        assert _step4(w) == out

    @pytest.mark.parametrize(
        "w,out",
        [
            ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
            ("controll", "control"), ("roll", "roll"),
        ],
    )
    def test_5(self, w, out):
        assert _step5(w) == out


class TestFullPipeline:
    # hand-traced through all steps; later steps keep transforming the
    # per-step outputs, so these differ from the single-step fixtures above
    @pytest.mark.parametrize(
        "word,stem",
        [
            ("caresses", "caress"),
            ("flies", "fli"),
            ("denied", "deni"),
            ("agreed", "agre"),
            ("plastered", "plaster"),
            ("motoring", "motor"),
            ("hopping", "hop"),
            ("filing", "file"),
            ("sized", "size"),
            ("conflated", "conflat"),
            ("troubled", "troubl"),
            ("happy", "happi"),
            ("sky", "sky"),
            ("relational", "relat"),
            ("conditional", "condit"),
            ("rational", "ration"),
            ("valenci", "valenc"),
            ("digitizer", "digit"),
            ("hopefulness", "hope"),
            ("generalizations", "gener"),
            ("oscillators", "oscil"),
            ("mules", "mule"),
            ("feed", "feed"),
            ("probate", "probat"),
            ("rate", "rate"),
            ("cease", "ceas"),
            ("controlling", "control"),
            ("rolling", "roll"),
            ("amazing", "amaz"),
            ("amazed", "amaz"),
            ("amazes", "amaz"),
        ],
    )
    def test_frozen_vectors(self, word, stem):
        assert porter_stem(word) == stem

    def test_inflection_family_collapses(self):
        assert len({porter_stem(w) for w in ("trouble", "troubled", "troubles", "troubling")}) == 1
        assert len({porter_stem(w) for w in ("connect", "connected", "connecting", "connection")}) == 1

    def test_short_words_untouched(self):
        assert porter_stem("at") == "at"
        assert porter_stem("be") == "be"
        assert porter_stem("I") == "i"

    def test_nonalphabetic_passes_through(self):
        assert porter_stem("3.5") == "3.5"
        assert porter_stem("n't") == "n't"
        assert porter_stem("") == ""

    def test_case_folds(self):
        assert porter_stem("Running") == porter_stem("running") == "run"

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=25))
    def test_never_longer_and_idempotent_prefix(self, word):
        stem = porter_stem(word)
        assert len(stem) <= len(word)
        assert stem

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=3, max_size=25))
    def test_deterministic(self, word):
        assert porter_stem(word) == porter_stem(word)


def _old_step4(w):
    # step 4 as it was, walking every suffix with no all-suffix pre-check
    for suffix in _STEP4_ORDERED:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return w
                return stem
            return w
    return w


_SUFFIXES = sorted({s for s, _ in _STEP2_ORDERED} | {s for s, _ in _STEP3_ORDERED}
                   | set(_STEP4_ORDERED))


class TestSuffixPrecheck:
    """Steps 2-4 first test all their suffixes at once; results must not move."""

    @given(st.text(alphabet="abceilnorstuvyz", max_size=8), st.sampled_from(_SUFFIXES))
    def test_steps_match_the_full_walk(self, stem, suffix):
        for w in (stem, stem + suffix, stem + suffix[1:]):
            assert _step2(w) == _map_suffix(w, _STEP2_ORDERED, 0)
            assert _step3(w) == _map_suffix(w, _STEP3_ORDERED, 0)
            assert _step4(w) == _old_step4(w)
