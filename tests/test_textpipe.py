from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, strategies as st

from corplex import lexstats, readability, textpipe
from corplex.sampling import ConditionSpec, LineCache
from corplex.textpipe import (
    NUMBER,
    PUNCTUATION,
    Token,
    WORD,
    count_syllables,
    detokenize,
    is_complex_word,
    split_sentences,
    tokenize,
)


def surfaces(text):
    return [t.surface for t in tokenize(text)]


class TestTokenize:
    def test_peels_edge_punctuation(self):
        assert surfaces("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_clitics_split(self):
        assert surfaces("don't") == ["do", "n't"]
        assert surfaces("it's") == ["it", "'s"]
        assert surfaces("they're we've I'll he'd I'm") == [
            "they", "'re", "we", "'ve", "I", "'ll", "he", "'d", "I", "'m",
        ]

    def test_leading_apostrophe_not_clitic(self):
        # a clitic match at position 0 has no host to split from
        assert surfaces("'s") == ["'s"]
        assert surfaces("cat's") == ["cat", "'s"]

    def test_decimals_kept_whole(self):
        toks = tokenize("It is 3.5 km away.")
        assert ("3.5", NUMBER) in [(t.surface, t.kind) for t in toks]

    def test_hyphenated_words_kept_whole(self):
        assert "well-known" in surfaces("a well-known fact")

    def test_kinds(self):
        kinds = {t.surface: t.kind for t in tokenize("Run 42 fast!")}
        assert kinds["Run"] == WORD
        assert kinds["42"] == NUMBER
        assert kinds["!"] == PUNCTUATION

    def test_quotes_and_parens(self):
        assert surfaces('He said "yes" (twice).') == [
            "He", "said", '"', "yes", '"', "(", "twice", ")", ".",
        ]

    def test_empty_and_whitespace(self):
        assert tokenize("") == []
        assert tokenize("   \t\n ") == []

    def test_detokenize_roundtrip_tokens(self):
        toks = tokenize("One, two; three.")
        assert detokenize(toks) == "One , two ; three ."

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    def test_idempotent_on_own_output(self, text):
        toks = tokenize(text)
        again = tokenize(detokenize(toks))
        assert [t.surface for t in again] == [t.surface for t in toks]

    @given(st.text(alphabet=st.characters(codec="ascii"), max_size=80))
    def test_no_token_loses_characters(self, text):
        # every non-whitespace char of the input survives in some token
        joined = "".join(surfaces(text))
        assert sorted(joined) == sorted("".join(text.split()))


class TestSentences:
    def test_basic_split(self):
        sents = split_sentences(tokenize("A cat sat. A dog ran!"))
        assert len(sents) == 2
        assert sents[0].surfaces()[-1] == "."

    def test_abbreviation_not_boundary(self):
        sents = split_sentences(tokenize("Dr. Smith arrived. He sat."))
        assert len(sents) == 2
        assert sents[0].surfaces() == ("Dr", ".", "Smith", "arrived", ".")

    def test_initial_not_boundary(self):
        sents = split_sentences(tokenize("J. Smith wrote it. Done."))
        assert len(sents) == 2

    def test_question_and_exclamation(self):
        sents = split_sentences(tokenize("Why? Because! So there."))
        assert len(sents) == 3

    def test_trailing_fragment_is_a_sentence(self):
        sents = split_sentences(tokenize("Complete. and then some"))
        assert len(sents) == 2
        assert sents[1].surfaces() == ("and", "then", "some")

    def test_empty(self):
        assert split_sentences([]) == []

    @given(st.text(alphabet="ab .!?", max_size=60))
    def test_partition(self, text):
        toks = tokenize(text)
        sents = split_sentences(toks)
        flat = [t for s in sents for t in s.tokens]
        assert flat == list(toks)


class TestFilterPunctuation:
    """Punctuation stripping as the N conditions run it."""

    @staticmethod
    def strip(lines):
        return LineCache().apply(lines, ConditionSpec.parse("WN"))

    def test_removes_only_punctuation_kind(self):
        kept = self.strip(["Stop, now! 42 times."])
        assert [t.surface for s in kept for t in s.tokens] == ["Stop", "now", "42", "times"]

    def test_idempotent(self):
        once = self.strip(["a, b; c."])
        assert self.strip([detokenize(s.tokens) for s in once]) == once


class TestTypeTables:
    """The per-type tables keep every type they meet, however many."""

    def test_each_surface_measured_once_past_65536_types(self, monkeypatch):
        for table in (textpipe._TOKENS, textpipe._FACTS, textpipe._STEMS):
            table.clear()
        calls = Counter()
        for name in ("count_syllables", "porter_stem"):
            def counting(word, real=getattr(textpipe, name), name=name):
                calls[name, word] += 1
                return real(word)
            monkeypatch.setattr(textpipe, name, counting)
        # four-syllable words ending in k, which Porter leaves as they are,
        # so the stemmed corpus has as many types as the raw one
        syllables = [c + v for c in "bdfgmnprt" for v in "aiou"]
        words = ["".join(w) + "k" for w in islice(product(syllables, repeat=4), 70_000)]
        lines = [" ".join(words[i:i + 100]) + " ." for i in range(0, len(words), 100)]
        cache = LineCache()
        stemmed = cache.apply(lines, ConditionSpec.parse("WBP"))
        types = textpipe.type_counts(stemmed)
        tallies = [lexstats.tally_types(types) for _ in range(2)]
        fog = readability.gunning_fog([s for line in lines for s in cache.sentences(line)])
        assert tallies[0] == tallies[1]
        assert len(tallies[0].folded) == len(words) + 1  # and the "."
        assert fog.complex_words == len(words)
        assert sorted(calls) == sorted((name, w) for name in ("count_syllables", "porter_stem")
                                       for w in words)
        assert set(calls.values()) == {1}


class TestSyllables:
    @pytest.mark.parametrize(
        "word,n",
        [
            ("cat", 1),
            ("table", 2),
            ("apple", 2),
            ("banana", 3),
            ("queue", 1),
            ("see", 1),
            ("make", 1),
            ("made", 1),
            ("little", 2),
            ("people", 2),
            ("beautiful", 3),
            ("university", 5),
            ("strength", 1),
            ("rhythm", 1),
        ],
    )
    def test_counts(self, word, n):
        assert count_syllables(word) == n

    def test_minimum_one(self):
        assert count_syllables("nth") == 1

    def test_complex_threshold(self):
        assert not is_complex_word("simple")
        assert is_complex_word("complexity")
        assert not is_complex_word("table")

    @given(st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=20))
    def test_bounds(self, word):
        n = count_syllables(word)
        assert 1 <= n <= len(word)

    def test_case_insensitive(self):
        assert count_syllables("Banana") == count_syllables("banana")
