import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corplex.errors import ParseError
from corplex.lexstats import BOUNDARY, CountTable
from corplex.posstats import (
    PENN_TAGS,
    POS_CONDITIONS,
    TaggedSentence,
    apply_pos_condition,
    cosine_angle,
    merge_adjacent_proper_nouns,
    parse_tagged,
    pos_distribution,
    tag_ngram_table,
)


def sent(*pairs):
    return TaggedSentence(tuple(pairs))


class TestParseTagged:
    def test_basic(self):
        lines = ["The/DT dog/NN barks/VBZ ./."]
        [s] = parse_tagged(lines)
        assert s.pairs == (("The", "DT"), ("dog", "NN"), ("barks", "VBZ"), (".", "."))

    def test_escaped_slash_in_token(self):
        [s] = parse_tagged([r"and\/or/CC"])
        assert s.pairs == (("and/or", "CC"),)

    def test_format_roundtrip(self):
        original = sent(("and/or", "CC"), ("cat", "NN"))
        line = " ".join(tok.replace("/", "\\/") + "/" + tag for tok, tag in original.pairs)
        [back] = parse_tagged([line])
        assert back == original

    def test_empty_lines_skipped(self):
        assert parse_tagged(["", "a/DT", "   "]) == [sent(("a", "DT"))]

    def test_missing_tag_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_tagged(["word"])
        assert "line 1" in str(err.value)

    def test_empty_tag_rejected(self):
        with pytest.raises(ParseError):
            parse_tagged(["word/"])

    def test_unknown_tag_warns(self):
        warnings = Counter()
        parse_tagged(["glorp/ZZZ"], warnings)
        assert warnings["unknown_tag"] == 1

    def test_known_tags_quiet(self):
        warnings = Counter()
        parse_tagged(["ok/NN go/VB"], warnings)
        assert not warnings

    def test_tag_inventory(self):
        assert {"NN", "NNP", "NNPS", "VBZ", "DT", "JJ", ".", ","} <= PENN_TAGS


class TestMergeProperNouns:
    def test_worked_example(self):
        s = sent(("Long", "NNP"), ("Island", "NNP"), ("is", "VBZ"))
        merged = merge_adjacent_proper_nouns(s)
        assert merged.pairs == (("Long_Island", "NNP"), ("is", "VBZ"))

    def test_run_takes_final_tag(self):
        s = sent(("United", "NNP"), ("Nations", "NNPS"))
        merged = merge_adjacent_proper_nouns(s)
        assert merged.pairs == (("United_Nations", "NNPS"),)

    def test_single_proper_noun_unchanged(self):
        s = sent(("Paris", "NNP"), ("sleeps", "VBZ"))
        assert merge_adjacent_proper_nouns(s) == s

    def test_separated_runs_stay_separate(self):
        s = sent(("Paris", "NNP"), ("and", "CC"), ("Rome", "NNP"))
        assert merge_adjacent_proper_nouns(s) == s

    def test_idempotent(self):
        s = sent(("New", "NNP"), ("York", "NNP"), ("City", "NNP"), ("won", "VBD"))
        once = merge_adjacent_proper_nouns(s)
        assert merge_adjacent_proper_nouns(once) == once

    def test_non_proper_untouched(self):
        s = sent(("big", "JJ"), ("dogs", "NNS"))
        assert merge_adjacent_proper_nouns(s) == s


class TestPosConditions:
    def test_inventory(self):
        assert POS_CONDITIONS == ("O", "N", "SO", "SN")

    def test_identity_conditions(self):
        sents = [sent(("New", "NNP"), ("York", "NNP"))]
        assert apply_pos_condition(sents, "O") == sents
        assert apply_pos_condition(sents, "N") == sents

    def test_merging_conditions(self):
        sents = [sent(("New", "NNP"), ("York", "NNP"))]
        for cond in ("SO", "SN"):
            [s] = apply_pos_condition(sents, cond)
            assert s.pairs == (("New_York", "NNP"),)

    def test_unknown_condition(self):
        with pytest.raises(ValueError):
            apply_pos_condition([], "Q")


class TestTagNgrams:
    def test_delegates_with_boundaries(self):
        table = tag_ngram_table([sent(("a", "DT"), ("b", "NN")), sent(("c", "VB"))], 2)
        assert table.entries == {
            (BOUNDARY, "DT"): 1,
            ("DT", "NN"): 1,
            ("NN", BOUNDARY): 1,
            (BOUNDARY, "VB"): 1,
            ("VB", BOUNDARY): 1,
        }

    def test_merge_shortens_tag_stream(self):
        sents = [sent(("New", "NNP"), ("York", "NNP"), ("won", "VBD"))]
        t_orig = tag_ngram_table(apply_pos_condition(sents, "O"), 1)
        t_short = tag_ngram_table(apply_pos_condition(sents, "SO"), 1)
        assert t_orig.total == 3
        assert t_short.total == 2


class TestCosine:
    def test_identical_exact(self):
        t = tag_ngram_table([sent(("a", "DT"), ("b", "NN"))], 1)
        assert cosine_angle(t, t) == (1.0, 0.0)

    def test_disjoint_exact(self):
        a = CountTable(1, {("NN",): 3})
        b = CountTable(1, {("VB",): 5})
        assert cosine_angle(a, b) == (0.0, 90.0)

    def test_known_angle(self):
        # 3-4-5 style: cos = 12/(5*13) vectors (3,4),(0,13)? use exact ints
        a = CountTable(1, {("x",): 3, ("y",): 4})
        b = CountTable(1, {("y",): 1})
        sim, angle = cosine_angle(a, b)
        assert sim == pytest.approx(4 / 5)
        assert angle == pytest.approx(math.degrees(math.acos(0.8)))

    def test_n_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_angle(CountTable(1, {("a",): 1}), CountTable(2, {("a", "b"): 1}))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cosine_angle(CountTable(1), CountTable(1, {("a",): 1}))

    @given(
        st.dictionaries(
            st.sampled_from(["NN", "VB", "DT", "JJ"]),
            st.integers(min_value=1, max_value=30),
            min_size=1,
        ),
        st.dictionaries(
            st.sampled_from(["NN", "VB", "DT", "JJ"]),
            st.integers(min_value=1, max_value=30),
            min_size=1,
        ),
    )
    @settings(max_examples=150)
    def test_symmetry_and_range(self, da, db):
        a = CountTable(1, {(k,): v for k, v in da.items()})
        b = CountTable(1, {(k,): v for k, v in db.items()})
        sim_ab, ang_ab = cosine_angle(a, b)
        sim_ba, ang_ba = cosine_angle(b, a)
        assert sim_ab == sim_ba and ang_ab == ang_ba
        assert 0.0 <= sim_ab <= 1.0
        assert 0.0 <= ang_ab <= 90.0

    @given(
        st.dictionaries(
            st.sampled_from(["NN", "VB", "DT"]),
            st.integers(min_value=1, max_value=30),
            min_size=1,
        ),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=150)
    def test_pow2_scaling_exact(self, d, k):
        a = CountTable(1, {(key,): v for key, v in d.items()})
        b = CountTable(1, {("NN",): 2, ("JJ",): 7})
        scaled = CountTable(1, {key: v * 2**k for key, v in a.entries.items()})
        assert cosine_angle(a, b) == cosine_angle(scaled, b)


class TestPosDistribution:
    def test_worked_example(self):
        table = CountTable(1, {("NN",): 3, ("DT",): 1})
        assert pos_distribution(table) == [("NN", 0.75), ("DT", 0.25)]

    def test_needs_unigrams(self):
        with pytest.raises(ValueError):
            pos_distribution(CountTable(2, {("a", "b"): 1}))

    def test_tie_order_lexicographic(self):
        table = CountTable(1, {("VB",): 2, ("DT",): 2})
        assert [t for t, _ in pos_distribution(table)] == ["DT", "VB"]
