import math

import pytest
from hypothesis import given, settings, strategies as st

from corplex.lexstats import (
    BOUNDARY,
    CountTable,
    corpus_stats,
    count_corpus_ngrams,
    heaps_checkpoints,
    heaps_fit,
    herdan_c,
    ngram_counts,
    table_entropy,
    type_token_counts,
    unigram_entropy,
    zipf_table,
)
from corplex.textpipe import tokenize, split_sentences


class TestTypeToken:
    def test_counts_fold_case(self):
        V, N = type_token_counts(["The", "the", "cat"])
        assert (V, N) == (2, 3)

    def test_herdan_closed_forms(self):
        assert herdan_c(10, 100) == 0.5
        assert herdan_c(50, 50) == 1.0
        assert herdan_c(1000, 1000) == 1.0

    def test_herdan_degenerate(self):
        with pytest.raises(ValueError):
            herdan_c(1, 100)
        with pytest.raises(ValueError):
            herdan_c(2, 1)
        with pytest.raises(ValueError):
            herdan_c(10, 5)

    @given(st.lists(st.sampled_from("abcdefgh"), min_size=4, max_size=200))
    def test_c_in_unit_interval(self, tokens):
        V, N = type_token_counts(tokens)
        if V >= 2:
            assert 0.0 < herdan_c(V, N) <= 1.0


class TestZipf:
    def test_rank_order_and_ties(self):
        table = zipf_table(["b", "a", "b", "c", "a", "b"])
        assert table == [(1, "b", 3), (2, "a", 2), (3, "c", 1)]

    def test_tie_break_lexicographic(self):
        table = zipf_table(["z", "a"])
        assert [t for _, t, _ in table] == ["a", "z"]


class TestEntropy:
    def test_uniform_four_exact(self):
        assert unigram_entropy(["a", "b", "c", "d"]) == 2.0

    def test_three_one(self):
        assert unigram_entropy(["a", "a", "a", "b"]) == pytest.approx(0.811278, abs=1e-6)

    def test_two_one_one(self):
        assert unigram_entropy(["a", "a", "b", "c"]) == pytest.approx(1.5)

    def test_single_type_zero(self):
        assert unigram_entropy(["x", "x", "x"]) == 0.0

    def test_table_entropy_matches(self):
        sents = [("a", "a", "a", "b")]
        table = ngram_counts(sents, 1, "postprocessed")
        assert table_entropy(table) == unigram_entropy(["a", "a", "a", "b"])

    @given(st.lists(st.sampled_from("abcd"), min_size=1, max_size=100))
    def test_bounds(self, tokens):
        h = unigram_entropy(tokens)
        V, _ = type_token_counts(tokens)
        assert -1e-12 <= h <= math.log2(V) + 1e-12


class TestHeaps:
    def test_unit_checkpoints_small(self):
        pts = heaps_checkpoints(["a", "b", "c"], 50)
        assert pts == [(1, 1), (2, 2), (3, 3)]

    def test_explicit_checkpoints(self):
        stream = ["a", "b", "a", "c", "a", "d"]
        pts = heaps_checkpoints(stream, [2, 4, 6])
        assert pts == [(2, 2), (4, 3), (6, 4)]

    def test_fit_needs_length(self):
        with pytest.raises(ValueError):
            heaps_fit(["a"] * 999)

    def test_fit_recovers_exact_power_law(self):
        # stream built so V = sqrt(N) exactly at the square checkpoints
        stream, v = [], 0
        for n in range(1, 10_001):
            r = math.isqrt(n)
            if r * r == n and r > v:
                v = r
                stream.append(f"t{v}")
            else:
                stream.append("t1")
        fit = heaps_fit(stream, [k * k for k in range(32, 101)])
        assert fit.exponent == pytest.approx(0.5, abs=1e-6)
        assert fit.stderr < 1e-6

    def test_checkpoints_monotone(self):
        stream = ["w%d" % (i % 37) for i in range(2000)]
        pts = heaps_checkpoints(stream)
        ns = [n for n, _ in pts]
        vs = [v for _, v in pts]
        assert ns == sorted(set(ns))
        assert vs == sorted(vs)
        assert pts[-1][0] == 2000


def table_of(sentences, n, policy="postprocessed"):
    return dict(ngram_counts(sentences, n, policy).entries)


class TestNgramPostprocessing:
    def test_worked_example_n3(self):
        got = table_of([("a", "b"), ("c", "d")], 3)
        assert got == {
            (BOUNDARY, "a", "b"): 1,
            ("a", "b", BOUNDARY): 1,
            (BOUNDARY, "c", "d"): 1,
            ("c", "d", BOUNDARY): 1,
        }

    def test_worked_example_n4(self):
        got = table_of([("a", "b"), ("c", "d")], 4)
        assert got[("a", "b", BOUNDARY, BOUNDARY)] == 1
        assert got[(BOUNDARY, BOUNDARY, "c", "d")] == 1
        # tie windows (§,a,b,§) and (§,c,d,§) are dropped
        assert len(got) == 2

    def test_n1_drops_markers(self):
        got = ngram_counts([("a", "b"), ("a",)], 1)
        assert got.total == 3
        assert (BOUNDARY,) not in got.entries

    def test_tag_shapes_n2(self):
        got = table_of([("DT", "NN"), ("VB",)], 2)
        assert got == {
            (BOUNDARY, "DT"): 1,
            ("DT", "NN"): 1,
            ("NN", BOUNDARY): 1,
            (BOUNDARY, "VB"): 1,
            ("VB", BOUNDARY): 1,
        }

    def test_tag_shapes_n3(self):
        got = table_of([("DT", "NN"), ("VB",)], 3)
        assert ("DT", "NN", BOUNDARY) in got
        assert ("NN", BOUNDARY, "VB") not in got

    def test_raw_keeps_everything(self):
        got = table_of([("a", "b")], 2, "raw")
        assert got == {(BOUNDARY, "a"): 1, ("a", "b"): 1, ("b", BOUNDARY): 1}

    def test_no_center_marker_invariant(self):
        for sents in (
            [("a",), ("b", "c", "a"), ("c",), ("a", "b")],
            # one-token sentences: at n = 13 the window "§w§w§ww§wwwww" marks
            # its shorter side up to the center
            [("go",), ("run",), ("it", "is"), ("then", "the", "rest", "of", "it", "goes", "on")],
        ):
            for n in range(3, 16, 2):
                for key in ngram_counts(sents, n).entries:
                    assert key[n // 2] != BOUNDARY, (n, key)

    def test_empty_input(self):
        assert ngram_counts([], 2).total == 0

    def test_bad_policy(self):
        with pytest.raises(ValueError):
            ngram_counts([("a",)], 2, "nonsense")

    def test_post_alias(self):
        sents = [("a", "b"), ("c",)]
        assert table_of(sents, 2, "post") == table_of(sents, 2, "postprocessed")

    @given(
        st.lists(
            st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(tuple),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=200)
    def test_postprocessed_within_raw_totals(self, sents, n):
        raw = ngram_counts(sents, n, "raw")
        post = ngram_counts(sents, n, "postprocessed")
        assert post.total <= raw.total

    @given(
        st.lists(
            st.lists(st.sampled_from("abc"), min_size=1, max_size=3).map(tuple),
            min_size=1,
            max_size=3,
        )
    )
    @settings(max_examples=200)
    def test_n1_total_counts_tokens(self, sents):
        got = ngram_counts(sents, 1)
        assert got.total == sum(len(s) for s in sents)


class TestSharding:
    def test_merge_equals_single_pass(self):
        sections = [
            [("a", "b"), ("c",)],
            [("b", "b", "a")],
            [("c", "a"), ("a", "b", "c"), ("b",)],
        ]
        for n in (1, 2, 3):
            merged = ngram_counts(sections[0], n).merge(ngram_counts(sections[1], n)).merge(
                ngram_counts(sections[2], n)
            )
            combined = count_corpus_ngrams(sections, n)
            assert merged.entries == combined.entries
            assert merged.total == combined.total

    def test_parallel_identical(self):
        sections = [[("a", "b"), ("c", "a")], [("b",)], [("a", "a", "b")], [("c",)]]
        serial = count_corpus_ngrams(sections, 2, processes=1)
        parallel = count_corpus_ngrams(sections, 2, processes=2)
        assert serial.entries == parallel.entries

    def test_sentence_objects_match_tuples(self):
        texts = ["The cat sat. It ran off!", "Dogs bark. Birds sing loudly.", "One more line.", "End."]
        sections = [split_sentences(tokenize(t)) for t in texts]
        plain = [[s.surfaces() for s in section] for section in sections]
        for processes in (1, 2):
            for n in (1, 2, 3):
                got = count_corpus_ngrams(sections, n, processes=processes)
                assert got == count_corpus_ngrams(plain, n, processes=processes)
                assert got.total > 0

    def test_merge_leaves_operands_alone(self):
        t1 = ngram_counts([("a",)], 1)
        t2 = ngram_counts([("a", "b")], 1)
        before = dict(t1.entries)
        t1.merge(t2)
        assert t1.entries == before


class TestCountTable:
    def test_ranked_and_tsv(self):
        table = ngram_counts([("b", "a", "b")], 1)
        assert table.ranked() == [(1, ("b",), 2), (2, ("a",), 1)]
        assert list(table.to_tsv_lines()) == ["b\t2", "a\t1"]

    def test_eq(self):
        a = ngram_counts([("x", "y")], 1)
        b = ngram_counts([("x", "y")], 1)
        assert a == b
        assert a != ngram_counts([("x",)], 1)


class TestCorpusStats:
    def test_ratios(self):
        sents = split_sentences(tokenize("One two three, four. Five six!"))
        stats = corpus_stats(sents)
        # 5 word tokens + 3 punct tokens over 2 sentences
        assert stats.words_per_sentence == pytest.approx(9 / 2)
        assert stats.separators_per_sentence == pytest.approx(1 / 2)
        # subsentences: (1 sep + 1) + (0 + 1) = 3; content tokens = 6
        assert stats.content_words_per_subsentence == pytest.approx(6 / 3)

    def test_chars_per_word_over_words_only(self):
        sents = split_sentences(tokenize("ab cde."))
        stats = corpus_stats(sents)
        assert stats.chars_per_word == pytest.approx(5 / 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            corpus_stats([])
