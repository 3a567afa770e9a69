import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats as sps
from scipy.special import betainc

from corplex.readability import (
    FogReport,
    GroupStats,
    corpus_fog,
    gunning_fog,
    regularized_incomplete_beta,
    student_t_two_sided_p,
    text_fog,
    welch_t_test,
)
from corplex.textpipe import split_sentences, tokenize


class TestFogFormula:
    def test_formula(self):
        r = FogReport.from_counts(words=100, sentences=5, complex_words=10)
        assert r.F == pytest.approx(0.4 * (20 + 10), abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            FogReport.from_counts(0, 1, 0)
        with pytest.raises(ValueError):
            FogReport.from_counts(5, 0, 0)
        with pytest.raises(ValueError):
            FogReport.from_counts(5, 1, 6)

    def test_counts_words_only(self):
        sents = split_sentences(tokenize("The community hesitated, twice. It moved on!"))
        r = gunning_fog(sents)
        assert r.sentences == 2
        assert r.words == 7  # punctuation excluded
        assert r.complex_words == 2  # community, hesitated

    def test_text_fog_matches_manual(self):
        text = "Understanding complicated documentation requires patience. Short words help."
        r = text_fog(text)
        assert r.words == 8
        assert r.sentences == 2

    def test_sentence_reordering_invariant(self):
        a = text_fog("Alpha beta gamma. Delta epsilon!")
        b = text_fog("Delta epsilon! Alpha beta gamma.")
        assert a.F == b.F

    def test_splitting_reduces_f(self):
        one = FogReport.from_counts(20, 1, 3)
        two = FogReport.from_counts(20, 2, 3)
        assert two.F < one.F


class TestGroupStats:
    def test_worked_example(self):
        g = GroupStats.from_values([6.0, 8.0, 10.0])
        assert g.mean == 8.0
        assert g.stderr == pytest.approx(1.1547, abs=1e-4)

    def test_single_value(self):
        g = GroupStats.from_values([4.2])
        assert (g.n, g.mean, g.variance) == (1, 4.2, 0.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            GroupStats.from_values([])


class FakeDoc:
    def __init__(self, id, body):
        self.id = id
        self.title = id
        self.body = body


class TestCorpusFog:
    def test_per_document(self):
        docs = [
            FakeDoc("a", "One two three. Four five."),
            FakeDoc("b", "Complicated vocabulary predominates everywhere today."),
        ]
        stats, reports = corpus_fog(docs)
        assert stats.n == 2
        assert [doc_id for doc_id, _ in reports] == ["a", "b"]

    def test_pooled(self):
        docs = [FakeDoc("a", "One two. Three four."), FakeDoc("b", "Five six seven.")]
        pooled = gunning_fog([s for d in docs for s in split_sentences(tokenize(d.body))])
        assert pooled.words == 7
        assert pooled.sentences == 3
        _, reports = corpus_fog(docs)
        assert sum(r.words for _, r in reports) == pooled.words
        assert sum(r.sentences for _, r in reports) == pooled.sentences

    def test_skips_wordless_docs_with_warning(self):
        warnings = Counter()
        docs = [FakeDoc("a", "Real words here."), FakeDoc("b", "... !!")]
        stats, reports = corpus_fog(docs, warnings=warnings)
        assert stats.n == 1
        assert warnings["fog_skipped"] == 1


class TestIncompleteBeta:
    @given(
        st.floats(min_value=0.5, max_value=20),
        st.floats(min_value=0.5, max_value=20),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=300)
    @example(0.5, 0.5, 1 - 2**-53)
    def test_matches_scipy(self, a, b, x):
        got = regularized_incomplete_beta(a, b, x)
        if x <= 0.5:
            assert got == pytest.approx(betainc(a, b, x), abs=1e-12)
        else:
            # compare the upper tail through I_x(a, b) = 1 - I_(1-x)(b, a): 1 - x
            # is exact in floats here, while scipy's own betainc(a, b, x) loses
            # about 1e-9 near x = 1 at a = b = 0.5
            assert 1 - got == pytest.approx(betainc(b, a, 1 - x), abs=1e-12)

    def test_endpoints(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    def test_symmetry(self):
        # I_x(a,b) = 1 - I_{1-x}(b,a)
        v = regularized_incomplete_beta(2.5, 4.0, 0.3)
        w = regularized_incomplete_beta(4.0, 2.5, 0.7)
        assert v == pytest.approx(1 - w, abs=1e-13)


class TestWelch:
    def test_worked_example(self):
        t, df, p = welch_t_test(
            GroupStats.from_values([1, 2, 3, 4]), GroupStats.from_values([2, 3, 4, 5])
        )
        assert t == pytest.approx(-1.0954, abs=1e-4)
        assert df == pytest.approx(6.0)
        assert p == pytest.approx(0.3153, abs=1e-4)

    def test_scipy_agreement(self):
        prng = random.Random(123)
        for _ in range(100):
            na, nb = prng.randint(2, 40), prng.randint(2, 40)
            a = [prng.gauss(prng.uniform(-2, 2), prng.uniform(0.5, 3)) for _ in range(na)]
            b = [prng.gauss(prng.uniform(-2, 2), prng.uniform(0.5, 3)) for _ in range(nb)]
            t, _, p = welch_t_test(GroupStats.from_values(a), GroupStats.from_values(b))
            ref = sps.ttest_ind(a, b, equal_var=False)
            assert abs(t - ref.statistic) <= 1e-9
            assert abs(p - ref.pvalue) <= 1e-6

    def test_antisymmetry(self):
        a = GroupStats.from_values([1.0, 3.0, 2.0, 5.0])
        b = GroupStats.from_values([2.0, 2.5, 4.0])
        t1, df1, p1 = welch_t_test(a, b)
        t2, df2, p2 = welch_t_test(b, a)
        assert t1 == -t2
        assert df1 == df2
        assert p1 == p2

    def test_equal_var_equal_n_df(self):
        a = GroupStats.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
        b = GroupStats.from_values([11.0, 12.0, 13.0, 14.0, 15.0])
        _, df, _ = welch_t_test(a, b)
        assert df == pytest.approx(2 * 5 - 2)

    def test_identical_means_p_one(self):
        a = GroupStats.from_values([1.0, 2.0, 3.0])
        b = GroupStats.from_values([2.0, 1.0, 3.0])
        t, _, p = welch_t_test(a, b)
        assert t == 0.0
        assert p == pytest.approx(1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            welch_t_test(GroupStats.from_values([1.0]), GroupStats.from_values([1.0, 2.0]))
        with pytest.raises(ValueError):
            welch_t_test(
                GroupStats.from_values([2.0, 2.0]), GroupStats.from_values([3.0, 3.0])
            )

    def test_student_p_bounds(self):
        for t in (-5.0, -0.5, 0.0, 0.5, 5.0):
            p = student_t_two_sided_p(t, 6.0)
            assert 0.0 <= p <= 1.0
