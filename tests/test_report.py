"""Comparison report assembly, canonical JSON and TSV lines."""

import gc
import hashlib
import json
import math
from collections import Counter, OrderedDict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from corplex import lexstats, posstats, readability, report
from corplex.errors import CorplexError
from corplex.ingest import Document
from corplex.sampling import ConditionSpec
from corplex.textpipe import split_sentences, tokenize


def doc(i, body):
    return Document(id=str(i), title=f"Doc {i}", body=body)


DOCS = [
    doc(1, "The quick brown fox jumps over the lazy dog. It was a sunny day.\nBirds sang in the trees."),
    doc(2, "A committee was established to review the documentation. Members agreed quickly."),
    doc(3, "Rain fell on the quiet village. The river rose slowly through the night."),
]

EXTRA = [
    doc(4, "An unrelated appendix describes the procedure in considerable detail."),
    doc(5, "Farmers planted wheat along the southern ridge before the first frost."),
]


class TestRenderJson:
    def test_six_significant_digits(self):
        assert report.render_json({"x": 0.123456789}) == '{"x": 0.123457}\n'

    def test_keys_sorted(self):
        assert report.render_json({"b": 1, "a": 2}) == '{"a": 2, "b": 1}\n'

    def test_nested_rounding(self):
        out = report.render_json({"a": [1.23456789, {"b": 9.87654321}]})
        assert out == '{"a": [1.23457, {"b": 9.87654}]}\n'

    def test_ints_untouched(self):
        # 6-digit rounding applies to floats only
        assert report.render_json({"n": 1234567}) == '{"n": 1234567}\n'

    def test_non_ascii_preserved(self):
        assert report.render_json({"k": "café"}) == '{"k": "café"}\n'

    def test_trailing_newline(self):
        assert report.render_json({}).endswith("\n")


def old_round6(value):
    """render_json's rounding as it was: an isinstance chain at every node."""
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: old_round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [old_round6(v) for v in value]
    return value


def old_render_json(payload):
    return json.dumps(old_round6(payload), sort_keys=True, ensure_ascii=False) + "\n"


class Weight(float):
    pass


class Label(str):
    pass


Pair = namedtuple("Pair", "x y")

FLOAT_FREE_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(max_size=4), st.text(max_size=4).map(Label),
)
LEAVES = st.one_of(
    FLOAT_FREE_LEAVES, st.floats(), st.floats().map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False).map(Weight),
)
KEYS = st.text(max_size=3)


def payloads(leaves):
    return st.recursive(
        leaves,
        lambda inner: st.one_of(
            st.lists(inner, max_size=4),
            st.lists(inner, max_size=4).map(tuple),
            st.tuples(inner, inner).map(lambda t: Pair(*t)),
            st.dictionaries(KEYS, inner, max_size=4),
            st.dictionaries(KEYS, inner, max_size=4).map(Counter),
            st.dictionaries(KEYS, inner, max_size=4).map(OrderedDict),
        ),
        max_leaves=30,
    )


PAYLOADS = payloads(LEAVES)


class TestRenderJsonMatchesOracle:
    @given(PAYLOADS)
    @settings(max_examples=500, deadline=None)
    def test_mixed_payloads(self, payload):
        assert report.render_json(payload) == old_render_json(payload)

    @given(payloads(FLOAT_FREE_LEAVES))
    @settings(max_examples=300, deadline=None)
    def test_unrounded_payloads_without_floats(self, payload):
        # round_floats=False is for payloads that hold no float: the same text
        assert report.render_json(payload, round_floats=False) == old_render_json(payload)

    def test_float_subclasses_and_containers(self):
        payload = {
            "np": np.float64(1 / 3), "sub": Weight(2 / 3), "nan": math.nan,
            "np_nan": np.float64("nan"), "inf": -math.inf, "flags": (True, False, None),
            "nested": ((1.23456789, [np.float64(9.87654321)]),),
            "counter": Counter({"a": 0.1234567, "b": 3}), "pair": Pair(0.5555555, Label("x")),
        }
        out = report.render_json(payload)
        assert out == old_render_json(payload)
        assert '"np": 0.333333' in out and '"sub": 0.666667' in out and '"nan": NaN' in out


class TestConditionSeed:
    def test_distinct_per_code(self):
        seeds = {report._condition_seed(7, c) for c in ConditionSpec.all_codes()}
        assert len(seeds) == len(ConditionSpec.all_codes())

    def test_stable(self):
        assert report._condition_seed(7, "WB") == report._condition_seed(7, "WB")

    def test_fits_64_bits(self):
        for code in ConditionSpec.all_codes():
            assert 0 <= report._condition_seed(2**63, code) < 2**64


class TestCompare:
    def test_identical_corpora(self):
        """Same text on both sides: the ratio-style cross metrics are exact."""
        out = report.compare_corpora(DOCS, list(DOCS), conditions=["WB", "CNP"], seed=5)
        for cond in out["conditions"].values():
            a, b, cross = cond["a"], cond["b"], cond["cross"]
            assert (a["V"], a["N"], a["C"]) == (b["V"], b["N"], b["C"])
            assert a["fog"] == b["fog"]
            assert a["corpus_stats"] == b["corpus_stats"]
            assert cross["C_ratio"] == 1.0
            # entropy sums with fsum, so permuted streams agree exactly
            for n, delta in cross["entropy_delta_bits"].items():
                assert delta == 0.0, n
            for entry in cross["cosine_angles"].values():
                assert entry["similarity"] == 1.0
                assert entry["angle_degrees"] == 0.0
            assert cond["sample_b"]["size_ratio"] == 1.0
            assert cond["sample_b"]["balanced"] is True

    def test_report_shape(self):
        out = report.compare_corpora(DOCS, DOCS + EXTRA, conditions=["CB"], ngram_max_n=2, seed=1)
        assert set(out) == {
            "seed", "boundary_policy", "ngram_max_n", "corpus_a", "corpus_b",
            "fog_per_document", "conditions",
        }
        assert out["seed"] == 1
        assert out["boundary_policy"] == "postprocessed"
        assert out["corpus_a"]["documents"] == 3
        assert out["corpus_b"]["documents"] == 5
        fog = out["fog_per_document"]
        assert set(fog) == {"a", "b", "welch"}
        assert fog["a"]["n"] == 3
        assert set(fog["welch"]) == {"t", "df", "p_two_sided"}
        cond = out["conditions"]["CB"]
        assert set(cond) == {"a", "b", "sample_b", "cross"}
        assert set(cond["a"]) == {
            "V", "N", "C", "entropy_bits", "ngram_entropy_bits", "fog", "corpus_stats",
        }
        assert set(cond["cross"]) == {"C_ratio", "entropy_delta_bits", "cosine_angles"}
        assert set(cond["sample_b"]) == {"target", "achieved", "size_ratio", "balanced", "lines"}
        assert set(cond["a"]["ngram_entropy_bits"]) == {"1", "2"}

    def test_default_conditions_all_eight(self):
        out = report.compare_corpora(DOCS, DOCS, seed=0)
        assert list(out["conditions"]) == list(ConditionSpec.all_codes())

    def test_condition_order_preserved(self):
        out = report.compare_corpora(DOCS, DOCS, conditions=["WN", "CB"], seed=0)
        assert list(out["conditions"]) == ["WN", "CB"]

    def test_deterministic(self):
        runs = [
            report.render_json(report.compare_corpora(DOCS, DOCS + EXTRA, conditions=["WB"], seed=42))
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_sample_crosses_target(self):
        out = report.compare_corpora(DOCS, DOCS + EXTRA, conditions=["WB"], seed=3)
        sample = out["conditions"]["WB"]["sample_b"]
        assert sample["achieved"] >= sample["target"]
        assert sample["size_ratio"] >= 1.0
        assert isinstance(sample["balanced"], bool)

    def test_small_pool_error_names_condition(self):
        with pytest.raises(CorplexError, match="condition WB:"):
            report.compare_corpora(DOCS, [doc(9, "Too short.")], conditions=["WB"], seed=0)

    def test_unknown_condition_wrapped(self):
        with pytest.raises(CorplexError, match="condition XX:"):
            report.compare_corpora(DOCS, DOCS, conditions=["XX"], seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(CorplexError):
            report.compare_corpora([], DOCS, seed=0)
        with pytest.raises(CorplexError):
            report.compare_corpora(DOCS, [], seed=0)

    def test_single_document_welch_degenerates(self):
        from collections import Counter

        warnings = Counter()
        out = report.compare_corpora(DOCS[:1], DOCS[:1], conditions=["WB"], seed=0, warnings=warnings)
        assert out["fog_per_document"]["welch"] is None
        assert warnings["welch_degenerate"] == 1

    def test_exclusion_shrinks_stream(self):
        base = report.compare_corpora(DOCS, DOCS, conditions=["WB"], seed=0)
        cut = report.compare_corpora(DOCS, DOCS, conditions=["WB"], seed=0, exclude_patterns=["fox"])
        assert cut["conditions"]["WB"]["a"]["N"] < base["conditions"]["WB"]["a"]["N"]

    def test_each_table_counted_once(self, monkeypatch):
        calls = []
        real = lexstats.ngram_counts

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(lexstats, "ngram_counts", counting)
        report.compare_corpora(DOCS, DOCS + EXTRA, conditions=["WB", "CN"], ngram_max_n=3, seed=0)
        # one A table and one B table per condition and n >= 2; the
        # postprocessed n = 1 tables come from the corpus blocks' type tables
        assert len(calls) == 2 * 2 * 2

    def test_a_counted_once_per_processing(self, monkeypatch):
        calls = []
        real = lexstats.ngram_counts

        def counting(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        monkeypatch.setattr(lexstats, "ngram_counts", counting)
        report.compare_corpora(DOCS, DOCS + EXTRA, conditions=["CB", "WB"], ngram_max_n=3, seed=0)
        # CB and WB process text alike: one A table per n, one B table per
        # code and n; n = 1 is built from the type tables, not counted
        assert sorted(calls) == [2, 2, 2, 3, 3, 3]

    def test_blocks_of_a_shared_processing_are_not_aliased(self):
        out = report.compare_corpora(DOCS, DOCS + EXTRA, conditions=["CB", "WB"], seed=0)
        cb, wb = out["conditions"]["CB"]["a"], out["conditions"]["WB"]["a"]
        assert cb == wb
        cb["corpus_stats"]["chars_per_word"] = -1.0
        cb["ngram_entropy_bits"]["1"] = -1.0
        assert wb["corpus_stats"]["chars_per_word"] != -1.0
        assert wb["ngram_entropy_bits"]["1"] != -1.0

    @pytest.mark.parametrize("codes, digest", [
        (["CB", "CB"], "a0665e61b5d1c23ff8c0eae54ae33400af3c28b7a7f5be3486720e6b7ae3b24c"),
        (["WN", "CB", "CN"], "320a1d006fd9c164279921c2485f785d8e547621351890742bda28852f9dcc20"),
        (["WNP", "CBP", "CB", "WBP", "CN", "WB", "CNP", "WN"],
         "73ecff3332465bdd599b89b6e99735cf80ac43836bca957d90231de960619409"),
    ])
    def test_report_matches_one_code_at_a_time(self, codes, digest):
        out = report.compare_corpora(DOCS, DOCS + EXTRA, conditions=codes, seed=0, ngram_max_n=4)
        # SHA-256 of the report as written when each code was measured alone, A included
        assert hashlib.sha256(report.render_json(out).encode()).hexdigest() == digest
        alone = {
            code: report.compare_corpora(DOCS, DOCS + EXTRA, conditions=[code], seed=0,
                                         ngram_max_n=4)["conditions"][code]
            for code in dict.fromkeys(codes)
        }
        assert list(out["conditions"]) == list(alone)
        assert out["conditions"] == alone

    @pytest.mark.parametrize("codes, named", [
        (["WN", "CB", "CN"], "CB"),  # CN fails first in processing order, CB first in the caller's
        (["WN", "CN", "CB"], "CN"),
        (["CB", "XX", "CN"], "CB"),
        (["WB", "XX", "CN"], "XX"),
    ])
    def test_earliest_failing_code_is_named(self, codes, named):
        # A's long words against B's short ones: B holds more words than A but
        # fewer characters, so every C code runs out of pool and no W code does
        long_words = [doc(1, "Internationalization characteristically overcomplicates. "
                             "Incomprehensibilities multiply.")]
        short_words = [doc(2, "a b c d e f g h i j k l m n o p q r s t u v w x y z. a b c.")]
        with pytest.raises(CorplexError, match=f"^condition {named}: "):
            report.compare_corpora(long_words, short_words, conditions=codes, seed=0)

    def test_error_at_n_names_earliest_code(self):
        # A is one word and a period: stripped of the period, its only
        # postprocessed trigram drops, so WN and CN fail at n = 3 and CB does not
        with pytest.raises(CorplexError, match="^condition WN: cosine_angle needs two non-empty"):
            report.compare_corpora([doc(4, "Hello.")], DOCS, conditions=["CB", "WN", "CN"], seed=0)

    def test_a_left_without_a_sentence_names_earliest_code(self):
        # the patterns drop every line of A and none of B; fog reads the
        # unexcluded text, so the error comes from A's corpus block
        b_docs = [doc(10 + k, "Farmers planted wheat along the southern ridge.") for k in range(12)]
        with pytest.raises(CorplexError,
                           match="^condition WB: corpus_stats needs at least one sentence"):
            report.compare_corpora(DOCS, b_docs, conditions=["WB", "CB", "WN"], seed=0,
                                   exclude_patterns=["fox", "Birds", "committee", "Rain"])

    def test_unknown_boundary_policy_names_earliest_code(self):
        with pytest.raises(CorplexError, match="^condition WB: unknown boundary policy 'bogus'"):
            report.compare_corpora(DOCS, DOCS + EXTRA, conditions=["WB", "CB", "WN"], seed=0,
                                   boundary_policy="bogus")

    def test_at_most_three_tables_alive(self, monkeypatch):
        def alive():
            return sum(isinstance(o, lexstats.CountTable) for o in gc.get_objects())

        real = lexstats.corpus_table
        counts = []

        def spying(*args, **kwargs):
            table = real(*args, **kwargs)
            counts.append(alive() - before)
            return table

        monkeypatch.setattr(lexstats, "corpus_table", spying)
        gc.collect()
        before = alive()
        report.compare_corpora(DOCS, DOCS + EXTRA, seed=0, ngram_max_n=4)
        # one A and one B table per code and n, one A table per processing and n
        assert len(counts) == 8 * 4 + 4 * 4
        # A's table and B's, plus at most one left from the step before; a
        # cache of A's tables across codes would hold ngram_max_n of them
        assert max(counts) <= 3


class TestCorpusBlockFog:
    def test_wordless_block_has_no_fog(self):
        sentences = split_sentences(tokenize("? ! ?"))
        block, _ = report._corpus_block(sentences)
        assert block["fog"] is None

    def test_fog_matches_direct_computation(self):
        sentences = split_sentences(tokenize("The cat sat. Dogs bark loudly."))
        block, _ = report._corpus_block(sentences)
        direct = readability.gunning_fog(sentences)
        assert block["fog"]["F"] == direct.F
        assert block["fog"]["words"] == direct.words


class TestTsvLines:
    def test_header_then_rows(self):
        rows = list(report.tsv_lines([(2, 7.7), (3, 12.345678)], header=("n", "angle_degrees")))
        assert rows == ["n\tangle_degrees", "2\t7.7", "3\t12.3457"]

    def test_without_header(self):
        assert list(report.tsv_lines([("a", 1), ("b", 22)])) == ["a\t1", "b\t22"]
        assert list(report.tsv_lines([])) == []

    def test_floats_to_six_significant_digits(self):
        cells = [0.75, 2.0, 1e-07, 123456789.0, np.float64(1 / 3), -0.0]
        assert list(report.tsv_lines([cells])) == ["0.75\t2\t1e-07\t1.23457e+08\t0.333333\t-0"]

    def test_none_is_na_and_other_cells_are_str(self):
        rows = [("C", None), ("V", 221), ("ok", True), ("tag", "NN")]
        assert list(report.tsv_lines(rows)) == ["C\tNA", "V\t221", "ok\tTrue", "tag\tNN"]
