import pytest
from hypothesis import given, strategies as st

from corplex.errors import InsufficientPoolError
from corplex.sampling import (
    BALANCE_TOLERANCE,
    CHARACTER,
    ConditionSpec,
    Sample,
    SplitMix64,
    WORD_UNIT,
    apply_condition,
    balanced,
    build_balanced_sample,
    build_balanced_sample_grouped,
    sample_manifest,
    size_ratio,
)
from corplex.textpipe import PUNCTUATION, WORD


class TestSplitMix:
    def test_reference_stream(self):
        # splitmix64 from seed 0: published first outputs
        gen = SplitMix64(0)
        assert gen.next_u64() == 0xE220A8397B1DCDAF
        assert gen.next_u64() == 0x6E789E6AA1B965F4
        assert gen.next_u64() == 0x06C45D188009454F

    def test_determinism(self):
        a = SplitMix64(99)
        b = SplitMix64(99)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_below_range(self):
        gen = SplitMix64(3)
        draws = [gen.below(7) for _ in range(200)]
        assert set(draws) <= set(range(7))
        assert len(set(draws)) == 7

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(1).below(0)

    def test_shuffle_is_permutation(self):
        items = list(range(50))
        gen = SplitMix64(5)
        shuffled = items[:]
        gen.shuffle(shuffled)
        assert sorted(shuffled) == items
        assert shuffled != items  # 1/50! chance of false alarm


class TestConditionSpec:
    def test_all_codes_order(self):
        assert ConditionSpec.all_codes() == (
            "CB", "CN", "CBP", "CNP", "WB", "WN", "WBP", "WNP",
        )

    def test_roundtrip(self):
        for code in ConditionSpec.all_codes():
            assert ConditionSpec.parse(code).code == code

    def test_parse_fields(self):
        spec = ConditionSpec.parse("CNP")
        assert spec.unit == CHARACTER
        assert spec.punctuation == "strip"
        assert spec.stemming == "porter"

    def test_parse_rejects_unknown(self):
        with pytest.raises(ValueError):
            ConditionSpec.parse("XX")

    def test_bad_fields_rejected(self):
        with pytest.raises(ValueError):
            ConditionSpec(unit="line", punctuation="keep", stemming="none")


class TestBalancedSample:
    def test_first_crossing_stop(self):
        pool = ["one two three four five six seven"] * 15  # 7 words per line
        sample = build_balanced_sample(pool, 100, WORD_UNIT, seed=1)
        # 14 lines = 98 < 100, so the draw stops exactly at 15 lines
        assert len(sample.lines) == 15
        assert sample.size_words == 105

    def test_overshoot_bounded_by_one_line(self):
        pool = [f"word {' x' * (i % 5)}".strip() for i in range(200)]
        sample = build_balanced_sample(pool, 50, WORD_UNIT, seed=3)
        last = sample.lines[-1]
        assert sample.size_words - len(last.split()) < 50 <= sample.size_words

    def test_insufficient_pool(self):
        with pytest.raises(InsufficientPoolError) as err:
            build_balanced_sample(["a b", "c"], 100, WORD_UNIT, seed=0)
        assert err.value.achieved == 3

    def test_character_unit(self):
        sample = build_balanced_sample(["abcde", "fghij"], 6, CHARACTER, seed=0)
        assert sample.size_chars == 10

    def test_deterministic(self):
        pool = [f"line number {i} with text" for i in range(100)]
        s1 = build_balanced_sample(pool, 120, WORD_UNIT, seed=42)
        s2 = build_balanced_sample(pool, 120, WORD_UNIT, seed=42)
        assert s1.lines == s2.lines

    def test_seed_changes_selection(self):
        pool = [f"line number {i} with text" for i in range(100)]
        s1 = build_balanced_sample(pool, 120, WORD_UNIT, seed=1)
        s2 = build_balanced_sample(pool, 120, WORD_UNIT, seed=2)
        assert s1.lines != s2.lines

    def test_grouped_line_granular_stop(self):
        groups = [["a b c", "d e f"], ["g h i", "j k l"]]
        sample = build_balanced_sample_grouped(groups, 7, WORD_UNIT, seed=0)
        # crosses inside a group: 3 lines of 3 words, not 4
        assert len(sample.lines) == 3
        assert sample.size_words == 9

    def test_grouped_insufficient(self):
        with pytest.raises(InsufficientPoolError):
            build_balanced_sample_grouped([["a"]], 10, WORD_UNIT, seed=0)

    @given(st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**32))
    def test_achieved_always_at_or_past_target(self, target, seed):
        pool = [f"tok{i} tok tok" for i in range(200)]  # 600 words
        if target <= 600:
            sample = build_balanced_sample(pool, target, WORD_UNIT, seed=seed)
            assert sample.size_words >= target


def old_line_draw(pool, target_size, unit, seed):
    """The line-level draw as it was before it became the grouped one."""
    order = list(range(len(pool)))
    SplitMix64(seed).shuffle(order)
    picked, achieved = [], 0
    for idx in order:
        picked.append(pool[idx])
        achieved += len(pool[idx]) if unit == CHARACTER else len(pool[idx].split())
        if achieved >= target_size:
            return Sample.from_lines(picked, seed)
    raise InsufficientPoolError(target_size, achieved, unit)


@given(
    st.lists(st.text(alphabet=" ab\t", max_size=12), max_size=30),
    st.integers(min_value=1, max_value=80),
    st.sampled_from([CHARACTER, WORD_UNIT]),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_line_draw_is_the_old_one(pool, target, unit, seed):
    try:
        expected = old_line_draw(pool, target, unit, seed)
    except InsufficientPoolError as exc:
        with pytest.raises(InsufficientPoolError) as err:
            build_balanced_sample(pool, target, unit, seed)
        assert str(err.value) == str(exc)
        assert (err.value.target, err.value.achieved, err.value.unit) == (exc.target, exc.achieved, exc.unit)
    else:
        assert build_balanced_sample(pool, target, unit, seed) == expected


class TestRatios:
    def test_size_ratio_and_balance(self):
        a = Sample.from_lines(["x " * 499 + "x"], seed=0)  # 500 words
        b = Sample.from_lines(["y " * 499 + "y"], seed=0)
        assert size_ratio(a, b, WORD_UNIT) == 1.0
        assert balanced(a, b, WORD_UNIT)

    def test_tolerance_edge(self):
        base = Sample.from_lines(["y" * 10000], seed=0)
        at_edge = Sample.from_lines(["x" * 10003], seed=0)  # ratio deviation 3e-4
        past_edge = Sample.from_lines(["x" * 10004], seed=0)
        assert balanced(at_edge, base, CHARACTER)
        assert not balanced(past_edge, base, CHARACTER)
        assert BALANCE_TOLERANCE == 3e-4

    def test_manifest(self):
        s = Sample.from_lines(["a b"], seed=9)
        m = sample_manifest(s, WORD_UNIT, 2, source="pool.jsonl")
        assert m == {"seed": 9, "unit": "word", "target": 2, "achieved": 2, "source": "pool.jsonl"}


def sample_of(text):
    return text.split("\n")


class TestApplyCondition:
    def test_wb_keeps_punctuation(self):
        sents = apply_condition(sample_of("Hello, world. Go now!"), ConditionSpec.parse("WB"))
        surfaces = [t.surface for s in sents for t in s.tokens]
        assert "," in surfaces and "." in surfaces

    def test_wn_strips_punctuation(self):
        sents = apply_condition(sample_of("Hello, world. Go now!"), ConditionSpec.parse("WN"))
        kinds = {t.kind for s in sents for t in s.tokens}
        assert PUNCTUATION not in kinds
        assert len(sents) == 2  # boundaries found before stripping

    def test_wnp_stems_words(self):
        sents = apply_condition(sample_of("The runners were running."), ConditionSpec.parse("WNP"))
        surfaces = [t.surface for s in sents for t in s.tokens]
        assert "runner" in surfaces and "run" in surfaces

    def test_stemming_skips_numbers(self):
        sents = apply_condition(sample_of("It is 3.5 miles."), ConditionSpec.parse("WBP"))
        surfaces = [t.surface for s in sents for t in s.tokens]
        assert "3.5" in surfaces

    def test_exclusion_drops_whole_line(self):
        sample = sample_of("keep this line\nis a commune of France\nkeep this too")
        sents = apply_condition(sample, ConditionSpec.parse("WB"), ["is a commune of"])
        text = " ".join(t.surface for s in sents for t in s.tokens)
        assert "commune" not in text
        assert text.count("keep") == 2

    def test_empty_sentences_dropped(self):
        sents = apply_condition(sample_of("...!"), ConditionSpec.parse("WN"))
        assert sents == []

    def test_condition_independent_tokens(self):
        # B vs N differ only in punctuation tokens
        b = apply_condition(sample_of("One, two."), ConditionSpec.parse("WB"))
        n = apply_condition(sample_of("One, two."), ConditionSpec.parse("WN"))
        b_words = [t for s in b for t in s.tokens if t.kind == WORD]
        n_words = [t for s in n for t in s.tokens if t.kind == WORD]
        assert b_words == n_words
