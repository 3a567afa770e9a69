"""The once-per-distinct-item compare path against the per-token code it replaced.

Each oracle below is the earlier implementation, copied verbatim:
apply_condition, which tokenized and processed every line anew for each
condition; the corpus block with the sentence-list statistics it called;
the boundary rule applied to a window, which the marker-mask rule replaced;
the per-window n-gram loop that applied it to every window;
the section counter that applied it once per distinct window; and the
plain entropy and cosine sums.  The new code must give identical results:
the same sentences, the same report block (floats compared exactly) and
the same count tables, under all eight conditions, for both boundary
policies and with sharded counting.
"""

import math
import os
import random
import re
from collections import Counter
from functools import lru_cache
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from corplex import lexstats, posstats, readability, report, textpipe
from corplex.errors import CorplexError
from corplex.lexstats import BOUNDARY, CountTable
from corplex.porter import porter_stem
from corplex.sampling import (
    ConditionSpec,
    LineCache,
    Sample,
    apply_condition,
    build_balanced_sample_grouped,
    doc_lines,
)
from corplex.textpipe import (
    PUNCT_CHARS,
    PUNCTUATION,
    SUBSENTENCE_SEPARATORS,
    Sentence,
    Token,
    WORD,
    detokenize,
    is_complex_word,
    split_sentences,
    tokenize,
    type_counts,
)

CODES = ConditionSpec.all_codes()

# ---------------------------------------------------------------------------
# oracle: the condition path and corpus block as they were


def old_apply_condition(lines, cond, exclude_patterns=None):
    patterns = list(exclude_patterns or [])
    out = []
    for line in lines:
        tokens = tokenize(line)
        if not tokens:
            continue
        if patterns:
            joined = detokenize(tokens)
            if any(p in joined for p in patterns):
                continue
        for sentence in split_sentences(tokens):
            toks = sentence.tokens
            if cond.punctuation == "strip":
                toks = [
                    t for t in toks
                    if not (t.kind == PUNCTUATION and set(t.surface) <= set(PUNCT_CHARS))
                ]
            if cond.stemming == "porter":
                toks = [
                    Token(porter_stem(t.surface), t.kind) if t.kind == WORD else t
                    for t in toks
                ]
            if toks:
                out.append(Sentence(tuple(toks)))
    return out


def _fold_stream(tokens):
    for tok in tokens:
        surface = tok if isinstance(tok, str) else tok.surface
        yield surface.lower()


def old_type_token_counts(tokens):
    counts = Counter(_fold_stream(tokens))
    return len(counts), sum(counts.values())


def old_unigram_entropy(tokens):
    counts = Counter(_fold_stream(tokens))
    total = sum(counts.values())
    if total < 1:
        raise ValueError("unigram_entropy needs a non-empty stream")
    return -math.fsum((c / total) * math.log2(c / total) for c in counts.values())


def old_table_entropy(table):
    total = table.total
    return -math.fsum((c / total) * math.log2(c / total) for c in table.entries.values())


def old_corpus_stats(sentences):
    sentences = list(sentences)
    if not sentences:
        raise ValueError("corpus_stats needs at least one sentence")
    word_chars = words = tokens = separators = content = 0
    for sentence in sentences:
        for tok in sentence.tokens:
            tokens += 1
            if tok.kind == WORD:
                words += 1
                word_chars += len(tok.surface)
            if tok.kind == PUNCTUATION:
                separators += sum(ch in SUBSENTENCE_SEPARATORS for ch in tok.surface)
            else:
                content += 1
    n_sent = len(sentences)
    subsentences = separators + n_sent
    return lexstats.CorpusStats(
        chars_per_word=word_chars / words if words else 0.0,
        words_per_sentence=tokens / n_sent,
        separators_per_sentence=separators / n_sent,
        content_words_per_subsentence=content / subsentences,
    )


def old_gunning_fog(sentences):
    words = 0
    complex_words = 0
    n_sent = 0
    for sentence in sentences:
        n_sent += 1
        for tok in sentence.tokens:
            if tok.kind == WORD:
                words += 1
                if is_complex_word(tok.surface):
                    complex_words += 1
    return readability.FogReport.from_counts(words, n_sent, complex_words)


def old_corpus_block(sentences):
    stream = [t.surface for s in sentences for t in s.tokens]
    V, N = old_type_token_counts(stream)
    stats = old_corpus_stats(sentences)
    try:
        fog = old_gunning_fog(sentences)._asdict()
    except ValueError:
        fog = None
    return {
        "V": V,
        "N": N,
        "C": lexstats.herdan_c(V, N) if V >= 2 and N >= 2 else None,
        "entropy_bits": old_unigram_entropy(stream),
        "fog": fog,
        "corpus_stats": {
            "chars_per_word": stats.chars_per_word,
            "words_per_sentence": stats.words_per_sentence,
            "separators_per_sentence": stats.separators_per_sentence,
            "content_words_per_subsentence": stats.content_words_per_subsentence,
        },
    }


def old_fold_sentences(sentences):
    return [tuple(t.surface.lower() for t in s.tokens) for s in sentences]


# ---------------------------------------------------------------------------
# oracle: n-gram counting with the boundary rule applied per window


def old_postprocess_window(window: tuple[str, ...]):
    """Apply the boundary rule to one window; None means the window is dropped.

    The marker nearest the window center governs; an exact distance tie drops
    the window, as does a marker sitting dead center of an odd window.
    Otherwise every position on the governing marker's shorter side (fewer
    non-marker symbols; side length as fallback) becomes a marker.  A result
    that is all markers, or has a marker dead center of an odd window, drops.
    """
    n = len(window)
    positions = [i for i, sym in enumerate(window) if sym == BOUNDARY]
    if not positions:
        return window
    if len(positions) == n:
        return None
    # distances doubled to stay in integers: center sits at (n-1)/2
    best = positions[0]
    best_d = abs(2 * best - (n - 1))
    tie = False
    for p in positions[1:]:
        d = abs(2 * p - (n - 1))
        if d < best_d:
            best, best_d, tie = p, d, False
        elif d == best_d:
            tie = True
    if tie:
        return None
    if n % 2 == 1 and best == (n - 1) // 2:
        return None
    left_tokens = sum(1 for i in range(best) if window[i] != BOUNDARY)
    right_tokens = sum(1 for i in range(best + 1, n) if window[i] != BOUNDARY)
    if left_tokens != right_tokens:
        replace_left = left_tokens < right_tokens
    else:
        # side lengths best and n-1-best can never tie here: equality would
        # put the marker dead center, handled above for odd n and impossible
        # for even n
        replace_left = best < n - 1 - best
    out = list(window)
    if replace_left:
        for i in range(best):
            out[i] = BOUNDARY
    else:
        for i in range(best + 1, n):
            out[i] = BOUNDARY
    # marking a side can move a marker onto the center of an odd window
    if all(sym == BOUNDARY for sym in out) or (n % 2 and out[n // 2] == BOUNDARY):
        return None
    return tuple(out)


def old_count_section(counts, sentences, n, postprocess):
    stream = [BOUNDARY]
    for sentence in sentences:
        stream.extend(sentence.surfaces() if isinstance(sentence, Sentence) else tuple(sentence))
        stream.append(BOUNDARY)
    if len(stream) == 1:
        return
    for i in range(len(stream) - n + 1):
        window = tuple(stream[i : i + n])
        if postprocess:
            if BOUNDARY in window:
                window = old_postprocess_window(window)
                if window is None:
                    continue
        counts[window] += 1


def old_count_corpus_ngrams(sections, n, postprocess):
    counts = Counter()
    for sentences in sections:
        old_count_section(counts, sentences, n, postprocess)
    return dict(counts)


# the section counter that applied the rule once per distinct marked window,
# through a per-window cache of the window rule

_cached_rule = lru_cache(maxsize=262144)(old_postprocess_window)


def old_count_sections(sections, n, postprocess):
    counts = Counter()
    for sentences in sections:
        stream = [BOUNDARY]
        for sentence in sentences:
            stream.extend(sentence.surfaces() if isinstance(sentence, Sentence) else sentence)
            stream.append(BOUNDARY)
        if len(stream) > 1:
            counts.update(zip(*[stream[i:] for i in range(n)]))
    if postprocess:
        changed = [(key, window) for key in counts
                   if BOUNDARY in key and (window := _cached_rule(key)) != key]
        moved = [(window, counts.pop(key)) for key, window in changed]
        get = counts.get
        for window, count in moved:
            if window is not None:
                counts[window] = get(window, 0) + count
    return counts


def old_count_corpus_ngrams_by_key(sections, n, postprocess, processes=1):
    sections = list(sections)
    if processes <= 1 or len(sections) < 2:
        counts = old_count_sections(sections, n, postprocess)
    else:
        shards = [[] for _ in range(min(processes, len(sections)))]
        for i, sentences in enumerate(sections):
            shards[i % len(shards)].append(sentences)
        counts = Counter()
        for shard in shards:
            counts.update(dict(old_count_sections(shard, n, postprocess)))
    return dict(counts)


def old_cosine_angle(a, b):
    small, large = (a.entries, b.entries) if len(a.entries) <= len(b.entries) else (b.entries, a.entries)
    dot = sum(count * large.get(key, 0) for key, count in small.items())
    norm_sq_a = sum(c * c for c in a.entries.values())
    norm_sq_b = sum(c * c for c in b.entries.values())
    similarity = dot / math.sqrt(norm_sq_a * norm_sq_b)
    similarity = max(-1.0, min(1.0, similarity))
    return similarity, math.degrees(math.acos(similarity))


# ---------------------------------------------------------------------------
# inputs

# every character str.split treats as whitespace, line breaks included
WHITESPACE = (" ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\xa0", "\u1680", "\u2000", "\u2005", "\u200a", "\u2028",
              "\u2029", "\u202f", "\u205f", "\u3000")

FRAGMENTS = (
    # words, case variants, stemmable suffixes
    "The", "the", "THE", "cat", "Cats", "running", "runners", "relational",
    "generalization", "happiness", "caresses", "ponies", "agreed", "hopping",
    "controlling", "electrical", "adjustable", "co-op", "naïve", "Zürich",
    # clitics
    "don't", "it's", "They're", "we've", "you'll", "I'd", "I'm", "'s", "n't", "o'clock",
    # abbreviations and initials before a period
    "Dr", "Mr.", "mrs", "U.S.", "e.g.", "etc", "J", "J.", "K.", "vs",
    # numbers and digits
    "3.5", "42", "1999", "7th", "x2",
    # punctuation runs and marks outside the nine-character set
    ".", ",", "?", "!", ";", ":", "(", ")", '"', "...", "?!", "),", '."', "--", "-", "'",
    "§", "&", "%",
)

EXCLUDE_PATTERNS = ("cat", "Dr .", "the", "n't", "3.5", ", ", "§", "The cat", "")

line_text = st.lists(
    st.tuples(st.sampled_from(FRAGMENTS), st.sampled_from(WHITESPACE + ("",))),
    max_size=14,
).map(lambda parts: "".join(f + sep for f, sep in parts))
line_lists = st.lists(line_text, max_size=8)
pattern_lists = st.lists(st.sampled_from(EXCLUDE_PATTERNS), max_size=2)


def _same_block(lines, cond, patterns, cache):
    new_sentences = cache.apply(lines, cond)
    old_sentences = old_apply_condition(lines, cond, patterns)
    assert new_sentences == old_sentences
    assert lexstats.fold_sentences(new_sentences) == old_fold_sentences(old_sentences)
    try:
        expected = old_corpus_block(old_sentences)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            report._corpus_block(new_sentences)
    else:
        assert report._corpus_block(new_sentences)[0] == expected


class TestConditionPath:
    @pytest.mark.parametrize("code", CODES)
    @settings(max_examples=150, deadline=None)
    @given(lines=line_lists, patterns=pattern_lists)
    def test_apply_condition_matches_old(self, code, lines, patterns):
        cond = ConditionSpec.parse(code)
        assert apply_condition(lines, cond, patterns) == old_apply_condition(lines, cond, patterns)

    @pytest.mark.parametrize("code", CODES)
    @settings(max_examples=150, deadline=None)
    @given(lines=line_lists, patterns=pattern_lists)
    def test_corpus_block_matches_old(self, code, lines, patterns):
        _same_block(lines, ConditionSpec.parse(code), patterns, LineCache(patterns))

    @settings(max_examples=200, deadline=None)
    @given(pools=st.lists(line_lists, min_size=1, max_size=6),
           codes=st.lists(st.sampled_from(CODES), min_size=1, max_size=12),
           patterns=pattern_lists)
    def test_one_cache_serves_every_condition(self, pools, codes, patterns):
        # compare's use: one cache across conditions and overlapping samples
        cache = LineCache(patterns)
        for i, code in enumerate(codes):
            _same_block(pools[i % len(pools)], ConditionSpec.parse(code), patterns, cache)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(line_text, max_size=8).map("\n".join))
    def test_body_tokens_are_line_tokens_joined(self, body):
        expected = tokenize(body)
        assert [t for line in doc_lines(body) for t in tokenize(line)] == expected
        assert LineCache().body_tokens(body) == expected

    @settings(max_examples=100, deadline=None)
    @given(bodies=st.lists(st.lists(line_text, max_size=6).map("\n".join), min_size=1, max_size=5))
    def test_fog_through_the_cache(self, bodies):
        cache = LineCache()
        try:
            expected = readability.corpus_fog(bodies)
        except ValueError as exc:
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                readability.corpus_fog(bodies, tokenizer=cache.body_tokens)
        else:
            assert readability.corpus_fog(bodies, tokenizer=cache.body_tokens) == expected


# ---------------------------------------------------------------------------
# n-gram counting

SYMBOLS = ("a", "b", "c", BOUNDARY)
sections = st.lists(
    st.lists(st.lists(st.sampled_from(SYMBOLS), max_size=5).map(tuple), max_size=5),
    max_size=5,
)


class TestNgramCounting:
    @pytest.mark.parametrize("policy", ["raw", "postprocessed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @settings(max_examples=200, deadline=None)
    @given(secs=sections)
    def test_serial_matches_window_loop(self, policy, n, secs):
        table = lexstats.count_corpus_ngrams(secs, n, policy)
        assert table.entries == old_count_corpus_ngrams(secs, n, policy == "postprocessed")

    @pytest.mark.parametrize("policy", ["raw", "postprocessed"])
    @settings(max_examples=15, deadline=None)
    @given(secs=sections, n=st.integers(1, 5))
    def test_sharded_matches_window_loop(self, policy, n, secs):
        table = lexstats.count_corpus_ngrams(secs, n, policy, processes=2)
        assert table.entries == old_count_corpus_ngrams(secs, n, policy == "postprocessed")

    def test_rule_output_that_is_also_a_raw_key(self):
        # at n = 6 the rule maps "a a § a § §" to "a a § § § §", which is
        # itself a raw window here and one the rule drops: every marked key
        # must leave the table before any rule output is added back
        assert lexstats._mask_action(6, 0b110100) == (0, 4)
        assert lexstats._mask_action(6, 0b111100) is None
        secs = [[("a", "a"), ("a",), (), ("a", "a"), (), (), ()]]
        table = lexstats.count_corpus_ngrams(secs, 6, "postprocessed")
        assert table.entries == old_count_corpus_ngrams(secs, 6, True)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_all_marker_and_empty_sections(self, n):
        secs = [[], [()], [(), ()], [(BOUNDARY,) * 4], [(BOUNDARY,), ("a",), ()], []]
        for policy in ("raw", "postprocessed"):
            table = lexstats.count_corpus_ngrams(secs, n, policy)
            assert table.entries == old_count_corpus_ngrams(secs, n, policy == "postprocessed")

    @settings(max_examples=300, deadline=None)
    @given(a=sections, b=sections, n=st.integers(1, 3))
    def test_entropy_and_cosine_match_plain_sums(self, a, b, n):
        table_a = lexstats.count_corpus_ngrams(a, n, "raw")
        table_b = lexstats.count_corpus_ngrams(b, n, "raw")
        if table_a.total and table_b.total:
            assert lexstats.table_entropy(table_a) == old_table_entropy(table_a)
            assert posstats.cosine_angle(table_a, table_b) == old_cosine_angle(table_a, table_b)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(1, 50), min_size=1, max_size=60))
    def test_entropy_of_repeated_counts(self, counts):
        table = CountTable(1, {(str(i),): c for i, c in enumerate(counts)})
        assert lexstats.table_entropy(table) == old_table_entropy(table)


def assert_mask_matches_the_window_rule(n, mask):
    window = tuple(BOUNDARY if mask >> i & 1 else f"w{i}" for i in range(n))
    action = lexstats._mask_action(n, mask)
    if action is None:
        got = None
    else:
        left, right = action
        got = (BOUNDARY,) * left + window[left:n - right] + (BOUNDARY,) * right
    assert got == old_postprocess_window(window), (n, bin(mask))
    assert (action is lexstats._KEEP) == (got == window), (n, bin(mask))


class TestMaskTable:
    @pytest.mark.parametrize("n", range(1, 16))
    def test_every_mask_matches_the_window_rule(self, n):
        for mask in range(2 ** n):
            assert_mask_matches_the_window_rule(n, mask)

    @pytest.mark.parametrize("n", range(16, 41))
    def test_sampled_masks_match_the_window_rule(self, n):
        # past n = 15 the masks are too many to walk: sample them, mostly
        # with the few markers real text gives, and uniformly too
        rng = random.Random(n)
        for _ in range(1000):
            mask = 0
            for _ in range(rng.randint(1, 4)):
                mask |= 1 << rng.randrange(n)
            assert_mask_matches_the_window_rule(n, mask)
            assert_mask_matches_the_window_rule(n, rng.getrandbits(n))

    @pytest.mark.parametrize("policy", ["raw", "postprocessed"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    @settings(max_examples=200, deadline=None)
    @given(secs=sections)
    def test_serial_matches_distinct_key_counter(self, policy, n, secs):
        table = lexstats.count_corpus_ngrams(secs, n, policy)
        # insertion order included: keys the rule keeps stay where they were
        expected = old_count_corpus_ngrams_by_key(secs, n, policy == "postprocessed")
        assert list(table.entries.items()) == list(expected.items())

    @pytest.mark.parametrize("policy", ["raw", "postprocessed"])
    @settings(max_examples=15, deadline=None)
    @given(secs=sections, n=st.integers(1, 6))
    def test_sharded_matches_distinct_key_counter(self, policy, n, secs):
        table = lexstats.count_corpus_ngrams(secs, n, policy, processes=2)
        expected = old_count_corpus_ngrams_by_key(secs, n, policy == "postprocessed", processes=2)
        assert list(table.entries.items()) == list(expected.items())

    @pytest.mark.parametrize("policy", ["raw", "postprocessed"])
    @settings(max_examples=15, deadline=None)
    @given(secs=sections, n=st.integers(1, 6))
    def test_sharded_without_fork_matches_distinct_key_counter(self, policy, n, secs):
        # without os.fork every shard is counted here, in order
        with pytest.MonkeyPatch.context() as mp:
            mp.delattr(os, "fork")
            table = lexstats.count_corpus_ngrams(secs, n, policy, processes=2)
        expected = old_count_corpus_ngrams_by_key(secs, n, policy == "postprocessed", processes=2)
        assert list(table.entries.items()) == list(expected.items())

    @pytest.mark.parametrize("processes", [1, 2])
    def test_rule_output_collision_matches_distinct_key_counter(self, processes):
        secs = [[("a", "a"), ("a",), (), ("a", "a"), (), (), ()], [("a",), ()]]
        table = lexstats.count_corpus_ngrams(secs, 6, "postprocessed", processes=processes)
        assert table.entries == old_count_corpus_ngrams_by_key(secs, 6, True, processes)

    @pytest.mark.parametrize("processes", [1, 2])
    @pytest.mark.parametrize("broken", [
        {0b001: (2, 0)},  # marks the first two positions of "§ x y"
        {0b010: lexstats._KEEP},  # keeps "x § y" as it is
    ])
    def test_center_check_sees_rule_output(self, monkeypatch, processes, broken):
        # a broken table leaves a marker dead center, which the check must catch
        rules = {mask: lexstats._mask_action(3, mask) for mask in range(1, 8)}
        rules.update(broken)
        monkeypatch.setattr(lexstats, "_mask_rules", lambda n: rules)
        both = [[("a", "b"), ("c",)], [("d", "e"), ("f",)]]
        # "§ a §" holds neither broken mask, so at 2 processes the error
        # comes from the forked child's shard alone
        second_only = [[("a",)], [("d", "e"), ("f",)]]
        for secs in (both, second_only):
            with pytest.raises(AssertionError, match="boundary at center"):
                lexstats.count_corpus_ngrams(secs, 3, "postprocessed", processes=processes)
        lexstats.count_corpus_ngrams(second_only[:1], 3, "postprocessed")  # the first is sound

    def test_center_check_on_marked_keys(self):
        lexstats._check_center(3, [(BOUNDARY, "a", "b"), ("a", "b", BOUNDARY)])
        lexstats._check_center(4, [("a", BOUNDARY, BOUNDARY, "b")])
        with pytest.raises(AssertionError):
            lexstats._check_center(3, [("a", "b", BOUNDARY), ("a", BOUNDARY, "b")])


# ---------------------------------------------------------------------------
# the per-type records against the per-type code they replaced: the type
# table folded, tallied and fog-scored by the surface and kind of each type,
# the n = 1 tables counted over windows, and a line cache that kept each
# line's tokens


def parent_folded_counts(types):
    folded = {}
    get = folded.get
    for tok, count in types.items():
        surface = tok.surface.lower()
        folded[surface] = get(surface, 0) + count
    return folded


def parent_corpus_stats_from_types(types, n_sent):
    if n_sent < 1:
        raise ValueError("corpus_stats needs at least one sentence")
    word_chars = words = tokens = separators = content = 0
    for tok, count in types.items():
        tokens += count
        if tok.kind == WORD:
            words += count
            word_chars += len(tok.surface) * count
        if tok.kind == PUNCTUATION:
            separators += sum(ch in SUBSENTENCE_SEPARATORS for ch in tok.surface) * count
        else:
            content += count
    subsentences = separators + n_sent
    return lexstats.CorpusStats(
        chars_per_word=word_chars / words if words else 0.0,
        words_per_sentence=tokens / n_sent,
        separators_per_sentence=separators / n_sent,
        content_words_per_subsentence=content / subsentences,
    )


def parent_corpus_measures(types, n_sent):
    folded = parent_folded_counts(types)
    V, N = len(folded), sum(folded.values())
    return {
        "V": V,
        "N": N,
        "C": lexstats.herdan_c(V, N) if V >= 2 else None,
        "entropy_bits": lexstats.entropy_bits(folded.values(), N),
        "corpus_stats": parent_corpus_stats_from_types(types, n_sent)._asdict(),
    }


def parent_fog_from_types(types, n_sent):
    words = 0
    complex_words = 0
    for tok, count in types.items():
        if tok.kind == WORD:
            words += count
            if is_complex_word(tok.surface):
                complex_words += count
    return readability.FogReport.from_counts(words, n_sent, complex_words)


def parent_corpus_block(sentences):
    types = type_counts(sentences)
    block = parent_corpus_measures(types, len(sentences))
    try:
        block["fog"] = parent_fog_from_types(types, len(sentences))._asdict()
    except ValueError:
        block["fog"] = None
    return block


def parent_fold_sentences(sentences):
    groups = [s.tokens for s in sentences]
    lower = {tok: tok.surface.lower() for tok in set(chain.from_iterable(groups))}
    return [tuple(map(lower.__getitem__, tokens)) for tokens in groups]


# case merges, literal markers, and surfaces whose lowercase form has another
# length (the dotted capital I lowercases to two characters) or merges with
# another surface's (the Kelvin sign lowercases to k)
EDGE_FRAGMENTS = FRAGMENTS + (
    "İ", "İstanbul", "ISTANBUL", "istanbul", "i̇", "i̇stanbul", "K", "k", "Kelvin",
    "ß", "ẞ", "ǅ", "ǆ", "Ω", "§§", "§.", "(§)", "§a", "A§",
)
edge_line = st.lists(
    st.tuples(st.sampled_from(EDGE_FRAGMENTS), st.sampled_from((" ", " ", "\t", ""))),
    max_size=14,
).map(lambda parts: "".join(f + sep for f, sep in parts))
edge_lines = st.lists(edge_line, max_size=8)


def _same_or_same_error(new, old):
    """new() == old(), or both raise the same ValueError."""
    try:
        expected = old()
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            new()
    else:
        assert new() == expected


class TestTypeRecords:
    @pytest.mark.parametrize("code", CODES)
    @settings(max_examples=150, deadline=None)
    @given(lines=edge_lines, patterns=pattern_lists)
    def test_block_matches_parent(self, code, lines, patterns):
        sentences = LineCache(patterns).apply(lines, ConditionSpec.parse(code))
        types = type_counts(sentences)
        n_sent = len(sentences)
        _same_or_same_error(lambda: report._corpus_block(sentences)[0],
                            lambda: parent_corpus_block(sentences))
        _same_or_same_error(lambda: lexstats.corpus_measures(lexstats.tally_types(types), n_sent),
                            lambda: parent_corpus_measures(types, n_sent))
        _same_or_same_error(lambda: readability.fog_from_types(types, n_sent),
                            lambda: parent_fog_from_types(types, n_sent))
        assert lexstats.tally_types(types).folded == parent_folded_counts(types)
        assert lexstats.fold_sentences(sentences) == parent_fold_sentences(sentences)

    @pytest.mark.parametrize("code", CODES)
    @settings(max_examples=150, deadline=None)
    @given(lines=edge_lines)
    def test_unigram_table_from_types(self, code, lines):
        sentences = apply_condition(lines, ConditionSpec.parse(code))
        folded = lexstats.tally_types(type_counts(sentences)).folded
        symbols = old_fold_sentences(sentences)
        table = lexstats.corpus_table(symbols, folded, 1, "postprocessed")
        assert table.entries == old_count_corpus_ngrams([symbols], 1, True)
        counted = lexstats.ngram_counts(symbols, 1, "postprocessed")
        assert table == counted and table.total == counted.total
        # raw keeps the marker key, literal surfaces and boundaries merged
        raw = old_count_corpus_ngrams([symbols], 1, False)
        assert lexstats.ngram_counts(symbols, 1, "raw").entries == raw
        if symbols:
            assert raw.pop((BOUNDARY,)) == folded.pop(BOUNDARY, 0) + len(symbols) + 1
            assert raw == {(w,): c for w, c in folded.items()}

    @settings(max_examples=300, deadline=None)
    @given(lines=edge_lines, patterns=pattern_lists)
    def test_line_tokens_from_sentences(self, lines, patterns):
        cache = LineCache(patterns)
        for line in lines + lines:  # the second pass reads the cache
            kept = list(cache.sentences(line))
            assert kept == old_apply_condition([line], ConditionSpec.parse("CB"), patterns)
        body = "\n".join(lines)
        assert cache.body_tokens(body) == tokenize(body)
        assert LineCache(patterns).body_tokens(body) == tokenize(body)


def _ngram_oracle(docs_a, docs_b, code, max_n, seed, policy):
    """One code's n-gram fields as the window loop counts them."""
    cond = ConditionSpec.parse(code)
    sample_a = Sample.from_lines([l for d in docs_a for l in doc_lines(d)], seed)
    sample_b = build_balanced_sample_grouped(
        [doc_lines(d) for d in docs_b], sample_a.size(cond.unit), cond.unit,
        report._condition_seed(seed, code))
    symbols_a = old_fold_sentences(old_apply_condition(sample_a.lines, cond))
    symbols_b = old_fold_sentences(old_apply_condition(sample_b.lines, cond))
    fields = {}
    for n in range(1, max_n + 1):
        table_a = CountTable(n, old_count_corpus_ngrams([symbols_a], n, policy == "postprocessed"))
        table_b = CountTable(n, old_count_corpus_ngrams([symbols_b], n, policy == "postprocessed"))
        fields[str(n)] = (
            lexstats.table_entropy(table_a) if table_a.total else 0.0,
            lexstats.table_entropy(table_b) if table_b.total else 0.0,
            posstats.cosine_angle(table_a, table_b),
        )
    return fields


class Doc:
    def __init__(self, i, body):
        self.id, self.title, self.body = str(i), f"T{i}", body


edge_docs = st.lists(edge_lines.map(lambda ls: "\n".join(ls + ["Words stay here."])),
                     min_size=1, max_size=4)


class TestCompareNgramFields:
    @pytest.mark.parametrize("policy", ["raw", "postprocessed"])
    @settings(max_examples=40, deadline=None)
    @given(bodies_a=edge_docs, bodies_b=edge_docs,
           codes=st.lists(st.sampled_from(CODES), min_size=1, max_size=4, unique=True),
           max_n=st.integers(1, 3), seed=st.integers(0, 2 ** 64 - 1))
    def test_tables_match_window_loop(self, policy, bodies_a, bodies_b, codes, max_n, seed):
        docs_a = [Doc(i, b) for i, b in enumerate(bodies_a)]
        docs_b = docs_a + [Doc(10 + i, b) for i, b in enumerate(bodies_b)]
        try:
            expected = {code: _ngram_oracle(docs_a, docs_b, code, max_n, seed, policy)
                        for code in codes}
        except ValueError:  # an empty table: compare names the failing code
            with pytest.raises(CorplexError, match="^condition "):
                report.compare_corpora(docs_a, docs_b, codes, max_n, seed,
                                       boundary_policy=policy)
            return
        out = report.compare_corpora(docs_a, docs_b, codes, max_n, seed, boundary_policy=policy)
        for code in codes:
            block = out["conditions"][code]
            got = {key: (block["a"]["ngram_entropy_bits"][key],
                         block["b"]["ngram_entropy_bits"][key],
                         (cos["similarity"], cos["angle_degrees"]))
                   for key, cos in block["cross"]["cosine_angles"].items()}
            assert got == expected[code]


class _TableRuns:
    """Every table-backed output of a small corpus, to compare across table states."""

    DOCS = [Doc(i, body) for i, body in enumerate([
        "Running runners ran. The RUNNERS were running quickly!\nİstanbul and ISTANBUL, § 12.",
        "Communication, organization and administration are complicated words.\n( ) : ;",
        "Dr. Smith met Mr. Jones at 3.5 p.m. It's what they're doing, isn't it?",
        "The quiet evening was interesting. Every family had a business idea.",
    ])]

    def run_all(self):
        out = [report.render_json(report.compare_corpora(
            self.DOCS[:2], self.DOCS, ngram_max_n=2, seed=seed, boundary_policy=policy))
            for seed in (0, 1) for policy in ("raw", "postprocessed")]
        sentences = apply_condition(doc_lines(self.DOCS[0]), ConditionSpec.parse("WBP"))
        out.append(lexstats.corpus_measures(lexstats.tally_types(type_counts(sentences)),
                                            len(sentences)))
        out.append(lexstats.fold_sentences(sentences))
        out.append(readability.corpus_fog(self.DOCS))
        return out

    @staticmethod
    def tables():
        return (textpipe._TOKENS, textpipe._FACTS, textpipe._STEMS)


class TestClearedTables(_TableRuns):
    """A table cleared when full computes its entries again: outputs do not move."""

    @pytest.mark.parametrize("size", [1, 2, 7])
    def test_small_bound(self, monkeypatch, size):
        expected = self.run_all()

        def missing_clearing_when_full(table, key):
            if len(table) >= size:
                table.clear()
            value = table[key] = table.make(key)
            return value

        monkeypatch.setattr(textpipe._Table, "__missing__", missing_clearing_when_full)
        for table in self.tables():
            table.clear()
        assert self.run_all() == expected
        for table in self.tables():
            assert len(table) <= size


class TestTableContents(_TableRuns):
    """Outputs do not depend on what the process-wide per-type tables hold."""

    # other text sharing some types with DOCS, some in other cases
    OTHER = [Doc(i, body) for i, body in enumerate([
        "RUNNING runs; the runner's idea: interesting families (ISTANBUL) ran.",
        "Organizations communicate. Dr. Who? § 7, 3.5 and it's QUIET evenings!",
    ])]

    def empty_tables(self):
        for table in self.tables():
            table.clear()

    def test_filled_by_other_text(self):
        self.empty_tables()
        expected = self.run_all()
        self.empty_tables()
        for seed in (0, 1):
            report.compare_corpora(self.OTHER, self.OTHER, ngram_max_n=2, seed=seed)
        readability.corpus_fog(self.OTHER)
        filled = len(textpipe._FACTS)
        assert self.run_all() == expected
        assert len(textpipe._FACTS) > filled  # DOCS met types OTHER did not have
        assert self.run_all() == expected  # every type already in the tables
