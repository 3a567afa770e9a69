"""Vocabulary growth, Zipf ranking, entropies, and n-gram tables.

Sentence-boundary handling: count_corpus_ngrams counts a list of sections
(documents); ngram_counts is its one-section case.  A single boundary marker
separates consecutive sentences, plus one marker at the section start and
end.  Markers never span sections, so counting a corpus section-by-section
and merging the tables is exactly the single-pass result.  Windows are
counted raw, at C speed; the postprocessed policy then applies the boundary
rule to each distinct window holding a marker.  The rule reads only where
the markers sit, so it is stated on a marker bitmask (_mask_action) and
looked up in a table per n, filled the first time a mask turns up.

Type-level statistics (type_token_counts, zipf_table, unigram_entropy,
heaps_*) fold surfaces to lowercase.  n-gram counting does not fold: its
symbols may be POS tags, where case is meaningful.  Callers fold word
streams first with fold_sentences when they want folded n-grams.

The entropies and corpus_stats share one counts-based core: tally_types
reads a type -> count table once, one textpipe.TypeFacts record per type,
and gives the table folded by lowercase together with every tally the
corpus ratios and fog need, so a caller holding such a table pays per type
rather than per token.  corpus_measures turns a tally into V, N, C, entropy
and the ratios for the `stats` command and each `compare` corpus block, and
corpus_table builds a corpus's n-gram table: the postprocessed n = 1 table
from the tally's folded counts, every other table by counting windows.  The
token-stream functions (type_token_counts, unigram_entropy, corpus_stats)
stay as public one-shot forms.
"""

from __future__ import annotations

import functools
import math
from collections import Counter, _count_elements
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

from .textpipe import Sentence, Token, type_counts, type_facts

BOUNDARY = "§"

_POLICIES = {"raw": "raw", "post": "postprocessed", "postprocessed": "postprocessed"}


class CountTable:
    """n-gram keys (tuples of symbols) mapped to positive counts."""

    __slots__ = ("n", "entries", "total")

    def __init__(self, n: int, entries: dict[tuple[str, ...], int] | None = None):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        self.n = n
        self.entries: dict[tuple[str, ...], int] = dict(entries or {})
        self.total = sum(self.entries.values())

    @classmethod
    def _owning(cls, n: int, entries: dict[tuple[str, ...], int]) -> "CountTable":
        """A table over entries itself, not a copy; the caller gives them up."""
        table = cls(n)
        table.entries = entries
        table.total = sum(entries.values())
        return table

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CountTable):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    def __repr__(self) -> str:
        return f"CountTable(n={self.n}, distinct={len(self.entries)}, total={self.total})"

    def merge(self, other: "CountTable") -> "CountTable":
        """Key-wise sum; both operands are left untouched."""
        if self.n != other.n:
            raise ValueError(f"cannot merge tables with n={self.n} and n={other.n}")
        merged = dict(self.entries)
        for key, count in other.entries.items():
            merged[key] = merged.get(key, 0) + count
        return CountTable._owning(self.n, merged)

    def ranked(self) -> list[tuple[int, tuple[str, ...], int]]:
        """(rank, key, count) sorted by count desc, ties lexicographic."""
        ordered = sorted(self.entries.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(i + 1, key, count) for i, (key, count) in enumerate(ordered)]

    def to_tsv_lines(self) -> Iterable[str]:
        """One "key tokens space-joined<TAB>count" line per entry, ranked order.

        Ranked on the call, formatted as read.  Its cells are strs and ints,
        so it skips report.tsv_lines's per-cell type test, which made a
        400k-entry bigram table about 13% slower to rank and format.
        """
        return (f"{' '.join(key)}\t{count}" for _, key, count in self.ranked())


class HeapsFit(NamedTuple):
    exponent: float
    intercept: float
    stderr: float
    checkpoints: tuple[tuple[int, int], ...]


def fold_sentences(sentences: Iterable[Sentence]) -> list[tuple[str, ...]]:
    """Each sentence as a tuple of lowercased surfaces, ready for n-gram counting.

    The surfaces are the type records' lowercase strings, so every folded
    corpus shares one string per type.
    """
    groups = [s.tokens for s in sentences]
    lower = {tok: type_facts(tok).lower for tok in set(chain.from_iterable(groups))}
    return [tuple(map(lower.__getitem__, tokens)) for tokens in groups]


def _fold_stream(tokens: Iterable) -> Iterable[str]:
    for tok in tokens:
        surface = tok if isinstance(tok, str) else tok.surface
        yield surface.lower()


def type_token_counts(tokens: Iterable) -> tuple[int, int]:
    """(V, N) for a token stream; type identity is the lowercased surface."""
    counts = Counter(_fold_stream(tokens))
    return len(counts), sum(counts.values())


def herdan_c(V: int, N: int) -> float:
    """ln(V)/ln(N).  Degenerate below two types or two tokens."""
    if V < 2 or N < 2:
        raise ValueError(f"herdan_c needs V >= 2 and N >= 2, got V={V}, N={N}")
    if V > N:
        raise ValueError(f"types cannot exceed tokens: V={V}, N={N}")
    return math.log(V) / math.log(N)


def zipf_table(tokens: Iterable) -> list[tuple[int, str, int]]:
    """(rank, type, count) sorted by count desc; ties broken lexicographically."""
    counts = Counter(_fold_stream(tokens))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(i + 1, word, count) for i, (word, count) in enumerate(ordered)]


def _checkpoint_sizes(N: int, checkpoint_policy) -> list[int]:
    import numpy as np  # only the Heaps functions need numpy; keep it off start-up

    if isinstance(checkpoint_policy, int):
        if checkpoint_policy < 1:
            raise ValueError("checkpoint count must be >= 1")
        if N <= 100:
            return list(range(1, N + 1))
        grid = np.exp(np.linspace(math.log(100), math.log(N), checkpoint_policy))
        sizes = sorted({int(round(x)) for x in grid})
    else:
        sizes = sorted({int(s) for s in checkpoint_policy if 1 <= int(s) <= N})
    return [s for s in sizes if 1 <= s <= N]


def heaps_checkpoints(tokens: Sequence, checkpoint_policy=50) -> list[tuple[int, int]]:
    """(N, V) pairs along the stream at the policy's checkpoint sizes.

    checkpoint_policy: an int k (k log-spaced sizes from 100 to the full
    length; streams of <= 100 tokens use every prefix) or an explicit
    iterable of sizes.
    """
    stream = list(_fold_stream(tokens))
    sizes = _checkpoint_sizes(len(stream), checkpoint_policy)
    seen: set[str] = set()
    out: list[tuple[int, int]] = []
    pos = 0
    for size in sizes:
        while pos < size:
            seen.add(stream[pos])
            pos += 1
        out.append((size, len(seen)))
    return out


def heaps_fit(tokens: Sequence, checkpoint_policy=50) -> HeapsFit:
    """OLS line on (ln N, ln V) over vocabulary-growth checkpoints."""
    import numpy as np

    stream = list(tokens)
    if len(stream) < 1000:
        raise ValueError(f"heaps_fit needs >= 1000 tokens, got {len(stream)}")
    points = heaps_checkpoints(stream, checkpoint_policy)
    if len(points) < 5:
        raise ValueError(f"heaps_fit needs >= 5 checkpoints, got {len(points)}")
    x = np.log([n for n, _ in points])
    y = np.log([v for _, v in points])
    xm = x - x.mean()
    sxx = float(np.dot(xm, xm))
    slope = float(np.dot(xm, y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    ss_res = max(float(np.dot(resid, resid)), 0.0)
    stderr = math.sqrt(ss_res / (len(points) - 2) / sxx)
    return HeapsFit(slope, intercept, stderr, tuple(points))


def entropy_bits(counts: Iterable[int], total: int) -> float:
    """Plug-in entropy in bits of positive counts summing to total."""
    # fsum is correctly rounded, so the result does not depend on term order,
    # and each term is computed once per distinct count, then repeated.
    # 0.0 - sum, not -sum: one type sums to 0.0, which must not print as -0.0
    by_count = Counter(counts)
    return 0.0 - math.fsum(chain.from_iterable(
        repeat((c / total) * math.log2(c / total), m) for c, m in by_count.items()))


def unigram_entropy(tokens: Iterable) -> float:
    """Plug-in entropy in bits over type frequencies."""
    counts = Counter(_fold_stream(tokens))
    total = sum(counts.values())
    if total < 1:
        raise ValueError("unigram_entropy needs a non-empty stream")
    return entropy_bits(counts.values(), total)


def table_entropy(table: CountTable) -> float:
    """Plug-in entropy in bits of a count table."""
    if table.total < 1:
        raise ValueError("table_entropy needs a non-empty table")
    return entropy_bits(table.entries.values(), table.total)


_KEEP = (0, 0)


def _mask_action(n: int, mask: int):
    """What the boundary rule does to every n-window with markers at mask's bits.

    None drops the window; otherwise (left, right): that many leading and
    trailing positions become markers, so _KEEP leaves the window as it is.
    The marker nearest the center governs; a distance tie, or a marker dead
    center of an odd window, drops the window.  Otherwise every position on
    its shorter side (fewer non-markers; side length breaks a tie) becomes a
    marker.  A result that is all markers, or has a marker dead center of an
    odd window, drops.
    """
    if not mask:
        return _KEEP  # the one object _count_sections tests for by identity
    # distances doubled to stay in integers: the center sits at (n-1)/2
    (d, best), *rest = sorted((abs(2 * i - n + 1), i) for i in range(n) if mask >> i & 1)
    if d == 0 or rest and rest[0][0] == d:
        return None
    full = (1 << n) - 1
    below = (1 << best) - 1
    above = full ^ below ^ (1 << best)
    left = best - (mask & below).bit_count()
    right = n - 1 - best - (mask & above).bit_count()
    # mark the side with fewer non-markers, the shorter side on a tie
    out = mask | (below if (left, best) < (right, n - 1 - best) else above)
    if out == full or n % 2 and (out >> n // 2) & 1:
        return None
    if out == mask:
        return _KEEP
    # the rule marks a prefix or a suffix: read off out's runs of low and high ones
    return (~out & (out + 1)).bit_length() - 1, n - (full ^ out).bit_length()


class _MaskRules(dict):
    """Marker bitmask -> _mask_action(n, mask) for one n, filled as masks turn up.

    At most 2**n entries, and only the masks real windows have.  A lookup
    here costs a plain dict hit; a functools.cache on _mask_action would
    build and hash an (n, mask) tuple for every marked key.
    """

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, mask: int):
        action = self[mask] = _mask_action(self.n, mask)
        return action


_mask_rules = functools.cache(_MaskRules)  # one table per n


def _section_stream(sentences) -> list[str]:
    stream = [BOUNDARY]
    for sentence in sentences:
        stream.extend(sentence.surfaces() if isinstance(sentence, Sentence) else sentence)
        stream.append(BOUNDARY)
    return stream


def _count_sections(sections, n: int, postprocess: bool) -> dict[tuple[str, ...], int]:
    """Window counts over sections, the boundary rule applied if asked."""
    counts: dict[tuple[str, ...], int] = {}
    for sentences in sections:
        stream = _section_stream(sentences)
        if len(stream) > 1:  # an empty section is a lone marker, no windows of interest
            # Counter.update's C loop, run on a plain dict: a Counter's
            # Python-level __eq__ would slow every comparison of tables
            _count_elements(counts, zip(*[stream[i:] for i in range(n)]))
    if postprocess:
        rules = _mask_rules(n)
        marked_out: list[tuple[str, ...]] = []  # keys holding a marker after the rule
        moved: list[tuple[tuple[str, ...], int]] = []
        # a marked key the rule leaves as it is stays put.  Every other one
        # comes out before any rule output goes back in, since an output can
        # itself be such a raw key
        for key in [key for key in counts if BOUNDARY in key]:
            mask = 0
            for i, sym in enumerate(key):
                if sym == BOUNDARY:
                    mask |= 1 << i
            action = rules[mask]
            if action is _KEEP:
                marked_out.append(key)
            elif action is None:
                del counts[key]
            else:
                left, right = action
                window = (BOUNDARY,) * left + key[left:n - right] + (BOUNDARY,) * right
                marked_out.append(window)
                moved.append((window, counts.pop(key)))
        get = counts.get
        for window, count in moved:
            counts[window] = get(window, 0) + count
        _check_center(n, marked_out)
    return counts


def _check_center(n: int, marked_keys: Iterable[tuple[str, ...]]) -> None:
    """The rule never leaves a marker dead center of an odd window.

    Only keys holding a marker can break this, so callers pass just those.
    """
    if n % 2 == 1:
        mid = (n - 1) // 2
        for key in marked_keys:
            if key[mid] == BOUNDARY:
                raise AssertionError(f"boundary at center of odd key {key}")


def ngram_counts(sentences, n: int, boundary_policy: str = "postprocessed") -> CountTable:
    """Count length-n windows over one section's marker-delimited stream.

    raw keeps every window as enumerated, markers included.  postprocessed
    applies the center/shorter-side rule; for n=1 that drops the markers
    themselves.
    """
    return count_corpus_ngrams([sentences], n, boundary_policy)


_worker_job = None  # (shards, n, postprocess), set only inside pool workers


def _init_worker(shards, n: int, postprocess: bool) -> None:
    global _worker_job
    _worker_job = (shards, n, postprocess)


def _count_shard(index: int) -> dict[tuple[str, ...], int]:
    shards, n, postprocess = _worker_job
    return _count_sections(shards[index], n, postprocess)


def count_corpus_ngrams(
    sections, n: int, boundary_policy: str = "postprocessed", processes: int = 1
) -> CountTable:
    """Count n-grams over many sections (documents) and merge.

    Each section gets its own marker frame, so the result is identical for
    any sharding of the section list, including processes > 1.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    policy = _POLICIES.get(boundary_policy)
    if policy is None:
        raise ValueError(f"unknown boundary policy {boundary_policy!r}")
    postprocess = policy == "postprocessed"
    sections = list(sections)
    if processes <= 1 or len(sections) < 2:
        counts = _count_sections(sections, n, postprocess)
    else:
        shards: list[list] = [[] for _ in range(min(processes, len(sections)))]
        for i, sentences in enumerate(sections):
            shards[i % len(shards)].append(sentences)
        import multiprocessing  # only sharded counting needs it; keep it off start-up

        # fork workers inherit the shards from the initializer arguments, so
        # no token is pickled on the way in; tasks carry only shard indices
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(len(shards), initializer=_init_worker,
                      initargs=(shards, n, postprocess)) as pool:
            results = pool.map(_count_shard, range(len(shards)))
        counts = results[0]
        get = counts.get
        for part in results[1:]:
            for key, count in part.items():
                counts[key] = get(key, 0) + count
    return CountTable._owning(n, counts)


class CorpusStats(NamedTuple):
    chars_per_word: float
    words_per_sentence: float
    separators_per_sentence: float
    content_words_per_subsentence: float


class TypeTally(NamedTuple):
    """One pass over a token-type -> count table."""

    folded: dict[str, int]  # lowercased surface -> count
    tokens: int
    words: int  # word-kind tokens
    word_chars: int  # characters over word-kind tokens
    separators: int  # subsentence separators over punctuation tokens
    content: int  # tokens not of the punctuation kind
    complex_words: int  # word-kind tokens of three or more syllables

    def corpus_stats(self, n_sent: int) -> CorpusStats:
        """The CorpusStats of the tallied tokens over n_sent sentences."""
        if n_sent < 1:
            raise ValueError("corpus_stats needs at least one sentence")
        subsentences = self.separators + n_sent
        return CorpusStats(
            chars_per_word=self.word_chars / self.words if self.words else 0.0,
            words_per_sentence=self.tokens / n_sent,
            separators_per_sentence=self.separators / n_sent,
            content_words_per_subsentence=self.content / subsentences,
        )


def tally_types(types: Mapping[Token, int]) -> TypeTally:
    """Fold and tally a type table, reading each type's record once."""
    folded: dict[str, int] = {}
    get = folded.get
    tokens = words = word_chars = separators = content = complex_words = 0
    for tok, count in types.items():
        lower, word_length, seps, punctuation, complex_word = type_facts(tok)
        folded[lower] = get(lower, 0) + count
        tokens += count
        if word_length:
            words += count
            word_chars += word_length * count
            if complex_word:
                complex_words += count
        if punctuation:
            separators += seps * count
        else:
            content += count
    return TypeTally(folded, tokens, words, word_chars, separators, content, complex_words)


def corpus_measures(tally: TypeTally, n_sent: int) -> dict:
    """V, N, Herdan's C, entropy_bits and corpus_stats of a tallied type table.

    The one core behind `stats` and each `compare` corpus block; a block's
    fog and n = 1 table read the same tally.  V, N and the entropy read the
    table merged by lowercased surface; C is None below two types (V <= N,
    so N >= 2 then holds too).  corpus_stats keeps the CorpusStats field
    order.
    """
    folded = tally.folded
    V, N = len(folded), tally.tokens
    return {
        "V": V,
        "N": N,
        "C": herdan_c(V, N) if V >= 2 else None,
        "entropy_bits": entropy_bits(folded.values(), N),
        "corpus_stats": tally.corpus_stats(n_sent)._asdict(),
    }


def corpus_table(symbols, folded: dict[str, int], n: int, boundary_policy: str) -> CountTable:
    """A corpus's n-gram table from its folded sentences and folded type counts.

    symbols is fold_sentences of the corpus and folded its TypeTally.folded.
    The postprocessed n = 1 table reads folded alone and equals
    ngram_counts(symbols, 1): at n = 1 the boundary rule drops every window
    holding a marker, and so the key of a literal marker surface too.  Every
    other table counts symbols' windows.  folded is left as it is.
    """
    # bench compare's 12 n = 1 tables take 7.4 ms this way, 22.1 by ngram_counts (2 vCPUs)
    if n == 1 and _POLICIES.get(boundary_policy) == "postprocessed":
        return CountTable._owning(1, {(w,): c for w, c in folded.items() if w != BOUNDARY})
    return ngram_counts(symbols, n, boundary_policy)


def corpus_stats(sentences: Sequence[Sentence]) -> CorpusStats:
    """Aggregate length ratios over a sentence list.

    words_per_sentence counts every token, punctuation included;
    chars_per_word is measured over word-kind tokens only; a subsentence is
    a separator-delimited stretch, so each sentence has separators + 1.
    """
    sentences = list(sentences)
    return tally_types(type_counts(sentences)).corpus_stats(len(sentences))
