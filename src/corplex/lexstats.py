"""Vocabulary growth, Zipf ranking, entropies, and n-gram tables.

Sentence-boundary handling: count_corpus_ngrams counts a list of sections
(documents); ngram_counts is its one-section case.  A single boundary marker
separates consecutive sentences, plus one marker at the section start and
end.  Markers never span sections, so counting a corpus section-by-section
and merging the tables is exactly the single-pass result.  Windows are
counted raw, at C speed; the postprocessed policy then applies the boundary
rule once per distinct window holding a marker, which is exact because the
rule depends on the window alone.

Type-level statistics (type_token_counts, zipf_table, unigram_entropy,
heaps_*) fold surfaces to lowercase.  n-gram counting does not fold: its
symbols may be POS tags, where case is meaningful.  Callers fold word
streams first with fold_sentences when they want folded n-grams.

The entropies and corpus_stats share counts-based cores (entropy_bits,
folded_counts, corpus_stats_from_types) that read a type -> count table, so
a caller holding such a table, like report's corpus block, pays per type
rather than per token.
"""

from __future__ import annotations

import math
import multiprocessing
from collections import Counter
from functools import lru_cache
from itertools import chain, repeat
from typing import Iterable, Mapping, NamedTuple, Sequence

from .textpipe import PUNCTUATION, Sentence, SUBSENTENCE_SEPARATORS, Token, WORD, type_counts

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
        return CountTable(self.n, merged)

    def ranked(self) -> list[tuple[int, tuple[str, ...], int]]:
        """(rank, key, count) sorted by count desc, ties lexicographic."""
        ordered = sorted(self.entries.items(), key=lambda kv: (-kv[1], kv[0]))
        return [(i + 1, key, count) for i, (key, count) in enumerate(ordered)]

    def to_tsv_lines(self) -> Iterable[str]:
        """One "key tokens space-joined<TAB>count" line per entry, ranked order."""
        for _, key, count in self.ranked():
            yield f"{' '.join(key)}\t{count}"


class HeapsFit(NamedTuple):
    exponent: float
    intercept: float
    stderr: float
    checkpoints: tuple[tuple[int, int], ...]


def fold_sentences(sentences: Iterable[Sentence]) -> list[tuple[str, ...]]:
    """Each sentence as a tuple of lowercased surfaces, ready for n-gram counting."""
    groups = [s.tokens for s in sentences]
    lower = {tok: tok.surface.lower() for tok in set(chain.from_iterable(groups))}
    return [tuple(map(lower.__getitem__, tokens)) for tokens in groups]


def _fold_stream(tokens: Iterable) -> Iterable[str]:
    for tok in tokens:
        surface = tok if isinstance(tok, str) else tok.surface
        yield surface.lower()


def folded_counts(types: Mapping[Token, int]) -> dict[str, int]:
    """A token-type -> count table merged by lowercased surface."""
    folded: dict[str, int] = {}
    get = folded.get
    for tok, count in types.items():
        surface = tok.surface.lower()
        folded[surface] = get(surface, 0) + count
    return folded


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
    # and each term is computed once per distinct count, then repeated
    by_count = Counter(counts)
    return -math.fsum(chain.from_iterable(
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


@lru_cache(maxsize=262144)
def _postprocess_window(window: tuple[str, ...]):
    """Apply the boundary rule to one window; None means the window is dropped.

    The marker nearest the window center governs; an exact distance tie drops
    the window, as does a marker sitting dead center of an odd window.
    Otherwise every position on the governing marker's shorter side (fewer
    non-marker symbols; side length as fallback) becomes a marker.
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
    if all(sym == BOUNDARY for sym in out):
        return None
    return tuple(out)


def _section_stream(sentences) -> list[str]:
    stream = [BOUNDARY]
    for sentence in sentences:
        stream.extend(sentence.surfaces() if isinstance(sentence, Sentence) else sentence)
        stream.append(BOUNDARY)
    return stream


def _count_sections(sections, n: int, postprocess: bool) -> Counter:
    """Window counts over sections, the boundary rule applied if asked."""
    counts: Counter = Counter()
    for sentences in sections:
        stream = _section_stream(sentences)
        if len(stream) > 1:  # an empty section is a lone marker, no windows of interest
            counts.update(zip(*[stream[i:] for i in range(n)]))
    if postprocess:
        # a marked key the rule leaves as it is stays put.  Every other one
        # comes out before any rule output goes back in, since an output can
        # itself be such a raw key; plain dict pop/get skip Counter's
        # Python-level __delitem__ and __missing__
        changed = [(key, window) for key in counts
                   if BOUNDARY in key and (window := _postprocess_window(key)) != key]
        moved = [(window, counts.pop(key)) for key, window in changed]
        get = counts.get
        for window, count in moved:
            if window is not None:
                counts[window] = get(window, 0) + count
    return counts


def _check_center(table: CountTable) -> CountTable:
    if table.n % 2 == 1:
        mid = (table.n - 1) // 2
        for key in table.entries:
            if key[mid] == BOUNDARY:
                raise AssertionError(f"boundary at center of odd key {key}")
    return table


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
    return dict(_count_sections(shards[index], n, postprocess))


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
        # fork workers inherit the shards from the initializer arguments, so
        # no token is pickled on the way in; tasks carry only shard indices
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(len(shards), initializer=_init_worker,
                      initargs=(shards, n, postprocess)) as pool:
            results = pool.map(_count_shard, range(len(shards)))
        counts = Counter()
        for part in results:
            counts.update(part)
    table = CountTable(n, counts)
    if postprocess:
        _check_center(table)
    return table


class CorpusStats(NamedTuple):
    chars_per_word: float
    words_per_sentence: float
    separators_per_sentence: float
    content_words_per_subsentence: float


def corpus_stats(sentences: Sequence[Sentence]) -> CorpusStats:
    """Aggregate length ratios over a sentence list.

    words_per_sentence counts every token, punctuation included;
    chars_per_word is measured over word-kind tokens only; a subsentence is
    a separator-delimited stretch, so each sentence has separators + 1.
    """
    sentences = list(sentences)
    return corpus_stats_from_types(type_counts(sentences), len(sentences))


def corpus_stats_from_types(types: Mapping[Token, int], n_sent: int) -> CorpusStats:
    """corpus_stats from a token-type -> count table and a sentence count."""
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
    return CorpusStats(
        chars_per_word=word_chars / words if words else 0.0,
        words_per_sentence=tokens / n_sent,
        separators_per_sentence=separators / n_sent,
        content_words_per_subsentence=content / subsentences,
    )
