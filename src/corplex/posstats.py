"""POS-tag statistics: tagged-text ingestion, proper-noun merging, and
tag n-gram distribution comparison.

Tagging itself is external; this module reads its output.  The S conditions
(SO, SN) collapse adjacent proper-noun tags into one unit before counting,
so multiword names weigh as a single element.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import repeat
from operator import mul
from typing import Iterable, NamedTuple

from .errors import ParseError
from .lexstats import CountTable, ngram_counts

#: Penn Treebank word-level tags plus the common punctuation tags
PENN_TAGS = frozenset(
    {
        "CC", "CD", "DT", "EX", "FW", "IN", "JJ", "JJR", "JJS", "LS", "MD",
        "NN", "NNS", "NNP", "NNPS", "PDT", "POS", "PRP", "PRP$", "RB", "RBR",
        "RBS", "RP", "SYM", "TO", "UH", "VB", "VBD", "VBG", "VBN", "VBP",
        "VBZ", "WDT", "WP", "WP$", "WRB",
        ".", ",", ":", "(", ")", "``", "''", '"', "#", "$", "-LRB-", "-RRB-",
    }
)

POS_CONDITIONS = ("O", "N", "SO", "SN")

_PROPER = ("NNP", "NNPS")


class TaggedSentence(NamedTuple):
    pairs: tuple[tuple[str, str], ...]

    def tokens(self) -> tuple[str, ...]:
        return tuple(tok for tok, _ in self.pairs)

    def tags(self) -> tuple[str, ...]:
        return tuple(tag for _, tag in self.pairs)


def _parse_entry(entry: str, line_no: int) -> tuple[str, str]:
    # the separator is the last "/" not escaped as "\/"
    sep = -1
    i = 0
    while True:
        i = entry.find("/", i)
        if i == -1:
            break
        if i == 0 or entry[i - 1] != "\\":
            sep = i
        i += 1
    if sep == -1:
        raise ParseError(f"entry {entry!r} has no tag separator", location=f"line {line_no}")
    token = entry[:sep].replace("\\/", "/")
    tag = entry[sep + 1 :]
    if not token:
        raise ParseError(f"entry {entry!r} has an empty token", location=f"line {line_no}")
    if not tag:
        raise ParseError(f"entry {entry!r} has an empty tag", location=f"line {line_no}")
    return token, tag


def parse_tagged(lines: Iterable[str], warnings: Counter | None = None) -> list[TaggedSentence]:
    """One sentence per line, entries "token/TAG" space-separated.

    Tags outside the Penn inventory are kept but counted in warnings.
    """
    warnings = warnings if warnings is not None else Counter()
    sentences: list[TaggedSentence] = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        pairs = []
        for entry in line.split():
            token, tag = _parse_entry(entry, line_no)
            if tag not in PENN_TAGS:
                warnings["unknown_tag"] += 1
            pairs.append((token, tag))
        sentences.append(TaggedSentence(tuple(pairs)))
    return sentences


def format_tagged(sentences: Iterable[TaggedSentence]) -> Iterable[str]:
    for sentence in sentences:
        yield " ".join(tok.replace("/", "\\/") + "/" + tag for tok, tag in sentence.pairs)


def merge_adjacent_proper_nouns(sentence: TaggedSentence) -> TaggedSentence:
    """Collapse each maximal NNP/NNPS run into one pair.

    Tokens join with "_"; the run's final tag wins, so a plural head keeps
    NNPS.
    """
    merged: list[tuple[str, str]] = []
    run: list[tuple[str, str]] = []
    for pair in sentence.pairs:
        if pair[1] in _PROPER:
            run.append(pair)
            continue
        if run:
            merged.append(("_".join(tok for tok, _ in run), run[-1][1]))
            run = []
        merged.append(pair)
    if run:
        merged.append(("_".join(tok for tok, _ in run), run[-1][1]))
    return TaggedSentence(tuple(merged))


def apply_pos_condition(
    sentences: Iterable[TaggedSentence], condition: str
) -> list[TaggedSentence]:
    """O/N pass through (they differ in which tagged file was supplied);
    SO/SN run the proper-noun merge."""
    if condition not in POS_CONDITIONS:
        raise ValueError(f"unknown POS condition {condition!r}; expected one of {POS_CONDITIONS}")
    if condition.startswith("S"):
        return [merge_adjacent_proper_nouns(s) for s in sentences]
    return list(sentences)


def tag_ngram_table(
    sentences: Iterable[TaggedSentence], n: int, boundary_policy: str = "postprocessed"
) -> CountTable:
    """n-gram table over the tag sequences, same boundary machinery as words."""
    return ngram_counts([s.tags() for s in sentences], n, boundary_policy)


def cosine_angle(a: CountTable, b: CountTable) -> tuple[float, float]:
    """(similarity, angle in degrees) between two count vectors.

    Count scaling cancels, so raw counts and relative frequencies give the
    same answer; the similarity is clamped before arccos to absorb rounding.
    """
    if a.n != b.n:
        raise ValueError(f"table n mismatch: {a.n} vs {b.n}")
    if a.total < 1 or b.total < 1:
        raise ValueError("cosine_angle needs two non-empty tables")
    small, large = (a.entries, b.entries) if len(a.entries) <= len(b.entries) else (b.entries, a.entries)
    # exact integer sums, walked at C speed
    dot = sum(map(mul, small.values(), map(large.get, small, repeat(0))))
    norm_sq_a = sum(map(mul, a.entries.values(), a.entries.values()))
    norm_sq_b = sum(map(mul, b.entries.values(), b.entries.values()))
    # one sqrt over the exact integer product: identical tables land on 1.0
    similarity = dot / math.sqrt(norm_sq_a * norm_sq_b)
    similarity = max(-1.0, min(1.0, similarity))
    angle = math.degrees(math.acos(similarity))
    return similarity, angle


def pos_distribution(table: CountTable) -> list[tuple[str, float]]:
    """Relative frequency per tag, descending; for unigram tag tables."""
    if table.n != 1:
        raise ValueError(f"pos_distribution needs a unigram table, got n={table.n}")
    if table.total < 1:
        raise ValueError("pos_distribution needs a non-empty table")
    return [(key[0], count / table.total) for _, key, count in table.ranked()]
