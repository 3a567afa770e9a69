"""Size-balanced sample construction and the eight processing conditions.

Sampling uses a self-contained 64-bit splitmix generator so identical
(pool order, seed) inputs give identical samples on every platform and
Python version.  Lines are the balancing atom: whole lines are appended in
shuffled order until the running size first reaches the target.  There is
one draw, build_balanced_sample_grouped, which shuffles articles and stops
inside the one that crosses the target; the line-level
build_balanced_sample is that draw over one-line articles.

Conditions run through a LineCache, which tokenizes, exclude-checks and
sentence-splits each distinct line once, and keeps for it only the raw
sentences and whether it is excluded.  Fog reads a document's tokens
through body_tokens, which joins its lines' cached sentences.  Every
processing step is a function of the token type alone, so a condition is a
per-type map over the cached sentences, made for one apply call from the
types it meets: punctuation strip drops a type, Porter maps a word type to
its stem through the process-wide stem table (textpipe.stem_token; the
token keeps its kind).  apply_condition is the one-shot use of a cache,
with the signature and results it always had.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import InsufficientPoolError
from .textpipe import (
    Sentence,
    Token,
    WORD,
    detokenize,
    is_punctuation_mark,
    split_sentences,
    stem_token,
    tokenize,
)

CHARACTER = "character"
WORD_UNIT = "word"
UNITS = (CHARACTER, WORD_UNIT)

#: |size_ratio - 1| at or below this passes the balance check
BALANCE_TOLERANCE = 3e-4

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15  # splitmix64's state increment


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64 constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection, no modulo bias."""
        if n <= 0:
            raise ValueError("below() needs n >= 1")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            draw = self.next_u64()
            if draw < limit:
                return draw % n

    def shuffle(self, items: list) -> None:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]


_CODE_ORDER = ("CB", "CN", "CBP", "CNP", "WB", "WN", "WBP", "WNP")


@dataclass(frozen=True)
class ConditionSpec:
    """One balancing/processing condition: {C|W}{B|N}[P]."""

    unit: str  # character | word
    punctuation: str  # keep | strip
    stemming: str  # none | porter

    def __post_init__(self):
        if self.unit not in UNITS:
            raise ValueError(f"bad unit {self.unit!r}")
        if self.punctuation not in ("keep", "strip"):
            raise ValueError(f"bad punctuation policy {self.punctuation!r}")
        if self.stemming not in ("none", "porter"):
            raise ValueError(f"bad stemming policy {self.stemming!r}")

    @property
    def code(self) -> str:
        code = "C" if self.unit == CHARACTER else "W"
        code += "B" if self.punctuation == "keep" else "N"
        if self.stemming == "porter":
            code += "P"
        return code

    @classmethod
    def parse(cls, code: str) -> "ConditionSpec":
        if code not in _CODE_ORDER:
            raise ValueError(f"unknown condition code {code!r}; expected one of {_CODE_ORDER}")
        return cls(
            unit=CHARACTER if code[0] == "C" else WORD_UNIT,
            punctuation="keep" if code[1] == "B" else "strip",
            stemming="porter" if code.endswith("P") else "none",
        )

    @staticmethod
    def all_codes() -> tuple[str, ...]:
        return _CODE_ORDER


def _line_size(line: str, unit: str) -> int:
    if unit == CHARACTER:
        return len(line)
    if unit == WORD_UNIT:
        return len(line.split())
    raise ValueError(f"bad unit {unit!r}")


@dataclass(frozen=True)
class Sample:
    """Selected lines with their recomputable sizes and the seed used."""

    lines: tuple[str, ...]
    size_chars: int
    size_words: int
    seed: int

    @classmethod
    def from_lines(cls, lines: Iterable[str], seed: int) -> "Sample":
        lines = tuple(lines)
        return cls(
            lines=lines,
            size_chars=sum(_line_size(l, CHARACTER) for l in lines),
            size_words=sum(_line_size(l, WORD_UNIT) for l in lines),
            seed=seed,
        )

    def size(self, unit: str) -> int:
        if unit == CHARACTER:
            return self.size_chars
        if unit == WORD_UNIT:
            return self.size_words
        raise ValueError(f"bad unit {unit!r}")


def build_balanced_sample(
    pool: Sequence[str], target_size: int, unit: str, seed: int
) -> Sample:
    """Draw whole lines without replacement until the size first crosses target.

    Deterministic for a fixed (pool order, seed).  Raises
    InsufficientPoolError when the pool runs out short of the target.  This
    is the grouped draw over one-line groups: the shuffle runs over the same
    index range, so it picks the same lines.
    """
    return build_balanced_sample_grouped([(line,) for line in pool], target_size, unit, seed)


def build_balanced_sample_grouped(
    groups: Sequence[Sequence[str]], target_size: int, unit: str, seed: int
) -> Sample:
    """Article-level draw with a line-granular stop.

    Whole groups (articles) are appended in shuffled order; inside the group
    that crosses the target, lines are appended one at a time and the draw
    stops at the first crossing.
    """
    if target_size <= 0:
        raise ValueError(f"target_size must be > 0, got {target_size}")
    if unit not in UNITS:
        raise ValueError(f"bad unit {unit!r}")
    order = list(range(len(groups)))
    SplitMix64(seed).shuffle(order)
    picked: list[str] = []
    achieved = 0
    for idx in order:
        for line in groups[idx]:
            picked.append(line)
            achieved += _line_size(line, unit)
            if achieved >= target_size:
                return Sample.from_lines(picked, seed)
    raise InsufficientPoolError(target_size, achieved, unit)


def size_ratio(a: Sample, b: Sample, unit: str) -> float:
    if not a.lines or not b.lines:
        raise ValueError("size_ratio needs two non-empty samples")
    size_b = b.size(unit)
    if size_b == 0:
        raise ValueError("size_ratio denominator sample has zero size")
    return a.size(unit) / size_b


def balanced(a: Sample, b: Sample, unit: str, tolerance: float = BALANCE_TOLERANCE) -> bool:
    return abs(size_ratio(a, b, unit) - 1.0) <= tolerance


def sample_manifest(sample: Sample, unit: str, target: int, source: str) -> dict:
    return {
        "seed": sample.seed,
        "unit": unit,
        "target": target,
        "achieved": sample.size(unit),
        "source": source,
    }


def doc_lines(doc) -> list[str]:
    """The non-blank lines of a document (or of a plain string)."""
    body = doc if isinstance(doc, str) else doc.body
    return [line for line in body.splitlines() if line.strip()]


class LineCache:
    """Each distinct line tokenized, exclude-checked and sentence-split once.

    Lines whose space-joined token text contains any exclude pattern are
    dropped whole (case-sensitive substring match).  Sentences are split
    before any condition step, so boundary marks do their job even where
    punctuation is stripped later.  Per line the cache keeps the raw
    sentences and, in a set, whether the line is excluded: split_sentences
    partitions the tokens, so joining the sentences gives them back.
    """

    def __init__(self, exclude_patterns: Sequence[str] | None = None):
        self._patterns = tuple(exclude_patterns or ())
        self._split: dict[str, list[Sentence]] = {}
        self._excluded: set[str] = set()

    def _raw(self, line: str) -> list[Sentence]:
        """The line's sentences, excluded or not."""
        sents = self._split.get(line)
        if sents is None:
            toks = tokenize(line)
            sents = self._split[line] = split_sentences(toks)
            if toks and self._patterns:
                joined = detokenize(toks)
                if any(p in joined for p in self._patterns):
                    self._excluded.add(line)
        return sents

    def body_tokens(self, body: str) -> list[Token]:
        """tokenize(body), assembled from the cached sentences of its lines.

        Equal because every line break is whitespace to str.split, so no
        whitespace chunk spans two lines, and blank lines hold no chunk.
        """
        return [tok for line in doc_lines(body) for sentence in self._raw(line)
                for tok in sentence.tokens]

    def sentences(self, line: str) -> list[Sentence]:
        """The line's raw sentences; none if it is blank or excluded."""
        sents = self._raw(line)
        return [] if line in self._excluded else sents

    @staticmethod
    def _process(tok: Token, strip: bool, stem: bool) -> Token | None:
        if strip and is_punctuation_mark(tok):
            return None
        if stem and tok.kind == WORD:
            return stem_token(tok.surface)
        return tok

    def apply(self, lines: Iterable[str], cond: ConditionSpec) -> list[Sentence]:
        """The lines' sentences under the condition; sentences left empty are dropped."""
        raw = [s for line in lines for s in self.sentences(line)]
        strip = cond.punctuation == "strip"
        stem = cond.stemming == "porter"
        if not (strip or stem):
            return raw
        type_map = {tok: self._process(tok, strip, stem)
                    for tok in set(chain.from_iterable(s.tokens for s in raw))}
        lookup = type_map.__getitem__
        out: list[Sentence] = []
        for sentence in raw:
            toks = tuple(filter(None, map(lookup, sentence.tokens)))
            if toks:
                out.append(Sentence(toks))
        return out


def apply_condition(
    lines: Iterable[str],
    cond: ConditionSpec,
    exclude_patterns: Sequence[str] | None = None,
) -> list[Sentence]:
    """Tokenize lines and run the condition's processing chain.

    Lines whose space-joined token text contains any exclude pattern are
    dropped whole (case-sensitive substring match).  Sentences are split
    before punctuation is stripped, so boundary marks do their job first;
    sentences left empty by filtering are dropped.  Callers running several
    conditions over the same lines keep one LineCache instead.
    """
    return LineCache(exclude_patterns).apply(lines, cond)
