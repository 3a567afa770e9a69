"""Size-balanced sample construction and the eight processing conditions.

Sampling uses a self-contained 64-bit splitmix generator so identical
(pool order, seed) inputs give identical samples on every platform and
Python version.  Lines are the balancing atom: whole lines are appended in
shuffled order until the running size first reaches the target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import InsufficientPoolError
from .porter import porter_stem
from .textpipe import (
    Sentence,
    Token,
    WORD,
    detokenize,
    filter_punctuation,
    split_sentences,
    tokenize,
)

CHARACTER = "character"
WORD_UNIT = "word"
UNITS = (CHARACTER, WORD_UNIT)

#: |size_ratio - 1| at or below this passes the balance check
BALANCE_TOLERANCE = 3e-4

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Deterministic 64-bit PRNG (splitmix64 constants)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
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


def line_chars(line: str) -> int:
    return len(line)


def line_words(line: str) -> int:
    return len(line.split())


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
            size_chars=sum(line_chars(l) for l in lines),
            size_words=sum(line_words(l) for l in lines),
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
    InsufficientPoolError when the pool runs out short of the target.
    """
    if target_size <= 0:
        raise ValueError(f"target_size must be > 0, got {target_size}")
    if unit not in UNITS:
        raise ValueError(f"bad unit {unit!r}")
    order = list(range(len(pool)))
    SplitMix64(seed).shuffle(order)
    picked: list[str] = []
    achieved = 0
    for idx in order:
        line = pool[idx]
        picked.append(line)
        achieved += _line_size(line, unit)
        if achieved >= target_size:
            return Sample.from_lines(picked, seed)
    raise InsufficientPoolError(target_size, achieved, unit)


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


def apply_condition(
    lines: Iterable[str],
    cond: ConditionSpec,
    exclude_patterns: Sequence[str] | None = None,
) -> list[Sentence]:
    """Tokenize lines and run the condition's processing chain.

    Lines whose space-joined token text contains any exclude pattern are
    dropped whole (case-sensitive substring match).  Sentences are split
    before punctuation is stripped, so boundary marks do their job first;
    sentences left empty by filtering are dropped.
    """
    patterns = list(exclude_patterns or [])
    out: list[Sentence] = []
    for line in lines:
        tokens = tokenize(line)
        if not tokens:
            continue
        if patterns:
            joined = detokenize(tokens)
            if any(p in joined for p in patterns):
                continue
        for sentence in split_sentences(tokens):
            toks: Sequence[Token] = sentence.tokens
            if cond.punctuation == "strip":
                toks = filter_punctuation(list(toks))
            if cond.stemming == "porter":
                toks = [
                    Token(porter_stem(t.surface), t.kind) if t.kind == WORD else t
                    for t in toks
                ]
            if toks:
                out.append(Sentence(tuple(toks)))
    return out
