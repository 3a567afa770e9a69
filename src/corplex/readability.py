"""Gunning fog readability and Welch's t-test for group comparisons.

The fog word count covers word-kind tokens only: punctuation and numerals
never enter the words or complex-words tallies.  Whether a word is complex
is read from its type's record (textpipe.type_facts), so the syllables of a
word type are counted once per process, not once per report.  Group
uncertainty follows the mean +/- standard error convention,
stderr = sqrt(variance / n).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .textpipe import Sentence, Token, split_sentences, tokenize, type_counts, type_facts


class FogReport(NamedTuple):
    words: int
    sentences: int
    complex_words: int
    F: float

    @classmethod
    def from_counts(cls, words: int, sentences: int, complex_words: int) -> "FogReport":
        if words < 1 or sentences < 1:
            raise ValueError(
                f"fog needs words >= 1 and sentences >= 1, got {words}/{sentences}"
            )
        if complex_words > words:
            raise ValueError("complex_words cannot exceed words")
        F = 0.4 * (words / sentences + 100.0 * complex_words / words)
        return cls(words, sentences, complex_words, F)


class GroupStats(NamedTuple):
    n: int
    mean: float
    variance: float  # unbiased; 0.0 by convention for n = 1

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "GroupStats":
        n = len(values)
        if n < 1:
            raise ValueError("GroupStats needs at least one value")
        mean = sum(values) / n
        if n == 1:
            return cls(1, mean, 0.0)
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        return cls(n, mean, variance)

    @property
    def stderr(self) -> float:
        return math.sqrt(self.variance / self.n)


def gunning_fog(sentences: Sequence[Sentence]) -> FogReport:
    """Fog report over an already-split sentence list."""
    sentences = list(sentences)
    return fog_from_types(type_counts(sentences), len(sentences))


# kept beside lexstats.tally_types: bench compare's 80 fogs take 8.9 ms, 13.9 via it (2 vCPUs)
def fog_from_types(types: Mapping[Token, int], n_sent: int) -> FogReport:
    """Fog report from a token-type -> count table and a sentence count."""
    words = 0
    complex_words = 0
    for tok, count in types.items():
        facts = type_facts(tok)
        if facts.word_length:
            words += count
            if facts.complex:
                complex_words += count
    return FogReport.from_counts(words, n_sent, complex_words)


def text_fog(text: str) -> FogReport:
    return gunning_fog(split_sentences(tokenize(text)))


def corpus_fog(
    docs: Iterable,
    warnings: Counter | None = None,
    tokenizer: Callable[[str], list[Token]] | None = None,
) -> tuple[GroupStats, list[tuple[object, FogReport]]]:
    """Per-document fog over a document collection.

    (GroupStats over per-document F, [(doc id, FogReport)]); documents that
    cannot be scored (no words) are skipped with a counted warning, as is
    the lone-document case where stderr degenerates to 0.  A pooled score
    is gunning_fog over every document's sentences.  tokenizer turns a body
    into tokens (default textpipe.tokenize); a caller that already holds
    each line's tokens passes its cache here.
    """
    warnings = warnings if warnings is not None else Counter()
    body_tokens = tokenizer or tokenize
    reports: list[tuple[object, FogReport]] = []
    for doc in docs:
        try:
            report = gunning_fog(split_sentences(body_tokens(_body(doc))))
        except ValueError:
            warnings["fog_skipped"] += 1
            continue
        reports.append((_doc_id(doc), report))
    if not reports:
        raise ValueError("every document was skipped")
    if len(reports) == 1:
        warnings["fog_single_document"] += 1
    stats = GroupStats.from_values([r.F for _, r in reports])
    return stats, reports


def _body(doc) -> str:
    return doc if isinstance(doc, str) else doc.body


def _doc_id(doc):
    return getattr(doc, "id", None)


def _betacf(a: float, b: float, x: float) -> float:
    # continued fraction for the incomplete beta (modified Lentz)
    max_iter = 300
    eps = 3e-16
    fpmin = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < fpmin:
        d = fpmin
    d = 1.0 / d
    h = d
    for m in range(1, max_iter + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < fpmin:
            d = fpmin
        c = 1.0 + aa / c
        if abs(c) < fpmin:
            c = fpmin
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < eps:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """I_x(a, b) for a, b > 0 and x in [0, 1]."""
    if a <= 0 or b <= 0:
        raise ValueError("shape parameters must be positive")
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x must be in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_two_sided_p(t: float, df: float) -> float:
    """P(|T| >= |t|) for Student's t with df degrees of freedom."""
    if df <= 0:
        raise ValueError(f"df must be > 0, got {df}")
    if t == 0.0:
        return 1.0
    return regularized_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


def welch_t_test(a: GroupStats, b: GroupStats) -> tuple[float, float, float]:
    """(t, df, two-sided p) without the equal-variance assumption."""
    if a.n < 2 or b.n < 2:
        raise ValueError(f"welch_t_test needs n >= 2 in both groups, got {a.n}/{b.n}")
    if a.variance == 0.0 and b.variance == 0.0:
        raise ValueError("both variances are zero; t is undefined")
    va_n = a.variance / a.n
    vb_n = b.variance / b.n
    se2 = va_n + vb_n
    t = (a.mean - b.mean) / math.sqrt(se2)
    df = se2 * se2 / (va_n * va_n / (a.n - 1) + vb_n * vb_n / (b.n - 1))
    return t, df, student_t_two_sided_p(t, df)
