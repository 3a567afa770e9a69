"""Deterministic tokenization, sentence splitting, punctuation filtering,
syllable counting, and the per-type record every measure reads.

Tokenizing and splitting are pure and order-preserving.  The punctuation set
is the nine characters ,.?();"!: and nothing else; hyphens and apostrophes
stay inside tokens.

Three process-wide tables hold one entry per token type, so the work done
for a type is done once however many corpora, conditions and documents it
turns up in:

- the interning table, surface -> Token, so equal tokens share one object;
- the record table, Token -> TypeFacts: the lowercase form (the surface
  object itself when already lowercase), the word length, the subsentence
  separator count, the punctuation flag and the complex-word flag.  Folding,
  corpus ratios, V, N, entropies and fog all read it;
- the stem table, surface -> the Porter stem's Token.

Each is a plain dict cleared when it reaches TYPE_TABLE_SIZE entries, which
bounds memory; a cleared entry is computed again, with the same result.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain
from typing import Iterable, NamedTuple

from .porter import porter_stem

WORD = "word"
PUNCTUATION = "punctuation"
NUMBER = "number"

# The nine punctuation characters stripped under N conditions.
PUNCT_CHARS = ',.?();"!:'
_PUNCT_SET = frozenset(PUNCT_CHARS)

# Characters that delimit subsentences (commas, colons, semicolons, parens,
# quotation marks).  Sentence terminators are deliberately not in this set.
SUBSENTENCE_SEPARATORS = frozenset(',:;()"')

_CLITIC_RE = re.compile(r"(?i)(n't|'s|'re|'ve|'ll|'d|'m)$")


class Token(NamedTuple):
    surface: str
    kind: str


class Sentence(NamedTuple):
    tokens: tuple[Token, ...]

    def surfaces(self) -> tuple[str, ...]:
        return tuple(t.surface for t in self.tokens)


def classify(surface: str) -> str:
    """Token kind: word if it has a letter, number if it has a digit, else punctuation."""
    if any(c.isalpha() for c in surface):
        return WORD
    if any(c.isdigit() for c in surface):
        return NUMBER
    return PUNCTUATION


#: entries a per-type table holds before it is cleared
TYPE_TABLE_SIZE = 65536


def _store(table: dict, key, value):
    """table[key] = value, the table cleared first when it is full; returns value."""
    if len(table) >= TYPE_TABLE_SIZE:
        table.clear()
    table[key] = value
    return value


# one shared Token per type, so cached sentences cost a reference per token
_TOKENS: dict[str, Token] = {}


def _token(surface: str) -> Token:
    # a Token, a TypeFacts and a stem Token are non-empty tuples, never falsy
    return _TOKENS.get(surface) or _store(_TOKENS, surface, Token(surface, classify(surface)))


def tokenize(text: str) -> list[Token]:
    """Split text into tokens.

    Whitespace separates chunks; leading and trailing characters from the
    nine-character punctuation set are peeled off into their own tokens, and
    clitics ('s, n't, 're, 've, 'll, 'd, 'm) become separate tokens.  Internal
    punctuation stays put, so hyphenated words and decimal numbers survive
    whole.
    """
    out: list[Token] = []
    append = out.append
    for chunk in text.split():
        prefix = []
        i, j = 0, len(chunk)
        while i < j and chunk[i] in _PUNCT_SET:
            prefix.append(chunk[i])
            i += 1
        suffix = []
        while j > i and chunk[j - 1] in _PUNCT_SET:
            suffix.append(chunk[j - 1])
            j -= 1
        for ch in prefix:
            append(_token(ch))
        core = chunk[i:j]
        if core:
            if "'" in core:
                m = _CLITIC_RE.search(core)
                if m and m.start() > 0:
                    append(_token(core[: m.start()]))
                    append(_token(core[m.start():]))
                else:
                    append(_token(core))
            else:
                append(_token(core))
        for ch in reversed(suffix):
            append(_token(ch))
    return out


def detokenize(tokens: Iterable[Token]) -> str:
    return " ".join(t.surface for t in tokens)


# Abbreviations whose trailing period does not end a sentence.  Stored without
# the period, lowercase, matching the token that precedes a "." token.
ABBREVIATIONS = frozenset(
    """
    dr mr mrs ms prof rev fr pres gov sen rep gen col maj capt lt sgt adm cmdr
    hon jr sr st ave blvd rd mt ft
    jan feb mar apr jun jul aug sep sept oct nov dec
    etc vs cf al ca approx no vol pp p ed eds fig figs
    dept univ inc ltd co corp bros
    e.g i.e u.s u.k a.m p.m ph.d b.c a.d
    """.split()
)

_TERMINATORS = frozenset(".!?")


def _ends_sentence(prev: Token | None, punct: Token) -> bool:
    if punct.surface not in _TERMINATORS:
        return False
    if punct.surface != ".":
        return True
    if prev is None:
        return True
    p = prev.surface
    if p.lower() in ABBREVIATIONS:
        return False
    if len(p) == 1 and p.isalpha() and p.isupper():
        return False
    return True


def split_sentences(tokens_or_text: str | list[Token]) -> list[Sentence]:
    """Partition a token stream into sentences.

    Boundaries fall after ., ! and ? tokens, except when the preceding token
    is a known abbreviation or a single-capital initial.  A trailing fragment
    without terminal punctuation becomes a final sentence.
    """
    if isinstance(tokens_or_text, str):
        tokens = tokenize(tokens_or_text)
    else:
        tokens = tokens_or_text
    sentences: list[Sentence] = []
    current: list[Token] = []
    prev: Token | None = None
    for tok in tokens:
        current.append(tok)
        if tok.kind == PUNCTUATION and _ends_sentence(prev, tok):
            sentences.append(Sentence(tuple(current)))
            current = []
        prev = tok
    if current:
        sentences.append(Sentence(tuple(current)))
    return sentences


def is_punctuation_mark(tok: Token) -> bool:
    """A punctuation token made up of the nine-character set: what N strips."""
    return tok.kind == PUNCTUATION and all(c in _PUNCT_SET for c in tok.surface)


def filter_punctuation(tokens: Iterable[Token]) -> list[Token]:
    """Drop punctuation tokens made up of the nine-character set; keep the rest."""
    return [t for t in tokens if not is_punctuation_mark(t)]


def type_counts(sentences: Iterable[Sentence]) -> Counter:
    """Token type -> number of occurrences over a sentence list."""
    return Counter(chain.from_iterable(s.tokens for s in sentences))


# Words the vowel-group heuristic gets wrong by more than rounding.
_SYLLABLE_EXCEPTIONS = {
    "every": 2,
    "everywhere": 3,
    "everyone": 3,
    "everything": 3,
    "different": 3,
    "interesting": 4,
    "evening": 2,
    "family": 3,
    "business": 2,
    "science": 2,
    "area": 3,
    "idea": 3,
    "real": 2,
    "being": 2,
    "doing": 2,
    "going": 2,
    "seeing": 2,
    "quiet": 2,
    "create": 2,
    "poem": 2,
    "dial": 2,
}

_VOWEL_GROUP_RE = re.compile(r"[aeiouy]+")


def count_syllables(word: str) -> int:
    """Approximate syllable count: maximal vowel groups, silent final e
    subtracted (unless the word ends in consonant + 'le'), clamped to >= 1.
    """
    w = word.lower()
    if w in _SYLLABLE_EXCEPTIONS:
        return _SYLLABLE_EXCEPTIONS[w]
    groups = _VOWEL_GROUP_RE.findall(w)
    count = len(groups)
    if count == 0:
        return 1
    if count > 1 and w.endswith("e") and not w.endswith("ee"):
        if w.endswith("le") and len(w) >= 3 and w[-3] not in "aeiouy":
            pass  # audible 'le' as in table, little
        elif groups[-1] == "e":
            count -= 1
    return max(count, 1)


def is_complex_word(word: str) -> bool:
    """Three or more syllables."""
    return count_syllables(word) >= 3


class TypeFacts(NamedTuple):
    """What every measure needs to know about one token type."""

    lower: str  # the surface lowercased; the surface object itself if already lowercase
    word_length: int  # characters of a word-kind token, 0 for any other kind
    separators: int  # subsentence separators in a punctuation token, else 0
    punctuation: bool  # kind is PUNCTUATION
    complex: bool  # a word of three or more syllables


_FACTS: dict[Token, TypeFacts] = {}


def _facts(tok: Token) -> TypeFacts:
    surface, kind = tok
    lower = surface.lower()
    if lower == surface:
        lower = surface  # one string object for the surface and its folded form
    is_word = kind == WORD
    is_punct = kind == PUNCTUATION
    return TypeFacts(
        lower,
        len(surface) if is_word else 0,
        sum(ch in SUBSENTENCE_SEPARATORS for ch in surface) if is_punct else 0,
        is_punct,
        is_word and is_complex_word(surface),
    )


def type_facts(tok: Token) -> TypeFacts:
    """The token type's record, made the first time the type turns up."""
    return _FACTS.get(tok) or _store(_FACTS, tok, _facts(tok))


_STEMS: dict[str, Token] = {}


def stem_token(surface: str) -> Token:
    """The Token of porter_stem(surface) for a word, computed once per surface.

    A word's stem is a word: the stem of an alphabetic word is alphabetic,
    and any other word comes back unchanged.
    """
    return _STEMS.get(surface) or _store(_STEMS, surface, _token(porter_stem(surface)))
