"""Porter suffix-stripping stemmer.

Implements the classic five-step algorithm over the consonant/vowel measure
m, where every word has the form [C](VC)^m[V].  Within a step the longest
matching suffix decides the rule; if that rule's condition fails, no shorter
suffix in the same step is tried.  Words of length <= 2 are left alone.
porter_stem keeps no cache of its own: textpipe.stem_token stems each
surface once per process.
"""

from __future__ import annotations

_VOWELS = "aeiou"


def _is_cons(word: str, i: int) -> bool:
    ch = word[i]
    if ch in _VOWELS:
        return False
    if ch == "y":
        return i == 0 or not _is_cons(word, i - 1)
    return True


def _measure(stem: str) -> int:
    n = len(stem)
    i = 0
    while i < n and _is_cons(stem, i):
        i += 1
    m = 0
    while i < n:
        while i < n and not _is_cons(stem, i):
            i += 1
        if i >= n:
            break
        m += 1
        while i < n and _is_cons(stem, i):
            i += 1
    return m


def _has_vowel(stem: str) -> bool:
    return any(not _is_cons(stem, i) for i in range(len(stem)))


def _ends_double_cons(stem: str) -> bool:
    return (
        len(stem) >= 2
        and stem[-1] == stem[-2]
        and _is_cons(stem, len(stem) - 1)
    )


def _ends_cvc(stem: str) -> bool:
    # consonant-vowel-consonant, final consonant not w, x or y
    if len(stem) < 3:
        return False
    n = len(stem)
    return (
        _is_cons(stem, n - 3)
        and not _is_cons(stem, n - 2)
        and _is_cons(stem, n - 1)
        and stem[-1] not in "wxy"
    )


def _step1a(w: str) -> str:
    if w.endswith("sses"):
        return w[:-2]
    if w.endswith("ies"):
        return w[:-2]
    if w.endswith("ss"):
        return w
    if w.endswith("s"):
        return w[:-1]
    return w


def _step1b(w: str) -> str:
    if w.endswith("eed"):
        if _measure(w[:-3]) > 0:
            return w[:-1]
        return w
    removed = False
    if w.endswith("ed") and _has_vowel(w[:-2]):
        w = w[:-2]
        removed = True
    elif w.endswith("ing") and _has_vowel(w[:-3]):
        w = w[:-3]
        removed = True
    if removed:
        if w.endswith(("at", "bl", "iz")):
            return w + "e"
        if _ends_double_cons(w) and w[-1] not in "lsz":
            return w[:-1]
        if _measure(w) == 1 and _ends_cvc(w):
            return w + "e"
    return w


def _step1c(w: str) -> str:
    if w.endswith("y") and _has_vowel(w[:-1]):
        return w[:-1] + "i"
    return w


_STEP2 = (
    ("ational", "ate"),
    ("tional", "tion"),
    ("enci", "ence"),
    ("anci", "ance"),
    ("izer", "ize"),
    ("abli", "able"),
    ("alli", "al"),
    ("entli", "ent"),
    ("eli", "e"),
    ("ousli", "ous"),
    ("ization", "ize"),
    ("ation", "ate"),
    ("ator", "ate"),
    ("alism", "al"),
    ("iveness", "ive"),
    ("fulness", "ful"),
    ("ousness", "ous"),
    ("aliti", "al"),
    ("iviti", "ive"),
    ("biliti", "ble"),
)

_STEP3 = (
    ("icate", "ic"),
    ("ative", ""),
    ("alize", "al"),
    ("iciti", "ic"),
    ("ical", "ic"),
    ("ful", ""),
    ("ness", ""),
)

_STEP4 = (
    "ement",
    "ance",
    "ence",
    "able",
    "ible",
    "ment",
    "ant",
    "ent",
    "ion",
    "ism",
    "ate",
    "iti",
    "ous",
    "ive",
    "ize",
    "al",
    "er",
    "ic",
    "ou",
)


def _longest_first(rules):
    return sorted(rules, key=lambda r: -len(r[0] if isinstance(r, tuple) else r))


_STEP2_ORDERED = _longest_first(_STEP2)
_STEP3_ORDERED = _longest_first(_STEP3)
_STEP4_ORDERED = _longest_first(_STEP4)
# one C-level endswith per step passes the words that match no suffix at all
_STEP2_ANY = tuple(suffix for suffix, _ in _STEP2)
_STEP3_ANY = tuple(suffix for suffix, _ in _STEP3)
_STEP4_ANY = tuple(_STEP4)


def _map_suffix(w: str, rules, min_measure: int) -> str:
    for suffix, replacement in rules:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > min_measure:
                return stem + replacement
            return w
    return w


def _step2(w: str) -> str:
    if not w.endswith(_STEP2_ANY):
        return w
    return _map_suffix(w, _STEP2_ORDERED, 0)


def _step3(w: str) -> str:
    if not w.endswith(_STEP3_ANY):
        return w
    return _map_suffix(w, _STEP3_ORDERED, 0)


def _step4(w: str) -> str:
    if not w.endswith(_STEP4_ANY):
        return w
    for suffix in _STEP4_ORDERED:
        if w.endswith(suffix):
            stem = w[: len(w) - len(suffix)]
            if _measure(stem) > 1:
                if suffix == "ion" and not stem.endswith(("s", "t")):
                    return w
                return stem
            return w
    return w


def _step5(w: str) -> str:
    if w.endswith("e"):
        stem = w[:-1]
        m = _measure(stem)
        if m > 1 or (m == 1 and not _ends_cvc(stem)):
            w = stem
    if _measure(w) > 1 and _ends_double_cons(w) and w[-1] == "l":
        w = w[:-1]
    return w


def porter_stem(word: str) -> str:
    """Stem a word; non-alphabetic input comes back unchanged.

    Folds to lowercase internally, so inflectional variants of the same
    lexeme share one stem regardless of surface case.
    """
    if not word:
        return word
    folded = word.lower()
    if not folded.isalpha():
        return word
    if len(folded) <= 2:
        return folded
    w = _step1a(folded)
    w = _step1b(w)
    w = _step1c(w)
    w = _step2(w)
    w = _step3(w)
    w = _step4(w)
    return _step5(w)
