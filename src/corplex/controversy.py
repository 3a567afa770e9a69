"""Revert detection and the edit-war controversy score for one page history.

A revert is an edit whose text is identical (exact text equality) to some
earlier, non-adjacent revision; the adjacent-duplicate case is a null edit,
not a revert.  A bytes text equals the str it decodes to as UTF-8.  The
score multiplies the distinct-editor count by the summed weights of mutually
reverting editor pairs, after dropping the single heaviest pair.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple, Sequence


class RevertEvent(NamedTuple):
    restored_rev: int
    reverting_rev: int
    reverting_editor: str
    reverted_editor: str
    self_revert: bool


class ControversyScore(NamedTuple):
    M: int
    E: int
    pairs: tuple[tuple[str, str, int], ...]  # (editor_x, editor_y, weight), x < y
    excluded_pair: tuple[str, str, int] | None
    events: tuple[RevertEvent, ...]


def detect_reverts(history: Sequence, match_policy: str = "latest") -> list[RevertEvent]:
    """Find all reverts in an ordered history.

    Revision k reverts iff an earlier revision i < k-1 carries an identical
    text; match_policy picks the restored revision among several matches
    (latest by default).  The reverted editor is the author of revision k-1,
    the edit the revert directly undoes.  Self-reverts are returned flagged,
    so scoring can ignore them without losing the record.
    """
    if match_policy not in ("latest", "earliest"):
        raise ValueError(f"bad match_policy {match_policy!r}")
    history = list(history)
    for prev, cur in zip(history, history[1:]):
        if cur.rev_index <= prev.rev_index:
            raise ValueError("history is not sorted by rev_index")
    events: list[RevertEvent] = []
    # per text: the first position and the last two, which is all that
    # "latest" and "earliest" need, since only pos - 1 is ever excluded.
    # Keyed on the texts themselves, not copies; a str caches its hash.
    seen: dict[str | bytes, tuple[int, int | None, int]] = {}
    for pos, rev in enumerate(history):
        text = rev.raw_text
        if isinstance(text, bytes):
            try:
                text = text.decode("utf-8")
            except UnicodeDecodeError:
                pass  # no str encodes to it, so it keys as itself
        prior = seen.get(text)
        i = None
        if prior is not None:
            first, second_last, last = prior
            if match_policy == "latest":
                i = last if last < pos - 1 else second_last
            elif first < pos - 1:
                i = first
        if i is not None:
            reverted = history[pos - 1].editor
            events.append(
                RevertEvent(
                    restored_rev=history[i].rev_index,
                    reverting_rev=rev.rev_index,
                    reverting_editor=rev.editor,
                    reverted_editor=reverted,
                    self_revert=rev.editor == reverted,
                )
            )
        seen[text] = (pos, None, pos) if prior is None else (prior[0], prior[2], pos)
    return events


def controversy_m(history: Sequence, match_policy: str = "latest") -> ControversyScore:
    """Score one page: M = E * (sum of mutual-pair weights - heaviest weight).

    A pair {x, y} is mutual when x reverted y and y reverted x (self-reverts
    never count); its weight is min of the two editors' edit counts on the
    page.  With at most one mutual pair the excluded heaviest pair is the
    whole sum, so M = 0.  Weight ties exclude the lexicographically least
    editor pair.
    """
    history = list(history)
    if not history:
        raise ValueError("controversy_m needs a non-empty history")
    events = detect_reverts(history, match_policy)
    edit_counts = Counter(rev.editor for rev in history)
    directed = {(e.reverting_editor, e.reverted_editor) for e in events if not e.self_revert}
    mutual: list[tuple[str, str, int]] = []
    for x, y in directed:
        if x < y and (y, x) in directed:
            mutual.append((x, y, min(edit_counts[x], edit_counts[y])))
    mutual.sort(key=lambda p: (-p[2], p[0], p[1]))
    if mutual:
        excluded = mutual[0]  # heaviest; ties resolved to the least name pair
        m_value = len(edit_counts) * (sum(w for _, _, w in mutual) - excluded[2])
    else:
        excluded = None
        m_value = 0
    return ControversyScore(
        M=m_value,
        E=len(edit_counts),
        pairs=tuple(mutual),
        excluded_pair=excluded,
        events=tuple(events),
    )
