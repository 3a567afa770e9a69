import hashlib
import random
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from corplex.controversy import controversy_m, detect_reverts, score_pages

Rev = namedtuple("Rev", "page_id rev_index timestamp editor raw_text")


def history(*specs):
    return [
        Rev("p", i, f"2008-01-{i+1:02d}T00:00:00+00:00", editor, text)
        for i, (editor, text) in enumerate(specs)
    ]


class TestDetectReverts:
    def test_simple_revert(self):
        events = detect_reverts(history(("A", "x"), ("B", "y"), ("A", "x")))
        assert len(events) == 1
        e = events[0]
        assert (e.restored_rev, e.reverting_rev) == (0, 2)
        assert (e.reverting_editor, e.reverted_editor) == ("A", "B")
        assert not e.self_revert

    def test_null_edit_not_revert(self):
        assert detect_reverts(history(("A", "x"), ("A", "x"))) == []
        assert detect_reverts(history(("A", "x"), ("B", "x"))) == []

    def test_all_distinct(self):
        assert detect_reverts(history(("A", "1"), ("B", "2"), ("C", "3"))) == []

    def test_self_revert_flagged(self):
        events = detect_reverts(history(("A", "x"), ("A", "y"), ("A", "x")))
        assert len(events) == 1
        assert events[0].self_revert

    def test_latest_match_policy(self):
        h = history(("A", "x"), ("B", "y"), ("C", "x"), ("D", "z"), ("E", "x"))
        latest = detect_reverts(h, "latest")
        earliest = detect_reverts(h, "earliest")
        # rev 4 can restore rev 0 or rev 2
        assert latest[-1].restored_rev == 2
        assert earliest[-1].restored_rev == 0
        # the reverted editor is rev 3's author either way
        assert latest[-1].reverted_editor == "D"
        assert earliest[-1].reverted_editor == "D"

    def test_unsorted_rejected(self):
        h = history(("A", "x"), ("B", "y"))
        h.reverse()
        with pytest.raises(ValueError):
            detect_reverts(h)

    def test_bytes_and_str_hash_alike(self):
        h = [
            Rev("p", 0, "t", "A", "same"),
            Rev("p", 1, "t", "B", b"other"),
            Rev("p", 2, "t", "C", b"same"),
        ]
        events = detect_reverts(h)
        assert len(events) == 1
        assert events[0].restored_rev == 0


class TestControversyM:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            controversy_m([])

    def test_no_reverts_zero(self):
        score = controversy_m(history(("A", "1"), ("B", "2")))
        assert score.M == 0
        assert score.pairs == ()
        assert score.excluded_pair is None

    def test_single_pair_zero(self):
        # A and B revert each other once: the only pair is the topmost
        h = history(("A", "x"), ("B", "y"), ("A", "x"), ("B", "y"), ("A", "x"))
        score = controversy_m(h)
        assert len(score.pairs) == 1
        assert score.M == 0

    def test_worked_example(self):
        # A(5), B(3), C(4), D(2); mutual {A,B} w=3, {C,D} w=2 -> M = 4*2 = 8
        h = history(
            ("A", "p"), ("B", "q"), ("A", "p"),   # A reverts B
            ("B", "r"), ("A", "s"), ("B", "r"),   # B reverts A
            ("C", "u"), ("D", "v"), ("C", "u"),   # C reverts D
            ("C", "x"), ("D", "v"),               # D reverts C
            ("C", "y"), ("A", "z1"), ("A", "z2"),
        )
        counts = {}
        for r in h:
            counts[r.editor] = counts.get(r.editor, 0) + 1
        assert counts == {"A": 5, "B": 3, "C": 4, "D": 2}
        score = controversy_m(h)
        weights = {(x, y): w for x, y, w in score.pairs}
        assert weights == {("A", "B"): 3, ("C", "D"): 2}
        assert score.excluded_pair == ("A", "B", 3)
        assert score.E == 4
        assert score.M == 8

    def test_self_reverts_never_pair(self):
        h = history(("A", "x"), ("A", "y"), ("A", "x"), ("B", "z"))
        score = controversy_m(h)
        assert score.pairs == ()
        assert score.M == 0
        assert any(e.self_revert for e in score.events)

    def test_tie_excludes_lexicographically_least(self):
        # two pairs of equal weight; {A,B} < {C,D}
        h = history(
            ("A", "a"), ("B", "b"), ("A", "a"), ("B", "b2"), ("A", "a2"), ("B", "b2"),
            ("C", "c"), ("D", "d"), ("C", "c"), ("D", "d2"), ("C", "c2"), ("D", "d2"),
        )
        score = controversy_m(h)
        assert {w for _, _, w in score.pairs} == {3}
        assert score.excluded_pair[:2] == ("A", "B")
        assert score.M == 4 * 3

    def test_new_editor_scales_m(self):
        h = history(
            ("A", "a"), ("B", "b"), ("A", "a"), ("B", "b2"), ("A", "a2"), ("B", "b2"),
            ("C", "c"), ("D", "d"), ("C", "c"), ("D", "d2"), ("C", "c2"), ("D", "d2"),
        )
        base = controversy_m(h)
        grown = controversy_m(h + [Rev("p", 99, "t", "Z", "fresh text")])
        assert grown.E == base.E + 1
        assert grown.M * base.E == base.M * grown.E

    def test_score_pages_order(self):
        pages = [("p1", history(("A", "x"))), ("p2", history(("B", "y")))]
        scored = score_pages(pages)
        assert [pid for pid, _ in scored] == ["p1", "p2"]


def brute_force_m(h, match_policy="latest"):
    """Independent reference: direct O(k^2) text comparison, explicit pairing."""
    events = []
    for k in range(len(h)):
        matches = [i for i in range(k - 1) if h[i].raw_text == h[k].raw_text]
        if matches:
            i = matches[-1] if match_policy == "latest" else matches[0]
            events.append((i, k, h[k].editor, h[k - 1].editor))
    counts = {}
    for r in h:
        counts[r.editor] = counts.get(r.editor, 0) + 1
    editors = sorted(counts)
    pairs = []
    for xi in range(len(editors)):
        for yi in range(xi + 1, len(editors)):
            x, y = editors[xi], editors[yi]
            x_rev_y = any(e[2] == x and e[3] == y and x != y for e in events)
            y_rev_x = any(e[2] == y and e[3] == x for e in events)
            if x_rev_y and y_rev_x:
                pairs.append((x, y, min(counts[x], counts[y])))
    if not pairs:
        return 0
    top_w = max(p[2] for p in pairs)
    top = min((p for p in pairs if p[2] == top_w), key=lambda p: (p[0], p[1]))
    return len(editors) * (sum(p[2] for p in pairs) - top[2])


class TestOracle:
    def test_random_histories_match(self):
        prng = random.Random(2024)
        editors = ["A", "B", "C", "D", "E"]
        texts = ["t1", "t2", "t3"]
        for _ in range(300):
            n = prng.randint(1, 20)
            h = history(*[(prng.choice(editors), prng.choice(texts)) for _ in range(n)])
            for policy in ("latest", "earliest"):
                assert controversy_m(h, policy).M == brute_force_m(h, policy)


def old_detect_reverts(h, match_policy):
    """The match rule as first written: rescan every earlier position per hash."""
    events = []
    seen = {}
    for pos, rev in enumerate(h):
        matches = [i for i in seen.get(rev.raw_text, []) if i < pos - 1]
        if matches:
            i = max(matches) if match_policy == "latest" else min(matches)
            reverted = h[pos - 1].editor
            events.append((h[i].rev_index, rev.rev_index, rev.editor, reverted, rev.editor == reverted))
        seen.setdefault(rev.raw_text, []).append(pos)
    return events


class TestDetectRevertsMatchesOracle:
    @given(
        st.lists(st.tuples(st.sampled_from("ABCD"), st.sampled_from(["x", "y", "z", "w"])), max_size=60),
        st.sampled_from(["latest", "earliest"]),
    )
    @settings(max_examples=400)
    def test_random_histories(self, specs, policy):
        h = history(*specs)
        assert [tuple(e) for e in detect_reverts(h, policy)] == old_detect_reverts(h, policy)

    @pytest.mark.parametrize("policy", ["latest", "earliest"])
    def test_ping_pong(self, policy):
        h = history(*[("AB"[k % 2], "xy"[k % 2]) for k in range(200)])
        assert [tuple(e) for e in detect_reverts(h, policy)] == old_detect_reverts(h, policy)

    @pytest.mark.parametrize("policy", ["latest", "earliest"])
    def test_null_edit_runs(self, policy):
        # repeats of the previous text are null edits, never their own match
        h = history(("A", "x"), ("B", "x"), ("C", "x"), ("D", "y"), ("A", "x"), ("B", "x"))
        assert [tuple(e) for e in detect_reverts(h, policy)] == old_detect_reverts(h, policy)


def md5_detect_reverts(history, match_policy):
    """detect_reverts as it was: its texts keyed by the MD5 of their UTF-8 bytes."""
    def text_hash(raw_text):
        data = raw_text if isinstance(raw_text, bytes) else raw_text.encode("utf-8")
        return hashlib.md5(data).hexdigest()

    events = []
    seen = {}
    for pos, rev in enumerate(history):
        digest = text_hash(rev.raw_text)
        prior = seen.get(digest)
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
                (history[i].rev_index, rev.rev_index, rev.editor, reverted, rev.editor == reverted)
            )
        seen[digest] = (pos, None, pos) if prior is None else (prior[0], prior[2], pos)
    return events


# str texts, their UTF-8 bytes, and bytes that are not UTF-8 (a lone
# continuation byte, a cut sequence, a Latin-1 byte, an encoded surrogate)
STR_TEXTS = ["x", "y", "", "caf\u00e9", "\u00e9", "\U0001f600", "caf"]
MIXED_TEXTS = STR_TEXTS + [t.encode("utf-8") for t in STR_TEXTS] + [
    b"\x80", b"caf\xc3", b"caf\xe9", b"\xed\xa0\x80", b"\xff\xfe",
]


class TestRevertsMatchMd5Rule:
    @given(
        st.lists(st.tuples(st.sampled_from("ABC"), st.sampled_from(MIXED_TEXTS)), max_size=60),
        st.sampled_from(["latest", "earliest"]),
    )
    @settings(max_examples=600)
    def test_mixed_str_and_bytes(self, specs, policy):
        h = history(*specs)
        assert [tuple(e) for e in detect_reverts(h, policy)] == md5_detect_reverts(h, policy)

    @given(
        st.lists(
            st.tuples(st.sampled_from("ABC"), st.one_of(st.text(max_size=3), st.binary(max_size=2))),
            max_size=40,
        ),
        st.sampled_from(["latest", "earliest"]),
    )
    @settings(max_examples=400)
    def test_arbitrary_texts(self, specs, policy):
        h = history(*specs)
        assert [tuple(e) for e in detect_reverts(h, policy)] == md5_detect_reverts(h, policy)

    def test_invalid_utf8_matches_only_itself(self):
        h = history(("A", b"caf\xe9"), ("B", "x"), ("C", "caf\u00e9"), ("D", b"caf\xe9"))
        assert [(e.restored_rev, e.reverting_rev) for e in detect_reverts(h)] == [(0, 3)]
