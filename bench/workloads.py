"""Seeded input generators for the three CLI workloads, with their oracles.

Each generator writes the files the program reads and returns an oracle:
what the generator itself knows the output must be.  Sizes and shapes are
fixed (page counts, vandalised page lengths, edit-war history lengths); the
seed chooses only the content, so every seed asks the same amount of work.
The program never sees an oracle.
"""

from __future__ import annotations

import bisect
import itertools
import json
import random
from collections import Counter
from datetime import datetime, timedelta, timezone
from xml.sax.saxutils import escape

# Abbreviations written inside sentences, and the sentence splitter's own
# list (corplex.textpipe.ABBREVIATIONS, copied so the oracle does not lean on
# the program).  No vocabulary word is one of them or a single letter, so a
# word before a terminator always ends its sentence.
_ABBREVIATIONS = ("Dr", "Mr", "Mrs", "Prof", "St", "e.g", "i.e", "etc", "vs", "approx", "Jan", "Oct")
_SPLITTER_ABBREVIATIONS = frozenset(
    """
    dr mr mrs ms prof rev fr pres gov sen rep gen col maj capt lt sgt adm cmdr
    hon jr sr st ave blvd rd mt ft
    jan feb mar apr jun jul aug sep sept oct nov dec
    etc vs cf al ca approx no vol pp p ed eds fig figs
    dept univ inc ltd co corp bros
    e.g i.e u.s u.k a.m p.m ph.d b.c a.d
    """.split()
)

_ONSETS = "b c d f g h k l m n p r s t v w z br cr dr fl gr pl pr sh st th tr ch".split()
_VOWELS = "a e i o u ai ea ou io ie".split()
_CODAS = ["", "", "", "n", "r", "s", "t", "l", "m", "nd", "st", "ng", "ck"]

WORD, NUMBER, PUNCT = "word", "number", "punct"


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    """`size` distinct lowercase pseudo-words, frequent ranks shortest."""
    seen: set[str] = set()
    words: list[str] = []
    while len(words) < size:
        n_syl = min(1 + int(rng.expovariate(0.7)), 7)
        w = "".join(
            rng.choice(_ONSETS) + rng.choice(_VOWELS) + rng.choice(_CODAS) for _ in range(n_syl)
        )
        if len(w) < 2 or w in seen or w in _SPLITTER_ABBREVIATIONS:
            continue
        seen.add(w)
        words.append(w)
    words.sort(key=len)
    return words


# one fixed language for every seed: the seed picks the text, not the words,
# so no seed gets a cheaper vocabulary than another
VOCABULARY = make_vocabulary(random.Random("vocabulary"), 50_000)


class Zipf:
    """Draws vocabulary words with probability proportional to 1/rank."""

    def __init__(self, words: list[str]):
        self.words = words
        self._cum = list(itertools.accumulate(1.0 / (r + 1) for r in range(len(words))))

    def draw(self, rng: random.Random) -> str:
        return self.words[bisect.bisect(self._cum, rng.random() * self._cum[-1])]


# ---------------------------------------------------------------------------
# compare: two JSONL corpora with known tokenization


def _sentence_tokens(rng: random.Random, zipf: Zipf) -> list[tuple[str, str, str]]:
    """One sentence as (surface, kind, glue) tokens.

    glue is how the renderer joins the token: "space" before it, "left"
    (attached to the token before: clitics and closing punctuation) or
    "open" (an opening mark; the next token attaches to it).
    """
    toks: list[tuple[str, str, str]] = []
    n = rng.randint(5, 24)
    i = 0
    while i < n:
        roll = rng.random()
        if roll < 0.03 and i > 0:
            toks.append((rng.choice(_ABBREVIATIONS), WORD, "space"))
            toks.append((".", PUNCT, "left"))
        elif roll < 0.045 and i > 0:
            toks.append((rng.choice("ABCDEFGHJKLMNPRSTW"), WORD, "space"))
            toks.append((".", PUNCT, "left"))
        elif roll < 0.075:
            form = rng.random()
            if form < 0.6:
                num = str(rng.randint(1, 2020))
            elif form < 0.8:
                num = f"{rng.randint(0, 99)}.{rng.randint(0, 9)}"
            else:
                num = f"{rng.randint(1, 999)},{rng.randint(0, 999):03d}"
            toks.append((num, NUMBER, "space"))
        elif roll < 0.09:
            toks.append((zipf.draw(rng) + "-" + zipf.draw(rng), WORD, "space"))
        elif roll < 0.10 and n - i > 3:
            opener, closer = rng.choice((("(", ")"), ('"', '"')))
            toks.append((opener, PUNCT, "open"))
            for _ in range(rng.randint(1, 3)):
                toks.append((zipf.draw(rng), WORD, "space"))
                i += 1
            toks.append((closer, PUNCT, "left"))
        else:
            toks.append((zipf.draw(rng), WORD, "space"))
            if rng.random() < 0.04:
                toks.append((rng.choice(("'s", "n't", "'re", "'ll", "'d", "'ve", "'m")), WORD, "left"))
            if rng.random() < 0.09 and i < n - 1:
                toks.append((rng.choice((",", ",", ",", ";", ":")), PUNCT, "left"))
        i += 1
    # the last token before the terminator must end the sentence: never an
    # abbreviation or an initial
    if toks[-1][0] == "." or toks[-1][2] == "open":
        toks.append((zipf.draw(rng), WORD, "space"))
    if toks[0][1] == WORD and toks[0][2] == "space":
        toks[0] = (toks[0][0][:1].upper() + toks[0][0][1:], WORD, "space")
    toks.append((rng.choice(".........!?"), PUNCT, "left"))
    return toks


def render_tokens(toks) -> str:
    parts: list[str] = []
    attach_next = True
    for surface, _kind, glue in toks:
        if glue != "left" and not attach_next:
            parts.append(" ")
        parts.append(surface)
        attach_next = glue == "open"
    return "".join(parts)


def _corpus(rng, zipf, n_docs, words_per_doc, prefix):
    """Documents as lists of lines; each line is (text, tokens, sentences)."""
    docs = []
    for d in range(n_docs):
        lines = []
        words = 0
        while words < words_per_doc:
            toks: list = []
            n_sent = rng.randint(1, 4)
            for _ in range(n_sent):
                toks.extend(_sentence_tokens(rng, zipf))
            text = render_tokens(toks)
            words += len(text.split())
            lines.append((text, [(s, k) for s, k, _ in toks], n_sent))
        docs.append((f"{prefix}{d:04d}", f"{prefix} article {d} {zipf.draw(rng)}", lines))
    return docs


def _write_jsonl(path, docs) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        for doc_id, title, lines in docs:
            text = "\n".join(t for t, _, _ in lines)
            fp.write(json.dumps({"id": doc_id, "title": title, "text": text}, ensure_ascii=False))
            fp.write("\n")


# 10k words of A: one fresh-process compare then takes ~4 s on a 2-CPU box,
# so a 32 s run holds about seven of them
COMPARE_DOCS_A = 20


def generate_compare(seed: int, workdir) -> dict:
    """Corpus A: 20 documents of ~500 words; corpus B: 60 of the same size."""
    rng = random.Random(f"compare/{seed}")
    zipf = Zipf(VOCABULARY)
    docs_a = _corpus(rng, zipf, COMPARE_DOCS_A, 500, "A")
    docs_b = _corpus(rng, zipf, 3 * COMPARE_DOCS_A, 500, "B")
    path_a, path_b = workdir / "a.jsonl", workdir / "b.jsonl"
    _write_jsonl(path_a, docs_a)
    _write_jsonl(path_b, docs_b)
    return {
        "inputs": [str(path_a), str(path_b)],
        "oracle": {
            "a_docs": len(docs_a),
            "a_words": sum(len(t.split()) for _, _, lines in docs_a for t, _, _ in lines),
            "a_chars": sum(len(t) for _, _, lines in docs_a for t, _, _ in lines),
            "a_tokens": [tok for _, _, lines in docs_a for _, toks, _ in lines for tok in toks],
            "a_sentences": sum(n for _, _, lines in docs_a for _, _, n in lines),
            "b_longest_line": {
                "character": max(len(t) for _, _, lines in docs_b for t, _, _ in lines),
                "word": max(len(t.split()) for _, _, lines in docs_b for t, _, _ in lines),
            },
        },
        "nonblank_lines": sum(len(lines) for _, _, lines in docs_a + docs_b),
    }


# ---------------------------------------------------------------------------
# extract: an article dump with markup whose plain text is known

_SITEINFO = (
    '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/" xml:lang="en">\n'
    "  <siteinfo>\n    <sitename>Benchpedia</sitename>\n"
    "    <base>https://bench.example.org/wiki/Main_Page</base>\n"
    "  </siteinfo>\n"
)
_ENTITY_WORDS = (("caf&eacute;", "café"), ("na&iuml;ve", "naïve"), ("&#163;", "£"), ("&amp;", "&"),
                 ("Z&uuml;rich", "Zürich"), ("&#x3b1;", "α"))
_TEMPLATES = ("{{citation needed}}", "{{cite web|url=http://example.org/a|title=Source}}",
              "{{lang|fr|mot}}", "{{convert|5|km|mi}}", "{{cite book|title={{lang|de|Buch}}|year=1901}}")
_REFS = ("<ref>{{cite news|title=Report}} Page 4.</ref>", '<ref name="a1" />',
         "<ref name=b>Smith, 1999, p. 12.</ref>", "<ref>[http://example.org/src Source text]</ref>")


def _inline_words(rng, zipf, n_words):
    """A sentence as (raw wikitext, expected plain text)."""
    raw: list[str] = []
    plain: list[str] = []
    i = 0
    while i < n_words:
        w = zipf.draw(rng)
        if i == 0:
            w = w.capitalize()
        roll = rng.random()
        if roll < 0.05:
            r, p = f"[[{w}]]", w
        elif roll < 0.09:
            w2 = zipf.draw(rng)
            r, p = f"[[{zipf.draw(rng).capitalize()} {w2}|{w} {w2}]]", f"{w} {w2}"
            i += 1
        elif roll < 0.11:
            r, p = f"'''{w}'''", w
        elif roll < 0.13:
            r, p = f"''{w}''", w
        elif roll < 0.145:
            w2 = zipf.draw(rng)
            r, p = f"[http://www.example.org/{w2} {w} {w2}]", f"{w} {w2}"
            i += 1
        elif roll < 0.16 and i > 0:
            r, p = rng.choice(_ENTITY_WORDS)
        elif roll < 0.17:
            r, p = f"<small>{w}</small>", w
        elif roll < 0.19:
            r = p = str(rng.randint(1, 2020))
        else:
            r = p = w
        if i > 0:  # these vanish, so they only go between two words
            if rng.random() < 0.03:
                raw.append(rng.choice(_TEMPLATES))
            if rng.random() < 0.01:
                raw.append("<!-- editor note: " + zipf.draw(rng) + " -->")
        raw.append(r)
        plain.append(p)
        i += 1
    text_raw = " ".join(raw)
    if rng.random() < 0.3:
        text_raw += rng.choice(_REFS)
    return text_raw + ".", " ".join(plain) + "."


def _paragraph(rng, zipf):
    pairs = [_inline_words(rng, zipf, rng.randint(6, 20)) for _ in range(rng.randint(2, 6))]
    return " ".join(r for r, _ in pairs), " ".join(p for _, p in pairs)


def _article(rng, zipf, sentinel: str | None):
    """Wikitext of one article and its expected plain text."""
    blocks: list[tuple[str, str | None]] = []  # (raw, plain or None if removed)
    if rng.random() < 0.5:
        blocks.append((
            "{{Infobox settlement\n| name = " + zipf.draw(rng) + "\n| population = "
            + str(rng.randint(100, 90000)) + "\n| map = {{location map|" + zipf.draw(rng)
            + "}}\n}}", None))
    if rng.random() < 0.2:
        blocks.append(("__NOTOC__", None))
    for _ in range(rng.randint(2, 5)):
        blocks.append(_paragraph(rng, zipf))
    for _ in range(rng.randint(1, 3)):
        heading = " ".join(zipf.draw(rng) for _ in range(rng.randint(1, 3))).capitalize()
        eq = "=" * rng.randint(2, 3)
        blocks.append((f"{eq} {heading} {eq}", heading))
        roll = rng.random()
        if roll < 0.25:
            items = [_inline_words(rng, zipf, rng.randint(3, 8)) for _ in range(rng.randint(2, 5))]
            blocks.append(("\n".join("* " + r for r, _ in items), "\n".join(p for _, p in items)))
        elif roll < 0.4:
            rows = "\n|-\n".join(
                f"| {zipf.draw(rng)} || {rng.randint(1, 999)} || [[{zipf.draw(rng)}]]"
                for _ in range(rng.randint(2, 6)))
            blocks.append(('{| class="wikitable"\n! Name !! Value !! Link\n|-\n' + rows + "\n|}", None))
        elif roll < 0.5:
            blocks.append((f"[[File:{zipf.draw(rng)}.jpg|thumb|A [[{zipf.draw(rng)}]] view]]", None))
        for _ in range(rng.randint(1, 4)):
            blocks.append(_paragraph(rng, zipf))
    if sentinel:
        blocks[-1] = (blocks[-1][0] + " " + sentinel + ".", None)
    blocks.append(("\n".join(f"[[Category:{zipf.draw(rng).capitalize()}]]"
                             for _ in range(rng.randint(1, 3))) + "\n[[fr:" + zipf.draw(rng) + "]]", None))
    raw = "\n\n".join(r for r, _ in blocks)
    plain = "\n\n".join(p for _, p in blocks if p is not None)
    return raw, plain


# (construct whose opener repeats without a closer, run length in bytes):
# the same nine vandalised pages in every dump, so every seed does equal work
VANDAL_RUNS = [
    (kind, kb * 1000)
    for kind in ("ref", "comment", "extlink")
    for kb in (10, 20, 30)
]


def _vandal_run(rng, zipf, kind: str, size: int) -> str:
    parts: list[str] = []
    total = 0
    while total < size:
        words = " ".join(zipf.draw(rng) for _ in range(rng.randint(3, 9)))
        if kind == "ref":
            piece = f"<ref name=spam{rng.randint(1, 99)}>{words} "
        elif kind == "comment":
            piece = f"<!-- {words} "
        else:
            piece = f"[http://spam{rng.randint(1, 99)}.example.com/{zipf.draw(rng)} {words} "
        parts.append(piece)
        total += len(piece)
    return "".join(parts)


def _xml_revision(rev_id, stamp, editor, text) -> str:
    return (
        f"    <revision>\n      <id>{rev_id}</id>\n      <timestamp>{stamp}</timestamp>\n"
        f"      <contributor>\n        <username>{escape(editor)}</username>\n"
        f"        <id>{rev_id % 9973}</id>\n      </contributor>\n"
        f'      <text bytes="{len(text)}" xml:space="preserve">{escape(text)}</text>\n'
        f"    </revision>\n"
    )


_EPOCH = datetime(2010, 1, 1, tzinfo=timezone.utc)


def _stamp(day: int, minute: int) -> str:
    return (_EPOCH + timedelta(days=day, minutes=minute)).strftime("%Y-%m-%dT%H:%M:%SZ")


EXTRACT_PAGES = 1300


def generate_extract(seed: int, workdir) -> dict:
    """~12 MB article dump: ordinary pages, redirects, empty and vandalised pages."""
    rng = random.Random(f"extract/{seed}")
    zipf = Zipf(VOCABULARY)
    path = workdir / "dump.xml"
    vandal_at = {
        slot: run for slot, run in zip(
            rng.sample(range(EXTRACT_PAGES), len(VANDAL_RUNS)), VANDAL_RUNS)
    }
    expected = []  # (id, title, plain text or None for a vandalised page)
    warnings: Counter = Counter()
    rev_id = 1000
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(_SITEINFO)
        for slot in range(EXTRACT_PAGES):
            page_id = str(10 + slot * 3 + rng.randint(0, 2))
            title = f"{zipf.draw(rng).capitalize()} {zipf.draw(rng)} ({slot})"
            roll = rng.random()
            n_revs = rng.randint(1, 3)
            revisions = [_article(rng, zipf, f"OLDREVSENTINEL{slot}x{k}")[0] for k in range(n_revs - 1)]
            if slot in vandal_at:
                kind, size = vandal_at[slot]
                # pasted at the very end, so no closer follows the run
                text = _article(rng, zipf, None)[0] + "\n" + _vandal_run(rng, zipf, kind, size)
                expected.append((page_id, title, None))
            elif roll < 0.03:
                text = f"#REDIRECT [[{zipf.draw(rng).capitalize()} {zipf.draw(rng)}]]"
                warnings["redirect_skipped"] += 1
            elif roll < 0.05:
                text = ""
                warnings["empty_page"] += 1
            else:
                text, plain = _article(rng, zipf, None)
                expected.append((page_id, title, plain))
            revisions.append(text)
            # latest revision last in most pages; otherwise written first,
            # so only its timestamp tells it apart
            stamps = [_stamp(slot % 3000, 60 * k + rng.randint(0, 59)) for k in range(n_revs)]
            order = list(range(n_revs))
            if n_revs > 1 and rng.random() < 0.1:
                order = order[-1:] + order[:-1]
            fp.write(f"  <page>\n    <title>{escape(title)}</title>\n    <ns>0</ns>\n    <id>{page_id}</id>\n")
            for k in order:
                rev_id += 1
                fp.write(_xml_revision(rev_id, stamps[k], f"Editor{rng.randint(1, 400)}", revisions[k]))
            fp.write("  </page>\n")
        fp.write("</mediawiki>\n")
    return {"inputs": [str(path)], "oracle": {"docs": expected, "warnings": dict(warnings)},
            "nonblank_lines": 0}


# ---------------------------------------------------------------------------
# conflict: a full-history dump with planned edit wars

# revisions of the edit-war pages; each runs to several MB
WAR_LENGTHS = (2500, 4000, 5500)
SHORT_PAGES = 1200


def _revert_oracle(history):
    """The paper's rule, written plainly: events, then M, E and pairs.

    history is [(editor, text)].  Revision k reverts when an earlier
    revision i < k-1 has the same text; the latest such i is restored and
    the editor of k-1 is the one reverted.
    """
    positions: dict[str, list[int]] = {}
    events = []
    for k, (editor, text) in enumerate(history):
        earlier = [i for i in positions.get(text, ()) if i < k - 1]
        if earlier:
            reverted = history[k - 1][0]
            events.append((max(earlier), k, editor, reverted, editor == reverted))
        positions.setdefault(text, []).append(k)
    edits: dict[str, int] = {}
    for editor, _ in history:
        edits[editor] = edits.get(editor, 0) + 1
    directed = {(e[2], e[3]) for e in events if not e[4]}
    pairs = sorted(
        ((x, y, min(edits[x], edits[y])) for x, y in directed if x < y and (y, x) in directed),
        key=lambda p: (-p[2], p[0], p[1]),
    )
    if pairs:
        m_value = len(edits) * (sum(w for _, _, w in pairs) - pairs[0][2])
        excluded = pairs[0]
    else:
        m_value, excluded = 0, None
    return {
        "M": m_value,
        "E": len(edits),
        "pairs": sorted(pairs),
        "excluded_pair": excluded,
        "events": events,
    }


def _text(rng, zipf, n_chars: int) -> str:
    """Sentences of Zipf words, cut to exactly n_chars characters."""
    parts: list[str] = []
    size = 0
    while size < n_chars:
        sentence = " ".join(zipf.draw(rng) for _ in range(rng.randint(6, 18))).capitalize() + ". "
        parts.append(sentence)
        size += len(sentence)
    return "".join(parts)[:n_chars]


# an edit rewrites one stretch of this many characters, so every version of
# a page has the same length and every seed gives pages of the same size
EDIT_CHARS = 80


def _edit(rng, zipf, text: str) -> str:
    at = rng.randrange(len(text) - EDIT_CHARS)
    return text[:at] + _text(rng, zipf, EDIT_CHARS) + text[at + EDIT_CHARS:]


def _war_history(rng, zipf, length: int):
    """Several editors in camps push rival versions and revert each other."""
    editors = [f"Warrior{c}" for c in "ABCDEFG"[: rng.randint(4, 7)]]
    bystanders = [f"Passerby{k}" for k in range(12)]
    history: list[tuple[str, str]] = [("Founder", _text(rng, zipf, 1400))]
    planned = []
    while len(history) < length:
        roll = rng.random()
        if roll < 0.55 and len(history) >= 2:
            # a burst of mutual reverts between two warring editors
            x, y = rng.sample(editors, 2)
            base = history[-1][1]
            mine = _edit(rng, zipf, base)
            history.append((x, mine))
            for _ in range(rng.randint(1, 6)):
                history.append((y, base))
                planned.append(len(history) - 1)
                history.append((x, mine))
                planned.append(len(history) - 1)
        elif roll < 0.9:
            who = rng.choice(editors + bystanders)
            history.append((who, _edit(rng, zipf, history[-1][1])))
        elif roll < 0.95:
            history.append((history[-1][0], history[-1][1]))  # null edit
        else:
            who = rng.choice(editors)
            history.append((who, _edit(rng, zipf, history[-1][1])))
            history.append((who, history[-2][1]))  # self-revert
            planned.append(len(history) - 1)
    return history[:length], [k for k in planned if k < length]


def _short_history(rng, zipf, users):
    history = [(rng.choice(users), _text(rng, zipf, rng.randint(250, 1000)))]
    planned = []
    for _ in range(rng.randint(1, 14)):
        roll = rng.random()
        if roll < 0.12 and len(history) >= 2:
            x = rng.choice(users)
            history.append((x, history[-2][1]))
            planned.append(len(history) - 1)
        else:
            history.append((rng.choice(users), _edit(rng, zipf, history[-1][1])))
    return history, planned


def generate_conflict(seed: int, workdir) -> dict:
    """~25 MB history dump: short pages plus three multi-MB edit wars."""
    rng = random.Random(f"conflict/{seed}")
    zipf = Zipf(VOCABULARY)
    users = [f"User{k}" for k in range(300)] + [f"198.51.100.{k}" for k in range(40)]
    total_pages = SHORT_PAGES + len(WAR_LENGTHS)
    # fixed places, a quarter, a half and three quarters into the dump: where
    # the big pages fall among the small ones moves the reader's peak memory
    war_slots = {total_pages * (k + 1) // (len(WAR_LENGTHS) + 1): n
                 for k, n in enumerate(WAR_LENGTHS)}
    path = workdir / "history.xml"
    pages = []
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(_SITEINFO)
        for slot in range(total_pages):
            page_id = str(500 + slot * 7)
            if slot in war_slots:
                history, planned = _war_history(rng, zipf, war_slots[slot])
            else:
                history, planned = _short_history(rng, zipf, users)
            fp.write(f"  <page>\n    <title>Talk {page_id} {zipf.draw(rng)}</title>\n"
                     f"    <ns>0</ns>\n    <id>{page_id}</id>\n")
            escaped: dict[str, str] = {}
            for k, (editor, text) in enumerate(history):
                body = escaped.get(text)
                if body is None:
                    body = escaped[text] = escape(text)
                if editor.startswith("198."):
                    who = f"<ip>{editor}</ip>"
                else:
                    who = f"<username>{editor}</username><id>{k % 977}</id>"
                fp.write(f"    <revision><id>{slot * 10000 + k}</id>"
                         f"<timestamp>{_stamp(slot % 3000, k)}</timestamp>"
                         f"<contributor>{who}</contributor>"
                         f'<text xml:space="preserve">{body}</text></revision>\n')
            fp.write("  </page>\n")
            oracle = _revert_oracle(history)
            oracle["page_id"] = page_id
            oracle["planned"] = planned
            pages.append(oracle)
    return {"inputs": [str(path)], "oracle": {"pages": pages}, "nonblank_lines": 0}


GENERATORS = {
    "extract": generate_extract,
    "compare": generate_compare,
    "conflict": generate_conflict,
}
