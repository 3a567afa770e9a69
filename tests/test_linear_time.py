"""Ingestion and revert detection run in time linear in their input.

Each scaling test grows an adversarial input until one run takes 20 ms (3 ms
for the chunker, whose page would otherwise pass 64 MB), then doubles it:
the larger input may cost at most 3x the time, where a quadratic scan costs
4x and a cubic one 8x.  Times are the best of five runs, so a busy machine
slows both sizes alike rather than failing the test.  The robustness
properties check that stripped text is a fixpoint and that malformed input
fails only with the toolkit's own errors.
"""

import io
import time
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from corplex.controversy import detect_reverts
from corplex.errors import MarkupError, ParseError
from corplex.ingest import _iter_page_chunks, parse_article_dump, parse_revision_dump, strip_markup

MAX_RATIO = 3.0


def best_time(fn, arg, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def doubling_ratio(make, fn, n, floor=0.020, limit=1 << 22):
    """Time of fn(make(2n)) over fn(make(n)), n doubled until fn(make(n)) takes floor s."""
    while True:
        small = best_time(fn, make(n))
        if small >= floor or n >= limit:
            break
        n *= 2
    return best_time(fn, make(2 * n)) / small, n


def strip(raw):
    try:
        return strip_markup(raw)
    except MarkupError:
        return None


def repeated(unit, tail=""):
    return lambda n: unit * (n // len(unit)) + tail


STRIP_SHAPES = {
    "unclosed comments": repeated("<!--x "),
    "unclosed refs": repeated("<ref name=a>x "),
    "unclosed refs, one self-closing at the end": repeated("<ref name=a>x ", "<ref name=b/>"),
    "unclosed external links": repeated("[http://a b "),
    "external links in one URL": repeated("[http://a"),
    "nested tables": repeated("{| a ", "|}"),
    "heading line of '='": repeated("=", "x"),
    "heading line of '= '": repeated("= ", "x"),
    "spaces not at a line end": repeated(" ", "x"),
    "nested internal links": lambda n: "[[" * (n // 4) + "a" + "]]" * (n // 4),
    "nested template parameters": lambda n: "{{{" * (n // 6) + "}}}" * (n // 6),
    "unclosed internal links": repeated("[[a|b "),
    # "amp;" * k + " &amp;": one entity after the run, not a chain to decode
    "entity chain": repeated("amp;", " &amp;"),
    # each pass peels one level, so both run all 100 capped passes
    "real entity chain": lambda n: "x &" + "amp;" * (n // 4),
    "nested tags": lambda n: "x " + "<" * (n // 4) + "b>" * (n // 4),
}


@pytest.mark.timing
@pytest.mark.parametrize("shape", sorted(STRIP_SHAPES))
def test_strip_markup_doubling(shape):
    ratio, n = doubling_ratio(STRIP_SHAPES[shape], strip, 256)
    assert ratio <= MAX_RATIO, f"{shape}: {n} -> {2 * n} chars cost x{ratio:.2f}"


@pytest.mark.timing
def test_chunker_doubling_on_one_large_page():
    def make(n):
        return b"<mediawiki><page><title>P</title>" + b"x" * n + b"</page></mediawiki>"

    def chunk(data):
        # the parts read the page's blocks, so they are timed as they are taken
        return [len(part) for parts, _ in _iter_page_chunks(io.BytesIO(data)) for part in parts]

    ratio, n = doubling_ratio(make, chunk, 1 << 20, floor=0.003, limit=1 << 23)
    assert ratio <= MAX_RATIO, f"{n} -> {2 * n} byte page cost x{ratio:.2f}"
    # the page comes as its parts, none empty, which join to its bytes
    data = make(2 * n)
    [(parts, offset)] = [(list(p), offset) for p, offset in _iter_page_chunks(io.BytesIO(data))]
    assert all(parts), "empty page part"
    assert (b"".join(parts), offset) == (data[11:-12], 11)


Rev = namedtuple("Rev", "page_id rev_index timestamp editor raw_text")


@pytest.mark.timing
@pytest.mark.parametrize("policy", ["latest", "earliest"])
def test_detect_reverts_doubling_on_ping_pong(policy):
    def make(n):
        return [Rev("p", k, None, "AB"[k % 2], "xy"[k % 2]) for k in range(n)]

    ratio, n = doubling_ratio(make, lambda h: detect_reverts(h, policy), 256)
    assert ratio <= MAX_RATIO, f"{n} -> {2 * n} revisions cost x{ratio:.2f}"


# ---------------------------------------------------------------------------
# robustness

WORDS = st.sampled_from(["word", "two words", "caf&eacute;", "&amp;", "&zorp;", "x.", "\n", "'''b'''"])


def _wrap(inner):
    return st.sampled_from(
        [
            ("{{t|", "}}"), ("{{{", "}}}"), ("{| ", "\n|}"), ("[[", "]]"), ("[[File:a|", "]]"),
            ("[[a|", "]]"), ("<!--", "-->"), ("<ref name=r>", "</ref>"), ("[http://e.x ", "]"),
            ("== ", " =="), ("<b>", "</b>"), ("* ", "\n"),
            # unterminated openers and stray closers
            ("{{", ""), ("{|", ""), ("[[", ""), ("<!--", ""), ("<ref>", ""), ("[http://e.x", ""),
            ("", "}}"), ("", "]]"), ("", "-->"), ("", "</ref>"),
        ]
    ).flatmap(lambda pair: inner.map(lambda body: pair[0] + body + pair[1]))


NESTED_MARKUP = st.recursive(
    WORDS, lambda inner: st.one_of(_wrap(inner), st.lists(inner, max_size=6).map(" ".join)),
    max_leaves=60,
)


@given(NESTED_MARKUP)
@settings(max_examples=400, deadline=None)
def test_stripped_text_is_a_fixpoint(raw):
    warnings = Counter()
    try:
        once = strip_markup(raw, warnings=warnings)
    except MarkupError:
        return
    if warnings["markup_fixpoint_cap"]:
        return  # still changing when the cap stopped it
    assert strip_markup(once) == once


@given(st.one_of(NESTED_MARKUP, st.text(max_size=300)))
@settings(max_examples=400, deadline=None)
def test_strip_markup_raises_only_markup_error(raw):
    try:
        strip_markup(raw, max_depth=4)
    except MarkupError:
        pass


DUMP_PIECES = st.sampled_from(
    [
        b"<page>", b"</page>", b"<title>T</title>", b"<title>", b"</title>", b"<id>7</id>",
        b"<revision>", b"</revision>", b"<text>", b"</text>", b"words {{t}} [[a|b]]",
        b"<timestamp>2008-01-01T00:00:00Z</timestamp>", b"<timestamp>never</timestamp>",
        b"<contributor><username>Ann</username></contributor>", b"<contributor/>",
        b"#REDIRECT [[x]]", b"&amp;", b"&", b"<", b">", b"\xff\xfe", b"\x00", b"<mediawiki>",
        b"</mediawiki>", b"{{" * 20,
    ]
)


@given(st.lists(DUMP_PIECES, max_size=40).map(b"".join))
@settings(max_examples=400, deadline=None)
def test_dump_readers_raise_only_toolkit_errors(data):
    for read in (parse_article_dump, parse_revision_dump):
        try:
            for _ in read(io.BytesIO(data)):
                pass
        except (MarkupError, ParseError):
            pass
