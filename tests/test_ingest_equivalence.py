"""The linear-time scanners in corplex.ingest against the regexes they replaced.

Each oracle below is the earlier implementation, copied verbatim: the
backtracking regexes for comments, refs, headings, internal and external
links and trailing whitespace, the repeat-until-unchanged loops for template
parameters and links, the re-scanning brace remover and the page chunker that
re-copied its buffer per block.  The regexes and entity decoder the oracle
pass shares with the live code are frozen here too, so the oracle cannot move
with the code.  The new code must give identical output, including which
MarkupError or ParseError is raised and where.  The oracles are superlinear,
so inputs stay at a few KB.  The oracle strip_markup confirms its fixpoint
with one more pass; the live one skips that pass when ingest._may_change
proves it would change nothing, and a property test checks that proof.
The dump readers as they were, which parsed each page from its joined bytes
and read contributors through ElementPath, are the oracle for what the
readers yield, the warnings they count and the ParseError texts they raise.
"""

import html.entities
import io
import re
import xml.etree.ElementTree as ET
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corplex import ingest
from corplex.errors import MarkupError, ParseError

# ---------------------------------------------------------------------------
# oracle: strip_markup as it was

_COMMENT_RE = re.compile(r"<!--.*?-->", re.DOTALL)
_REF_RE = re.compile(r"<ref\b[^<>]*?/\s*>|<ref\b[^<>]*?>.*?</ref\s*>", re.DOTALL | re.IGNORECASE)
_PARAM_RE = re.compile(r"\{\{\{[^{}]*\}\}\}")
_HEADING_RE = re.compile(r"^[ \t]*=+[ \t]*(.*?)[ \t]*=+[ \t]*$", re.MULTILINE)
_LINK_RE = re.compile(r"\[\[([^\[\]]*)\]\]")
_EXT_LINK_RE = re.compile(r"\[(?:https?|ftp)://[^\s\]]*(?:[ \t]+([^\]]*))?\]", re.IGNORECASE)
_LIST_RE = re.compile(r"^[ \t]*[*#;:]+[ \t]*", re.MULTILINE)
_HR_RE = re.compile(r"^-{4,}[ \t]*$", re.MULTILINE)
_TAG_RE = re.compile(r"</?[A-Za-z][^<>]*>")
_MAGIC_RE = re.compile(r"__[A-Z]+__")
_QUOTES_RE = re.compile(r"'{2,}")
_ENTITY_RE = re.compile(r"&(#[0-9]+|#x[0-9A-Fa-f]+|[A-Za-z][A-Za-z0-9]*);")
_NAMED_ENTITIES = dict(html.entities.name2codepoint)
_NAMED_ENTITIES["apos"] = 0x27


def old_remove_comments(s):
    s = _COMMENT_RE.sub("", s)
    start = s.find("<!--")
    return s[:start] if start != -1 else s


def old_remove_refs(s):
    return _REF_RE.sub("", s)


def old_remove_params(s):
    while _PARAM_RE.search(s):
        s = _PARAM_RE.sub("", s)
    return s


def old_remove_braced(s, open_tok, close_tok, max_depth):
    parts = []
    i = 0
    n = len(s)
    while True:
        start = s.find(open_tok, i)
        if start == -1:
            parts.append(s[i:])
            break
        parts.append(s[i:start])
        depth = 1
        j = start + len(open_tok)
        while depth:
            nxt_open = s.find(open_tok, j)
            nxt_close = s.find(close_tok, j)
            if nxt_close == -1:
                j = n
                break
            if nxt_open != -1 and nxt_open < nxt_close:
                depth += 1
                if max_depth is not None and depth > max_depth:
                    raise MarkupError(
                        f"{open_tok!r} nesting deeper than {max_depth}", offset=nxt_open
                    )
                j = nxt_open + len(open_tok)
            else:
                depth -= 1
                j = nxt_close + len(close_tok)
        if j >= n and depth:
            break
        i = j
    return "".join(parts)


def old_headings(s):
    return _HEADING_RE.sub(r"\1", s)


def _link_repl(m):
    return ingest._link_text(m.group(1))


def old_resolve_internal_links(s):
    while True:
        new = _LINK_RE.sub(_link_repl, s)
        if new == s:
            return s
        s = new


def _ext_link_repl(m):
    label = m.group(1)
    return label.strip() if label else ""


def old_resolve_external_links(s):
    return _EXT_LINK_RE.sub(_ext_link_repl, s)


def old_decode_entities(s):
    def repl(m):
        name = m.group(1)
        if name.startswith("#"):
            try:
                code = int(name[2:], 16) if name[1] in "xX" else int(name[1:])
                if 0 < code <= 0x10FFFF and not 0xD800 <= code <= 0xDFFF:
                    return chr(code)
            except ValueError:
                pass
            return m.group(0)
        code = _NAMED_ENTITIES.get(name)
        return chr(code) if code is not None else m.group(0)

    return _ENTITY_RE.sub(repl, s)


def old_normalize_whitespace(s):
    s = re.sub(r"[ \t]+$", "", s, flags=re.MULTILINE)
    s = re.sub(r"^[ \t]+", "", s, flags=re.MULTILINE)
    s = re.sub(r"[ \t]+", " ", s)
    s = re.sub(r"\n{3,}", "\n\n", s)
    return s.strip()


def old_strip_pass(s, max_depth):
    s = s.replace("\r\n", "\n").replace("\r", "\n")
    s = old_remove_comments(s)
    s = old_remove_refs(s)
    s = old_remove_params(s)
    s = old_remove_braced(s, "{{", "}}", max_depth)
    s = old_remove_braced(s, "{|", "|}", None)
    s = old_headings(s)
    s = _LIST_RE.sub("", s)
    s = _HR_RE.sub("", s)
    s = old_resolve_internal_links(s)
    s = old_resolve_external_links(s)
    s = _TAG_RE.sub("", s)
    s = _MAGIC_RE.sub("", s)
    s = _QUOTES_RE.sub("", s)
    for stray in ("[[", "]]", "{{", "}}", "{|", "|}"):
        s = s.replace(stray, "")
    s = old_decode_entities(s)
    return old_normalize_whitespace(s)


def old_strip_markup(raw, max_depth=16):
    s = raw
    for _ in range(100):
        new = old_strip_pass(s, max_depth)
        if new == s:
            break
        s = new
    return s


def outcome(fn, *args):
    """A call's result, or the type and text of what it raised."""
    try:
        return ("ok", fn(*args))
    except (MarkupError, ParseError) as exc:
        return (type(exc).__name__, str(exc))


# ---------------------------------------------------------------------------
# generators: token soups that hit every opener, closer and near miss

COMMENT_TOKENS = ["<!--", "-->", "<!-", "->", "--", "<", "!", "-", ">", "x", " ", "\n"]
REF_TOKENS = [
    "<ref", "<REF", "<Ref", "<ref name=a>", "<ref name=\"b\" />", "<refs>", "</ref>",
    "</REF >", "</ref\n>", "</ref", "/>", "/ >", "/", ">", "<", " ", "\t", "\n", "x",
    "\xa0", "=", "_", "\x1c",
]
BRACE_TOKENS = ["{{", "}}", "{|", "|}", "{{{", "}}}", "{", "}", "|", "x", " ", "\n"]
HEADING_TOKENS = ["=", "==", "===", " ", "\t", "x", "a b", "\n", "\f", "\xa0"]
LINK_TOKENS = [
    "[[", "]]", "[", "]", "|", ":", "a", "b c", "Category:", "File:", "fr:", "De:", " ", "\n",
]
EXT_TOKENS = [
    "[http://", "[https://", "[HTTP://", "[ftp://", "[ftps://", "[http:/", "http://", "[",
    "]", " ", "\t", "\n", "\u2003", "\v", "a", "b.c/d", "|", "[[", "[\u017fftp://",
    "[http\u017f://",
]
WS_TOKENS = [" ", "\t", "  ", "\n", "\n\n\n", "a", "b c", "\xa0", "\f", "\v"]
MARKUP_TOKENS = sorted(
    set(COMMENT_TOKENS + REF_TOKENS + BRACE_TOKENS + HEADING_TOKENS + LINK_TOKENS + EXT_TOKENS)
    | {"'''", "''", "----", "* ", "# ", "__NOTOC__", "&amp;", "&amp;amp;", "&#65;", "&zorp;",
       "<b>", "</b>", "<br/>", "\r\n", "\r", "word", "two words. "}
)


def soup(tokens, max_size):
    return st.lists(st.sampled_from(tokens), max_size=max_size).map("".join)


def markup_lines():
    # several short lines: the heading oracle is cubic in the length of a line
    return st.lists(soup(MARKUP_TOKENS, 24), max_size=40).map("\n".join)


# one token for every trigger ingest._may_change looks for
TRIGGER_TOKENS = [
    "&amp;", "&lt;", "&zorp;", "&#38;", "__X__", "''", "----", "* ", "=", "\r", "<b>",
    "<ref name=a/>", "[http://x y]",
]
EDGE_WHITESPACE = ["", "\xa0", "\v", "\t"]
# brackets split by tags, which the pass removes just before the stray
# markers, so overlapping strays such as "{{|" reach the removal order
STRAY_TOKENS = ["{", "}", "[", "]", "|", "<b>", "x", " "]
SOUPS = [COMMENT_TOKENS, REF_TOKENS, BRACE_TOKENS, HEADING_TOKENS, LINK_TOKENS, EXT_TOKENS,
         WS_TOKENS, MARKUP_TOKENS, sorted(set(WS_TOKENS + TRIGGER_TOKENS)), STRAY_TOKENS]


def pass_inputs():
    """Lines of one soup, with a whitespace character or none at either end."""
    lines = st.sampled_from(SOUPS).flatmap(
        lambda tokens: st.lists(soup(tokens, 24), max_size=20).map("\n".join)
    )
    edge = st.sampled_from(EDGE_WHITESPACE)
    return st.tuples(edge, lines, edge).map("".join)


class TestScannersMatchOracle:
    @given(soup(COMMENT_TOKENS, 200))
    @settings(max_examples=400, deadline=None)
    def test_comments(self, s):
        assert ingest._remove_comments(s) == old_remove_comments(s)

    @given(soup(REF_TOKENS, 200))
    @settings(max_examples=400, deadline=None)
    def test_refs(self, s):
        assert ingest._remove_refs(s) == old_remove_refs(s)

    @given(soup(BRACE_TOKENS, 200))
    @settings(max_examples=400, deadline=None)
    def test_params(self, s):
        assert ingest._remove_params(s) == old_remove_params(s)

    @given(soup(BRACE_TOKENS, 200), st.sampled_from([("{{", "}}", 3), ("{{", "}}", 16),
                                                     ("{|", "|}", None)]))
    @settings(max_examples=400, deadline=None)
    def test_braced(self, s, toks):
        assert outcome(ingest._remove_braced, s, *toks) == outcome(old_remove_braced, s, *toks)

    @given(st.lists(soup(HEADING_TOKENS, 30), max_size=20).map("\n".join))
    @settings(max_examples=400, deadline=None)
    def test_headings(self, s):
        assert ingest._HEADING_RE.sub(ingest._heading_repl, "\n" + s)[1:] == old_headings(s)

    @given(soup(LINK_TOKENS, 200))
    @settings(max_examples=400, deadline=None)
    def test_internal_links(self, s):
        assert ingest._resolve_internal_links(s) == old_resolve_internal_links(s)

    @given(soup(EXT_TOKENS, 200))
    @settings(max_examples=400, deadline=None)
    def test_external_links(self, s):
        assert ingest._resolve_external_links(s) == old_resolve_external_links(s)

    @given(soup(WS_TOKENS, 200))
    @settings(max_examples=300, deadline=None)
    def test_whitespace(self, s):
        assert ingest._normalize_whitespace(s) == old_normalize_whitespace(s)

    def test_spliced_comment_opener_truncates(self):
        # removing the inner comment joins "<!" and "--" into a new opener
        s = "a<!<!--x-->--b"
        assert ingest._remove_comments(s) == old_remove_comments(s) == "a"

    def test_nested_links_resolve_innermost_first(self):
        for s in ("[[a|[[b|[[c]]]]]]", "[[b][[Category:x]]]", "[[[a]]", "[[a]]]",
                  "[[x|[[File:y]]]]"):
            assert ingest._resolve_internal_links(s) == old_resolve_internal_links(s)


class TestStripMarkupMatchesOracle:
    @given(markup_lines())
    @settings(max_examples=500, deadline=None)
    def test_markup_mixtures(self, raw):
        assert outcome(ingest.strip_markup, raw) == outcome(old_strip_markup, raw)

    @given(markup_lines(), st.integers(min_value=1, max_value=4))
    @settings(max_examples=200, deadline=None)
    def test_shallow_depth_limit(self, raw, depth):
        assert outcome(ingest.strip_markup, raw, depth) == outcome(old_strip_markup, raw, depth)

    @pytest.mark.parametrize(
        "raw",
        [
            "keep <!--x " * 50,
            "keep <ref name=a>x " * 50 + "<ref name=b/> tail",
            "keep [http://a b " * 50,
            "keep [http://a" * 50 + " x]",
            "keep {| a " * 50 + "|}",
            "{{{" * 30 + "}}}" * 30 + " kept",
            "[[" * 40 + "a" + "]]" * 40,
            "=" * 60 + "x\n== Title ==\n" + "= " * 30 + "=",
            " " * 300 + "x \n" + "\t" * 300 + "\n",
        ],
    )
    def test_adversarial_shapes(self, raw):
        assert outcome(ingest.strip_markup, raw) == outcome(old_strip_markup, raw)


class TestFixpointProof:
    @given(pass_inputs())
    @settings(max_examples=1000, deadline=None)
    def test_no_trigger_means_no_change(self, raw):
        # stripped text rarely holds a trigger, so the pass's output is
        # where the proof is used and is tested most
        texts = [raw]
        try:
            texts.append(ingest._strip_pass(raw, 16))
        except MarkupError:
            pass
        for s in texts:
            # one pass, as the oracle's pass gives it
            assert outcome(ingest._strip_pass, s, 16) == outcome(old_strip_pass, s, 16)
            if not ingest._may_change(s):
                assert ingest._strip_pass(s, 16) == s

    @pytest.mark.parametrize(
        "s",
        ["{<b>{<b>|", "{<b>|<b>}", "|<b>}<b>}", "[<b>[<b>]<b>]", "]<b>]<b>}", "{<b>{<b>}<b>}<b>|<b>}"],
    )
    def test_stray_markers_in_order(self, s):
        # strays that overlap come out differently in another removal order
        assert ingest._strip_pass(s, 16) == old_strip_pass(s, 16)

    @pytest.mark.parametrize("s", ["", "plain words.", "two\n\nparagraphs", "a - b", "x=y", "a*b"])
    def test_clean_text_is_proved(self, s):
        assert not ingest._may_change(s)
        assert ingest._strip_pass(s, 16) == s

    @pytest.mark.parametrize(
        "s",
        ["tab\tx", "a  b", "a \nb", "a\n b", "a\n\n\nb", " a", "a\xa0", "\va", "=a=", "a\n*b",
         "----", "a\n----", "&amp;", "<b>x", "<ref name=a/>x", "[http://x y]", "__NOTOC__",
         "''a''", "a\rb", "[[a", "a]]", "{{a", "a}}", "{|", "|}", "<!--"],
    )
    def test_each_trigger_is_seen(self, s):
        # the pass changes each of these, so a missed trigger breaks the proof
        assert ingest._strip_pass(s, 16) != s
        assert ingest._may_change(s)


class TestFixpointCap:
    def test_cap_is_counted(self):
        # each pass decodes one level of "&amp;", so 150 levels outlast the cap
        raw = "x &amp;" + "amp;" * 150
        warnings = Counter()
        out = ingest.strip_markup(raw, warnings=warnings)
        assert warnings["markup_fixpoint_cap"] == 1
        assert out == old_strip_markup(raw)
        assert out == "x &amp;" + "amp;" * 50

    def test_converging_text_is_not_counted(self):
        warnings = Counter()
        ingest.strip_markup("x &amp;" + "amp;" * 50, warnings=warnings)
        assert "markup_fixpoint_cap" not in warnings

    @pytest.mark.parametrize("k, out, capped", [(99, "x", 0), (100, "x", 1), (101, "x <b>", 1)])
    def test_cap_on_nested_tags(self, k, out, capped):
        # each pass removes the innermost "<b>".  At k = 100 the last change
        # comes in the 100th pass: the text is a fixpoint then, but the cap
        # still counts it, as it counts every text that changed in every pass
        raw = "x " + "<" * k + "b>" * k
        warnings = Counter()
        assert ingest.strip_markup(raw, warnings=warnings) == out == old_strip_markup(raw)
        assert warnings["markup_fixpoint_cap"] == capped


# ---------------------------------------------------------------------------
# oracle: the page chunker as it was

def old_iter_page_chunks(stream):
    buf = b""
    base = 0
    eof = False
    while True:
        if not eof:
            block = stream.read(1 << 16)
            if block:
                buf += block
            else:
                eof = True
        while True:
            start = buf.find(b"<page>")
            if start == -1:
                keep = len(b"<page>") - 1 if not eof else 0
                cut = max(len(buf) - keep, 0)
                base += cut
                buf = buf[cut:]
                break
            end = buf.find(b"</page>", start)
            if end == -1:
                if eof:
                    raise ParseError(
                        "unterminated <page> element", location=f"byte {base + start}"
                    )
                base += start
                buf = buf[start:]
                break
            stop = end + len(b"</page>")
            yield buf[start:stop], base + start
            base += stop
            buf = buf[stop:]
        if eof:
            return


class ShortReads(io.RawIOBase):
    """A stream whose reads return at most the next size of a cycle, as pipes may."""

    def __init__(self, data, sizes):
        self._data = data
        self._pos = 0
        self._sizes = sizes
        self._turn = 0

    def read(self, n=-1):
        size = self._sizes[self._turn % len(self._sizes)]
        self._turn += 1
        if n is not None and n >= 0:
            size = min(size, n)
        chunk = self._data[self._pos : self._pos + size]
        self._pos += len(chunk)
        return chunk


def chunks(chunker, stream):
    """(page bytes, offset) per page, then the ParseError text if one is raised.

    The live chunker yields a page as an iterable of parts, which reads its
    blocks as it is used: each part is taken here before the next page,
    none may be empty, and they are joined to the bytes the oracle yields.
    """
    got = []
    try:
        for chunk, offset in chunker(stream):
            if not isinstance(chunk, bytes):
                parts = list(chunk)
                assert all(parts), "empty page part"
                chunk = b"".join(parts)
            got.append((chunk, offset))
    except ParseError as exc:
        got.append(("ParseError", str(exc)))
    return got


def same_chunks(data):
    new = chunks(ingest._iter_page_chunks, io.BytesIO(data))
    return new == chunks(old_iter_page_chunks, io.BytesIO(data)) and len(new) > 1


DUMP_TOKENS = [b"<page>", b"</page>", b"<page", b"</page", b"page>", b"<", b"/", b">",
               b"<mediawiki>", b"</mediawiki>", b"x", b"text ", b"\n"]


class TestChunkerMatchesOracle:
    @given(
        st.lists(st.sampled_from(DUMP_TOKENS), max_size=120).map(b"".join),
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=8),
    )
    @settings(max_examples=500, deadline=None)
    def test_short_reads(self, data, sizes):
        expected = chunks(old_iter_page_chunks, io.BytesIO(data))
        assert chunks(ingest._iter_page_chunks, ShortReads(data, sizes)) == expected
        assert chunks(ingest._iter_page_chunks, io.BytesIO(data)) == expected

    @pytest.mark.parametrize("d", range(-8, 2))
    def test_open_tag_straddles_the_block_seam(self, d):
        # the second page's "<page>" starts d bytes from the first 64 KB seam
        lead = b"<mediawiki><page>a</page>"
        data = lead + b"x" * ((1 << 16) + d - len(lead)) + b"<page>" + b"y" * 100 + b"</page>"
        assert same_chunks(data)

    @pytest.mark.parametrize("seam", [1 << 16, 2 << 16])
    @pytest.mark.parametrize("d", range(-8, 2))
    def test_close_tag_straddles_a_block_seam(self, seam, d):
        # one page whose "</page>" starts d bytes from a 64 KB seam
        data = b"<page>" + b"y" * (seam + d - 6) + b"</page>" + b"<page>z</page>"
        assert same_chunks(data)

    def test_concatenated_dumps_chunk_like_each_dump(self):
        one = b"<mediawiki><siteinfo/><page>" + b"a" * 70000 + b"</page><page>b</page></mediawiki>"
        two = b"<mediawiki>" + b"h" * 65530 + b"<page>c</page></mediawiki>"
        assert same_chunks(one + two)
        both = chunks(ingest._iter_page_chunks, io.BytesIO(one + two))
        first = chunks(ingest._iter_page_chunks, io.BytesIO(one))
        second = chunks(ingest._iter_page_chunks, io.BytesIO(two))
        assert both == first + [(c, off + len(one)) for c, off in second]

    @pytest.mark.parametrize("size", [10, (1 << 16) - 3, 3 * (1 << 16) + 5])
    def test_unterminated_last_page(self, size):
        data = b"<mediawiki><page>ok</page>" + b"<page>" + b"y" * size
        got = chunks(ingest._iter_page_chunks, io.BytesIO(data))
        assert got == chunks(old_iter_page_chunks, io.BytesIO(data))
        assert got[-1] == ("ParseError", "unterminated <page> element [byte 26]")


# ---------------------------------------------------------------------------
# oracle: the dump readers as they were, over the old chunker and a parse of
# each page's joined bytes, reading fields with findtext and findall

def old_parse_page_chunk(chunk, offset):
    try:
        return ET.fromstring(chunk)
    except ET.ParseError as exc:
        raise ParseError(f"malformed page XML: {exc}", location=f"byte {offset}") from None


def old_pages(stream, warnings):
    # the readers as they were, plus the no_pages warning both count now
    found = False
    for chunk, offset in old_iter_page_chunks(stream):
        found = True
        yield chunk, offset
    if not found:
        warnings["no_pages"] += 1


def old_parse_article_dump(stream, warnings):
    for chunk, offset in old_pages(stream, warnings):
        page = old_parse_page_chunk(chunk, offset)
        title = (page.findtext("title") or "").strip()
        if not title:
            raise ParseError("page without a title", location=f"byte {offset}")
        revisions = page.findall("revision")
        if not revisions:
            warnings["page_without_revision"] += 1
            continue
        latest = max(
            enumerate(revisions),
            key=lambda iv: (
                ingest._parse_timestamp(iv[1].findtext("timestamp")) or ingest._EPOCH, iv[0]
            ),
        )[1]
        raw = latest.findtext("text") or ""
        if not raw.strip():
            warnings["empty_page"] += 1
            continue
        if raw.lstrip()[:9].lower() == "#redirect":
            warnings["redirect_skipped"] += 1
            continue
        body = ingest.strip_markup(raw, warnings=warnings)
        if not body:
            warnings["empty_page"] += 1
            continue
        page_id = (page.findtext("id") or "").strip() or title
        yield ingest.Document(id=page_id, title=title, body=body)


def old_parse_revision_dump(stream, warnings):
    for chunk, offset in old_pages(stream, warnings):
        page = old_parse_page_chunk(chunk, offset)
        title = (page.findtext("title") or "").strip()
        page_id = (page.findtext("id") or "").strip() or title
        if not page_id:
            raise ParseError("page without id or title", location=f"byte {offset}")
        rows = []
        last_ts = ingest._EPOCH
        for idx, rev in enumerate(page.findall("revision")):
            ts = ingest._parse_timestamp(rev.findtext("timestamp"))
            if ts is None:
                warnings["missing_timestamp"] += 1
                ts = last_ts
            last_ts = ts
            editor = (
                (rev.findtext("contributor/username") or "").strip()
                or (rev.findtext("contributor/ip") or "").strip()
            )
            if not editor:
                editor = "UNKNOWN"
                warnings["missing_contributor"] += 1
            rows.append((ts, idx, editor, rev.findtext("text") or ""))
        ordered = sorted(rows, key=lambda r: r[0])
        if [r[1] for r in ordered] != list(range(len(rows))):
            warnings["reordered_revisions"] += 1
        yield page_id, [
            ingest.RevisionRecord(page_id, i, ts, editor, raw)
            for i, (ts, _, editor, raw) in enumerate(ordered)
        ]


def read_all(reader, stream):
    """Everything a reader yields, its warnings, and the error text if it raised."""
    warnings = Counter()
    got = []
    try:
        for item in reader(stream, warnings):
            got.append(item)
    except (MarkupError, ParseError) as exc:
        got.append((type(exc).__name__, str(exc)))
    return got, warnings


def new_revisions(stream, warnings):
    return ingest.parse_revision_dump(stream, warnings=warnings)


def new_articles(stream, warnings):
    return ingest.parse_article_dump(stream, warnings=warnings)


READERS = [(new_revisions, old_parse_revision_dump), (new_articles, old_parse_article_dump)]


def same_reading(data, sizes=None):
    for new, old in READERS:
        stream = io.BytesIO(data) if sizes is None else ShortReads(data, sizes)
        assert read_all(new, stream) == read_all(old, io.BytesIO(data))


# fields of a revision, including duplicates, blanks, nesting one level too
# deep, mixed content, entities, CDATA, more than one contributor and
# revisions inside a revision or a title
REVISION_FIELDS = [
    "<timestamp>2008-01-02T00:00:00Z</timestamp>", "<timestamp>2008-01-01T00:00:00Z</timestamp>",
    "<timestamp>never</timestamp>", "<timestamp/>", "<text>words [[a|b]]</text>",
    "<text>second text</text>", "<text/>", "<text>a<b>inner</b>tail</text>",
    "<text>&amp;lt; &#65;</text>", "<text><![CDATA[x <y> & z]]></text>",
    "<text>#REDIRECT [[x]]</text>", "<text>   </text>",
    "<contributor><username>Ann</username></contributor>",
    "<contributor><ip>1.2.3.4</ip></contributor>",
    "<contributor><username>Bob</username><ip>5.6.7.8</ip></contributor>",
    "<contributor><ip>9.9.9.9</ip><username> Cy </username></contributor>",
    "<contributor><username>  </username><ip>1.1.1.1</ip></contributor>",
    "<contributor><username/></contributor>", "<contributor/>",
    "<contributor><x><username>Deep</username></x></contributor>", "<username>Loose</username>",
    "<id>3</id>", "<minor/>", "<comment>c</comment>",
    "<revision><text>inner</text><contributor><username>In</username></contributor></revision>",
]
PAGE_FIELDS = [
    "<title>T</title>", "<title>Second</title>", "<title> </title>", "<title/>", "<id>7</id>",
    "<id>8</id>", "<id> </id>", "<ns>0</ns>", "<redirect title='x'/>",
    "<title>In<revision><text>x</text></revision>tail</title>",
]


@st.composite
def adversarial_pages(draw):
    def revision():
        fields = draw(st.lists(st.sampled_from(REVISION_FIELDS), max_size=7))
        return "<revision>" + "".join(fields) + "</revision>"

    # most pages lead with a title, so the article reader gets past them
    parts = ["<title>Lead</title>"] if draw(st.integers(0, 3)) else []
    for _ in range(draw(st.integers(min_value=0, max_value=9))):
        kind = draw(st.sampled_from(["field", "revision", "revision", "deep revision"]))
        if kind == "field":
            parts.append(draw(st.sampled_from(PAGE_FIELDS)))
        elif kind == "revision":
            parts.append(revision())
        else:
            parts.append("<history>" + revision() + "</history>")
    return "<page>" + "".join(parts) + "</page>"


MALFORMED_PIECES = [
    b"<page>", b"</page>", b"<title>T</title>", b"<title>", b"</title>", b"<id>7</id>",
    b"<revision>", b"</revision>", b"<text>", b"</text>", b"words {{t}} [[a|b]]",
    b"<timestamp>2008-01-01T00:00:00Z</timestamp>",
    b"<contributor><username>Ann</username></contributor>", b"#REDIRECT [[x]]", b"&amp;", b"&",
    b"<", b">", b"\xff\xfe", b"\xc3\xa9", b"\xc3", b"\x00", b"<![CDATA[", b"]]>", b"<!--", b"-->",
    b"<mediawiki>", b"</mediawiki>", b"<?pi x?>", b"<a b='1' b='2'/>",
]


class TestDumpReadersMatchOracle:
    @given(
        st.lists(adversarial_pages(), min_size=1, max_size=4),
        st.lists(st.integers(min_value=1, max_value=200), min_size=1, max_size=6),
    )
    @settings(max_examples=500, deadline=None)
    def test_adversarial_fields(self, pages, sizes):
        data = ("<mediawiki>" + "".join(pages) + "</mediawiki>").encode()
        same_reading(data)
        same_reading(data, sizes)

    @given(
        st.lists(st.sampled_from(MALFORMED_PIECES), max_size=60).map(b"".join),
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
    )
    @settings(max_examples=500, deadline=None)
    def test_malformed_dumps(self, data, sizes):
        # parse errors must read the same, whichever parts the page arrived in
        same_reading(data)
        same_reading(data, sizes)


def big_page(flaw, at):
    """A page of about 240 KB with flaw inserted at byte at of the page."""
    revision = (
        b"<revision><timestamp>2008-01-01T00:00:00Z</timestamp>"
        b"<contributor><username>Ann</username></contributor>"
        b"<text>" + b"w " * 400 + b"</text></revision>"
    )
    body = b"<page><title>T</title><id>1</id>" + revision * 250
    return body[:at] + flaw + body[at:]


FLAWS = [
    b"<", b"</x>", b"&bogus;", b"\xff", b"\xc3", b"<?xml version='1.0'?>", b"<a", b"]]>", b"\x00",
]


class TestParseErrorsMatchOracle:
    @pytest.mark.parametrize("flaw", FLAWS)
    @pytest.mark.parametrize(
        "at", [40, (1 << 16) - 13, (1 << 16) - 1, 1 << 16, (1 << 16) + 1, (2 << 16) + 7]
    )
    def test_error_in_each_block(self, flaw, at):
        # the page starts 11 bytes into the dump, so "at" lands on either
        # side of the 64 KB read seams, and a longer flaw straddles one
        data = b"<mediawiki>" + big_page(flaw, at) + b"</page></mediawiki>"
        same_reading(data)
        new, _ = read_all(new_revisions, io.BytesIO(data))
        assert new[-1][0] == "ParseError" and "malformed page XML" in new[-1][1]

    @pytest.mark.parametrize("flaw", [b"<", b"\xff", b"</x>"])
    @pytest.mark.parametrize("at", [40, (1 << 16) + 1])
    def test_malformed_and_unterminated(self, flaw, at):
        data = b"<mediawiki><page><title>A</title></page>" + big_page(flaw, at)
        same_reading(data)
        new, _ = read_all(new_revisions, io.BytesIO(data))
        assert new[-1] == ("ParseError", "unterminated <page> element [byte 40]")
