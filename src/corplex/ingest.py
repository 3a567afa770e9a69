"""Dump ingestion: MediaWiki XML / JSONL parsing and markup stripping.

strip_markup runs a battery of removal passes to a fixpoint, so its output
is idempotent by construction: link anchors survive, templates, tables,
refs, comments, and tag/entity noise do not.  A pass repeats only while a
cheap check finds something left to strip, so most pages take one pass.
Dump parsing is streaming, and a concatenation of dumps parses as the
concatenation of their pages.  A page that spans 64 KB blocks goes to the
parser a block at a time as it is read, and each revision's element is
cleared once its fields are read, so reading it holds one block plus the
page's distinct texts, once each: equal texts of a page share one str.
parse_revision_dump keeps nothing of a page it has yielded, so one page is
in memory at a time.  _read_in_shares reads a dump file in several
processes, each the pages that start in its own byte range of the file, and
writes what one process would.  JSONL and other text inputs are read as
UTF-8, and a byte that is not UTF-8 is a ParseError at its line.

Everything here runs in time linear in its input: the page chunker reads
each byte once and never joins a page's blocks, and every markup pass is a
single forward scan (no pattern can backtrack over the rest of the text),
so one malformed or vandalised page cannot stall a dump.  The fixpoint is
capped at 100 passes, each linear, and text that changed in all 100 is
counted as the ``markup_fixpoint_cap`` warning.
"""

from __future__ import annotations

import contextlib
import html.entities
import io
import json
import os
import re
import xml.etree.ElementTree as ET
from collections import Counter
from datetime import datetime, timezone
from itertools import chain
from typing import IO, Iterable, Iterator, NamedTuple

from .errors import CorplexError, MarkupError, ParseError


class Document(NamedTuple):
    id: str
    title: str
    body: str


class RevisionRecord(NamedTuple):
    page_id: str
    rev_index: int
    timestamp: datetime
    editor: str
    raw_text: str


_REF_OPEN_RE = re.compile(r"<ref\b([^<>]*)([<>]|\Z)", re.IGNORECASE)
_REF_CLOSE_RE = re.compile(r"</ref\s*>", re.IGNORECASE)
# the line-start scanners run over "\n" + text: a literal "\n" is searched
# for at C speed, where a MULTILINE "^" is tried at every position
_HEADING_RE = re.compile(r"\n[ \t]*(=[^\n]*=)[ \t]*(?=\n|\Z)")
_LIST_RE = re.compile(r"\n[ \t]*[*#;:]+[ \t]*")
_HR_RE = re.compile(r"\n-{4,}[ \t]*(?=\n|\Z)")
# a line after the first that one of them may act on, in normalised text
_LINE_MARKUP_RE = re.compile(r"\n(?:[*#;:=]|----)")
_LINK_RE = re.compile(r"\[\[([^\[\]]*)\]\]")
_EXT_OPEN_RE = re.compile(r"\[(?:https?|ftp)://", re.IGNORECASE)
_URL_RE = re.compile(r"[^\s\]]*")
_TAG_RE = re.compile(r"</?[A-Za-z][^<>]*>")
_MAGIC_RE = re.compile(r"__[A-Z]+__")
_QUOTES_RE = re.compile(r"''+")
_ENTITY_RE = re.compile(r"&(#[0-9]+|#x[0-9A-Fa-f]+|[A-Za-z][A-Za-z0-9]*);")
# whitespace runs, each pattern led by a literal that re searches for in C
_SPACE_RUN_RE = re.compile(r"  +")
_BLANK_LINES_RE = re.compile(r"\n\n\n+")

_DROP_LINK_PREFIXES = {"category", "file", "image", "media"}

_NAMED_ENTITIES = dict(html.entities.name2codepoint)
_NAMED_ENTITIES["apos"] = 0x27

_MAX_PASSES = 100


def _remove_comments(s: str) -> str:
    """Drop every <!--...--> span; an unclosed opener drops the rest."""
    parts = []
    i = 0
    while True:
        start = s.find("<!--", i)
        if start == -1:
            break
        end = s.find("-->", start + 4)
        if end == -1:
            break  # no "-->" follows, so no later opener closes either
        parts.append(s[i:start])
        i = end + 3
    parts.append(s[i:])
    s = "".join(parts)
    # the unclosed opener, or one spliced together by the removals
    start = s.find("<!--")
    return s[:start] if start != -1 else s


def _remove_refs(s: str) -> str:
    """Drop <ref .../> tags and <ref ...>...</ref> spans (case-insensitive).

    A <ref ...> with no </ref> after it stays, and once no </ref> follows,
    only self-closing tags are looked for.
    """
    parts = []
    i = pos = 0
    closers_left = True
    while True:
        m = _REF_OPEN_RE.search(s, pos)
        if m is None:
            break
        stop = -1
        if m.group(2) == ">":
            if m.group(1).rstrip().endswith("/"):
                stop = m.end()
            elif closers_left:
                close = _REF_CLOSE_RE.search(s, m.end())
                if close is None:
                    closers_left = False
                else:
                    stop = close.end()
        if stop == -1:
            pos = m.start() + 1
            continue
        parts.append(s[i : m.start()])
        i = pos = stop
    parts.append(s[i:])
    return "".join(parts)


def _reduce_innermost(s: str, open_ch: str, close_ch: str, width: int, repl) -> str:
    """Rewrite open*width + w + close*width to repl(w), innermost first, to a fixpoint.

    w holds neither bracket char, and neither may repl(w).  Such spans
    cannot overlap, so every rewrite order ends in the same text; one
    left-to-right pass with a stack reaches it, rewriting each span as its
    last closer arrives.
    """
    if open_ch * width not in s:
        return s  # no span, and none can appear without a rewrite first
    closers = [close_ch] * (width - 1)
    openers = [open_ch] * width
    out: list[str] = []  # the rewritten text so far, without empty pieces
    marks: list[int] = []  # indices in out of single bracket chars
    for k, piece in enumerate(re.split(f"([{re.escape(open_ch + close_ch)}])", s)):
        if not k % 2:
            if piece:
                out.append(piece)
            continue
        n = len(out)
        if piece == close_ch and len(marks) >= 2 * width - 1 and out[n - width + 1 :] == closers:
            q = marks[-width]  # the bracket before the pending closers
            if q >= width - 1 and out[q - width + 1 : q + 1] == openers:
                text = repl("".join(out[q + 1 : n - width + 1]))
                del out[q - width + 1 :]
                del marks[-(2 * width - 1) :]
                if text:
                    out.append(text)
                continue
        marks.append(n)
        out.append(piece)
    return "".join(out)


def _remove_braced(s: str, open_tok: str, close_tok: str, max_depth: int | None) -> str:
    """Drop every balanced open..close span, nesting included.

    An unclosed opener drops everything to the end; depth beyond max_depth
    raises with the byte offset of the offending opener.
    """
    parts = []
    i = 0
    n = len(s)
    # next opener and closer at or after the scan position; each is looked
    # up again only once the scan has passed it
    nxt_open = s.find(open_tok)
    nxt_close = s.find(close_tok)
    while True:
        if nxt_open != -1 and nxt_open < i:
            nxt_open = s.find(open_tok, i)
        start = nxt_open
        if start == -1:
            parts.append(s[i:])
            break
        parts.append(s[i:start])
        depth = 1
        j = start + len(open_tok)
        while depth:
            if nxt_close != -1 and nxt_close < j:
                nxt_close = s.find(close_tok, j)
            if nxt_close == -1:
                j = n
                break
            if nxt_open != -1 and nxt_open < j:
                nxt_open = s.find(open_tok, j)
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


def _link_text(inner: str) -> str:
    target = inner.split("|", 1)[0].strip()
    if ":" in target:
        prefix = target.split(":", 1)[0].strip()
        if prefix.lower() in _DROP_LINK_PREFIXES:
            return ""
        if 2 <= len(prefix) <= 3 and prefix.isalpha() and prefix.islower():
            return ""  # interlanguage link
    parts = inner.split("|")
    return parts[-1].strip() if len(parts) > 1 else target


def _resolve_internal_links(s: str) -> str:
    # innermost first, so links nested in file captions resolve before the
    # enclosing file link is judged.  One regex pass resolves the innermost
    # links at C speed; the stack pass finishes any nesting in linear time.
    s = _LINK_RE.sub(lambda m: _link_text(m.group(1)), s)
    return _reduce_innermost(s, "[", "]", 2, _link_text)


def _remove_params(s: str) -> str:
    # {{{param}}} placeholders, innermost first
    return _reduce_innermost(s, "{", "}", 3, lambda inner: "")


def _resolve_external_links(s: str) -> str:
    """Replace [scheme://url label] with its label, [scheme://url] with nothing.

    The URL runs to the first whitespace or "]"; a label needs a space or
    tab there and runs to the next "]".  Openers inside one URL share its
    end, and once no "]" follows, no later link can close.
    """
    parts = []
    i = pos = 0
    url_end = -1
    n = len(s)
    while True:
        m = _EXT_OPEN_RE.search(s, pos)
        if m is None:
            break
        if m.end() > url_end:
            url_end = _URL_RE.match(s, m.end()).end()
        if url_end == n:
            break  # nothing after the URL, here or for any opener inside it
        c = s[url_end]
        if c == "]":
            stop, label = url_end + 1, ""
        elif c in " \t":
            close = s.find("]", url_end)
            if close == -1:
                break
            stop, label = close + 1, s[url_end:close].strip()
        else:
            pos = m.start() + 1
            continue
        parts.append(s[i : m.start()])
        parts.append(label)
        i = pos = stop
    parts.append(s[i:])
    return "".join(parts)


def _heading_repl(m: re.Match) -> str:
    # "== Title ==" keeps "Title"; a line of "=" alone keeps nothing
    return "\n" + m.group(1).strip("=").strip(" \t")


def _strip_line_markup(s: str) -> str:
    """Reduce heading lines to their titles and drop list markers and rules."""
    s = _HEADING_RE.sub(_heading_repl, "\n" + s)
    s = _LIST_RE.sub("\n", s)
    return _HR_RE.sub("\n", s)[1:]


def _decode_entities(s: str) -> str:
    def repl(m: re.Match) -> str:
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


def count_unknown_entities(s: str, warnings: Counter | None = None) -> int:
    found = 0
    for m in _ENTITY_RE.finditer(s):
        name = m.group(1)
        if not name.startswith("#") and name not in _NAMED_ENTITIES:
            found += 1
    if warnings is not None and found:
        warnings["unknown_entity"] += found
    return found


def _normalize_whitespace(s: str) -> str:
    # runs of spaces and tabs become one space first, so each line has at
    # most one space to trim at either end
    s = _SPACE_RUN_RE.sub(" ", s.replace("\t", " "))
    s = s.replace(" \n", "\n").replace("\n ", "\n")
    if "\n\n\n" in s:
        s = _BLANK_LINES_RE.sub("\n\n", s)
    return s.strip()


def _strip_pass(s: str, max_depth: int) -> str:
    s = s.replace("\r\n", "\n").replace("\r", "\n")
    s = _remove_comments(s)
    s = _remove_refs(s)
    s = _remove_params(s)
    s = _remove_braced(s, "{{", "}}", max_depth)
    s = _remove_braced(s, "{|", "|}", None)
    s = _strip_line_markup(s)
    s = _resolve_internal_links(s)
    s = _resolve_external_links(s)
    s = _TAG_RE.sub("", s)
    s = _MAGIC_RE.sub("", s)
    s = _QUOTES_RE.sub("", s)
    # stray markers, in this order.  Removal adds no character, so a marker
    # whose first or last character is missing cannot be there, and the
    # one-character search runs many times faster than a two-character one
    for guard, stray in (
        ("[", "[["), ("]", "]]"), ("{", "{{"), ("}", "}}"), ("{", "{|"), ("}", "|}")
    ):
        if guard in s:
            s = s.replace(stray, "")
    s = _decode_entities(s)
    return _normalize_whitespace(s)


def _may_change(s: str) -> bool:
    """False only when _strip_pass(s) would return s unchanged.

    Each scanner of the pass leaves a text alone unless it holds that
    scanner's trigger, so this looks for every trigger.  Whitespace the pass
    would normalise counts too, and without it every line starts with its
    first non-blank character, so the line-start scanners need look only
    right after a "\n".  A marker is looked for only once a character of
    it is found: a one-character search is the fastest in C, and stripped
    text rarely holds "{", "}", "[", "]", "<", "'", "&" or "_".
    """
    if not s:
        return False
    return (
        s[0].isspace()
        or s[-1].isspace()
        or "\t" in s
        or "  " in s
        or " \n" in s
        or "\n " in s
        or "\n\n\n" in s
        or "\r" in s
        or ("{" in s and ("{{" in s or "{|" in s))
        or ("}" in s and ("}}" in s or "|}" in s))
        or ("[" in s and ("[[" in s or _EXT_OPEN_RE.search(s) is not None))
        or ("]" in s and "]]" in s)
        # a <ref> the pass removes is a tag too
        or ("<" in s and ("<!--" in s or _TAG_RE.search(s) is not None))
        or ("'" in s and "''" in s)
        or ("&" in s and _ENTITY_RE.search(s) is not None)
        or ("_" in s and _MAGIC_RE.search(s) is not None)
        or s[0] in "*#;:="
        or s.startswith("----")
        or _LINE_MARKUP_RE.search(s) is not None
    )


def strip_markup(raw: str, max_depth: int = 16, warnings: Counter | None = None) -> str:
    """Reduce wikitext to plain text, keeping link anchor texts.

    Passes repeat while a cheap check (_may_change) finds something left to
    strip and the last pass changed the text, so markup revealed by an
    earlier removal (or by entity decoding) is cleaned up too, and clean
    text costs no confirming pass.  Unknown entity names survive literally
    and are counted once against the final text.  Text that changed in each
    of _MAX_PASSES passes is returned as it stands and counted as a
    ``markup_fixpoint_cap`` warning, whether or not it would change again.
    """
    s = raw
    for _ in range(_MAX_PASSES):
        if not _may_change(s):
            break  # the pass would return s: s is the fixpoint
        new = _strip_pass(s, max_depth)
        if new == s:
            break
        s = new
    else:
        if warnings is not None:
            warnings["markup_fixpoint_cap"] += 1
    if warnings is not None:
        count_unknown_entities(s, warnings)
    return s


# ---------------------------------------------------------------------------
# dump readers

_OPEN_TAG = b"<page>"
_CLOSE_TAG = b"</page>"


def _iter_page_chunks(stream: IO[bytes]) -> Iterator[tuple[Iterator[bytes], int]]:
    """Yield (page parts, absolute offset) per <page>...</page> element.

    The parts are an iterator of non-empty byte strings that join to the
    page's bytes.  It reads the next 64 KB block only when asked for the
    next part, so memory stays bounded by one block, and the caller must
    use it up before asking for the next page.  At the end of the
    stream inside a page, the parts iterator raises "unterminated <page>
    element".  Anything between pages (headers, siteinfo, a second dump's
    preamble) is skipped, so concatenated dumps chunk exactly like the dumps
    chunked separately.  Each block is searched once, with the seam it
    makes with the last one.
    """
    seam = len(_CLOSE_TAG) - 1  # bytes of a tag that can precede a block
    buf = b""  # bytes not yet searched for <page>
    base = 0  # absolute offset of buf[0]

    def rest_of_page(first: bytes, page_at: int) -> Iterator[bytes]:
        # an open page from its <page> on: first, then the blocks up to and
        # including its </page>; what follows that is left in buf
        nonlocal buf, base
        yield first
        tail = first[-seam:]  # last bytes of the page, searched already
        while True:
            block = stream.read(1 << 16)
            if not block:
                raise ParseError("unterminated <page> element", location=f"byte {page_at}")
            found = (tail + block[:seam]).find(_CLOSE_TAG)
            if found != -1:
                stop = found - len(tail) + len(_CLOSE_TAG)
            else:
                found = block.find(_CLOSE_TAG)
                if found == -1:
                    tail = (tail + block[-seam:])[-seam:]
                    base += len(block)
                    yield block
                    continue
                stop = found + len(_CLOSE_TAG)
            buf = block[stop:]
            base += stop
            yield block[:stop]
            return

    while True:
        block = stream.read(1 << 16)
        buf += block
        pos = 0
        while True:
            start = buf.find(_OPEN_TAG, pos)
            if start == -1:
                # keep a tail in case "<page>" straddles the block boundary
                keep = len(_OPEN_TAG) - 1 if block else 0
                cut = max(len(buf) - keep, pos)
                base += cut
                buf = buf[cut:]
                break
            end = buf.find(_CLOSE_TAG, start)
            if end == -1:
                if not block:
                    raise ParseError(
                        "unterminated <page> element", location=f"byte {base + start}"
                    )
                page_at = base + start
                parts = rest_of_page(buf[start:], page_at)
                base += len(buf)
                buf = b""
                yield parts, page_at
                pos = 0
                continue
            pos = end + len(_CLOSE_TAG)
            yield iter((buf[start:pos],)), base + start
        if not block:
            return


class _Page(NamedTuple):
    offset: int
    title: str
    page_id: str
    revisions: list[tuple]  # what the reader read of each revision child, in order


def _read_page(parts: Iterator[bytes], offset: int, read_revision) -> _Page:
    """Parse one page from its parts; read_revision(element, strs) reads a revision.

    strs is one dict per page, for read_revision to share equal strs in.  A
    page that spans blocks is parsed as its blocks come: each revision is
    read at its end tag and its element is then cleared, so the tree never
    holds a revision's text.  A page within one block is small, so it is
    parsed whole and read after, without the per-element events.  Either
    way the revisions returned are the page's direct children, and the
    parser reports the same errors, at the same lines and columns, as for
    the page's joined bytes.
    """
    fields: dict[ET.Element, tuple] = {}
    strs: dict[str, str] = {}
    first = next(parts)
    second = next(parts, None)
    try:
        if second is None:
            parser = ET.XMLParser()
            parser.feed(first)
            page = parser.close()
        else:
            parser = ET.XMLPullParser(("end",))
            for part in chain((first, second), parts):
                parser.feed(part)
                for _, elem in parser.read_events():
                    if elem.tag == "revision":
                        fields[elem] = read_revision(elem, strs)
                        elem.clear()
            # the parts end with the page's own end tag, so close() finds
            # no element left to end: the last event read was the page's
            parser.close()
            page = elem
    except ET.ParseError as exc:
        error = str(exc)
    else:
        title = (page.findtext("title") or "").strip()
        revisions = [
            fields[rev] if rev in fields else read_revision(rev, strs)
            for rev in page.findall("revision")
        ]
        return _Page(offset, title, (page.findtext("id") or "").strip() or title, revisions)
    for _ in parts:  # a page that is also unterminated reports that first
        pass
    raise ParseError(f"malformed page XML: {error}", location=f"byte {offset}")


def _read_pages(
    stream: IO[bytes], warnings: Counter, read_revision, start: int = 0, stop: int | None = None
) -> Iterator[_Page]:
    """Each <page> of the stream that starts at a byte offset in [start, stop), read.

    stop None is the end of the stream.  The stream is chunked from its
    first byte, so page boundaries and chunker errors do not depend on the
    range: the pages before start are passed over unparsed, and reading
    ends at the first page that starts at or past stop.  So the pages of
    consecutive ranges, joined, are the stream's pages, each once.  A
    stream with no page counts no_pages, in the open-ended range only: the
    ranges of a file of fewer bytes than processes share their start.
    """
    found = False
    for parts, offset in _iter_page_chunks(stream):
        found = True
        if stop is not None and offset >= stop:
            return
        if offset >= start:
            yield _read_page(parts, offset, read_revision)
        else:
            for _ in parts:
                pass
    if not found and stop is None:
        warnings["no_pages"] += 1


def _parse_timestamp(text: str | None):
    """An aware datetime; one without an offset is read as UTC, as dumps write it."""
    if not text:
        return None
    try:
        ts = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        return None
    return ts if ts.tzinfo else ts.replace(tzinfo=timezone.utc)


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


def _editor(rev: ET.Element) -> str:
    """The stripped findtext("contributor/username"), else that of "contributor/ip".

    Both paths would go through ElementPath in Python; findall and findtext
    on a plain tag scan the direct children in C.  Like findtext, this reads
    only the first username (or ip) among all the contributors.
    """
    contributors = rev.findall("contributor")
    for tag in ("username", "ip"):
        for contributor in contributors:
            text = contributor.findtext(tag)
            if text is not None:
                text = text.strip()
                if text:
                    return text
                break
    return ""


def _article_revision(rev: ET.Element, strs: dict) -> tuple[datetime | None, str]:
    return _parse_timestamp(rev.findtext("timestamp")), rev.findtext("text") or ""


def _history_revision(rev: ET.Element, strs: dict) -> tuple[datetime | None, str, str]:
    # equal editors and texts of a page share one str: a revert holds no
    # second copy of the text it restores, and detect_reverts matches it by
    # identity
    editor = _editor(rev)
    text = rev.findtext("text") or ""
    return (
        _parse_timestamp(rev.findtext("timestamp")),
        strs.setdefault(editor, editor),
        strs.setdefault(text, text),
    )


def parse_article_dump(
    source,
    format: str = "xml-export",
    skip_redirects: bool = True,
    warnings: Counter | None = None,
) -> Iterator[Document]:
    """Stream Documents out of an article dump (latest revision per page).

    source may be a path or an open stream (binary for xml-export).  Empty
    pages, pages whose markup nests too deep to strip and (by default)
    redirects are skipped with counted warnings.
    """
    warnings = warnings if warnings is not None else Counter()
    if format in ("jsonl",):
        yield from _parse_jsonl(source, warnings)
        return
    if format not in ("xml-export", "xml"):
        raise ValueError(f"unknown dump format {format!r}")
    with _open_maybe(source) as stream:
        yield from _article_docs(stream, skip_redirects, warnings)


def _article_docs(
    stream: IO[bytes], skip_redirects: bool, warnings: Counter, start: int = 0,
    stop: int | None = None,
) -> Iterator[Document]:
    """The Documents of the pages of _read_pages(..., start, stop)."""
    for page in _read_pages(stream, warnings, _article_revision, start, stop):
        doc = _article_doc(page, skip_redirects, warnings)
        if doc is not None:
            yield doc


def _article_doc(page: _Page, skip_redirects: bool, warnings: Counter) -> Document | None:
    if not page.title:
        raise ParseError("page without a title", location=f"byte {page.offset}")
    if not page.revisions:
        warnings["page_without_revision"] += 1
        return None
    latest = max(enumerate(page.revisions), key=lambda iv: (iv[1][0] or _EPOCH, iv[0]))
    raw = latest[1][1]
    if not raw.strip():
        warnings["empty_page"] += 1
        return None
    if skip_redirects and raw.lstrip()[:9].lower() == "#redirect":
        warnings["redirect_skipped"] += 1
        return None
    try:
        body = strip_markup(raw, warnings=warnings)
    except MarkupError:  # one page must not end the whole dump
        warnings["markup_too_deep"] += 1
        return None
    if not body:
        warnings["empty_page"] += 1
        return None
    return Document(id=page.page_id, title=page.title, body=body)


def parse_revision_dump(
    source, warnings: Counter | None = None
) -> Iterator[tuple[str, list[RevisionRecord]]]:
    """Stream (page_id, history) groups out of a full-history dump.

    Histories come back timestamp-sorted (stable) with rev_index 0..k-1;
    raw_text is preserved exactly as stored, never cleaned, and equal texts
    of a page are one str.  No reference to a yielded history is kept, so
    one page at a time is in memory if the caller drops each in turn.
    """
    warnings = warnings if warnings is not None else Counter()
    with _open_maybe(source) as stream:
        yield from _histories(stream, warnings)


def _histories(
    stream: IO[bytes], warnings: Counter, start: int = 0, stop: int | None = None
) -> Iterator[tuple[str, list[RevisionRecord]]]:
    """The (page_id, history) groups of the pages of _read_pages(..., start, stop)."""
    for page in _read_pages(stream, warnings, _history_revision, start, stop):
        if not page.page_id:
            raise ParseError("page without id or title", location=f"byte {page.offset}")
        yield page.page_id, _history(page, warnings)
        del page  # hold nothing of this page while the next one is read


def _history(page: _Page, warnings: Counter) -> list[RevisionRecord]:
    rows = []
    last_ts = _EPOCH
    for idx, (ts, editor, text) in enumerate(page.revisions):
        if ts is None:
            warnings["missing_timestamp"] += 1
            ts = last_ts
        last_ts = ts
        if not editor:
            editor = "UNKNOWN"
            warnings["missing_contributor"] += 1
        rows.append((ts, idx, editor, text))
    ordered = sorted(rows, key=lambda r: r[0])
    if [r[1] for r in ordered] != list(range(len(rows))):
        warnings["reordered_revisions"] += 1
    return [
        RevisionRecord(page.page_id, i, ts, editor, raw)
        for i, (ts, _, editor, raw) in enumerate(ordered)
    ]


# surrogateescape decodes each byte that is not UTF-8 to one of these
_ESCAPED_BYTE_RE = re.compile("[\udc80-\udcff]")


def utf8_lines(source) -> Iterator[str]:
    """The lines of a UTF-8 text: a path, a binary stream or a text stream.

    Paths and binary streams are decoded here, with universal newlines as
    open() gives them, and a line holding a byte that is not UTF-8 raises
    ParseError at its line number.  A text stream's lines come as it gives
    them.  Streams are left open.
    """
    with _open_maybe(source) as stream:
        if not isinstance(stream, (io.RawIOBase, io.BufferedIOBase)):
            yield from stream
            return
        text = io.TextIOWrapper(stream, encoding="utf-8", errors="surrogateescape")
        try:
            for line_no, line in enumerate(text, start=1):
                if not line.isascii():
                    bad = _ESCAPED_BYTE_RE.search(line)
                    if bad is not None:
                        raise ParseError(
                            f"invalid UTF-8 byte 0x{ord(bad.group()) - 0xDC00:02x}",
                            location=f"line {line_no}",
                        )
                yield line
        finally:
            text.detach()  # closing the wrapper would close the stream


def _parse_jsonl(source, warnings: Counter) -> Iterator[Document]:
    for line_no, line in enumerate(utf8_lines(source), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}", location=f"line {line_no}") from None
        try:
            doc_id, title, text = record["id"], record["title"], record["text"]
        except (TypeError, KeyError):
            raise ParseError(
                "record needs id, title and text fields", location=f"line {line_no}"
            ) from None
        if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
            raise ParseError("record id is neither a string nor an integer",
                             location=f"line {line_no}")
        for name, value in (("title", title), ("text", text)):
            if not isinstance(value, str):
                raise ParseError(f"record {name} is not a string", location=f"line {line_no}")
        if not text.strip():
            warnings["empty_page"] += 1
            continue
        yield Document(id=str(doc_id), title=title, body=text)


def _jsonl_record(doc: Document) -> str:
    return json.dumps({"id": doc.id, "title": doc.title, "text": doc.body}, ensure_ascii=False)


def docs_to_jsonl(docs: Iterable[Document], fp: IO[str]) -> int:
    count = 0
    for doc in docs:
        fp.write(_jsonl_record(doc))
        fp.write("\n")
        count += 1
    return count


# ---------------------------------------------------------------------------
# a dump file read in several processes

_CHILD_ERRORS = {"CorplexError": CorplexError, "OSError": OSError}  # raised again in the parent


def _read_in_shares(source, processes: int, out: IO[str], warnings: Counter, write_share) -> list:
    """write_share's records of every page of the dump at source, read in processes.

    write_share(stream, start, stop, out, warnings) writes to out one line per
    record of the pages that _read_pages(stream, ..., start, stop) reads, adds
    to warnings, and returns a list of pairs of JSON values.  Process k of P
    owns the pages that start in the k-th of P equal byte ranges of the
    file (_share_ranges): 0 is this process, and the others are forked
    children.  Each child writes its records to an unlinked spool file made
    before the fork, then one trailer line: its warnings and pairs, or its
    first error.  This process writes its own share straight to out, then
    waits for each child in turn and copies its spool.  So out, the
    warnings, the first error in page order and the pairs, returned in page
    order, are those of one process.  With one process, or when no spool
    can be made, write_share reads the whole of source here, which may then
    be a stream.  Every child has ended and been reaped when this returns or
    raises; one still running then is killed.  The caller runs one thread,
    since a forked child holds only the thread that forked it.
    """
    spools: list[IO[str]] = []
    try:
        for _ in range(processes - 1):
            spools.append(_spool())
    except OSError:  # no room for a spool: read in one process
        for spool in spools:
            spool.close()
        spools = []
    if not spools:
        with _open_maybe(source) as stream:
            return write_share(stream, 0, None, out, warnings)
    pids: list[int] = []
    try:
        (start, stop), *child_ranges = _share_ranges(os.stat(source).st_size, processes)
        for spool, (child_start, child_stop) in zip(spools, child_ranges):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _spool_share(source, child_start, child_stop, spool, write_share)
                    code = 0
                finally:
                    os._exit(code)  # never return into the parent's code, nor flush its buffers
            pids.append(pid)
        with open(source, "rb") as stream:
            pairs = write_share(stream, start, stop, out, warnings)
        for spool in spools:
            _, status = os.waitpid(pids[0], 0)
            del pids[0]
            if status:
                raise RuntimeError(f"a dump process ended without a result (wait status {status})")
            _copy_spool(spool, out, warnings, pairs)
        return pairs
    finally:
        for spool in spools:
            spool.close()
        if pids:  # not all reaped: the run failed
            import signal  # not at module load: only a run that failed needs it

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)


def _share_ranges(size: int, processes: int) -> list[tuple[int, int | None]]:
    """(start, stop) of each process's byte range of a file of size bytes.

    The ranges are equal to a byte, and the last one is open-ended (stop
    None), so a page past the size read at the start still has an owner.
    """
    starts = [size * k // processes for k in range(processes)]
    return list(zip(starts, [*starts[1:], None]))


def _spool() -> IO[str]:
    """An unlinked file for one child's records and trailer."""
    import tempfile  # not at module load: only a run in several processes needs it

    return tempfile.TemporaryFile("w+", encoding="utf-8", newline="\n")


def _spool_share(source, start: int, stop: int | None, spool: IO[str], write_share) -> None:
    """A child's share of _read_in_shares: its records, then its trailer, in spool."""
    warnings: Counter = Counter()
    try:
        with open(source, "rb") as stream:
            pairs = write_share(stream, start, stop, spool, warnings)
        trailer = ["warnings", warnings, list(chain.from_iterable(pairs))]
    except Exception as exc:  # sent to the parent, which raises it
        name = next((name for name, cls in _CHILD_ERRORS.items() if isinstance(exc, cls)),
                    type(exc).__name__)
        trailer = ["error", name, str(exc)]
    spool.write(json.dumps(trailer) + "\n")
    spool.flush()


def _copy_spool(spool: IO[str], out: IO[str], warnings: Counter, pairs: list) -> None:
    """A child's records copied to out, then its warnings added and its pairs
    appended to pairs, or its error raised once the records before it are copied.

    The trailer's pairs come as one flat list, which costs less to hold
    while the pairs are built than a list per pair.
    """
    spool.seek(0)
    trailer = spool.readline()
    while line := spool.readline():
        out.write(trailer)
        trailer = line
    if not trailer.startswith('["'):
        raise RuntimeError("a dump process ended without a result")
    kind, first, second = json.loads(trailer)
    if kind == "warnings":
        warnings.update(first)
        values = iter(second)
        pairs.extend(zip(values, values))
        return
    if first in _CHILD_ERRORS:
        raise _CHILD_ERRORS[first](second)
    raise RuntimeError(f"{first} in a dump process: {second}")


def _open_maybe(source):
    """A path opened for binary reading; a stream passes through, left open."""
    if isinstance(source, str) or hasattr(source, "__fspath__"):
        return open(source, "rb")
    return contextlib.nullcontext(source)
