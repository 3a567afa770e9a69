import io
import json
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from corplex.errors import MarkupError, ParseError
from corplex.ingest import (
    Document,
    _iter_page_chunks,
    count_unknown_entities,
    docs_to_jsonl,
    parse_article_dump,
    parse_revision_dump,
    strip_markup,
    utf8_lines,
)


class TestStripMarkup:
    def test_piped_link_keeps_anchor(self):
        assert strip_markup("[[Paris|the city]]") == "the city"

    def test_bare_link_keeps_target(self):
        assert strip_markup("[[Paris]]") == "Paris"

    def test_entity_decoded(self):
        assert strip_markup("&amp;") == "&"
        assert strip_markup("caf&eacute;") == "café"
        assert strip_markup("&#65;&#x42;") == "AB"

    def test_template_removed(self):
        assert strip_markup("{{Infobox|a=1}}April is the fourth month.") == (
            "April is the fourth month."
        )

    def test_nested_templates(self):
        assert strip_markup("x {{a|{{b}}|c}} y") == "x y"

    def test_comments_and_refs(self):
        raw = "Start<!-- hidden -->middle<ref>cite</ref> end<ref name=\"x\"/>."
        assert strip_markup(raw) == "Startmiddle end."

    def test_table_removed(self):
        # a paragraph break marks where the table block stood
        assert strip_markup("before\n{| class=x\n|row\n|}\nafter") == "before\n\nafter"

    def test_heading_markers_removed(self):
        assert strip_markup("== History ==\nBody text.") == "History\nBody text."

    def test_list_and_quote_markup(self):
        assert strip_markup("* item one\n# item two\n'''bold''' ''italic''") == (
            "item one\nitem two\nbold italic"
        )

    def test_category_line_dropped(self):
        assert strip_markup("Text.\n[[Category:Things]]") == "Text."

    def test_interlanguage_dropped(self):
        assert strip_markup("Text here.\n[[fr:Texte]]") == "Text here."

    def test_file_link_dropped(self):
        assert strip_markup("[[File:Photo.jpg|thumb|A caption]] Words.") == "Words."

    def test_external_link(self):
        assert strip_markup("[http://example.com label text] more") == "label text more"

    def test_html_tags_stripped(self):
        assert strip_markup("a <b>bold</b> move <br/> here") == "a bold move here"

    def test_whitespace_normalized(self):
        assert strip_markup("a   b\n\n\n\nc") == "a b\n\nc"

    def test_unknown_entity_passes_through(self):
        out = strip_markup("&zorp; stays")
        assert out == "&zorp; stays"
        assert count_unknown_entities("&zorp; stays &zorp;") == 2

    def test_nested_link_in_template_order(self):
        assert strip_markup("{{t|[[a|b]]}}done") == "done"

    def test_deep_nesting_rejected(self):
        raw = "".join("{{" + c for c in "abcdefghijklmnopq") + "X" + "}}" * 17
        with pytest.raises(MarkupError) as err:
            strip_markup(raw)
        assert "byte offset" in str(err.value)

    def test_unclosed_template_truncates(self):
        assert strip_markup("keep {{never closed") == "keep"

    def test_idempotent_on_worked_cases(self):
        for raw in (
            "[[Paris|the city]]",
            "{{x}}plain",
            "a &amp;&amp; b",
            "== h ==\n* i\n'''b'''",
            "[[File:x.png|cap]] t",
        ):
            once = strip_markup(raw)
            assert strip_markup(once) == once

    @given(st.text(alphabet="ab[]{}|'=&;#: \n", max_size=60))
    @settings(max_examples=300)
    def test_idempotent_property(self, raw):
        try:
            once = strip_markup(raw)
        except MarkupError:
            return
        assert strip_markup(once) == once

    @given(st.text(alphabet="ab[]{}|'= \n", max_size=60))
    @settings(max_examples=200)
    def test_never_grows_without_entities(self, raw):
        try:
            assert len(strip_markup(raw)) <= len(raw)
        except MarkupError:
            pass

    def test_no_markup_residue(self):
        raw = "{{a}}[[b|c]]<ref>d</ref>&amp; == e == '''f'''"
        out = strip_markup(raw)
        for residue in ("[[", "]]", "{{", "}}", "<ref", "&amp;"):
            assert residue not in out


def xml_page(title, page_id, revisions):
    revs = "".join(
        "<revision><id>{}</id><timestamp>{}</timestamp>"
        "<contributor>{}</contributor><text>{}</text></revision>".format(*r)
        for r in revisions
    )
    return f"<page><title>{title}</title><id>{page_id}</id>{revs}</page>"


def xml_dump(*pages):
    return (
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">'
        + "".join(pages)
        + "</mediawiki>"
    ).encode()


USER_A = "<username>Ann</username>"
USER_B = "<username>Bob</username>"


class TestArticleDump:
    def test_entity_example(self):
        dump = xml_dump(
            xml_page("Greeting", 1, [(10, "2008-01-01T00:00:00Z", USER_A, "Hi &amp;amp; bye")])
        )
        docs = list(parse_article_dump(io.BytesIO(dump)))
        assert len(docs) == 1
        assert docs[0].body == "Hi & bye"
        assert docs[0].title == "Greeting"

    def test_empty_stream(self):
        assert list(parse_article_dump(io.BytesIO(b""))) == []

    def test_latest_revision_wins(self):
        dump = xml_dump(
            xml_page(
                "Page",
                1,
                [
                    (10, "2008-01-02T00:00:00Z", USER_A, "newer words"),
                    (11, "2008-01-01T00:00:00Z", USER_B, "older words"),
                ],
            )
        )
        [doc] = parse_article_dump(io.BytesIO(dump))
        assert doc.body == "newer words"

    def test_redirect_skipped_by_default(self):
        dump = xml_dump(
            xml_page("R", 1, [(10, "2008-01-01T00:00:00Z", USER_A, "#REDIRECT [[Target]]")]),
            xml_page("Keep", 2, [(11, "2008-01-01T00:00:00Z", USER_A, "kept body")]),
        )
        warnings = Counter()
        docs = list(parse_article_dump(io.BytesIO(dump), warnings=warnings))
        assert [d.title for d in docs] == ["Keep"]
        assert warnings["redirect_skipped"] == 1

    def test_redirect_kept_on_request(self):
        dump = xml_dump(
            xml_page("R", 1, [(10, "2008-01-01T00:00:00Z", USER_A, "#REDIRECT [[Target]]")])
        )
        docs = list(parse_article_dump(io.BytesIO(dump), skip_redirects=False))
        assert len(docs) == 1

    def test_empty_page_warned_and_skipped(self):
        dump = xml_dump(xml_page("Empty", 1, [(10, "2008-01-01T00:00:00Z", USER_A, "")]))
        warnings = Counter()
        docs = list(parse_article_dump(io.BytesIO(dump), warnings=warnings))
        assert docs == []
        assert warnings["empty_page"] == 1

    def test_too_deep_page_warned_and_skipped(self):
        deep = "".join("{{" + c for c in "abcdefghijklmnopq") + "X" + "}}" * 17
        dump = xml_dump(
            xml_page("One", 1, [(10, "2008-01-01T00:00:00Z", USER_A, "first body")]),
            xml_page("Deep", 2, [(11, "2008-01-01T00:00:00Z", USER_A, deep)]),
            xml_page("Three", 3, [(12, "2008-01-01T00:00:00Z", USER_A, "third body")]),
        )
        warnings = Counter()
        docs = list(parse_article_dump(io.BytesIO(dump), warnings=warnings))
        assert [d.body for d in docs] == ["first body", "third body"]
        assert warnings == Counter(markup_too_deep=1)

    def test_concatenated_dumps(self):
        d1 = xml_dump(xml_page("A", 1, [(10, "2008-01-01T00:00:00Z", USER_A, "one")]))
        d2 = xml_dump(xml_page("B", 2, [(11, "2008-01-01T00:00:00Z", USER_A, "two")]))
        docs = list(parse_article_dump(io.BytesIO(d1 + d2)))
        assert [d.title for d in docs] == ["A", "B"]

    def test_malformed_page_located(self):
        bad = b"<mediawiki><page><title>X</title><revision></page></mediawiki>"
        with pytest.raises(ParseError) as err:
            list(parse_article_dump(io.BytesIO(bad)))
        assert "byte" in str(err.value)

    def test_unterminated_page(self):
        bad = b"<mediawiki><page><title>X</title>"
        with pytest.raises(ParseError):
            list(parse_article_dump(io.BytesIO(bad)))

    def test_jsonl_roundtrip(self):
        docs = [Document("1", "A", "x body"), Document("2", "B", "y body")]
        buf = io.StringIO()
        docs_to_jsonl(docs, buf)
        back = list(parse_article_dump(io.StringIO(buf.getvalue()), format="jsonl"))
        assert back == docs

    def test_jsonl_example(self):
        line = '{"id":"1","title":"A","text":"x"}\n'
        [doc] = parse_article_dump(io.StringIO(line), format="jsonl")
        assert (doc.id, doc.title, doc.body) == ("1", "A", "x")

    def test_jsonl_bad_line_located(self):
        good = '{"id":"1","title":"T","text":"x"}\n'
        with pytest.raises(ParseError) as err:
            list(parse_article_dump(io.StringIO(good + "not json\n"), format="jsonl"))
        assert "line 2" in str(err.value)

    def test_page_without_title_rejected(self):
        dump = b"<mediawiki><page><id>1</id></page></mediawiki>"
        with pytest.raises(ParseError):
            list(parse_article_dump(io.BytesIO(dump)))


class TestRevisionDump:
    def test_grouping_and_order(self):
        dump = xml_dump(
            xml_page(
                "P",
                7,
                [
                    (10, "2008-01-01T00:00:00Z", USER_A, "v1"),
                    (11, "2008-01-02T00:00:00Z", USER_B, "v2"),
                    (12, "2008-01-03T00:00:00Z", USER_A, "v1"),
                ],
            )
        )
        [(page_id, history)] = parse_revision_dump(io.BytesIO(dump))
        assert page_id == "7"
        assert [r.rev_index for r in history] == [0, 1, 2]
        assert [r.editor for r in history] == ["Ann", "Bob", "Ann"]
        assert history[0].raw_text == "v1"

    def test_out_of_order_timestamps_sorted_with_warning(self):
        dump = xml_dump(
            xml_page(
                "P",
                7,
                [
                    (10, "2008-01-05T00:00:00Z", USER_A, "later"),
                    (11, "2008-01-01T00:00:00Z", USER_B, "earlier"),
                ],
            )
        )
        warnings = Counter()
        [(_, history)] = parse_revision_dump(io.BytesIO(dump), warnings)
        assert [r.raw_text for r in history] == ["earlier", "later"]
        assert warnings["reordered_revisions"] == 1

    def test_timestamp_without_offset_is_utc(self):
        revisions = [
            (10, "2008-01-05T00:00:00", USER_A, "later"),
            (11, "2008-01-01T00:00:00Z", USER_B, "earlier"),
            (12, "2008-01-03T00:00:00", USER_A, "middle"),
        ]
        dump = xml_dump(xml_page("P", 7, revisions))
        [(_, history)] = parse_revision_dump(io.BytesIO(dump))
        assert [r.raw_text for r in history] == ["earlier", "middle", "later"]
        [doc] = parse_article_dump(io.BytesIO(dump))
        assert doc.body == "later"

    def test_ip_contributor(self):
        dump = xml_dump(
            xml_page("P", 7, [(10, "2008-01-01T00:00:00Z", "<ip>10.0.0.1</ip>", "x")])
        )
        [(_, history)] = parse_revision_dump(io.BytesIO(dump))
        assert history[0].editor == "10.0.0.1"

    def test_missing_contributor_unknown(self):
        dump = xml_dump(xml_page("P", 7, [(10, "2008-01-01T00:00:00Z", "", "x")]))
        warnings = Counter()
        [(_, history)] = parse_revision_dump(io.BytesIO(dump), warnings)
        assert history[0].editor == "UNKNOWN"
        assert warnings["missing_contributor"] == 1

    def test_raw_text_not_cleaned(self):
        dump = xml_dump(
            xml_page("P", 7, [(10, "2008-01-01T00:00:00Z", USER_A, "{{tpl}} [[x]] &amp;")])
        )
        [(_, history)] = parse_revision_dump(io.BytesIO(dump))
        assert history[0].raw_text == "{{tpl}} [[x]] &"  # XML unescape only

    def test_two_pages_two_groups(self):
        dump = xml_dump(
            xml_page("P1", 1, [(10, "2008-01-01T00:00:00Z", USER_A, "a")]),
            xml_page("P2", 2, [(11, "2008-01-01T00:00:00Z", USER_B, "b")]),
        )
        groups = list(parse_revision_dump(io.BytesIO(dump)))
        assert [pid for pid, _ in groups] == ["1", "2"]

    def test_empty_stream(self):
        assert list(parse_revision_dump(io.BytesIO(b""))) == []


def big_page(text_of, page_id=1, revisions=3000):
    """One page of revisions of 1.4 KB, revision k carrying text_of(k)."""
    words = "alpha beta gamma delta epsilon zeta eta theta iota kappa".split()
    body = "".join(
        f"<revision><timestamp>2010-01-01T00:{k // 60 % 60:02d}:{k % 60:02d}Z</timestamp>"
        f"<contributor><username>User{k % 7}</username></contributor><text>"
        + " ".join(f"{words[(text_of(k) + j) % 10]}{page_id}x{text_of(k)}" for j in range(140))[:1400]
        + "</text></revision>"
        for k in range(revisions)
    )
    return f"<page><title>Big</title><id>{page_id}</id>{body}</page>".encode()


def parse_peak(page):
    """The one history of a dump of page, and the tracemalloc peak of reading it."""
    dump = io.BytesIO(b"<mediawiki>" + page + b"</mediawiki>")
    tracemalloc.start()
    try:
        [(page_id, history)] = parse_revision_dump(dump)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert page_id == "1" and len(history) == 3000
    return history, peak


class TestRevisionDumpMemory:
    def test_one_large_page_is_held_once(self):
        # the parser is fed one block at a time and each revision's element
        # is cleared once read, so what is left is the texts, once each
        page = big_page(lambda k: k)
        _, peak = parse_peak(page)
        assert peak <= 1.4 * len(page), f"peak {peak / len(page):.2f}x the page's {len(page)} bytes"

    def test_reverted_texts_are_held_once(self):
        # every other revision restores the first text: one str serves them all
        page = big_page(lambda k: 0 if k % 2 == 0 else k)
        history, peak = parse_peak(page)
        assert all(rev.raw_text is history[0].raw_text for rev in history[::2])
        assert peak <= 1.0 * len(page), f"peak {peak / len(page):.2f}x the page's {len(page)} bytes"

    def test_a_yielded_page_is_not_held(self):
        # a caller that drops each history holds one page at a time
        first, second = big_page(lambda k: k, 1, 1500), big_page(lambda k: k, 2, 1500)
        dump = io.BytesIO(b"<mediawiki>" + first + second + b"</mediawiki>")
        tracemalloc.start()
        try:
            ids = []
            for page_id, history in parse_revision_dump(dump):
                ids.append(page_id)
                del history
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ids == ["1", "2"]
        assert peak <= 1.4 * len(first), f"peak {peak / len(first):.2f}x one page's bytes"


class TestNoPages:
    @pytest.mark.parametrize("data", [b"", b"<mediawiki><siteinfo/></mediawiki>", b'{"id": 1}\n'])
    @pytest.mark.parametrize("reader", [parse_article_dump, parse_revision_dump])
    def test_counted(self, reader, data):
        warnings = Counter()
        assert list(reader(io.BytesIO(data), warnings=warnings)) == []
        assert warnings == Counter(no_pages=1)

    def test_not_counted_when_a_page_is_read(self):
        warnings = Counter()
        list(parse_revision_dump(io.BytesIO(b"<page><id>1</id></page>"), warnings=warnings))
        assert warnings == Counter()


class TestPageParts:
    def test_blocks_are_read_as_the_parts_are_taken(self):
        data = b"<mediawiki><page>" + b"x" * (5 << 16) + b"</page><page>y</page></mediawiki>"
        reads = []

        class Stream(io.BytesIO):
            def read(self, n=-1):
                reads.append(n)
                return super().read(n)

        chunks = _iter_page_chunks(Stream(data))
        parts, offset = next(chunks)
        assert (offset, len(reads)) == (11, 1)
        assert next(parts).startswith(b"<page>") and len(reads) == 1
        next(parts)
        assert len(reads) == 2
        rest = list(parts)
        assert len(reads) == 6 and rest[-1].endswith(b"</page>")
        [(last, offset)] = list(chunks)
        assert (b"".join(last), offset) == (b"<page>y</page>", len(data) - 26)


class TestUtf8Lines:
    def test_newlines_as_open_gives_them(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes("a\r\nb\rc\nd\u00e9\x1c e".encode())
        with open(path, encoding="utf-8") as fp:
            expected = list(fp)
        assert list(utf8_lines(path)) == expected
        assert list(utf8_lines(io.BytesIO(path.read_bytes()))) == expected

    def test_bad_byte_located(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"ok\n\xc3\xa9 fine\nbad \xc3(\n")
        with pytest.raises(ParseError, match=r"invalid UTF-8 byte 0xc3 \[line 3\]"):
            list(utf8_lines(str(path)))

    def test_streams_are_left_open(self):
        stream = io.BytesIO(b"a\nb\n")
        assert list(utf8_lines(stream)) == ["a\n", "b\n"]
        assert not stream.closed
        text = io.StringIO("x\udcff\n")  # already decoded: taken as it comes
        assert list(utf8_lines(text)) == ["x\udcff\n"]
