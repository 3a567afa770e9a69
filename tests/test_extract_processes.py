"""extract and conflict over an XML dump file read its pages in one process
per usable CPU: process k of P the pages that start in the k-th of P equal
byte ranges of the file.  Whatever the count, stdout, the --ranking file,
stderr and the exit code are those of one process, and no process outlives
the command."""

import io
import os
import signal
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from corplex import cli, ingest

DATA = Path(__file__).parent / "data"
TS = "2020-01-01T00:00:00Z"
DEEP = "".join("{{" + c for c in "abcdefghijklmnopq") + "X" + "}}" * 17


def page(title, text, page_id=1):
    return (f"<page><title>{title}</title><id>{page_id}</id><revision><timestamp>{TS}"
            f"</timestamp><text>{text}</text></revision></page>")


def dump(*pages):
    return '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">' + "".join(pages) + "</mediawiki>"


def pages(n, **special):
    """n plain pages, page i replaced by special[f"p{i}"] where given."""
    return [special.get(f"p{i}", page(f"P{i}", f"Text of page {i}.", i)) for i in range(n)]


def page_offsets(data: bytes) -> list[int]:
    """The offset of each <page> tag in a built dump, whose texts hold none."""
    offsets = []
    while (at := data.find(b"<page>", offsets[-1] + 1 if offsets else 0)) != -1:
        offsets.append(at)
    return offsets


def owner(data: bytes, offset: int, processes: int) -> int:
    """The process whose byte range of data holds offset."""
    ranges = ingest._share_ranges(len(data), processes)
    return next(k for k, (start, stop) in enumerate(ranges)
                if start <= offset and (stop is None or offset < stop))


MALFORMED = "<page><title>Bad</title><revision></page>"
BIG = page("Big", "Long text. " * 9000)  # about 100 KB: its parts span 64 KB blocks

DUMPS = {
    "plain": dump(*pages(7)),
    "one_page": dump(page("Only", "Only text.")),
    "no_pages": dump(),
    "redirects": dump(*pages(5, p1=page("R1", "#REDIRECT [[P0]]"), p2=page("R2", "#redirect x"))),
    "markup_too_deep": dump(*pages(5, p2=page("Deep", DEEP))),
    "empty_pages": dump(*pages(5, p0=page("E0", ""), p4=page("E4", "{{only a template}}"))),
    "entities": dump(*pages(4, p3=page("Ent", "caf&amp;eacute; &amp;bogus; [[a|b]]"))),
    "unterminated_last": dump(*pages(5)) + "<page><title>Cut</title><revision><text>cut",
    "unterminated_big_last": dump(*pages(4)) + BIG[:-len("</page>")],
    "big_pages": dump(*pages(6, p1=BIG, p3=BIG, p4=BIG)),
    "malformed_big": dump(*pages(6, p2=BIG.replace("<text>", "<text><x>", 1))),
    **{f"malformed_p{i}": dump(*pages(7, **{f"p{i}": MALFORMED})) for i in range(4)},
    **{f"untitled_p{i}": dump(*pages(7, **{f"p{i}": page("", "No title.")})) for i in range(4)},
}


EDIT_WAR = [("A", "p"), ("B", "q"), ("A", "p"), ("B", "r"), ("A", "s"), ("B", "r"),
            ("C", "u"), ("D", "v"), ("C", "u"), ("C", "x"), ("D", "v"), ("C", "y")]


def history(title, page_id, revisions, minutes=None):
    """A history page of (editor, text) revisions, a minute apart unless
    minutes gives each one's minute."""
    minutes = minutes or range(len(revisions))
    return f"<page><title>{title}</title><id>{page_id}</id>" + "".join(
        f"<revision><timestamp>2020-01-01T00:{m:02d}:00Z</timestamp><contributor>"
        f"<username>{editor}</username></contributor><text>{text}</text></revision>"
        for m, (editor, text) in zip(minutes, revisions)) + "</page>"


def histories(n, **special):
    """n history pages, an edit war on every third (M = 8, ranked first), page i
    replaced by special[f"p{i}"] where given."""
    def plain(i):
        revisions = EDIT_WAR if i % 3 == 0 else [("E", "m"), ("F", "n")]
        return history(f"H{i}", i, [(e, f"{text} {i}") for e, text in revisions])
    return [special.get(f"p{i}", plain(i)) for i in range(n)]


BIG_HISTORY = history("Big", 500, [(f"E{k % 3}", f"{k} " + "w" * 1400) for k in range(50)])


def big_page_before_bound(processes, k):
    """A history dump whose page of over 64 KB starts 10 bytes before the
    start of process k's byte range, with spaces between pages to place it."""
    head = dump(*histories(6))[:-len("</mediawiki>")]
    tail = "".join(histories(10)[6:]) + "</mediawiki>"
    pad = 0
    while (short := (len(head) + pad + len(BIG_HISTORY) + len(tail)) * k // processes
           - 10 - len(head) - pad) > 0:
        pad += short
    text = head + " " * pad + BIG_HISTORY + tail
    data = text.encode()
    offset = page_offsets(data)[6]
    assert ingest._share_ranges(len(data), processes)[k][0] - offset == 10
    assert len(BIG_HISTORY) > 1 << 16
    return text


HISTORIES = {
    "plain": dump(*histories(12)),
    "one_page": dump(*histories(1)),
    "no_pages": dump(),
    **{f"malformed_p{i}": dump(*histories(12, **{f"p{i}": MALFORMED})) for i in (1, 5, 10)},
    "without_id_or_title": dump(*histories(12, p7="<page><revision></revision></page>")),
    "unterminated_last": dump(*histories(8)) + "<page><title>Cut</title><id>99</id><revision>",
    "empty_histories": dump(*histories(12, p3="<page><title>E3</title><id>3</id></page>",
                                        p9="<page><title>E9</title><id>9</id></page>")),
    "reordered": dump(*histories(12, **{
        f"p{i}": history(f"R{i}", i, [(e, f"{t} {i}") for e, t in EDIT_WAR],
                         minutes=[5, 4, 3, 2, 1, 0, 6, 7, 8, 9, 10, 11])
        for i in (2, 10)})),
    "big_before_bound_1_of_2": big_page_before_bound(2, 1),
    "big_before_bound_1_of_3": big_page_before_bound(3, 1),
    "big_before_bound_2_of_3": big_page_before_bound(3, 2),
    "long_header": dump("<siteinfo>" + "s" * 40_000 + "</siteinfo>", *histories(12)),
}


def extract(monkeypatch, capfdbinary, processes, argv):
    """(exit code, stdout bytes, stderr bytes) of extract in `processes` processes."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: processes)
    code = cli.main(["extract", *argv])
    out, err = capfdbinary.readouterr()
    return code, out, err


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    [str(DATA / "mini_dump_a.xml")],
    [str(DATA / "mini_dump_b.xml")],
    [str(DATA / "mini_dump_a.xml"), "--keep-redirects"],
], ids=["a", "b", "a_keep_redirects"])
def test_fixtures_alike_at_any_count(argv, monkeypatch, capfdbinary):
    runs = [extract(monkeypatch, capfdbinary, p, argv) for p in (1, 2, 3)]
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert_no_child_left()


@pytest.mark.parametrize("name", sorted(DUMPS))
def test_dumps_alike_at_any_count(name, tmp_path, monkeypatch, capfdbinary):
    src = tmp_path / "dump.xml"
    src.write_text(DUMPS[name], encoding="utf-8")
    runs = [extract(monkeypatch, capfdbinary, p, [str(src)]) for p in (1, 2, 3)]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert_no_child_left()


@pytest.mark.parametrize("name,code,err", [
    ("no_pages", 0, b"warning: no_pages x1\n"),
    ("markup_too_deep", 0, b"warning: markup_too_deep x1\n"),
    ("redirects", 0, b"warning: redirect_skipped x2\n"),
    ("malformed_p1", 2, b"error: malformed page XML"),
    ("untitled_p2", 2, b"error: page without a title"),
    ("unterminated_last", 2, b"error: unterminated <page> element"),
])
def test_dumps_give_the_expected_result(name, code, err, tmp_path, monkeypatch, capfdbinary):
    """The serial results the comparisons above hold every count to."""
    src = tmp_path / "dump.xml"
    src.write_text(DUMPS[name], encoding="utf-8")
    got_code, out, got_err = extract(monkeypatch, capfdbinary, 1, [str(src)])
    assert (got_code, got_err[:len(err)]) == (code, err)
    if name.startswith(("malformed_p", "untitled_p")):
        assert out.count(b"\n") == int(name[-1])  # the records of the pages before it


def conflict(monkeypatch, capfdbinary, processes, argv, ranking):
    """(exit code, stdout bytes, stderr bytes, ranking bytes or None) of
    conflict --ranking ranking in `processes` processes."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: processes)
    ranking.unlink(missing_ok=True)
    code = cli.main(["conflict", *argv, "--ranking", str(ranking)])
    out, err = capfdbinary.readouterr()
    return code, out, err, ranking.read_bytes() if ranking.exists() else None


@pytest.mark.parametrize("argv", [
    [str(DATA / "history.xml")],
    [str(DATA / "history.xml"), "--match", "earliest"],
    [str(DATA / "mini_dump_a.xml")],
    [str(DATA / "mini_dump_b.xml")],
], ids=["history", "history_earliest", "a", "b"])
def test_history_fixtures_score_alike_at_any_count(argv, tmp_path, monkeypatch, capfdbinary):
    ranking = tmp_path / "rank.tsv"
    runs = [conflict(monkeypatch, capfdbinary, p, argv, ranking) for p in (1, 2, 3)]
    assert runs[0][0] == 0 and runs[0][1] and runs[0][3]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert_no_child_left()


@pytest.mark.parametrize("name", sorted(HISTORIES))
def test_histories_score_alike_at_any_count(name, tmp_path, monkeypatch, capfdbinary):
    src = tmp_path / "dump.xml"
    src.write_text(HISTORIES[name], encoding="utf-8")
    ranking = tmp_path / "rank.tsv"
    runs = [conflict(monkeypatch, capfdbinary, p, [str(src)], ranking) for p in (1, 2, 3)]
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
    assert_no_child_left()


@pytest.mark.parametrize("name,code,err,records", [
    ("plain", 0, b"", 12),
    ("no_pages", 0, b"warning: no_pages x1\n", 0),
    ("malformed_p5", 2, b"error: malformed page XML", 5),
    ("without_id_or_title", 2, b"error: page without id or title", 7),
    ("unterminated_last", 2, b"error: unterminated <page> element", 8),
    ("empty_histories", 0, b"warning: empty_history x2\n", 10),
    ("reordered", 0, b"warning: reordered_revisions x2\n", 12),
    ("big_before_bound_1_of_2", 0, b"", 11),
    ("long_header", 0, b"", 12),
])
def test_histories_give_the_expected_result(name, code, err, records, tmp_path, monkeypatch,
                                            capfdbinary):
    """The serial results the comparisons above hold every count to."""
    src = tmp_path / "dump.xml"
    src.write_text(HISTORIES[name], encoding="utf-8")
    ranking = tmp_path / "rank.tsv"
    got_code, out, got_err, ranked = conflict(monkeypatch, capfdbinary, 1, [str(src)], ranking)
    assert (got_code, got_err[:len(err)], out.count(b"\n")) == (code, err, records)
    assert ranked is None if code else ranked.count(b"\n") == records


def test_histories_reach_every_share():
    """Each share at 2 and 3 processes holds one of the malformed pages, and
    the big page starts in the share before the bound it crosses."""
    for processes in (2, 3):
        owners = set()
        for i in (1, 5, 10):
            data = HISTORIES[f"malformed_p{i}"].encode()
            owners.add(owner(data, page_offsets(data)[i], processes))
        assert owners == set(range(processes))
    for processes, k in ((2, 1), (3, 1), (3, 2)):
        data = HISTORIES[f"big_before_bound_{k}_of_{processes}"].encode()
        offset = page_offsets(data)[6]
        assert owner(data, offset, processes) == k - 1
        assert owner(data, offset + len(BIG_HISTORY), processes) >= k
    data = HISTORIES["long_header"].encode()
    assert owner(data, page_offsets(data)[0], 2) == 1
    assert owner(data, page_offsets(data)[0], 3) >= 1


def _a_page(rev, strs):
    return None


_GAPS = st.sampled_from([
    "", "\n", "  ", "<siteinfo><sitename>W</sitename></siteinfo>",
    '</mediawiki>\n<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">',
])
_PAGE_TEXT = st.integers(0, 300) | st.integers(60_000, 70_000)  # a few bytes, or past 64 KB


@st.composite
def page_dumps(draw):
    """(dump bytes, pages in it); one page may be moved to start exactly on
    a byte-range bound."""
    parts = ['<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">',
             "h" * draw(st.sampled_from([0, 10, 100_000, 400_000]))]  # up to longer than a share
    n = draw(st.integers(0, 6))
    for i in range(n):
        parts.append(draw(_GAPS))
        parts.append(f"<page><title>T{i}</title><id>{i}</id><revision><text>"
                     f"{'w' * draw(_PAGE_TEXT)}</text></revision></page>")
    parts.append(draw(_GAPS) + "</mediawiki>")
    data = "".join(parts).encode()
    if n and draw(st.booleans()):
        processes = draw(st.integers(2, 4))
        k = draw(st.integers(1, processes - 1))
        offset = page_offsets(data)[draw(st.integers(0, n - 1))]
        pad = 0
        while (short := (len(data) + pad) * k // processes - offset - pad) > 0:
            pad += short
        if short == 0:
            data = data[:offset] + b" " * pad + data[offset:]
            assert ingest._share_ranges(len(data), processes)[k][0] == offset + pad
    return data, n


@settings(max_examples=60, deadline=None)
@given(page_dumps() | st.tuples(st.binary(max_size=3), st.just(0)))  # fewer bytes than shares
def test_shares_read_each_page_once(dump_and_count):
    """The pages that shares 0..P-1 read, joined in share order, are the pages
    one reader reads, for P = 1..4; a dump with no page counts no_pages once."""
    data, n = dump_and_count
    serial_warnings = Counter()
    serial = [(page.offset, page.title)
              for page in ingest._read_pages(io.BytesIO(data), serial_warnings, _a_page)]
    assert [title for _, title in serial] == [f"T{i}" for i in range(n)]
    assert serial_warnings == (Counter() if n else Counter(no_pages=1))
    for processes in range(1, 5):
        warnings = Counter()
        joined = [(page.offset, page.title)
                  for start, stop in ingest._share_ranges(len(data), processes)
                  for page in ingest._read_pages(io.BytesIO(data), warnings, _a_page, start, stop)]
        assert joined == serial
        assert warnings == serial_warnings


class TestSpoolAndChildFailures:
    """A run in several processes that cannot make a spool reads in one; a
    child that ends without its trailer is an error, never a short output."""

    ARGV = {"extract": [], "conflict": ["--ranking", "{tmp}/rank.tsv"]}

    def run(self, command, tmp_path, monkeypatch, capfdbinary, processes):
        src = tmp_path / "dump.xml"
        src.write_text(dump(*histories(30)), encoding="utf-8")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: processes)
        argv = [a.format(tmp=tmp_path) for a in self.ARGV[command]]
        code = cli.main([command, str(src), *argv])
        out, err = capfdbinary.readouterr()
        rank = tmp_path / "rank.tsv"
        return code, out, err, rank.read_bytes() if rank.exists() else None

    @pytest.mark.parametrize("command", sorted(ARGV))
    def test_no_spool_reads_in_one_process(self, command, tmp_path, monkeypatch, capfdbinary):
        one = self.run(command, tmp_path, monkeypatch, capfdbinary, 1)
        made = []

        def spool():  # the first spool is made, the second finds the disk full
            if made:
                raise OSError(28, "No space left on device")
            made.append(real_spool())
            return made[-1]

        def no_fork():
            raise AssertionError("forked without spools")

        real_spool = ingest._spool
        monkeypatch.setattr(ingest, "_spool", spool)
        monkeypatch.setattr(os, "fork", no_fork)
        assert self.run(command, tmp_path, monkeypatch, capfdbinary, 3) == one
        assert one[0] == 0 and one[1]
        assert made and made[0].closed

    @pytest.mark.parametrize("command", sorted(ARGV))
    @pytest.mark.parametrize("worker", [
        lambda *args: os._exit(3),
        lambda *args: os.kill(os.getpid(), signal.SIGKILL),
        lambda *args: None,  # exits 0 with nothing written
        lambda *args: 1 / 0,
    ], ids=["exit_3", "killed", "no_trailer", "raises"])
    def test_child_without_a_trailer_is_an_error(self, command, worker, tmp_path, monkeypatch,
                                                 capfdbinary):
        monkeypatch.setattr(ingest, "_spool_share", worker)
        with pytest.raises(RuntimeError, match="ended without a result"):
            self.run(command, tmp_path, monkeypatch, capfdbinary, 3)
        assert not (tmp_path / "rank.tsv").exists()
        assert_no_child_left()


class TestNoProcessLeftBehind:
    def run(self, tmp_path, monkeypatch, text, processes=2, command="extract"):
        src = tmp_path / "dump.xml"
        src.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: processes)
        extra = ["--ranking", str(tmp_path / "rank.tsv")] if command == "conflict" else []
        return cli.main([command, str(src), "-o", str(tmp_path / "out.jsonl"), *extra])

    def test_after_success(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, dump(*pages(40))) == 0
        assert_no_child_left()

    def test_after_an_error_in_the_parents_page(self, tmp_path, monkeypatch, capsys):
        # the children still have pages to read when page 0 fails
        assert self.run(tmp_path, monkeypatch, dump(*pages(400, p0=MALFORMED)), 3) == 2
        assert "malformed page XML" in capsys.readouterr().err
        assert_no_child_left()

    def test_after_an_error_in_a_childs_page(self, tmp_path, monkeypatch, capsys):
        text = dump(*pages(400, p300=MALFORMED))
        data = text.encode()
        assert owner(data, page_offsets(data)[300], 2) == 1  # the child's share, not the parent's
        assert self.run(tmp_path, monkeypatch, text) == 2
        assert "malformed page XML" in capsys.readouterr().err
        assert_no_child_left()

    def test_after_a_failed_write(self, tmp_path, monkeypatch, capsys):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        src = tmp_path / "dump.xml"
        src.write_text(dump(*pages(400)), encoding="utf-8")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert cli.main(["extract", str(src)]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert_no_child_left()

    def test_conflict_after_success(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, dump(*histories(40)), command="conflict") == 0
        assert (tmp_path / "rank.tsv").read_text().count("\n") == 40
        assert_no_child_left()

    def test_conflict_after_an_error_in_the_parents_share(self, tmp_path, monkeypatch, capsys):
        # the children still have pages to read when page 0 fails
        text = dump(*histories(400, p0=MALFORMED))
        assert self.run(tmp_path, monkeypatch, text, 3, command="conflict") == 2
        assert "malformed page XML" in capsys.readouterr().err
        assert not (tmp_path / "rank.tsv").exists()
        assert_no_child_left()

    def test_conflict_after_an_error_in_a_childs_share(self, tmp_path, monkeypatch, capsys):
        text = dump(*histories(400, p300=MALFORMED))
        data = text.encode()
        assert owner(data, page_offsets(data)[300], 2) == 1
        assert self.run(tmp_path, monkeypatch, text, command="conflict") == 2
        assert "malformed page XML" in capsys.readouterr().err
        assert (tmp_path / "out.jsonl").read_text().count("\n") == 300  # the pages before it
        assert not (tmp_path / "rank.tsv").exists()
        assert_no_child_left()

    def test_conflict_after_a_failed_write(self, tmp_path, monkeypatch, capsys):
        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        src = tmp_path / "dump.xml"
        src.write_text(dump(*histories(400)), encoding="utf-8")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        monkeypatch.setattr("sys.stdout", ClosedPipe())
        assert cli.main(["conflict", str(src)]) == 2
        assert capsys.readouterr().err == "error: [Errno 32] Broken pipe\n"
        assert_no_child_left()


class TestProcessCount:
    def count(self, argv, command="extract"):
        return cli._dump_processes(cli.build_parser().parse_args([command, *argv]))

    def test_xml_file_uses_every_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
        assert self.count([str(DATA / "mini_dump_a.xml")]) == 5

    @pytest.mark.parametrize("argv", [["-"], [str(DATA / "edge_cases.jsonl"), "--format", "jsonl"]],
                             ids=["stdin", "jsonl"])
    def test_one_process(self, argv, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
        assert self.count(argv) == 1

    def test_one_process_for_a_file_that_is_not_regular(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
        os.mkfifo(tmp_path / "fifo")
        assert self.count([str(tmp_path / "fifo")]) == 1
        assert self.count([str(tmp_path / "missing.xml")]) == 1

    def test_one_process_without_fork(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
        monkeypatch.delattr(os, "fork")
        assert self.count([str(DATA / "mini_dump_a.xml")]) == 1

    def test_conflict_file_uses_every_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
        assert self.count([str(DATA / "history.xml")], "conflict") == 5

    @pytest.mark.parametrize("where", ["stdin", "fifo", "missing"])
    def test_conflict_one_process(self, where, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
        os.mkfifo(tmp_path / "fifo")
        path = {"stdin": "-", "fifo": str(tmp_path / "fifo"), "missing": str(tmp_path / "x.xml")}
        assert self.count([path[where]], "conflict") == 1

    def test_conflict_one_process_without_fork(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 5)
        monkeypatch.delattr(os, "fork")
        assert self.count([str(DATA / "history.xml")], "conflict") == 1

    def test_usable_cpus(self):
        assert 1 <= cli._usable_cpus() <= (os.cpu_count() or 1)
