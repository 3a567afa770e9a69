"""extract over an XML dump file reads its pages in one process per usable
CPU.  Whatever the count, stdout, stderr and the exit code are those of one
process, and no process outlives the command."""

import os
from pathlib import Path

import pytest

from corplex import cli

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


class TestNoProcessLeftBehind:
    def run(self, tmp_path, monkeypatch, text, processes=2):
        src = tmp_path / "dump.xml"
        src.write_text(text, encoding="utf-8")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: processes)
        return cli.main(["extract", str(src), "-o", str(tmp_path / "out.jsonl")])

    def test_after_success(self, tmp_path, monkeypatch):
        assert self.run(tmp_path, monkeypatch, dump(*pages(40))) == 0
        assert_no_child_left()

    def test_after_an_error_in_the_parents_page(self, tmp_path, monkeypatch, capsys):
        # the children still have pages to read when page 0 fails
        assert self.run(tmp_path, monkeypatch, dump(*pages(400, p0=MALFORMED)), 3) == 2
        assert "malformed page XML" in capsys.readouterr().err
        assert_no_child_left()

    def test_after_an_error_in_a_childs_page(self, tmp_path, monkeypatch, capsys):
        assert self.run(tmp_path, monkeypatch, dump(*pages(400, p1=MALFORMED))) == 2
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


class TestProcessCount:
    def count(self, argv):
        return cli._extract_processes(cli.build_parser().parse_args(["extract", *argv]))

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

    def test_usable_cpus(self):
        assert 1 <= cli._usable_cpus() <= (os.cpu_count() or 1)
