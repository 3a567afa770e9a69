"""End-to-end command tests: exit codes, outputs, warning reporting."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from corplex import cli, lexstats, sampling, textpipe

A_DOCS = [
    {"id": "a1", "title": "Alpha",
     "text": "The quick brown fox jumps over the lazy dog. It was a sunny day.\nBirds sang in the old trees."},
    {"id": "a2", "title": "Beta",
     "text": "A committee was established to review the documentation. Members agreed quickly."},
    {"id": "a3", "title": "Gamma",
     "text": "Rain fell on the quiet village. The river rose slowly through the night."},
]

B_DOCS = [
    {"id": "b1", "title": "Alpha",
     "text": "The quick brown fox jumps over the lazy dog while children watch from the gate. It was a sunny day in late spring.\nBirds sang in the old trees near the schoolhouse wall."},
    {"id": "b2", "title": "Beta",
     "text": "A committee was established to review the documentation before the annual meeting. Members agreed quickly on every substantive point raised."},
    {"id": "b3", "title": "Gamma",
     "text": "Rain fell on the quiet village all afternoon. The river rose slowly through the night and into the grey morning."},
    {"id": "b4", "title": "Delta",
     "text": "An unrelated appendix describes the procedure in considerable detail for new readers."},
    {"id": "b5", "title": "Epsilon",
     "text": "Farmers planted wheat along the southern ridge before the first frost arrived."},
]

TAG_LINES = [
    "The/DT cat/NN sat/VBD ./.",
    "Dogs/NNS bark/VBP loudly/RB ./.",
]

DATA = Path(__file__).parent / "data"
EDGE = str(DATA / "edge_cases.jsonl")


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return str(path)


@pytest.fixture
def corpus_a(tmp_path):
    return write_jsonl(tmp_path / "a.jsonl", A_DOCS)


@pytest.fixture
def corpus_b(tmp_path):
    return write_jsonl(tmp_path / "b.jsonl", B_DOCS)


@pytest.fixture
def tags(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("".join(line + "\n" for line in TAG_LINES))
    return str(path)


def xml_page(title, page_id, revisions):
    revs = "".join(
        "<revision><id>{}</id><timestamp>{}</timestamp>"
        "<contributor><username>{}</username></contributor><text>{}</text></revision>".format(*r)
        for r in revisions
    )
    return f"<page><title>{title}</title><id>{page_id}</id>{revs}</page>"


def xml_dump(*pages):
    return (
        '<mediawiki xmlns="http://www.mediawiki.org/xml/export-0.10/">'
        + "".join(pages)
        + "</mediawiki>"
    )


class TestDispatch:
    def test_no_subcommand(self, capsys):
        assert cli.main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["frobnicate"])
        assert err.value.code == 1
        assert "error" in capsys.readouterr().err

    def test_bad_flag(self, corpus_a, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["stats", corpus_a, "--bogus"])
        assert err.value.code == 1

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["--version"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("corplex ")

    def test_missing_input_file_is_data_error(self, tmp_path, capsys):
        assert cli.main(["stats", str(tmp_path / "nope.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestExtract:
    def test_xml_export_to_jsonl(self, tmp_path, capsys):
        dump = xml_dump(
            xml_page("One", 1, [
                (1, "2020-01-01T00:00:00Z", "Ann", "Old text."),
                (2, "2020-01-02T00:00:00Z", "Ann", "'''Bold''' text with a [[link]]."),
            ]),
            xml_page("Two", 2, [(3, "2020-01-01T00:00:00Z", "Bob", "Second page text.")]),
            xml_page("Three", 3, [(4, "2020-01-01T00:00:00Z", "Bob", "#REDIRECT [[One]]")]),
        )
        src = tmp_path / "dump.xml"
        src.write_text(dump)
        out = tmp_path / "docs.jsonl"
        assert cli.main(["extract", str(src), "-o", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["title"] for r in records] == ["One", "Two"]
        assert records[0]["text"] == "Bold text with a link."
        assert "warning: redirect_skipped x1" in capsys.readouterr().err

    def test_keep_redirects(self, tmp_path):
        dump = xml_dump(xml_page("R", 1, [(1, "2020-01-01T00:00:00Z", "Ann", "#REDIRECT [[X]]")]))
        src = tmp_path / "dump.xml"
        src.write_text(dump)
        out = tmp_path / "docs.jsonl"
        assert cli.main(["extract", str(src), "--keep-redirects", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1

    def test_dump_without_pages_warns(self, tmp_path, capsys):
        src = tmp_path / "dump.xml"
        src.write_text(xml_dump())
        assert cli.main(["extract", str(src)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "warning: no_pages x1\n"

    def test_jsonl_roundtrip(self, corpus_a, tmp_path):
        out = tmp_path / "copy.jsonl"
        assert cli.main(["extract", corpus_a, "--format", "jsonl", "-o", str(out)]) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["id"] for r in records] == ["a1", "a2", "a3"]

    def test_jsonl_text_that_is_not_a_string(self, tmp_path, capsys):
        src = tmp_path / "docs.jsonl"
        src.write_text('{"id": 1, "title": "t", "text": null}\n')
        assert cli.main(["extract", str(src), "--format", "jsonl"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: record text is not a string [line 1]\n"


class TestSample:
    def test_writes_text_and_manifest(self, corpus_a, tmp_path):
        prefix = tmp_path / "s"
        assert cli.main(["sample", corpus_a, "--target", "30", "--seed", "9",
                         "-o", str(prefix)]) == 0
        lines = (tmp_path / "s.txt").read_text().splitlines()
        assert lines
        manifest = json.loads((tmp_path / "s.manifest.json").read_text())
        assert manifest["seed"] == 9
        assert manifest["unit"] == "word"
        assert manifest["target"] == 30
        assert manifest["achieved"] >= 30
        assert manifest["source"] == corpus_a

    def test_line_granularity(self, corpus_a, tmp_path):
        prefix = tmp_path / "s"
        assert cli.main(["sample", corpus_a, "--target", "20", "--granularity", "line",
                         "--unit", "char", "-o", str(prefix)]) == 0
        manifest = json.loads((tmp_path / "s.manifest.json").read_text())
        assert manifest["unit"] == "character"

    def test_pool_exhausted(self, corpus_a, tmp_path, capsys):
        assert cli.main(["sample", corpus_a, "--target", "100000",
                         "-o", str(tmp_path / "s")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_dash_output_is_a_usage_error(self, corpus_a, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            cli.main(["sample", corpus_a, "--target", "30", "-o", "-"])
        assert err.value.code == 1
        assert capsys.readouterr().err.startswith("usage: corplex sample")
        assert list(tmp_path.iterdir()) == [Path(corpus_a)]  # no "-.txt" or "-.manifest.json"


class TestStats:
    def test_json_fields(self, corpus_a, capsys):
        assert cli.main(["stats", corpus_a]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["condition"] == "WB"
        assert payload["V"] < payload["N"]
        assert 0 < payload["C"] < 1
        assert payload["entropy_bits"] > 0
        assert payload["words_per_sentence"] > 1

    def test_tsv_rows(self, corpus_a, capsys):
        assert cli.main(["stats", corpus_a, "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "condition\tWB"
        assert any(l.startswith("V\t") for l in lines)

    def test_condition_choice_enforced(self, corpus_a):
        with pytest.raises(SystemExit) as err:
            cli.main(["stats", corpus_a, "--condition", "XX"])
        assert err.value.code == 1

    def test_one_type_entropy_is_positive_zero(self, tmp_path, capsys):
        src = write_jsonl(tmp_path / "one.jsonl", [{"id": "1", "title": "T", "text": "la la la"}])
        assert cli.main(["stats", src, "--condition", "WN"]) == 0
        out = capsys.readouterr().out
        assert '"entropy_bits": 0.0' in out and "-0.0" not in out

    def test_reads_stdin(self, corpus_a, capsys, monkeypatch):
        text = "".join(json.dumps(r) + "\n" for r in A_DOCS)
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        assert cli.main(["stats", "-"]) == 0
        assert json.loads(capsys.readouterr().out)["N"] > 0

    def test_failure_leaves_no_output_file(self, tmp_path, capsys):
        src = write_jsonl(tmp_path / "p.jsonl", [{"id": "1", "title": "P", "text": "? !"}])
        out = tmp_path / "stats.json"
        assert cli.main(["stats", src, "--condition", "WN", "-o", str(out)]) == 2
        assert capsys.readouterr().err == "error: no sentences left after processing\n"
        assert not out.exists()


class TestNgram:
    def test_word_unigrams_tsv(self, corpus_a, capsys):
        assert cli.main(["ngram", corpus_a, "--n", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        # folded stream: 7 the, 7 sentence-final periods; ties break lexically
        assert lines[0] == ".\t7"
        assert lines[1] == "the\t7"

    def test_word_json_summary(self, corpus_a, capsys):
        assert cli.main(["ngram", corpus_a, "--n", "2", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 2
        assert payload["total"] >= payload["distinct"]
        assert payload["entropy_bits"] > 0

    def test_tag_kind(self, tags, capsys):
        assert cli.main(["ngram", tags, "--n", "1", "--kind", "tag"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert ".\t2" in lines

    def test_empty_stream_is_data_error(self, tmp_path, capsys):
        src = write_jsonl(tmp_path / "p.jsonl", [{"id": "1", "title": "P", "text": "? !"}])
        assert cli.main(["ngram", src, "--n", "1", "--condition", "WN"]) == 2
        assert "error:" in capsys.readouterr().err


SHORT_SENTENCES = [{"id": "1", "title": "S",
                    "text": "Go. Run. It is. Then the rest of it goes on and on."}]


class TestLongWindows:
    """Windows from n = 9 on, where marking a shorter side can reach the center."""

    @pytest.mark.parametrize("args", [
        ["ngram", EDGE, "--n", "13"],
        ["ngram", EDGE, "--n", "11", "--condition", "WN"],
        ["ngram", "{short}", "--n", "13", "--condition", "WN"],
        ["plotdata", "{short}", "--kind", "ngram_zipf", "--n", "13", "--condition", "WN",
         "-o", "-"],
        ["compare", "{short}", "{short}", "--ngram-max-n", "13", "--conditions", "WN"],
    ])
    def test_exits_0(self, args, tmp_path):
        short = write_jsonl(tmp_path / "short.jsonl", SHORT_SENTENCES)
        assert cli.main([a.replace("{short}", short) for a in args]) == 0


class TestPos:
    def test_identical_files_json(self, tags, capsys):
        assert cli.main(["pos", tags, tags]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"n": 1, "similarity": 1.0, "angle_degrees": 0.0}

    def test_angle_table_tsv(self, tags, capsys):
        assert cli.main(["pos", tags, tags, "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n\tangle_degrees"
        assert [l.split("\t")[0] for l in lines[1:]] == ["2", "3", "4", "5"]
        assert all(l.split("\t")[1] == "0" for l in lines[1:])


class TestFog:
    def test_per_document_json(self, corpus_a, capsys):
        assert cli.main(["fog", corpus_a]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "per_document"
        assert payload["group"]["n"] == 3
        assert [d["id"] for d in payload["documents"]] == ["a1", "a2", "a3"]

    def test_per_document_tsv(self, corpus_a, capsys):
        assert cli.main(["fog", corpus_a, "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("a1\t")

    def test_pooled_tsv_is_a_usage_error(self, corpus_a, capsys):
        # the pooled record has no TSV form, so the pair is refused, not ignored
        with pytest.raises(SystemExit) as err:
            cli.main(["fog", corpus_a, "--pooled", "--format", "tsv"])
        assert err.value.code == 1
        out, stderr = capsys.readouterr()
        assert out == ""
        assert [line for line in stderr.splitlines() if "error:" in line] == [
            "corplex fog: error: argument --format: tsv not allowed with argument --pooled"]

    def test_pooled(self, corpus_a, capsys):
        assert cli.main(["fog", corpus_a, "--pooled"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "pooled"
        assert payload["F"] > 0


class TestConflict:
    # two mutual pairs: {A,B} at weight 3 (excluded), {C,D} at weight 2
    TEXTS = ["p", "q", "p", "r", "s", "r", "u", "v", "u", "x", "v", "y", "z1", "z2"]
    EDITORS = ["A", "B", "A", "B", "A", "B", "C", "D", "C", "C", "D", "C", "A", "A"]

    def history_dump(self):
        revs = [
            (i + 1, f"2020-01-01T00:{i:02d}:00Z", self.EDITORS[i], self.TEXTS[i])
            for i in range(len(self.TEXTS))
        ]
        calm = [(100, "2020-01-01T00:00:00Z", "E", "m"), (101, "2020-01-01T00:01:00Z", "F", "n")]
        return xml_dump(xml_page("Hot", 1, revs), xml_page("Calm", 2, calm))

    def test_scores_and_ranking(self, tmp_path, capsys):
        src = tmp_path / "hist.xml"
        src.write_text(self.history_dump())
        ranking = tmp_path / "rank.tsv"
        assert cli.main(["conflict", str(src), "--ranking", str(ranking)]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        hot = next(r for r in rows if r["page_id"] == "1")
        assert (hot["M"], hot["E"]) == (8, 4)
        assert hot["excluded_pair"] == {"x": "A", "y": "B", "weight": 3}
        assert len(hot["revert_events"]) == 4
        calm = next(r for r in rows if r["page_id"] == "2")
        assert (calm["M"], calm["revert_events"]) == (0, [])
        assert ranking.read_text() == "1\t8\n2\t0\n"

    def test_failure_keeps_earlier_records(self, tmp_path, capsys):
        # records are written as pages are scored, as extract writes documents
        src = tmp_path / "hist.xml"
        src.write_text(self.history_dump().replace("</mediawiki>", "<page><title>X</page>"))
        out, ranking = tmp_path / "out.jsonl", tmp_path / "rank.tsv"
        assert cli.main(["conflict", str(src), "-o", str(out), "--ranking", str(ranking)]) == 2
        assert [json.loads(line)["page_id"] for line in out.read_text().splitlines()] == ["1", "2"]
        assert not ranking.exists()
        assert "error: malformed page XML" in capsys.readouterr().err

    def test_jsonl_input_warns_no_pages(self, corpus_a, capsys):
        assert cli.main(["conflict", corpus_a]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "warning: no_pages x1\n"

    def test_match_policy_flag(self, tmp_path, capsys):
        src = tmp_path / "hist.xml"
        src.write_text(self.history_dump())
        assert cli.main(["conflict", str(src), "--match", "earliest"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {r["page_id"] for r in rows} == {"1", "2"}


def small_histories(path, pages):
    """A dump of pages of five revisions, in which two editors revert each other."""
    texts = ["a", "b", "a", "b", "end"]
    path.write_text(xml_dump(*(
        xml_page(f"P{p}", p, [
            (k, f"2010-01-01T00:00:{k:02d}Z", f"E{k % 2}", f"{text} {p}")
            for k, text in enumerate(texts)
        ])
        for p in range(pages)
    )))
    return str(path)


class TestConflictMemory:
    """conflict holds one page at a time, not a record per page read."""

    @pytest.fixture(scope="class")
    def dumps(self, tmp_path_factory):
        base = tmp_path_factory.mktemp("histories")
        return {n: small_histories(base / f"h{n}.xml", n) for n in (500, 8000)}

    def peak(self, argv):
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def peaks(self, dumps, tmp_path, extra=()):
        argv = lambda n: ["conflict", dumps[n], "-o", str(tmp_path / "out.jsonl"), *extra]
        self.peak(argv(500))  # first use: lazy imports and caches
        return self.peak(argv(500)), self.peak(argv(8000))

    def test_peak_does_not_grow_with_pages(self, dumps, tmp_path):
        small, large = self.peaks(dumps, tmp_path)
        assert large <= 1.5 * small, f"500 pages: {small} B, 8000 pages: {large} B"

    def test_one_large_page_at_a_time(self, tmp_path):
        # two pages of 1,500 distinct 1.4 KB texts: the first is dropped once written
        def page(p):
            return xml_page(f"P{p}", p, [
                (k, f"2010-01-01T00:{k // 60 % 60:02d}:{k % 60:02d}Z", f"E{k % 3}",
                 f"{p} {k} " + "w" * 1400)
                for k in range(1500)
            ])

        src = tmp_path / "big.xml"
        src.write_text(xml_dump(page(1), page(2)))
        peak = self.peak(["conflict", str(src), "-o", str(tmp_path / "out.jsonl")])
        one_page = len(page(1))
        assert peak <= 1.5 * one_page, f"peak {peak / one_page:.2f}x one page's bytes"

    def test_ranking_costs_little_per_page(self, dumps, tmp_path):
        small, large = self.peaks(dumps, tmp_path, ("--ranking", str(tmp_path / "rank.tsv")))
        per_page = (large - small) / 7500
        assert per_page <= 150, f"{per_page:.0f} B per page"


class TestInvalidUtf8:
    """A byte that is not UTF-8 is a data error at its line, not a traceback."""

    @pytest.mark.parametrize("args", [
        ["stats", "{bad_jsonl}"],
        ["stats", "{a}", "--exclude-patterns", "{bad_text}"],
        ["pos", "{bad_tags}", "{bad_tags}"],
        ["ngram", "{bad_tags}", "--n", "1", "--kind", "tag"],
    ])
    def test_bad_byte_in_a_file(self, args, corpus_a, tmp_path, capsys):
        paths = {"a": corpus_a}
        for name, first in [("bad_jsonl", json.dumps(A_DOCS[0])), ("bad_text", "pattern"),
                            ("bad_tags", TAG_LINES[0])]:
            path = tmp_path / name
            path.write_bytes(first.encode() + b"\n" + b'caf\xff/NN "x"\n')
            paths[name] = str(path)
        assert cli.main([a.format(**paths) for a in args]) == 2
        assert capsys.readouterr().err.endswith("error: invalid UTF-8 byte 0xff [line 2]\n")

    def test_bad_byte_on_stdin(self, capsys, monkeypatch):
        data = b'{"id": "1", "title": "T", "text": "ok"}\r\n{"id": "2", "title": "T", "text": "caf\xe9"}\n'
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        assert cli.main(["stats", "-"]) == 2
        assert capsys.readouterr().err == "error: invalid UTF-8 byte 0xe9 [line 2]\n"


@pytest.mark.parametrize("args, stdin", [
    (["pos", "{in}", "{tags}"], "tags"),
    (["ngram", "{in}", "--kind", "tag", "--n", "2"], "tags"),
    (["plotdata", "{in}", "--kind", "pos_dist", "-o", "-"], "tags"),
    (["stats", "{a}", "--exclude-patterns", "{in}"], "patterns"),
], ids=["pos", "ngram_tag", "plotdata_pos_dist", "stats_exclude_patterns"])
def test_dash_reads_tagged_text_and_patterns_from_stdin(args, stdin, corpus_a, tags,
                                                        tmp_path, capsys, monkeypatch):
    patterns = tmp_path / "patterns.txt"
    patterns.write_text("quick brown\n")
    source = {"tags": Path(tags), "patterns": patterns}[stdin]

    def run(input_path):
        argv = [a.format(**{"in": input_path, "a": corpus_a, "tags": tags}) for a in args]
        assert cli.main(argv) == 0, capsys.readouterr().err
        return capsys.readouterr()

    from_file = run(str(source))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(source.read_bytes())))
    assert run("-") == from_file


@pytest.mark.parametrize("args", [
    ["stats", "-", "--exclude-patterns", "-"],
    ["pos", "-", "-"],
    ["compare", "-", "-"],
    ["compare", "{a}", "-", "--exclude-patterns", "-"],
], ids=["stats", "pos", "compare", "compare_exclude_patterns"])
def test_two_inputs_from_stdin_are_a_usage_error(args, corpus_a, capsys, monkeypatch):
    text = "".join(json.dumps(r) + "\n" for r in A_DOCS)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    with pytest.raises(SystemExit) as err:
        cli.main([a.format(a=corpus_a) for a in args])
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: corplex " + args[0])
    assert "stdin (-) can feed one input only" in stderr
    assert capsys.readouterr().out == ""


class TestDegenerateInputs:
    """An input with nothing to measure is a data error: exit 2, one error line."""

    @pytest.fixture
    def no_words(self, tmp_path):
        return write_jsonl(tmp_path / "nowords.jsonl", [{"id": "1", "title": "T", "text": "? ! 123"}])

    @pytest.fixture
    def empty(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        return str(path)

    def exits_with_one_error(self, argv, capsys):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        return err

    def test_pooled_fog_without_words(self, no_words, capsys):
        self.exits_with_one_error(["fog", no_words, "--pooled"], capsys)

    def test_pos_on_empty_tagged_files(self, empty, capsys):
        self.exits_with_one_error(["pos", empty, empty], capsys)

    def test_pos_dist_on_empty_tagged_file(self, empty, tmp_path, capsys):
        out = tmp_path / "dist.tsv"
        self.exits_with_one_error(["plotdata", empty, "--kind", "pos_dist", "-o", str(out)], capsys)
        assert not out.exists()

    def test_compare_without_words(self, no_words, capsys):
        err = self.exits_with_one_error(["compare", no_words, no_words], capsys)
        assert err == "error: corpus A: every document was skipped\n"

    @pytest.mark.parametrize("kind", ["zipf", "heaps", "ngram_zipf"])
    def test_plotdata_without_sentences(self, kind, tmp_path, capsys):
        empty = write_jsonl(tmp_path / "empty.jsonl", [])
        out = tmp_path / "plot.tsv"
        err = self.exits_with_one_error(["plotdata", empty, "--kind", kind, "-o", str(out)], capsys)
        assert err == "error: no sentences left after processing\n"
        assert not out.exists()

    def test_plotdata_with_an_empty_ngram_table(self, corpus_a, tmp_path, capsys):
        out = tmp_path / "plot.tsv"
        argv = ["plotdata", corpus_a, "--kind", "ngram_zipf", "--n", "500", "-o", str(out)]
        assert self.exits_with_one_error(argv, capsys) == "error: empty n-gram table\n"
        assert not out.exists()


def test_write_lines_does_not_join_its_lines(tmp_path):
    lines = [f"{i:0100d}" for i in range(100_000)]  # 100 characters each, about 10 MB joined
    out = tmp_path / "out.txt"
    tracemalloc.start()
    try:
        cli._write(str(out), lines)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, f"peak {peak} B"
    assert out.read_text() == "".join(line + "\n" for line in lines)


class TestStatsMatchesCompare:
    """stats and fog on A measure exactly what compare's A blocks do."""

    def test_every_condition(self, capsys):
        data = Path(__file__).parent / "data"
        a, b = str(data / "golden" / "extracted_a.jsonl"), str(data / "golden" / "extracted_b.jsonl")
        ratios = lexstats.CorpusStats._fields
        n_tokens = {}
        for extra in ([], ["--exclude-patterns", str(data / "exclude_patterns.txt")]):
            assert cli.main(["compare", a, b, *extra]) == 0
            blocks = json.loads(capsys.readouterr().out)["conditions"]
            for code in sampling.ConditionSpec.all_codes():
                assert cli.main(["stats", a, "--condition", code, *extra]) == 0
                stats = json.loads(capsys.readouterr().out)
                block = blocks[code]["a"]
                for key in ("V", "N", "C", "entropy_bits"):
                    assert stats[key] == block[key], (code, extra, key)
                assert {k: stats[k] for k in ratios} == block["corpus_stats"], (code, extra)
            n_tokens[bool(extra)] = blocks["WB"]["a"]["N"]
        assert 0 < n_tokens[True] < n_tokens[False]  # the patterns drop some of A's lines

    def test_fog_group(self, capsys):
        a, b = str(DATA / "golden" / "extracted_a.jsonl"), str(DATA / "golden" / "extracted_b.jsonl")
        assert cli.main(["fog", a]) == 0
        group = json.loads(capsys.readouterr().out)["group"]
        assert cli.main(["compare", a, b, "--conditions", "WB"]) == 0
        assert group == json.loads(capsys.readouterr().out)["fog_per_document"]["a"]
        assert group == {"mean": 6.9631, "n": 98, "stderr": 0.107537, "variance": 1.1333}


class TestCompare:
    def test_repeat_runs_identical(self, corpus_a, corpus_b, tmp_path):
        outs = []
        for name in ("r1.json", "r2.json"):
            path = tmp_path / name
            assert cli.main(["compare", corpus_a, corpus_b, "--conditions", "WB,CN",
                             "--seed", "42", "-o", str(path)]) == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
        payload = json.loads(outs[0])
        assert set(payload["conditions"]) == {"WB", "CN"}
        assert payload["corpus_b"]["documents"] == 5

    def test_paired_restricts_by_title(self, corpus_a, corpus_b, tmp_path):
        path = tmp_path / "r.json"
        assert cli.main(["compare", corpus_a, corpus_b, "--paired",
                         "--conditions", "WB", "-o", str(path)]) == 0
        assert json.loads(path.read_text())["corpus_b"]["documents"] == 3

    def test_each_type_measured_once(self, tmp_path, monkeypatch):
        # the per-type records: syllables and stems are computed once per
        # distinct type over the whole run, however many blocks and fog
        # reports read them
        for table in (textpipe._TOKENS, textpipe._FACTS, textpipe._STEMS):
            table.clear()
        calls = {}
        for name in ("count_syllables", "porter_stem"):
            def counting(word, real=getattr(textpipe, name), name=name):
                calls[name, word] = calls.get((name, word), 0) + 1
                return real(word)
            monkeypatch.setattr(textpipe, name, counting)
        golden = Path(__file__).parent / "data" / "golden"
        assert cli.main(["compare", str(golden / "extracted_a.jsonl"),
                         str(golden / "extracted_b.jsonl"), "-o", str(tmp_path / "c.json")]) == 0
        assert {name for name, _ in calls} == {"count_syllables", "porter_stem"}
        repeated = {key: n for key, n in calls.items() if n > 1}
        assert not repeated, sorted(repeated.items())[:5]

    def test_paired_without_matches(self, corpus_a, tmp_path, capsys):
        other = write_jsonl(tmp_path / "c.jsonl",
                            [{"id": "c1", "title": "Zeta", "text": "Words here."}])
        assert cli.main(["compare", corpus_a, other, "--paired"]) == 2
        assert "paired" in capsys.readouterr().err


class TestPlotdata:
    def test_zipf(self, corpus_a, tmp_path):
        out = tmp_path / "z.tsv"
        assert cli.main(["plotdata", corpus_a, "--kind", "zipf", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rank\tfreq"
        assert lines[1].startswith("1\t")

    def test_heaps(self, corpus_a, tmp_path):
        out = tmp_path / "h.tsv"
        assert cli.main(["plotdata", corpus_a, "--kind", "heaps", "-o", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "N\tV"
        assert lines[1] == "1\t1"

    def test_ngram_zipf(self, corpus_a, tmp_path):
        out = tmp_path / "n.tsv"
        assert cli.main(["plotdata", corpus_a, "--kind", "ngram_zipf", "--n", "2",
                         "-o", str(out)]) == 0
        assert out.read_text().startswith("rank\tfreq\n")

    def test_pos_dist(self, tags, tmp_path):
        out = tmp_path / "p.tsv"
        assert cli.main(["plotdata", tags, "--kind", "pos_dist", "-o", str(out)]) == 0
        assert out.read_text().startswith("tag\trelative_frequency\n")

    def test_dash_writes_stdout(self, corpus_a, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["plotdata", corpus_a, "--kind", "zipf", "-o", "-"]) == 0
        assert capsys.readouterr().out.startswith("rank\tfreq\n1\t")
        assert list(tmp_path.iterdir()) == [Path(corpus_a)]  # no file named "-"

    def test_output_required(self, corpus_a):
        with pytest.raises(SystemExit) as err:
            cli.main(["plotdata", corpus_a, "--kind", "zipf"])
        assert err.value.code == 1


@pytest.mark.parametrize("args", [
    ["ngram", "{a}", "--n", "0"],
    ["pos", "{tags}", "{tags}", "--n", "0"],
    ["sample", "{a}", "--target", "0"],
    ["plotdata", "{a}", "--kind", "heaps", "--checkpoints", "0", "-o", "{out}"],
    ["plotdata", "{a}", "--kind", "ngram_zipf", "--n", "-1", "-o", "{out}"],
    ["compare", "{a}", "{a}", "--conditions", "XX"],
    ["compare", "{a}", "{a}", "--conditions", "WB,wb"],
    ["compare", "{a}", "{a}", "--ngram-max-n", "0"],
    ["ngram", "{a}", "--n", "1", "--processes", "0"],
    ["fog", "{a}", "--pooled", "--format", "tsv"],
])
def test_out_of_range_arguments_are_usage_errors(args, corpus_a, tags, tmp_path, capsys):
    argv = [a.format(a=corpus_a, tags=tags, out=tmp_path / "out.tsv") for a in args]
    with pytest.raises(SystemExit) as err:
        cli.main(argv)
    assert err.value.code == 1
    stderr = capsys.readouterr().err
    assert stderr.startswith("usage: corplex " + args[0])
    assert "Traceback" not in stderr


# command -> (the options it requires besides --output, its positionals)
REQUIRED_ARGS = {
    "extract": ([], "input"),
    "sample": (["--target", "1"], "input"),
    "stats": ([], "input"),
    "ngram": (["--n", "1"], "input"),
    "pos": ([], "input_a input_b"),
    "fog": ([], "input"),
    "conflict": ([], "input"),
    "compare": ([], "input_a input_b"),
    "plotdata": (["--kind", "zipf"], "input"),
}


@pytest.mark.parametrize("cmd", REQUIRED_ARGS)
def test_output_is_the_last_option(cmd, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit) as err:
        cli.main([cmd, "--help"])
    assert err.value.code == 0
    usage = capsys.readouterr().out.splitlines()[0]
    output = "--output OUTPUT" if cmd == "plotdata" else "[--output OUTPUT]"
    assert usage.endswith(f" {output} {REQUIRED_ARGS[cmd][1]}"), usage


@pytest.mark.parametrize("cmd", REQUIRED_ARGS)
def test_output_default(cmd):
    options, positionals = REQUIRED_ARGS[cmd]
    argv = [cmd, *options, *positionals.split()]
    if cmd == "plotdata":  # the one command without a default
        argv += ["-o", "plot.tsv"]
    expected = {"sample": "sample", "plotdata": "plot.tsv"}.get(cmd, "-")
    assert cli.build_parser().parse_args(argv).output == expected


# shape -> (fixture to mutate, argv); "{src}" is the mutated copy and "{out}"
# a scratch directory, so every argv is valid and no output reaches stdout
CONTRACT_SHAPES = {
    "extract": ("mini_dump_a.xml", ["extract", "{src}", "-o", "{out}/x.jsonl"]),
    "extract_jsonl": ("edge_cases.jsonl",
                      ["extract", "{src}", "--format", "jsonl", "-o", "{out}/x.jsonl"]),
    "sample": ("edge_cases.jsonl", ["sample", "{src}", "--target", "40", "-o", "{out}/s"]),
    "stats": ("edge_cases.jsonl",
              ["stats", "{src}", "--condition", "CNP", "--format", "tsv", "-o", "{out}/s.tsv"]),
    "stats_patterns": ("exclude_patterns.txt",
                       ["stats", EDGE, "--exclude-patterns", "{src}", "-o", "{out}/s.json"]),
    "ngram_word": ("edge_cases.jsonl", ["ngram", "{src}", "--n", "3", "-o", "{out}/n.tsv"]),
    "ngram_word_long": ("edge_cases.jsonl",
                        ["ngram", "{src}", "--n", "13", "-o", "{out}/n.tsv"]),
    "ngram_tag": ("tagged_a.txt", ["ngram", "{src}", "--kind", "tag", "--n", "2",
                                   "--pos-condition", "SN", "-o", "{out}/n.tsv"]),
    "pos": ("tagged_b.txt", ["pos", str(DATA / "tagged_a.txt"), "{src}", "--format", "tsv",
                             "-o", "{out}/p.tsv"]),
    "fog": ("edge_cases.jsonl", ["fog", "{src}", "-o", "{out}/f.json"]),
    "fog_pooled": ("edge_cases.jsonl", ["fog", "{src}", "--pooled", "-o", "{out}/f.json"]),
    "conflict": ("history.xml", ["conflict", "{src}", "--ranking", "{out}/r.tsv",
                                 "-o", "{out}/c.jsonl"]),
    "compare": ("edge_cases.jsonl", ["compare", "{src}", str(DATA / "golden" / "extracted_b.jsonl"),
                                     "--ngram-max-n", "2", "-o", "{out}/c.json"]),
    "plotdata_heaps": ("edge_cases.jsonl",
                       ["plotdata", "{src}", "--kind", "heaps", "-o", "{out}/h.tsv"]),
    "plotdata_pos_dist": ("tagged_b.txt",
                          ["plotdata", "{src}", "--kind", "pos_dist", "-o", "{out}/d.tsv"]),
}

# bytes that markup, JSON, XML, tags or UTF-8 give a meaning to, beside random ones
_chunk = st.binary(min_size=1, max_size=3) | st.sampled_from(
    [b"<", b">", b"/", b'"', b"\\", b"\n", b"{", b"}", b"[[", b"]]", b"{{", b"&", b";", b"|",
     b"=", b".", b" ", b"\xff", b"\xc3", b"\x00", "\u00a7".encode(), "\u0130".encode()])
_edits = st.lists(st.tuples(st.integers(0, 1 << 20),
                            st.sampled_from(("replace", "insert", "delete")), _chunk),
                  max_size=4)


def _mutate(data: bytes, edits, cut) -> bytes:
    buf = bytearray(data)
    for pos, op, chunk in edits:
        pos %= len(buf) + 1
        if op == "insert":
            buf[pos:pos] = chunk
        elif op == "replace":
            buf[pos:pos + len(chunk)] = chunk
        else:
            del buf[pos:pos + len(chunk)]
    if cut is not None:
        del buf[cut % (len(buf) + 1):]
    return bytes(buf)


@pytest.mark.parametrize("shape", sorted(CONTRACT_SHAPES))
@settings(max_examples=25, deadline=None)
@given(edits=_edits, cut=st.none() | st.integers(0, 1 << 20))
def test_mutated_input_exits_0_or_2(shape, edits, cut):
    """A damaged input file is a data error (2) or a result (0), never a
    usage error (1) or an escaping exception."""
    fixture, args = CONTRACT_SHAPES[shape]
    with tempfile.TemporaryDirectory() as out:
        src = Path(out) / ("input" + Path(fixture).suffix)
        src.write_bytes(_mutate((DATA / fixture).read_bytes(), edits, cut))
        code = cli.main([a.replace("{src}", str(src)).replace("{out}", out) for a in args])
    assert code in (0, 2)


def _extract_in(processes: int, src: Path) -> tuple:
    """(exit code, stdout, stderr) of extract over src in `processes` processes."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_usable_cpus", lambda: processes), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["extract", str(src)])
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=25, deadline=None)
@given(edits=_edits, cut=st.none() | st.integers(0, 1 << 20))
def test_mutated_dump_extracts_alike_in_one_and_two_processes(edits, cut):
    """Pages read in two processes give the records, warnings, error and exit
    code of one."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.xml"
        src.write_bytes(_mutate((DATA / "mini_dump_a.xml").read_bytes(), edits, cut))
        one, two = _extract_in(1, src), _extract_in(2, src)
    assert two == one


def _conflict_in(processes: int, src: Path) -> tuple:
    """(exit code, stdout, stderr, --ranking file or None) of conflict over src
    in `processes` processes."""
    ranking = src.with_name("rank.tsv")
    ranking.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "_usable_cpus", lambda: processes), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["conflict", str(src), "--ranking", str(ranking)])
    return code, out.getvalue(), err.getvalue(), ranking.read_bytes() if ranking.exists() else None


@settings(max_examples=25, deadline=None)
@given(edits=_edits, cut=st.none() | st.integers(0, 1 << 20))
def test_mutated_dump_scores_alike_in_one_and_two_processes(edits, cut):
    """Pages read in two processes give the records, ranking, warnings, error
    and exit code of one."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "input.xml"
        src.write_bytes(_mutate((DATA / "history.xml").read_bytes(), edits, cut))
        one, two = _conflict_in(1, src), _conflict_in(2, src)
    assert two == one


def _loaded_by_cli_import(module: str) -> bool:
    """Whether a fresh interpreter holds module after importing corplex.cli."""
    probe = f"import sys, corplex.cli; print({module!r} in sys.modules)"
    package_root = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout in ("True\n", "False\n")
    return proc.stdout == "True\n"


def test_import_does_not_load_numpy():
    # numpy serves only the Heaps functions, which import it when called
    assert not _loaded_by_cli_import("numpy")


def test_import_does_not_load_multiprocessing():
    # only sharded n-gram counting (processes > 1) starts a pool
    assert not _loaded_by_cli_import("multiprocessing")


def _console_script_command():
    """The ``corplex`` launcher on PATH, or the same entry point run directly.

    Without an install no launcher exists, so the ``[project.scripts]`` entry
    is read from pyproject.toml and called the way pip's generated wrapper
    calls it: ``sys.argv[0]`` set to the script name, then
    ``sys.exit(func())``.  A misspelt entry point fails either way.
    """
    launcher = shutil.which("corplex")
    if launcher:
        return [launcher]
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["corplex"]
    module, func = entry.split(":")
    wrapper = (f"import sys; from {module} import {func}; "
               f"sys.argv[0] = 'corplex'; sys.exit({func}())")
    return [sys.executable, "-c", wrapper]


def test_console_script_runs():
    proc = subprocess.run([*_console_script_command(), "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("corplex ")
