"""Command-line interface.

Exit codes: 0 on success, 1 on usage errors, 2 on data errors.  Results go
to stdout (or --output), diagnostics and warning tallies to stderr.

A command returns its whole result, a payload dict or TSV lines, for main to
write; extract and conflict write each record as soon as it is ready.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections import Counter

from . import __version__, lexstats, posstats, readability, report, sampling
from .errors import CorplexError
from .ingest import (
    _article_docs, _histories, _read_in_shares, docs_to_jsonl, parse_article_dump, utf8_lines,
)
from .controversy import controversy_m
from .textpipe import split_sentences, tokenize, type_counts


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _condition_list(text: str) -> list[str]:
    """Comma-separated condition codes; empty means all eight."""
    codes = text.split(",") if text else []
    for code in codes:
        if code not in sampling.ConditionSpec.all_codes():
            raise argparse.ArgumentTypeError(
                f"unknown condition code {code!r}; expected codes from "
                f"{','.join(sampling.ConditionSpec.all_codes())}")
    return codes


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        sys.exit(1)


def _open_output(path: str):
    """A text stream to write path to; "-" is stdout, left open."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8")


def _write(path: str, result) -> None:
    """A payload dict as canonical JSON, anything else one line per item.

    The lines are written one by one, never joined into one string.
    """
    with _open_output(path) as out:
        if isinstance(result, dict):
            out.write(report.render_json(result))
        else:
            out.writelines(line + "\n" for line in result)


def _input(path: str):
    """path, or for "-" stdin's bytes, which the readers decode themselves."""
    if path != "-":
        return path
    return getattr(sys.stdin, "buffer", sys.stdin)  # a replaced stdin may be text


def _load_docs(path: str, warnings: Counter) -> list:
    return list(parse_article_dump(_input(path), format="jsonl", warnings=warnings))


def _load_patterns(path: str | None) -> list[str]:
    if not path:
        return []
    return [line.rstrip("\n") for line in utf8_lines(_input(path)) if line.strip()]


def _load_tagged(path: str, pos_condition: str, warnings: Counter):
    tagged = posstats.parse_tagged(utf8_lines(_input(path)), warnings)
    return posstats.apply_pos_condition(tagged, pos_condition)


def _doc_sentence_groups(args, warnings: Counter) -> list:
    """args.input's sentences under --condition, one group per document.

    The corpus is read before the pattern file, so a bad corpus is the
    error reported when both are bad.
    """
    docs = _load_docs(args.input, warnings)
    cond = sampling.ConditionSpec.parse(args.condition)
    patterns = _load_patterns(args.exclude_patterns)
    return [sampling.apply_condition(sampling.doc_lines(doc), cond, patterns) for doc in docs]


def _sentence_groups(args, warnings: Counter) -> list:
    """_doc_sentence_groups, or a data error when no document has a sentence."""
    groups = _doc_sentence_groups(args, warnings)
    if not any(groups):
        raise CorplexError("no sentences left after processing")
    return groups


def _ngram_table(sections: list, args, processes: int = 1) -> lexstats.CountTable:
    """args.n's table over sections, or a data error when it is empty."""
    table = lexstats.count_corpus_ngrams(sections, args.n, args.boundary, processes=processes)
    if table.total < 1:
        raise CorplexError("empty n-gram table")
    return table


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _dump_processes(args) -> int:
    """Every usable CPU for an XML dump in a regular file, else 1."""
    if getattr(args, "format", "xml") == "jsonl" or args.input == "-":
        return 1
    return _usable_cpus() if os.path.isfile(args.input) else 1


def _cmd_extract(args, warnings: Counter) -> None:
    skip_redirects = not args.keep_redirects

    def write_share(source, start, stop, out, warnings) -> list:
        docs_to_jsonl(_article_docs(source, skip_redirects, warnings, start, stop), out)
        return []

    with _open_output(args.output) as out:
        if args.format == "jsonl":
            docs_to_jsonl(parse_article_dump(_input(args.input), format="jsonl", warnings=warnings),
                          out)
        else:
            _read_in_shares(_input(args.input), _dump_processes(args), out, warnings, write_share)


def _cmd_sample(args, warnings: Counter) -> None:
    if args.output == "-":  # the prefix of two files
        args.usage_error("argument --output/-o: sample takes a file prefix, not -")
    docs = _load_docs(args.input, warnings)
    unit = sampling.CHARACTER if args.unit.startswith("char") else sampling.WORD_UNIT
    groups = [sampling.doc_lines(doc) for doc in docs]
    if args.granularity == "article":
        sample = sampling.build_balanced_sample_grouped(groups, args.target, unit, args.seed)
    else:
        pool = [l for g in groups for l in g]
        sample = sampling.build_balanced_sample(pool, args.target, unit, args.seed)
    _write(args.output + ".txt", sample.lines)
    _write(args.output + ".manifest.json",
           sampling.sample_manifest(sample, unit, args.target, source=args.input))


def _cmd_stats(args, warnings: Counter):
    sentences = [s for g in _sentence_groups(args, warnings) for s in g]
    tally = lexstats.tally_types(type_counts(sentences))
    measures = lexstats.corpus_measures(tally, len(sentences))
    ratios = measures.pop("corpus_stats")
    payload = {"condition": args.condition, **measures, **ratios}
    return payload if args.format == "json" else report.tsv_lines(payload.items())


def _cmd_ngram(args, warnings: Counter):
    if args.kind == "word":
        sections = [lexstats.fold_sentences(g) for g in _doc_sentence_groups(args, warnings)]
    else:
        sections = [[s.tags() for s in _load_tagged(args.input, args.pos_condition, warnings)]]
    table = _ngram_table(sections, args, args.processes)
    if args.format == "tsv":
        return table.to_tsv_lines()
    return {
        "n": args.n,
        "boundary": args.boundary,
        "total": table.total,
        "distinct": len(table),
        "entropy_bits": lexstats.table_entropy(table),
    }


def _cmd_pos(args, warnings: Counter):
    tagged_a = _load_tagged(args.input_a, args.pos_condition, warnings)
    tagged_b = _load_tagged(args.input_b, args.pos_condition, warnings)

    def compare(n: int) -> tuple[float, float]:
        table_a = posstats.tag_ngram_table(tagged_a, n, args.boundary)
        table_b = posstats.tag_ngram_table(tagged_b, n, args.boundary)
        try:
            return posstats.cosine_angle(table_a, table_b)
        except ValueError as exc:  # a file too short to hold one n-gram
            raise CorplexError(f"n={n}: {exc}") from exc

    if args.format == "tsv":  # the angle table over n = 2..5
        rows = [(n, compare(n)[1]) for n in range(2, 6)]
        return report.tsv_lines(rows, header=("n", "angle_degrees"))
    similarity, angle = compare(args.n)
    return {"n": args.n, "similarity": similarity, "angle_degrees": angle}


def _cmd_fog(args, warnings: Counter):
    if args.pooled and args.format == "tsv":  # the pooled record has no TSV form
        args.usage_error("argument --format: tsv not allowed with argument --pooled")
    docs = _load_docs(args.input, warnings)
    if not docs:
        raise CorplexError("no documents")
    try:  # no document, or no pooled sentence, has a word
        if args.pooled:
            pooled = readability.gunning_fog(
                [s for doc in docs for s in split_sentences(tokenize(doc.body))])
        else:
            stats, reports = readability.corpus_fog(docs, warnings=warnings)
    except ValueError as exc:
        raise CorplexError(str(exc)) from exc
    if args.pooled:
        return {"mode": "pooled", **pooled._asdict()}
    if args.format == "tsv":
        return report.tsv_lines((doc_id, r.F) for doc_id, r in reports)
    return {
        "mode": "per_document",
        "group": report._group_block(stats),
        "documents": [{"id": doc_id, **r._asdict()} for doc_id, r in reports],
    }


def _pair(x, y, weight) -> dict:
    return {"x": x, "y": y, "weight": weight}


def _conflict_record(page_id, score) -> dict:
    return {
        "page_id": page_id,
        "M": score.M,
        "E": score.E,
        "pairs": [_pair(*p) for p in score.pairs],
        "excluded_pair": _pair(*score.excluded_pair) if score.excluded_pair else None,
        "revert_events": [e._asdict() for e in score.events],
    }


def _cmd_conflict(args, warnings: Counter) -> None:
    # each page's record is written as soon as it is scored, so a dump that
    # fails part-way leaves the records of the pages before the failure
    # (-M, page_id) per page for --ranking: page ids are str, so the tuples
    # sort in ranking order, M descending, then page_id
    def write_share(source, start, stop, out, warnings) -> list:
        ranked = []
        for page_id, history in _histories(source, warnings, start, stop):
            if not history:
                warnings["empty_history"] += 1
                continue
            score = controversy_m(history, match_policy=args.match)
            record = _conflict_record(page_id, score)  # ints, strs and bools only
            out.write(report.render_json(record, round_floats=False))
            if args.ranking:
                ranked.append((-score.M, page_id))
            del history, score, record  # hold no page while the next one is read
        return ranked

    with _open_output(args.output) as out:
        ranked = _read_in_shares(_input(args.input), _dump_processes(args), out, warnings,
                                 write_share)
    if args.ranking:
        ranked.sort()
        _write(args.ranking, report.tsv_lines((page_id, -neg_m) for neg_m, page_id in ranked))


def _cmd_compare(args, warnings: Counter) -> dict:
    docs_a = _load_docs(args.input_a, warnings)
    docs_b = _load_docs(args.input_b, warnings)
    if args.paired:
        titles_a = {d.title for d in docs_a}
        docs_b = [d for d in docs_b if d.title in titles_a]
        if not docs_b:
            raise CorplexError("paired mode found no title matches in corpus B")
    return report.compare_corpora(
        docs_a,
        docs_b,
        conditions=args.conditions,
        ngram_max_n=args.ngram_max_n,
        seed=args.seed,
        exclude_patterns=_load_patterns(args.exclude_patterns),
        boundary_policy=args.boundary,
        warnings=warnings,
    )


def _cmd_plotdata(args, warnings: Counter):
    if args.kind == "pos_dist":
        tagged = _load_tagged(args.input, args.pos_condition, warnings)
        table = posstats.tag_ngram_table(tagged, 1, args.boundary)
        try:
            rows = posstats.pos_distribution(table)
        except ValueError as exc:  # no tagged sentence
            raise CorplexError(str(exc)) from exc
        return report.tsv_lines(rows, header=("tag", "relative_frequency"))
    groups = _sentence_groups(args, warnings)
    if args.kind == "ngram_zipf":
        ranked = _ngram_table([lexstats.fold_sentences(g) for g in groups], args).ranked()
    else:
        stream = [t.surface for g in groups for s in g for t in s.tokens]
        if args.kind == "heaps":
            return report.tsv_lines(lexstats.heaps_checkpoints(stream, args.checkpoints),
                                    header=("N", "V"))
        ranked = lexstats.zipf_table(stream)
    return report.tsv_lines(((rank, count) for rank, _, count in ranked), header=("rank", "freq"))


# --output for the commands that do not default to stdout
_OUTPUT = {"sample": {"default": "sample"}, "plotdata": {"required": True}}


def build_parser() -> _Parser:
    parser = _Parser(prog="corplex", description="Corpus complexity toolkit")
    parser.add_argument("--version", action="version", version=f"corplex {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("extract", help="dump -> JSONL documents")
    p.add_argument("input")
    p.add_argument("--format", choices=["xml", "xml-export", "jsonl"], default="xml-export")
    p.add_argument("--keep-redirects", action="store_true")
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("sample", help="balanced sample + manifest")
    p.add_argument("input")
    p.add_argument("--target", type=_positive_int, required=True)
    p.add_argument("--unit", choices=["character", "char", "word"], default="word")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--granularity", choices=["article", "line"], default="article")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("stats", help="V, N, C, entropy, corpus ratios")
    p.add_argument("input")
    p.add_argument("--condition", choices=sampling.ConditionSpec.all_codes(), default="WB")
    p.add_argument("--exclude-patterns")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("ngram", help="word or tag n-gram table")
    p.add_argument("input")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--kind", choices=["word", "tag"], default="word")
    p.add_argument("--boundary", choices=["raw", "post"], default="post")
    p.add_argument("--condition", choices=sampling.ConditionSpec.all_codes(), default="WB")
    p.add_argument("--pos-condition", choices=posstats.POS_CONDITIONS, default="O")
    p.add_argument("--exclude-patterns")
    p.add_argument("--processes", type=_positive_int, default=1)
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.set_defaults(func=_cmd_ngram)

    p = sub.add_parser("pos", help="compare tag n-gram distributions")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("--pos-condition", choices=posstats.POS_CONDITIONS, default="O")
    p.add_argument("--n", type=_positive_int, default=1)
    p.add_argument("--boundary", choices=["raw", "post"], default="post")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.set_defaults(func=_cmd_pos)

    p = sub.add_parser("fog", help="readability per document or pooled")
    p.add_argument("input")
    p.add_argument("--pooled", action="store_true")
    p.add_argument("--format", choices=["json", "tsv"], default="json")
    p.set_defaults(func=_cmd_fog)

    p = sub.add_parser("conflict", help="controversy scores from a history dump")
    p.add_argument("input")
    p.add_argument("--match", choices=["latest", "earliest"], default="latest")
    p.add_argument("--ranking", help="also write a page_id/M TSV, descending")
    p.set_defaults(func=_cmd_conflict)

    p = sub.add_parser("compare", help="full balanced comparison report")
    p.add_argument("input_a")
    p.add_argument("input_b")
    p.add_argument("--conditions", type=_condition_list,
                   help="comma-separated codes, default all eight")
    p.add_argument("--paired", action="store_true",
                   help="restrict corpus B to titles present in corpus A")
    p.add_argument("--ngram-max-n", type=_positive_int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boundary", choices=["raw", "post"], default="post")
    p.add_argument("--exclude-patterns")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("plotdata", help="TSV data behind the standard plots")
    p.add_argument("input")
    p.add_argument("--kind", choices=["zipf", "heaps", "ngram_zipf", "pos_dist"], required=True)
    p.add_argument("--condition", choices=sampling.ConditionSpec.all_codes(), default="WB")
    p.add_argument("--pos-condition", choices=posstats.POS_CONDITIONS, default="O")
    p.add_argument("--n", type=_positive_int, default=2)
    p.add_argument("--checkpoints", type=_positive_int, default=50)
    p.add_argument("--boundary", choices=["raw", "post"], default="post")
    p.add_argument("--exclude-patterns")
    p.set_defaults(func=_cmd_plotdata)

    for name, p in sub.choices.items():  # --output last, so the help lists it last
        p.add_argument("--output", "-o", **_OUTPUT.get(name, {"default": "-"}))
        p.set_defaults(usage_error=p.error)
    return parser


_INPUTS = ("input", "input_a", "input_b", "exclude_patterns")  # the arguments that read a path


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return 1
    stdin_inputs = [getattr(args, name, None) for name in _INPUTS].count("-")
    if stdin_inputs > 1:
        args.usage_error(f"stdin (-) can feed one input only, got {stdin_inputs}")
    warnings: Counter = Counter()  # the command counts, main reports once it returns
    try:
        result = args.func(args, warnings)  # computed whole before the output is opened
        if result is not None:
            _write(args.output, result)
    except (CorplexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name in sorted(warnings):
        print(f"warning: {name} x{warnings[name]}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
