"""Corpus comparison reports, JSON rendering and TSV formatting.

Reports are reproducible artifacts: floats are rounded to 6 significant
digits, JSON keys are sorted, and all randomness flows from one recorded
seed, so identical inputs give byte-identical output.
"""

from __future__ import annotations

import copy
import json
from collections import Counter
from typing import Iterable, Iterator, Sequence

from . import lexstats, posstats, readability, sampling
from .errors import CorplexError
from .textpipe import Sentence, type_counts


_AS_IS = frozenset({str, int, bool, type(None)})


def _round6(value):
    # one type() lookup passes the exact leaf types that need no rounding;
    # everything else, float subclasses such as numpy.float64 included,
    # takes the isinstance chain
    if type(value) in _AS_IS:
        return value
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {k: _round6(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round6(v) for v in value]
    return value


def render_json(payload, round_floats: bool = True) -> str:
    """Canonical JSON: sorted keys, 6-significant-digit floats, newline end.

    round_floats=False skips the walk that rounds the floats, for a payload
    that holds none; the text is the same.
    """
    if round_floats:
        payload = _round6(payload)
    return json.dumps(payload, sort_keys=True, ensure_ascii=False) + "\n"


def _group_block(stats: readability.GroupStats) -> dict:
    return {**stats._asdict(), "stderr": stats.stderr}


def _corpus_block(sentences: list[Sentence]) -> tuple[dict, dict[str, int]]:
    """A corpus's block and its types folded by lowercase.

    One pass over the type table reads each type's record once and tallies
    everything V, N, C, the entropy, the ratios and fog need.
    """
    tally = lexstats.tally_types(type_counts(sentences))
    block = lexstats.corpus_measures(tally, len(sentences))
    try:
        fog = readability.FogReport.from_counts(tally.words, len(sentences), tally.complex_words)
        block["fog"] = fog._asdict()
    except ValueError:  # no word-kind tokens survived the condition
        block["fog"] = None
    return block, tally.folded


def _condition_seed(seed: int, code: str) -> int:
    # stable per-condition stream: offset by the code's fixed ordinal
    ordinal = sampling.ConditionSpec.all_codes().index(code)
    return (seed + (ordinal + 1) * sampling._GOLDEN_GAMMA) & sampling._MASK64


def compare_corpora(
    docs_a: Sequence,
    docs_b: Sequence,
    conditions: Sequence[str] | None = None,
    ngram_max_n: int = 3,
    seed: int = 0,
    exclude_patterns: Sequence[str] | None = None,
    boundary_policy: str = "postprocessed",
    warnings: Counter | None = None,
) -> dict:
    """Compare corpus A against a size-balanced sample of corpus B.

    A is the reference and is used whole; per condition, B is drawn down to
    A's size in the condition's unit (article-level draw, line-granular
    stop).  The unit changes only B's draw, so A is processed and measured
    once per processing (punctuation and stemming policy), not once per
    condition.  Fog and the Welch test run per document over the full
    corpora, since readability needs raw, unprocessed text.
    """
    docs_a = list(docs_a)
    docs_b = list(docs_b)
    if not docs_a or not docs_b:
        raise CorplexError("compare needs two non-empty corpora")
    codes = list(conditions) if conditions else list(sampling.ConditionSpec.all_codes())
    warnings = warnings if warnings is not None else Counter()

    groups_a = [sampling.doc_lines(d) for d in docs_a]
    groups_b = [sampling.doc_lines(d) for d in docs_b]
    sample_a = sampling.Sample.from_lines([l for g in groups_a for l in g], seed)
    # every line of either corpus is tokenized once, for fog and all conditions
    lines = sampling.LineCache(exclude_patterns)

    fog_stats = {}
    for side, docs in (("A", docs_a), ("B", docs_b)):
        try:
            fog_stats[side], _ = readability.corpus_fog(
                docs, warnings=warnings, tokenizer=lines.body_tokens)
        except ValueError as exc:  # no document of the corpus has a word
            raise CorplexError(f"corpus {side}: {exc}") from exc
    fog_stats_a, fog_stats_b = fog_stats["A"], fog_stats["B"]
    try:
        t, df, p = readability.welch_t_test(fog_stats_a, fog_stats_b)
        welch_block = {"t": t, "df": df, "p_two_sided": p}
    except ValueError:
        welch_block = None
        warnings["welch_degenerate"] += 1

    report = {
        "seed": seed,
        "boundary_policy": boundary_policy,
        "ngram_max_n": ngram_max_n,
        "corpus_a": {"documents": len(docs_a), "chars": sample_a.size_chars, "words": sample_a.size_words},
        "corpus_b": {"documents": len(docs_b)},
        "fog_per_document": {
            "a": _group_block(fog_stats_a),
            "b": _group_block(fog_stats_b),
            "welch": welch_block,
        },
        "conditions": _condition_blocks(
            codes, lines, sample_a, groups_b, ngram_max_n, seed, boundary_policy
        ),
    }
    return report


class _Side:
    """One corpus side under one processing: its block, folded sentences and
    folded type counts, which are dropped once the n = 1 table is built."""

    __slots__ = ("block", "folded", "unigrams")

    def __init__(self, sentences: list[Sentence]):
        self.block, self.unigrams = _corpus_block(sentences)
        self.block["ngram_entropy_bits"] = {}
        self.folded = lexstats.fold_sentences(sentences)

    def table(self, n: int, boundary_policy: str) -> lexstats.CountTable:
        """The side's n-gram table; its entropy goes into the block."""
        table = lexstats.corpus_table(self.folded, self.unigrams, n, boundary_policy)
        self.unigrams = None
        entropy = lexstats.table_entropy(table) if table.total else 0.0
        self.block["ngram_entropy_bits"][str(n)] = entropy
        return table


def _condition_blocks(codes, lines, sample_a, groups_b, ngram_max_n, seed,
                      boundary_policy) -> dict:
    """Each code's block, in the caller's order, with A measured once per processing.

    Codes sharing punctuation and stemming policies share A's side.  Per n, A's
    table is counted once, then each code's B table: no more tables are alive
    than with one code at a time.  Each code meets its errors in one-code-at-a-time
    order (draw, A, B, tables); the error of the earliest failing code is raised.
    """
    codes = list(dict.fromkeys(codes))  # a repeated code gives the same block again
    errors: dict[int, Exception] = {}  # position in codes -> its first error
    processings: dict[tuple[str, str], list] = {}
    for i, code in enumerate(codes):
        try:
            cond = sampling.ConditionSpec.parse(code)
            processings.setdefault((cond.punctuation, cond.stemming), []).append((i, cond))
        except ValueError as exc:
            errors[i] = exc

    blocks: dict[int, dict] = {}
    for members in processings.values():
        side_a, drawn = None, {}  # position -> (condition, B's sample, B's side)
        for i, cond in members:
            try:
                sample_b = sampling.build_balanced_sample_grouped(
                    groups_b, sample_a.size(cond.unit), cond.unit, _condition_seed(seed, codes[i]))
                if side_a is None:
                    side_a = _Side(lines.apply(sample_a.lines, cond))
                drawn[i] = cond, sample_b, _Side(lines.apply(sample_b.lines, cond))
            except (ValueError, CorplexError) as exc:
                errors[i] = exc

        cosines = {i: {} for i in drawn}
        for n in range(1, ngram_max_n + 1):
            table_a = None  # counted for the first code still measured
            for i, (_, _, side_b) in drawn.items():
                if i in errors:
                    continue
                try:
                    if table_a is None:
                        table_a = side_a.table(n, boundary_policy)
                    similarity, angle = posstats.cosine_angle(
                        table_a, side_b.table(n, boundary_policy))
                    cosines[i][str(n)] = {"similarity": similarity, "angle_degrees": angle}
                except ValueError as exc:
                    errors[i] = exc

        for i in drawn.keys() - errors.keys():
            cond, sample_b, side_b = drawn[i]
            a, b, unit = side_a.block, side_b.block, cond.unit
            blocks[i] = {
                "a": copy.deepcopy(a),  # each code owns its blocks
                "b": b,
                "sample_b": {
                    "target": sample_a.size(unit),
                    "achieved": sample_b.size(unit),
                    "size_ratio": sampling.size_ratio(sample_b, sample_a, unit),
                    "balanced": sampling.balanced(sample_b, sample_a, unit),
                    "lines": len(sample_b.lines),
                },
                "cross": {
                    "C_ratio": (a["C"] / b["C"]) if (a["C"] and b["C"]) else None,
                    "entropy_delta_bits": {n: h - b["ngram_entropy_bits"][n]
                                           for n, h in a["ngram_entropy_bits"].items()},
                    "cosine_angles": cosines[i],
                },
            }

    if errors:
        first = min(errors)
        raise CorplexError(f"condition {codes[first]}: {errors[first]}") from errors[first]
    return {codes[i]: blocks[i] for i in range(len(codes))}


def _cell(value) -> str:
    if value is None:
        return "NA"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def tsv_lines(rows: Iterable[Sequence], header: Sequence[str] | None = None) -> Iterator[str]:
    """One tab-separated line per row, after the header when one is given.

    A float cell (numpy.float64 included) is written with 6 significant
    digits, None as NA, and any other cell as str() gives it.
    """
    if header is not None:
        yield "\t".join(header)
    for row in rows:
        yield "\t".join(map(_cell, row))
