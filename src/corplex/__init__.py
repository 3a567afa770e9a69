"""Corpus complexity toolkit: tokenization, lexical statistics, balanced
sampling, readability, tag-distribution comparison, and edit-war scoring."""

from types import ModuleType as _ModuleType

from .errors import CorplexError, InsufficientPoolError, MarkupError, ParseError
from .textpipe import (
    NUMBER,
    PUNCTUATION,
    Sentence,
    Token,
    WORD,
    count_syllables,
    detokenize,
    is_complex_word,
    split_sentences,
    tokenize,
)
from .porter import porter_stem
from .lexstats import (
    BOUNDARY,
    CorpusStats,
    CountTable,
    HeapsFit,
    corpus_stats,
    count_corpus_ngrams,
    heaps_checkpoints,
    heaps_fit,
    herdan_c,
    ngram_counts,
    table_entropy,
    type_token_counts,
    unigram_entropy,
    zipf_table,
)
from .sampling import (
    BALANCE_TOLERANCE,
    CHARACTER,
    ConditionSpec,
    LineCache,
    Sample,
    SplitMix64,
    WORD_UNIT,
    apply_condition,
    balanced,
    build_balanced_sample,
    build_balanced_sample_grouped,
    sample_manifest,
    size_ratio,
)
from .readability import (
    FogReport,
    GroupStats,
    corpus_fog,
    gunning_fog,
    regularized_incomplete_beta,
    welch_t_test,
)
from .posstats import (
    PENN_TAGS,
    POS_CONDITIONS,
    TaggedSentence,
    apply_pos_condition,
    cosine_angle,
    merge_adjacent_proper_nouns,
    parse_tagged,
    pos_distribution,
    tag_ngram_table,
)
from .controversy import (
    ControversyScore,
    RevertEvent,
    controversy_m,
    detect_reverts,
)
from .ingest import (
    Document,
    RevisionRecord,
    count_unknown_entities,
    docs_to_jsonl,
    parse_article_dump,
    parse_revision_dump,
    strip_markup,
)
from .report import compare_corpora, render_json, tsv_lines

__version__ = "0.1.0"

# Every public name bound above, and nothing else: the imports are the list.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
