"""Per-layer busy time, measured from outside the program.

install() replaces each public function listed in TARGETS with a timing
wrapper, in every corplex namespace that holds it (``sampling.tokenize``
and ``readability.tokenize`` are the same function looked up in two
places).  A generator is timed one ``next()`` at a time.  For each function:

- ``.s``: inclusive busy time, counting only the outermost active call;
- ``.self_s``: busy time minus the wrapped calls nested directly inside;
- ``.calls``: number of calls.

One private function is traced too: ``ingest._iter_page_chunks``, the page
chunker under both dump readers, whose cost grows with page size.
``cli.main`` is the root span, so ``cli.self_s`` is the command's time
that no wrapped function accounts for.  Only the benchmark child imports
this module; untraced runs never load it.
"""

from __future__ import annotations

import sys
import time

TARGETS = {
    "ingest": ("parse_article_dump", "parse_revision_dump", "strip_markup", "docs_to_jsonl",
               "_iter_page_chunks"),
    "textpipe": ("tokenize", "split_sentences"),
    "porter": ("porter_stem",),
    "sampling": ("build_balanced_sample_grouped", "apply_condition"),
    "lexstats": ("ngram_counts", "table_entropy", "type_token_counts", "unigram_entropy",
                 "corpus_stats"),
    "posstats": ("cosine_angle",),
    "readability": ("corpus_fog", "gunning_fog"),
    "controversy": ("detect_reverts", "controversy_m"),
    "report": ("compare_corpora", "render_json"),
}
_GENERATORS = {"parse_article_dump", "parse_revision_dump", "_iter_page_chunks"}


def _strip_markup_kb(counters, args, kwargs, result):
    raw = args[0] if args else kwargs["raw"]
    counters["ingest.strip_markup.kb_in"] += len(raw.encode("utf-8")) / 1000


def _ngram_windows(counters, args, kwargs, result):
    counters["lexstats.ngram_counts.windows"] += result.total


def _revert_events(counters, args, kwargs, result):
    counters["controversy.revert_events"] += len(result)


def _revisions(counters, item):
    counters["ingest.revisions"] += len(item[1])


# extra counters, read off a call's arguments and result (or a generator's item)
_AFTER_CALL = {
    "ingest.strip_markup": _strip_markup_kb,
    "lexstats.ngram_counts": _ngram_windows,
    "controversy.detect_reverts": _revert_events,
}
_AFTER_ITEM = {"ingest.parse_revision_dump": _revisions}


class _Stat:
    __slots__ = ("s", "self_s", "calls", "active")

    def __init__(self):
        self.s = self.self_s = 0.0
        self.calls = self.active = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, _Stat] = {}
        self.counters: dict[str, float] = {}
        # one [nested seconds] cell per active wrapped call, innermost last
        self._stack: list[list[float]] = []

    def _span(self, name: str, fn, args, kwargs):
        stat = self.stats[name]
        stack = self._stack
        cell = [0.0]
        stack.append(cell)
        stat.active += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            stat.active -= 1
            stat.calls += 1
            stat.self_s += dur - cell[0]
            if not stat.active:
                stat.s += dur
            if stack:
                stack[-1][0] += dur

    def wrap(self, name: str, fn, generator: bool = False):
        self.stats[name] = _Stat()
        span = self._span
        after_call = _AFTER_CALL.get(name)
        after_item = _AFTER_ITEM.get(name)
        counters = self.counters
        if not generator:
            def wrapper(*args, **kwargs):
                result = span(name, fn, args, kwargs)
                if after_call is not None:
                    after_call(counters, args, kwargs, result)
                return result
            return wrapper

        def gen_wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def timed():
                while True:
                    try:
                        item = span(name, next, (inner,), {})
                    except StopIteration:
                        return
                    if after_item is not None:
                        after_item(counters, item)
                    yield item

            return timed()

        return gen_wrapper

    def report(self) -> dict[str, float]:
        out: dict[str, float] = dict(self.counters)
        for name, stat in self.stats.items():
            out[f"{name}.s"] = stat.s
            out[f"{name}.self_s"] = stat.self_s
            out[f"{name}.calls"] = stat.calls
        return out


def install() -> Tracer:
    """Wrap every target in every loaded corplex module; returns the tracer."""
    tracer = Tracer()
    for counter in ("ingest.strip_markup.kb_in", "lexstats.ngram_counts.windows",
                    "controversy.revert_events", "ingest.revisions"):
        tracer.counters[counter] = 0
    modules = [m for n, m in sys.modules.items() if n == "corplex" or n.startswith("corplex.")]
    for module_name, names in TARGETS.items():
        module = sys.modules.get("corplex." + module_name)
        for fn_name in names:
            original = getattr(module, fn_name, None)
            if original is None:  # renamed or removed: its metrics read 0
                continue
            wrapped = tracer.wrap(f"{module_name}.{fn_name}", original, fn_name in _GENERATORS)
            for namespace in modules:
                for attr, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, attr, wrapped)
    cli = sys.modules["corplex.cli"]
    cli.main = tracer.wrap("cli", cli.main)
    return tracer
