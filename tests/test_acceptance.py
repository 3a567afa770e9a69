"""Acceptance suite: one test per headline guarantee of the toolkit.

Every test funnels through the ``verdict`` fixture, which records a
PASS/FAIL line replayed in the terminal summary.  Oracles here are kept
independent of the library code they check: the window rule and the
controversy score are re-implemented from their plain-language statements,
Welch's test is checked against scipy, and the end-to-end stage compares
bytes against committed golden outputs that were verified by hand.
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest
import scipy.stats as sps

import corplex
from corplex import cli, lexstats, readability, textpipe
from corplex.controversy import controversy_m
from corplex.lexstats import BOUNDARY, CountTable
from corplex.posstats import cosine_angle
from corplex.readability import FogReport, GroupStats, welch_t_test
from corplex.sampling import SplitMix64

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "golden"


@pytest.mark.timing
def test_criterion_01_fog_formula(verdict):
    rng = SplitMix64(11)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        words = 1 + rng.below(10_000)
        sentences = 1 + rng.below(200)
        complex_words = rng.below(words + 1)
        got = FogReport.from_counts(words, sentences, complex_words).F
        want = 0.4 * (words / sentences + 100.0 * complex_words / words)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    verdict(1, worst <= 1e-12 and elapsed < 1.0,
            f"50 synthetic count triples, worst |dF| = {worst:.1e}, {elapsed:.2f}s")


@pytest.mark.timing
def test_criterion_02_vocabulary_growth_constant(verdict):
    closed = lexstats.herdan_c(10, 100) == 0.5
    closed = closed and all(lexstats.herdan_c(k, k) == 1.0 for k in (2, 17, 1000))
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    tokens = [f"w{d}" for d in rng.zipf(1.4, 1_000_000)]
    V, N = lexstats.type_token_counts(tokens)
    c_full = lexstats.herdan_c(V, N)
    keep = rng.random(1_000_000) >= 0.05
    reduced = [t for t, kept in zip(tokens, keep) if kept]
    V2, N2 = lexstats.type_token_counts(reduced)
    rel = abs(lexstats.herdan_c(V2, N2) - c_full) / c_full
    elapsed = time.perf_counter() - t0
    verdict(2, closed and rel < 0.001 and elapsed < 10.0,
            f"closed forms exact; deleting 5% moves C = {c_full:.6f} by {rel:.4%}, {elapsed:.1f}s")


def test_criterion_03_vocabulary_growth_fit(verdict):
    t0 = time.perf_counter()
    # stream engineered so the type count is exactly sqrt(N) at square N
    stream, seen = [], 0
    for n in range(1, 10_001):
        root = math.isqrt(n)
        if root * root == n and root > seen:
            seen = root
            stream.append(f"t{seen}")
        else:
            stream.append("t1")
    fit = lexstats.heaps_fit(stream, [k * k for k in range(32, 101)])
    exact_err = abs(fit.exponent - 0.5)

    rng = np.random.default_rng(7)
    drawn = [f"w{d}" for d in rng.zipf(1.4, 1_000_000)]
    drawn_fit = lexstats.heaps_fit(drawn)
    drawn_err = abs(drawn_fit.exponent - 1 / 1.4)
    elapsed = time.perf_counter() - t0
    verdict(3, exact_err < 1e-6 and drawn_err <= 0.05 and elapsed < 30.0,
            f"pure power law off by {exact_err:.1e}; sampled exponent "
            f"{drawn_fit.exponent:.4f} vs 0.7143, {elapsed:.1f}s")


def _window_rule(window, _cache={}):
    """The boundary rule transcribed literally; None means the window drops."""
    if window in _cache:
        return _cache[window]
    n = len(window)
    marks = [p for p in range(1, n + 1) if window[p - 1] == BOUNDARY]
    if not marks:
        result = window
    elif len(marks) == n:
        result = None
    else:
        center = (n + 1) / 2
        ranked = sorted(marks, key=lambda p: (abs(p - center), p))
        governing = ranked[0]
        tie = len(ranked) > 1 and abs(ranked[0] - center) == abs(ranked[1] - center)
        if tie or governing == center:
            result = None
        else:
            left = [p for p in range(1, governing) if window[p - 1] != BOUNDARY]
            right = [p for p in range(governing + 1, n + 1) if window[p - 1] != BOUNDARY]
            if len(left) != len(right):
                wipe_left = len(left) < len(right)
            else:
                wipe_left = governing - 1 < n - governing
            symbols = list(window)
            for p in (range(1, governing) if wipe_left else range(governing + 1, n + 1)):
                symbols[p - 1] = BOUNDARY
            result = None if all(s == BOUNDARY for s in symbols) else tuple(symbols)
    _cache[window] = result
    return result


def _window_rule_counts(sentences, n):
    stream = [BOUNDARY]
    for sent in sentences:
        stream.extend(sent)
        stream.append(BOUNDARY)
    stream = tuple(stream)
    counts = Counter()
    for i in range(len(stream) - n + 1):
        transformed = _window_rule(stream[i:i + n])
        if transformed is not None:
            counts[transformed] += 1
    return counts


@pytest.mark.timing
def test_criterion_04_boundary_rule_exhaustive(verdict):
    inventory = [tuple(p) for length in range(1, 5)
                 for p in itertools.product("abc", repeat=length)]
    t0 = time.perf_counter()
    checked = 0
    for k in (1, 2, 3):
        for combo in itertools.combinations_with_replacement(inventory, k):
            for n in range(1, 6):
                table = lexstats.ngram_counts(combo, n, "postprocessed")
                if table.entries != _window_rule_counts(combo, n):
                    verdict(4, False, f"window counts diverge on {combo} at n={n}")
                checked += 1
    elapsed = time.perf_counter() - t0
    verdict(4, elapsed < 60.0,
            f"{checked} sentence-multiset/n cases match the rule exactly, {elapsed:.1f}s")


Rev = namedtuple("Rev", "page_id rev_index timestamp editor raw_text")


def _direct_controversy(history):
    """Score from the definitions, by direct text comparison."""
    events = []
    for pos in range(len(history)):
        if any(history[i].raw_text == history[pos].raw_text for i in range(pos - 1)):
            events.append((history[pos].editor, history[pos - 1].editor))
    edits = Counter(rev.editor for rev in history)
    directed = {(a, b) for a, b in events if a != b}
    pairs = []
    for x, y in itertools.combinations(sorted(edits), 2):
        if (x, y) in directed and (y, x) in directed:
            pairs.append((x, y, min(edits[x], edits[y])))
    if not pairs:
        return 0, len(edits), None
    top_w = max(w for _, _, w in pairs)
    excluded = min(p for p in pairs if p[2] == top_w)
    total = sum(w for _, _, w in pairs)
    return len(edits) * (total - top_w), len(edits), excluded


def test_criterion_05_controversy_random_histories(verdict):
    prng = random.Random(424242)
    t0 = time.perf_counter()
    for case in range(1000):
        editors = prng.sample("ABCDE", prng.randint(1, 5))
        texts = [f"t{i}" for i in range(prng.randint(2, 6))]
        history = [
            Rev("p", i, i, prng.choice(editors), prng.choice(texts))
            for i in range(prng.randint(2, 20))
        ]
        want_m, want_e, want_excluded = _direct_controversy(history)
        for policy in ("latest", "earliest"):
            score = controversy_m(history, match_policy=policy)
            if (score.M, score.E, score.excluded_pair) != (want_m, want_e, want_excluded):
                verdict(5, False, f"case {case} policy {policy}: "
                        f"{(score.M, score.E, score.excluded_pair)} != "
                        f"{(want_m, want_e, want_excluded)}")
    elapsed = time.perf_counter() - t0
    verdict(5, elapsed < 10.0, f"1000 random histories, both match policies, {elapsed:.1f}s")


def test_criterion_06_distribution_angles(verdict):
    same = CountTable(1, {("x",): 3, ("y",): 4})
    ok = cosine_angle(same, same) == (1.0, 0.0)
    ok = ok and cosine_angle(CountTable(1, {("x",): 5}),
                             CountTable(1, {("y",): 2})) == (0.0, 90.0)
    near = CountTable(1, {("g1",): 991, ("g2",): 134})
    sim, angle = cosine_angle(near, CountTable(1, {("g1",): 1}))
    ok = ok and round(sim, 3) == 0.991 and abs(angle - 7.70) <= 0.01

    prng = random.Random(42)
    exact = 0
    for _ in range(100):
        keys = [f"k{i}" for i in range(prng.randint(2, 12))]
        a = CountTable(1, {(k,): prng.randint(1, 50) for k in keys})
        chosen = prng.sample(keys, prng.randint(1, len(keys)))
        b = CountTable(1, {(k,): prng.randint(1, 50) for k in chosen})
        scale = prng.choice([2, 4, 8, 16])
        scaled = CountTable(1, {k: v * scale for k, v in a.entries.items()})
        if cosine_angle(a, b) == cosine_angle(scaled, b):
            exact += 1
    verdict(6, ok and exact == 100,
            f"fixed pairs exact; count doubling leaves 100/100 angles bit-identical "
            f"(got {exact})")


def test_criterion_07_welch_reference(verdict):
    prng = random.Random(123)
    worst_t, worst_p = 0.0, 0.0
    for _ in range(100):
        na, nb = prng.randint(2, 40), prng.randint(2, 40)
        a = [prng.gauss(prng.uniform(-2, 2), prng.uniform(0.5, 3)) for _ in range(na)]
        b = [prng.gauss(prng.uniform(-2, 2), prng.uniform(0.5, 3)) for _ in range(nb)]
        t, _, p = welch_t_test(GroupStats.from_values(a), GroupStats.from_values(b))
        ref = sps.ttest_ind(a, b, equal_var=False)
        worst_t = max(worst_t, abs(t - ref.statistic))
        worst_p = max(worst_p, abs(p - ref.pvalue))
    verdict(7, worst_t <= 1e-9 and worst_p <= 1e-6,
            f"100 sample pairs vs scipy, worst |dt| = {worst_t:.1e}, |dp| = {worst_p:.1e}")


def test_criterion_08_entropy(verdict):
    ok = lexstats.unigram_entropy(["a", "b", "c", "d"]) == 2.0
    skew = lexstats.table_entropy(CountTable(1, {("a",): 3, ("b",): 1}))
    ok = ok and abs(skew - 0.8113) <= 1e-4

    rng = SplitMix64(99)
    sections = [
        [tuple(f"w{min(rng.below(500), rng.below(500))}" for _ in range(20))
         for _ in range(25)]
        for _ in range(200)
    ]
    tokens = sum(len(s) for sec in sections for s in sec)
    single = lexstats.count_corpus_ngrams(sections, 2, "postprocessed")
    parts = [lexstats.count_corpus_ngrams(sections[i * 50:(i + 1) * 50], 2, "postprocessed")
             for i in range(4)]
    merged = parts[0]
    for part in parts[1:]:
        merged = merged.merge(part)
    ok = ok and dict(merged.entries) == dict(single.entries)
    ok = ok and lexstats.table_entropy(merged) == lexstats.table_entropy(single)
    verdict(8, ok and tokens == 100_000,
            f"closed forms exact; 4-shard merge over {tokens} tokens identical to single pass")


def test_criterion_09_report_determinism(verdict, tmp_path):
    args = ["compare", str(GOLDEN / "extracted_a.jsonl"), str(GOLDEN / "extracted_b.jsonl"),
            "--seed", "42"]
    outs = []
    for name in ("first.json", "second.json"):
        path = tmp_path / name
        assert cli.main(args + ["-o", str(path)]) == 0
        outs.append(path.read_bytes())
    verdict(9, len(outs[0]) > 0 and outs[0] == outs[1],
            f"two seeded runs produce byte-identical reports ({len(outs[0])} bytes)")


@pytest.fixture(scope="module")
def million_token_text():
    words = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
             "computational", "analysis", "rumble", "tables", "seven", "printer",
             "understanding", "be", "weather", "map", "population", "arguably"]
    parts = []
    wi = 0
    count = 0
    while count < 1_000_000:
        n = 8 + (wi % 7)
        sent = [words[(wi + j * 3) % len(words)] for j in range(n)]
        wi += 1
        count += n + 1
        parts.append(" ".join(sent) + ("." if wi % 3 else "?"))
        if wi % 9 == 0:
            parts.append("It ran, fast; quite (very) far.")
            count += 10
    return " ".join(parts)


@pytest.fixture(scope="module")
def sharded_counting(million_token_text):
    """Time serial against 4-process bigram counting on 64 sections, once."""
    sentences = textpipe.split_sentences(textpipe.tokenize(million_token_text))
    folded = [tuple(t.surface.lower() for t in s.tokens) for s in sentences]
    step = (len(folded) + 63) // 64
    sections = [folded[i:i + step] for i in range(0, len(folded), step)]
    t0 = time.perf_counter()
    serial = lexstats.count_corpus_ngrams(sections, 2, "postprocessed", processes=1)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    parallel = lexstats.count_corpus_ngrams(sections, 2, "postprocessed", processes=4)
    t_parallel = time.perf_counter() - t0
    return serial, parallel, t_serial / t_parallel


@pytest.mark.timing
def test_criterion_10_throughput_and_shard_identity(verdict, million_token_text,
                                                    sharded_counting):
    t0 = time.perf_counter()
    tokens = textpipe.tokenize(million_token_text)
    sentences = textpipe.split_sentences(tokens)
    stream = [t.surface for s in sentences for t in s.tokens]
    V, N = lexstats.type_token_counts(stream)
    lexstats.herdan_c(V, N)
    lexstats.unigram_entropy(stream)
    lexstats.corpus_stats(sentences)
    readability.gunning_fog(sentences)
    elapsed = time.perf_counter() - t0

    serial, parallel, _ = sharded_counting
    identical = dict(parallel.entries) == dict(serial.entries)
    verdict(10, elapsed < 10.0 and identical and N >= 1_000_000,
            f"{N} tokens through the full pipeline in {elapsed:.1f}s; "
            f"4-way counting tables identical")


@pytest.mark.timing
def test_criterion_10_parallel_speedup(verdict, sharded_counting):
    _, _, speedup = sharded_counting
    verdict(10, speedup >= 2.0,
            f"4-process counting speedup {speedup:.2f}x (needs 2x or better)")


def _run_tool(args, cwd):
    """Run the CLI as ``python -m corplex`` on the package under test.

    No installed launcher is needed: the directory holding the imported
    package goes first on the child's PYTHONPATH, as an absolute path since
    the child runs from ``cwd``.
    """
    package_root = str(Path(corplex.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "corplex", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def test_criterion_11_end_to_end_golden(verdict, tmp_path):
    # extract both volumes: warnings must be exactly the documented redirects
    for volume in ("a", "b"):
        run = _run_tool(["extract", f"mini_dump_{volume}.xml",
                         "-o", str(tmp_path / f"extracted_{volume}.jsonl")], DATA)
        assert run.returncode == 0, run.stderr
        assert run.stderr == (GOLDEN / f"extract_{volume}.stderr").read_text()
        assert (tmp_path / f"extracted_{volume}.jsonl").read_bytes() == \
            (GOLDEN / f"extracted_{volume}.jsonl").read_bytes()

    # hand-checked extraction: the two designed pages come out exactly as derived
    records = [json.loads(line)
               for line in (tmp_path / "extracted_a.jsonl").read_text().splitlines()]
    assert records[0]["text"] == (
        "Alpha is a Greek letter used in mathematics.\n\n"
        "It often denotes the element & the angle of attack."
    )
    assert records[1]["text"] == (
        "History\nThe project began in the café quarter.\n"
        "stone walls\niron gates\nCosts rose beyond £ limits."
    )

    run = _run_tool(["sample", "golden/extracted_a.jsonl", "--target", "2000",
                     "--seed", "7", "-o", str(tmp_path / "sample")], DATA)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert (tmp_path / "sample.txt").read_bytes() == (GOLDEN / "sample.txt").read_bytes()
    assert (tmp_path / "sample.manifest.json").read_bytes() == \
        (GOLDEN / "sample.manifest.json").read_bytes()
    recount = sum(len(line.split()) for line in (tmp_path / "sample.txt").open())
    manifest = json.loads((tmp_path / "sample.manifest.json").read_text())
    assert recount == manifest["achieved"] >= 2000

    run = _run_tool(["compare", "golden/extracted_a.jsonl", "golden/extracted_b.jsonl",
                     "--seed", "42", "-o", str(tmp_path / "compare.json")], DATA)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert (tmp_path / "compare.json").read_bytes() == (GOLDEN / "compare.json").read_bytes()

    run = _run_tool(["conflict", "history.xml", "--ranking", str(tmp_path / "ranking.tsv"),
                     "-o", str(tmp_path / "conflict.jsonl")], DATA)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert (tmp_path / "conflict.jsonl").read_bytes() == (GOLDEN / "conflict.jsonl").read_bytes()
    assert (tmp_path / "ranking.tsv").read_bytes() == (GOLDEN / "ranking.tsv").read_bytes()

    # hand-computed conflict scores for the designed histories
    scores = {json.loads(l)["page_id"]: json.loads(l)["M"]
              for l in (tmp_path / "conflict.jsonl").open()}
    assert scores == {"901": 48, "902": 0}
    assert (tmp_path / "ranking.tsv").read_text() == "901\t48\n902\t0\n"

    verdict(11, True,
            "extract/sample/compare/conflict all byte-exact against verified goldens")
