"""Output checks, one per workload, run outside the timed region.

Each check takes the generator's oracle and the files one CLI run wrote
(``out``, plus ``rank`` for conflict and ``stderr``), as text, and returns
a list of problems; an empty list means the output is correct.  Floats in
the report are rounded to 6 significant digits, so comparisons with
recomputed values allow for that rounding and nothing more.
"""

from __future__ import annotations

import json
import math
from collections import Counter

# one rounding to 6 significant digits moves a value by at most 5e-6 of it
_ROUND = 5e-6


def _close(got, want, parts=1) -> bool:
    """got was rounded once; want is built from `parts` rounded values."""
    return abs(got - want) <= _ROUND * (parts + 1) * max(abs(got), abs(want)) + 1e-12


def _warnings(stderr: str) -> dict[str, int]:
    out = {}
    for line in stderr.splitlines():
        if line.startswith("warning: "):
            name, count = line[len("warning: "):].rsplit(" x", 1)
            out[name] = int(count)
    return out


def check_extract(oracle: dict, files: dict) -> list[str]:
    from corplex.ingest import strip_markup

    problems = []
    docs = [json.loads(line) for line in files["out"].splitlines()]
    expected = oracle["docs"]
    if len(docs) != len(expected):
        problems.append(f"{len(docs)} documents, expected {len(expected)}")
    for doc, (doc_id, title, plain) in zip(docs, expected):
        if (doc["id"], doc["title"]) != (doc_id, title):
            problems.append(f"document {doc['id']} {doc['title']!r}: expected {doc_id} {title!r}")
            break
        body = doc["text"]
        if "OLDREVSENTINEL" in body:
            problems.append(f"document {doc_id}: text of an older revision survived")
        if plain is not None:
            if body != plain:
                problems.append(f"document {doc_id}: text differs from the generated plain text")
        else:
            left = [m for m in ("[[", "{{", "<ref", "<!--") if m in body]
            if left:
                problems.append(f"vandalised document {doc_id}: markup left {left}")
            if strip_markup(body) != body:
                problems.append(f"vandalised document {doc_id}: stripping is not idempotent")
    if _warnings(files["stderr"]) != oracle["warnings"]:
        problems.append(f"warnings {_warnings(files['stderr'])}, expected {oracle['warnings']}")
    return problems


def _angle_ok(similarity: float, angle: float) -> bool:
    lo = max(-1.0, similarity - _ROUND * abs(similarity))
    hi = min(1.0, similarity + _ROUND * abs(similarity))
    a_min, a_max = math.degrees(math.acos(hi)), math.degrees(math.acos(lo))
    slack = _ROUND * abs(angle) + 1e-9
    return a_min - slack <= angle <= a_max + slack


def _check_block(code: str, side: str, block: dict) -> list[str]:
    where = f"{code}.{side}"
    problems = []
    V, N, H = block["V"], block["N"], block["entropy_bits"]
    if block["C"] is not None and not _close(block["C"], math.log(V) / math.log(N)):
        problems.append(f"{where}: C {block['C']} != ln V / ln N")
    if block["ngram_entropy_bits"]["1"] != H:
        problems.append(f"{where}: unigram n-gram entropy differs from entropy_bits")
    if H > math.log2(V) * (1 + _ROUND):
        problems.append(f"{where}: entropy {H} above log2 V")
    fog = block["fog"]
    if fog is not None:
        w, s, c = fog["words"], fog["sentences"], fog["complex_words"]
        if not _close(fog["F"], 0.4 * (w / s + 100.0 * c / w)):
            problems.append(f"{where}: fog F {fog['F']} does not match its counts")
    return problems


def check_compare(oracle: dict, files: dict) -> list[str]:
    problems = []
    report = json.loads(files["out"])
    conditions = report["conditions"]
    if sorted(conditions) != sorted(("CB", "CN", "CBP", "CNP", "WB", "WN", "WBP", "WNP")):
        return [f"conditions {sorted(conditions)}"]
    if report["corpus_a"] != {"documents": oracle["a_docs"], "chars": oracle["a_chars"],
                              "words": oracle["a_words"]}:
        problems.append(f"corpus_a {report['corpus_a']}")

    # A-side WB against counts taken from the generator's own token lists
    tokens = oracle["a_tokens"]
    types = Counter(surface.lower() for surface, _ in tokens)
    n = len(tokens)
    entropy = -math.fsum((c / n) * math.log2(c / n) for c in types.values())
    wb = conditions["WB"]["a"]
    want = {"V": len(types), "N": n,
            "fog.words": sum(kind == "word" for _, kind in tokens),
            "fog.sentences": oracle["a_sentences"]}
    got = {"V": wb["V"], "N": wb["N"], "fog.words": wb["fog"]["words"],
           "fog.sentences": wb["fog"]["sentences"]}
    if got != want:
        problems.append(f"WB.a counts {got}, expected {want}")
    if not _close(wb["entropy_bits"], entropy):
        problems.append(f"WB.a entropy_bits {wb['entropy_bits']}, expected {entropy}")

    for code, cond in conditions.items():
        for side in ("a", "b"):
            problems += _check_block(code, side, cond[side])
        a, b, cross = cond["a"], cond["b"], cond["cross"]
        if a["C"] and b["C"] and not _close(cross["C_ratio"], a["C"] / b["C"], parts=2):
            problems.append(f"{code}: C_ratio {cross['C_ratio']} != C_a / C_b")
        for k, delta in cross["entropy_delta_bits"].items():
            ha, hb = a["ngram_entropy_bits"][k], b["ngram_entropy_bits"][k]
            if abs(delta - (ha - hb)) > 2 * _ROUND * (abs(ha) + abs(hb) + abs(delta)) + 1e-12:
                problems.append(f"{code}: entropy_delta_bits[{k}] {delta} != {ha} - {hb}")
        for k, ang in cross["cosine_angles"].items():
            if not _angle_ok(ang["similarity"], ang["angle_degrees"]):
                problems.append(f"{code}: angle {ang['angle_degrees']} != acos({ang['similarity']})")
        unit = "character" if code.startswith("C") else "word"
        sample = cond["sample_b"]
        target = oracle["a_chars"] if unit == "character" else oracle["a_words"]
        if sample["target"] != target:
            problems.append(f"{code}: target {sample['target']}, A has {target}")
        if not target <= sample["achieved"] < target + oracle["b_longest_line"][unit]:
            problems.append(f"{code}: achieved {sample['achieved']} outside [target, target + longest B line)")
    for base in ("CB", "CN", "WB", "WN"):
        if conditions[base + "P"]["a"]["V"] > conditions[base]["a"]["V"]:
            problems.append(f"{base}P.a has more types than {base}.a")
    return problems


def check_conflict(oracle: dict, files: dict) -> list[str]:
    problems = []
    scored = [json.loads(line) for line in files["out"].splitlines()]
    pages = oracle["pages"]
    if [s["page_id"] for s in scored] != [p["page_id"] for p in pages]:
        return [f"{len(scored)} scored pages, page ids differ from the {len(pages)} generated"]
    for got, want in zip(scored, pages):
        pid = want["page_id"]
        pairs = sorted((p["x"], p["y"], p["weight"]) for p in got["pairs"])
        excluded = got["excluded_pair"]
        excluded = (excluded["x"], excluded["y"], excluded["weight"]) if excluded else None
        events = [(e["restored_rev"], e["reverting_rev"], e["reverting_editor"],
                   e["reverted_editor"], e["self_revert"]) for e in got["revert_events"]]
        if (got["M"], got["E"]) != (want["M"], want["E"]):
            problems.append(f"page {pid}: M, E = {got['M']}, {got['E']}; expected {want['M']}, {want['E']}")
        if pairs != [tuple(p) for p in want["pairs"]]:
            problems.append(f"page {pid}: mutual pairs differ")
        if excluded != (tuple(want["excluded_pair"]) if want["excluded_pair"] else None):
            problems.append(f"page {pid}: excluded pair {excluded}")
        if events != [tuple(e) for e in want["events"]]:
            problems.append(f"page {pid}: revert events differ")
        if not set(want["planned"]) <= {e[1] for e in events}:
            problems.append(f"page {pid}: a planned revert was not detected")
    ranking = [line.split("\t") for line in files["rank"].splitlines()]
    m_by_page = {p["page_id"]: p["M"] for p in pages}
    if sorted(pid for pid, _ in ranking) != sorted(m_by_page):
        problems.append("ranking does not list every page once")
    ms = [int(m) for _, m in ranking]
    if any(x < y for x, y in zip(ms, ms[1:])):
        problems.append("ranking is not in descending order of M")
    if any(m_by_page.get(pid) != int(m) for pid, m in ranking):
        problems.append("ranking M differs from the oracle")
    return problems


CHECKS = {"extract": check_extract, "compare": check_compare, "conflict": check_conflict}
