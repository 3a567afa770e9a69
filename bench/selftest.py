"""Show that every output check can fail.

    python3 bench/selftest.py [--seed N]

For each workload it runs the CLI once on generated input, confirms that
the checks accept the true output, then hand-corrupts that output in
several ways (a dropped document, one changed M, ...) and confirms that the
check aimed at each corruption rejects it.  Exits 1 if a corruption goes unnoticed.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import checks
import run
import workloads


def _jsonl(rows) -> str:
    return "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows)


def _extract_corruptions(files, oracle):
    docs = [json.loads(line) for line in files["out"].splitlines()]
    plain = next(i for i, (_, _, p) in enumerate(oracle["docs"]) if p is not None)
    vandal = next(i for i, (_, _, p) in enumerate(oracle["docs"]) if p is None)

    def edit(i, text):
        changed = [dict(d) for d in docs]
        changed[i]["text"] = text
        return {**files, "out": _jsonl(changed)}

    yield "one document dropped", "documents, expected", {**files, "out": _jsonl(docs[:5] + docs[6:])}
    yield "two documents swapped", "expected", {**files, "out": _jsonl([docs[1], docs[0]] + docs[2:])}
    yield "one word of a plain page changed", "differs from the generated", edit(plain, docs[plain]["text"].replace(" ", " x", 1))
    yield "older revision text kept", "older revision", edit(plain, docs[plain]["text"] + " OLDREVSENTINEL1x0.")
    yield "template left in a vandalised page", "markup left", edit(vandal, docs[vandal]["text"] + " {{spam")
    yield "redirect warning count changed", "warnings", {**files, "stderr": files["stderr"].replace(" x", " x1", 1)}


def _compare_corruptions(files, oracle):
    report = json.loads(files["out"])

    def edit(change):
        copy = json.loads(files["out"])
        change(copy["conditions"])
        return {**files, "out": json.dumps(copy)}

    def set_in(path, value):
        def change(conds):
            node = conds
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value(node[path[-1]])
        return change

    yield "WB.a V off by one", "WB.a counts", edit(set_in(["WB", "a", "V"], lambda v: v + 1))
    yield "WB.a fog sentences off by one", "WB.a counts", edit(set_in(["WB", "a", "fog", "sentences"], lambda v: v + 1))
    yield "entropy_bits changed", "unigram n-gram entropy", edit(set_in(["WN", "b", "entropy_bits"], lambda v: v * 1.001))
    yield "C not ln V / ln N", "ln V / ln N", edit(set_in(["CN", "a", "C"], lambda v: v * 1.001))
    yield "angle changed", "acos", edit(set_in(["CB", "cross", "cosine_angles", "2", "angle_degrees"], lambda v: v + 0.5))
    yield "fog F changed", "does not match its counts", edit(set_in(["WBP", "b", "fog", "F"], lambda v: v * 1.01))
    yield "C_ratio changed", "C_a / C_b", edit(set_in(["CNP", "cross", "C_ratio"], lambda v: v * 1.01))
    yield "entropy delta changed", "entropy_delta_bits", edit(set_in(["WNP", "cross", "entropy_delta_bits", "3"], lambda v: v + 0.01))
    yield "sample short of target", "outside [target", edit(set_in(["WB", "sample_b", "achieved"], lambda v: report["conditions"]["WB"]["sample_b"]["target"] - 1))

    def more_types(conds):
        block = conds["CBP"]["a"]
        block["V"] = conds["CB"]["a"]["V"] + 1

    yield "stemmed side has more types", "more types than", edit(more_types)


def _conflict_corruptions(files, oracle):
    rows = [json.loads(line) for line in files["out"].splitlines()]
    warred = next(i for i, r in enumerate(rows) if len(r["pairs"]) >= 2)
    ranking = files["rank"].splitlines()

    def edit(change):
        copy = [json.loads(line) for line in files["out"].splitlines()]
        change(copy[warred])
        return {**files, "out": _jsonl(copy)}

    yield "one M changed", "M, E =", edit(lambda r: r.update(M=r["M"] + 1))
    yield "one E changed", "M, E =", edit(lambda r: r.update(E=r["E"] - 1))
    yield "a mutual pair dropped", "mutual pairs differ", edit(lambda r: r.update(pairs=r["pairs"][1:]))
    yield "excluded pair changed", "excluded pair", edit(lambda r: r.update(excluded_pair=r["pairs"][-1]))
    yield "a revert event dropped", "revert events differ", edit(lambda r: r.update(revert_events=r["revert_events"][:-1]))
    yield "one page dropped", "page ids differ", {**files, "out": _jsonl(rows[1:])}
    yield "ranking out of order", "descending order", {**files, "rank": "\n".join(ranking[1:] + ranking[:1]) + "\n"}


CORRUPTIONS = {
    "extract": _extract_corruptions,
    "compare": _compare_corruptions,
    "conflict": _conflict_corruptions,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, str(run.ROOT / "src"))
    missed = 0
    for name, corruptions in CORRUPTIONS.items():
        workdir = run.WORK / f"selftest-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        spec = workloads.GENERATORS[name](args.seed, workdir)
        result = run.run_child(workdir, "run", "plain", run.command_args(name, spec["inputs"]))
        if result is None:
            print(f"{name}: the CLI run failed")
            return 1
        check = checks.CHECKS[name]
        clean = check(spec["oracle"], result["files"])
        print(f"{name}: true output {'accepted' if not clean else 'REJECTED: ' + clean[0]}")
        missed += bool(clean)
        for label, expected, corrupted in corruptions(result["files"], spec["oracle"]):
            # the check aimed at this corruption must object, not just any check
            hits = [p for p in check(spec["oracle"], corrupted) if expected in p]
            print(f"  {label}: {'rejected (' + hits[0] + ')' if hits else 'NOT REJECTED'}")
            missed += not hits
        shutil.rmtree(workdir)
    print("every corruption rejected" if not missed else f"{missed} checks did not do their job")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
