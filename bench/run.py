"""Benchmark of the three CLI pipelines: extract, compare and conflict.

    python3 bench/run.py --workload {extract,compare,conflict} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it times the sources under src/.
It generates the workload's inputs from the seed (under bench/work/), then,
for S seconds, runs the CLI command again and again, each time in a fresh
interpreter (bench/child.py) that calls ``corplex.cli.main``.  Outside the
timed region it checks that every run wrote byte-identical output and that
the output matches the generator's oracle (bench/checks.py).

--trace 0 prints the end-to-end metrics: wall_s, mb_per_s, peak_rss_mb and
setup_s, each the median over the runs.  --trace 1 alternates untraced and
traced runs (bench/layertrace.py) and prints the per-layer metrics plus the
tracing overhead.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"

CLI_ARGS = {
    "extract": ["extract", "{input0}", "--output", "{out}"],
    "compare": ["compare", "{input0}", "{input1}", "--ngram-max-n", "3", "--output", "{out}"],
    "conflict": ["conflict", "{input0}", "--ranking", "{rank}", "--output", "{out}"],
}

# import-only runs per plain run, on top of one per CLI run, for setup_s
SETUP_PROBES = 5
# a child that outlives this is killed and counted as failed
CHILD_TIMEOUT_S = 120

END_TO_END = [("wall_s", "s"), ("mb_per_s", "MB/s"), ("peak_rss_mb", "MB"), ("setup_s", "s")]

PER_LAYER = [
    ("ingest.parse_article_dump.self_s", "s"),
    ("ingest.strip_markup.s", "s"),
    ("ingest.strip_markup.calls", "count"),
    ("ingest.strip_markup.kb_in", "kB"),
    ("ingest.docs_to_jsonl.self_s", "s"),
    ("ingest._iter_page_chunks.s", "s"),
    ("ingest.parse_revision_dump.s", "s"),
    ("ingest.revisions", "count"),
    ("textpipe.tokenize.s", "s"),
    ("textpipe.tokenize.calls", "count"),
    ("textpipe.tokenize.calls_per_line", "ratio"),
    ("textpipe.split_sentences.s", "s"),
    ("porter.porter_stem.s", "s"),
    ("porter.porter_stem.calls", "count"),
    ("sampling.build_balanced_sample_grouped.s", "s"),
    ("sampling.apply_condition.self_s", "s"),
    ("sampling.apply_condition.calls", "count"),
    ("lexstats.ngram_counts.s", "s"),
    ("lexstats.ngram_counts.calls", "count"),
    ("lexstats.ngram_counts.windows", "count"),
    ("lexstats.table_entropy.s", "s"),
    ("lexstats.type_token_counts.s", "s"),
    ("lexstats.unigram_entropy.s", "s"),
    ("lexstats.corpus_stats.s", "s"),
    ("posstats.cosine_angle.s", "s"),
    ("readability.corpus_fog.self_s", "s"),
    ("readability.gunning_fog.s", "s"),
    ("controversy.detect_reverts.s", "s"),
    ("controversy.controversy_m.self_s", "s"),
    ("controversy.revert_events", "count"),
    ("report.compare_corpora.self_s", "s"),
    ("report.render_json.s", "s"),
    ("report.render_json.calls", "count"),
    ("cli.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


def command_args(workload: str, inputs: list[str]) -> list[str]:
    """The workload's CLI arguments; {out} and {rank} are filled in per run."""
    named = {f"input{i}": path for i, path in enumerate(inputs)}
    return [a.format(**named, out="{out}", rank="{rank}") for a in CLI_ARGS[workload]]


def run_child(workdir: Path, tag: str, mode: str, cli_args: list[str]) -> dict | None:
    """One fresh-interpreter run; its result dict, or None if it failed."""
    files = {"out": workdir / f"{tag}.out", "rank": workdir / f"{tag}.rank",
             "stderr": workdir / f"{tag}.stderr"}
    result_path = workdir / f"{tag}.json"
    argv = [a.format(out=files["out"], rank=files["rank"]) for a in cli_args]
    # bytecode caching on, as for an installed package: the untimed warm-up
    # run writes the cache and every later run starts from it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    began = time.monotonic()
    with open(files["stderr"], "wb") as err:
        try:
            subprocess.run(
                [sys.executable, str(BENCH / "child.py"), str(time.monotonic_ns()),
                 str(result_path), mode, *argv],
                stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=workdir,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            return None
    if not result_path.is_file():
        return None
    with open(result_path, encoding="utf-8") as fp:
        result = json.load(fp)
    result["elapsed_s"] = time.monotonic() - began
    if mode == "probe":
        return result
    if result["rc"] != 0:
        return None
    result["files"] = {
        name: path.read_text(encoding="utf-8") for name, path in files.items() if path.exists()
    }
    for path in files.values():
        path.unlink(missing_ok=True)
    digest = hashlib.sha256()
    for name in sorted(result["files"]):
        digest.update(name.encode() + b"\0" + result["files"][name].encode("utf-8") + b"\0")
    result["sha256"] = digest.hexdigest()
    return result


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine_facts() -> str:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return (f"nproc {os.cpu_count()}, Python {sys.version.split()[0]}, numpy {numpy_version}")


def measure(workdir, cli_args, seconds, trace):
    """Run children until the next round would overrun `seconds`.

    Returns (plain results, traced results, probe set-up times, runs attempted);
    a failed run's result is None.
    """
    plain, traced, setups, attempted = [], [], [], 0
    start = time.monotonic()
    if not trace:
        for i in range(SETUP_PROBES):
            probe = run_child(workdir, f"probe{i}", "probe", [])
            if probe is not None:
                setups.append(probe["setup_s"])
    round_modes = ("plain", "trace") if trace else ("plain",)
    round_times: list[float] = []
    while True:
        began = time.monotonic()
        for mode in round_modes:
            result = run_child(workdir, f"run{attempted}", mode, cli_args)
            attempted += 1
            if result is not None and any(r is not None for r in plain + traced):
                del result["files"]  # only the first output is checked in full
            (traced if mode == "trace" else plain).append(result)
        round_times.append(time.monotonic() - began)
        if time.monotonic() + statistics.median(round_times) > start + seconds:
            return plain, traced, setups, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLI_ARGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "corplex" / "cli.py").is_file():
        print(f"bench: no corplex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))  # the checks call strip_markup

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec = workloads.GENERATORS[args.workload](args.seed, workdir)
    input_mb = sum(os.path.getsize(p) for p in spec["inputs"]) / 1e6
    cli_args = command_args(args.workload, spec["inputs"])

    run_child(workdir, "warmup", "probe", [])  # compiles bytecode once, untimed
    plain, traced, setups, attempted = measure(workdir, cli_args, args.seconds, args.trace)
    ok = [r for r in plain + traced if r is not None]
    failed = attempted - len(ok)
    if not ok:
        print(f"bench: all {attempted} runs of {args.workload} failed; see {workdir}",
              file=sys.stderr)
        return 1

    problems = checks.CHECKS[args.workload](spec["oracle"], ok[0]["files"])
    hashes = sorted({r["sha256"] for r in ok})
    if len(hashes) > 1:
        problems.append(f"{len(hashes)} different outputs from {len(ok)} runs of one input")

    print(f"{args.workload}, seed {args.seed}: {attempted} CLI runs, {failed} failed, "
          f"input {input_mb:.2f} MB, output sha256 {hashes[0][:16]}; {machine_facts()}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    plain_ok = [r for r in plain if r is not None]
    traced_ok = [r for r in traced if r is not None]
    if not plain_ok or (args.trace and not traced_ok):
        print(f"bench: no {'traced ' if plain_ok else ''}run of {args.workload} succeeded",
              file=sys.stderr)
        return 1
    walls = [r["wall_s"] for r in plain_ok]
    if args.trace:
        metrics = layer_metrics(traced_ok, walls, spec["nonblank_lines"])
    else:
        setups += [r["setup_s"] for r in plain_ok]
        samples = {
            "wall_s": walls,
            "mb_per_s": [input_mb / w for w in walls],
            "peak_rss_mb": [r["peak_rss_mb"] for r in plain_ok],
            "setup_s": setups,
        }
        for name, values in samples.items():
            q1, q2, q3 = quartiles(values)
            print(f"  {name}: median {q2:.4f}, quartiles {q1:.4f} .. {q3:.4f}, n={len(values)}")
        metrics = {name: statistics.median(samples[name]) for name, _ in END_TO_END}
    units = dict(END_TO_END + PER_LAYER)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def layer_metrics(traced: list[dict], untraced_walls: list[float], nonblank_lines: int) -> dict:
    """Median per-layer figures over the traced runs, printed as a breakdown too.

    A layer the workload never calls reads 0.
    """
    layers = [r["layers"] for r in traced]
    medians = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    untraced_wall = statistics.median(untraced_walls)
    tokenize_calls = medians.get("textpipe.tokenize.calls", 0)
    medians["textpipe.tokenize.calls_per_line"] = (
        tokenize_calls / nonblank_lines if nonblank_lines else 0.0)
    medians["trace.wall_s"] = traced_wall
    medians["trace.untraced_wall_s"] = untraced_wall
    medians["trace.overhead_ratio"] = traced_wall / untraced_wall
    print(f"  traced wall {traced_wall:.4f} s against untraced {untraced_wall:.4f} s "
          f"(overhead x{traced_wall / untraced_wall:.3f}, {len(layers)} traced runs)")
    print("  busy time by function (self time, share of traced wall):")
    selfs = {k[:-len(".self_s")]: v for k, v in medians.items() if k.endswith(".self_s")}
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1]):
        if value > 0:
            print(f"    {name:45s} {value:9.4f} s  {100 * value / traced_wall:5.1f}%")
    return {name: medians.get(name, 0) for name, _ in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
