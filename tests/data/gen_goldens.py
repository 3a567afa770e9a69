"""Rewrite every golden output under golden/ by running the command-line tool.

Run from anywhere:

    python3 tests/data/gen_goldens.py

Each entry of RUNS is one ``python -m corplex`` run from this directory, on
the package in the repository's src/, exactly as the acceptance suite's
criterion 11 runs it.  A run writes its output files into a scratch
directory (the "{out}" argument); each file is then copied into golden/
under its own name, and the run's stdout and stderr go to
golden/<name>.stdout and golden/<name>.stderr when they are not empty.
The extract runs come first, because the later runs read
golden/extracted_a.jsonl and golden/extracted_b.jsonl.

The goldens are committed.  They pin the tool's bytes, so a rerun on an
unchanged tree must leave ``git status`` clean; a rerun that changes a
golden is a change of output, and has to be declared as one.
tests/test_goldens.py replays the same table and compares byte for byte.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
SRC = HERE.parents[1] / "src"

A = "golden/extracted_a.jsonl"
B = "golden/extracted_b.jsonl"
# hand-written: literal section signs, case variants, dotted capital I and
# sentences of punctuation alone
EDGE = "edge_cases.jsonl"
PATTERNS = ["--exclude-patterns", "exclude_patterns.txt"]

# (name, arguments); "{out}" is the path prefix of the run's output files
RUNS = [
    ("extract_a", ["extract", "mini_dump_a.xml", "-o", "{out}/extracted_a.jsonl"]),
    ("extract_b", ["extract", "mini_dump_b.xml", "-o", "{out}/extracted_b.jsonl"]),
    ("sample", ["sample", A, "--target", "2000", "--seed", "7", "-o", "{out}/sample"]),
    ("compare", ["compare", A, B, "--seed", "42", "-o", "{out}/compare.json"]),
    ("compare_edge_raw_n5", ["compare", EDGE, B, "--boundary", "raw", "--ngram-max-n", "5",
                             "--seed", "3", "-o", "{out}/compare_edge_raw_n5.json"]),
    ("compare_edge_subset_x", ["compare", EDGE, B, "--conditions", "WNP,CB,WN", *PATTERNS,
                               "--seed", "5", "-o", "{out}/compare_edge_subset_x.json"]),
    ("compare_edge_self_n1", ["compare", EDGE, EDGE, "--ngram-max-n", "1", "--seed", "9",
                              "-o", "{out}/compare_edge_self_n1.json"]),
    ("compare_subset_x_n4", ["compare", A, B, "--conditions", "CNP,WBP", *PATTERNS,
                             "--ngram-max-n", "4", "--seed", "1",
                             "-o", "{out}/compare_subset_x_n4.json"]),
    ("conflict", ["conflict", "history.xml", "--ranking", "{out}/ranking.tsv",
                  "-o", "{out}/conflict.jsonl"]),
    ("stats_WB", ["stats", A, "-o", "{out}/stats_WB.json"]),
    ("stats_WB_stdout", ["stats", A]),  # stdout equals stats_WB.json
    ("stats_WB_tsv", ["stats", A, "--format", "tsv", "-o", "{out}/stats_WB.tsv"]),
    ("stats_edge_WB", ["stats", EDGE, "-o", "{out}/stats_edge_WB.json"]),
    *[
        (f"stats_{code}_x", ["stats", A, "--condition", code, *PATTERNS,
                             "-o", f"{{out}}/stats_{code}_x.json"])
        for code in ("CB", "CN", "CBP", "CNP", "WB", "WN", "WBP", "WNP")
    ],
    *[
        (f"stats_{code}_x_tsv", ["stats", A, "--condition", code, *PATTERNS, "--format", "tsv",
                                 "-o", f"{{out}}/stats_{code}_x.tsv"])
        for code in ("WB", "CNP", "WNP")
    ],
    ("ngram_word_n1_raw", ["ngram", A, "--n", "1", "--boundary", "raw",
                           "-o", "{out}/ngram_word_n1_raw.tsv"]),
    ("ngram_word_n1_post", ["ngram", A, "--n", "1", "-o", "{out}/ngram_word_n1_post.tsv"]),
    ("ngram_word_n2_raw_json", ["ngram", A, "--n", "2", "--boundary", "raw", "--format", "json",
                                "-o", "{out}/ngram_word_n2_raw.json"]),
    ("ngram_word_n3_post_json", ["ngram", B, "--n", "3", "--condition", "CNP", *PATTERNS,
                                 "--format", "json", "-o", "{out}/ngram_word_n3_post.json"]),
    # long windows, where marking a shorter side can reach the center
    ("ngram_edge_n13_post", ["ngram", EDGE, "--n", "13", "-o", "{out}/ngram_edge_n13_post.tsv"]),
    ("ngram_tag_n2_raw", ["ngram", "tagged_a.txt", "--kind", "tag", "--n", "2",
                          "--boundary", "raw", "-o", "{out}/ngram_tag_n2_raw.tsv"]),
    ("ngram_tag_n2_post", ["ngram", "tagged_b.txt", "--kind", "tag", "--n", "2",
                           "--pos-condition", "SN", "-o", "{out}/ngram_tag_n2_post.tsv"]),
    ("ngram_tag_n3_json", ["ngram", "tagged_a.txt", "--kind", "tag", "--n", "3",
                           "--format", "json", "-o", "{out}/ngram_tag_n3.json"]),
    ("pos", ["pos", "tagged_a.txt", "tagged_b.txt", "-o", "{out}/pos.json"]),
    ("pos_SN", ["pos", "tagged_a.txt", "tagged_b.txt", "--pos-condition", "SN", "--n", "2",
                "-o", "{out}/pos_SN.json"]),
    ("pos_SN_tsv", ["pos", "tagged_a.txt", "tagged_b.txt", "--pos-condition", "SN",
                    "--format", "tsv", "-o", "{out}/pos_SN.tsv"]),
    ("pos_raw_tsv", ["pos", "tagged_a.txt", "tagged_b.txt", "--boundary", "raw",
                     "--format", "tsv", "-o", "{out}/pos_raw.tsv"]),
    ("fog", ["fog", A, "-o", "{out}/fog.json"]),
    ("fog_tsv", ["fog", B, "--format", "tsv", "-o", "{out}/fog.tsv"]),
    ("fog_pooled", ["fog", A, "--pooled", "-o", "{out}/fog_pooled.json"]),
    ("plot_zipf", ["plotdata", A, "--kind", "zipf", "-o", "{out}/plot_zipf.tsv"]),
    ("plot_zipf_stdout", ["plotdata", A, "--kind", "zipf", "-o", "-"]),  # equals plot_zipf.tsv
    ("plot_zipf_x", ["plotdata", A, "--kind", "zipf", "--condition", "WNP", *PATTERNS,
                     "-o", "{out}/plot_zipf_x.tsv"]),
    ("plot_heaps", ["plotdata", B, "--kind", "heaps", "--checkpoints", "20",
                    "-o", "{out}/plot_heaps.tsv"]),
    ("plot_ngram_zipf", ["plotdata", A, "--kind", "ngram_zipf", "--n", "2", "--boundary", "raw",
                         "-o", "{out}/plot_ngram_zipf.tsv"]),
    ("plot_pos_dist", ["plotdata", "tagged_b.txt", "--kind", "pos_dist", "--pos-condition", "SN",
                       "-o", "{out}/plot_pos_dist.tsv"]),
]


def run(name: str, args: list[str], out_dir: Path, package_root: Path = SRC):
    """One RUNS entry; returns (exit code, stdout bytes, stderr, {output file name: bytes})."""
    out_dir = out_dir / name
    out_dir.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(package_root), os.environ.get("PYTHONPATH")) if p)
    argv = [a.replace("{out}", str(out_dir)) for a in args]
    done = subprocess.run([sys.executable, "-m", "corplex", *argv],
                          capture_output=True, cwd=HERE, env=env)
    outputs = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
    return done.returncode, done.stdout, done.stderr.decode("utf-8"), outputs


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name, args in RUNS:
            code, stdout, stderr, outputs = run(name, args, Path(tmp))
            if code != 0:
                sys.exit(f"{name}: exit {code}\n{stderr}")
            for file_name, data in outputs.items():
                (GOLDEN / file_name).write_bytes(data)
            for suffix, data in (("stdout", stdout), ("stderr", stderr.encode("utf-8"))):
                path = GOLDEN / f"{name}.{suffix}"
                if data:
                    path.write_bytes(data)
                elif path.exists():
                    path.unlink()


if __name__ == "__main__":
    main()
