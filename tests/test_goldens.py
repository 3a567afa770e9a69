"""Every command's output, byte for byte, against the committed goldens.

The runs are the table of tests/data/gen_goldens.py, which wrote the
goldens; this replays it on the package under test.
"""

import importlib.util
from pathlib import Path

import pytest

import corplex

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location("gen_goldens", DATA / "gen_goldens.py")
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

PACKAGE_ROOT = Path(corplex.__file__).resolve().parents[1]


@pytest.mark.parametrize("name, args", gen_goldens.RUNS, ids=[name for name, _ in gen_goldens.RUNS])
def test_output_matches_golden(name, args, tmp_path):
    code, stdout, stderr, outputs = gen_goldens.run(name, args, tmp_path, PACKAGE_ROOT)
    assert code == 0, stderr
    stderr_golden = gen_goldens.GOLDEN / f"{name}.stderr"
    assert stderr == (stderr_golden.read_text(encoding="utf-8") if stderr_golden.exists() else "")
    stdout_golden = gen_goldens.GOLDEN / f"{name}.stdout"
    assert stdout == (stdout_golden.read_bytes() if stdout_golden.exists() else b"")
    assert outputs or stdout, "the run wrote no output"
    for file_name, data in outputs.items():
        assert data == (gen_goldens.GOLDEN / file_name).read_bytes(), file_name


@pytest.mark.parametrize("name, twin", [("stats_WB_stdout", "stats_WB.json"),
                                        ("plot_zipf_stdout", "plot_zipf.tsv")])
def test_stdout_golden_equals_file_golden(name, twin):
    """Writing to stdout and writing to a file give the same bytes."""
    golden = gen_goldens.GOLDEN
    assert (golden / f"{name}.stdout").read_bytes() == (golden / twin).read_bytes()

