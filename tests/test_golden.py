"""Golden CLI outputs on a fixed input: stdout, stderr, exit status and written files.

``data/golden/poems.txt`` holds 29 poems: Truyện Kiều quatrains; the same with
violations planted by ``helpers.perturb_quatrain``; poems of two and three
quatrains; a six-line poem; a loanword; a double tone mark; a punctuation-only
line; NFD and upper-case text; punctuation, tabs and doubled spaces; a wrong
syllable count; a digit; a one-line and a one-pair poem.  It leaves out the
known-defect probes of perfbench (BOM, curly quotes, em dash, zero-width space,
the other tone-mark placement), whose outputs are due to change.

Each case below ran once, in a directory holding only ``poems.txt``, to make
``data/golden/<case>/``: ``status``, ``stdout`` and ``stderr``, plus every
file the command wrote.  The outputs come from the code as it was before
segmentation and scoring took their single-pass forms, and that change kept
them byte for byte.  The ``losscheck`` cases, which ignore ``poems.txt``, come
from the code as it was before the finite-difference check tiled one parameter
block per chunk, and the ``score-weights`` cases from the code as it was before
scoring compiled one stanza shape per n.  Regenerate them only for a deliberate output change, and
say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import shutil
import sys
from pathlib import Path

import pytest

from lucbat.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = {
    "score-jsonl": ["score", "poems.txt", "--format", "jsonl"],
    "score-text": ["score", "poems.txt"],
    "score-weights-jsonl": ["score", "poems.txt", "--weights", "2,0.5", "--format", "jsonl"],
    "score-weights-text": ["score", "poems.txt", "--weights", "2,0.5"],
    "quatrains-seed-3": ["quatrains", "poems.txt", "--seed", "3", "--out", "quatrains.txt"],
    "filter-stats": ["filter", "poems.txt", "--min-score", "60", "--out", "kept.txt",
                     "--stats", "stats.json"],
    "losscheck": ["losscheck"],
    "losscheck-bench-seed-1": ["losscheck", "--seed", "1", "--dmodel", "8", "--dhidden", "8",
                               "--vocab", "7", "--len", "12", "--stanzas", "1"],
    "losscheck-seed-2": ["losscheck", "--seed", "2", "--dmodel", "5", "--dhidden", "4",
                         "--len", "9", "--stanzas", "3"],
}


def run_case(argv, workdir):
    """``{name: bytes}`` of the status, stdout, stderr and files a run in ``workdir`` gives."""
    shutil.copy(GOLDEN / "poems.txt", workdir / "poems.txt")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
    finally:
        os.chdir(cwd)
    outputs = {
        "status": f"{status}\n".encode(),
        "stdout": stdout.getvalue().encode("utf-8"),
        "stderr": stderr.getvalue().encode("utf-8"),
    }
    for path in sorted(workdir.iterdir()):
        if path.name != "poems.txt":
            outputs[path.name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("case", CASES)
def test_output_is_byte_identical_to_the_golden_files(case, tmp_path):
    expected = {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}
    assert run_case(CASES[case], tmp_path) == expected


if __name__ == "__main__":
    import tempfile

    for case, argv in CASES.items():
        with tempfile.TemporaryDirectory() as workdir:
            outputs = run_case(argv, Path(workdir))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        (GOLDEN / case).mkdir()
        for name, data in outputs.items():
            (GOLDEN / case / name).write_bytes(data)
        print(f"{case}: {', '.join(outputs)}", file=sys.stderr)
