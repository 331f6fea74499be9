"""Golden CLI outputs on a fixed input: stdout, stderr, exit status and written files.

``data/golden/poems.txt`` holds 29 poems: Truyện Kiều quatrains; the same with
violations planted by ``helpers.perturb_quatrain``; poems of two and three
quatrains; a six-line poem; a loanword; a double tone mark; a punctuation-only
line; NFD and upper-case text; punctuation, tabs and doubled spaces; a wrong
syllable count; a digit; a one-line and a one-pair poem.  It leaves out the
known-defect probes of perfbench (BOM, curly quotes, em dash, zero-width space,
the other tone-mark placement), whose outputs are due to change.

``data/golden/corpus.txt`` is a small corpus for ``creativity``: it plants
golden verses verbatim, in upper case with punctuation, and in NFD, beside
verses that appear nowhere in ``poems.txt``.

``data/golden/rules.txt`` is a near-rhyme table for ``score --rules``: it starts
with a BOM and a ``# version:`` line, and it holds the built-in groups with
"ương" moved into the "an"/"ang" group, so "vương" and "thường" rhyme with
"vàng" and some ``poems.txt`` verdicts differ from the built-in table's.

Each case below ran once, in a directory holding only the ``INPUTS`` and with
``poems.txt`` on standard input, to make ``data/golden/<case>/``: ``status``,
``stdout`` and ``stderr``, plus every file the command wrote.  The outputs come
from the code as it was before segmentation and scoring took their single-pass
forms, and that change kept them byte for byte.  The ``losscheck`` cases, which
ignore the inputs, come from the code as it was before the finite-difference
check tiled one parameter block per chunk, the ``score-weights`` cases from the
code as it was before scoring compiled one stanza shape per n, and the
``quatrains``, ``creativity``, ``report`` and ``score-stdin`` cases from the code
as it was before every reader split lines at newlines only.  The exit-1 cases
(a missing file, ``bad.txt`` with a byte that is not UTF-8, ``empty.txt``, a
``losscheck`` dimension over its cap) pin each command's status and stderr, and
come from the code as it was before the loss head's backward pass lost its
batch axis.  The ``score-rules-jsonl`` case comes from the code as it was before
``ingest`` and ``corpus_from_text`` shared one block reader.  Regenerate them
only for a deliberate output change, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lucbat
from lucbat.cli import main
from helpers import NO_NUMPY

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = {
    "score-jsonl": ["score", "poems.txt", "--format", "jsonl"],
    "score-text": ["score", "poems.txt"],
    "score-weights-jsonl": ["score", "poems.txt", "--weights", "2,0.5", "--format", "jsonl"],
    "score-weights-text": ["score", "poems.txt", "--weights", "2,0.5"],
    "score-stdin": ["score", "-"],
    "score-rules-jsonl": ["score", "poems.txt", "--rules", "rules.txt", "--format", "jsonl"],
    "quatrains-seed-3": ["quatrains", "poems.txt", "--seed", "3", "--out", "quatrains.txt"],
    "quatrains": ["quatrains", "poems.txt", "--out", "q.txt"],
    "filter-stats": ["filter", "poems.txt", "--min-score", "60", "--out", "kept.txt",
                     "--stats", "stats.json"],
    "creativity-text": ["creativity", "--generated", "poems.txt", "--corpus", "corpus.txt"],
    "creativity-jsonl": ["creativity", "--generated", "poems.txt", "--corpus", "corpus.txt",
                         "--format", "jsonl"],
    "report-text": ["report", "scores.jsonl"],
    "report-jsonl": ["report", "scores.jsonl", "--format", "jsonl"],
    "report-bins-7.5": ["report", "scores.jsonl", "--bins", "7.5"],
    "losscheck": ["losscheck"],
    "losscheck-bench-seed-1": ["losscheck", "--seed", "1", "--dmodel", "8", "--dhidden", "8",
                               "--vocab", "7", "--len", "12", "--stanzas", "1"],
    "losscheck-seed-2": ["losscheck", "--seed", "2", "--dmodel", "5", "--dhidden", "4",
                         "--len", "9", "--stanzas", "3"],
    "score-missing-file": ["score", "missing.txt"],
    "filter-bad-utf8": ["filter", "bad.txt", "--min-score", "60", "--out", "kept.txt"],
    "quatrains-bad-utf8": ["quatrains", "bad.txt", "--out", "q.txt"],
    "creativity-empty-generated": ["creativity", "--generated", "empty.txt",
                                   "--corpus", "corpus.txt"],
    "report-empty": ["report", "empty.txt"],
    "losscheck-dmodel-over-cap": ["losscheck", "--dmodel", "17"],
}


# {name in the work directory: its source under GOLDEN}; ``report`` reads the
# ``score-jsonl`` case's stdout, so that case comes first in CASES
INPUTS = {
    "poems.txt": "poems.txt",
    "corpus.txt": "corpus.txt",
    "scores.jsonl": "score-jsonl/stdout",
    "bad.txt": "bad.txt",
    "empty.txt": "empty.txt",
    "rules.txt": "rules.txt",
}


def run_case(argv, workdir):
    """``{name: bytes}`` of the status, stdout, stderr and files a run in ``workdir`` gives."""
    for name, source in INPUTS.items():
        shutil.copy(GOLDEN / source, workdir / name)
    stdin = io.TextIOWrapper(io.BytesIO((GOLDEN / "poems.txt").read_bytes()), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd, saved_stdin = os.getcwd(), sys.stdin
    os.chdir(workdir)
    sys.stdin = stdin
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            status = main(argv)
    finally:
        sys.stdin = saved_stdin
        os.chdir(cwd)
    outputs = {
        "status": f"{status}\n".encode(),
        "stdout": stdout.getvalue().encode("utf-8"),
        "stderr": stderr.getvalue().encode("utf-8"),
    }
    for path in sorted(workdir.iterdir()):
        if path.name not in INPUTS:
            outputs[path.name] = path.read_bytes()
    return outputs


def expected_outputs(case):
    return {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}


@pytest.mark.parametrize("case", CASES)
def test_output_is_byte_identical_to_the_golden_files(case, tmp_path):
    assert run_case(CASES[case], tmp_path) == expected_outputs(case)


def test_text_cases_without_numpy_are_byte_identical_to_the_golden_files(tmp_path):
    # only losscheck needs numpy, which comes with the optional `loss` extra
    text_cases = [case for case in CASES if CASES[case][0] != "losscheck"]
    src = Path(lucbat.__file__).resolve().parent.parent
    probe = "\n".join([
        NO_NUMPY,
        f"sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]",
        "import pathlib, test_golden",
        f"for case in {text_cases!r}:",
        f"    workdir = pathlib.Path({str(tmp_path)!r}) / case",
        "    workdir.mkdir()",
        "    if test_golden.run_case(test_golden.CASES[case], workdir) "
        "!= test_golden.expected_outputs(case):",
        "        print(case)",
        "print('numpy' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(text_cases)


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
