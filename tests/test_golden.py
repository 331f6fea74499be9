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
check tiled one parameter block per chunk, and the ``quatrains``,
``creativity``, ``report`` and ``score-stdin`` cases from the code as it was
before every reader split lines at newlines only.  The exit-1 cases
(a missing file, ``bad.txt`` with a byte that is not UTF-8, ``empty.txt``, a
``losscheck`` dimension over its cap) pin each command's status and stderr, and
come from the code as it was before the loss head's backward pass lost its
batch axis.  The ``score-rules-jsonl`` case comes from the code as it was before
``ingest`` and ``corpus_from_text`` shared one block reader, and the
``filter-stdout`` case, which prints the stats, from the code as it was before
``filter --stats`` went back to ``json.dumps``.  The ``score-jsonl``, ``score-text``,
``score-stdin``, ``score-rules-jsonl``, ``quatrains`` and ``quatrains-seed-3`` cases
come from the code as it was after the quatrain split's error took the form of
``segment_stanza``'s, ``quatrain split needs a multiple of 4 lines, got N``, and
``quatrains`` began to report it as it is.  Regenerate them only for a
deliberate output change, and say so in CHANGES.md.  With case names, the script
writes only those cases; with none, it rewrites every case:

    PYTHONPATH=src python tests/test_golden.py [case ...]

The golden cases and the demos also state which functions have a caller outside
the tests: ``NEVER_ENTERED`` lists every ``def`` in ``src/lucbat`` that none of
them enters, and why it stays.
"""

import ast
import contextlib
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import lucbat
from lucbat.cli import main
from helpers import NO_NUMPY
from test_demos import DEMOS

GOLDEN = Path(__file__).parent / "data" / "golden"
CASES = {
    "score-jsonl": ["score", "poems.txt", "--format", "jsonl"],
    "score-text": ["score", "poems.txt"],
    "score-stdin": ["score", "-"],
    "score-rules-jsonl": ["score", "poems.txt", "--rules", "rules.txt", "--format", "jsonl"],
    "quatrains-seed-3": ["quatrains", "poems.txt", "--seed", "3", "--out", "quatrains.txt"],
    "quatrains": ["quatrains", "poems.txt", "--out", "q.txt"],
    "filter-stats": ["filter", "poems.txt", "--min-score", "60", "--out", "kept.txt",
                     "--stats", "stats.json"],
    "filter-stdout": ["filter", "poems.txt", "--min-score", "60", "--out", "kept.txt"],
    "creativity-text": ["creativity", "--generated", "poems.txt", "--corpus", "corpus.txt"],
    "creativity-jsonl": ["creativity", "--generated", "poems.txt", "--corpus", "corpus.txt",
                         "--format", "jsonl"],
    "report-text": ["report", "scores.jsonl"],
    "report-jsonl": ["report", "scores.jsonl", "--format", "jsonl"],
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
# every case but the losscheck runs that pass the caps and so load the loss head
NO_NUMPY_CASES = [case for case in CASES
                  if CASES[case][0] != "losscheck" or case == "losscheck-dmodel-over-cap"]


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


def run_case(argv, workdir, stdin=None, files=None, python=None):
    """``{name: bytes}`` of the status, stdout, stderr and files a run in ``workdir`` gives.

    The run reads the ``INPUTS``, with ``files`` (``{name: bytes}``) in place of some of
    them, and ``stdin`` (bytes), ``poems.txt`` by default, as standard input.  It calls
    ``main`` in this process, or with ``python`` (a path) runs ``python -m lucbat`` with
    ``PYTHONPATH`` naming this checkout's ``src``.
    """
    for name, source in INPUTS.items():
        shutil.copy(GOLDEN / source, workdir / name)
    for name, data in (files or {}).items():
        (workdir / name).write_bytes(data)
    if stdin is None:
        stdin = (GOLDEN / "poems.txt").read_bytes()
    if python:
        src = Path(lucbat.__file__).resolve().parent.parent
        child = subprocess.run([python, "-m", "lucbat", *argv], cwd=workdir, input=stdin,
                               capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
        status, stdout, stderr = child.returncode, child.stdout, child.stderr
    else:
        stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        cwd, saved_stdin = os.getcwd(), sys.stdin
        os.chdir(workdir)
        sys.stdin = stdin
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main(argv)
        finally:
            sys.stdin = saved_stdin
            os.chdir(cwd)
        stdout, stderr = out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")
    outputs = {"status": f"{status}\n".encode(), "stdout": stdout, "stderr": stderr}
    for path in sorted(workdir.iterdir()):
        if path.name not in INPUTS:
            outputs[path.name] = path.read_bytes()
    return outputs


def expected_outputs(case):
    return {path.name: path.read_bytes() for path in (GOLDEN / case).iterdir()}


def run_every_case_and_demo(workdir):
    """Run each case of ``CASES``, then each demo, in a directory of its own under ``workdir``."""
    for case, argv in CASES.items():
        (workdir / case).mkdir()
        run_case(argv, workdir / case)
    cwd = os.getcwd()
    for demo in DEMOS:
        (workdir / demo.stem).mkdir()
        os.chdir(workdir / demo.stem)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(demo), run_name="__main__")
        finally:
            os.chdir(cwd)


def package_functions(package):
    """``<module>.<qualname>`` of every ``def`` in the package's modules."""
    def qualnames(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield prefix + child.name
                yield from qualnames(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from qualnames(child, f"{prefix}{child.name}.")
            else:
                yield from qualnames(child, prefix)

    return {
        f"{path.stem}.{name}"
        for path in sorted(package.glob("*.py"))
        for name in qualnames(ast.parse(path.read_text(encoding="utf-8")), "")
    }


# Every def in src/lucbat that no golden case and no demo enters, and why it stays
NEVER_ENTERED = {
    # lists the names not loaded yet, for dir(lucbat), help() and tab completion; a command
    # never asks: tests/test_cli.py::TestStartUp
    "__init__.__dir__",
    "cli._Parser.error",  # usage errors: tests/test_cli.py::TestArgumentErrors
    "corpus.VerseIndex.__init__",  # the per-verse index that creativity tests and C4 check against
    "rules.RuleTable.group_of",  # perfbench/derive.py
    "rules.rhymes_with",  # perfbench/layers.py; ROADMAP item 12b
    "scoring.Stanza.syllable_at",  # perfbench/layers.py; ROADMAP item 12b
    "syllable.Syllable.tone_class",  # perfbench/derive.py; the package reads tone.tone_class
}


@pytest.mark.parametrize("case", CASES)
def test_output_is_byte_identical_to_the_golden_files(case, tmp_path):
    assert run_case(CASES[case], tmp_path) == expected_outputs(case)


def test_text_cases_without_numpy_are_byte_identical_to_the_golden_files(tmp_path):
    # only losscheck needs numpy, which comes with the optional `loss` extra
    src = Path(lucbat.__file__).resolve().parent.parent
    probe = "\n".join([
        NO_NUMPY,
        f"sys.path[:0] = [{str(src)!r}, {str(Path(__file__).parent)!r}]",
        "import pathlib, test_golden",
        f"for case in {NO_NUMPY_CASES!r}:",
        f"    workdir = pathlib.Path({str(tmp_path)!r}) / case",
        "    workdir.mkdir()",
        "    if test_golden.run_case(test_golden.CASES[case], workdir) "
        "!= test_golden.expected_outputs(case):",
        "        print(case)",
        "print('numpy' in sys.modules)",
    ])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (0, "False\n", "")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(NO_NUMPY_CASES)


# The CPython versions that requires-python admits.  The interpreter running the tests checks
# the golden files in process; each other one runs NO_NUMPY_CASES as children.
PYTHONS = ("3.10", "3.11", "3.12", "3.13")
PYENV_ROOT = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")


def find_python(version):
    """The path of an installed CPython ``version`` ("3.X") interpreter, or None.

    pyenv's installs come first, then ``python3.X`` on ``PATH``; pyenv's shims are passed
    over, because a shim may refuse a version that is not selected.
    """
    installs = sorted(PYENV_ROOT.glob(f"versions/{version}.*/bin/python"))
    if installs:
        return str(installs[-1])
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        path = Path(folder, f"python{version}")
        if folder and Path(folder) != PYENV_ROOT / "shims" and os.access(path, os.X_OK):
            return str(path)
    return None


@pytest.mark.parametrize("version", [version for version in PYTHONS
                                     if version != "%d.%d" % sys.version_info[:2]])
def test_cases_without_numpy_are_byte_identical_under_every_other_python(version, tmp_path):
    python = find_python(version)
    if python is None:
        pytest.skip(f"no CPython {version} under {PYENV_ROOT}/versions or on PATH")
    differ = []
    for case in NO_NUMPY_CASES:
        (tmp_path / case).mkdir()
        if run_case(CASES[case], tmp_path / case, python=python) != expected_outputs(case):
            differ.append(case)
    assert (len(NO_NUMPY_CASES), differ) == (18, [])


def test_only_the_listed_functions_have_no_caller_in_a_golden_case_or_a_demo(tmp_path):
    # a fresh interpreter, profiled before lucbat loads: in this one, a cached parser or
    # rule table would hide the calls that build it
    pytest.importorskip("numpy")  # the losscheck cases and demo 05 need it
    package = Path(lucbat.__file__).resolve().parent
    probe = "\n".join([
        "import json, pathlib, sys",
        f"sys.path[:0] = [{str(package.parent)!r}, {str(Path(__file__).parent)!r}]",
        "entered = set()",
        "sys.setprofile(lambda frame, event, arg: event == 'call' and entered.add(frame.f_code))",
        "import test_golden",
        f"test_golden.run_every_case_and_demo(pathlib.Path({str(tmp_path)!r}))",
        "sys.setprofile(None)",
        "print(json.dumps(sorted({(code.co_filename, code.co_qualname) for code in entered})))",
    ])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    entered = {
        f"{Path(filename).stem}.{qualname}"
        for filename, qualname in json.loads(result.stdout)
        if Path(filename).parent == package
    }
    assert package_functions(package) - entered == NEVER_ENTERED


if __name__ == "__main__":
    import tempfile

    unknown = [case for case in sys.argv[1:] if case not in CASES]
    if unknown:
        sys.exit(f"unknown case: {', '.join(unknown)}; the cases are {', '.join(CASES)}")
    for case in sys.argv[1:] or CASES:
        with tempfile.TemporaryDirectory() as workdir:
            outputs = run_case(CASES[case], Path(workdir))
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        (GOLDEN / case).mkdir()
        for name, data in outputs.items():
            (GOLDEN / case / name).write_bytes(data)
        print(f"{case}: {', '.join(outputs)}", file=sys.stderr)
