"""Traced in-process run: the cost of each lucbat layer.

Every pipeline (score-jsonl, filter, creativity, losscheck) is replayed
through ``lucbat.cli.main`` in this process, once plain and once with the
public layer functions wrapped by span-recording wrappers, so spans nest
as the calls do.  The wrappers are installed in every lucbat module that
refers to the function and removed afterwards; nothing in ``src/`` is
traced.  Functions too cheap to time one call at a time
(``parse_syllable``, ``normalize_verse``, ``rhymes_with``, verse lookup,
``json.dumps`` of a record) are timed in passes of their own over the
tokens, lines and records the replay saw.  Start-up costs come from fresh
child processes.  The outputs of every replay are checked like the CLI's.
"""

from __future__ import annotations

import io
import json
import os
import statistics
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from pathlib import Path

from . import gen, oracle, proc

PIPELINES = ("score-jsonl", "filter", "creativity", "losscheck")
TRACED = {
    "corpus": ("ingest", "write_corpus", "split_and_shuffle", "split_into_quatrains",
               "filter_by_score", "build_verse_index"),
    "scoring": ("split_quatrains", "segment_stanza", "score_stanza", "report_record"),
    "creativity": ("creativity_score",),
    "semloss": ("gradient_check", "custom_loss"),
}
SPAN_NAMES = ("cli.main",) + tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import lucbat.cli
t1 = time.perf_counter()
lucbat.cli.default_rule_table()
t2 = time.perf_counter()
print(json.dumps({"import_ms": (t1 - t0) * 1e3, "rule_table_ms": (t2 - t1) * 1e3,
                  "file": lucbat.__file__}))
"""
IMPORT_PROBES_PER_REP = 2
CONTEXTUAL_VECTOR_REPEATS = 20
CUSTOM_LOSS_REPEATS = 10


def per_layer_metrics() -> dict[str, str]:
    """Metric name -> unit, in report order."""
    units = {
        "syllable.parse_syllable.us_per_call": "us",
        "syllable.parse_syllable.calls": "count",
        "syllable.parse_syllable.distinct_ratio": "ratio",
        "syllable.parse_syllable.errors": "count",
        "syllable.normalize_verse.us_per_call": "us",
        "syllable.normalize_verse.calls": "count",
        "rules.default_rule_table.ms": "ms",
        "rules.rhymes_with.us_per_call": "us",
        "scoring.split_quatrains.us_per_call": "us",
        "scoring.segment_stanza.us_per_call": "us",
        "scoring.segment_stanza.errors": "count",
        "scoring.score_stanza.us_per_call": "us",
        "scoring.report_record.us_per_call": "us",
        "cli.json_dumps.us_per_record": "us",
        "corpus.ingest.ms": "ms",
        "corpus.split_and_shuffle.ms": "ms",
        "corpus.write_corpus.ms": "ms",
        "corpus.filter_by_score.us_per_quatrain": "us",
        "corpus.build_verse_index.us_per_verse": "us",
        "corpus.verse_lookup.us_per_call": "us",
        "creativity.creativity_score.us_per_verse": "us",
        "semloss.contextual_vector.us": "us",
        "semloss.custom_loss.ms": "ms",
        "semloss.gradient_check.s": "s",
        "semloss.fd_evals": "count",
        "cli.import_ms": "ms",
        "semloss.import_ms": "ms",
        "cli.peak_outcomes_held": "count",
        "trace.overhead_ratio": "ratio",
        "error_rate": "ratio",
    }
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    return units


def import_lucbat():
    """Import lucbat from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(proc.SRC))
    import lucbat.cli

    if Path(lucbat.__file__).resolve().parent != proc.SRC / "lucbat":
        raise RuntimeError(f"lucbat imported from {lucbat.__file__}, not {proc.SRC}")
    return lucbat


@contextmanager
def cwd(path: Path):
    previous = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(previous)


class OutputMeter(io.StringIO):
    """stdout stand-in: counts stanzas scored since the last line written."""

    def __init__(self):
        super().__init__()
        self.since_write = 0
        self.peak = 0

    def scored(self) -> None:
        self.since_write += 1
        self.peak = max(self.peak, self.since_write)

    def write(self, text: str) -> int:
        if "\n" in text:
            self.since_write = 0
        return super().write(text)


class Capture:
    """What one traced pipeline passed through the layers."""

    def __init__(self):
        self.meter = OutputMeter()
        self.quatrains: list[str] = []
        self.stanzas: list = []
        self.records: list[dict] = []
        self.index = None
        self.index_lines: list[str] = []
        self.generated_lines: list[str] = []
        self.loss_report = None

    def hooks(self) -> dict:
        def split(args, result):
            self.quatrains.extend(result)

        def scored(args, result):
            self.stanzas.append(args[0])
            self.meter.scored()

        def index(args, result):
            self.index = result
            self.index_lines = [line for poem in args[0].poems for line in poem.lines()]

        def creativity(args, result):
            self.generated_lines = [line for poem in args[0].poems for line in poem.lines()]

        return {
            "scoring.split_quatrains": split,
            "scoring.score_stanza": scored,
            "scoring.report_record": lambda args, result: self.records.append(result),
            "corpus.build_verse_index": index,
            "creativity.creativity_score": creativity,
            "semloss.gradient_check": lambda args, result: setattr(self, "loss_report", result),
        }


@contextmanager
def traced(recorder, capture: Capture):
    """Install span wrappers for TRACED in every lucbat module that refers to them."""
    hooks = capture.hooks()
    wrappers = {}
    for short, names in TRACED.items():
        module = sys.modules[f"lucbat.{short}"]
        for name in names:
            fn = getattr(module, name)
            span_name = f"{short}.{name}"
            wrappers[id(fn)] = (fn, recorder.wrap(span_name, fn, hooks.get(span_name)))
    saved = []
    for module_name, module in list(sys.modules.items()):
        if module_name != "lucbat" and not module_name.startswith("lucbat."):
            continue
        for attr, value in list(vars(module).items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                saved.append((module, attr, value))
                setattr(module, attr, entry[1])
    try:
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def replay(lucbat, plan: dict, workdir: Path, stdout: io.StringIO, recorder=None):
    """Run the plan's CLI calls in-process; returns (wall seconds, check)."""
    for name in oracle.output_files(plan):
        (workdir / name).unlink(missing_ok=True)
    results = []
    wall = 0.0
    with cwd(workdir):
        for argv in plan["argv"]:
            stdout.seek(0)
            stdout.truncate()
            with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
                start = time.perf_counter()
                if recorder is None:
                    status = lucbat.cli.main(argv)
                else:
                    with recorder.span("cli.main"):
                        status = lucbat.cli.main(argv)
                wall += time.perf_counter() - start
            results.append((status, stdout.getvalue()))
    return wall, oracle.check_pass(plan, workdir, results)


def timed_loop(recorder, name: str, fn, items) -> float:
    """Seconds per item of ``fn(item)`` over ``items``, recorded as one span."""
    with recorder.span(name) as span:
        for item in items:
            fn(item)
    return span.duration / max(1, len(items))


def layer_passes(lucbat, recorder, caps: dict, plans: dict) -> dict:
    out = {}
    score = caps["score-jsonl"]
    lines = [line for q in score.quatrains for line in q.splitlines()]
    tokens = [tok for line in lines for tok in lucbat.normalize_verse(line).split()]
    errors = 0

    def parse(token):
        nonlocal errors
        try:
            lucbat.parse_syllable(token)
        except lucbat.LucBatError:
            errors += 1

    out["syllable.parse_syllable.us_per_call"] = 1e6 * timed_loop(
        recorder, "syllable.parse_syllable.pass", parse, tokens)
    out["syllable.parse_syllable.calls"] = len(tokens)
    out["syllable.parse_syllable.distinct_ratio"] = len(set(tokens)) / max(1, len(tokens))
    out["syllable.parse_syllable.errors"] = errors

    verses = caps["creativity"].index_lines + caps["creativity"].generated_lines
    out["syllable.normalize_verse.us_per_call"] = 1e6 * timed_loop(
        recorder, "syllable.normalize_verse.pass", lucbat.normalize_verse, verses)
    out["syllable.normalize_verse.calls"] = len(verses)

    table = lucbat.default_rule_table()
    pairs = [(stanza.syllable_at(pos), stanza.syllable_at(chain.anchor))
             for stanza in score.stanzas
             for chain in lucbat.build_rhyme_chains(stanza.n_pairs) for pos in chain.members]
    out["rules.rhymes_with.us_per_call"] = 1e6 * timed_loop(
        recorder, "rules.rhymes_with.pass",
        lambda pair: lucbat.rhymes_with(pair[0], pair[1], table), pairs)

    out["cli.json_dumps.us_per_record"] = 1e6 * timed_loop(
        recorder, "cli.json_dumps.pass",
        lambda record: json.dumps(record, ensure_ascii=False, sort_keys=True), score.records)

    index = caps["creativity"].index
    out["corpus.verse_lookup.us_per_call"] = 1e6 * timed_loop(
        recorder, "corpus.verse_lookup.pass", index.__contains__,
        caps["creativity"].generated_lines)

    dims = plans["losscheck"]["loss_dims"]
    inst = lucbat.random_instance(plans["losscheck"]["loss_seed"], **dims)
    attn, lstm = inst["attn"], inst["lstm"]
    sequences = [x for pair in inst["stanza_pairs"] for x in pair] * CONTEXTUAL_VECTOR_REPEATS
    out["semloss.contextual_vector.us"] = 1e6 * timed_loop(
        recorder, "semloss.contextual_vector.pass",
        lambda x: lucbat.contextual_vector(x, attn, lstm), sequences)
    out["semloss.custom_loss.ms"] = 1e3 * timed_loop(
        recorder, "semloss.custom_loss.pass",
        lambda _: lucbat.custom_loss(inst["stanza_pairs"], inst["logits"],
                                     inst["next_token_ids"], attn, lstm),
        range(CUSTOM_LOSS_REPEATS))
    return out


def import_probes(workdir: Path) -> dict:
    """cli import, first default_rule_table() and semloss import, in fresh children."""
    out = {"cli.import_ms": [], "rules.default_rule_table.ms": [], "semloss.import_ms": []}
    for _ in range(IMPORT_PROBES_PER_REP):
        child = proc.run(["-c", IMPORT_PROBE], workdir)
        if child.status != 0:
            raise RuntimeError(f"import probe failed: {child.stderr.strip()[-300:]}")
        data = json.loads(child.stdout.strip().splitlines()[-1])
        if Path(data["file"]).resolve().parent != proc.SRC / "lucbat":
            raise RuntimeError(f"child imported lucbat from {data['file']}")
        out["cli.import_ms"].append(data["import_ms"])
        out["rules.default_rule_table.ms"].append(data["rule_table_ms"])
        child = proc.run(["-X", "importtime", "-c", "import lucbat.cli"], workdir)
        for line in child.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "lucbat.semloss":
                out["semloss.import_ms"].append(int(parts[1]) / 1e3)
    return {name: statistics.median(values) for name, values in out.items() if values}


def span_metrics(report: dict, rep: int, plans: dict, caps: dict) -> dict:
    def rows(pipeline, name):
        return report.get((f"{pipeline}#{rep}", name),
                          {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0})

    def us_per(pipeline, name, count=None):
        row = rows(pipeline, name)
        return 1e6 * row["total_s"] / max(1, row["calls"] if count is None else count)

    out = {}
    for name in ("split_quatrains", "segment_stanza", "score_stanza", "report_record"):
        out[f"scoring.{name}.us_per_call"] = us_per("score-jsonl", f"scoring.{name}")
    out["scoring.segment_stanza.errors"] = rows("score-jsonl", "scoring.segment_stanza")["errors"]
    for name in ("ingest", "split_and_shuffle", "write_corpus"):
        out[f"corpus.{name}.ms"] = 1e3 * rows("filter", f"corpus.{name}")["total_s"]
    out["corpus.filter_by_score.us_per_quatrain"] = us_per(
        "filter", "corpus.filter_by_score", len(plans["filter"]["quatrains"]))
    out["corpus.build_verse_index.us_per_verse"] = us_per(
        "creativity", "corpus.build_verse_index", len(caps["creativity"].index_lines))
    out["creativity.creativity_score.us_per_verse"] = us_per(
        "creativity", "creativity.creativity_score", len(caps["creativity"].generated_lines))
    out["semloss.gradient_check.s"] = rows("losscheck", "semloss.gradient_check")["total_s"]
    loss_report = caps["losscheck"].loss_report
    out["semloss.fd_evals"] = 2 * loss_report.n_parameters if loss_report else 0
    out["cli.peak_outcomes_held"] = caps["score-jsonl"].meter.peak
    for name in SPAN_NAMES:
        calls = sum(rows(p, name)["calls"] for p in PIPELINES)
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = 1e3 * sum(rows(p, name)["self_s"] for p in PIPELINES)
    return out


def trace_run(workload: str, seed: int, seconds: float, workdir: Path, recorder) -> dict:
    """Replay every pipeline until ``seconds`` have passed; per-layer medians."""
    lucbat = import_lucbat()
    plans = {p: gen.generate(p, seed, workdir / p) for p in PIPELINES}
    samples: dict[str, list] = {}
    checks = {p: oracle.Check() for p in PIPELINES}
    attempted = failed = 0
    start = time.perf_counter()
    rep = 0
    last = 0.0
    # no rep starts that would likely end after ``seconds``, except the first
    while rep == 0 or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        rep += 1
        for name, value in import_probes(workdir).items():
            samples.setdefault(name, []).append(value)
        caps = {p: Capture() for p in PIPELINES}
        plain = traced_wall = 0.0
        # alternate which replay goes first, so drift does not bias the overhead
        for is_traced in ((False, True) if rep % 2 else (True, False)):
            for pipeline in PIPELINES:
                plan = plans[pipeline]
                if is_traced:
                    recorder.run_id = f"{pipeline}#{rep}"
                    cap = caps[pipeline]
                    with traced(recorder, cap):
                        wall, result = replay(lucbat, plan, workdir / pipeline, cap.meter, recorder)
                    traced_wall += wall
                else:
                    wall, result = replay(lucbat, plan, workdir / pipeline, io.StringIO())
                    plain += wall
                attempted += 1
                failed += result.unexplained > 0
                checks[pipeline].merge(result)
        recorder.run_id = f"passes#{rep}"
        metrics = layer_passes(lucbat, recorder, caps, plans)
        metrics.update(span_metrics(recorder.report(), rep, plans, caps))
        metrics["trace.overhead_ratio"] = traced_wall / plain
        for name, value in metrics.items():
            samples.setdefault(name, []).append(value)
        last = time.perf_counter() - began
    values = {name: statistics.median(v) for name, v in samples.items()}
    own = checks[workload]
    values["error_rate"] = own.wrong_count / max(1, own.checked)
    return {"values": values, "checks": checks, "attempted": attempted, "failed": failed,
            "reps": rep, "plans": plans}
