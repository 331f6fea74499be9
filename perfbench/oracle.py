"""Oracles: check each workload's outputs against the generator's plan.

Every output unit (a poem's records, a quatrain's fate, a generated poem's
copied count) is checked.  A unit that differs from its correct value is
wrong.  When the unit carries a defect probe and the output is exactly what
the known defect produces, the cause is that probe ("probe.bom", ...);
otherwise the cause says what differed and the unit is *unexplained*.
``error_rate`` counts both; a run is correct only when nothing is
unexplained.  Oracles never raise on a wrong output.
"""

from __future__ import annotations

import json
import math
import unicodedata
from collections import Counter
from dataclasses import dataclass, field

from .gen import RHYME_MEMBERS, score_of
from .proc import read_text

SCORE_TOLERANCE = 1e-9


@dataclass
class Check:
    """Outcome of checking one invocation's outputs."""

    checked: int = 0
    causes: Counter = field(default_factory=Counter)  # wrong units by cause
    notes: list = field(default_factory=list)  # first unexplained details

    def wrong(self, cause: str, detail: str = "") -> None:
        self.causes[cause] += 1
        if not cause.startswith("probe.") and len(self.notes) < 5:
            self.notes.append(f"{cause}: {detail}" if detail else cause)

    @property
    def wrong_count(self) -> int:
        return sum(self.causes.values())

    @property
    def unexplained(self) -> int:
        return sum(n for c, n in self.causes.items() if not c.startswith("probe."))

    def merge(self, other: "Check") -> None:
        self.checked += other.checked
        self.causes.update(other.causes)
        self.notes.extend(other.notes[: max(0, 5 - len(self.notes))])


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    """RFC 8259 JSON: NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def jsonl(check: Check, text: str) -> list:
    records = []
    for number, line in enumerate(text.splitlines(), start=1):
        try:
            record = strict_json(line)
        except ValueError as exc:
            check.wrong("invalid_json", f"line {number}: {exc}")
            continue
        if not isinstance(record, dict):
            check.wrong("invalid_json", f"line {number}: not an object")
            continue
        records.append(record)
    return records


def blocks(text: str) -> list[str]:
    """Blank-line separated blocks, lines stripped and NFC-composed."""
    out, current = [], []
    for raw in text.splitlines():
        line = unicodedata.normalize("NFC", raw.strip())
        if line:
            current.append(line)
        elif current:
            out.append("\n".join(current))
            current = []
    if current:
        out.append("\n".join(current))
    return out


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and math.isfinite(a) and abs(a - b) <= SCORE_TOLERANCE


# ------------------------------------------------------------ score-jsonl


def _record_problem(record: dict, index: int, q) -> str:
    """Why a scoring record differs from the plan of quatrain ``q``, or ""."""
    if record.get("stanza_index") != index or record.get("n") != 2:
        return "stanza_index"
    if record.get("R") != q.r:
        return "R"
    if record.get("T") != q.t:
        return "T"
    if not _close(record.get("score"), score_of(q.r, q.t)):
        return "score"
    try:
        rhyme = record["diagnostics"]["rhyme"]
        tone = record["diagnostics"]["tone"]
        rhyme_bad = {tuple(d["position"]) for d in rhyme if not d["ok"]}
        tone_bad = {tuple(d["position"]) for d in tone if not d["ok"]}
        anchors = {tuple(d["position"]): tuple(d["anchor"]) for d in rhyme}
    except (KeyError, TypeError):
        return "diagnostics"
    if len(rhyme) != 3 or len(tone) != 14 or anchors != RHYME_MEMBERS:
        return "diagnostics"
    if rhyme_bad != set(q.rhyme_bad) or tone_bad != set(q.tone_bad):
        return "diagnostics"
    return ""


def _is_error_record(records: list) -> bool:
    return (len(records) == 1 and isinstance(records[0].get("error"), str)
            and records[0]["error"] != "" and "score" not in records[0])


def _poem_problem(poem, records: list) -> str:
    if poem.malformed and not poem.probe:
        return "" if _is_error_record(records) else "missing_error_record"
    if len(records) != len(poem.quatrains):
        return "record_count"
    for index, (record, q) in enumerate(zip(records, poem.quatrains), start=1):
        problem = _record_problem(record, index, q)
        if problem:
            return problem
    return ""


def check_score(plan: dict, stdout: str, status: int) -> Check:
    """``lucbat score --format jsonl``: one unit per poem."""
    check = Check()
    label = plan["file"]
    poems = plan["poems"]
    records = jsonl(check, stdout)
    by_poem: dict[str, list] = {}
    order = []
    for record in records:
        pid = record.get("poem_id")
        if pid not in by_poem:
            order.append(pid)
        by_poem.setdefault(pid, []).append(record)
    expected_ids = [f"{label}:{i}" for i in range(len(poems))]
    if order != [pid for pid in expected_ids if pid in by_poem]:
        check.wrong("poem_order")
    for pid in set(by_poem) - set(expected_ids):
        check.wrong("unknown_poem_id", str(pid))
    for pid, poem in zip(expected_ids, poems):
        check.checked += 1
        got = by_poem.get(pid, [])
        problem = _poem_problem(poem, got)
        if not problem:
            continue
        if poem.probe and _is_error_record(got):
            check.wrong(f"probe.{poem.probe}")
        else:
            check.wrong(problem, pid)
    # malformed poems are planted in every input, so exit status 1 is expected
    if status != 1:
        check.wrong("exit_status", f"{status} != 1")
    return check


# ----------------------------------------------------------------- filter


def check_quatrains(plan: dict, q_text: str, status: int) -> Check:
    """``lucbat quatrains``: the written quatrains, as a multiset."""
    check = Check()
    check.checked = 1
    expected = Counter(q.text for q in plan["quatrains"])
    if Counter(blocks(q_text)) != expected:
        check.wrong("quatrain_split")
    if status != 0:
        check.wrong("exit_status", f"{status} != 0")
    return check


def check_filter(plan: dict, q_text: str, kept_text: str, stats_text: str,
                 status: int) -> Check:
    """``lucbat filter``: one unit per quatrain (kept or dropped), plus totals."""
    check = Check()
    label = "q.txt"
    by_text = {q.text: q for q in plan["quatrains"]}
    try:
        stats = strict_json(stats_text)
        dropped = {d["poem_id"] for d in stats["dropped"]}
    except (ValueError, KeyError, TypeError) as exc:
        check.wrong("stats_json", str(exc))
        return check
    kept_blocks, kept_scores = [], []
    for i, text in enumerate(blocks(q_text)):
        check.checked += 1
        q = by_text.get(text)
        if q is None:
            check.wrong("unknown_quatrain", f"{label}:{i}")
            continue
        score = score_of(q.r, q.t)
        keep = not q.malformed and score >= plan["min_score"]
        kept = f"{label}:{i}" not in dropped
        if kept:
            kept_blocks.append(text)
            kept_scores.append(score)
        if kept != keep:
            check.wrong(f"probe.{q.probe}" if q.probe and not kept else "fate", f"{label}:{i}")
    if blocks(kept_text) != kept_blocks:
        check.wrong("kept_file")
    mean = sum(kept_scores) / len(kept_scores) if kept_scores else None
    got_mean = stats.get("mean_score_kept")
    if (stats.get("kept_count") != len(kept_blocks)
            or stats.get("dropped_count") != len(dropped)
            or (mean is None) != (got_mean is None)
            or (mean is not None and not _close(got_mean, mean))):
        check.wrong("stats_totals")
    if status != 0:
        check.wrong("exit_status", f"{status} != 0")
    return check


# ------------------------------------------------------------- creativity


def check_creativity(plan: dict, stdout: str, status: int) -> Check:
    """``lucbat creativity --format jsonl``: one unit per generated poem, plus C."""
    check = Check()
    label = plan["file"]
    generated = plan["generated"]
    records = jsonl(check, stdout)
    if not records or "creativity" not in records[-1]:
        check.wrong("missing_summary")
        return check
    summary, per_poem = records[-1], records[:-1]
    if len(per_poem) != len(generated):
        check.wrong("record_count", f"{len(per_poem)} != {len(generated)}")
    ratios = []
    for i, (record, poem) in enumerate(zip(per_poem, generated)):
        check.checked += 1
        got = record.get("copied_verses")
        if (record.get("poem_id") != f"{label}:{i}" or record.get("total_verses") != 4
                or not isinstance(got, int) or not _close(record.get("copied_ratio"), got / 4)):
            check.wrong("record_fields", f"{label}:{i}")
            continue
        ratios.append(1.0 - got / 4)
        if got == poem["copied"]:
            continue
        if poem["probe"] and got == poem["copied"] - 1:
            check.wrong(f"probe.{poem['probe']}")
        else:
            check.wrong("copied_verses", f"{label}:{i}: {got} != {poem['copied']}")
    # C must follow from the per-poem counts printed
    if summary.get("poems") != len(generated) or (
            ratios and not _close(summary.get("creativity"), sum(ratios) / len(ratios))):
        check.wrong("creativity_summary")
    if status != 0:
        check.wrong("exit_status", f"{status} != 0")
    return check


# -------------------------------------------------------------- losscheck


def check_losscheck(plan: dict, stdout: str, status: int) -> Check:
    check = Check()
    check.checked = 1
    if f"parameters={plan['n_parameters']}" not in stdout:
        check.wrong("parameters")
    elif not stdout.rstrip().endswith("PASS"):
        check.wrong("gradient_check")
    if status != 0:
        check.wrong("exit_status", f"{status} != 0")
    return check


def planted_units(plan: dict) -> int:
    """Checked output units of one pass, as planted (see the check_* functions)."""
    workload = plan["workload"]
    if workload == "score-jsonl":
        return len(plan["poems"])
    if workload == "filter":
        return 1 + len(plan["quatrains"])
    if workload == "creativity":
        return len(plan["generated"])
    return 1


def check_pass(plan: dict, workdir, results: list[tuple[int, str]]) -> Check:
    """Check one pass over ``plan["argv"]``; ``results`` holds (status, stdout) per call."""
    workload = plan["workload"]
    (status, stdout), *rest = results
    if workload == "score-jsonl":
        return check_score(plan, stdout, status)
    if workload == "creativity":
        return check_creativity(plan, stdout, status)
    if workload == "losscheck":
        return check_losscheck(plan, stdout, status)
    q_text = read_text(workdir / "q.txt")
    check = check_quatrains(plan, q_text, status)
    check.merge(check_filter(plan, q_text, read_text(workdir / "kept.txt"),
                             read_text(workdir / "stats.json"), rest[0][0]))
    return check


def output_files(plan: dict) -> tuple[str, ...]:
    """Files a pass writes, removed before each pass so stale ones cannot pass."""
    return ("q.txt", "kept.txt", "stats.json") if plan["workload"] == "filter" else ()
