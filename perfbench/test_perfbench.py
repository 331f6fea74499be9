"""Tests of the benchmark itself: generator determinism, oracle sensitivity."""

import io
import json
import subprocess
import sys
import unicodedata
from pathlib import Path

import pytest

from perfbench import gen, layers, oracle, proc, run
from perfbench.spans import Recorder

TEXT_WORKLOADS = ("score-jsonl", "filter", "creativity")


def files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    for workload in TEXT_WORKLOADS:
        gen.generate(workload, 3, tmp_path / "a" / workload)
        gen.generate(workload, 3, tmp_path / "b" / workload)
        gen.generate(workload, 4, tmp_path / "c" / workload)
        first = files(tmp_path / "a" / workload)
        assert first == files(tmp_path / "b" / workload)
        assert first != files(tmp_path / "c" / workload)


def test_generator_never_imports_lucbat(tmp_path):
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(proc.ROOT)!r})\n"
        "from pathlib import Path\n"
        "from perfbench import gen\n"
        f"for w in gen.GENERATORS: gen.generate(w, 1, Path({str(tmp_path)!r}) / w)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'lucbat'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_vocab_table_agrees_with_parser_and_rule_table():
    from lucbat import default_rule_table, parse_syllable

    table = default_rule_table()
    rows = gen.load_vocab()
    assert len(rows) == 1216
    for syl in rows:
        parsed = parse_syllable(syl.text)
        assert parsed.normalized == syl.text
        assert syl.klass == ("L" if parsed.tone_class.value == "level" else "O")
        group = table.group_of(parsed.rime)
        assert syl.key == (f"g{group}" if group is not None else f"r:{parsed.rime}")
        if syl.alt:
            assert syl.alt != syl.text
            assert parse_syllable(syl.alt).normalized == syl.text


def test_probes_keep_verse_identity_apart_from_probe_characters():
    import random

    rng = random.Random(0)
    line = "Trăm năm trong cõi người ta."
    for kind in gen.TEXT_PROBES:
        probed = gen.plant_text_probe(rng, [line], 0, kind)
        cleaned = "".join(" " if unicodedata.category(ch).startswith("P") else ch
                          for ch in probed if unicodedata.category(ch) != "Cf")
        assert probed != line
        assert cleaned.split() == line.replace(".", " ").split()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each text workload's plan and today's outputs, from an in-process replay."""
    lucbat = layers.import_lucbat()
    result = {}
    for workload in TEXT_WORKLOADS:
        workdir = tmp_path_factory.mktemp(workload)
        plan = gen.generate(workload, 5, workdir)
        stdout = io.StringIO()
        _, check = layers.replay(lucbat, plan, workdir, stdout)
        result[workload] = (plan, workdir, stdout.getvalue(), check)
    return result


@pytest.mark.parametrize("workload", TEXT_WORKLOADS)
def test_todays_outputs_are_explained_and_error_rate_is_the_probe_share(outputs, workload):
    plan, _, _, check = outputs[workload]
    assert check.unexplained == 0, check.notes
    assert set(check.causes) == {f"probe.{kind}" for kind in plan["probes"]}
    assert check.checked == oracle.planted_units(plan)
    assert check.wrong_count / check.checked == run.planted_share(plan)


def corrupt_record(stdout: str, pick, change) -> str:
    lines = stdout.splitlines()
    for i, line in enumerate(lines):
        record = json.loads(line)
        if pick(record):
            lines[i] = change(record)
            break
    else:
        raise AssertionError("no record to corrupt")
    return "\n".join(lines) + "\n"


def test_score_oracle_counts_corrupted_outputs_as_wrong(outputs):
    plan, _, stdout, _ = outputs["score-jsonl"]
    assert oracle.check_score(plan, stdout, 1).unexplained == 0

    def poem_of(record):
        return plan["poems"][int(record["poem_id"].rsplit(":", 1)[1])]

    def bump(key):
        return lambda r: json.dumps({**r, key: r[key] + 1})

    cases = {
        "R": (lambda r: "R" in r, bump("R")),
        "T": (lambda r: "T" in r, bump("T")),
        "score": (lambda r: "score" in r, lambda r: json.dumps({**r, "score": r["score"] - 1})),
        "invalid_json": (lambda r: "score" in r,
                         lambda r: json.dumps({**r, "score": float("nan")})),
        "missing_error_record": (lambda r: "error" in r and poem_of(r).malformed,
                                 lambda r: json.dumps({**r, "error": ""})),
    }
    for cause, (pick, change) in cases.items():
        check = oracle.check_score(plan, corrupt_record(stdout, pick, change), 1)
        assert check.causes[cause] >= 1, (cause, check.causes)
    assert oracle.check_score(plan, stdout, 0).causes["exit_status"] == 1


def test_filter_oracle_counts_corrupted_outputs_as_wrong(outputs):
    plan, workdir, _, _ = outputs["filter"]
    q_text = (workdir / "q.txt").read_text("utf-8")
    kept = (workdir / "kept.txt").read_text("utf-8")
    stats = json.loads((workdir / "stats.json").read_text("utf-8"))
    assert oracle.check_filter(plan, q_text, kept, json.dumps(stats), 0).unexplained == 0

    short = "\n\n".join(oracle.blocks(kept)[1:]) + "\n"
    assert oracle.check_filter(plan, q_text, short, json.dumps(stats), 0).causes["kept_file"]
    wrong_mean = dict(stats, mean_score_kept=stats["mean_score_kept"] + 1)
    assert oracle.check_filter(plan, q_text, kept, json.dumps(wrong_mean), 0).causes[
        "stats_totals"]
    first_kept = next(i for i, text in enumerate(oracle.blocks(q_text))
                      if f"q.txt:{i}" not in {d["poem_id"] for d in stats["dropped"]})
    dropped_one = dict(stats, dropped=stats["dropped"] + [{"poem_id": f"q.txt:{first_kept}",
                                                           "reason": "x"}])
    assert oracle.check_filter(plan, q_text, kept, json.dumps(dropped_one), 0).causes["fate"]
    shuffled = "\n\n".join(oracle.blocks(q_text)[1:]) + "\n"
    assert oracle.check_quatrains(plan, shuffled, 0).causes["quatrain_split"]


def test_creativity_oracle_counts_corrupted_outputs_as_wrong(outputs):
    plan, _, stdout, _ = outputs["creativity"]
    corrupted = corrupt_record(
        stdout, lambda r: r.get("copied_verses", 0) >= 2,
        lambda r: json.dumps({**r, "copied_verses": r["copied_verses"] - 2,
                              "copied_ratio": (r["copied_verses"] - 2) / 4}))
    check = oracle.check_creativity(plan, corrupted, 0)
    assert check.causes["copied_verses"] == 1
    assert check.causes["creativity_summary"] == 1
    # the probes hide copies today, so C reads higher than when every copy is found
    correct = sum(1.0 - g["copied"] / 4 for g in plan["generated"]) / len(plan["generated"])
    assert correct < json.loads(stdout.splitlines()[-1])["creativity"]


def test_losscheck_oracle(tmp_path):
    plan = gen.generate("losscheck", 0, tmp_path)
    good = "gradient check seed=48 d_model=8 d_hidden=8 parameters=736\n...: PASS\n"
    assert plan["n_parameters"] == 736
    assert oracle.check_losscheck(plan, good, 0).unexplained == 0
    assert oracle.check_losscheck(plan, good.replace("PASS", "FAIL"), 1).unexplained == 2


def test_self_time_subtracts_children():
    recorder = Recorder()
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    outer, first, second = recorder.spans
    assert first.parent == second.parent == outer.id
    selfs = recorder.self_times()
    assert selfs[outer.id] == pytest.approx(
        outer.duration - first.duration - second.duration, abs=1e-12)
    assert recorder.report()[("", "inner")]["calls"] == 2


def test_benchmark_json_names_the_reported_metrics():
    doc = json.loads((proc.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(gen.GENERATORS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == layers.per_layer_metrics()
