import ast
import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import lucbat
from lucbat import FilterStats, PoemNovelty, build_verse_index, creativity_score, ingest, scoring
from lucbat.cli import LOSSCHECK_BOUNDS, _novelty_record, _stats_text, build_parser, main
from lucbat.corpus import _BATCH
from lucbat.syllable import _PUNCTUATION, _lines
from helpers import NO_NUMPY, perturb_quatrain
from conftest import KIEU


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestScoreCommand:
    def test_perfect_quatrain_jsonl(self, tmp_path, capsys):
        path = write(tmp_path, "poems.txt", KIEU + "\n")
        assert main(["score", path, "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["score"] == 100.0
        assert record["R"] == 0 and record["T"] == 0

    def test_text_mode_annotates(self, tmp_path, capsys):
        broken = perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)])
        path = write(tmp_path, "poems.txt", broken + "\n")
        assert main(["score", path]) == 0
        out = capsys.readouterr().out
        assert "[R]" in out
        assert "score=80.000" in out

    def test_multiple_poems_one_record_each(self, tmp_path, capsys):
        path = write(tmp_path, "poems.txt", KIEU + "\n\n" + KIEU + "\n")
        assert main(["score", path, "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        ids = {json.loads(l)["poem_id"] for l in lines}
        assert len(ids) == 2

    def test_bad_poem_reported_and_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "poems.txt", KIEU + "\n\nchỉ một dòng\n")
        assert main(["score", path, "--format", "jsonl"]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "error" in json.loads(lines[1])

    def test_weights_flag(self, tmp_path, capsys):
        broken = perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)])
        path = write(tmp_path, "poems.txt", broken + "\n")
        assert main(["score", path, "--format", "jsonl", "--weights", "0.5,1.0"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["score"] == pytest.approx(100 * (1 - 0.5 / 5))

    def test_error_record_keeps_poem_order(self, tmp_path, capsys):
        broken = perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)])
        path = write(tmp_path, "poems.txt", f"{KIEU}\n\nchỉ một dòng\n\n{broken}\n")
        assert main(["score", path, "--format", "jsonl"]) == 1
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["poem_id"] for r in records] == [f"{path}:{k}" for k in range(3)]
        assert records[0]["score"] == 100.0
        assert "error" in records[1] and "score" not in records[1]
        assert records[2]["R"] == 1

    def test_quatrains_of_one_poem_share_its_id(self, tmp_path, capsys):
        broken = perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)])
        path = write(tmp_path, "poems.txt", f"{KIEU}\n{broken}\n")
        assert main(["score", path, "--format", "jsonl"]) == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["poem_id"] for r in records] == [f"{path}:0"] * 2
        assert [r["stanza_index"] for r in records] == [1, 2]
        assert [r["score"] for r in records] == [100.0, pytest.approx(80.0)]

    @pytest.mark.parametrize("fmt", ["jsonl", "text"])
    def test_bad_later_quatrain_fails_the_whole_poem(self, tmp_path, capsys, fmt):
        bad = KIEU.replace("dâu", "d4u")
        path = write(tmp_path, "poems.txt", f"{KIEU}\n{bad}\n\n{KIEU}\n")
        assert main(["score", path, "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "jsonl":
            records = [json.loads(line) for line in out.splitlines()]
            assert [r["poem_id"] for r in records] == [f"{path}:0", f"{path}:1"]
            assert "d4u" in records[0]["error"] and "score" not in records[0]
            assert records[1]["score"] == 100.0
        else:
            assert out.count(": ERROR ") == 1 and f"# {path}:0: ERROR " in out
            assert f"# {path}:0 stanza" not in out
            assert f"# {path}:1 stanza 1\n" in out

    def test_rules_override(self, tmp_path, capsys):
        # an empty table removes the {au, âu} group: "dâu" stops rhyming
        rules = write(tmp_path, "rules.txt", "# version: bare\nai ay\n")
        path = write(tmp_path, "poems.txt", KIEU + "\n")
        assert main(["score", path, "--rules", rules, "--format", "jsonl"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["R"] == 1

    @pytest.mark.parametrize("fmt", ["jsonl", "text"])
    def test_records_are_written_from_the_compiled_template(self, tmp_path, capsys, monkeypatch,
                                                             fmt):
        # scored records come from the stanza shape compiled once per n, not json.dumps
        # of a dict; only the error record still goes through json.dumps
        broken = perturb_quatrain(KIEU, tone_flips=[(1, 2)], rhyme_breaks=[(3, 6)])
        poems = [KIEU, broken, KIEU + "\n" + broken, "chỉ một dòng", broken + "\n" + KIEU]
        path = write(tmp_path, "poems.txt", "\n\n".join(poems) + "\n")
        dumps_calls = []
        dumps = json.dumps

        def counting_dumps(*args, **kwargs):
            dumps_calls.append(args[0])
            return dumps(*args, **kwargs)

        monkeypatch.setattr(json, "dumps", counting_dumps)
        for compiled in (lucbat.template, scoring._shape):
            compiled.cache_clear()
        assert main(["score", path, "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "jsonl":
            records = [json.loads(line) for line in out.splitlines()]
            scored = [r for r in records if "score" in r]
            assert len(scored) == 6 and len(records) == 7
            assert dumps_calls == [r for r in records if "error" in r]
            pair_counts = {r["n"] for r in scored}
        else:
            summaries = [line for line in out.splitlines() if line.startswith("n=")]
            assert len(summaries) == 6 and out.count(": ERROR ") == 1
            assert "[R]" in out and "[T]" in out
            pair_counts = {line.split()[0] for line in summaries}
        for compiled in (lucbat.template, scoring._shape):
            assert compiled.cache_info().misses == len(pair_counts)

    def test_stdin(self, tmp_path, capsys, monkeypatch):
        import io

        stdin = io.TextIOWrapper(io.BytesIO((KIEU + "\n").encode("utf-8")), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        assert main(["score", "-", "--format", "jsonl"]) == 0
        record = json.loads(capsys.readouterr().out.strip())
        assert record["score"] == 100.0


class TestFilterCommand:
    def test_filter_writes_kept_and_stats(self, tmp_path, capsys):
        broken = perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)])
        path = write(tmp_path, "poems.txt", KIEU + "\n\n" + broken + "\n")
        out = tmp_path / "kept.txt"
        stats_path = tmp_path / "stats.json"
        code = main(
            ["filter", path, "--min-score", "90", "--out", str(out),
             "--stats", str(stats_path)]
        )
        assert code == 0
        stats = json.loads(stats_path.read_text("utf-8"))
        assert stats["kept_count"] == 1
        assert stats["dropped_count"] == 1
        assert stats["mean_score_kept"] == 100.0
        kept_text = out.read_text("utf-8")
        assert "trăm năm trong cõi người ta" in kept_text.lower()

    @pytest.mark.parametrize("stats", [
        FilterStats(3, 0, 91.25),
        FilterStats(0, 0, None),
        FilterStats(0, 2, None, (("a:0/q0", "line 1: expected 6 syllables, got 5"),
                                 ("a:1/q0", "score 40.000 < 60.0"))),
        FilterStats(1, 4, 1e16, (('q"uote:0/q0', "r"), ("back\\slash:1/q0", 'cannot parse "x\\"'),
                                 ("line\u2028sep:2/q0", "tab\there"),
                                 ("Trăm năm.txt:3/q0", "line 2: cannot parse 'ó' (không)"))),
    ])
    def test_stats_text_is_json_dumps_of_the_payload(self, stats):
        payload = {
            "kept_count": stats.kept_count,
            "dropped_count": stats.dropped_count,
            "mean_score_kept": stats.mean_score_kept,
            "dropped": [{"poem_id": pid, "reason": reason} for pid, reason in stats.dropped],
        }
        assert _stats_text(stats) == json.dumps(
            payload, ensure_ascii=False, sort_keys=True, indent=2, allow_nan=False)

    @pytest.mark.parametrize("mean", [math.inf, -math.inf, math.nan])
    def test_stats_text_refuses_a_non_finite_mean_as_json_dumps_does(self, mean):
        with pytest.raises(ValueError):
            json.dumps(mean, allow_nan=False)
        with pytest.raises(ValueError):
            _stats_text(FilterStats(1, 0, mean))

    def test_filtered_output_rescored_passes(self, tmp_path, capsys):
        broken = perturb_quatrain(KIEU, tone_flips=[(1, 2)])
        path = write(tmp_path, "poems.txt", KIEU + "\n\n" + broken + "\n")
        out1 = tmp_path / "kept.txt"
        assert main(["filter", path, "--min-score", "95", "--out", str(out1)]) == 0
        capsys.readouterr()
        out2 = tmp_path / "kept2.txt"
        assert main(["filter", str(out1), "--min-score", "95", "--out", str(out2)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["dropped_count"] == 0


class TestCreativityCommand:
    def test_disjoint_gives_one(self, tmp_path, capsys):
        generated = write(tmp_path, "gen.txt", "câu thơ hoàn toàn mới\nchưa từng xuất hiện bao giờ\n")
        corpus = write(tmp_path, "corpus.txt", KIEU + "\n")
        assert main(["creativity", "--generated", generated, "--corpus", corpus]) == 0
        out = capsys.readouterr().out
        assert "C = 1.0" in out

    def test_jsonl_per_poem_plus_summary(self, tmp_path, capsys):
        generated = write(tmp_path, "gen.txt", KIEU + "\n")
        corpus = write(tmp_path, "corpus.txt", KIEU + "\n")
        assert main(
            ["creativity", "--generated", generated, "--corpus", corpus,
             "--format", "jsonl"]
        ) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["copied_ratio"] == 1.0
        assert json.loads(lines[1])["creativity"] == 0.0

    def test_empty_generated_exits_one(self, tmp_path, capsys):
        generated = write(tmp_path, "gen.txt", "")
        corpus = write(tmp_path, "corpus.txt", KIEU + "\n")
        assert main(["creativity", "--generated", generated, "--corpus", corpus]) == 1

    # ids as ingest spells them: a path, then ":" and the poem's ordinal
    _IDS = ['q"uote:0', "back\\slash:1", "tab\tbell\x07nul\x00:2", "line\u2028sep:3",
            "emoji \U0001f600:4", "bad\\xff.txt:5", "Trăm năm.txt:6", ":7"]

    @pytest.mark.parametrize("copied, total", [(1, 3), (2, 3), (0, 4), (4, 4), (1, 1), (5, 7)])
    def test_per_poem_record_is_json_dumps_of_the_record(self, copied, total):
        for poem_id in self._IDS:
            novelty = PoemNovelty(poem_id, copied, total)
            record = {"poem_id": poem_id, "copied_verses": copied, "total_verses": total,
                      "copied_ratio": copied / total}
            assert _novelty_record(novelty) == json.dumps(
                record, ensure_ascii=False, sort_keys=True, allow_nan=False)

    def test_jsonl_lines_are_json_dumps_of_the_report(self, tmp_path):
        names = ['q"uote.txt', "back\\slash.txt", "tab\tbell\x07.txt", "line\u2028sep.txt",
                 "emoji \U0001f600.txt", os.fsdecode(b"bad\xff.txt")]
        gen_dir = tmp_path / "generated"
        gen_dir.mkdir()
        made = []
        for k, name in enumerate(names):
            try:
                (gen_dir / name).write_text(KIEU.splitlines()[k % 4] + "\nmột câu mới\n\n" + KIEU,
                                            encoding="utf-8")
            except (OSError, UnicodeError):
                continue  # a file system that refuses the name
            made.append(name)
        assert len(made) >= 4
        corpus = write(tmp_path, "corpus.txt", KIEU + "\n")
        src = Path(lucbat.__file__).resolve().parent.parent
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8:strict"}
        result = subprocess.run(
            [sys.executable, "-m", "lucbat", "creativity", "--generated", str(gen_dir),
             "--corpus", corpus, "--format", "jsonl"], capture_output=True, env=env)
        assert result.returncode == 0, result.stderr
        report = creativity_score(ingest([str(gen_dir)]), build_verse_index(ingest([corpus])))
        expected = [
            json.dumps({"poem_id": n.poem_id, "copied_verses": n.copied_verses,
                        "total_verses": n.total_verses, "copied_ratio": n.copied_ratio},
                       ensure_ascii=False, sort_keys=True, allow_nan=False)
            for n in report.per_poem
        ]
        expected.append(json.dumps({"creativity": report.score, "poems": len(report.per_poem)},
                                   ensure_ascii=False, sort_keys=True, allow_nan=False))
        assert result.stdout.decode("utf-8").split("\n") == expected + [""]

    @pytest.mark.parametrize("fmt", ["text", "jsonl"])
    def test_a_batch_of_poems_takes_one_normalize_call_and_all_poems_one_write(
            self, tmp_path, monkeypatch, fmt):
        n = 2 * _BATCH + 1
        generated = write(tmp_path, "gen.txt", "".join(
            f"{KIEU.splitlines()[k % 4]}\ncâu mới thứ {k}\n\n" for k in range(n)))
        corpus = write(tmp_path, "corpus.txt", "".join(f"{KIEU}\ncâu cũ thứ {k}\n\n"
                                                        for k in range(n)))
        calls = []
        normalize_verses = lucbat.corpus.normalize_verses
        monkeypatch.setattr(lucbat.corpus, "normalize_verses",
                            lambda text: calls.append(text) or normalize_verses(text))
        index = build_verse_index(ingest([corpus]))
        assert 0 < len(calls) <= math.ceil(n / _BATCH)
        calls.clear()
        creativity_score(ingest([generated]), index)
        assert 0 < len(calls) <= math.ceil(n / _BATCH)

        writes = []

        class Stdout(io.StringIO):
            def write(self, text):
                writes.append(text)
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Stdout())
        assert main(["creativity", "--generated", generated, "--corpus", corpus,
                     "--format", fmt]) == 0
        assert writes[0].count("\n") == n
        assert writes[0].startswith(f"{{\"copied_ratio\": 0.5," if fmt == "jsonl" else
                                    f"{generated}:0: 1/2 verses copied\n")
        assert "".join(writes[1:]).count("\n") == 1


class TestReportCommand:
    def test_plain_floats(self, tmp_path, capsys):
        path = write(tmp_path, "scores.txt", "95\n100\n82\n")
        assert main(["report", path]) == 0
        out = capsys.readouterr().out
        assert "n=3" in out
        assert "[  90.0,  100.0]      2" in out

    def test_jsonl_scores_from_score_command(self, tmp_path, capsys):
        poems = write(tmp_path, "poems.txt", KIEU + "\n")
        assert main(["score", poems, "--format", "jsonl"]) == 0
        records = capsys.readouterr().out
        scores = write(tmp_path, "scores.jsonl", records)
        assert main(["report", scores, "--format", "jsonl"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        summary = json.loads(lines[-1])
        assert summary["n"] == 1
        assert summary["mean"] == 100.0
        top_bin = json.loads(lines[-2])
        assert top_bin["count"] == 1

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\u2029"])
    def test_reads_score_jsonl_of_a_path_holding_a_line_separator(self, tmp_path, capsys,
                                                                  separator):
        # JSON strings hold these unescaped; only \n, \r\n and \r end a record
        broken = perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)])
        try:
            poems = write(tmp_path, f"a{separator}b.txt", f"{KIEU}\n\n{broken}\n")
        except (OSError, UnicodeError):
            pytest.skip("the file system refuses the file name")
        assert main(["score", poems, "--format", "jsonl"]) == 0
        records = capsys.readouterr().out
        assert separator in records and records.count("\n") == 2
        scores = write(tmp_path, "scores.jsonl", records)
        assert main(["report", scores, "--format", "jsonl"]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["n"] == 2 and summary["mean"] == 90.0

    def test_custom_bin_width(self, tmp_path, capsys):
        path = write(tmp_path, "scores.txt", "99\n")
        assert main(["report", path, "--bins", "30"]) == 0
        out = capsys.readouterr().out
        assert "[  90.0,  100.0]" in out

    def test_empty_scores_exit_one(self, tmp_path, capsys):
        path = write(tmp_path, "scores.txt", "\n")
        assert main(["report", path]) == 1

    def test_mean_is_correctly_rounded(self, tmp_path, capsys):
        # a left-to-right float sum of ten 0.1 scores gives a mean of 0.09999999999999999
        path = write(tmp_path, "scores.txt", "0.1\n" * 10)
        assert main(["report", path, "--format", "jsonl"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert summary == '{"above": 0, "below": 0, "mean": 0.1, "n": 10}'

    def test_overflowing_sum_still_gives_a_finite_mean(self, tmp_path, capsys):
        path = write(tmp_path, "scores.txt", "1e308\n1e308\n")
        assert main(["report", path, "--format", "jsonl"]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["mean"] == 1e308

    @pytest.mark.parametrize("copies", [3, 6])
    def test_mean_of_scores_at_the_float_limit_is_exact(self, tmp_path, capsys, copies):
        # fsum overflows, and so does each rounded share summed term by term
        path = write(tmp_path, "scores.txt", f"{sys.float_info.max!r}\n" * copies)
        assert main(["report", path, "--format", "jsonl"]) == 0
        summary = capsys.readouterr().out.splitlines()[-1]
        assert json.loads(summary)["mean"] == sys.float_info.max
        assert '"mean": 1.7976931348623157e+308' in summary
        assert main(["report", path]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == (
            f"n={copies} mean={sys.float_info.max:.3f}")

    def test_mixed_sign_mean_that_overflows_fsum_is_exact(self, tmp_path, capsys):
        scores = [sys.float_info.max, sys.float_info.max, -1e308]
        with pytest.raises(OverflowError):
            math.fsum(scores)
        path = write(tmp_path, "scores.txt", "".join(f"{s!r}\n" for s in scores))
        assert main(["report", path, "--format", "jsonl"]) == 0
        summary = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert summary["mean"] == 8.651287565748772e+307  # (2 * max - 1e308) / 3, rounded once

    def test_non_finite_score_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "scores.txt", "95\nnan\n")
        assert main(["report", path]) == 1
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "record, message",
        [
            ('{"score": "abc"}', "score is not a number"),
            ('{"score": null}', "score is not a number"),
            ('{"score": [1]}', "score is not a number"),
            ('{"score": true}', "score is not a number"),
            ('{"score": 1' + "0" * 400 + "}", "non-finite score"),
            ("[95]", "unreadable score line"),
            ('"95"', "unreadable score line"),
            ("null", "unreadable score line"),
            ("true", "unreadable score line"),
            ("[" * 100000, "unreadable score line"),
        ],
        ids=["string", "null", "list", "bool", "int-beyond-float",
             "list-line", "string-line", "null-line", "bool-line", "deep-list-line"],
    )
    def test_score_field_must_be_a_number(self, tmp_path, capsys, record, message):
        path = write(tmp_path, "scores.jsonl", '{"score": 95}\n' + record + "\n")
        assert main(["report", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"line 2: {message}" in captured.err


class TestQuatrainsCommand:
    def test_seeded_runs_byte_identical(self, tmp_path, capsys):
        text = "\n\n".join([KIEU, KIEU + "\n" + KIEU]) + "\n"
        path = write(tmp_path, "poems.txt", text)
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert main(["quatrains", path, "--seed", "7", "--out", str(out_a)]) == 0
        assert main(["quatrains", path, "--seed", "7", "--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_unshuffled_split_preserves_order(self, tmp_path, capsys):
        path = write(tmp_path, "poems.txt", KIEU + "\n" + KIEU + "\n")
        out = tmp_path / "q.txt"
        assert main(["quatrains", path, "--out", str(out)]) == 0
        blocks = out.read_text("utf-8").strip().split("\n\n")
        assert len(blocks) == 2

    def test_shuffle_flag_is_gone(self, tmp_path, capsys):
        path = write(tmp_path, "poems.txt", KIEU + "\n")
        out = tmp_path / "q.txt"
        assert main(["quatrains", path, "--shuffle", "--out", str(out)]) == 1
        assert "unrecognized arguments: --shuffle" in capsys.readouterr().err

    def test_exclusions_to_stderr(self, tmp_path, capsys):
        path = write(tmp_path, "poems.txt", KIEU + "\n\nmột dòng lẻ\n")
        out = tmp_path / "q.txt"
        assert main(["quatrains", path, "--seed", "1", "--out", str(out)]) == 0
        assert "excluded" in capsys.readouterr().err


class TestLosscheckCommand:
    def test_default_passes(self, capsys):
        assert main(["losscheck", "--seed", "2"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "max relative error" in out

    def test_dimensions_flags(self, capsys):
        code = main(
            ["losscheck", "--seed", "1", "--dmodel", "5", "--dhidden", "4",
             "--vocab", "9", "--len", "5", "--stanzas", "1"]
        )
        assert code == 0
        assert "d_model=5" in capsys.readouterr().out

    def test_bad_dimension_rejected(self, capsys):
        assert main(["losscheck", "--dmodel", "0"]) == 1


def test_commands_in_one_process_print_what_each_prints_alone(tmp_path, monkeypatch):
    # main reuses one parser; a call must not see what an earlier call parsed or printed
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    poems = write(tmp_path, "poems.txt", KIEU + "\n")
    src = Path(lucbat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    for argv in (["score", poems], ["losscheck", "--dmodel", "x"], ["--version"]):
        alone = subprocess.run([sys.executable, "-m", "lucbat", *argv], capture_output=True,
                               env=env)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert (status, out.getvalue(), err.getvalue()) == (
            alone.returncode, alone.stdout.decode("utf-8"), alone.stderr.decode("utf-8"))
    assert build_parser() is build_parser()


def test_reader_that_closes_early_ends_score_with_141_and_no_message(tmp_path):
    # more output than a pipe buffers, so score is still writing when the reader goes
    poems = write(tmp_path, "poems.txt", (KIEU + "\n\n") * 2000)
    src = Path(lucbat.__file__).resolve().parent.parent
    child = subprocess.Popen([sys.executable, "-m", "lucbat", "score", poems],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": str(src)})
    first = child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    assert (child.wait(timeout=60), first, stderr) == (141, f"# {poems}:0 stanza 1\n".encode(), b"")


def test_reader_that_closes_early_ends_creativity_with_141_and_no_message(tmp_path):
    # the per-poem lines go out in one write, larger than a pipe buffers
    generated = write(tmp_path, "gen.txt", (KIEU + "\n\n") * 2000)
    corpus = write(tmp_path, "corpus.txt", KIEU + "\n")
    src = Path(lucbat.__file__).resolve().parent.parent
    child = subprocess.Popen([sys.executable, "-m", "lucbat", "creativity", "--generated",
                              generated, "--corpus", corpus, "--format", "jsonl"],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": str(src)})
    first = child.stdout.readline()
    child.stdout.close()
    stderr = child.stderr.read()
    record = _novelty_record(PoemNovelty(f"{generated}:0", 4, 4))
    assert (child.wait(timeout=60), first, stderr) == (141, f"{record}\n".encode(), b"")


def test_losscheck_without_numpy_exits_one():
    src = Path(lucbat.__file__).resolve().parent.parent
    probe = "\n".join([
        NO_NUMPY,
        f"sys.path.insert(0, {str(src)!r})",
        "import lucbat.cli",
        "sys.exit(lucbat.cli.main(['losscheck']))",
    ])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (result.returncode, result.stdout, result.stderr) == (
        1, "", "lucbat losscheck: error: losscheck needs numpy: pip install 'lucbat[loss]'\n")


def test_semloss_names_without_numpy_raise_import_error_with_the_install_hint():
    src = Path(lucbat.__file__).resolve().parent.parent
    probe = "\n".join([
        NO_NUMPY,
        f"sys.path.insert(0, {str(src)!r})",
        "import lucbat",
        "for name in ('semloss', *lucbat._SEMLOSS_NAMES):",
        "    try:",
        "        getattr(lucbat, name)",
        "    except ImportError as exc:",
        "        print(name, exc)",
    ])
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "".join(
        f"{name} semloss needs numpy: pip install 'lucbat[loss]'\n"
        for name in ("semloss", *lucbat._SEMLOSS_NAMES))


def test_invalid_utf8_on_stdin_exits_one():
    src = Path(lucbat.__file__).resolve().parent.parent
    for argv in (["score", "-"], ["report", "-"]):
        result = subprocess.run([sys.executable, "-m", "lucbat", *argv], input=b"ho\xff\n",
                                capture_output=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 1, result.stderr
        assert result.stdout == b""
        assert b"stdin: 'utf-8' codec can't decode byte 0xff" in result.stderr


def test_file_name_that_is_not_utf8_gives_utf8_poem_ids(tmp_path):
    flips = [(line, word) for line in (1, 2, 3, 4)
             for word in ((2, 4, 6) if line % 2 else (2, 4, 6, 8))]
    text = KIEU + "\n\n" + perturb_quatrain(KIEU, tone_flips=flips) + "\n"  # scores 100, 0
    try:
        (tmp_path / os.fsdecode(b"q\xff.txt")).write_text(text, encoding="utf-8")
    except (OSError, UnicodeError):
        pytest.skip("the file system refuses a file name that is not UTF-8")
    path = os.fsdecode(b"q\xff.txt")
    src = Path(lucbat.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "utf-8:strict"}
    ids = []
    for argv in (["score", path, "--format", "jsonl"],
                 ["creativity", "--generated", path, "--corpus", path, "--format", "jsonl"],
                 ["filter", path, "--min-score", "50", "--out", "kept.txt",
                  "--stats", "stats.json"]):
        result = subprocess.run([sys.executable, "-m", "lucbat", *argv], cwd=tmp_path,
                                capture_output=True, env=env)
        assert result.returncode == 0, result.stderr
        records = [json.loads(line.decode("utf-8")) for line in result.stdout.splitlines()]
        ids += [record["poem_id"] for record in records if "poem_id" in record]
    stats = json.loads((tmp_path / "stats.json").read_bytes().decode("utf-8"))
    ids += [drop["poem_id"] for drop in stats["dropped"]]
    assert ids == ["q\\xff.txt:0", "q\\xff.txt:1"] * 2 + ["q\\xff.txt:1"]


@pytest.mark.parametrize(
    "argv",
    [["score", "{d}"], ["filter", "{d}", "--min-score", "0", "--out", "{d}/kept.txt"],
     ["quatrains", "{d}", "--out", "{d}/q.txt"],
     ["creativity", "--generated", "{d}", "--corpus", "{d}"]],
    ids=["score", "filter", "quatrains", "creativity"],
)
def test_directory_without_txt_files_exits_one(tmp_path, capsys, argv):
    (tmp_path / "notes.md").write_text("not a poem", encoding="utf-8")
    assert main([arg.format(d=tmp_path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{tmp_path}: directory has no *.txt files" in captured.err


@pytest.mark.parametrize(
    "argv",
    [["score", "{poems}", "--rules", "{rules}"],
     ["filter", "{poems}", "--min-score", "0", "--out", "{out}", "--rules", "{rules}"]],
    ids=["score", "filter"],
)
def test_non_utf8_rules_file_exits_one(tmp_path, capsys, argv):
    rules = tmp_path / "bad.txt"
    rules.write_bytes(b"an \xff ang\n")
    paths = {"poems": write(tmp_path, "poems.txt", KIEU + "\n"), "rules": str(rules),
             "out": str(tmp_path / "kept.txt")}
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{rules}: 'utf-8' codec can't decode byte 0xff" in captured.err
    assert not (tmp_path / "kept.txt").exists()


@pytest.mark.parametrize(
    "argv",
    [["score", "{poems}", "--rules", "{rules}"],
     ["filter", "{poems}", "--min-score", "0", "--out", "{out}", "--rules", "{rules}"]],
    ids=["score", "filter"],
)
@pytest.mark.parametrize(
    "rime", ["xâu", "\u00e1\u0300", "an1"], ids=["onset", "double-tone-mark", "digit"]
)
def test_invalid_rime_in_rules_file_exits_one(tmp_path, capsys, argv, rime):
    rules = write(tmp_path, "rules.txt", f"au {rime}\n")
    paths = {"poems": write(tmp_path, "poems.txt", KIEU + "\n"), "rules": rules,
             "out": str(tmp_path / "kept.txt")}
    assert main([arg.format(**paths) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lucbat {argv[0]}: error: bad rule table: invalid rime {rime!r}\n"
    assert not (tmp_path / "kept.txt").exists()


def test_rules_file_saved_with_a_bom_scores_as_the_builtin_table(tmp_path, capsys):
    builtin = (Path(lucbat.__file__).parent / "data" / "near_rhymes.txt").read_text("utf-8")
    rules = write(tmp_path, "rules.txt", "\ufeff" + builtin)
    broken = perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)])
    poems = write(tmp_path, "poems.txt", f"{KIEU}\n\n{broken}\n")
    assert main(["score", poems, "--format", "jsonl"]) == 0
    expected = capsys.readouterr()
    assert main(["score", poems, "--format", "jsonl", "--rules", rules]) == 0
    assert capsys.readouterr() == expected


class TestArgumentErrors:
    def test_unknown_flag(self, tmp_path, capsys):
        assert main(["score", "x.txt", "--bogus"]) == 1
        assert "--bogus" in capsys.readouterr().err

    def test_missing_argument(self, capsys):
        assert main(["filter", "in.txt", "--out", "o.txt"]) == 1
        err = capsys.readouterr().err
        assert "--min-score" in err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_input_file(self, tmp_path, capsys):
        assert main(["score", str(tmp_path / "absent.txt")]) == 1
        assert "error" in capsys.readouterr().err

    def test_jobs_flag_is_gone(self, tmp_path, capsys):
        path = write(tmp_path, "poems.txt", KIEU + "\n")
        assert main(["score", path, "--jobs", "2"]) == 1
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["score", "{poems}", "--weights", "nan,1"], "finite"),
            (["score", "{poems}", "--weights", "1,inf"], "finite"),
            (["score", "{poems}", "--weights", "1e308,1"], "at most 1e+06"),
            (["filter", "{poems}", "--min-score", "nan", "--out", "{out}"], "finite"),
            (["report", "{scores}", "--bins", "nan"], "finite"),
            (["report", "{scores}", "--bins", "inf"], "finite"),
            (["report", "{scores}", "--bins", "1e-9"], "at most 1000 bins"),
            (["report", "{scores}", "--bins", "0"], "positive"),
            (["losscheck", "--seed", "-1"], "--seed must be >= 0"),
            (["losscheck", "--dmodel", "17"], "--dmodel must be <= 16"),
            (["losscheck", "--dmodel", "100000"], "--dmodel must be <= 16"),
            (["losscheck", "--dhidden", "17"], "--dhidden must be <= 16"),
            (["losscheck", "--vocab", "1001"], "--vocab must be <= 1000"),
            (["losscheck", "--vocab", "10000000000"], "--vocab must be <= 1000"),
            (["losscheck", "--len", "33"], "--len must be <= 32"),
            (["losscheck", "--stanzas", "5"], "--stanzas must be <= 4"),
        ],
        ids=["weights-nan", "weights-inf", "weights-huge", "min-score-nan", "bins-nan",
             "bins-inf", "bins-tiny", "bins-zero", "losscheck-seed-negative",
             "losscheck-dmodel-over-cap", "losscheck-dmodel-huge", "losscheck-dhidden-over-cap",
             "losscheck-vocab-over-cap", "losscheck-vocab-huge", "losscheck-len-over-cap",
             "losscheck-stanzas-over-cap"],
    )
    def test_bad_numeric_flag_exits_one(self, tmp_path, capsys, argv, message):
        paths = {
            "poems": write(tmp_path, "poems.txt", KIEU + "\n"),
            "scores": write(tmp_path, "scores.txt", "95\n"),
            "out": str(tmp_path / "kept.txt"),
        }
        assert main([arg.format(**paths) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
        assert not (tmp_path / "kept.txt").exists()

    def test_cli_import_leaves_scipy_out(self):
        src = Path(lucbat.__file__).resolve().parent.parent
        probe = (f"import sys; sys.path.insert(0, {str(src)!r}); import lucbat.cli; "
                 "print('scipy' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        assert result.stdout.strip() == "False"

    def test_text_start_up_leaves_numpy_out(self):
        src = Path(lucbat.__file__).resolve().parent.parent
        probe = "\n".join([
            f"import sys; sys.path.insert(0, {str(src)!r})",
            "import lucbat, lucbat.cli",
            "assert lucbat.cli.main(['--version']) == 0",
            "print('numpy' in sys.modules)",
            "print(lucbat.gradient_check.__name__, lucbat.LstmParams.__name__,",
            "      lucbat.semloss.__name__)",
            "namespace = {}",
            "exec('from lucbat import *', namespace)",
            "print(all(name in namespace for name in lucbat.__all__))",
            "lucbat.cli.main(['losscheck', '--seed', '0'])",
        ])
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        lines = result.stdout.splitlines()
        assert lines[:4] == ["lucbat 0.1.0", "False",
                             "gradient_check LstmParams lucbat.semloss", "True"]
        assert lines[-1].endswith(": PASS")

    def test_text_commands_start_without_dataclasses_or_inspect(self, tmp_path):
        # the text records are named tuples; dataclasses would also load inspect, ast and dis
        poems = write(tmp_path, "poems.txt", KIEU + "\n")
        src = Path(lucbat.__file__).resolve().parent.parent
        probe = "\n".join([
            "import sys",
            "preloaded = set(sys.modules)",  # some hosts' site imports more than others
            f"sys.path.insert(0, {str(src)!r})",
            "import contextlib, io",
            "import lucbat, lucbat.cli",
            "with contextlib.redirect_stdout(io.StringIO()) as out:",
            "    assert lucbat.cli.main(['--version']) == 0",
            f"    assert lucbat.cli.main(['score', {poems!r}]) == 0",
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - preloaded)))",
            "print(out.getvalue())",
        ])
        result = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                                text=True, check=True)
        lines = result.stdout.splitlines()
        assert lines[:3] == ["[]", "lucbat 0.1.0", f"# {poems}:0 stanza 1"]
        assert "score=100.000" in result.stdout

    def test_semloss_names_match_the_lazy_table(self):
        assert set(lucbat._SEMLOSS_NAMES) == set(lucbat.semloss.__all__)

    def test_every_export_has_a_caller_outside_the_tests(self):
        # a public name must be used by the package, a demo or the benchmark; the
        # package's re-export table is not a use.  Reads the sources, imports nothing.
        root = Path(__file__).resolve().parent.parent
        sources = [path for folder in ("src", "demos", "perfbench")
                   for path in sorted((root / folder).rglob("*.py"))
                   if path != root / "src" / "lucbat" / "__init__.py"]
        used = set()
        for path in sources:
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    used.update(alias.name for alias in node.names)
        assert [name for name in lucbat.__all__ if name not in used] == []

    def test_package_exports_are_declared_by_their_modules(self):
        undeclared = [
            name for name in lucbat.__all__ if name != "__version__"
            if name not in sys.modules[getattr(lucbat, name).__module__].__all__
        ]
        assert undeclared == []

    def test_no_module_export_is_shadowed_by_another(self):
        assert len(lucbat.__all__) == len(set(lucbat.__all__))
        for module in (lucbat.syllable, lucbat.rules, lucbat.scoring, lucbat.corpus,
                       lucbat.creativity):
            for name in module.__all__:
                assert getattr(lucbat, name) is getattr(module, name), (module.__name__, name)

    def test_functions_the_benchmark_traces_exist(self, monkeypatch):
        # perfbench --trace 1 wraps these by name; a deleted one would only fail there
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        from perfbench.layers import TRACED

        missing = [
            f"{module}.{name}" for module, names in TRACED.items() for name in names
            if not callable(getattr(importlib.import_module(f"lucbat.{module}"), name, None))
        ]
        assert missing == []

    def test_one_traced_benchmark_rep_runs_clean_and_reports_every_layer(
            self, tmp_path, monkeypatch):
        # the traced run also calls lucbat functions outside TRACED (rhymes_with,
        # Stanza.syllable_at, Poem.lines, random_instance, contextual_vector, ...);
        # one rep at zero seconds runs each of them once
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent))
        monkeypatch.setattr(sys, "path", list(sys.path))
        from perfbench import layers
        from perfbench.spans import Recorder

        result = layers.trace_run("losscheck", 3, 0.0, tmp_path, Recorder())
        assert result["failed"] == 0
        assert {name: check.unexplained for name, check in result["checks"].items()} == {
            name: 0 for name in layers.PIPELINES}
        # semloss.import_ms is not measured yet: the CLI imports semloss lazily
        unreported = set(layers.per_layer_metrics()) - set(result["values"])
        assert unreported <= {"semloss.import_ms"}


# Field order of each public record.  A named tuple unpacks and compares in this order,
# so a reordered field would change callers' results without an error.
_RECORD_FIELDS = {
    "Syllable": ("raw", "normalized", "onset", "rime", "tone", "tone_class"),
    "RhymeChain": ("positions",),
    "Template": ("n_pairs", "rhyme_pairs", "tone_slots", "rhyme_positions", "tone_positions"),
    "Stanza": ("lines", "n_pairs"),
    "ScoreReport": ("n_pairs", "wrong_rhyme", "wrong_tone", "score", "rhyme_ok",
                    "actual_tones", "stanza"),
    "Histogram": ("bins", "below", "above"),
    "Poem": ("id", "text"),
    "FilterStats": ("kept_count", "dropped_count", "mean_score_kept", "dropped"),
    "PoemNovelty": ("poem_id", "copied_verses", "total_verses"),
    "CreativityReport": ("per_poem", "score"),
}


@pytest.mark.parametrize("name, fields", _RECORD_FIELDS.items(), ids=_RECORD_FIELDS)
def test_records_are_immutable_named_tuples(name, fields):
    record_type = getattr(lucbat, name)
    assert record_type._fields == fields
    values = tuple(f"value of {field}" for field in fields)
    record = record_type(**dict(zip(fields, values)))
    assert record == values
    assert tuple(getattr(record, field) for field in fields) == values
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


_VOWELS = "aăâeêioôơuưy"
_TONE_MARKS = "\u0300\u0301\u0303\u0309\u0323"
_LETTERS = "bcdđghklmnpqrstvx" + _VOWELS + "".join(
    unicodedata.normalize("NFC", vowel + mark) for vowel in _VOWELS for mark in _TONE_MARKS
)
# a BOM, curly quotes, an em dash and a zero-width space
_PROBE_CHARS = "\ufeff“”‘’—\u200b"
# the newlines, and separators that end a line for str.splitlines but not for lucbat
_LINE_CHARS = "\n\r\v\f\x85\u2028\u2029"
_CHARS = st.sampled_from(
    _LETTERS + _LETTERS.upper() + _TONE_MARKS + "".join(sorted(_PUNCTUATION))
    + _PROBE_CHARS + "0123456789" + _LINE_CHARS
)
_SYLLABLE = st.sampled_from(KIEU.split())
_LINE = st.lists(st.one_of(_SYLLABLE, st.text(_CHARS, min_size=1, max_size=6)), max_size=9)


def _verse(length):
    """A verse of ``length`` real syllables half the time, else any line."""
    return st.one_of(st.lists(_SYLLABLE, min_size=length, max_size=length), _LINE).map(" ".join)


# stanzas give scorable quatrains with all kinds of scores, Kieu the flawless 100;
# an empty line ends a poem
_STANZA = st.tuples(_verse(6), _verse(8), _verse(6), _verse(8)).map("\n".join)
_FILE_TEXT = st.lists(
    st.one_of(_STANZA, st.just(KIEU), _LINE.map(" ".join)), max_size=6
).map("\n".join)


# numeric flag values: finite, huge, tiny, negative, non-finite and malformed
_NUMBER = st.sampled_from(["1", "0.5", "50", "99.99", "100", "1e6", "1e308", "1e999", "1e-9",
                           "5e-324", "0", "-0.0", "-1", "-1e308", "inf", "-inf", "nan", "",
                           "abc", "1,", "0x10"])
# one draw in three is a pair of accepted weights, so weighted records get scored too
_WEIGHT = st.sampled_from(["1", "0.5", "2", "1e-9", "1e6"])
_WEIGHTS = st.one_of(st.tuples(_WEIGHT, _WEIGHT).map(",".join),
                     st.tuples(_NUMBER, _NUMBER).map(",".join), _NUMBER)
# losscheck flags: small values within the caps, or one past a cap
_LOSSCHECK_ARGS = st.tuples(*(
    st.sampled_from([least, least + 1] + ([] if most is None else [most + 1]))
    .map(lambda value, flag=flag: f"--{flag}={value}")
    for flag, (_, least, most) in LOSSCHECK_BOUNDS.items()
))


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(poems=_FILE_TEXT, corpus=_FILE_TEXT, weights=_WEIGHTS, min_score=_NUMBER,
       bins=_NUMBER, losscheck_args=_LOSSCHECK_ARGS)
def test_no_input_makes_a_command_exit_two(poems, corpus, weights, min_score, bins,
                                           losscheck_args):
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        (work / "poems.txt").write_text(poems, encoding="utf-8")
        (work / "corpus.txt").write_text(corpus, encoding="utf-8")

        def run(*argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = main([str(arg) for arg in argv])
            assert status in (0, 1), (argv, err.getvalue())
            return out.getvalue()

        # JSON Lines ends a record at "\n" alone; JSON escapes "\r", so _lines agrees
        def json_lines(text):
            for line in _lines(text):
                json.loads(line, parse_constant=_reject_constant)

        poem_file = work / "poems.txt"
        run("score", poem_file)
        scores = run("score", poem_file, "--format", "jsonl")
        json_lines(scores)
        weighted = run("score", poem_file, "--format", "jsonl", f"--weights={weights}")
        json_lines(weighted)
        # plain scores below, inside and above [0, 100] give report something to bin
        (work / "scores.jsonl").write_text(scores + weighted + "-3.5\n95\n100\n1e308\n",
                                           encoding="utf-8")
        for threshold in ("50", min_score):
            stats = run("filter", poem_file, f"--min-score={threshold}", "--out",
                        work / "kept.txt")
            if stats:
                json.loads(stats, parse_constant=_reject_constant)
        run("quatrains", poem_file, "--seed", "3", "--out", work / "q.txt")
        json_lines(run("creativity", "--generated", poem_file, "--corpus", work / "corpus.txt",
                       "--format", "jsonl"))
        run("report", poem_file)
        json_lines(run("report", work / "scores.jsonl", "--format", "jsonl"))
        json_lines(run("report", work / "scores.jsonl", "--format", "jsonl", f"--bins={bins}"))
        run("losscheck", *losscheck_args)
