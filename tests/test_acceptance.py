"""Acceptance suite: one test per release criterion, one line printed each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
per-criterion lines inline).
"""

import itertools
import json
import math
import sys
import time

import numpy as np
import pytest

from lucbat import (
    VerseIndex,
    attention_weights,
    build_rhyme_chains,
    build_verse_index,
    ce_loss,
    corpus_from_text,
    creativity_score,
    filter_by_score,
    gradient_check,
    parse_syllable,
    rhymes_with,
    score_stanza,
    segment_stanza,
    split_and_shuffle,
)
from lucbat.cli import main
from lucbat.rules import EIGHT_LINE_TONES, SIX_LINE_TONES
from lucbat.syllable import ONSETS
from conftest import KIEU
from helpers import (
    QUATRAIN_RHYME_MEMBERS,
    QUATRAIN_TONE_POSITIONS,
    brute_force_score,
    perturb_quatrain,
)
from test_syllable import SYLLABLES


def _report(line):
    print(f"ACCEPTANCE PASS: {line}", file=sys.stderr)


def test_c1_formula_exactness_sweep(table):
    started = time.monotonic()
    for wrong_rhyme, wrong_tone in itertools.product(range(3), range(15)):
        breaks = QUATRAIN_RHYME_MEMBERS[1 : 1 + wrong_rhyme]  # (3,6), (4,6)
        flips = QUATRAIN_TONE_POSITIONS[:wrong_tone]
        text = perturb_quatrain(KIEU, tone_flips=flips, rhyme_breaks=breaks)
        report = score_stanza(segment_stanza(text), table)
        assert report.wrong_rhyme == wrong_rhyme
        assert report.wrong_tone == wrong_tone
        expected = brute_force_score(2, wrong_rhyme, wrong_tone)
        assert abs(report.score - expected) <= 1e-9
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"sweep took {elapsed:.2f}s"
    _report(f"formula exact over (R,T) in 3x15 sweep, {elapsed * 1000:.0f} ms")


def test_c2_canonical_stanza(table):
    report = score_stanza(segment_stanza(KIEU), table)
    assert report.score == 100.0
    assert report.wrong_rhyme == 0 and report.wrong_tone == 0
    quantum = 100.0 / 14.0
    for position in QUATRAIN_TONE_POSITIONS:
        flipped = perturb_quatrain(KIEU, tone_flips=[position])
        flipped_report = score_stanza(segment_stanza(flipped), table)
        assert flipped_report.wrong_tone == 1
        assert flipped_report.wrong_rhyme == 0
        assert abs((100.0 - flipped_report.score) - quantum) <= 1e-9
    _report("canonical stanza scores 100; every tone flip costs exactly 100/14")


def test_c3_chain_count_law():
    for n in range(1, 51):
        chains = build_rhyme_chains(n)
        positions = [p for chain in chains for p in chain.positions]
        assert len(positions) == 3 * n - 1
        assert len(set(positions)) == len(positions)
        tone_positions = 0
        for line in range(1, 2 * n + 1):
            template = SIX_LINE_TONES if line % 2 else EIGHT_LINE_TONES
            tone_positions += len(template)
        assert tone_positions == 7 * n
    _report("chain positions total 3n-1 and tone positions 7n for n=1..50")


def test_c4_creativity_oracle():
    index = VerseIndex([f"câu huấn luyện số {k}" for k in range(1, 5)])
    expected = {0: 1.0, 1: 0.75, 2: 0.5, 3: 0.25, 4: 0.0}
    for copied, want in expected.items():
        verses = [f"câu huấn luyện số {k}" for k in range(1, copied + 1)]
        verses += [f"câu sáng tác mới {k}" for k in range(4 - copied)]
        generated = corpus_from_text("\n".join(verses) + "\n")
        report = creativity_score(generated, index)
        assert report.score == want
    _report("planted overlap fractions reproduce C in {1, .75, .5, .25, 0} exactly")


def test_c5_pipeline_determinism(tmp_path, capsys, table):
    # library level: identical corpora and seed give identical splits
    corpus = corpus_from_text("\n\n".join([KIEU, KIEU + "\n" + KIEU]))
    first, _ = split_and_shuffle(corpus, seed=123)
    second, _ = split_and_shuffle(corpus, seed=123)
    assert [(p.id, p.text) for p in first.poems] == [
        (p.id, p.text) for p in second.poems
    ]

    # filter output re-scores at or above the threshold on a second pass
    mixed = corpus_from_text(
        "\n\n".join([KIEU, perturb_quatrain(KIEU, tone_flips=[(1, 2)])])
    )
    kept, _ = filter_by_score(mixed, table, min_score=95.0)
    for poem in kept.poems:
        assert score_stanza(segment_stanza(poem.text), table).score >= 95.0

    # CLI level: every command is byte-reproducible for fixed inputs/seed
    poems = tmp_path / "poems.txt"
    poems.write_text(KIEU + "\n\n" + KIEU + "\n" + KIEU + "\n", encoding="utf-8")
    scores = tmp_path / "scores.txt"
    scores.write_text("100\n95\n80\n61\n", encoding="utf-8")
    gen = tmp_path / "gen.txt"
    gen.write_text("một câu thơ rất mới\n", encoding="utf-8")

    def run_twice(argv, files=()):
        outputs = []
        for _ in range(2):
            assert main(list(argv)) in (0,)
            captured = capsys.readouterr()
            blobs = [captured.out]
            for name in files:
                blobs.append((tmp_path / name).read_bytes())
            outputs.append(blobs)
        assert outputs[0] == outputs[1], f"non-deterministic: {argv}"

    run_twice(["score", str(poems), "--format", "jsonl"])
    run_twice(["quatrains", str(poems), "--seed", "7", "--out", str(tmp_path / "q.txt")],
              files=["q.txt"])
    run_twice(["filter", str(poems), "--min-score", "90", "--out",
               str(tmp_path / "kept.txt"), "--stats", str(tmp_path / "stats.json")],
              files=["kept.txt", "stats.json"])
    run_twice(["creativity", "--generated", str(gen), "--corpus", str(poems),
               "--format", "jsonl"])
    run_twice(["report", str(scores), "--format", "jsonl"])
    run_twice(["losscheck", "--seed", "5"])
    _report("split/shuffle and all six CLI commands byte-reproducible; filter rescored clean")


def test_c6_loss_mechanism():
    started = time.monotonic()
    # cross-entropy against a naive softmax oracle, 100 random instances
    rng = np.random.default_rng(2024)
    for _ in range(100):
        m = int(rng.integers(2, 8))
        vocab = int(rng.integers(2, 17))
        logits = 4.0 * rng.standard_normal((m, vocab))
        ids = [int(rng.integers(1, vocab + 1)) for _ in range(m - 1)]
        naive = -sum(
            math.log(
                float(np.exp(logits[row][tid - 1]) / np.exp(logits[row]).sum())
            )
            for row, tid in enumerate(ids)
        ) / (m - 1)
        assert abs(ce_loss(logits, ids) - naive) <= 1e-10

    # analytic gradients vs central differences, 20 seeds, capped dimensions
    worst = 0.0
    for seed in range(20):
        report = gradient_check(
            seed=seed,
            d_model=3 + seed % 6,        # <= 8
            d_hidden=2 + seed % 7,       # <= 8
            vocab=5 + seed % 12,         # <= 16
            max_len=4 + seed % 9,        # <= 12
            n_stanzas=1 + seed % 3,
        )
        worst = max(worst, report.max_relative_error)
        assert report.passed, f"seed {seed}: {report.max_relative_error}"
    elapsed = time.monotonic() - started
    assert worst <= 1e-4
    assert elapsed < 30.0, f"loss suite took {elapsed:.1f}s"
    _report(
        f"ce oracle x100 at 1e-10; gradients over 20 seeds, "
        f"worst rel err {worst:.2e}, {elapsed:.1f}s"
    )


def test_c7_invariant_suites(table):
    # parser round-trip over the curated list
    assert len(SYLLABLES) >= 200
    from lucbat.syllable import mark_rime

    for token in SYLLABLES:
        syllable = parse_syllable(token)
        assert syllable.onset + mark_rime(syllable.rime, syllable.tone) == (
            syllable.normalized
        )
        assert syllable.onset == "" or syllable.onset in ONSETS
        assert syllable.rime[0] in "aăâeêioôơuưy"

    # rhyme compatibility is an equivalence relation on a word sample
    words = [parse_syllable(w) for w in
             ["ta", "là", "nhau", "dâu", "đau", "lòng", "trường", "xanh", "đời", "người"]]
    for a in words:
        assert rhymes_with(a, a, table)
    for a, b in itertools.permutations(words, 2):
        assert rhymes_with(a, b, table) == rhymes_with(b, a, table)
    for a, b, c in itertools.permutations(words, 3):
        if rhymes_with(a, b, table) and rhymes_with(b, c, table):
            assert rhymes_with(a, c, table)

    # score monotonicity: one extra violation never raises the score
    previous = 100.0
    flips = []
    for position in QUATRAIN_TONE_POSITIONS:
        flips.append(position)
        text = perturb_quatrain(KIEU, tone_flips=flips)
        score = score_stanza(segment_stanza(text), table).score
        assert score < previous
        previous = score

    # attention rows are convex combinations
    rng = np.random.default_rng(77)
    from lucbat import AttentionParams, LstmParams, semloss

    for _ in range(10):
        x = rng.standard_normal((5, 4))
        weights = attention_weights(x, AttentionParams.random(rng, 4))
        assert np.all(weights >= 0.0)
        assert np.allclose(weights.sum(axis=1), 1.0, atol=1e-12)

    # LSTM outputs bounded: gates in (0,1) force |h| < 1
    for _ in range(10):
        x = rng.standard_normal((7, 3))
        lstm = LstmParams.random(rng, 3, 4)
        _, hidden, _ = semloss._recurrence(x[None], lstm.U[None], lstm.W[None], lstm.b[None])
        assert np.all(np.abs(hidden) < 1.0)

    # verse index idempotence witness
    index = build_verse_index(corpus_from_text("Một, Hai!\nba BỐN…\n"))
    from lucbat import normalize_verse

    assert all(normalize_verse(v) == v for v in index._verses)
    _report("module invariant suites green (parser, rhyme laws, monotonicity, "
            "attention convexity, LSTM bounds)")
