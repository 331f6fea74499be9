"""Derive the benchmark's checked-in data tables from the repository, once.

    PYTHONPATH=src python3 perfbench/derive.py

writes

* ``data/vocab.tsv``: every syllable of ``tests/data/syllables.txt`` (text
  after ``#`` stripped) with its tone, tone class, tone-stripped rime, rhyme
  key and, for the oa/oe/uy rimes, the spelling with the tone mark on the
  other vowel ("hoà" for "hòa").  Rows are shuffled once, so that the row
  order, which sets the Zipf rank, does not follow the rime grouping of the
  source file.  The rhyme key is the near-rhyme group of the built-in rule
  table, or the rime itself when no group lists it: two syllables rhyme
  exactly when their keys are equal.
* ``data/loss_seeds.json``: ``losscheck`` seeds whose synthetic instance at
  the benchmark's dimensions has the same total sequence length, so that
  every benchmark seed gives the loss head the same amount of work.

The input generator reads these tables and never imports lucbat, so a later
change to the parser or the rule table cannot change the benchmark inputs.
Rerun this script only to change the benchmark.
"""

from __future__ import annotations

import json
import random
import unicodedata
from pathlib import Path

from lucbat import Tone, default_rule_table, parse_syllable, random_instance

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "tests" / "data" / "syllables.txt"

# Rimes whose tone mark sits on the first vowel in the traditional spelling
# and on the second in the "new" one.
ALT_PLACEMENT_RIMES = ("oa", "oe", "uy")
TONE_MARKS = "̣̀́̃̉"

# losscheck dimensions used by the benchmark.  P = 736 parameters, so each
# check makes 2P = 1472 serial loss evaluations; one stanza keeps a check
# near one second, so a run times many of them on a machine whose speed drifts.
LOSS_DIMS = {"d_model": 8, "d_hidden": 8, "vocab": 7, "max_len": 12, "n_stanzas": 1}
LOSS_TOTAL_LENGTH = 14
LOSS_SEED_COUNT = 32


def source_syllables() -> list[str]:
    tokens = []
    for line in SOURCE.read_text("utf-8").splitlines():
        tokens.extend(line.split("#", 1)[0].split())
    return tokens


def alt_spelling(syllable: str, rime: str, tone: Tone) -> str:
    """Move the tone mark from the first to the second vowel of the rime."""
    if rime not in ALT_PLACEMENT_RIMES or tone is Tone.NGANG:
        return ""
    decomposed = unicodedata.normalize("NFD", syllable)
    mark = next(ch for ch in decomposed if ch in TONE_MARKS)
    bare = decomposed.replace(mark, "")
    # the rime is the last two letters; put the mark after the last one
    alt = unicodedata.normalize("NFC", bare + mark)
    if alt == syllable or parse_syllable(alt).normalized != syllable:
        raise ValueError(f"no alternative spelling for {syllable!r}")
    return alt


def vocab_rows() -> list[tuple[str, ...]]:
    table = default_rule_table()
    rows = []
    for token in source_syllables():
        syl = parse_syllable(token)
        if syl.normalized != token:
            raise ValueError(f"{token!r} is not in canonical spelling")
        group = table.group_of(syl.rime)
        key = f"g{group}" if group is not None else f"r:{syl.rime}"
        klass = "L" if syl.tone_class.value == "level" else "O"
        rows.append((token, syl.tone.value, klass, syl.rime, key,
                     alt_spelling(token, syl.rime, syl.tone)))
    random.Random(0).shuffle(rows)
    return rows


def loss_seeds() -> list[int]:
    seeds = []
    seed = 0
    while len(seeds) < LOSS_SEED_COUNT:
        inst = random_instance(seed, **LOSS_DIMS)
        total = sum(len(x) for pair in inst["stanza_pairs"] for x in pair)
        if total == LOSS_TOTAL_LENGTH:
            seeds.append(seed)
        seed += 1
    return seeds


def main() -> None:
    rows = vocab_rows()
    header = "# syllable\ttone\tclass\trime\trhyme_key\talt_spelling\n"
    body = "".join("\t".join(row) + "\n" for row in rows)
    (HERE / "data" / "vocab.tsv").write_text(header + body, "utf-8")
    payload = {"dims": LOSS_DIMS, "total_length": LOSS_TOTAL_LENGTH, "seeds": loss_seeds()}
    (HERE / "data" / "loss_seeds.json").write_text(json.dumps(payload, indent=1) + "\n", "utf-8")
    print(f"{len(rows)} syllables, {len({r[3] for r in rows})} rimes, "
          f"{sum(1 for r in rows if r[5])} with an alternative spelling")


if __name__ == "__main__":
    main()
