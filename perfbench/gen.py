"""Seeded input generator for the benchmark workloads.

Everything here is drawn from ``data/vocab.tsv`` with ``random.Random``
streams keyed by the workload and the seed: the same seed gives
byte-identical files and plans.  The module never imports lucbat, so the
inputs do not depend on the code under test.

Each generator returns a plan: what was planted, and so what every output
must be.  Three kinds of poem are planted:

* regular: template-correct quatrains with R rhyme and T tone violations
  planted at known positions;
* malformed: inputs that lucbat must reject (a wrong syllable count, a
  token with a letter outside the Vietnamese alphabet, a line count that
  is not a multiple of 4);
* probes: known defects (a BOM, curly quotes, an em dash, a zero-width
  space, and in copied verses the other tone-mark placement).  Their
  correct output is that of the same text without the probe; today lucbat
  gets them wrong, and the oracle counts that in ``error_rate``.
"""

from __future__ import annotations

import bisect
import functools
import json
import random
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

SIX_TONES = {2: "L", 4: "O", 6: "L"}
EIGHT_TONES = {2: "L", 4: "O", 6: "L", 8: "L"}
LINE_LENGTHS = (6, 8, 6, 8)
# rhyme members of a quatrain and the anchor each is checked against
RHYME_MEMBERS = {(2, 6): (1, 6), (3, 6): (2, 8), (4, 6): (2, 8)}
RHYME_ANCHORS = ((1, 6), (2, 8))
# templated positions outside every rhyme chain: a tone flip there leaves R alone
TONE_SLOTS = tuple(
    (line, word)
    for line in (1, 2, 3, 4)
    for word in sorted(SIX_TONES if line % 2 else EIGHT_TONES)
    if (line, word) not in RHYME_MEMBERS and (line, word) not in RHYME_ANCHORS
)

# Violation counts per regular quatrain, as (value, weight).  With
# n = 2 pairs the score is 100 * (1 - R/5 - T/14), and FILTER_MIN_SCORE
# keeps R = 0 with T <= 2 and R = 1 with T = 0: about half the quatrains.
R_WEIGHTS = ((0, 50), (1, 20), (2, 20), (3, 10))
T_WEIGHTS = ((0, 40), (1, 25), (2, 15), (3, 10), (4, 10))
FILTER_MIN_SCORE = 79.0

MALFORMED_KINDS = ("syllable_count", "bad_token", "line_count")
TEXT_PROBES = ("bom", "curly_quotes", "em_dash", "zero_width_space")
CREATIVITY_PROBES = TEXT_PROBES + ("tone_placement",)
# loanwords with letters outside the Vietnamese alphabet
BAD_TOKENS = ("wifi", "zalo", "jazz", "fan", "web")
END_PUNCTUATION = (",", ".", "!", "?", ";", ":")

# Workload sizes.  score-jsonl and filter: POEMS poems of 1-3 quatrains
# (2 on average).  creativity: a corpus of CORPUS_POEMS quatrains and
# GENERATED_POEMS generated quatrains, so the index holds twice as many
# verses as are looked up.
POEMS = 600
MALFORMED_PER_KIND = 6
TEXT_PROBES_PER_KIND = 3
CORPUS_POEMS = 4000
GENERATED_POEMS = 2000
CREATIVITY_PROBES_PER_KIND = 8


@dataclass(frozen=True)
class Syl:
    text: str
    klass: str  # "L" level, "O" oblique
    key: str  # rhyme key: equal keys rhyme
    alt: str  # other tone-mark placement, or ""


def load_vocab() -> list[Syl]:
    rows = []
    for line in (DATA / "vocab.tsv").read_text("utf-8").splitlines():
        if line.startswith("#"):
            continue
        text, _tone, klass, _rime, key, alt = line.split("\t")
        rows.append(Syl(text, klass, key, alt))
    return rows


class Vocab:
    """Zipf-weighted draws (weight 1/rank, rank = row order) from sub-pools."""

    def __init__(self, rows: list[Syl]):
        self.rows = rows
        self._pools: dict[tuple, tuple[list[Syl], list[float]]] = {}
        for rank, syl in enumerate(rows, start=1):
            for pool in ((None, None), (syl.klass, None), (syl.klass, syl.key)):
                members, cum = self._pools.setdefault(pool, ([], []))
                members.append(syl)
                cum.append((cum[-1] if cum else 0.0) + 1.0 / rank)

    def draw(self, rng: random.Random, klass=None, key=None, not_key=None) -> Syl:
        members, cum = self._pools[(klass, key)]
        while True:
            syl = members[bisect.bisect(cum, rng.random() * cum[-1])]
            if syl.key != not_key:
                return syl


@functools.cache
def vocab() -> Vocab:
    return Vocab(load_vocab())


def score_of(r: int, t: int, n: int = 2) -> float:
    """The template formula, in the operation order lucbat uses."""
    return 100.0 * (1.0 - 1.0 * r / (3 * n - 1) - 1.0 * t / (7 * n))


def weighted(rng: random.Random, table) -> int:
    return rng.choices([v for v, _ in table], weights=[w for _, w in table])[0]


# --------------------------------------------------------------- quatrains


@dataclass
class Quatrain:
    words: list[list[str]]
    rhyme_bad: tuple = ()
    tone_bad: tuple = ()
    malformed: str = ""
    probe: str = ""
    lines: list[str] = field(default_factory=list)  # rendered text

    @property
    def r(self) -> int:
        return len(self.rhyme_bad)

    @property
    def t(self) -> int:
        return len(self.tone_bad)

    @property
    def text(self) -> str:
        return "\n".join(self.lines)


def make_quatrain(rng: random.Random, r: int, t: int) -> Quatrain:
    """A six-eight quatrain with r rhyme and t tone violations planted."""
    voc = vocab()
    rhyme_bad = tuple(sorted(rng.sample(sorted(RHYME_MEMBERS), r)))
    tone_bad = tuple(sorted(rng.sample(TONE_SLOTS, t)))
    anchors = {pos: voc.draw(rng, "L") for pos in RHYME_ANCHORS}
    words = []
    for line, length in enumerate(LINE_LENGTHS, start=1):
        template = SIX_TONES if length == 6 else EIGHT_TONES
        row = []
        for word in range(1, length + 1):
            pos = (line, word)
            if pos in anchors:
                syl = anchors[pos]
            elif pos in RHYME_MEMBERS:
                key = anchors[RHYME_MEMBERS[pos]].key
                if pos in rhyme_bad:
                    syl = voc.draw(rng, "L", not_key=key)
                else:
                    syl = voc.draw(rng, "L", key=key)
            elif word in template:
                klass = template[word]
                if pos in tone_bad:
                    klass = "O" if klass == "L" else "L"
                syl = voc.draw(rng, klass)
            else:
                syl = voc.draw(rng)
            row.append(syl.text)
        words.append(row)
    return Quatrain(words, rhyme_bad, tone_bad)


def render_line(rng: random.Random, words: list[str]) -> str:
    """Capitalize the first word; sometimes end the line with punctuation."""
    text = " ".join(words)
    text = text[:1].upper() + text[1:]
    if rng.random() < 0.5:
        text += rng.choice(END_PUNCTUATION)
    return text


def render(rng: random.Random, q: Quatrain) -> None:
    q.lines = [render_line(rng, row) for row in q.words]


def plant_malformed(rng: random.Random, q: Quatrain, kind: str) -> None:
    """Make one line of ``q`` unscorable: "syllable_count" or "bad_token"."""
    q.malformed = kind
    line = rng.randrange(4)
    row = list(q.words[line])
    if kind == "syllable_count":
        row = row[:-1] if rng.random() < 0.5 else row + row[:1]
    else:
        row[rng.randrange(len(row))] = rng.choice(BAD_TOKENS)
    q.lines[line] = render_line(rng, row)


def plant_text_probe(rng: random.Random, lines: list[str], index: int, kind: str) -> str:
    """Return line ``index`` carrying the probe; its verse identity is unchanged."""
    line = lines[index]
    words = line.split(" ")
    if kind == "bom":
        return "﻿" + line
    if kind == "curly_quotes":
        return "“" + line + "”"
    if kind == "em_dash":
        at = rng.randrange(1, len(words))
        return " ".join(words[:at] + ["—"] + words[at:])
    if kind == "zero_width_space":
        at = rng.randrange(len(words) - 1)
        words[at] += "​"
        return " ".join(words)
    raise ValueError(kind)


# ------------------------------------------------------------ poem corpora


@dataclass
class Poem:
    quatrains: list[Quatrain]
    malformed: str = ""  # one of MALFORMED_KINDS, or ""
    probe: str = ""  # one of TEXT_PROBES, or ""
    extra_line: str = ""  # planted for malformed == "line_count"

    @property
    def text(self) -> str:
        body = "\n".join(q.text for q in self.quatrains)
        return body + ("\n" + self.extra_line if self.extra_line else "")


def make_poems(rng: random.Random) -> list[Poem]:
    sizes = [1, 2, 3] * (POEMS // 3)
    rng.shuffle(sizes)
    special = rng.sample(range(POEMS), MALFORMED_PER_KIND * len(MALFORMED_KINDS)
                         + TEXT_PROBES_PER_KIND * len(TEXT_PROBES))
    kinds = {}
    for i, index in enumerate(special):
        if i < MALFORMED_PER_KIND * len(MALFORMED_KINDS):
            kinds[index] = ("malformed", MALFORMED_KINDS[i // MALFORMED_PER_KIND])
        else:
            j = i - MALFORMED_PER_KIND * len(MALFORMED_KINDS)
            kinds[index] = ("probe", TEXT_PROBES[j // TEXT_PROBES_PER_KIND])
    poems = []
    for index, size in enumerate(sizes):
        role, kind = kinds.get(index, ("", ""))
        quatrains = []
        for k in range(size):
            if role == "probe" and k == 0:
                q = make_quatrain(rng, 0, 0)
            else:
                q = make_quatrain(rng, weighted(rng, R_WEIGHTS), weighted(rng, T_WEIGHTS))
            render(rng, q)
            quatrains.append(q)
        poem = Poem(quatrains)
        if role == "malformed":
            poem.malformed = kind
            if kind == "line_count":
                poem.extra_line = render_line(rng, [vocab().draw(rng).text for _ in range(6)])
            else:
                plant_malformed(rng, rng.choice(quatrains), kind)
        elif role == "probe":
            # a BOM only ever starts a poem; the others go on any line
            q = quatrains[0]
            line = 0 if kind == "bom" else rng.randrange(4)
            q.lines[line] = plant_text_probe(rng, q.lines, line, kind)
            q.probe = poem.probe = kind
        poems.append(poem)
    return poems


def write_poems(path: Path, texts: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n\n".join(texts) + "\n")


def counts(items) -> dict:
    out: dict[str, int] = {}
    for item in items:
        if item:
            out[item] = out.get(item, 0) + 1
    return dict(sorted(out.items()))


# ----------------------------------------------------------------- workloads


def gen_score(seed: int, workdir: Path) -> dict:
    rng = random.Random(f"score-jsonl:{seed}")
    poems = make_poems(rng)
    write_poems(workdir / "poems.txt", [p.text for p in poems])
    return {
        "workload": "score-jsonl",
        "argv": [["score", "poems.txt", "--format", "jsonl"]],
        "file": "poems.txt",
        "poems": poems,
        "items": sum(len(p.quatrains) for p in poems),
        "probes": counts(p.probe for p in poems),
        "malformed": counts(p.malformed for p in poems),
    }


def gen_filter(seed: int, workdir: Path) -> dict:
    rng = random.Random(f"filter:{seed}")
    poems = make_poems(rng)
    write_poems(workdir / "poems.txt", [p.text for p in poems])
    quatrains = [q for p in poems if p.malformed != "line_count" for q in p.quatrains]
    return {
        "workload": "filter",
        "argv": [
            ["quatrains", "poems.txt", "--seed", str(seed), "--out", "q.txt"],
            ["filter", "q.txt", "--min-score", repr(FILTER_MIN_SCORE),
             "--out", "kept.txt", "--stats", "stats.json"],
        ],
        "poems": poems,
        "quatrains": quatrains,
        "min_score": FILTER_MIN_SCORE,
        "items": sum(len(p.quatrains) for p in poems),
        "probes": counts(q.probe for q in quatrains),
        "malformed": counts(p.malformed for p in poems),
    }


def vary(rng: random.Random, words: list[str]) -> str:
    """A copy of a verse that differs in case, ASCII punctuation or Unicode form."""
    style = rng.randrange(4)
    if style == 0:
        text = " ".join(words).upper()
    elif style == 1:
        text = " ".join(w.capitalize() for w in words)
    elif style == 2:
        text = ", ".join(words[:2]) + " " + " ".join(words[2:]) + rng.choice(END_PUNCTUATION)
    else:
        text = render_line(rng, words)
    if rng.random() < 0.5:
        text = unicodedata.normalize("NFD", text)
    return text


def gen_creativity(seed: int, workdir: Path) -> dict:
    rng = random.Random(f"creativity:{seed}")
    voc = vocab()
    corpus = []
    for _ in range(CORPUS_POEMS):
        q = make_quatrain(rng, 0, 0)
        render(rng, q)
        corpus.append(q)
    verses = [row for q in corpus for row in q.words]
    known = {" ".join(row) for row in verses}
    by_length = {6: [v for v in verses if len(v) == 6], 8: [v for v in verses if len(v) == 8]}
    alt_of = {s.text: s.alt for s in voc.rows if s.alt}
    with_alt = {n: [v for v in pool if any(w in alt_of for w in v)] for n, pool in by_length.items()}

    n_probe = CREATIVITY_PROBES_PER_KIND * len(CREATIVITY_PROBES)
    probe_of = dict(zip(rng.sample(range(GENERATED_POEMS), n_probe),
                        [k for k in CREATIVITY_PROBES for _ in range(CREATIVITY_PROBES_PER_KIND)]))
    generated = []
    for index in range(GENERATED_POEMS):
        probe = probe_of.get(index, "")
        copied = rng.randint(1 if probe else 0, 4)
        slots = set(rng.sample(range(4), copied))
        if probe == "bom" and 0 not in slots:
            slots = (slots - {max(slots)}) | {0}
        probe_slot = 0 if probe == "bom" else (rng.choice(sorted(slots)) if probe else -1)
        lines = []
        for slot, length in enumerate(LINE_LENGTHS):
            if slot == probe_slot and probe == "tone_placement":
                words = list(rng.choice(with_alt[length]))
                at = rng.choice([i for i, w in enumerate(words) if w in alt_of])
                words[at] = alt_of[words[at]]
                lines.append(vary(rng, words))
            elif slot in slots:
                lines.append(vary(rng, rng.choice(by_length[length])))
            else:
                while True:
                    words = [voc.draw(rng).text for _ in range(length)]
                    if " ".join(words) not in known:
                        break
                lines.append(render_line(rng, words))
            if slot == probe_slot and probe != "tone_placement":
                lines[slot] = plant_text_probe(rng, lines, slot, probe)
        generated.append({"lines": lines, "copied": copied, "probe": probe})
    write_poems(workdir / "corpus.txt", [q.text for q in corpus])
    write_poems(workdir / "generated.txt", ["\n".join(g["lines"]) for g in generated])
    return {
        "workload": "creativity",
        "argv": [["creativity", "--generated", "generated.txt", "--corpus", "corpus.txt",
                  "--format", "jsonl"]],
        "file": "generated.txt",
        "generated": generated,
        "items": 4 * (CORPUS_POEMS + GENERATED_POEMS),
        "probes": counts(g["probe"] for g in generated),
        "malformed": {},
    }


def gen_losscheck(seed: int, workdir: Path) -> dict:
    table = json.loads((DATA / "loss_seeds.json").read_text("utf-8"))
    loss_seed = table["seeds"][seed % len(table["seeds"])]
    dims = table["dims"]
    d, h = dims["d_model"], dims["d_hidden"]
    n_params = 3 * d * d + 4 * h * (d + h + 1)
    return {
        "workload": "losscheck",
        "argv": [["losscheck", "--seed", str(loss_seed), "--dmodel", str(d), "--dhidden", str(h),
                  "--vocab", str(dims["vocab"]), "--len", str(dims["max_len"]),
                  "--stanzas", str(dims["n_stanzas"])]],
        "loss_seed": loss_seed,
        "loss_dims": dims,
        "n_parameters": n_params,
        "items": 2 * n_params,
        "probes": {},
        "malformed": {},
    }


GENERATORS = {
    "score-jsonl": gen_score,
    "filter": gen_filter,
    "creativity": gen_creativity,
    "losscheck": gen_losscheck,
}


def generate(workload: str, seed: int, workdir: Path) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    plan = GENERATORS[workload](seed, workdir)
    plan["seed"] = seed
    return plan
