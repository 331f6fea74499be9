"""Stanza segmentation and template scoring.

The template score of a stanza with n six-eight pairs is

    score = 100 * (1 - R/(3n-1) - T/(7n))

where R counts rhyme-chain members that fail against their chain's anchor
and T counts templated positions with the wrong tone class.  A flawless
stanza scores 100; the value is reported unclamped, so badly broken input
can go negative.  Optional weights scale the two penalty terms.

Only non-anchor chain members can be "wrong": the anchor defines the rhyme
its chain is checked against, so at most 2n of the 3n-1 rhyme positions are
penalizable.

Segmentation takes the canonical verse of every line of the stanza from
one :func:`~lucbat.syllable.normalize_verses` pass (lowercase, NFC,
punctuation and whitespace to single spaces), takes each verse's tokens
with one ``str.split`` and parses a line with one ``map`` over the memoized
:func:`~lucbat.syllable.parse_syllable`.

The template depends on n alone, so :func:`lucbat.rules.template` is
compiled into one stanza shape per n (``_shape``): the rhyme pairs and tone
slots as zero-based indices into :attr:`Stanza.lines`, the expected tone
classes, the two denominators and the JSON fragments of every diagnostic.
Its three readers share that one entry: :func:`score_stanza` walks the
indices, keeping one rhyme verdict per rhyme pair and one tone class per
tone slot in the template's order; :func:`report_record` fills the
fragments in, so its JSONL line is byte-identical to ``json.dumps(record,
ensure_ascii=False, sort_keys=True, allow_nan=False)`` of the nested record
dict; and :func:`annotate_stanza` marks words at the same indices.
"""

from __future__ import annotations

import functools
import json
import math
from json.encoder import encode_basestring
from operator import is_not
from typing import NamedTuple

from .rules import Position, RuleTable, template
from .syllable import (
    LucBatError,
    NotASyllable,
    Syllable,
    ToneClass,
    _lines,
    normalize_verses,
    parse_syllable,
)

__all__ = [
    "Stanza",
    "ScoreReport",
    "Histogram",
    "OddLineCount",
    "WrongSyllableCount",
    "UnparseableToken",
    "EmptyInput",
    "segment_stanza",
    "score_stanza",
    "split_quatrains",
    "histogram",
    "report_record",
    "annotate_stanza",
]

# histogram() bins scores over [0, HISTOGRAM_HI]; a flawless stanza scores 100
HISTOGRAM_HI = 100.0
# histogram() refuses more bins than this; a tiny width would allocate billions of them
MAX_BINS = 1000


class OddLineCount(LucBatError):
    """Line count cannot be grouped into six-eight pairs (or quatrains)."""


class WrongSyllableCount(LucBatError):
    def __init__(self, line: int, expected: int, got: int):
        super().__init__(f"line {line}: expected {expected} syllables, got {got}")
        self.line = line
        self.expected = expected
        self.got = got


class UnparseableToken(LucBatError):
    def __init__(self, line: int, token: str, reason: str):
        super().__init__(f"line {line}: cannot parse {token!r} ({reason})")
        self.line = line
        self.token = token
        self.reason = reason


class EmptyInput(LucBatError):
    """No data to aggregate."""


class Stanza(NamedTuple):
    """Validated lines of parsed syllables, alternating six and eight."""

    lines: tuple[tuple[Syllable, ...], ...]
    n_pairs: int

    def syllable_at(self, position: Position) -> Syllable:
        line, word = position
        return self.lines[line - 1][word - 1]


class ScoreReport(NamedTuple):
    """Score of one stanza.

    ``rhyme_ok`` and ``actual_tones`` line up with the ``rhyme_pairs`` and
    ``tone_slots`` of the :func:`~lucbat.rules.template` of ``n_pairs``.
    """

    n_pairs: int
    wrong_rhyme: int
    wrong_tone: int
    score: float
    rhyme_ok: tuple[bool, ...]
    actual_tones: tuple[ToneClass, ...]
    stanza: Stanza


def segment_stanza(raw_poem: str) -> Stanza:
    """Tokenize and validate a stanza.

    Lines are normalized (case, punctuation, whitespace, Unicode form) in one
    pass over the stanza and split on spaces; blank lines are dropped.  Line
    lengths must alternate 6, 8, 6, 8, ...
    """
    lines = [tokens for tokens in map(str.split, normalize_verses(raw_poem)) if tokens]
    if not lines or len(lines) % 2 != 0:
        raise OddLineCount(f"need an even number of lines, got {len(lines)}")
    parsed_lines = []
    for lineno, tokens in enumerate(lines, start=1):
        expected = 6 if lineno % 2 == 1 else 8
        if len(tokens) != expected:
            raise WrongSyllableCount(lineno, expected, len(tokens))
        try:
            parsed_lines.append(tuple(map(parse_syllable, tokens)))
        except NotASyllable as exc:
            raise UnparseableToken(lineno, exc.token, str(exc)) from exc
    return Stanza(lines=tuple(parsed_lines), n_pairs=len(lines) // 2)


_JSON_BOOL = ("false", "true")


@functools.lru_cache(maxsize=128)  # bounded like rules.template
def _shape(n_pairs: int) -> tuple:
    """``template(n_pairs)`` compiled for the three readers of a stanza's report.

    Returns the plain tuple (members, anchors, slots, expected, rhyme_positions,
    tone_positions, rhyme, tone, tail).  Rhyme pair k compares ``members[k]``
    with ``anchors[k]``, and tone slot k is ``slots[k]`` with expected class
    ``expected[k]``, all zero-based ``(line, word)`` indices into
    ``Stanza.lines`` in the template's order.  ``rhyme[k][ok]`` is the JSON
    text of rhyme pair k's diagnostic, ``tone[k][actual is LEVEL]`` tone slot
    k's, and ``tail`` the text that follows the tone list up to the poem id.
    """
    compiled = template(n_pairs)
    members, anchors = (
        tuple((line - 1, word - 1) for line, word in positions)
        for positions in zip(*compiled.rhyme_pairs)
    )
    slots = tuple((line - 1, word - 1) for (line, word), _ in compiled.tone_slots)
    expected = tuple(expected for _, expected in compiled.tone_slots)
    rhyme = tuple(
        tuple(
            f'{{"anchor": [{a_line}, {a_word}], "ok": {_JSON_BOOL[ok]}, '
            f'"position": [{line}, {word}]}}'
            for ok in (False, True)
        )
        for (line, word), (a_line, a_word) in compiled.rhyme_pairs
    )
    tone = tuple(
        tuple(
            f'{{"actual": {encode_basestring(actual.value)}, '
            f'"expected": {encode_basestring(expected.value)}, '
            f'"ok": {_JSON_BOOL[actual is expected]}, "position": [{line}, {word}]}}'
            for actual in (ToneClass.OBLIQUE, ToneClass.LEVEL)
        )
        for (line, word), expected in compiled.tone_slots
    )
    return (
        members, anchors, slots, expected, compiled.rhyme_positions, compiled.tone_positions,
        rhyme, tone, f']}}, "n": {n_pairs}, "poem_id": ',
    )


def score_stanza(
    stanza: Stanza,
    table: RuleTable,
    w_rhyme: float = 1.0,
    w_tone: float = 1.0,
) -> ScoreReport:
    """Count violations and apply the template formula.

    ``w_rhyme``/``w_tone`` rescale the two penalty terms; the defaults give
    the plain formula.
    """
    members, anchors, slots, expected, rhyme_positions, tone_positions, _, _, _ = _shape(
        stanza.n_pairs)
    lines = stanza.lines
    rhyme_ok = tuple(map(
        table.compatible,
        [lines[line][word].rime for line, word in members],
        [lines[line][word].rime for line, word in anchors],
    ))
    actual_tones = tuple([lines[line][word].tone_class for line, word in slots])
    wrong_rhyme = rhyme_ok.count(False)
    wrong_tone = sum(map(is_not, actual_tones, expected))
    score = 100.0 * (
        1.0
        - w_rhyme * wrong_rhyme / rhyme_positions
        - w_tone * wrong_tone / tone_positions
    )
    return ScoreReport(
        n_pairs=stanza.n_pairs,
        wrong_rhyme=wrong_rhyme,
        wrong_tone=wrong_tone,
        score=score,
        rhyme_ok=rhyme_ok,
        actual_tones=actual_tones,
        stanza=stanza,
    )


def split_quatrains(raw_poem: str) -> list[str]:
    """Split a poem into consecutive 4-line stanzas (lines stripped, blanks ignored)."""
    lines = [line.strip() for line in _lines(raw_poem) if line.strip()]
    if not lines or len(lines) % 4 != 0:
        raise OddLineCount(
            f"poem has {len(lines)} lines; quatrain split needs a multiple of 4"
        )
    return ["\n".join(lines[i : i + 4]) for i in range(0, len(lines), 4)]


class Histogram(NamedTuple):
    bins: tuple[tuple[float, float, int], ...]  # (lo, hi, count)
    below: int
    above: int


def histogram(scores: list[float], bin_width: float = 10.0) -> Histogram:
    """Bin scores over the fixed range [0, 100] into right-exclusive bins; the last includes 100.

    Scores outside [0, 100] are tallied separately in ``below``/``above``.  A
    ``bin_width`` that is not finite and positive, or that gives more than
    ``MAX_BINS`` bins, raises ``ValueError``.
    """
    if not scores:
        raise EmptyInput("no scores to bin")
    if not 0 < bin_width < math.inf or HISTOGRAM_HI / bin_width > MAX_BINS:
        raise ValueError(f"bin_width must be finite, positive and give at most {MAX_BINS} bins")
    n_bins = math.ceil(HISTOGRAM_HI / bin_width)
    counts = [0] * n_bins
    below = above = 0
    for score in scores:
        if score < 0:
            below += 1
        elif score > HISTOGRAM_HI:
            above += 1
        else:
            index = min(int(score / bin_width), n_bins - 1)
            counts[index] += 1
    bins = []
    for k in range(n_bins):
        bin_lo = k * bin_width
        bin_hi = min((k + 1) * bin_width, HISTOGRAM_HI)
        bins.append((bin_lo, bin_hi, counts[k]))
    return Histogram(bins=tuple(bins), below=below, above=above)


def report_record(poem_id: str, stanza_index: int, report: ScoreReport) -> str:
    """The JSONL scoring record of one stanza, as one line of JSON text.

    The keys, in sorted order: ``R``, ``T``, ``diagnostics`` (``rhyme`` and
    ``tone`` lists, one object per rhyme pair and tone slot of the template),
    ``n``, ``poem_id``, ``score`` and ``stanza_index``.  A non-finite score
    raises the ``ValueError`` that ``json.dumps(..., allow_nan=False)``
    raises.
    """
    score = report.score
    if not math.isfinite(score):
        json.dumps(score, allow_nan=False)  # raises json's own ValueError
    _, _, _, _, _, _, rhyme, tone, tail = _shape(report.n_pairs)
    level = ToneClass.LEVEL
    return (
        f'{{"R": {int.__repr__(report.wrong_rhyme)}, "T": {int.__repr__(report.wrong_tone)}, '
        '"diagnostics": {"rhyme": ['
        + ", ".join([forms[ok] for forms, ok in zip(rhyme, report.rhyme_ok)])
        + '], "tone": ['
        + ", ".join([forms[actual is level] for forms, actual in zip(tone, report.actual_tones)])
        + tail
        + encode_basestring(poem_id)
        + f', "score": {float.__repr__(score)}, "stanza_index": {int.__repr__(stanza_index)}}}'
    )


def annotate_stanza(report: ScoreReport) -> str:
    """Human-readable rendering of the report's stanza with each violating word marked.

    Words failing a rhyme check get ``[R]``, a tone check ``[T]``; a final
    summary line carries the counts and the score.
    """
    members, _, slots, expected, _, _, _, _, _ = _shape(report.n_pairs)
    words = [[syllable.normalized for syllable in line] for line in report.stanza.lines]
    for (line, word), ok in zip(members, report.rhyme_ok):
        if not ok:
            words[line][word] += "[R]"
    for (line, word), want, actual in zip(slots, expected, report.actual_tones):
        if actual is not want:
            words[line][word] += "[T]"
    out = [" ".join(line) for line in words]
    out.append(
        f"n={report.n_pairs} R={report.wrong_rhyme} T={report.wrong_tone} "
        f"score={report.score:.3f}"
    )
    return "\n".join(out)
