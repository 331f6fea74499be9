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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .rules import (
    EIGHT_LINE_TONES,
    Position,
    RuleTable,
    SIX_LINE_TONES,
    build_rhyme_chains,
    rhymes_with,
)
from .syllable import (
    LucBatError,
    NotASyllable,
    MultipleToneMarks,
    Syllable,
    ToneClass,
    normalize_verse,
    parse_syllable,
)

__all__ = [
    "Stanza",
    "ScoreReport",
    "RhymeDiagnostic",
    "ToneDiagnostic",
    "Histogram",
    "OddLineCount",
    "WrongSyllableCount",
    "UnparseableToken",
    "EmptyInput",
    "segment_stanza",
    "score_stanza",
    "score_poem",
    "histogram",
    "report_record",
    "annotate_stanza",
]

# histogram() bins scores over [0, HISTOGRAM_HI]; a flawless stanza scores 100
HISTOGRAM_HI = 100.0


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


@dataclass(frozen=True)
class Stanza:
    """Validated lines of parsed syllables, alternating six and eight."""

    lines: tuple[tuple[Syllable, ...], ...]
    n_pairs: int

    def syllable_at(self, position: Position) -> Syllable:
        line, word = position
        return self.lines[line - 1][word - 1]

    def text(self) -> str:
        return "\n".join(" ".join(s.normalized for s in line) for line in self.lines)


class RhymeDiagnostic(NamedTuple):
    position: Position
    anchor: Position
    ok: bool


class ToneDiagnostic(NamedTuple):
    position: Position
    expected: ToneClass
    actual: ToneClass
    ok: bool


@dataclass(frozen=True)
class ScoreReport:
    n_pairs: int
    wrong_rhyme: int
    wrong_tone: int
    score: float
    rhyme_diagnostics: tuple[RhymeDiagnostic, ...]
    tone_diagnostics: tuple[ToneDiagnostic, ...]
    stanza: Stanza


def segment_stanza(raw_poem: str) -> Stanza:
    """Tokenize and validate a stanza.

    Lines are normalized (case, punctuation, Unicode form) before
    tokenization; blank lines are dropped.  Line lengths must alternate
    6, 8, 6, 8, ...
    """
    lines = [normalize_verse(line) for line in raw_poem.splitlines()]
    lines = [line for line in lines if line]
    if not lines or len(lines) % 2 != 0:
        raise OddLineCount(f"need an even number of lines, got {len(lines)}")
    parsed_lines = []
    for lineno, line in enumerate(lines, start=1):
        expected = 6 if lineno % 2 == 1 else 8
        tokens = line.split(" ")
        if len(tokens) != expected:
            raise WrongSyllableCount(lineno, expected, len(tokens))
        parsed = []
        for token in tokens:
            try:
                parsed.append(parse_syllable(token))
            except (NotASyllable, MultipleToneMarks) as exc:
                raise UnparseableToken(lineno, token, str(exc)) from exc
        parsed_lines.append(tuple(parsed))
    return Stanza(lines=tuple(parsed_lines), n_pairs=len(lines) // 2)


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
    n = stanza.n_pairs
    rhyme_diags = []
    for chain in build_rhyme_chains(n):
        anchor = stanza.syllable_at(chain.anchor)
        for position in chain.members:
            ok = rhymes_with(stanza.syllable_at(position), anchor, table)
            rhyme_diags.append(RhymeDiagnostic(position, chain.anchor, ok))
    tone_diags = []
    for line_index, line in enumerate(stanza.lines, start=1):
        template = SIX_LINE_TONES if line_index % 2 == 1 else EIGHT_LINE_TONES
        for word_index, expected in template.items():
            actual = line[word_index - 1].tone_class
            tone_diags.append(
                ToneDiagnostic((line_index, word_index), expected, actual, expected is actual)
            )
    wrong_rhyme = sum(1 for d in rhyme_diags if not d.ok)
    wrong_tone = sum(1 for d in tone_diags if not d.ok)
    score = 100.0 * (
        1.0 - w_rhyme * wrong_rhyme / (3 * n - 1) - w_tone * wrong_tone / (7 * n)
    )
    return ScoreReport(
        n_pairs=n,
        wrong_rhyme=wrong_rhyme,
        wrong_tone=wrong_tone,
        score=score,
        rhyme_diagnostics=tuple(rhyme_diags),
        tone_diagnostics=tuple(tone_diags),
        stanza=stanza,
    )


def split_quatrains(raw_poem: str) -> list[str]:
    """Split a poem into consecutive 4-line stanzas (lines stripped, blanks ignored)."""
    lines = [line.strip() for line in raw_poem.splitlines() if line.strip()]
    if not lines or len(lines) % 4 != 0:
        raise OddLineCount(
            f"poem has {len(lines)} lines; quatrain split needs a multiple of 4"
        )
    return ["\n".join(lines[i : i + 4]) for i in range(0, len(lines), 4)]


def score_poem(
    raw_poem: str,
    table: RuleTable,
    w_rhyme: float = 1.0,
    w_tone: float = 1.0,
) -> tuple[list[ScoreReport], float]:
    """Score every quatrain of a poem; returns (reports, mean score).

    Segmentation errors are re-raised with a ``stanza_index`` attribute
    (1-based) naming the offending quatrain.
    """
    reports = []
    for index, quatrain in enumerate(split_quatrains(raw_poem), start=1):
        try:
            stanza = segment_stanza(quatrain)
        except LucBatError as exc:
            exc.stanza_index = index
            raise
        reports.append(score_stanza(stanza, table, w_rhyme=w_rhyme, w_tone=w_tone))
    mean_score = sum(r.score for r in reports) / len(reports)
    return reports, mean_score


@dataclass(frozen=True)
class Histogram:
    bins: tuple[tuple[float, float, int], ...]  # (lo, hi, count)
    below: int
    above: int

    @property
    def total_in_range(self) -> int:
        return sum(count for _, _, count in self.bins)


def histogram(scores: list[float], bin_width: float = 10.0) -> Histogram:
    """Bin scores over the fixed range [0, 100] into right-exclusive bins; the last includes 100.

    Scores outside [0, 100] are tallied separately in ``below``/``above``.
    """
    if not scores:
        raise EmptyInput("no scores to bin")
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
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


def report_record(poem_id: str, stanza_index: int, report: ScoreReport) -> dict:
    """JSON-serializable scoring record for one stanza."""
    return {
        "poem_id": poem_id,
        "stanza_index": stanza_index,
        "n": report.n_pairs,
        "R": report.wrong_rhyme,
        "T": report.wrong_tone,
        "score": report.score,
        "diagnostics": {
            "rhyme": [
                {"position": list(d.position), "anchor": list(d.anchor), "ok": d.ok}
                for d in report.rhyme_diagnostics
            ],
            "tone": [
                {
                    "position": list(d.position),
                    "expected": d.expected.value,
                    "actual": d.actual.value,
                    "ok": d.ok,
                }
                for d in report.tone_diagnostics
            ],
        },
    }


def annotate_stanza(stanza: Stanza, report: ScoreReport) -> str:
    """Human-readable rendering with each violating word marked.

    Words failing a rhyme check get ``[R]``, a tone check ``[T]``; a final
    summary line carries the counts and the score.
    """
    bad_rhyme = {d.position for d in report.rhyme_diagnostics if not d.ok}
    bad_tone = {d.position for d in report.tone_diagnostics if not d.ok}
    out = []
    for line_index, line in enumerate(stanza.lines, start=1):
        words = []
        for word_index, syllable in enumerate(line, start=1):
            word = syllable.normalized
            if (line_index, word_index) in bad_rhyme:
                word += "[R]"
            if (line_index, word_index) in bad_tone:
                word += "[T]"
            words.append(word)
        out.append(" ".join(words))
    out.append(
        f"n={report.n_pairs} R={report.wrong_rhyme} T={report.wrong_tone} "
        f"score={report.score:.3f}"
    )
    return "\n".join(out)
