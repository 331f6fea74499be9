"""The Luc Bat template: rhyme chains, tone positions, near-rhyme registry.

A stanza is n six-eight line pairs.  The form constrains it in two ways:

* Rhyme.  Word 6 of the first line rhymes with word 6 of the second line;
  word 8 of each eight-line anchors a chain picked up by word 6 of the next
  two lines.  Across a stanza that is 3n-1 rhyming positions.
* Tone.  Words 2/4/6 of a six-line must be level/oblique/level; words
  2/4/6/8 of an eight-line level/oblique/level/level.  7n positions total.

Both constraints depend on n alone.  :func:`template` compiles them once per
n into the rhyme pairs and tone slots every scoring consumer walks.

Rhyme compatibility is driven by a :class:`RuleTable`: two syllables rhyme
when their tone-stripped rimes are equal or share a near-rhyme group.  The
table is a partition, so compatibility is an equivalence relation and each
chain can be checked against its anchor alone.  Table rimes are validated by
the syllable parser, :func:`~lucbat.syllable.parse_syllable`, the same
grammar that reads the verses.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional

from .syllable import (
    LucBatError, NotASyllable, Syllable, ToneClass, parse_syllable, read_text, _lines, _nfc,
)

__all__ = [
    "RhymeChain",
    "RuleTable",
    "RuleTableError",
    "InvalidPairCount",
    "Template",
    "build_rhyme_chains",
    "template",
    "rhymes_with",
    "load_rule_table",
    "parse_rule_table",
    "default_rule_table",
]

# (line_index, word_index), both 1-based.
Position = tuple[int, int]


class InvalidPairCount(LucBatError):
    """A stanza needs at least one six-eight pair."""


class RuleTableError(LucBatError):
    """Rule-table file violates the format or the partition invariant."""


# Tone templates; odd word positions are unconstrained.
SIX_LINE_TONES: dict[int, ToneClass] = {
    2: ToneClass.LEVEL,
    4: ToneClass.OBLIQUE,
    6: ToneClass.LEVEL,
}
EIGHT_LINE_TONES: dict[int, ToneClass] = {
    2: ToneClass.LEVEL,
    4: ToneClass.OBLIQUE,
    6: ToneClass.LEVEL,
    8: ToneClass.LEVEL,
}


class RhymeChain(NamedTuple):
    """Positions required to share a rhyme; the first one is the anchor."""

    positions: tuple[Position, ...]

    @property
    def anchor(self) -> Position:
        return self.positions[0]

    @property
    def members(self) -> tuple[Position, ...]:
        """Non-anchor positions, each compared against the anchor."""
        return self.positions[1:]


def build_rhyme_chains(n_pairs: int) -> list[RhymeChain]:
    """Rhyme chains for a stanza of ``n_pairs`` six-eight pairs.

    Chain 0 ties word 6 of lines 1 and 2; each further chain ties word 8 of
    an eight-line to word 6 of the following two lines.  Position count over
    all chains is 3*n_pairs - 1; the last eight-line's word 8 is left free.
    """
    if not isinstance(n_pairs, int) or isinstance(n_pairs, bool) or n_pairs < 1:
        raise InvalidPairCount(f"need a positive number of pairs, got {n_pairs!r}")
    chains = [RhymeChain(((1, 6), (2, 6)))]
    for k in range(1, n_pairs):
        chains.append(RhymeChain(((2 * k, 8), (2 * k + 1, 6), (2 * k + 2, 6))))
    return chains


class Template(NamedTuple):
    """The six-eight template of a stanza of n pairs, in checking order."""

    rhyme_pairs: tuple[tuple[Position, Position], ...]  # (member, anchor), chain by chain
    tone_slots: tuple[tuple[Position, ToneClass], ...]  # (position, expected), line by line


# Bounded: the Python API scores stanzas of any length, and each template is O(n).
@functools.lru_cache(maxsize=128, typed=True)
def template(n_pairs: int) -> Template:
    """The compiled template for ``n_pairs`` pairs; built once per n and shared.

    Raises :class:`InvalidPairCount` unless ``n_pairs`` is a positive int.
    """
    chains = build_rhyme_chains(n_pairs)
    return Template(
        rhyme_pairs=tuple((member, chain.anchor) for chain in chains for member in chain.members),
        tone_slots=tuple(
            ((line, word), expected)
            for line in range(1, 2 * n_pairs + 1)
            for word, expected in (SIX_LINE_TONES if line % 2 else EIGHT_LINE_TONES).items()
        ),
    )


class RuleTable:
    """Near-rhyme registry: a partition of rimes into interchangeable groups."""

    def __init__(self, groups: Iterable[Iterable[str]], version: str = "custom"):
        self.version = version
        self._group_of: dict[str, int] = {}
        for gi, group in enumerate(map(list, groups)):
            if not group:
                raise RuleTableError("empty near-rhyme group")
            for rime in group:
                # a rime is a syllable with no onset and no tone, spelled canonically
                try:
                    valid = parse_syllable(rime).rime == rime
                except NotASyllable:
                    valid = False
                if not valid:
                    raise RuleTableError(f"invalid rime {rime!r}")
                if rime in self._group_of:
                    raise RuleTableError(f"rime {rime!r} listed twice")
                self._group_of[rime] = gi

    def group_of(self, rime: str) -> Optional[int]:
        return self._group_of.get(rime)

    def compatible(self, rime_a: str, rime_b: str) -> bool:
        """Equal rimes always rhyme; otherwise both must share a group."""
        if rime_a == rime_b:
            return True
        ga = self._group_of.get(rime_a)
        return ga is not None and ga == self._group_of.get(rime_b)


def rhymes_with(a: Syllable, b: Syllable, table: RuleTable) -> bool:
    """Tone-blind rhyme test between two parsed syllables."""
    return table.compatible(a.rime, b.rime)


def parse_rule_table(text: str, version: str = "custom") -> RuleTable:
    """Parse rule-table text: one group per line, ``#`` comments.

    A ``# version:`` comment overrides the version label.
    """
    groups = []
    for raw_line in _lines(text):
        line = raw_line.strip()
        if line.startswith("#"):
            body = line.lstrip("#").strip()
            if body.lower().startswith("version:"):
                version = body.split(":", 1)[1].strip()
            continue
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        rimes = [_nfc(tok.lower()) for tok in line.split()]
        groups.append(rimes)
    try:
        return RuleTable(groups, version=version)
    except RuleTableError as exc:
        raise RuleTableError(f"bad rule table: {exc}") from exc


def load_rule_table(path: str) -> RuleTable:
    """Load a rule-table file, or stdin if ``path`` is ``-``, as ``syllable.read_text`` reads it."""
    return parse_rule_table(read_text(path), version=str(path))


@functools.cache
def default_rule_table() -> RuleTable:
    """The table shipped with the package (see ``data/near_rhymes.txt``), parsed once."""
    # pkgutil, not importlib.resources: on Python 3.12+ the latter imports inspect and tempfile;
    # imported here, so that commands which never read the table do not load it
    import pkgutil

    text = pkgutil.get_data("lucbat", "data/near_rhymes.txt").decode("utf-8")
    return parse_rule_table(text, version="builtin")
