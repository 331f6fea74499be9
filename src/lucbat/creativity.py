"""Creativity metric: how much of the generated output is copied verbatim.

For each generated poem, the copied ratio is the fraction of its verses
found (as exact normalized matches) in the training-corpus verse index.
The creativity score is the mean of one minus that ratio: 1.0 means no
verse was copied, 0.0 means every verse was.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus import Corpus, VerseIndex
from .syllable import LucBatError

__all__ = [
    "PoemNovelty",
    "CreativityReport",
    "EmptyGeneratedSet",
    "EmptyPoem",
    "creativity_score",
]


class EmptyGeneratedSet(LucBatError):
    """No generated poems to evaluate."""


class EmptyPoem(LucBatError):
    def __init__(self, poem_id: str):
        super().__init__(f"poem {poem_id!r} has no verses")
        self.poem_id = poem_id


class PoemNovelty(NamedTuple):
    poem_id: str
    copied_verses: int
    total_verses: int

    @property
    def copied_ratio(self) -> float:
        return self.copied_verses / self.total_verses


class CreativityReport(NamedTuple):
    per_poem: tuple[PoemNovelty, ...]
    score: float  # mean over poems of (1 - copied_ratio), in [0, 1]


def creativity_score(generated: Corpus, index: VerseIndex) -> CreativityReport:
    """Score a generated corpus against a training verse index.

    Repeated verses count once per occurrence: the ratio is over verse
    slots, not distinct verses.
    """
    if not generated.poems:
        raise EmptyGeneratedSet("generated corpus is empty")
    per_poem = []
    for poem in generated.poems:
        verses = poem.lines()
        if not verses:
            raise EmptyPoem(poem.id)
        copied = index.count_copied(poem.text)
        per_poem.append(
            PoemNovelty(poem_id=poem.id, copied_verses=copied, total_verses=len(verses))
        )
    # fsum: correctly rounded, so the score does not depend on the Python version
    score = math.fsum(1.0 - novelty.copied_ratio for novelty in per_poem) / len(per_poem)
    return CreativityReport(per_poem=tuple(per_poem), score=score)
