"""Creativity metric: how much of the generated output is copied verbatim.

For each generated poem, the copied ratio is the fraction of its verses
found (as exact normalized matches) in the training-corpus verse index.
The creativity score is the mean of one minus that ratio: 1.0 means no
verse was copied, 0.0 means every verse was.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .corpus import Corpus, VerseIndex, _batches
from .syllable import EmptyInput

__all__ = [
    "PoemNovelty",
    "CreativityReport",
    "creativity_score",
]


class PoemNovelty(NamedTuple):
    poem_id: str
    copied_verses: int
    total_verses: int

    @property
    def copied_ratio(self) -> float:
        return self.copied_verses / self.total_verses


class CreativityReport(NamedTuple):
    per_poem: tuple[PoemNovelty, ...]

    @property
    def score(self) -> float:
        """The mean over poems of (1 - copied_ratio), in [0, 1]."""
        # fsum: correctly rounded, so the score does not depend on the Python version
        return math.fsum(1.0 - poem.copied_ratio for poem in self.per_poem) / len(self.per_poem)


def creativity_score(generated: Corpus, index: VerseIndex) -> CreativityReport:
    """Score a generated corpus against a training verse index.

    Repeated verses count once per occurrence: the ratio is over verse
    slots, not distinct verses.  Poems are counted a batch at a time, with
    one :meth:`VerseIndex.copied_counts` call per batch.
    """
    if not generated.poems:
        raise EmptyInput("generated corpus is empty")
    per_poem = []
    for batch in _batches(generated.poems):
        for poem, (copied, total) in zip(batch, index.copied_counts(batch)):
            if not total:
                raise EmptyInput(f"poem {poem.id!r} has no verses")
            per_poem.append(PoemNovelty(poem_id=poem.id, copied_verses=copied, total_verses=total))
    return CreativityReport(per_poem=tuple(per_poem))
