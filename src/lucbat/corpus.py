"""Corpus ingestion, quatrain splitting, score filtering, verse indexing.

Plain-text corpora: one file holds many poems separated by blank lines.
Splitting, shuffling and filtering are deterministic given a seed, so a
dataset build can be reproduced byte for byte.
"""

from __future__ import annotations

import math
import os
import unicodedata
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple, Optional

from .rules import RuleTable
# lucbat.scoring is imported where it is used, so that creativity, which scores nothing,
# starts without it
from .syllable import (
    EmptyInput, LucBatError, _lines, _verses, normalize_verse, normalize_verses, read_text,
)

__all__ = [
    "Poem",
    "Corpus",
    "VerseIndex",
    "FilterStats",
    "ingest",
    "corpus_from_text",
    "write_corpus",
    "split_into_quatrains",
    "split_and_shuffle",
    "filter_by_score",
    "build_verse_index",
]


class Poem(NamedTuple):
    id: str
    text: str

    def lines(self) -> list[str]:
        return _verses(self.text)


class Corpus:
    """Poems in order.  A plain class, not a named tuple, so ``len`` counts poems."""

    __slots__ = ("poems",)

    def __init__(self, poems: tuple[Poem, ...]):
        self.poems = poems

    def __len__(self) -> int:
        return len(self.poems)


def _poems(text: str, source: str) -> list[Poem]:
    """Blank-line separated blocks as poems "<source>:<k>", lines stripped and NFC."""
    blocks = []
    current: list[str] = []
    # NFC a line at a time: one pass over the whole text was over twice as slow
    for raw_line in _lines(text):
        line = unicodedata.normalize("NFC", raw_line.strip())
        if line:
            current.append(line)
        elif current:
            blocks.append("\n".join(current))
            current = []
    if current:
        blocks.append("\n".join(current))
    return [Poem(f"{source}:{k}", block) for k, block in enumerate(blocks)]


def corpus_from_text(text: str, source: str = "<memory>") -> Corpus:
    """Build a corpus from blank-line-delimited text."""
    return Corpus(tuple(_poems(text, source)))


def ingest(path: str) -> Corpus:
    """Read the poems of one input: a file, a directory, or ``-`` for stdin.

    Each file is read by :func:`~lucbat.syllable.read_text`.  Ids are
    "<file>:<ordinal>", or "stdin:<ordinal>".  A directory stands for the
    ``*.txt`` regular files in it, in sorted order; one with none raises
    :class:`EmptyInput`.
    A file name that is not valid UTF-8 spells its bad bytes as ``\\xNN`` in
    the id, so every id can be written as UTF-8.  I/O errors propagate as
    OSError; bad bytes in the input raise :class:`InvalidEncoding`.
    """
    path = str(path)
    if path == "-":
        return corpus_from_text(read_text(path), "stdin")
    files = [path]
    if os.path.isdir(path):
        names = sorted(name for name in os.listdir(path) if name.endswith(".txt"))
        files = [file for file in (os.path.join(path, name) for name in names)
                 if os.path.isfile(file)]
        if not files:
            raise EmptyInput(f"{path}: directory has no *.txt files")
    poems: list[Poem] = []
    for file in files:
        # Python decodes a non-UTF-8 file name with lone surrogates, which no UTF-8 output takes
        poems.extend(_poems(read_text(file), os.fsencode(file).decode("utf-8", "backslashreplace")))
    return Corpus(poems=tuple(poems))


def write_corpus(corpus: Corpus, path: str) -> None:
    """Write poems back out in the blank-line format."""
    with open(path, "w", encoding="utf-8") as handle:
        for i, poem in enumerate(corpus.poems):
            if i:
                handle.write("\n")
            handle.write(poem.text)
            handle.write("\n")


def split_into_quatrains(corpus: Corpus) -> tuple[Corpus, list[tuple[str, str]]]:
    """Split every poem into consecutive quatrains, preserving order.

    Poems whose line count is not a multiple of 4 are excluded and returned
    as (id, reason) pairs.
    """
    from .scoring import OddLineCount, split_quatrains

    quatrains: list[Poem] = []
    excluded: list[tuple[str, str]] = []
    for poem in corpus.poems:
        try:
            texts = split_quatrains(poem.text)
        except OddLineCount as exc:
            excluded.append((poem.id, str(exc)))
            continue
        quatrains.extend(Poem(id=f"{poem.id}/q{k}", text=text) for k, text in enumerate(texts))
    return Corpus(poems=tuple(quatrains)), excluded


def split_and_shuffle(
    corpus: Corpus, seed: int
) -> tuple[Corpus, list[tuple[str, str]]]:
    """Split poems into quatrains and shuffle them with a seeded generator.

    The same corpus and seed always produce the same output order; different
    seeds permute the same multiset of quatrains.
    """
    import random  # only this function shuffles; the other commands skip the import

    quatrains, excluded = split_into_quatrains(corpus)
    shuffled = list(quatrains.poems)
    random.Random(seed).shuffle(shuffled)
    return Corpus(poems=tuple(shuffled)), excluded


class FilterStats(NamedTuple):
    kept_count: int
    mean_score_kept: Optional[float]
    dropped: tuple[tuple[str, str], ...]  # (id, reason)


def filter_by_score(
    corpus: Corpus, table: RuleTable, min_score: float
) -> tuple[Corpus, FilterStats]:
    """Keep the poems scoring at least ``min_score``, each scored as one stanza of n pairs.

    Poems that fail segmentation are dropped with the error message as the
    reason.
    """
    from .scoring import score_blocks

    kept: list[Poem] = []
    scores: list[float] = []
    dropped: list[tuple[str, str]] = []
    for poem, outcome in score_blocks(corpus.poems, table, "poem"):
        if isinstance(outcome, LucBatError):
            dropped.append((poem.id, str(outcome)))
            continue
        (report,) = outcome
        if report.score >= min_score:
            kept.append(poem)
            scores.append(report.score)
        else:
            dropped.append((poem.id, f"score {report.score:.3f} < {min_score}"))
    mean_kept = math.fsum(scores) / len(scores) if scores else None
    stats = FilterStats(kept_count=len(kept), mean_score_kept=mean_kept, dropped=tuple(dropped))
    return Corpus(poems=tuple(kept)), stats


# Poems per normalize_verses call in build_verse_index and creativity_score.  On the
# creativity benchmark's input (seed 1, best of 61, 2 vCPUs), indexing 4,000 quatrains took
# 22.0-24.7 ms a poem at a time, 18.6-19.4 ms in batches of 64 and 13.1-16.2 ms in batches
# of 256, 1,024 or all 4,000; scoring 2,000 took 22.0-23.2 ms against 13.3-17.8 ms.  Each
# step copies its batch, so a bounded batch keeps that memory small on a large corpus.
_BATCH = 256


def _batches(poems: tuple[Poem, ...]) -> Iterator[tuple[Poem, ...]]:
    """Consecutive slices of ``_BATCH`` poems, the last one possibly shorter."""
    return (poems[start:start + _BATCH] for start in range(0, len(poems), _BATCH))


class VerseIndex:
    """Set of normalized verses; membership is punctuation/case/form blind.

    ``VerseIndex(verses)`` and ``verse in index`` normalize each verse they
    are given with :func:`normalize_verse`, so a verse holding a line break
    stays one verse.  :meth:`copied_counts` looks up the lines of a batch of
    poems with one :func:`normalize_verses` call.
    """

    def __init__(self, verses: Iterable[str]):
        normalized = (normalize_verse(v) for v in verses)
        self._verses = frozenset(v for v in normalized if v)

    @classmethod
    def _of_normalized(cls, verses: Iterable[str]) -> "VerseIndex":
        """An index of verses that are already normalized; empty ones are dropped."""
        index = cls.__new__(cls)
        index._verses = frozenset(filter(None, verses))
        return index

    @property
    def size(self) -> int:
        return len(self._verses)

    def __contains__(self, verse: str) -> bool:
        return normalize_verse(verse) in self._verses

    def copied_counts(self, poems: Iterable[Poem]) -> list[tuple[int, int]]:
        """``(copied, total)`` for each poem: how many of its :meth:`Poem.lines` are in the index.

        No line holds a line break, so the lines of every poem are joined into one text and
        normalized at once.  A line that normalizes to ``""`` is never in the index.
        """
        verses = [poem.lines() for poem in poems]
        normalized = normalize_verses("\n".join(chain.from_iterable(verses)))
        hits = map(self._verses.__contains__, normalized)
        return [(sum(islice(hits, len(lines))), len(lines)) for lines in verses]


def build_verse_index(corpus: Corpus) -> VerseIndex:
    """Index every line of every poem in the corpus, normalizing ``_BATCH`` poems at a time.

    Joining poems moves no line boundary, and the blank lines a join may add are dropped.
    """
    return VerseIndex._of_normalized(chain.from_iterable(
        normalize_verses("\n".join(poem.text for poem in batch))
        for batch in _batches(corpus.poems)
    ))
