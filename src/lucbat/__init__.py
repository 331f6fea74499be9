"""Luc Bat poetry toolkit.

Parsing and prosody of Vietnamese syllables, the six-eight rhyme/tone
template with a near-rhyme registry, stanza scoring and corpus filtering,
a verse-overlap creativity metric, and a gradient-checked semantic loss
head (self-attention + LSTM contextual vectors).

The semantic-loss names (``gradient_check``, ``LstmParams`` and the rest of
``lucbat.semloss``) load lazily, on first access, so that importing the
package for text work does not import numpy.
"""

__version__ = "0.1.0"

import importlib

from .syllable import (
    InvalidEncoding,
    LucBatError,
    MultipleToneMarks,
    NotASyllable,
    Syllable,
    Tone,
    ToneClass,
    normalize_verse,
    parse_syllable,
)
from .rules import (
    InvalidPairCount,
    RhymeChain,
    RuleTable,
    RuleTableError,
    Template,
    build_rhyme_chains,
    default_rule_table,
    load_rule_table,
    parse_rule_table,
    rhymes_with,
    template,
)
from .scoring import (
    EmptyInput,
    Histogram,
    OddLineCount,
    ScoreReport,
    Stanza,
    UnparseableToken,
    WrongSyllableCount,
    annotate_stanza,
    histogram,
    report_record,
    score_poem,
    score_stanza,
    segment_stanza,
    split_quatrains,
)
from .corpus import (
    Corpus,
    FilterStats,
    Poem,
    VerseIndex,
    build_verse_index,
    corpus_from_text,
    filter_by_score,
    ingest,
    split_and_shuffle,
    split_into_quatrains,
    write_corpus,
)
from .creativity import (
    CreativityReport,
    EmptyGeneratedSet,
    EmptyPoem,
    PoemNovelty,
    creativity_score,
)

_SEMLOSS_NAMES = (
    "AttentionParams", "BadCheckSetting", "DegenerateSequence",
    "GradientCheckReport", "IdOutOfRange", "LossBreakdown", "LstmParams",
    "MissingPair", "ShapeMismatch", "attention_weights", "ce_loss",
    "contextual_vector", "custom_loss", "gradient_check", "lstm_forward",
    "pack_parameters", "random_instance", "self_attention", "unpack_parameters",
)


def __getattr__(name):
    """Import ``lucbat.semloss`` (and numpy) only when one of its names is used."""
    if name == "semloss" or name in _SEMLOSS_NAMES:
        semloss = importlib.import_module(".semloss", __name__)
        return semloss if name == "semloss" else getattr(semloss, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # syllable
    "InvalidEncoding", "LucBatError", "MultipleToneMarks", "NotASyllable",
    "Syllable", "Tone", "ToneClass", "normalize_verse", "parse_syllable",
    # rules
    "InvalidPairCount", "RhymeChain", "RuleTable", "RuleTableError", "Template",
    "build_rhyme_chains", "default_rule_table", "load_rule_table", "parse_rule_table",
    "rhymes_with", "template",
    # scoring
    "EmptyInput", "Histogram", "OddLineCount", "ScoreReport", "Stanza",
    "UnparseableToken", "WrongSyllableCount", "annotate_stanza", "histogram",
    "report_record", "score_poem", "score_stanza", "segment_stanza",
    "split_quatrains",
    # corpus
    "Corpus", "FilterStats", "Poem", "VerseIndex",
    "build_verse_index", "corpus_from_text", "filter_by_score", "ingest",
    "split_and_shuffle", "split_into_quatrains", "write_corpus",
    # creativity
    "CreativityReport", "EmptyGeneratedSet", "EmptyPoem", "PoemNovelty",
    "creativity_score",
    # semloss (lazy)
    *_SEMLOSS_NAMES,
]
