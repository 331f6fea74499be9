"""Luc Bat poetry toolkit.

Parsing and prosody of Vietnamese syllables, the six-eight rhyme/tone
template with a near-rhyme registry, stanza scoring and corpus filtering,
a verse-overlap creativity metric, and a gradient-checked semantic loss
head (self-attention + LSTM contextual vectors).

Each module's ``__all__`` is its public surface; the package re-exports
them all, and names outside them stay importable from their modules only.
The semantic-loss names (``gradient_check``, ``LstmParams`` and the rest of
``lucbat.semloss``) load lazily, on first access, so that importing the
package for text work does not import numpy.
"""

__version__ = "0.1.0"

import importlib

from . import corpus, creativity, rules, scoring, syllable
from .syllable import *
from .rules import *
from .scoring import *
from .corpus import *
from .creativity import *

_SEMLOSS_NAMES = (
    "AttentionParams", "BadCheckSetting", "DegenerateSequence",
    "GradientCheckReport", "IdOutOfRange", "LossBreakdown", "LstmParams",
    "MissingPair", "ShapeMismatch", "attention_weights", "ce_loss",
    "contextual_vector", "custom_loss", "gradient_check", "random_instance",
)


def __getattr__(name):
    """Import ``lucbat.semloss`` (and numpy) only when one of its names is used."""
    if name == "semloss" or name in _SEMLOSS_NAMES:
        semloss = importlib.import_module(".semloss", __name__)
        return semloss if name == "semloss" else getattr(semloss, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    *syllable.__all__,
    *rules.__all__,
    *scoring.__all__,
    *corpus.__all__,
    *creativity.__all__,
    *_SEMLOSS_NAMES,  # lazy
]
