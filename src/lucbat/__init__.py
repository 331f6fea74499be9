"""Luc Bat poetry toolkit.

Parsing and prosody of Vietnamese syllables, the six-eight rhyme/tone
template with a near-rhyme registry, stanza scoring and corpus filtering,
a verse-overlap creativity metric, and a gradient-checked semantic loss
head (self-attention + LSTM contextual vectors).

Each module's ``__all__`` is its public surface; the package re-exports
them all, and names outside them stay importable from their modules only.
Every module loads on first use: ``lucbat.parse_syllable`` imports
``lucbat.syllable``, and ``lucbat.gradient_check`` imports ``lucbat.semloss``
and numpy.  So a command imports only what it runs, and the text commands
never import numpy.  A resolved name is stored in the package, so the next
access is a plain attribute lookup.
"""

__version__ = "0.1.0"

import importlib

# in the order of __all__; no module exports a name another one does
_TEXT_MODULES = ("syllable", "rules", "scoring", "corpus", "creativity")
# semloss's __all__: semloss imports this tuple as its own, and it lives here so that the
# package's __all__ and a lookup of a name no module exports never import numpy
_SEMLOSS_NAMES = (
    "AttentionParams", "GradientCheckReport", "IdOutOfRange", "LossBreakdown",
    "LstmParams", "ShapeMismatch", "attention_weights", "ce_loss", "contextual_vector",
    "custom_loss", "gradient_check", "random_instance",
)


def _module(name):
    return importlib.import_module(f".{name}", __name__)


def __getattr__(name):
    """Import the module that owns ``name`` on first access, and keep what it resolves."""
    # `from lucbat import cli` looks the name up here before it imports the submodule
    if name in _TEXT_MODULES or name in ("semloss", "cli"):
        value = _module(name)
    elif name in _SEMLOSS_NAMES:
        value = getattr(_module("semloss"), name)
    elif name == "__all__":
        value = ["__version__",
                 *(export for module in _TEXT_MODULES for export in _module(module).__all__),
                 *_SEMLOSS_NAMES]
    else:
        owner = next((module for module in map(_module, _TEXT_MODULES)
                      if name in module.__all__), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(owner, name)
    globals()[name] = value
    return value


def __dir__():
    """The names loaded so far and every export, loaded or not."""
    return sorted({*globals(), *(globals().get("__all__") or __getattr__("__all__"))})
