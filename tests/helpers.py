"""Shared helpers: planting known violations into the canonical quatrain."""

from lucbat import Tone, ToneClass, parse_syllable, segment_stanza
from lucbat.rules import EIGHT_LINE_TONES, SIX_LINE_TONES
from lucbat.syllable import mark_rime


# Source that makes every later ``import numpy`` fail, as on an install without the
# ``loss`` extra; a subprocess runs it first.
NO_NUMPY = "\n".join([
    "import importlib.abc, sys",
    "class NoNumpy(importlib.abc.MetaPathFinder):",
    "    def find_spec(self, name, path, target=None):",
    "        if name.partition('.')[0] == 'numpy':",
    "            raise ModuleNotFoundError(f'No module named {name!r}', name=name)",
    "sys.meta_path.insert(0, NoNumpy())",
])


def replace_tone(syllable, tone):
    """Same onset and rime, different tone."""
    return parse_syllable(syllable.onset + mark_rime(syllable.rime, tone))


def stanza_text(stanza):
    """A stanza's canonical spellings, one line per verse."""
    return "\n".join(" ".join(s.normalized for s in line) for line in stanza.lines)


def total_in_range(hist):
    """Scores a histogram counted inside [0, 100]."""
    return sum(count for _, _, count in hist.bins)

# templated tone positions of a quatrain, fixed order
QUATRAIN_TONE_POSITIONS = [
    (line, word)
    for line in (1, 2, 3, 4)
    for word in sorted((SIX_LINE_TONES if line % 2 else EIGHT_LINE_TONES))
]

# non-anchor rhyme positions of a quatrain
QUATRAIN_RHYME_MEMBERS = [(2, 6), (3, 6), (4, 6)]

# rime "anh" shares no group with the anchors' rimes ("a", "au")
_BREAK_RIME = "anh"
_BREAK_ONSET = "x"


def perturb_quatrain(raw_quatrain, tone_flips=(), rhyme_breaks=()):
    """Rewrite a perfect quatrain with planted violations.

    ``tone_flips`` are templated positions whose tone class gets inverted
    while keeping the rime; ``rhyme_breaks`` are non-anchor rhyme positions
    replaced by a syllable outside the anchor's rhyme group whose tone class
    honours the template (unless the same position is also tone-flipped).
    """
    stanza = segment_stanza(raw_quatrain)
    tone_flips = set(tone_flips)
    rhyme_breaks = set(rhyme_breaks)
    lines = []
    for line_index, line in enumerate(stanza.lines, start=1):
        template = SIX_LINE_TONES if line_index % 2 else EIGHT_LINE_TONES
        words = []
        for word_index, syllable in enumerate(line, start=1):
            position = (line_index, word_index)
            flip = position in tone_flips
            brk = position in rhyme_breaks
            if brk:
                expected = template[word_index]
                if flip:
                    want = (
                        ToneClass.OBLIQUE
                        if expected is ToneClass.LEVEL
                        else ToneClass.LEVEL
                    )
                else:
                    want = expected
                tone = Tone.NGANG if want is ToneClass.LEVEL else Tone.NANG
                words.append(_BREAK_ONSET + mark_rime(_BREAK_RIME, tone))
            elif flip:
                if syllable.tone_class is ToneClass.LEVEL:
                    words.append(replace_tone(syllable, Tone.NANG).normalized)
                else:
                    words.append(replace_tone(syllable, Tone.NGANG).normalized)
            else:
                words.append(syllable.normalized)
        lines.append(" ".join(words))
    return "\n".join(lines)


def brute_force_score(n_pairs, wrong_rhyme, wrong_tone):
    """Direct evaluation of the template formula."""
    return 100.0 * (
        1.0 - wrong_rhyme / (3 * n_pairs - 1) - wrong_tone / (7 * n_pairs)
    )


def parse_words(words):
    return [parse_syllable(w) for w in words]
