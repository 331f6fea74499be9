"""Vietnamese syllable parsing: onset/rime segmentation and tone extraction.

A written Vietnamese syllable is onset + rime + tone mark.  The onset is an
optional initial consonant unit, the rime is the vowel nucleus plus coda, and
the tone is one of six values signalled by a combining diacritic (or its
absence, for ngang).  Tones split into two metrical classes:

    level (bằng):   ngang, huyền
    oblique (trắc): sắc, hỏi, ngã, nặng

Parsing works on the NFC-composed, lowercased form.  The tone mark is lifted
off during NFD decomposition, the remaining letters are segmented by
longest-match against the onset inventory, and the canonical spelling is
rebuilt by re-placing the tone mark on the main vowel of the rime.

Verses are compared in a canonical form: lowercased, NFC-composed, each
punctuation mark and whitespace character a space, space runs collapsed, ends
stripped.  :func:`normalize_verses` makes it for every line of a block with a few
``str.replace`` passes over the whole block; :func:`normalize_verse` is its one-line form.
"""

from __future__ import annotations

import enum
import functools
import re
import unicodedata
from typing import NamedTuple

__all__ = [
    "LucBatError",
    "Tone",
    "ToneClass",
    "Syllable",
    "NotASyllable",
    "MultipleToneMarks",
    "InvalidEncoding",
    "parse_syllable",
    "normalize_verse",
    "normalize_verses",
]


class LucBatError(Exception):
    """Base class for all errors raised by this package."""


class InvalidEncoding(LucBatError):
    """File is not valid UTF-8."""


def decode_utf8(data: bytes, source: str) -> str:
    """Decode strict UTF-8; bad bytes raise :class:`InvalidEncoding` naming ``source``."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InvalidEncoding(f"{source}: {exc}") from exc


class NotASyllable(LucBatError):
    """Token cannot be read as a Vietnamese syllable."""

    def __init__(self, token: str, reason: str):
        super().__init__(f"{token!r}: {reason}")
        self.token = token
        self.reason = reason


class MultipleToneMarks(NotASyllable):
    """Token carries more than one tone diacritic."""

    def __init__(self, token: str):
        super().__init__(token, "more than one tone mark")


class Tone(enum.Enum):
    NGANG = "ngang"
    HUYEN = "huyen"
    SAC = "sac"
    HOI = "hoi"
    NGA = "nga"
    NANG = "nang"

    @property
    def tone_class(self) -> "ToneClass":
        if self in (Tone.NGANG, Tone.HUYEN):
            return ToneClass.LEVEL
        return ToneClass.OBLIQUE


class ToneClass(enum.Enum):
    LEVEL = "level"
    OBLIQUE = "oblique"


# Combining diacritics that carry tone.  Quality marks (circumflex U+0302,
# breve U+0306, horn U+031B) are part of the vowel letter and stay put.
_TONE_COMBINING = {
    "́": Tone.SAC,    # acute
    "̀": Tone.HUYEN,  # grave
    "̉": Tone.HOI,    # hook above
    "̃": Tone.NGA,    # tilde
    "̣": Tone.NANG,   # dot below
}
_COMBINING_FOR_TONE = {tone: mark for mark, tone in _TONE_COMBINING.items()}
_TONE_MARK = re.compile("[" + "".join(_TONE_COMBINING) + "]")

VOWELS = frozenset("aăâeêioôơuưy")

# Vowels carrying a quality diacritic take the tone mark in preference to
# plain vowels ("trường", "tiếng", "thuở").
_MODIFIED_VOWELS = frozenset("ăâêôơư")

_CONSONANT_LETTERS = frozenset("bcdđghklmnpqrstvx")
_ALPHABET = VOWELS | _CONSONANT_LETTERS

# Orthographic onset inventory, longest-match.  "gi" and "qu" are atomic
# units; their i/u never belongs to the rime.
ONSETS = frozenset(
    [
        "b", "c", "ch", "d", "đ", "g", "gh", "gi", "h", "k", "kh", "l", "m",
        "n", "ng", "ngh", "nh", "p", "ph", "qu", "r", "s", "t", "th", "tr",
        "v", "x",
    ]
)

_CODAS = frozenset(["c", "ch", "m", "n", "ng", "nh", "p", "t"])

_PUNCTUATION = set(".,!?;:'\"…()-–")
# Every character that str.split() splits on, except "\n", "\r" and the space: the C0
# separators, U+0085 and the Zs, Zl and Zp characters.  None of them is printable.
_WHITESPACE = (
    "\t\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005"
    "\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)

# Bound on memoized parses.  Real text has a few thousand distinct syllables, but any
# vowel run parses as a nucleus, so adversarial input could otherwise grow the cache
# without limit.
PARSE_CACHE_SIZE = 65536


class Syllable(NamedTuple):
    """A parsed syllable.

    ``normalized`` is the canonical spelling: NFC-composed, lowercased, with
    the tone mark on the main vowel of the rime.  ``rime`` is stored with the
    tone stripped; rhyme comparison and tone checking are independent.
    ``tone_class`` is a field that :func:`parse_syllable` fills from ``tone``,
    so scoring reads a plain attribute per templated position rather than two
    enum properties.  It must equal ``tone.tone_class``, which nothing
    checks: build syllables with :func:`parse_syllable`, not by calling
    ``Syllable`` directly.
    """

    raw: str
    normalized: str
    onset: str
    rime: str
    tone: Tone
    tone_class: ToneClass


def _nfc(text: str) -> str:
    return unicodedata.normalize("NFC", text)


def _split_onset(base: str) -> tuple[str, str] | None:
    """Longest onset prefix that leaves a vowel-initial, non-empty rime.

    Backs off automatically: "gia" -> ("gi", "a") but "gi" -> ("g", "i"),
    since the two-letter match would leave an empty rime.
    """
    for length in (3, 2, 1):
        head, rest = base[:length], base[length:]
        if head in ONSETS and rest and rest[0] in VOWELS:
            return head, rest
    if base and base[0] in VOWELS:
        return "", base
    return None


def _split_rime(rime: str) -> tuple[str, str]:
    """Split a tone-stripped rime into (nucleus, coda)."""
    i = 0
    while i < len(rime) and rime[i] in VOWELS:
        i += 1
    return rime[:i], rime[i:]


def _tone_target_index(nucleus: str, has_coda: bool) -> int:
    """Index of the vowel that carries the tone mark (traditional placement).

    Priority: last quality-modified vowel; otherwise a lone vowel; otherwise
    the last nucleus vowel when a coda follows ("toàn"), else the penultimate
    one ("hòa", "của", "ngoài").
    """
    for i in range(len(nucleus) - 1, -1, -1):
        if nucleus[i] in _MODIFIED_VOWELS:
            return i
    if len(nucleus) == 1 or has_coda:
        return len(nucleus) - 1
    return len(nucleus) - 2


def mark_rime(rime: str, tone: Tone) -> str:
    """Re-apply a tone mark to a tone-stripped rime at the canonical position."""
    if tone is Tone.NGANG:
        return rime
    nucleus, coda = _split_rime(rime)
    idx = _tone_target_index(nucleus, bool(coda))
    mark = _COMBINING_FOR_TONE[tone]
    return _nfc(rime[: idx + 1] + mark + rime[idx + 1 :])


@functools.lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_syllable(token: str) -> Syllable:
    """Parse one whitespace-free token into a :class:`Syllable`.

    Raises :class:`NotASyllable` for digits, missing vowels, letters outside
    the Vietnamese alphabet, an impossible onset/coda, or two tone
    diacritics; the last is its subclass :class:`MultipleToneMarks`, so
    callers catch :class:`NotASyllable` alone.

    Results are memoized per token (at most ``PARSE_CACHE_SIZE`` of them) and
    shared between callers, which is safe because :class:`Syllable` is
    immutable.  Rule-table rimes are validated through this parser too and
    share the memo.  Failures are not cached: a bad token raises afresh on
    each call.
    """
    if token.split() != [token]:
        raise NotASyllable(token, "empty or contains whitespace")
    decomposed = unicodedata.normalize("NFD", token.lower())
    marks = _TONE_MARK.findall(decomposed)
    if len(marks) > 1:
        raise MultipleToneMarks(token)
    if marks:
        tone = _TONE_COMBINING[marks[0]]
        decomposed = decomposed.replace(marks[0], "")
    else:
        tone = Tone.NGANG
    base = _nfc(decomposed)
    if not base:
        raise NotASyllable(token, "no letters")
    if not _ALPHABET.issuperset(base):
        culprit = next(ch for ch in base if ch not in _ALPHABET)
        if culprit.isdigit():
            raise NotASyllable(token, "contains digits")
        raise NotASyllable(token, f"non-Vietnamese character {culprit!r}")
    if VOWELS.isdisjoint(base):
        raise NotASyllable(token, "no vowel nucleus")
    split = _split_onset(base)
    if split is None:
        raise NotASyllable(token, "no vowel nucleus after onset")
    onset, rime = split
    _, coda = _split_rime(rime)
    if coda and coda not in _CODAS:
        raise NotASyllable(token, f"invalid coda {coda!r}")
    normalized = onset + mark_rime(rime, tone)
    return Syllable(
        raw=token, normalized=normalized, onset=onset, rime=rime, tone=tone,
        tone_class=tone.tone_class,
    )


def _lines(text: str) -> list[str]:
    """The lines of ``text``, ended by ``\\n``, ``\\r\\n`` or ``\\r`` only, as ``open()`` ends them.

    U+2028, U+0085 and the other separators stay inside a line, as JSON strings hold them.
    """
    lines = (text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text).split("\n")
    return lines if lines[-1] else lines[:-1]


def normalize_verse(line: str) -> str:
    """Canonical verse form: NFC, lowercased, punctuation and whitespace to single spaces.

    Idempotent, and confluent over Unicode forms: composed and decomposed
    spellings of the same verse normalize identically.  This is the one-line
    form of :func:`normalize_verses`: a line break inside ``line`` becomes a
    space, so the result is always one verse.
    """
    return " ".join(filter(None, normalize_verses(line)))


def normalize_verses(text: str) -> list[str]:
    """``[normalize_verse(line) for line in _lines(text)]``, blank lines included as ``""``.

    Each step runs once over the whole text, and the lines are split off only at the end.
    No step moves a line boundary: ``\\n`` and ``\\r`` are neither cased nor
    case-ignorable, compose with nothing under NFC, and are in neither ``_PUNCTUATION``
    nor ``_WHITESPACE``.
    """
    s = _nfc(text.lower())
    # str.replace per character found: a regex sub was slower, and str.translate looks
    # each character up in a dict on non-ASCII text
    for ch in _PUNCTUATION:
        if ch in s:
            s = s.replace(ch, " ")
    # the space is the only printable whitespace, so printable lines need no scan per character
    if not s.replace("\n", " ").isprintable():
        for ch in _WHITESPACE:
            if ch in s:
                s = s.replace(ch, " ")
    while "  " in s:
        s = s.replace("  ", " ")
    return [*map(str.strip, _lines(s))]
