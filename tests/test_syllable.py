import ast
import io
import itertools
import random
import re
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lucbat import (
    MultipleToneMarks,
    NotASyllable,
    Tone,
    ToneClass,
    default_rule_table,
    normalize_verse,
    normalize_verses,
    parse_syllable,
)
from lucbat import syllable
from lucbat.cli import main
from lucbat.syllable import (
    ONSETS,
    PARSE_CACHE_SIZE,
    VOWELS,
    Syllable,
    _CODAS,
    _CONSONANT_LETTERS,
    _PUNCTUATION,
    _TONE_COMBINING,
    _WHITESPACE,
    _lines,
    _nfc,
    _split_onset,
    _split_rime,
    mark_rime,
)
from conftest import KIEU

DATA = Path(__file__).parent / "data"


def load_syllable_list():
    tokens = []
    for line in (DATA / "syllables.txt").read_text("utf-8").splitlines():
        line = line.split("#")[0].strip()
        tokens.extend(line.split())
    return tokens


SYLLABLES = load_syllable_list()


def test_curated_list_is_large_enough():
    assert len(SYLLABLES) >= 200
    assert len(set(SYLLABLES)) == len(SYLLABLES)


@pytest.mark.parametrize(
    "token,onset,rime,tone,tone_class",
    [
        ("ta", "t", "a", Tone.NGANG, ToneClass.LEVEL),
        # hand-checked against the diacritic table: dot below = nang,
        # circumflex stays on the vowel
        ("mệnh", "m", "ênh", Tone.NANG, ToneClass.OBLIQUE),
        # grave = huyen; horn vowels keep their horn in the rime
        ("trường", "tr", "ương", Tone.HUYEN, ToneClass.LEVEL),
        ("già", "gi", "a", Tone.HUYEN, ToneClass.LEVEL),
        ("gì", "g", "i", Tone.HUYEN, ToneClass.LEVEL),
        ("quý", "qu", "y", Tone.SAC, ToneClass.OBLIQUE),
        ("ăn", "", "ăn", Tone.NGANG, ToneClass.LEVEL),
        ("nghỉ", "ngh", "i", Tone.HOI, ToneClass.OBLIQUE),
        ("đã", "đ", "a", Tone.NGA, ToneClass.OBLIQUE),
    ],
)
def test_parse_fields(token, onset, rime, tone, tone_class):
    s = parse_syllable(token)
    assert s.onset == onset
    assert s.rime == rime
    assert s.tone is tone
    assert s.tone_class is tone_class


def test_tone_class_partition():
    level = {Tone.NGANG, Tone.HUYEN}
    for tone in Tone:
        expected = ToneClass.LEVEL if tone in level else ToneClass.OBLIQUE
        assert tone.tone_class is expected


def test_tone_class_field_is_filled_from_the_tone():
    tokens = ["ta", "tà", "tá", "tả", "tã", "tạ"]
    assert {parse_syllable(token).tone for token in tokens} == set(Tone)
    for token in tokens:
        assert parse_syllable(token).tone_class is parse_syllable(token).tone.tone_class


@pytest.mark.parametrize("token", ["xyz123", "bcd", "123", "fở", "wa", "ngстранный"])
def test_not_a_syllable(token):
    with pytest.raises(NotASyllable):
        parse_syllable(token)


def test_multiple_tone_marks():
    with pytest.raises(MultipleToneMarks) as caught:
        parse_syllable("á̀")
    assert isinstance(caught.value, NotASyllable)
    assert str(caught.value) == "'á̀': more than one tone mark"
    assert caught.value.token == "á̀"
    assert caught.value.reason == "more than one tone mark"


def test_whitespace_rejected():
    with pytest.raises(NotASyllable):
        parse_syllable("hai từ")


@pytest.mark.parametrize("token", SYLLABLES)
def test_round_trip_on_curated_list(token):
    s = parse_syllable(token)
    # recomposition: onset + rime with the tone mark re-applied equals the
    # canonical form, which for this list is the written form itself
    assert s.onset + mark_rime(s.rime, s.tone) == s.normalized
    assert s.normalized == unicodedata.normalize("NFC", token.lower())
    assert s.rime and s.rime[0] in "aăâeêioôơuưy"
    assert s.onset == "" or s.onset in ONSETS


@pytest.mark.parametrize("token", ["mệnh", "trường", "người", "quỳnh", "thuở"])
def test_unicode_form_invariance(token):
    composed = parse_syllable(unicodedata.normalize("NFC", token))
    decomposed = parse_syllable(unicodedata.normalize("NFD", token))
    assert composed.normalized == decomposed.normalized
    assert composed.onset == decomposed.onset
    assert composed.rime == decomposed.rime
    assert composed.tone is decomposed.tone


@pytest.mark.parametrize("token", SYLLABLES[::7])
def test_parse_idempotent_on_normalized(token):
    s = parse_syllable(token)
    again = parse_syllable(s.normalized)
    assert again.normalized == s.normalized
    assert (again.onset, again.rime, again.tone) == (s.onset, s.rime, s.tone)


def test_misplaced_tone_mark_canonicalized():
    # "new style" placement parses identically and normalizes to the
    # traditional spelling
    assert parse_syllable("hoà").normalized == "hòa"
    assert parse_syllable("qúy").normalized == "quý"
    assert parse_syllable("hòa").rime == parse_syllable("hoà").rime


def test_normalize_verse_examples():
    assert normalize_verse("Trăm năm,  trong cõi…") == "trăm năm trong cõi"
    assert normalize_verse("") == ""
    composed = "ệ"
    decomposed = unicodedata.normalize("NFD", composed)
    assert normalize_verse(decomposed) == normalize_verse(composed)


@pytest.mark.parametrize(
    "line",
    [
        "Trăm năm, trong cõi... người TA!",
        "  (một) – hai – ba  ",
        "đã ẹ rồi",
        "",
        "...",
    ],
)
def test_normalize_verse_idempotent(line):
    once = normalize_verse(line)
    assert normalize_verse(once) == once


def test_cached_parse_keeps_the_token_it_was_given():
    token = "Người"
    first = parse_syllable(token)
    again = parse_syllable("".join(["Ngư", "ời"]))  # an equal string, not the same object
    assert first.raw == token
    assert again == first
    assert again.raw == token


@pytest.mark.parametrize(
    "token,error", [("xyz123", NotASyllable), ("fở", NotASyllable), ("á̀", MultipleToneMarks)]
)
def test_bad_token_raises_on_every_call(token, error):
    for _ in range(3):
        with pytest.raises(error) as caught:
            parse_syllable(token)
        assert caught.value.token == token


def test_parse_cache_stays_within_its_bound():
    # any vowel run is a nucleus, so onset + one to three vowels + coda gives
    # more distinct valid syllables than the cache may hold
    runs = ["".join(run) for size in (1, 2, 3)
            for run in itertools.product(sorted(VOWELS), repeat=size)]
    tokens = dict.fromkeys(onset + run + coda for coda in ("", "n", "t")
                           for onset in sorted(ONSETS) for run in runs)
    parse_syllable.cache_clear()
    try:
        parsed = 0
        for token in tokens:
            parse_syllable(token)
            parsed += 1
            if parsed > PARSE_CACHE_SIZE + 100:
                break
        info = parse_syllable.cache_info()
        assert parsed > PARSE_CACHE_SIZE
        assert info.maxsize == PARSE_CACHE_SIZE
        assert info.currsize == PARSE_CACHE_SIZE
    finally:
        parse_syllable.cache_clear()


def test_scoring_a_file_twice_parses_each_distinct_token_once(tmp_path, capsys):
    text = KIEU + "\n\n" + KIEU.upper() + "\n"
    path = tmp_path / "poems.txt"
    path.write_text(text, encoding="utf-8")
    distinct = {token for line in text.splitlines() for token in normalize_verse(line).split()}
    default_rule_table()  # built once per process, parsing its rimes through the same memo
    parse_syllable.cache_clear()
    for _ in range(2):
        assert main(["score", str(path), "--format", "jsonl"]) == 0
    capsys.readouterr()
    assert parse_syllable.cache_info().misses == len(distinct)


def _reference_normalize_verse(line):
    """The per-character generator that ``normalize_verse`` replaced."""
    text = _nfc(line.lower())
    text = "".join(" " if ch in _PUNCTUATION else ch for ch in text)
    return " ".join(text.split())


_TONE_MARKS = "\u0300\u0301\u0303\u0309\u0323"
_LETTERS = sorted(
    set("bcdđghklmnpqrstvx")
    | VOWELS
    | {_nfc(vowel + mark) for vowel in VOWELS for mark in _TONE_MARKS}
)
_VERSE_TEXT = st.text(
    st.sampled_from(
        _LETTERS
        + [letter.upper() for letter in _LETTERS]
        + list(_TONE_MARKS + "\u0302\u0306\u031b")  # bare combining marks
        + sorted(_PUNCTUATION)
        + list("“”‘’—«»[]{}/&*#@_~")
        + list(" \t\n\r\u00a0\u2003\u3000")
    ),
    max_size=60,
)


@settings(max_examples=400, derandomize=True, database=None)
@given(_VERSE_TEXT)
def test_normalize_verse_matches_reference_and_is_idempotent(line):
    once = normalize_verse(line)
    assert once == _reference_normalize_verse(line)
    assert normalize_verse(once) == once


# Every boundary str.splitlines splits on; "\r\n" is one boundary, not two.  _lines ends a
# line at the first three only and leaves the others inside it.
_LINE_BOUNDARIES = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                    "\u2028", "\u2029"]
# Σ lowercases to σ or ς by context, İ to two code points.
_BLOCK_TEXT = st.lists(
    st.sampled_from(
        _LETTERS
        + [letter.upper() for letter in _LETTERS]
        + [unicodedata.normalize("NFD", letter) for letter in _LETTERS]
        + list(_TONE_MARKS + "\u0302\u0306\u031b")
        + sorted(_PUNCTUATION)
        + _LINE_BOUNDARIES
        + list(" \t\u00a0\u2000\u3000")
        + ["Σ", "İ"]
    ),
    max_size=80,
).map("".join)


@settings(max_examples=500, derandomize=True, database=None)
@given(_BLOCK_TEXT)
def test_normalize_verses_is_normalize_verse_per_line(text):
    assert normalize_verses(text) == [normalize_verse(line) for line in _lines(text)]


@settings(max_examples=500, derandomize=True, database=None)
@given(st.text(alphabet="a \n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029", max_size=40))
def test_lines_end_at_universal_newlines_only(text):
    # the lines open() reads in text mode
    assert _lines(text) == [line.removesuffix("\n") for line in io.StringIO(text, newline=None)]
    if not set(text) & set("\v\f\x1c\x1d\x1e\x85\u2028\u2029"):
        assert _lines(text) == text.splitlines()


# Every character that str.split() splits on.
_ALL_WHITESPACE = [ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace()]


def test_whitespace_table_is_every_space_but_the_line_ends_and_the_space():
    assert _WHITESPACE == "".join(ch for ch in _ALL_WHITESPACE if ch not in "\n\r ")
    # normalize_verses skips the table's scans for printable text, which is sound only so
    assert " ".isprintable()
    assert not any(ch.isprintable() for ch in _WHITESPACE)


# The regex and per-line split-join that normalize_verses' str.replace pass replaced.
_PUNCTUATION_RUN = re.compile("[" + re.escape("".join(sorted(_PUNCTUATION))) + "]+")


def _reference_normalize_verses(text):
    return [" ".join(line.split()) for line in _lines(_PUNCTUATION_RUN.sub(" ", _nfc(text.lower())))]


def _reference_normalize_verse_regex(line):
    return " ".join(_PUNCTUATION_RUN.sub(" ", _nfc(line.lower())).split())


_REPLACE_PASS_TEXT = st.lists(
    st.sampled_from(
        _ALL_WHITESPACE
        + ["\r\n", "\n…!\n", "\n(–)\n", "\n, ; :\n"]  # punctuation-only lines
        + _LETTERS[::7]
        + [unicodedata.normalize("NFD", letter) for letter in _LETTERS[::5]]
        + [letter.upper() for letter in _LETTERS[::11]]
        + sorted(_PUNCTUATION)
        + ["Σ", "İ"]
    ),
    max_size=40,
).map("".join)


@settings(max_examples=1000, derandomize=True, database=None)
@given(_REPLACE_PASS_TEXT)
def test_replace_pass_matches_the_regex_and_split_join_reference(text):
    assert normalize_verses(text) == _reference_normalize_verses(text)
    assert normalize_verse(text) == _reference_normalize_verse_regex(text)


@pytest.mark.parametrize("text, verses, verse", [
    ("!", [""], ""),
    ("", [], ""),
    ("a\n", ["a"], "a"),
    (" \r\n…", ["", ""], ""),
    ("\u3000a\t", ["a"], "a"),
    ("A ,\n\u2028b\r\n\n", ["a", "b", ""], "a b"),
])
def test_replace_pass_examples(text, verses, verse):
    assert normalize_verses(text) == verses == _reference_normalize_verses(text)
    assert normalize_verse(text) == verse == _reference_normalize_verse_regex(text)


def test_normalize_verses_examples():
    assert normalize_verses("") == []
    assert normalize_verses("Trăm NĂM,\r\n\n  …  \u2028Người ta!\n") == [
        "trăm năm", "", "người ta"]
    assert normalize_verses("ΑΣ\nΣΑ") == ["ας", "σα"]
    assert normalize_verses("trăm\x85năm\u2029\ntrong\fcõi") == ["trăm năm", "trong cõi"]


def test_no_module_splits_lines_but_by_the_syllable_line_rule():
    # str.splitlines also ends a line at U+2028, U+0085 and five more separators
    src = Path(syllable.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(src.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "splitlines"
    ]
    assert calls == []


def _reference_parse_syllable(token):
    """``parse_syllable``'s body before its checks became set and regex operations."""
    if not token or any(ch.isspace() for ch in token):
        raise NotASyllable(token, "empty or contains whitespace")
    marks = []
    kept = []
    for ch in unicodedata.normalize("NFD", token.lower()):
        tone = _TONE_COMBINING.get(ch)
        if tone is not None:
            marks.append(tone)
        else:
            kept.append(ch)
    if len(marks) > 1:
        raise MultipleToneMarks(token)
    tone = marks[0] if marks else Tone.NGANG
    base = _nfc("".join(kept))
    if not base:
        raise NotASyllable(token, "no letters")
    for ch in base:
        if ch.isdigit():
            raise NotASyllable(token, "contains digits")
        if ch not in VOWELS and ch not in _CONSONANT_LETTERS:
            raise NotASyllable(token, f"non-Vietnamese character {ch!r}")
    if not any(ch in VOWELS for ch in base):
        raise NotASyllable(token, "no vowel nucleus")
    split = _split_onset(base)
    if split is None:
        raise NotASyllable(token, "no vowel nucleus after onset")
    onset, rime = split
    _, coda = _split_rime(rime)
    if coda and coda not in _CODAS:
        raise NotASyllable(token, f"invalid coda {coda!r}")
    return Syllable(
        raw=token, normalized=onset + mark_rime(rime, tone), onset=onset, rime=rime,
        tone=tone, tone_class=tone.tone_class,
    )


def _outcome(parse, token):
    try:
        return parse(token)
    except NotASyllable as exc:
        return type(exc), exc.token, exc.reason, str(exc)


_MISS_LETTERS = sorted(
    set(_LETTERS)
    | {unicodedata.normalize("NFD", letter) for letter in _LETTERS}
    | {letter.upper() for letter in _LETTERS}
)
# Tone-marked consonants, eth, digits, whitespace, a zero-width space, a foreign vowel
# and bare tone and quality marks, beside the Vietnamese letters above.
_MISS_OTHERS = list("ǹḿẁđĐðÐ0789 \t\u00a0\u200böÖ") + list(_TONE_MARKS + "\u0302\u0306\u031b")


def test_parse_body_matches_the_per_character_reference():
    rng = random.Random(1515)
    parse = parse_syllable.__wrapped__  # the uncached body: every call is a miss
    mismatches = []
    for _ in range(100_000):
        token = "".join(
            rng.choice(_MISS_OTHERS) if rng.random() < 0.15 else rng.choice(_MISS_LETTERS)
            for _ in range(rng.randint(0, 6))
        )
        if _outcome(parse, token) != _outcome(_reference_parse_syllable, token):
            mismatches.append(token)
    assert mismatches == []
