import json
import math
import random
import re
import unicodedata
from collections import defaultdict

import pytest
from hypothesis import given, settings, strategies as st

from lucbat import (
    EmptyInput,
    InvalidPairCount,
    LucBatError,
    NotASyllable,
    OddLineCount,
    Stanza,
    Tone,
    ToneClass,
    UnparseableToken,
    WrongSyllableCount,
    annotate_stanza,
    default_rule_table,
    histogram,
    normalize_verses,
    parse_syllable,
    report_record,
    rhymes_with,
    score_stanza,
    segment_stanza,
    split_quatrains,
    template,
)
from lucbat.corpus import Poem
from lucbat.scoring import _shape, score_blocks
from lucbat.syllable import _PUNCTUATION, mark_rime
from helpers import (
    QUATRAIN_RHYME_MEMBERS,
    QUATRAIN_TONE_POSITIONS,
    brute_force_score,
    perturb_quatrain,
    stanza_text,
    total_in_range,
)
from test_syllable import SYLLABLES


class TestSegmentation:
    def test_valid_quatrain(self, kieu):
        stanza = segment_stanza(kieu)
        assert stanza.n_pairs == 2
        assert [len(line) for line in stanza.lines] == [6, 8, 6, 8]

    def test_pair_count_is_derived_from_the_lines(self, kieu):
        lines = segment_stanza(kieu).lines
        assert [Stanza(lines[: 2 * n]).n_pairs for n in (0, 1, 2)] == [0, 1, 2]
        assert Stanza(lines + lines[:2]).n_pairs == 3

    def test_punctuation_and_case_ignored(self, kieu):
        noisy = kieu.replace("ta", "TA!").replace("dâu", "dâu...")
        stanza = segment_stanza(noisy)
        assert stanza.lines[0][5].normalized == "ta"

    def test_odd_line_count(self):
        with pytest.raises(OddLineCount):
            segment_stanza("một hai ba bốn năm sáu\nmột hai ba bốn năm sáu bảy tám\nlẻ loi một dòng sáu chữ")

    def test_wrong_syllable_count(self, kieu):
        lines = kieu.splitlines()
        lines[0] += " thừa"
        with pytest.raises(WrongSyllableCount) as err:
            segment_stanza("\n".join(lines))
        assert err.value.line == 1
        assert err.value.expected == 6
        assert err.value.got == 7

    def test_unparseable_token(self, kieu):
        with pytest.raises(UnparseableToken) as err:
            segment_stanza(kieu.replace("cõi", "c0d3"))
        assert err.value.line == 1

    def test_double_tone_mark_is_an_unparseable_token(self, kieu):
        with pytest.raises(UnparseableToken) as err:
            segment_stanza(kieu.replace("ghét", "\u00e1\u0300"))
        assert str(err.value) == (
            "line 2: cannot parse '\u00e1\u0300' ('\u00e1\u0300': more than one tone mark)"
        )

    def test_blank_lines_dropped(self, kieu):
        lines = kieu.splitlines()
        padded = "\n\n".join(lines)
        assert segment_stanza(padded).n_pairs == 2

    def test_six_lines_make_three_pairs(self, kieu):
        text = kieu + "\nmây bay về phía trời xa\nnhớ nhau một thuở ngọc ngà chưa phai"
        assert segment_stanza(text).n_pairs == 3


class TestScoreStanza:
    def test_kieu_is_perfect(self, kieu, table):
        report = score_stanza(segment_stanza(kieu), table)
        assert report.wrong_rhyme == 0
        assert report.wrong_tone == 0
        assert report.score == 100.0

    def test_second_kieu_quatrain_is_perfect(self, table):
        # lines 5-8: rhymes land on two near-rhyme groups (phong/hồng,
        # đèn/truyền) rather than exact rime matches
        text = (
            "Lạ gì bỉ sắc tư phong\n"
            "Trời xanh quen thói má hồng đánh ghen\n"
            "Cảo thơm lần giở trước đèn\n"
            "Phong tình cổ lục còn truyền sử xanh"
        )
        report = score_stanza(segment_stanza(text), table)
        assert report.wrong_rhyme == 0
        assert report.wrong_tone == 0
        assert report.score == 100.0

    def test_denominators_are_the_papers(self):
        # 3n - 1 distinct rhyme positions and 7n tone slots, counted from the template
        for n in range(1, 21):
            assert _shape(n)[4:6] == (3 * n - 1, 7 * n)

    def test_single_tone_violation(self, kieu, table):
        # (4,4) "thấy" -> level tone
        text = perturb_quatrain(kieu, tone_flips=[(4, 4)])
        report = score_stanza(segment_stanza(text), table)
        assert report.wrong_tone == 1
        assert report.wrong_rhyme == 0
        assert report.score == pytest.approx(100 * (1 - 1 / 14), abs=1e-9)

    def test_single_rhyme_violation(self, kieu, table):
        # (2,6) replaced by a non-rhyming level-tone syllable
        text = perturb_quatrain(kieu, rhyme_breaks=[(2, 6)])
        report = score_stanza(segment_stanza(text), table)
        assert report.wrong_rhyme == 1
        assert report.wrong_tone == 0
        assert report.score == pytest.approx(80.0, abs=1e-9)

    def test_diagnostics_completeness(self, kieu, table):
        report = score_stanza(segment_stanza(kieu), table)
        n = report.stanza.n_pairs
        compiled = template(n)
        assert len(report.rhyme_ok) == len(compiled.rhyme_pairs) == (3 * n - 1) - n
        assert len(report.actual_tones) == len(compiled.tone_slots) == 7 * n
        assert all(report.rhyme_ok)
        assert all(
            actual is expected
            for (_, expected), actual in zip(compiled.tone_slots, report.actual_tones)
        )

    def test_tone_flip_patterns_match_formula(self, kieu, table):
        # all 2^7 violation patterns over the first pair's tone positions
        first_pair = [p for p in QUATRAIN_TONE_POSITIONS if p[0] <= 2]
        assert len(first_pair) == 7
        for mask in range(128):
            flips = [p for k, p in enumerate(first_pair) if mask >> k & 1]
            text = perturb_quatrain(kieu, tone_flips=flips)
            report = score_stanza(segment_stanza(text), table)
            assert report.wrong_tone == len(flips)
            assert report.wrong_rhyme == 0
            assert report.score == pytest.approx(
                brute_force_score(2, 0, len(flips)), abs=1e-9
            )

    def test_monotone_in_violations(self, kieu, table):
        # adding one violation at a time never raises the score, and the
        # decrement is exactly the matching penalty quantum
        flips, breaks = [], []
        previous = 100.0
        plan = [("tone", p) for p in QUATRAIN_TONE_POSITIONS if p not in QUATRAIN_RHYME_MEMBERS]
        plan += [("rhyme", p) for p in QUATRAIN_RHYME_MEMBERS]
        for kind, position in plan:
            (flips if kind == "tone" else breaks).append(position)
            text = perturb_quatrain(kieu, tone_flips=flips, rhyme_breaks=breaks)
            score = score_stanza(segment_stanza(text), table).score
            drop = 100 / 14 if kind == "tone" else 100 / 5
            assert score == pytest.approx(previous - drop, abs=1e-9)
            previous = score

    def test_retokenized_stanza_scores_identically(self, kieu, table):
        stanza = segment_stanza(kieu)
        report = score_stanza(stanza, table)
        again = score_stanza(segment_stanza(stanza_text(stanza)), table)
        assert again == report

    def test_score_can_go_negative(self, kieu, table):
        text = perturb_quatrain(
            kieu,
            tone_flips=QUATRAIN_TONE_POSITIONS,
            rhyme_breaks=QUATRAIN_RHYME_MEMBERS,
        )
        report = score_stanza(segment_stanza(text), table)
        assert report.wrong_tone == 14
        assert report.wrong_rhyme == 3
        assert report.score < 0


class TestSplitQuatrains:
    def test_six_lines_rejected(self, kieu):
        text = "\n".join(kieu.splitlines() + kieu.splitlines()[:2])
        with pytest.raises(OddLineCount, match="needs a multiple of 4 lines, got 6"):
            split_quatrains(text)

    def test_split_quatrains(self, kieu):
        parts = split_quatrains(kieu + "\n\n" + kieu)
        assert len(parts) == 2
        assert parts[0].count("\n") == 3


class TestScoreBlocks:
    def test_each_unit_scores_the_six_line_opening_its_own_way(self, kieu, table):
        # filter's unit keeps the opening as one n=3 stanza; score's fails it, all or none
        six = kieu + "\nLạ gì bỉ sắc tư phong\nTrời xanh quen thói má hồng đánh ghen"
        poems = [Poem("a", kieu + "\n" + kieu), Poem("b", six)]
        by_poem = list(score_blocks(poems, table, "poem"))
        by_quatrain = list(score_blocks(poems, table, "quatrain"))
        assert [poem.id for poem, _ in by_poem] == ["a", "b"]
        assert [poem.id for poem, _ in by_quatrain] == ["a", "b"]
        assert [[r.stanza.n_pairs for r in reports] for _, reports in by_poem] == [[4], [3]]
        assert by_poem[1][1][0].score == 100.0
        assert [r.stanza.n_pairs for r in by_quatrain[0][1]] == [2, 2]
        error = by_quatrain[1][1]
        assert isinstance(error, OddLineCount) and "4 lines, got 6" in str(error)

    def test_an_error_the_consumer_throws_in_is_not_a_poem_failure(self, kieu, table):
        blocks = score_blocks([Poem("a", kieu), Poem("b", "chỉ một dòng")], table, "quatrain")
        next(blocks)
        with pytest.raises(LucBatError, match="from the consumer"):
            blocks.throw(LucBatError("from the consumer"))

    def test_unknown_unit_rejected(self, kieu, table):
        with pytest.raises(ValueError, match="unit must be"):
            next(score_blocks([Poem("a", kieu)], table, "stanza"))


class TestHistogram:
    def test_simple_bins(self):
        hist = histogram([100.0, 100.0, 95.0])
        assert hist.bins[-1] == (90.0, 100.0, 3)
        assert total_in_range(hist) == 3

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            histogram([])

    def test_boundaries(self):
        hist = histogram([0.0, 10.0, 89.999, 90.0, 100.0])
        as_map = {(lo, hi): count for lo, hi, count in hist.bins}
        assert as_map[(0.0, 10.0)] == 1
        assert as_map[(10.0, 20.0)] == 1
        assert as_map[(80.0, 90.0)] == 1
        assert as_map[(90.0, 100.0)] == 2
        # each decile edge 10k and the floats either side of it, within [0, 100], land in
        # the bin with lo <= score < hi, the last bin closed
        edges = [10.0 * k for k in range(11)]
        scores = [s for edge in edges for s in (math.nextafter(edge, -math.inf), edge,
                                                math.nextafter(edge, math.inf))
                  if 0.0 <= s <= 100.0] + [5e-324, -0.0]
        assert len(scores) == 33
        for score in scores:
            hist = histogram([score])
            assert (hist.below, hist.above) == (0, 0), score
            assert [(lo, hi) for lo, hi, _ in hist.bins] == list(zip(edges, edges[1:]))
            expected = [int(lo <= score < hi or hi == 100.0 and score == 100.0)
                        for lo, hi in zip(edges, edges[1:])]
            assert [count for _, _, count in hist.bins] == expected, score

    def test_out_of_range(self):
        hist = histogram([-3.0, 50.0, 101.0, -math.inf, math.inf, math.inf])
        assert hist.below == 2
        assert hist.above == 3
        assert total_in_range(hist) == 1

    def test_nan_score_is_named_by_its_index(self):
        with pytest.raises(LucBatError, match=r"^scores\[2\] is NaN$"):
            histogram([50.0, -math.inf, math.nan, 101.0])

    def test_seeded_sample_matches_naive_recount(self):
        rng = random.Random(20240615)
        scores = [rng.uniform(-5, 105) for _ in range(500)]
        hist = histogram(scores)
        # independent naive pass
        for lo, hi, count in hist.bins:
            if hi >= 100.0:
                expected = sum(1 for s in scores if lo <= s <= hi)
            else:
                expected = sum(1 for s in scores if lo <= s < hi)
            assert count == expected
        assert hist.below == sum(1 for s in scores if s < 0)
        assert hist.above == sum(1 for s in scores if s > 100)
        assert total_in_range(hist) + hist.below + hist.above == 500


class TestReporting:
    def test_record_is_json_serializable(self, kieu, table):
        report = score_stanza(segment_stanza(kieu), table)
        record = report_record("poem-1", 1, report)
        assert "\n" not in record
        parsed = json.loads(record)
        assert parsed["score"] == 100.0
        assert parsed["R"] == 0 and parsed["T"] == 0 and parsed["n"] == 2
        assert len(parsed["diagnostics"]["tone"]) == 14
        assert len(parsed["diagnostics"]["rhyme"]) == 3

    @pytest.mark.parametrize("tone_flips, rhyme_breaks", [
        *(pytest.param([p], [], id=f"tone-{p[0]}-{p[1]}") for p in QUATRAIN_TONE_POSITIONS),
        *(pytest.param([], [p], id=f"rhyme-{p[0]}-{p[1]}") for p in QUATRAIN_RHYME_MEMBERS),
        # (2, 6) breaks both checks, so it carries both marks
        pytest.param([(1, 2), (2, 6), (4, 4)], [(2, 6), (4, 6)], id="mixed"),
    ])
    def test_annotation_marks_violations(self, kieu, table, tone_flips, rhyme_breaks):
        text = perturb_quatrain(kieu, tone_flips=tone_flips, rhyme_breaks=rhyme_breaks)
        rendered = annotate_stanza(score_stanza(segment_stanza(text), table)).splitlines()
        rhyme_marked, tone_marked = set(), set()
        for line, verse in enumerate(rendered[:-1], start=1):
            for word, token in enumerate(verse.split(" "), start=1):
                rhyme_mark, tone_mark = re.fullmatch(r"\w+(\[R\])?(\[T\])?", token).groups()
                if rhyme_mark:
                    rhyme_marked.add((line, word))
                if tone_mark:
                    tone_marked.add((line, word))
        assert rhyme_marked == set(rhyme_breaks)
        assert tone_marked == set(tone_flips)
        assert rendered[-1].startswith(f"n=2 R={len(rhyme_breaks)} T={len(tone_flips)} score=")

    def test_annotation_clean_for_perfect_stanza(self, kieu, table):
        rendered = annotate_stanza(score_stanza(segment_stanza(kieu), table))
        assert "[R]" not in rendered and "[T]" not in rendered


def record_dict(poem_id, stanza_index, report):
    """The scoring record as the nested dict that json.dumps used to serialize."""
    compiled = template(report.stanza.n_pairs)
    return {
        "poem_id": poem_id,
        "stanza_index": stanza_index,
        "n": report.stanza.n_pairs,
        "R": report.wrong_rhyme,
        "T": report.wrong_tone,
        "score": report.score,
        "diagnostics": {
            "rhyme": [
                {"position": list(position), "anchor": list(anchor), "ok": ok}
                for (position, anchor), ok in zip(compiled.rhyme_pairs, report.rhyme_ok)
            ],
            "tone": [
                {
                    "position": list(position),
                    "expected": expected.value,
                    "actual": actual.value,
                    "ok": actual is expected,
                }
                for (position, expected), actual in zip(compiled.tone_slots, report.actual_tones)
            ],
        },
    }


def dumped(record):
    return json.dumps(record, ensure_ascii=False, sort_keys=True, allow_nan=False)


# each rime in a near-rhyme group of its own among these
_RIMES = ("a", "ai", "au", "om", "i")
_ONSETS = ("t", "m", "l", "kh")
_TONES = {True: (Tone.NGANG, Tone.HUYEN), False: (Tone.SAC, Tone.HOI, Tone.NGA, Tone.NANG)}
_WORDS = st.sampled_from([(o, r, t) for o in _ONSETS for r in _RIMES for t in Tone])


@st.composite
def planted_stanzas(draw):
    """(stanza text, rhyme faults, tone faults): 1-4 pairs, each fault planted by choice."""
    n = draw(st.integers(1, 4))
    words = {
        (line, word): list(draw(_WORDS))
        for line in range(1, 2 * n + 1)
        for word in range(1, (8 if line % 2 == 0 else 6) + 1)
    }
    compiled = template(n)
    tone_faults = rhyme_faults = 0
    for position, expected in compiled.tone_slots:
        fault = draw(st.booleans())
        words[position][2] = draw(st.sampled_from(_TONES[(expected is ToneClass.LEVEL) != fault]))
        tone_faults += fault
    for member, anchor in compiled.rhyme_pairs:  # anchors are never members
        fault = draw(st.booleans())
        rime = words[anchor][1]
        words[member][1] = draw(st.sampled_from([r for r in _RIMES if r != rime])) if fault else rime
        rhyme_faults += fault
    lines = [
        " ".join(onset + mark_rime(rime, tone)
                 for (line, _), (onset, rime, tone) in words.items() if line == k)
        for k in range(1, 2 * n + 1)
    ]
    return "\n".join(lines), rhyme_faults, tone_faults


_POEM_IDS = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\x7f\u2028\u2029/:'),
    st.characters(min_codepoint=0x10000),
    st.characters(),
))


class TestRecordLine:
    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(planted=planted_stanzas(), poem_id=_POEM_IDS,
           stanza_index=st.integers(0, 2**70))
    def test_line_is_byte_identical_to_json_dumps_of_the_dict(
        self, table, planted, poem_id, stanza_index
    ):
        text, rhyme_faults, tone_faults = planted
        report = score_stanza(segment_stanza(text), table)
        assert (report.wrong_rhyme, report.wrong_tone) == (rhyme_faults, tone_faults)
        line = report_record(poem_id, stanza_index, report)
        assert line == dumped(record_dict(poem_id, stanza_index, report))


def reference_segment_stanza(raw_poem):
    """``segment_stanza`` as it was: joined normalized verses split on single spaces."""
    lines = [line for line in normalize_verses(raw_poem) if line]
    if not lines or len(lines) % 2 != 0:
        raise OddLineCount(f"need an even number of lines, got {len(lines)}")
    parsed_lines = []
    for lineno, line in enumerate(lines, start=1):
        expected = 6 if lineno % 2 == 1 else 8
        tokens = line.split(" ")
        if len(tokens) != expected:
            raise WrongSyllableCount(lineno, expected, len(tokens))
        parsed = []
        for token in tokens:
            try:
                parsed.append(parse_syllable(token))
            except NotASyllable as exc:
                raise UnparseableToken(lineno, token, str(exc)) from exc
        parsed_lines.append(tuple(parsed))
    return Stanza(tuple(parsed_lines))


def reference_score_stanza(stanza, table):
    """``score_stanza`` as it was: a nested walk over ``template(n)``'s one-based positions."""
    compiled = template(stanza.n_pairs)
    lines = stanza.lines
    rhyme_ok = tuple(
        rhymes_with(lines[line - 1][word - 1], lines[a_line - 1][a_word - 1], table)
        for (line, word), (a_line, a_word) in compiled.rhyme_pairs
    )
    actual_tones = tuple(
        lines[line - 1][word - 1].tone_class for (line, word), _ in compiled.tone_slots
    )
    wrong_rhyme = rhyme_ok.count(False)
    wrong_tone = sum(
        actual is not expected
        for (_, expected), actual in zip(compiled.tone_slots, actual_tones)
    )
    # the paper's denominators: 3n - 1 rhyme positions and 7n tone positions
    score = 100.0 * (
        1.0 - wrong_rhyme / (3 * stanza.n_pairs - 1) - wrong_tone / (7 * stanza.n_pairs)
    )
    return wrong_rhyme, wrong_tone, score, rhyme_ok, actual_tones


def _outcome(function, *args):
    """The result, or the exception's type, text and error attributes."""
    try:
        return function(*args)
    except Exception as exc:
        return (type(exc), str(exc), *(getattr(exc, name, None)
                                       for name in ("line", "token", "expected", "got")))


_SPACES = [" ", "  ", "\t", "\u00a0", "\u2000", " \t\u00a0"]
# loanwords, double tone marks and punctuation the normalizer keeps: none parses
_BAD_TOKENS = ["pizza", "wifi", "email", "Facebook", "x3", "öl",
               "\u00e1\u0300", "t\u1ea3\u0301", "ng\u01b0\u1eddi\u0303", "ta\u201c", "\u2014"]


def noisy_word(rng):
    """A vocabulary syllable in another case or Unicode form, maybe with punctuation."""
    word = rng.choice([str.lower, str.upper, str.capitalize])(rng.choice(SYLLABLES))
    if rng.random() < 0.5:
        word = unicodedata.normalize("NFD", word)
    if rng.random() < 0.2:
        word += "".join(rng.choices(sorted(_PUNCTUATION), k=rng.randint(1, 3)))
    return word


@st.composite
def noisy_stanzas(draw):
    """Stanza text with blank and punctuation-only lines, and now and then a planted fault.

    The faults: an odd verse count, a verse with a wrong syllable count, or a
    token that does not parse.
    """
    rng = draw(st.randoms(use_true_random=True))
    verses = rng.choice([2, 2, 4, 4, 4, 6, 8, 0, 1, 3])
    lines = []
    for index in range(verses):
        size = (8 if index % 2 else 6) + (rng.choice([-1, 1, -6]) if rng.random() < 0.05 else 0)
        words = [noisy_word(rng) for _ in range(size)]
        if words and rng.random() < 0.05:
            words[rng.randrange(len(words))] = rng.choice(_BAD_TOKENS)
        lines.append(rng.choice(["", " ", "\t", "\u2000"])
                     + "".join(word + rng.choice(_SPACES) for word in words))
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.insert(rng.randint(0, len(lines)), rng.choice([
            "",
            "".join(rng.choices(_SPACES, k=rng.randint(1, 3))),
            " ".join(rng.choices(sorted(_PUNCTUATION), k=rng.randint(1, 4))),
        ]))
    return rng.choice(["\n", "\r\n", "\n\n"]).join(lines)


_TABLE = default_rule_table()
_PARSED = [parse_syllable(token) for token in SYLLABLES]


def _rhyme_key(syllable):
    """Equal for two vocabulary syllables exactly when they rhyme."""
    group = _TABLE.group_of(syllable.rime)
    return ("group", group) if group is not None else ("rime", syllable.rime)


_RHYMING = defaultdict(list)
for _syllable in _PARSED:
    _RHYMING[_rhyme_key(_syllable)].append(_syllable)
_BY_CLASS = {tone_class: [s for s in _PARSED if s.tone_class is tone_class]
             for tone_class in ToneClass}


@st.composite
def vocabulary_stanzas(draw):
    """A stanza of 1-6 pairs of vocabulary syllables, tone and rhyme faults planted by choice."""
    n = draw(st.integers(1, 6))
    rng = draw(st.randoms(use_true_random=True))
    words = {
        (line, word): rng.choice(_PARSED)
        for line in range(1, 2 * n + 1)
        for word in range(1, (8 if line % 2 == 0 else 6) + 1)
    }
    compiled = template(n)
    for position, expected in compiled.tone_slots:
        fault = rng.random() < 0.3
        wanted = next(c for c in ToneClass if c is not expected) if fault else expected
        words[position] = rng.choice(_BY_CLASS[wanted])
    for member, anchor in compiled.rhyme_pairs:
        if rng.random() < 0.7:  # else keep the drawn syllable, which rarely rhymes
            words[member] = rng.choice(_RHYMING[_rhyme_key(words[anchor])])
    lines = tuple(
        tuple(words[line, word] for word in range(1, (8 if line % 2 == 0 else 6) + 1))
        for line in range(1, 2 * n + 1)
    )
    return Stanza(lines)


class TestSegmentAndScoreEquivalence:
    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(noisy_stanzas())
    def test_segment_stanza_matches_the_split_join_reference(self, text):
        assert _outcome(segment_stanza, text) == _outcome(reference_segment_stanza, text)

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(stanza=vocabulary_stanzas())
    def test_score_stanza_matches_the_nested_walk(self, stanza):
        report = score_stanza(stanza, _TABLE)
        wrong_rhyme, wrong_tone, score, rhyme_ok, actual_tones = reference_score_stanza(
            stanza, _TABLE)
        assert report.rhyme_ok == rhyme_ok
        assert report.actual_tones == actual_tones
        assert (report.wrong_rhyme, report.wrong_tone) == (wrong_rhyme, wrong_tone)
        assert report.score.hex() == score.hex()
        assert -100.0 <= report.score <= 100.0
        assert report.stanza is stanza

    @pytest.mark.parametrize("cut", [(1, 5), (2, 7), (3, 1), (4, 3)])
    def test_hand_built_stanza_with_a_short_line_fails_as_before(self, kieu, table, cut):
        line, keep = cut
        lines = list(segment_stanza(kieu).lines)
        lines[line - 1] = lines[line - 1][:keep]
        stanza = Stanza(tuple(lines))
        assert _outcome(score_stanza, stanza, table) == _outcome(
            reference_score_stanza, stanza, table)
        assert _outcome(score_stanza, stanza, table)[0] is IndexError

    @pytest.mark.parametrize("n_pairs", [True, 1.0, 2.0, 0, -1])
    def test_bad_pair_count_fails_as_before(self, kieu, table, n_pairs):
        # a Stanza's pair count is len(lines) // 2, so a stanza of no lines is the only one
        # with a bad count; the compiled caches that score_stanza reads still take any n
        lines = segment_stanza(kieu).lines
        for n in (1, 2):  # fill the per-n caches first: True must not hit 1's entry
            score_stanza(Stanza(lines[: 2 * n]), table)
        for compiled in (template, _shape):
            assert _outcome(compiled, n_pairs)[0] is InvalidPairCount
        stanza = Stanza(())
        assert _outcome(score_stanza, stanza, table) == _outcome(
            reference_score_stanza, stanza, table)
        assert _outcome(score_stanza, stanza, table)[0] is InvalidPairCount
