import math
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from lucbat import (
    Corpus,
    CreativityReport,
    EmptyGeneratedSet,
    EmptyPoem,
    Poem,
    PoemNovelty,
    VerseIndex,
    build_verse_index,
    corpus_from_text,
    creativity_score,
)
from lucbat.corpus import _BATCH
from lucbat.syllable import _lines, normalize_verse

TRAINING = """\
trăm năm trong cõi người ta
chữ tài chữ mệnh khéo là ghét nhau

trải qua một cuộc bể dâu
những điều trông thấy mà đau đớn lòng
"""


@pytest.fixture()
def index():
    return build_verse_index(corpus_from_text(TRAINING))


def test_fully_novel_generation(index):
    generated = corpus_from_text("mây trôi lặng lẽ qua đồi\ngió đưa hương cốm bồi hồi trong tim\n")
    report = creativity_score(generated, index)
    assert report.score == 1.0
    assert all(n.copied_verses == 0 for n in report.per_poem)


def test_fully_copied_generation(index):
    generated = corpus_from_text(
        "trăm năm trong cõi người ta\nchữ tài chữ mệnh khéo là ghét nhau\n"
    )
    report = creativity_score(generated, index)
    assert report.score == 0.0


def test_half_copied_poem(index):
    generated = corpus_from_text(
        "trăm năm trong cõi người ta\n"
        "một câu chưa thấy ở đâu bao giờ\n"
        "trải qua một cuộc bể dâu\n"
        "một câu khác cũng chưa từng gặp\n"
    )
    report = creativity_score(generated, index)
    assert report.per_poem[0].copied_verses == 2
    assert report.per_poem[0].total_verses == 4
    assert report.per_poem[0].copied_ratio == 0.5
    assert report.score == 0.5


def test_overlap_fractions():
    index = VerseIndex([f"câu số {k} trong kho" for k in range(1, 5)])
    for copied in range(5):
        verses = [f"câu số {k} trong kho" for k in range(1, copied + 1)]
        verses += [f"câu mới thứ {k}" for k in range(4 - copied)]
        report = creativity_score(corpus_from_text("\n".join(verses) + "\n"), index)
        assert report.score == pytest.approx(1 - copied / 4)


def test_permutation_invariance(index):
    a = "trăm năm trong cõi người ta\ncâu lạ thứ nhất nơi đây\n"
    b = "câu lạ thứ nhì xa xôi\ncâu lạ thứ ba cuối trời\n"
    forward = creativity_score(corpus_from_text(a + "\n" + b), index)
    backward = creativity_score(corpus_from_text(b + "\n" + a), index)
    assert forward.score == pytest.approx(backward.score)


def test_adding_novel_poem_weakly_increases(index):
    base = "trăm năm trong cõi người ta\ncâu lạ một\n"
    novel = "câu lạ hai\ncâu lạ ba\n"
    copied = "trải qua một cuộc bể dâu\nnhững điều trông thấy mà đau đớn lòng\n"
    score_base = creativity_score(corpus_from_text(base), index).score
    score_plus_novel = creativity_score(corpus_from_text(base + "\n" + novel), index).score
    score_plus_copy = creativity_score(corpus_from_text(base + "\n" + copied), index).score
    assert score_plus_novel >= score_base
    assert score_plus_copy <= score_base


def test_membership_normalization(index):
    generated = corpus_from_text("TRĂM năm, trong cõi người ta!\n")
    assert creativity_score(generated, index).score == 0.0


def test_repeat_counts_per_occurrence(index):
    generated = corpus_from_text(
        "trăm năm trong cõi người ta\n"
        "trăm năm trong cõi người ta\n"
        "câu hoàn toàn mới\n"
        "câu cũng rất mới\n"
    )
    report = creativity_score(generated, index)
    assert report.per_poem[0].copied_verses == 2


def test_empty_generated_set(index):
    with pytest.raises(EmptyGeneratedSet):
        creativity_score(corpus_from_text(""), index)


def test_empty_poem_detected(index):
    broken = Corpus(poems=(Poem(id="x", text="   "),))
    with pytest.raises(EmptyPoem):
        creativity_score(broken, index)


# Lines that are equal after normalization, lines that are not, and lines that
# normalize to "": blank, whitespace-only and punctuation-only.
_LINES = st.sampled_from([
    "Trăm năm trong cõi người ta",
    "trăm NĂM, trong cõi… người ta!",
    unicodedata.normalize("NFD", "  Trăm năm trong cõi người ta  "),
    "chữ tài chữ mệnh khéo là ghét nhau",
    "mây trôi lặng lẽ qua đồi",
    "ΑΣ", "İ", "", "   ", "\t\u3000", "…", "(–)", ", ; :",
])
_BOUNDARIES = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x85", "\u2028"])
_POEM_TEXT = st.lists(st.tuples(_LINES, _BOUNDARIES).map("".join), min_size=1, max_size=6).map(
    "".join)
_CORPUS = st.lists(_POEM_TEXT, min_size=1, max_size=5).map(
    lambda texts: Corpus(tuple(Poem(id=f"p:{i}", text=text) for i, text in enumerate(texts))))


def _reference_creativity(generated, index):
    """Per-verse lookups through ``verse in index``, as ``creativity_score`` once made them."""
    per_poem = []
    for poem in generated.poems:
        verses = poem.lines()
        if not verses:
            raise EmptyPoem(poem.id)
        copied = sum(1 for verse in verses if verse in index)
        per_poem.append(PoemNovelty(poem.id, copied, len(verses)))
    score = math.fsum(1.0 - novelty.copied_ratio for novelty in per_poem) / len(per_poem)
    return CreativityReport(tuple(per_poem), score)


@settings(max_examples=200, derandomize=True, database=None)
@given(_CORPUS)
def test_index_built_a_poem_at_a_time_equals_one_built_a_verse_at_a_time(corpus):
    expected = VerseIndex(line for poem in corpus.poems for line in poem.lines())
    assert build_verse_index(corpus)._verses == expected._verses


@settings(max_examples=200, derandomize=True, database=None)
@given(training=_CORPUS, generated=_CORPUS)
def test_creativity_score_equals_per_verse_reference(training, generated):
    index = build_verse_index(training)
    try:
        expected = _reference_creativity(generated, index)
    except EmptyPoem:
        with pytest.raises(EmptyPoem):
            creativity_score(generated, index)
    else:
        assert creativity_score(generated, index) == expected


# Two full batches and one poem more, cycling through a few drawn texts.  Each poem ends in
# a verse of its own, so an index that skipped a batch misses one.
_THREE_BATCHES = st.lists(_POEM_TEXT, min_size=1, max_size=8).map(
    lambda texts: Corpus(tuple(Poem(id=f"p:{i}", text=f"{texts[i % len(texts)]}bài thứ {i}")
                               for i in range(2 * _BATCH + 1))))


@settings(max_examples=20, derandomize=True, database=None)
@given(_THREE_BATCHES)
def test_index_built_across_batches_equals_one_built_a_verse_at_a_time(corpus):
    expected = VerseIndex(line for poem in corpus.poems for line in poem.lines())
    assert build_verse_index(corpus)._verses == expected._verses


@settings(max_examples=20, derandomize=True, database=None)
@given(training=_THREE_BATCHES, generated=_THREE_BATCHES)
def test_creativity_score_across_batches_equals_per_verse_reference(training, generated):
    index = build_verse_index(training)
    assert creativity_score(generated, index) == _reference_creativity(generated, index)


# Lines for the ends of every poem, so that each place where one batch's text ends and the
# next one's begins holds them: punctuation-only, led by an ideographic space, ended by a tab.
_EDGE_LINES = ("…!", "\u3000Trăm năm trong cõi người ta", "chữ tài chữ mệnh khéo là ghét nhau\t")


def _edge_corpus(shift):
    return Corpus(tuple(
        Poem(f"p:{i}", f"{_EDGE_LINES[(i + shift) % 3]}\nbài thứ {i * shift}\n"
                       f"{_EDGE_LINES[(i + shift + 1) % 3]}")
        for i in range(2 * _BATCH + 1)))


def test_batch_edges_match_the_per_verse_reference():
    training, generated = _edge_corpus(1), _edge_corpus(2)
    index = build_verse_index(training)
    expected = {normalize_verse(line) for poem in training.poems for line in _lines(poem.text)}
    assert index._verses == expected - {""}
    assert {"trăm năm trong cõi người ta", "chữ tài chữ mệnh khéo là ghét nhau"} <= index._verses
    lines = [poem.lines() for poem in generated.poems]
    assert index.copied_counts(lines) == [
        sum(normalize_verse(line) in expected - {""} for line in verses) for verses in lines]


def test_first_empty_poem_is_raised_from_a_later_batch(index):
    texts = ["mây trôi lặng lẽ qua đồi\n"] * (2 * _BATCH + 1)
    for k in (_BATCH + 3, _BATCH + 7, 2 * _BATCH):
        texts[k] = " \n\t\n"
    generated = Corpus(tuple(Poem(f"p:{i}", text) for i, text in enumerate(texts)))
    with pytest.raises(EmptyPoem) as raised:
        creativity_score(generated, index)
    assert raised.value.poem_id == f"p:{_BATCH + 3}"


def test_count_copied_skips_blank_and_punctuation_only_lines(index):
    text = "Trăm năm trong cõi người ta!\n\n   \n…\r\nTRĂM NĂM TRONG CÕI NGƯỜI TA\nmới"
    assert index.copied_counts([Poem("x", text).lines()]) == [2]


def test_a_verse_with_a_line_break_stays_one_verse():
    index = VerseIndex(["a\nb"])
    assert index._verses == frozenset({"a b"})
    assert "a\nb" in index
    assert "a" not in index


def test_empty_verse_is_never_in_the_index(index):
    assert "" not in index
    assert "  …  " not in index
    assert "" not in VerseIndex(["", "…", "a"])


def test_score_is_the_correctly_rounded_mean():
    # shares 1 - 1/3, 1 - 2/7 and 1 - 3/9: a left-to-right float sum gives 0.6825396825396824
    index = VerseIndex([f"câu cũ số {k}" for k in range(3)])
    poems = []
    for verses, copied in ((3, 1), (7, 2), (9, 3)):
        lines = [f"câu cũ số {k}" for k in range(copied)]
        lines += [f"câu mới số {k} của bài {verses}" for k in range(verses - copied)]
        poems.append("\n".join(lines))
    report = creativity_score(corpus_from_text("\n\n".join(poems) + "\n"), index)
    assert [(n.copied_verses, n.total_verses) for n in report.per_poem] == [(1, 3), (2, 7), (3, 9)]
    assert report.score == math.fsum([1 - 1 / 3, 1 - 2 / 7, 1 - 3 / 9]) / 3 == 0.6825396825396827
