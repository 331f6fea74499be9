import re
import unicodedata
from collections import Counter
from itertools import groupby

import pytest
from hypothesis import given, settings, strategies as st

from lucbat import (
    Corpus,
    FilterStats,
    InvalidEncoding,
    Poem,
    build_verse_index,
    corpus_from_text,
    filter_by_score,
    ingest,
    score_stanza,
    segment_stanza,
    split_and_shuffle,
    split_into_quatrains,
    split_quatrains,
    write_corpus,
)
from lucbat.cli import main
from helpers import perturb_quatrain
from conftest import KIEU


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_filter_stats_default_to_no_dropped_entries():
    assert FilterStats(1, 0, None).dropped == ()


class TestIngest:
    def test_two_blocks(self, tmp_path):
        path = write(tmp_path, "poems.txt", "câu một\ncâu hai\n\ncâu ba\n")
        corpus = ingest([path])
        assert len(corpus) == 2
        assert corpus.poems[0].text == "câu một\ncâu hai"
        assert corpus.poems[1].id == f"{path}:1"

    def test_empty_file(self, tmp_path):
        corpus = ingest([write(tmp_path, "empty.txt", "")])
        assert len(corpus) == 0

    def test_multiple_blank_lines_collapse(self, tmp_path):
        path = write(tmp_path, "poems.txt", "a ơi\n\n\n\nb ơi\n")
        assert len(ingest([path])) == 2

    def test_same_file_twice_keeps_ids_unique(self, tmp_path):
        path = write(tmp_path, "poems.txt", "một\n\nhai\n")
        corpus = ingest([path, path])
        ids = [p.id for p in corpus.poems]
        assert len(ids) == 4
        assert len(set(ids)) == 4

    def test_text_stored_nfc(self, tmp_path):
        decomposed = unicodedata.normalize("NFD", "mệnh trời")
        path = write(tmp_path, "poems.txt", decomposed + "\n")
        corpus = ingest([path])
        assert corpus.poems[0].text == "mệnh trời"

    def test_missing_file(self):
        with pytest.raises(OSError):
            ingest(["/nonexistent/poems.txt"])

    def test_invalid_encoding(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        with pytest.raises(InvalidEncoding):
            ingest([str(path)])

    def test_directory_expands_to_sorted_txt_files(self, tmp_path):
        write(tmp_path, "b.txt", "thơ hai\n")
        write(tmp_path, "a.txt", "thơ một\n")
        (tmp_path / "notes.md").write_text("bỏ qua", encoding="utf-8")
        corpus = ingest([str(tmp_path)])
        assert [p.text for p in corpus.poems] == ["thơ một", "thơ hai"]


# Separators that end a line for str.splitlines, but for lucbat are whitespace inside one:
# lines end at "\n", "\r\n" and "\r" only, as open() ends them.
_SEPARATORS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("separator", _SEPARATORS, ids=[f"U+{ord(c):04X}" for c in _SEPARATORS])
class TestLineRule:
    def test_separator_at_a_line_end_keeps_poem_ids_and_lines(self, tmp_path, separator):
        # a U+0085 is what a cp1252 "…" becomes when the text is read as Latin-1
        first = KIEU.replace("ghét nhau\n", f"ghét nhau{separator}\n")
        path = write(tmp_path, "poems.txt", f"{first}\n\n{KIEU}\n")
        corpus = ingest([path])
        assert [poem.id for poem in corpus.poems] == [f"{path}:0", f"{path}:1"]
        assert [poem.text for poem in corpus.poems] == [KIEU, KIEU]
        assert [len(poem.lines()) for poem in corpus.poems] == [4, 4]

    def test_separator_inside_a_verse_keeps_it_one_verse_that_scores_as_before(self, table,
                                                                               separator):
        for text in (KIEU, perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)], tone_flips=[(1, 2)])):
            six, eight, *rest = text.split("\n")
            held = "\n".join([six.replace(" ", separator, 1),
                              eight.replace(" ", f" {separator}", 2), *rest])
            [poem] = corpus_from_text(held).poems
            assert len(poem.lines()) == 4
            [quatrain] = split_quatrains(poem.text)
            stanza = segment_stanza(quatrain)
            assert [len(line) for line in stanza.lines] == [6, 8, 6, 8]
            assert score_stanza(stanza, table) == score_stanza(segment_stanza(text), table)

    def test_quatrains_output_holding_a_separator_reads_back_as_the_same_poems(self, tmp_path,
                                                                               separator):
        held = KIEU.replace(" trong ", f"{separator}trong ", 1)
        path = write(tmp_path, "poems.txt", f"{held}\n{KIEU}\n\n{held}\n")
        out = tmp_path / "q.txt"
        assert main(["quatrains", path, "--out", str(out)]) == 0
        quatrains, _ = split_into_quatrains(ingest([path]))
        assert [poem.text for poem in quatrains.poems] == [held, KIEU, held]
        assert [poem.text for poem in ingest([str(out)]).poems] == [held, KIEU, held]


_VERSES = ["trăm năm trong cõi người ta", "mệnh trời", "Chữ TÀI, chữ mệnh"]
# blank, whitespace-only, NFD (some padded) and separator-holding lines
_LINE = st.one_of(
    st.sampled_from(["", " ", "\t", " \t ", *_SEPARATORS]),
    st.sampled_from(_VERSES),
    st.builds(lambda pad, verse: pad + unicodedata.normalize("NFD", verse) + pad,
              st.sampled_from(["", "  ", "\t"]), st.sampled_from(_VERSES)),
    st.builds(lambda a, sep, b: a + sep + b,
              st.sampled_from(_VERSES), st.sampled_from(_SEPARATORS), st.sampled_from(_VERSES)),
)


def _joined(lines_and_ends, ended):
    """Each line followed by its ending; the last character is dropped unless ``ended``."""
    text = "".join(line + end for line, end in lines_and_ends)
    return text if ended else text[:-1]


_TEXT = st.builds(_joined, st.lists(st.tuples(_LINE, st.sampled_from(["\n", "\r\n", "\r"])),
                                    max_size=12), st.booleans())


@settings(max_examples=200, derandomize=True, database=None)
@given(_TEXT)
def test_text_and_file_readers_give_the_same_poems_and_ordinals(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "readers.txt"
    path.write_bytes(text.encode("utf-8"))
    from_text = corpus_from_text(text, "s").poems
    texts = [poem.text for poem in from_text]
    assert [poem.id for poem in from_text] == [f"s:{k}" for k in range(len(texts))]
    lines = [unicodedata.normalize("NFC", line.strip()) for line in re.split("\r\n|\r|\n", text)]
    assert texts == ["\n".join(run) for verses, run in groupby(lines, bool) if verses]
    from_file = ingest([str(path)]).poems
    assert [(poem.id, poem.text) for poem in from_file] == [
        (f"{path}:{k}", poem_text) for k, poem_text in enumerate(texts)]
    twice = ingest([str(path), str(path)]).poems
    assert [(poem.id, poem.text) for poem in twice] == [
        (f"{path}:{k}", poem_text) for k, poem_text in enumerate(texts * 2)]


class TestSplitAndShuffle:
    def test_eight_lines_make_two_quatrains(self):
        corpus = corpus_from_text(KIEU + "\n" + KIEU)
        quatrains, excluded = split_and_shuffle(corpus, seed=1)
        assert len(quatrains) == 2
        assert not excluded
        assert all(p.text.count("\n") == 3 for p in quatrains.poems)

    def test_unshuffled_split_preserves_order(self):
        corpus = corpus_from_text(KIEU + "\n" + KIEU + "\n\n" + KIEU)
        quatrains, excluded = split_into_quatrains(corpus)
        assert [p.id for p in quatrains.poems] == [
            f"{corpus.poems[0].id}/q0",
            f"{corpus.poems[0].id}/q1",
            f"{corpus.poems[1].id}/q0",
        ]
        assert not excluded

    def test_indented_lines_are_stripped(self):
        indented = "\n".join(f"  {line}\t" for line in KIEU.splitlines())
        corpus = Corpus(poems=(Poem(id="p", text=indented),))
        quatrains, excluded = split_into_quatrains(corpus)
        assert [(p.id, p.text) for p in quatrains.poems] == [("p/q0", KIEU)]
        assert not excluded

    def test_same_seed_same_output(self):
        corpus = corpus_from_text("\n\n".join([KIEU] * 5))
        first, _ = split_and_shuffle(corpus, seed=42)
        second, _ = split_and_shuffle(corpus, seed=42)
        assert [p.id for p in first.poems] == [p.id for p in second.poems]
        assert [p.text for p in first.poems] == [p.text for p in second.poems]

    def test_seeds_permute_same_multiset(self):
        poems = []
        for k in range(6):
            poems.append(perturb_quatrain(KIEU, tone_flips=[(1, 2)] if k % 2 else ()))
        corpus = corpus_from_text("\n\n".join(poems))
        out_a, _ = split_and_shuffle(corpus, seed=0)
        out_b, _ = split_and_shuffle(corpus, seed=99)
        assert Counter(p.text for p in out_a.poems) == Counter(
            p.text for p in out_b.poems
        )

    def test_violators_excluded_with_reason(self):
        corpus = corpus_from_text(KIEU + "\n\nlạc lõng một câu sáu\n")
        quatrains, excluded = split_and_shuffle(corpus, seed=0)
        assert len(quatrains) == 1
        assert len(excluded) == 1
        assert "not a multiple of 4" in excluded[0][1]


class TestFilterByScore:
    def test_threshold_zero_keeps_everything(self, table):
        corpus = corpus_from_text(KIEU + "\n\n" + perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)]))
        kept, stats = filter_by_score(corpus, table, min_score=0.0)
        assert stats.kept_count == 2
        assert stats.dropped_count == 0

    def test_threshold_above_maximum_keeps_nothing(self, table):
        corpus = corpus_from_text(KIEU)
        kept, stats = filter_by_score(corpus, table, min_score=100.01)
        assert stats.kept_count == 0
        assert stats.mean_score_kept is None

    def test_known_scores(self, table):
        # quatrains scoring exactly 100 and 80
        eighty = perturb_quatrain(KIEU, rhyme_breaks=[(2, 6)])
        corpus = corpus_from_text(KIEU + "\n\n" + eighty)
        kept, stats = filter_by_score(corpus, table, min_score=90.0)
        assert stats.kept_count == 1
        assert stats.dropped_count == 1
        assert stats.mean_score_kept == pytest.approx(100.0)
        assert kept.poems[0].text == KIEU

    def test_mean_score_kept_is_correctly_rounded(self, table):
        # scores 100, 500/7, 500/7: a left-to-right float sum makes the mean one ulp high
        flipped = perturb_quatrain(KIEU, tone_flips=[(1, 2), (1, 4), (2, 2), (2, 4)])
        corpus = corpus_from_text("\n\n".join([KIEU, flipped, flipped]))
        _, stats = filter_by_score(corpus, table, min_score=0.0)
        assert stats.mean_score_kept == 80.95238095238095

    def test_segmentation_failures_dropped_with_reason(self, table):
        corpus = corpus_from_text("chỉ còn lại ba chữ\n")
        kept, stats = filter_by_score(corpus, table, min_score=0.0)
        assert stats.kept_count == 0
        assert stats.dropped_count == 1
        assert stats.dropped[0][0].endswith(":0")

    def test_filter_composition(self, table):
        texts = [KIEU]
        for breaks in ([(2, 6)], [(2, 6), (3, 6)], [(2, 6), (3, 6), (4, 6)]):
            texts.append(perturb_quatrain(KIEU, rhyme_breaks=breaks))
        corpus = corpus_from_text("\n\n".join(texts))
        once, _ = filter_by_score(corpus, table, min_score=50.0)
        twice, _ = filter_by_score(once, table, min_score=90.0)
        direct, _ = filter_by_score(corpus, table, min_score=90.0)
        assert [p.text for p in twice.poems] == [p.text for p in direct.poems]

    def test_kept_rescore_at_or_above_threshold(self, table):
        texts = [KIEU, perturb_quatrain(KIEU, tone_flips=[(1, 2)])]
        corpus = corpus_from_text("\n\n".join(texts))
        kept, _ = filter_by_score(corpus, table, min_score=92.0)
        again, stats = filter_by_score(kept, table, min_score=92.0)
        assert stats.kept_count == len(kept.poems)


class TestWriteCorpus:
    def test_round_trip(self, tmp_path):
        corpus = corpus_from_text("một hai\nba bốn\n\nnăm sáu\n")
        path = tmp_path / "out.txt"
        write_corpus(corpus, str(path))
        again = ingest([str(path)])
        assert [p.text for p in again.poems] == [p.text for p in corpus.poems]


class TestVerseIndex:
    def test_single_quatrain(self):
        index = build_verse_index(corpus_from_text(KIEU))
        assert index.size <= 4

    def test_shared_verse_counted_once(self):
        corpus = corpus_from_text("câu chung\ncâu riêng\n\ncâu chung\ncâu khác\n")
        index = build_verse_index(corpus)
        assert index.size == 3

    def test_membership_ignores_punctuation_and_case(self):
        index = build_verse_index(corpus_from_text("Trăm năm trong cõi người ta\n"))
        assert "trăm năm, trong cõi người TA!" in index
        assert unicodedata.normalize("NFD", "trăm năm trong cõi người ta") in index
        assert "trăm năm trong cõi" not in index

    def test_members_are_normalization_fixed_points(self):
        from lucbat import normalize_verse

        index = build_verse_index(corpus_from_text("Một, Hai!\nBa bốn…\n"))
        assert all(normalize_verse(v) == v for v in index._verses)
