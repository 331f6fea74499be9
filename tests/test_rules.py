import itertools
import unicodedata

import pytest

from lucbat import (
    InvalidPairCount,
    RuleTable,
    RuleTableError,
    ToneClass,
    build_rhyme_chains,
    default_rule_table,
    parse_rule_table,
    parse_syllable,
    rhymes_with,
    template,
)


class TestRhymeChains:
    def test_single_pair(self):
        chains = build_rhyme_chains(1)
        assert [c.positions for c in chains] == [((1, 6), (2, 6))]
        assert sum(len(c.positions) for c in chains) == 3 * 1 - 1

    def test_quatrain(self):
        chains = build_rhyme_chains(2)
        assert [c.positions for c in chains] == [
            ((1, 6), (2, 6)),
            ((2, 8), (3, 6), (4, 6)),
        ]
        assert sum(len(c.positions) for c in chains) == 3 * 2 - 1

    def test_three_pairs(self):
        # hand enumeration: word 6 of lines 1-2; then word 8 of each
        # eight-line chains into word 6 of the next two lines
        chains = build_rhyme_chains(3)
        assert [c.positions for c in chains] == [
            ((1, 6), (2, 6)),
            ((2, 8), (3, 6), (4, 6)),
            ((4, 8), (5, 6), (6, 6)),
        ]
        assert sum(len(c.positions) for c in chains) == 8

    @pytest.mark.parametrize("n", range(1, 51))
    def test_count_law(self, n):
        chains = build_rhyme_chains(n)
        positions = [p for c in chains for p in c.positions]
        assert len(positions) == 3 * n - 1
        assert len(set(positions)) == len(positions)  # pairwise disjoint
        # the final eight-line's 8th word is free
        assert (2 * n, 8) not in positions

    @pytest.mark.parametrize("bad", [0, -1, -100])
    def test_invalid_pair_count(self, bad):
        with pytest.raises(InvalidPairCount):
            build_rhyme_chains(bad)

    def test_anchors(self):
        chains = build_rhyme_chains(3)
        assert [c.anchor for c in chains] == [(1, 6), (2, 8), (4, 8)]
        assert chains[1].members == ((3, 6), (4, 6))


class TestToneTemplate:
    def test_template_positions(self):
        level, oblique = ToneClass.LEVEL, ToneClass.OBLIQUE
        assert template(1).tone_slots == (
            ((1, 2), level), ((1, 4), oblique), ((1, 6), level),
            ((2, 2), level), ((2, 4), oblique), ((2, 6), level), ((2, 8), level),
        )
        # every further pair repeats the first one's slots two lines down
        slots = template(3).tone_slots
        for k in range(3):
            pair = [((line - 2 * k, word), expected)
                    for (line, word), expected in slots[7 * k : 7 * k + 7]]
            assert tuple(pair) == template(1).tone_slots

    @pytest.mark.parametrize("word", [1, 3, 5])
    def test_odd_positions_unconstrained(self, word):
        for n in (1, 2, 5):
            assert all(w != word for (_, w), _ in template(n).tone_slots)

    def test_eight_only_position(self):
        for n in (1, 2, 5):
            words = {(line % 2, word) for (line, word), _ in template(n).tone_slots}
            assert (0, 8) in words and (1, 8) not in words  # word 8 only on eight-lines
            assert all(word <= (6 if odd else 8) for odd, word in words)
            assert all(word != 7 for _, word in words)

    def test_checked_positions_per_pair(self):
        for n in range(1, 21):
            compiled = template(n)
            assert compiled.n_pairs == n
            assert len(compiled.tone_slots) == compiled.tone_positions == 7 * n
            assert compiled.rhyme_positions == 3 * n - 1
            chains = build_rhyme_chains(n)
            assert compiled.rhyme_pairs == tuple(
                (member, chain.anchor) for chain in chains for member in chain.members
            )
            assert template(n) is compiled  # compiled once, then shared

    @pytest.mark.parametrize("bad", [0, -1, -100, True, 2.0])
    def test_invalid_pair_count(self, bad):
        with pytest.raises(InvalidPairCount):
            template(bad)


class TestRhymesWith:
    @pytest.mark.parametrize(
        "a,b,expect",
        [
            ("ta", "là", True),      # identical rime "a"
            ("nhau", "dâu", True),   # near group {au, âu}
            ("ta", "lòng", False),   # "a" vs "ong"
            ("quý", "thúy", True),   # glide folding: y vs uy
            ("đèn", "truyền", True),
            ("trường", "lòng", True),
        ],
    )
    def test_pairs(self, table, a, b, expect):
        assert rhymes_with(parse_syllable(a), parse_syllable(b), table) is expect

    def test_tone_ignored(self, table):
        assert rhymes_with(parse_syllable("ta"), parse_syllable("tạ"), table)

    def test_equivalence_relation(self, table):
        words = ["ta", "là", "nhau", "dâu", "đau", "lòng", "trông", "xa", "người", "đời"]
        syllables = [parse_syllable(w) for w in words]
        for s in syllables:
            assert rhymes_with(s, s, table)  # reflexive
        for a, b in itertools.permutations(syllables, 2):
            assert rhymes_with(a, b, table) == rhymes_with(b, a, table)  # symmetric
        for a, b, c in itertools.permutations(syllables, 3):
            if rhymes_with(a, b, table) and rhymes_with(b, c, table):
                assert rhymes_with(a, c, table)  # transitive


class TestRuleTableLoading:
    def test_groups_are_partition(self, table):
        seen = set()
        for group in table.groups:
            assert not (group & seen)
            seen |= group

    def test_default_table_is_one_object(self):
        assert default_rule_table() is default_rule_table()

    def test_parse_simple(self):
        t = parse_rule_table("# version: 9\nau âu\nai ay ây\n")
        assert t.version == "9"
        assert t.compatible("au", "âu")
        assert not t.compatible("au", "ai")

    def test_unknown_rimes_need_exact_match(self):
        t = parse_rule_table("au âu\n")
        assert t.compatible("iêng", "iêng")
        assert not t.compatible("iêng", "ương")

    def test_partition_violation_rejected(self):
        with pytest.raises(RuleTableError):
            parse_rule_table("au âu\nâu ua\n")

    def test_duplicate_within_group_rejected(self):
        with pytest.raises(RuleTableError):
            parse_rule_table("au au\n")

    def test_invalid_rime_rejected(self):
        with pytest.raises(RuleTableError):
            parse_rule_table("au xâu\n")  # onset letter in a rime
        with pytest.raises(RuleTableError):
            parse_rule_table("àu âu\n")  # tone mark in a rime

    @pytest.mark.parametrize(
        "rime, valid",
        [
            ("ương", True),
            ("a", True),
            ("anh", True),
            ("à", False),
            ("xa", False),
            ("", False),
            ("aqu", False),
            ("Anh", False),
            (unicodedata.normalize("NFD", "ương"), False),
            ("a\u0301\u0300", False),
            ("an1", False),
            ("aö", False),
            ("a n", False),
        ],
        ids=["uong", "a", "anh", "tone-mark", "onset", "empty", "bad-coda", "upper-case",
             "nfd", "double-tone-mark", "digit", "non-vietnamese-letter", "whitespace"],
    )
    def test_table_rime_is_a_bare_canonical_rime(self, rime, valid):
        if valid:
            assert RuleTable([[rime]]).group_of(rime) == 0
        else:
            with pytest.raises(RuleTableError) as caught:
                RuleTable([[rime]])
            assert str(caught.value) == f"invalid rime {rime!r}"

    def test_inline_comments(self):
        t = parse_rule_table("au âu  # folk staple\n")
        assert t.compatible("au", "âu")

    def test_line_separator_inside_a_group_line_is_whitespace(self):
        t = parse_rule_table("au\u2028âu\x85\nai\fay ây\u2029\n")
        assert len(t.groups) == 2
        assert t.compatible("au", "âu") and t.compatible("ai", "ay")
        assert not t.compatible("âu", "ai")

    def test_load_file_drops_one_leading_bom(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("\ufeff# version: test\nom ôm ơm\n", encoding="utf-8")
        from lucbat import load_rule_table

        t = load_rule_table(str(path))
        assert t.version == "test"
        assert t.compatible("om", "ơm")

    def test_load_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("# version: test\nom ôm ơm\n", encoding="utf-8")
        from lucbat import load_rule_table

        t = load_rule_table(str(path))
        assert t.version == "test"
        assert t.compatible("om", "ơm")
