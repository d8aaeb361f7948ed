import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import Alphabet, ConfidenceMatrix, InvalidSymbol, LengthMismatch, detect_boundaries
from ctcdec.ctc import (
    NEG_INF,
    collapse,
    force_align,
    marginal_word_confidences,
    path_log_score,
    string_log_score,
    word_spans,
)

from oracles import enumerate_string_probs, random_matrix, reference_collapse

AB2 = Alphabet.with_nac("ab")
NAC = AB2.nac_index


def enc(s: str) -> list[int]:
    return [{"a": 0, "b": 1, "-": NAC}[c] for c in s]


class TestCollapse:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("aa-ab-", "aab"),
            ("------", ""),
            ("a-a", "aa"),
            ("aab", "ab"),
        ],
    )
    def test_rule_examples(self, path, expected):
        assert collapse(enc(path), AB2) == expected

    def test_out_of_range_label(self):
        with pytest.raises(InvalidSymbol):
            collapse([0, 7], AB2)

    @given(st.lists(st.integers(0, 2), max_size=40))
    def test_matches_two_pass_reference_and_is_nac_free(self, path):
        out = collapse(path, AB2)
        assert AB2.nac not in out
        assert out == reference_collapse(path, AB2)

    @given(st.lists(st.integers(0, 2), max_size=40))
    def test_output_without_adjacent_duplicates_is_fixed_point(self, path):
        out = collapse(path, AB2)
        re_encoded = [AB2.index(c) for c in out]
        again = collapse(re_encoded, AB2)
        # Re-collapsing only merges adjacent equal characters.
        if all(x != y for x, y in zip(out, out[1:])):
            assert again == out
        else:
            assert len(again) < len(out)


class TestPathScore:
    def test_direct_product(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.9, 0.1], [0.9, 0.1]], ab)
        assert path_log_score(m, [0, 0]) == pytest.approx(math.log(0.81))

    def test_uniform_rows(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.5, 0.5]] * 4, ab)
        assert path_log_score(m, [0, 1, 0, 1]) == pytest.approx(math.log(0.5**4))

    def test_zero_cell_is_sentinel(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[1.0, 0.0]], ab)
        assert path_log_score(m, [1]) == NEG_INF

    def test_length_mismatch(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.5, 0.5]] * 3, ab)
        with pytest.raises(LengthMismatch):
            path_log_score(m, [0, 0])

    def test_monotone_in_used_cell(self):
        rng = np.random.default_rng(5)
        m = random_matrix(rng, AB2, 4)
        path = [0, 2, 1, 0]
        base = path_log_score(m, path)
        rows = np.array(m.probs)
        rows[1, 2] += 0.2
        rows[1] /= rows[1].sum()
        bumped = ConfidenceMatrix(rows, AB2)
        assert path_log_score(bumped, path) >= base


class TestStringScore:
    @pytest.fixture()
    def small(self):
        return ConfidenceMatrix([[0.9, 0.1], [0.9, 0.1]], Alphabet.with_nac("a"))

    def test_single_char_marginal(self, small):
        # paths aa, a-, -a: 0.81 + 0.09 + 0.09
        assert string_log_score(small, "a") == pytest.approx(math.log(0.99))

    def test_empty_string(self, small):
        assert string_log_score(small, "") == pytest.approx(math.log(0.01))

    def test_repeat_needs_three_frames(self, small):
        assert string_log_score(small, "aa") == NEG_INF

    def test_total_probability_one(self, small):
        total = math.exp(string_log_score(small, "a")) + math.exp(string_log_score(small, ""))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_invalid_symbol(self, small):
        with pytest.raises(InvalidSymbol):
            string_log_score(small, "z")
        with pytest.raises(InvalidSymbol):
            string_log_score(small, small.alphabet.nac)

    @given(st.integers(0, 10_000), st.integers(1, 8), st.integers(1, 2))
    @settings(max_examples=40)
    def test_forward_matches_enumeration(self, seed, n_frames, n_printable):
        alphabet = Alphabet.with_nac("ab"[:n_printable])
        rng = np.random.default_rng(seed)
        m = random_matrix(rng, alphabet, n_frames)
        by_enum = enumerate_string_probs(m)
        assert sum(by_enum.values()) == pytest.approx(1.0, abs=1e-9)
        for text, p in by_enum.items():
            assert math.exp(string_log_score(m, text)) == pytest.approx(p, rel=1e-9)


class TestBoundaries:
    def test_threshold_intervals(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.1, 0.9], [0.1, 0.9], [0.9, 0.1], [0.1, 0.9]], ab)
        assert detect_boundaries(m, 0.5) == [(0, 2), (3, 4)]

    def test_all_below(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.9, 0.1]] * 3, ab)
        assert detect_boundaries(m, 0.5) == []

    def test_all_above(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.2, 0.8]] * 3, ab)
        assert detect_boundaries(m, 0.5) == [(0, 3)]

    def test_threshold_validated(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.5, 0.5]], ab)
        with pytest.raises(ValueError):
            detect_boundaries(m, 1.5)

    @given(st.integers(0, 10_000), st.integers(1, 12))
    @settings(max_examples=30)
    def test_intervals_cover_exactly_the_hits(self, seed, n_frames):
        ab = Alphabet.with_nac("a")
        m = random_matrix(np.random.default_rng(seed), ab, n_frames)
        intervals = detect_boundaries(m, 0.5)
        covered = set()
        prev_end = -1
        for start, end in intervals:
            assert start < end
            assert start > prev_end  # disjoint and sorted
            prev_end = end
            covered.update(range(start, end))
        hits = {t for t in range(n_frames) if m.probs[t, ab.nac_index] >= 0.5}
        assert covered == hits


class TestAlignment:
    def test_spans_tile_the_text(self):
        ab = Alphabet.with_nac("ab ", separator=" ")
        rng = np.random.default_rng(3)
        m = random_matrix(rng, ab, 8)
        spans = force_align(m, "ab")
        assert len(spans) == 2
        assert all(s < e for s, e in spans)
        assert spans[0][1] <= spans[1][0]

    def test_impossible_alignment_raises(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.5, 0.5]], ab)
        with pytest.raises(LengthMismatch):
            force_align(m, "aa")

    def test_word_spans_and_confidences(self):
        ab = Alphabet.with_nac("ab ", separator=" ")
        m = random_matrix(np.random.default_rng(9), ab, 10)
        spans = word_spans(m, "a b", " ")
        assert [w for w, _, _ in spans] == ["a", "b"]
        confs = marginal_word_confidences(m, "a b", " ")
        assert len(confs) == 2
        assert all(0.0 <= c <= 1.0 for c in confs)

    def test_empty_text(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.5, 0.5]], ab)
        assert word_spans(m, "", " ") == []
        assert marginal_word_confidences(m, "", " ") == ()


def test_force_align_of_empty_text_has_no_spans():
    m = random_matrix(np.random.default_rng(3), AB2, 4)
    assert force_align(m, "") == []
