import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ctcdec import Alphabet, ConfidenceMatrix, Hypothesis, InvalidSymbol, LengthMismatch, detect_boundaries, evaluate
from ctcdec.committee import _tokenize
from ctcdec.matrix import runs
from ctcdec.ctc import (
    NEG_INF,
    _align,
    collapse,
    force_align,
    group_word_spans,
    marginal_word_confidences,
    split_words,
    string_log_score,
    word_confidences_many,
)

from oracles import (
    enumerate_string_probs,
    path_log_score,
    random_matrix,
    reference_collapse,
    reference_detect_boundaries,
    reference_force_align,
    reference_group_word_spans,
    reference_log_marginal,
    reference_runs,
    reference_word_confidences,
)

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
        with pytest.raises(InvalidSymbol):
            path_log_score(m, [0, 2, 0])

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


class TestRuns:
    @pytest.mark.parametrize(
        "values, expected",
        [
            ([], []),
            ([4], [(0, 1)]),
            ([2, 2, 2, 2], [(0, 4)]),
            ([0, 1, 0, 1, 0], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
            ([True], [(0, 1)]),
            ([False, False, False], [(0, 3)]),
            ([True, False, True, False], [(0, 1), (1, 2), (2, 3), (3, 4)]),
            ([True, True, False, True], [(0, 2), (2, 3), (3, 4)]),
        ],
    )
    def test_examples_match_the_loop_reference(self, values, expected):
        assert reference_runs(values) == expected
        for array in (values, np.array(values)):
            starts, ends = runs(array)
            assert starts.dtype == ends.dtype == np.intp
            assert list(zip(starts.tolist(), ends.tolist())) == expected

    @given(st.lists(st.integers(-2, 2), max_size=30) | st.lists(st.booleans(), max_size=30))
    def test_random_values_match_the_loop_reference(self, values):
        starts, ends = runs(np.array(values))
        assert list(zip(starts.tolist(), ends.tolist())) == reference_runs(values)


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

    @given(st.integers(0, 10_000), st.integers(1, 12), st.sampled_from([0.05, 0.3, 0.5, 0.9]))
    @settings(max_examples=50)
    def test_matches_the_frame_loop_reference(self, seed, n_frames, threshold):
        m = random_matrix(np.random.default_rng(seed), Alphabet.with_nac("ab"), n_frames)
        assert detect_boundaries(m, threshold) == reference_detect_boundaries(m, threshold)


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
        spans = group_word_spans("a b", force_align(m, "a b"), " ")
        assert [w for w, _, _ in spans] == ["a", "b"]
        confs = marginal_word_confidences(m, "a b", " ")
        assert len(confs) == 2
        assert all(0.0 <= c <= 1.0 for c in confs)

    def test_empty_text(self):
        ab = Alphabet.with_nac("a")
        m = ConfidenceMatrix([[0.5, 0.5]], ab)
        assert group_word_spans("", force_align(m, ""), " ") == []
        assert marginal_word_confidences(m, "", " ") == ()


def test_force_align_of_empty_text_has_no_spans():
    m = random_matrix(np.random.default_rng(3), AB2, 4)
    assert force_align(m, "") == []


# A lattice case: (seed, frames, row kind, text) over the alphabet "ab ".
# Row kinds: 0 random, 1 uniform (exact ties everywhere), 2 sparse (zero
# cells, so some texts have no path).
LATTICE = st.tuples(
    st.integers(0, 10_000), st.integers(1, 10), st.integers(0, 2), st.text("ab ", max_size=6)
)
SEP3 = Alphabet.with_nac("ab ", separator=" ")


def _case_matrix(seed: int, n_frames: int, kind: int) -> ConfidenceMatrix:
    rng = np.random.default_rng(seed)
    if kind == 1:
        return ConfidenceMatrix(np.full((n_frames, len(SEP3)), 1.0 / len(SEP3)), SEP3)
    rows = rng.dirichlet(np.full(len(SEP3), 1.0 if kind == 0 else 0.3), size=n_frames)
    if kind == 2:
        rows[rows < 0.1] = 0.0
        rows /= rows.sum(axis=1, keepdims=True)
    return ConfidenceMatrix(rows, SEP3)


def _outcome(fn, *args):
    """``fn(*args)``, or the message of the :class:`LengthMismatch` it raises."""
    try:
        return fn(*args)
    except LengthMismatch as exc:
        return f"LengthMismatch: {exc}"


def _hex(values):
    return [v.hex() for v in values]


class TestBatchedLatticesMatchTheScalarReference:
    """One pass over several lattices gives, bit for bit, what the scalar
    one-lattice loops give for each lattice alone."""

    @given(st.lists(LATTICE, min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_spans_scores_and_confidences(self, cases):
        decoded = [(_case_matrix(seed, n, kind), text) for seed, n, kind, text in cases]
        for matrix, text in decoded:
            assert string_log_score(matrix, text).hex() == reference_log_marginal(
                matrix.log_probs, text, SEP3
            ).hex()
            assert _outcome(force_align, matrix, text) == _outcome(reference_force_align, matrix, text)

        # The batched alignment fails as the first lattice without a path does.
        expected = [_outcome(reference_force_align, m, text) for m, text in decoded]
        failed = [e for e in expected if isinstance(e, str)]
        pieces = [(m, text, 0, m.num_frames) for m, text in decoded]
        assert _outcome(_align, pieces) == (failed[0] if failed else expected)

        # Empty texts are not aligned, so only the others can fail here.
        expected = [_outcome(reference_word_confidences, m, text, " ") for m, text in decoded]
        failed = [e for e in expected if isinstance(e, str)]
        got = _outcome(word_confidences_many, decoded, " ")
        if failed:
            assert got == failed[0]
        else:
            assert [_hex(c) for c in got] == [_hex(c) for c in expected]

    @pytest.mark.parametrize("text", ["aa", "a a", "aba", "ab  ba", "a"])
    def test_repeats_ties_and_single_frame_words(self, text):
        """Uniform rows tie every move; with just enough frames, repeated
        letters need their NaC and every word gets a single frame."""
        needed = len(text) + sum(x == y for x, y in zip(text, text[1:]))
        decoded = [
            (_case_matrix(0, n, kind), text)
            for n in (needed, needed + 1, needed + 4)
            for kind in (0, 1)
        ]
        got = word_confidences_many(decoded, " ")
        assert [_hex(c) for c in got] == [_hex(reference_word_confidences(m, t, " ")) for m, t in decoded]
        assert [_align([(m, t, 0, m.num_frames)])[0] for m, t in decoded] == [
            reference_force_align(m, t) for m, t in decoded
        ]

    def test_one_lattice_length_mismatch_message(self):
        m = ConfidenceMatrix([[0.5, 0.5]] * 2, Alphabet.with_nac("a"))
        with pytest.raises(LengthMismatch) as exc:
            force_align(m, "aa")
        assert str(exc.value) == "no valid alignment of 'aa' in 2 frames"


class TestAgainstPathEnumeration:
    """Word confidences and alignments checked against every path of tiny
    matrices (T <= 6, three symbols)."""

    ALPHABET = Alphabet.with_nac("a ", separator=" ")

    @given(st.integers(0, 10_000), st.integers(1, 6), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_confidences_are_span_marginals_and_alignments_best_paths(self, seed, n_frames, sparse):
        alphabet = self.ALPHABET
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.full(len(alphabet), 0.3 if sparse else 1.0), size=n_frames)
        if sparse:
            rows[rows < 0.1] = 0.0
            rows /= rows.sum(axis=1, keepdims=True)
        m = ConfidenceMatrix(rows, alphabet)
        paths = list(itertools.product(range(len(alphabet)), repeat=n_frames))
        best: dict[str, float] = {}
        for path in paths:
            text = collapse(path, alphabet)
            best[text] = max(best.get(text, NEG_INF), path_log_score(m, path))
        for text, top in best.items():
            if top == NEG_INF or not text:
                continue
            # The alignment's path: each character over its span, NaC elsewhere.
            path = [alphabet.nac_index] * n_frames
            for ch, (start, end) in zip(text, force_align(m, text)):
                path[start:end] = [alphabet.index(ch)] * (end - start)
            assert collapse(path, alphabet) == text
            assert path_log_score(m, path) == pytest.approx(top, rel=1e-12, abs=1e-12)
            spans = group_word_spans(text, force_align(m, text), " ")
            confs = marginal_word_confidences(m, text, " ")
            assert len(confs) == len(spans)
            for (word, start, end), conf in zip(spans, confs):
                span = ConfidenceMatrix(m.probs[start:end], alphabet)
                assert conf == pytest.approx(enumerate_string_probs(span)[word], rel=1e-9)


class TestWordRule:
    """``split_words`` is the one word rule: word spans (and so word
    confidences), the committee's tokens and WER all count its words."""

    @settings(max_examples=300, deadline=None)
    @given(st.text(alphabet="ab ", max_size=12), st.sampled_from([" ", None]))
    @example("", " ")
    @example("", None)
    @example(" ", " ")
    @example("  a  bb ", " ")
    @example(" ab  a", None)
    def test_spans_tokens_and_wer_agree_with_the_position_walk(self, text, separator):
        # Distinct, non-touching spans, so a word off by one character shows.
        char_spans = [(3 * i, 3 * i + 2) for i in range(len(text))]
        words = split_words(text, separator)
        assert group_word_spans(text, char_spans, separator) == reference_group_word_spans(text, char_spans, separator)
        assert [word for word, _, _ in group_word_spans(text, char_spans, separator)] == words
        assert _tokenize(Hypothesis(text, 0.0), separator)[0] == words
        alphabet = Alphabet.with_nac("ab ", separator=separator)
        assert evaluate([text], [text], alphabet).lines[0].word_ref_len == len(words)
