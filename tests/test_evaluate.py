import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import (
    Alphabet,
    Hypothesis,
    LengthMismatch,
    UnmappableCharacter,
    default_alphabet,
    edit_distance,
    evaluate,
    rank_experts,
)
from ctcdec.evaluate import edit_alignment

ALPHA = default_alphabet()

tokens = st.lists(st.sampled_from("abc"), max_size=8)


class TestEditDistance:
    def test_word_substitution(self):
        dist, ops = edit_distance("the cat".split(), "the bat".split())
        assert dist == 1
        assert (ops.substitutions, ops.deletions, ops.insertions) == (1, 0, 0)
        assert ops.matches == 1

    def test_identity(self):
        dist, ops = edit_distance(list("same"), list("same"))
        assert dist == 0
        assert ops.errors == 0
        assert ops.matches == 4

    def test_all_insertions(self):
        dist, ops = edit_distance("", "abc")
        assert dist == 3
        assert ops.insertions == 3

    def test_all_deletions(self):
        dist, ops = edit_distance("abc", "")
        assert dist == 3
        assert ops.deletions == 3

    def test_op_counts_sum_to_distance(self):
        dist, ops = edit_distance(list("kitten"), list("sitting"))
        assert dist == 3
        assert ops.errors == dist
        assert ops.matches + ops.substitutions + ops.deletions == 6  # ref length
        assert ops.matches + ops.substitutions + ops.insertions == 7  # hyp length

    @given(tokens, tokens)
    @settings(max_examples=200)
    def test_matches_recursive_oracle(self, a, b):
        from oracles import recursive_edit_distance

        assert edit_distance(a, b)[0] == recursive_edit_distance(a, b)

    @given(st.data())
    @settings(max_examples=300)
    def test_alignment_matches_the_min_reference(self, data):
        """Same cost and ops as the ``min()``-per-cell DP, with the NULL
        (``None``) tokens and free deletions of the committee's word
        alignment and deletions costing up to 2."""
        from oracles import reference_edit_alignment

        words = st.lists(st.sampled_from(["a", "b", "c", None]), max_size=8)
        ref, hyp = data.draw(words), data.draw(words)
        costs = data.draw(st.lists(st.sampled_from([0, 1, 2]), min_size=len(ref), max_size=len(ref)))
        assert edit_alignment(ref, hyp, costs) == reference_edit_alignment(ref, hyp, costs)

    @given(tokens, tokens)
    def test_symmetry(self, a, b):
        assert edit_distance(a, b)[0] == edit_distance(b, a)[0]

    @given(tokens, tokens)
    def test_identity_of_indiscernibles(self, a, b):
        dist, _ = edit_distance(a, b)
        assert (dist == 0) == (a == b)

    @given(tokens, tokens, tokens)
    @settings(max_examples=200)
    def test_triangle_inequality(self, a, b, c):
        ab = edit_distance(a, b)[0]
        bc = edit_distance(b, c)[0]
        ac = edit_distance(a, c)[0]
        assert ac <= ab + bc


class TestEvaluate:
    def test_perfect_hypotheses(self):
        report = evaluate(["the cat", "sat"], ["the cat", "sat"], ALPHA)
        assert report.cer == 0.0
        assert report.wer == 0.0

    def test_empty_hypotheses_are_all_deletions(self):
        report = evaluate(["", ""], ["abc", "de"], ALPHA)
        assert report.cer == 1.0
        assert report.char_ops.deletions == 5

    def test_accepts_hypothesis_objects(self):
        report = evaluate([Hypothesis("the bat", -1.0)], ["the cat"], ALPHA)
        assert report.wer == 0.5
        assert report.cer == pytest.approx(1 / 7)

    def test_normalization_invariance(self):
        raw_hyp, raw_ref = "it’s fine", "it's fine"
        direct = evaluate([raw_hyp], [raw_ref], ALPHA)
        assert direct.cer == 0.0

    @given(
        st.lists(st.sampled_from(["it’s", "a–b", 'say “hi”', "plain"]), min_size=1, max_size=4),
        st.lists(st.sampled_from(["it's", "a-b", 'say "hi"', "plain"]), min_size=1, max_size=4),
    )
    def test_scores_invariant_under_prior_normalization(self, hyp_words, ref_words):
        from ctcdec import normalize_transcript

        hyp, ref = " ".join(hyp_words), " ".join(ref_words)
        raw = evaluate([hyp], [ref], ALPHA)
        pre = evaluate(
            [normalize_transcript(hyp, ALPHA)], [normalize_transcript(ref, ALPHA)], ALPHA
        )
        assert raw.cer == pre.cer
        assert raw.wer == pre.wer

    def test_unmappable_reference(self):
        with pytest.raises(UnmappableCharacter):
            evaluate(["ok"], ["café"], ALPHA)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            evaluate(["a"], ["a", "b"], ALPHA)

    def test_rates_can_exceed_one(self):
        report = evaluate(["lots of extra words here"], ["x"], ALPHA)
        assert report.wer > 1.0

    def test_zero_length_reference(self):
        assert evaluate([""], [""], ALPHA).cer == 0.0
        assert evaluate(["x"], [""], ALPHA).cer == float("inf")

    def test_separator_free_alphabet_scores_whole_lines(self):
        ab = Alphabet.with_nac("ab")
        report = evaluate(["ab"], ["aa"], ab)
        assert report.word_ops.substitutions == 1


class TestRanking:
    def _report(self, wer_pairs):
        hyps, refs = zip(*wer_pairs)
        return evaluate(list(hyps), list(refs), ALPHA)

    def test_sorted_by_wer(self):
        reports = [
            self._report([("a b c x x", "a b c d e")]),   # wer .4
            self._report([("a b c d x", "a b c d e")]),   # wer .2
            self._report([("a b x x x", "a b c d e")]),   # wer .6
        ]
        assert rank_experts(reports) == [1, 0, 2]

    def test_stable_on_full_ties(self):
        reports = [self._report([("same", "same")]) for _ in range(3)]
        assert rank_experts(reports) == [0, 1, 2]

    def test_single_expert(self):
        assert rank_experts([self._report([("a", "a")])]) == [0]

    def test_cer_breaks_wer_ties(self):
        a = self._report([("axx", "abc")])  # wer 1, cer 2/3
        b = self._report([("axc", "abc")])  # wer 1, cer 1/3
        assert rank_experts([a, b]) == [1, 0]

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError):
            rank_experts([])


def test_a_separator_free_line_is_one_word():
    """Without a separator symbol WER counts the line as one word, as the
    word confidences and the committee vote do, even where the line holds
    a whitespace symbol."""
    alphabet = Alphabet.with_nac("ab\t")
    report = evaluate(["a\tb"], ["a\ta"], alphabet)
    assert report.lines[0].word_ref_len == 1
    assert report.lines[0].word_distance == 1
    assert report.wer == 1.0
