import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import (
    Alphabet,
    CommitteeConfig,
    DecodeParams,
    EmptyLexicon,
    Hypothesis,
    InvalidRule,
    InvariantViolation,
    LengthMismatch,
    Lexicon,
    NoAcceptedString,
    combine_hypotheses,
    committee_decode,
    decode_dictionary,
    compile_rules,
    default_rule_config,
    generate_synthetic,
)
import ctcdec.search
from ctcdec.committee import NULL_WORD, WordTransitionNetwork, align_into_wtn, vote, word_alignment
from ctcdec.ctc import word_confidences_many

from oracles import recursive_edit_distance


def hyp(text: str, confs=None) -> Hypothesis:
    return Hypothesis(text, -1.0, confs)


def count_confidence_passes(monkeypatch) -> list:
    """The number of texts of each call of the word confidence pass that
    makes a decode's hypotheses (``word_confidences_many``, as
    ``ctcdec.search`` calls it), filled in as the calls are made."""
    calls = []

    def counted(decoded, separator):
        calls.append(len(decoded))
        return word_confidences_many(decoded, separator)

    monkeypatch.setattr(ctcdec.search, "word_confidences_many", counted)
    return calls


def slot_words(wtn: WordTransitionNetwork) -> list[dict]:
    return [
        {("NULL" if w is NULL_WORD else w): e.count for w, e in slot.entries.items()}
        for slot in wtn.slots
    ]


class TestAlignment:
    def test_substitution(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a b c"), " ")
        wtn = align_into_wtn(wtn, hyp("a x c"))
        assert slot_words(wtn) == [{"a": 2}, {"b": 1, "x": 1}, {"c": 2}]

    def test_deletion_adds_null(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a b"), " ")
        wtn = align_into_wtn(wtn, hyp("a"))
        assert slot_words(wtn) == [{"a": 2}, {"b": 1, "NULL": 1}]

    def test_identical_hypothesis_adds_no_nulls(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("x y z"), " ")
        wtn = align_into_wtn(wtn, hyp("x y z"))
        assert slot_words(wtn) == [{"x": 2}, {"y": 2}, {"z": 2}]

    def test_insertion_creates_slot_with_nulls(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a c"), " ")
        wtn = align_into_wtn(wtn, hyp("a b c"))
        assert slot_words(wtn) == [{"a": 2}, {"NULL": 1, "b": 1}, {"c": 2}]
        assert wtn.slots[1].ref is NULL_WORD

    def test_null_slots_align_free(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a c"), " ")
        wtn = align_into_wtn(wtn, hyp("a b c"))
        wtn = align_into_wtn(wtn, hyp("a c"))
        assert slot_words(wtn) == [{"a": 3}, {"NULL": 2, "b": 1}, {"c": 3}]

    def test_slot_count_never_decreases(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a b c d"), " ")
        for text in ("a b", "x", "a b c d e f", ""):
            before = len(wtn.slots)
            wtn = align_into_wtn(wtn, hyp(text))
            assert len(wtn.slots) >= before

    @given(
        st.lists(st.sampled_from("abcx"), max_size=6),
        st.lists(st.sampled_from("abcx"), max_size=6),
    )
    @settings(max_examples=200)
    def test_two_hypothesis_cost_is_word_edit_distance(self, ref, words):
        cost, _ = word_alignment(list(ref), list(words))
        assert cost == recursive_edit_distance(ref, words)

    def test_extends_the_network_in_place(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a c"), " ")
        assert align_into_wtn(wtn, hyp("a b c")) is wtn
        assert wtn.num_hypotheses == 2
        assert slot_words(wtn) == [{"a": 2}, {"NULL": 1, "b": 1}, {"c": 2}]

    def test_empty_hypothesis_fills_nulls(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a b"), " ")
        wtn = align_into_wtn(wtn, hyp(""))
        assert slot_words(wtn) == [{"a": 1, "NULL": 1}, {"b": 1, "NULL": 1}]


class TestVote:
    def test_pure_majority(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a"), " ")
        wtn = align_into_wtn(wtn, hyp("a"))
        wtn = align_into_wtn(wtn, hyp("b"))
        out = vote(wtn, CommitteeConfig(n=3, vote_lambda=1.0))
        assert out.text == "a"

    def test_pure_confidence(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a", (0.4,)), " ")
        wtn = align_into_wtn(wtn, hyp("b", (0.9,)))
        out = vote(wtn, CommitteeConfig(n=2, vote_lambda=0.0))
        assert out.text == "b"

    def test_null_can_win_and_emits_nothing(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a", (0.1,)), " ")
        wtn = align_into_wtn(wtn, hyp(""))
        wtn = align_into_wtn(wtn, hyp(""))
        out = vote(wtn, CommitteeConfig(n=3, vote_lambda=1.0))
        assert out.text == ""

    def test_null_confidence_drives_confidence_votes(self):
        wtn = WordTransitionNetwork.from_hypothesis(hyp("a", (0.3,)), " ")
        wtn = align_into_wtn(wtn, hyp(""))
        keep = vote(wtn, CommitteeConfig(n=2, vote_lambda=0.0, null_confidence=0.1))
        assert keep.text == "a"
        drop = vote(wtn, CommitteeConfig(n=2, vote_lambda=0.0, null_confidence=0.9))
        assert drop.text == ""

    def test_confidence_count_must_match_words(self):
        with pytest.raises(LengthMismatch):
            WordTransitionNetwork.from_hypothesis(hyp("two words", (0.5,)), " ")

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CommitteeConfig(n=0)
        with pytest.raises(ValueError):
            CommitteeConfig(n=2, vote_lambda=1.5)

    @pytest.mark.parametrize("value", [1.5, -0.1, float("nan")])
    def test_null_confidence_outside_unit_interval_is_rejected(self, value):
        """With ``null_confidence`` above 1 and ``vote_lambda`` 0, NULL
        would win every slot and the output would be silently empty."""
        with pytest.raises(ValueError, match="null_confidence"):
            CommitteeConfig(n=2, vote_lambda=0.0, null_confidence=value)

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_null_confidence_bounds_are_accepted(self, value):
        assert CommitteeConfig(n=2, null_confidence=value).null_confidence == value


class TestCombine:
    def test_committee_of_one_returns_input_verbatim(self):
        h = hyp("exactly this", (0.5, 0.25))
        assert combine_hypotheses([h], CommitteeConfig(n=1), " ") is h
        with pytest.raises(LengthMismatch, match="2 hypotheses for a committee of 1"):
            combine_hypotheses([h, h], CommitteeConfig(n=1), " ")

    def test_unanimity(self):
        h = hyp("same text here")
        for lam in (0.0, 0.5, 1.0):
            out = combine_hypotheses(
                [h, h, h], CommitteeConfig(n=3, vote_lambda=lam), " "
            )
            assert out.text == "same text here"

    def test_tie_breaks_toward_earlier_expert(self):
        out = combine_hypotheses(
            [hyp("a b"), hyp("a c")], CommitteeConfig(n=2, vote_lambda=1.0), " "
        )
        assert out.text == "a b"
        flipped = combine_hypotheses(
            [hyp("a c"), hyp("a b")], CommitteeConfig(n=2, vote_lambda=1.0), " "
        )
        assert flipped.text == "a c"

    def test_majority_beats_best_single_expert(self):
        out = combine_hypotheses(
            [hyp("a x c"), hyp("a b c"), hyp("a b c")],
            CommitteeConfig(n=3, vote_lambda=1.0),
            " ",
        )
        assert out.text == "a b c"

    @given(st.integers(0, 500))
    @settings(max_examples=60)
    def test_lambda_one_is_order_invariant_without_ties(self, seed):
        # Scoped to substitution-only alignments: the iterative WTN build
        # is greedy and order-dependent once insertions appear, and with
        # count ties the order matters through the tie-break.
        rng = np.random.default_rng(seed)
        vocab = ["u", "v", "w"]
        base = [str(rng.choice(vocab)) for _ in range(int(rng.integers(1, 5)))]
        hyps = []
        for _ in range(5):
            words = list(base)
            if rng.random() < 0.8:
                words[int(rng.integers(0, len(base)))] = str(rng.choice(vocab))
            hyps.append(hyp(" ".join(words)))
        config = CommitteeConfig(n=5, vote_lambda=1.0)
        reference = combine_hypotheses(hyps, config, " ")

        wtn = WordTransitionNetwork.from_hypothesis(hyps[0], " ")
        for h in hyps[1:]:
            wtn = align_into_wtn(wtn, h)
        for slot in wtn.slots:
            if NULL_WORD in slot.entries:
                return
            counts = sorted((e.count for e in slot.entries.values()), reverse=True)
            if len(counts) > 1 and counts[0] == counts[1]:
                return
        order = rng.permutation(5)
        shuffled = combine_hypotheses([hyps[i] for i in order], config, " ")
        assert shuffled.text == reference.text


class TestCommitteeDecode:
    @pytest.fixture()
    def setup(self):
        alphabet = Alphabet.with_nac("thecaso ", separator=" ")
        lexicon = Lexicon({"the": 3, "cat": 2, "sat": 1}, separator=" ")
        return alphabet, lexicon

    def test_unanimous_experts(self, setup):
        alphabet, lexicon = setup
        mats = [
            generate_synthetic("the cat sat", alphabet, 3, 0.0, seed=s) for s in range(3)
        ]
        out = committee_decode(
            mats, lexicon, DecodeParams(beam_width=8), CommitteeConfig(n=3)
        )
        assert out.text == "the cat sat"

    def test_wrong_expert_count(self, setup):
        alphabet, lexicon = setup
        mats = [generate_synthetic("the", alphabet, 3, 0.0, seed=0)]
        with pytest.raises(Exception):
            committee_decode(mats, lexicon, DecodeParams(), CommitteeConfig(n=2))

    @pytest.mark.parametrize("vote_lambda", [0.5, 1.0])
    def test_failing_experts_are_dropped(self, setup, vote_lambda):
        """The sole survivor is returned as it is, word confidences and all."""
        alphabet, lexicon = setup
        good = generate_synthetic("the cat", alphabet, 3, 0.0, seed=1)
        # An expert whose matrix supports no lexicon word at all: only
        # "o" frames, and "o" starts no dictionary word.
        import numpy as np
        from ctcdec import ConfidenceMatrix

        bad_rows = np.zeros((2, len(alphabet)))
        bad_rows[:, alphabet.index("o")] = 1.0
        bad = ConfidenceMatrix(bad_rows, alphabet)
        out = committee_decode(
            [good, bad], lexicon, DecodeParams(beam_width=4), CommitteeConfig(n=2, vote_lambda=vote_lambda)
        )
        assert out.text == "the cat"
        assert out == decode_dictionary(good, lexicon, DecodeParams(beam_width=4))

    def test_all_experts_failing_raises(self, setup):
        alphabet, lexicon = setup
        import numpy as np
        from ctcdec import ConfidenceMatrix

        bad_rows = np.zeros((2, len(alphabet)))
        bad_rows[:, alphabet.index("o")] = 1.0
        bad = ConfidenceMatrix(bad_rows, alphabet)
        with pytest.raises(NoAcceptedString):
            committee_decode(
                [bad, bad], lexicon, DecodeParams(beam_width=4), CommitteeConfig(n=2)
            )


    def test_experts_must_share_an_alphabet(self, setup):
        alphabet, lexicon = setup
        other = Alphabet.with_nac("thecasox ", separator=" ")
        mats = [
            generate_synthetic("the cat", alphabet, 3, 0.0, seed=0),
            generate_synthetic("the cat", other, 3, 0.0, seed=1),
        ]
        with pytest.raises(InvariantViolation) as err:
            committee_decode(mats, lexicon, DecodeParams(beam_width=4), CommitteeConfig(n=2))
        assert repr(alphabet.symbols) in str(err.value)
        assert repr(other.symbols) in str(err.value)

    def test_empty_lexicon_raises_as_itself(self, setup):
        alphabet, _ = setup
        mats = [generate_synthetic("the", alphabet, 3, 0.0, seed=s) for s in range(2)]
        with pytest.raises(EmptyLexicon):
            committee_decode(mats, Lexicon({}), DecodeParams(), CommitteeConfig(n=2))

    def test_invalid_expression_model_raises_as_itself(self, setup):
        alphabet, lexicon = setup
        other = Alphabet.with_nac("thecasox ", separator=" ")
        rules = compile_rules(default_rule_config(other), other)
        mats = [generate_synthetic("the", alphabet, 3, 0.0, seed=s) for s in range(2)]
        with pytest.raises(InvalidRule):
            committee_decode(mats, lexicon, DecodeParams(), CommitteeConfig(n=2), rules)

    @pytest.mark.parametrize("vote_lambda", [0.5, 1.0])
    def test_experts_of_unequal_length_decode_as_alone(self, setup, vote_lambda):
        """At either lambda the committee votes as over the hypotheses
        decoded alone, which carry word confidences."""
        alphabet, lexicon = setup
        params = DecodeParams(beam_width=4, min_symbol_prob=0.01)
        config = CommitteeConfig(n=3, vote_lambda=vote_lambda)
        mats = [
            generate_synthetic("the cat sat", alphabet, fpc, noise, seed=s)
            for s, (fpc, noise) in enumerate([(2, 0.5), (4, 0.6), (3, 0.7)])
        ]
        alone = [decode_dictionary(m, lexicon, params) for m in mats]
        out = committee_decode(mats, lexicon, params, config)
        assert out == combine_hypotheses(alone, config, " ")

    @pytest.mark.parametrize("vote_lambda, passes", [(1.0, []), (0.5, [3])])
    def test_the_confidence_pass_runs_only_where_the_vote_reads_it(self, setup, monkeypatch, vote_lambda, passes):
        """At lambda 0.5 one pass scores all three experts' texts."""
        alphabet, lexicon = setup
        counted = count_confidence_passes(monkeypatch)
        mats = [generate_synthetic("the cat sat", alphabet, 3, 0.3, seed=s) for s in range(3)]
        committee_decode(mats, lexicon, DecodeParams(beam_width=8), CommitteeConfig(n=3, vote_lambda=vote_lambda))
        assert counted == passes


class TestSeparatorFree:
    """A line is one word when neither the alphabet nor the lexicon has a
    separator."""

    alphabet = Alphabet.with_nac("thecas")
    lexicon = Lexicon({"the": 3, "cat": 2, "sat": 1}, separator=None)

    def test_committee_decode_returns_a_lexicon_word(self):
        mats = [
            generate_synthetic("cat", self.alphabet, 3, noise, seed=s)
            for s, noise in enumerate((0.0, 0.2, 0.3))
        ]
        out = committee_decode(
            mats, self.lexicon, DecodeParams(beam_width=8), CommitteeConfig(n=3)
        )
        assert out.text in self.lexicon
        assert out.text == "cat"
        assert len(out.word_confidences) == 1

    @pytest.mark.parametrize(
        "texts, want",
        [(["", "cat", ""], ""), (["", "", ""], ""), (["cat", "", "cat"], "cat")],
    )
    def test_votes_on_whole_lines(self, texts, want):
        hyps = [hyp(t, (0.9,) if t else ()) for t in texts]
        out = combine_hypotheses(hyps, CommitteeConfig(n=3), separator=None)
        assert out.text == want
        assert len(out.word_confidences) == len(want.split())
