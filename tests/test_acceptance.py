"""Acceptance suite: one test per release criterion.

Each test prints a ``[PASS]``/``[FAIL]`` line (run with ``-s`` or ``-rA``
to see them). Oracles are brute force: path enumeration, recursive edit
distance, exhaustive search over accepted strings.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from ctcdec import (
    Alphabet,
    CommitteeConfig,
    ConfidenceMatrix,
    DecodeParams,
    Hypothesis,
    InvariantViolation,
    Lexicon,
    NoAcceptedString,
    combine_hypotheses,
    decode_best_path,
    decode_dictionary,
    decode_expression,
    edit_distance,
    evaluate,
    default_alphabet,
    load_matrix,
    store_matrix,
    string_log_score,
)
from ctcdec.committee import WordTransitionNetwork, align_into_wtn, word_alignment
from ctcdec.ctc import collapse
from ctcdec.experiment import ExperimentConfig, run_experiment

from oracles import (
    argmax_string,
    dm_valid_texts,
    enumerate_string_probs,
    random_matrix,
    recursive_edit_distance,
    reference_collapse,
)
from test_expressions import random_fsa


@contextmanager
def criterion(number: int, label: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label} ({time.perf_counter() - started:.1f}s)")


def small_random_instance(rng: np.random.Generator, max_frames: int, corner: bool = False):
    """Random matrix with S <= 3 and T <= max_frames; ``corner`` forces the
    largest size so the hardest instances are always exercised."""
    n_printable = 2 if corner else int(rng.integers(1, 3))
    alphabet = Alphabet.with_nac("ab"[:n_printable])
    n_frames = max_frames if corner else int(rng.integers(1, max_frames + 1))
    return random_matrix(rng, alphabet, n_frames), alphabet


def test_criterion_1_forward_dp_matches_enumeration():
    with criterion(1, "CTC forward equals path enumeration (200 matrices, 1e-9)"):
        rng = np.random.default_rng(1001)
        started = time.perf_counter()
        for i in range(200):
            matrix, _ = small_random_instance(rng, max_frames=8, corner=i >= 180)
            by_enum = enumerate_string_probs(matrix)
            assert sum(by_enum.values()) == pytest.approx(1.0, abs=1e-9)
            for text, p in by_enum.items():
                dp = math.exp(string_log_score(matrix, text))
                assert dp == pytest.approx(p, rel=1e-9)
            # A string no path can produce must score -inf.
            too_long = "a" * (matrix.num_frames + 1)
            assert string_log_score(matrix, too_long) == float("-inf")
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"


def test_criterion_2_collapse_rule_fidelity():
    with criterion(2, "collapse rules: stated examples plus 10^4 random paths"):
        ab = Alphabet.with_nac("ab")
        enc = {"a": 0, "b": 1, "-": ab.nac_index}
        cases = [("aa-ab-", "aab"), ("------", ""), ("a-a", "aa"), ("aab", "ab")]
        for raw, expected in cases:
            assert collapse([enc[c] for c in raw], ab) == expected
        rng = np.random.default_rng(1002)
        for _ in range(10_000):
            path = rng.integers(0, 3, size=rng.integers(0, 14)).tolist()
            out = collapse(path, ab)
            assert ab.nac not in out
            assert out == reference_collapse(path, ab)


def test_criterion_3_best_path_optimality():
    with criterion(3, "best-path decode is the per-frame argmax optimum (200 matrices)"):
        rng = np.random.default_rng(1003)
        for i in range(200):
            matrix, _ = small_random_instance(rng, max_frames=8, corner=i >= 180)
            hyp = decode_best_path(matrix)
            n_frames, n_symbols = matrix.probs.shape
            paths = np.array(
                list(itertools.product(range(n_symbols), repeat=n_frames)), dtype=np.intp
            )
            all_scores = matrix.probs[np.arange(n_frames), paths].prod(axis=1)
            assert math.exp(hyp.score) == pytest.approx(float(all_scores.max()), rel=1e-9)
            greedy = matrix.probs.max(axis=1).prod()
            assert math.exp(hyp.score) == pytest.approx(float(greedy), rel=1e-9)


def test_criterion_4_expression_decode_exactness():
    with criterion(4, "constrained decode: exact at beam=inf (50+), accepted at beam=4 (10^3)"):
        rng = np.random.default_rng(1004)
        exact_checked = 0
        while exact_checked < 50:
            matrix, alphabet = small_random_instance(rng, max_frames=6)
            model = random_fsa(rng, alphabet)
            scores = enumerate_string_probs(matrix)
            accepted = {t: p for t, p in scores.items() if model.accepts(t)}
            if not accepted:
                with pytest.raises(NoAcceptedString):
                    decode_expression(matrix, model, beam_width=None)
                continue
            hyp = decode_expression(matrix, model, beam_width=None)
            assert hyp.text == argmax_string(accepted, alphabet)
            assert math.exp(hyp.score) == pytest.approx(accepted[hyp.text], rel=1e-9)
            exact_checked += 1
        for _ in range(1000):
            matrix, alphabet = small_random_instance(rng, max_frames=6)
            model = random_fsa(rng, alphabet)
            try:
                hyp = decode_expression(matrix, model, beam_width=4)
            except NoAcceptedString:
                continue
            assert model.accepts(hyp.text)


def test_criterion_5_dictionary_decode_properties():
    with criterion(5, "dictionary decode: alpha=0 brute force, frequency tiebreak, count scaling"):
        alphabet = Alphabet.with_nac("ab ", separator=" ")
        rng = np.random.default_rng(1005)
        for _ in range(40):
            words = set()
            for _ in range(int(rng.integers(1, 6))):
                length = int(rng.integers(1, 4))
                words.add("".join(rng.choice(["a", "b"], size=length)))
            lexicon = Lexicon(
                {w: int(rng.integers(1, 10)) for w in words},
                separator=" ",
                attach_chars=frozenset(),
            )
            matrix = random_matrix(rng, alphabet, int(rng.integers(1, 7)))
            valid = dm_valid_texts(enumerate_string_probs(matrix), lexicon)
            expected = argmax_string(valid, alphabet)
            hyp = decode_dictionary(
                matrix, lexicon, DecodeParams(lm_weight=0.0, beam_width=None)
            )
            assert hyp.text == expected
            assert math.exp(hyp.score) == pytest.approx(valid[expected], rel=1e-9)

        # Frequency tiebreak on a column-symmetric matrix.
        ab2 = Alphabet.with_nac("ab")
        sym = ConfidenceMatrix([[0.45, 0.45, 0.1]] * 3, ab2)
        assert string_log_score(sym, "ab") == string_log_score(sym, "ba")
        frequent = decode_dictionary(
            sym, Lexicon({"ab": 9, "ba": 1}, separator=None),
            DecodeParams(lm_weight=1.0, beam_width=None),
        )
        assert frequent.text == "ab"
        mirrored = decode_dictionary(
            sym, Lexicon({"ab": 1, "ba": 9}, separator=None),
            DecodeParams(lm_weight=1.0, beam_width=None),
        )
        assert mirrored.text == "ba"

        # Scaling all counts leaves the argmax unchanged.
        for _ in range(20):
            words = {"a": 3, "b": 1, "ab": 2}
            lexicon = Lexicon(words, separator=" ", attach_chars=frozenset())
            scaled = Lexicon(
                {w: 11 * c for w, c in words.items()}, separator=" ", attach_chars=frozenset()
            )
            matrix = random_matrix(rng, alphabet, int(rng.integers(1, 7)))
            params = DecodeParams(lm_weight=1.0, beam_width=None)
            assert (
                decode_dictionary(matrix, lexicon, params).text
                == decode_dictionary(matrix, scaled, params).text
            )


def test_criterion_6_rover_combination():
    with criterion(6, "ROVER: identity, unanimity, order invariance, alignment oracle (10^3)"):
        rng = np.random.default_rng(1006)

        sole = Hypothesis("only one expert", -2.0, (0.5, 0.5, 0.5))
        assert combine_hypotheses([sole], CommitteeConfig(n=1), " ") is sole

        same = Hypothesis("all agree here", -2.0)
        for lam in (0.0, 0.5, 1.0):
            out = combine_hypotheses(
                [same] * 4, CommitteeConfig(n=4, vote_lambda=lam), " "
            )
            assert out.text == same.text

        # lambda=1 order invariance. Scoped to substitution-only alignments:
        # the iterative WTN construction is greedy and order-dependent when
        # insertions/deletions appear, so cases with tied slots or NULL
        # entries are skipped (with ties the expert order legitimately
        # matters through the tie-break, tested separately).
        def stable_counts(network: WordTransitionNetwork) -> bool:
            for slot in network.slots:
                if None in slot.entries:
                    return False
                counts = sorted((e.count for e in slot.entries.values()), reverse=True)
                if len(counts) > 1 and counts[0] == counts[1]:
                    return False
            return True

        vocab = ["u", "v", "w"]
        checked = 0
        while checked < 100:
            base = [str(rng.choice(vocab)) for _ in range(int(rng.integers(1, 6)))]
            hyps = []
            for _ in range(5):
                words = list(base)
                if rng.random() < 0.8:
                    words[int(rng.integers(0, len(base)))] = str(rng.choice(vocab))
                hyps.append(Hypothesis(" ".join(words), -1.0))
            wtn = WordTransitionNetwork.from_hypothesis(hyps[0], " ")
            for h in hyps[1:]:
                wtn = align_into_wtn(wtn, h)
            if not stable_counts(wtn):
                continue
            config = CommitteeConfig(n=5, vote_lambda=1.0)
            reference = combine_hypotheses(hyps, config, " ").text
            order = rng.permutation(5)
            shuffled = combine_hypotheses([hyps[i] for i in order], config, " ").text
            assert shuffled == reference
            checked += 1

        for _ in range(1000):
            ref = [str(rng.choice(vocab)) for _ in range(int(rng.integers(0, 7)))]
            words = [str(rng.choice(vocab)) for _ in range(int(rng.integers(0, 7)))]
            cost, _ = word_alignment(ref, words)
            assert cost == recursive_edit_distance(ref, words)


def test_criterion_7_end_to_end_committee_ordering():
    with criterion(7, "synthetic pipeline: committee ordering holds on majority of 10 trials"):
        started = time.perf_counter()
        result = run_experiment(ExperimentConfig())
        elapsed = time.perf_counter() - started
        for i, trial in enumerate(result.trials):
            print(
                f"    trial {i}: bp={trial.wer_best_path_mean:.3f} "
                f"dm_mean={trial.wer_dictionary_mean:.3f} "
                f"dm_best={trial.wer_dictionary_best:.3f} "
                f"e2={trial.wer_committee[2]:.3f} e5={trial.wer_committee[5]:.3f} "
                f"{'ok' if trial.ordering_holds else 'VIOLATED'}"
            )
        assert result.majority_holds, f"ordering held in only {result.passes}/10 trials"
        assert elapsed < 120.0, f"took {elapsed:.1f}s, budget 120s"


def test_criterion_8_evaluation_metrics():
    with criterion(8, "edit distance metric axioms (10^3) and CER/WER hand cases"):
        rng = np.random.default_rng(1008)
        for _ in range(1000):
            a = rng.choice(list("abc"), size=rng.integers(0, 8)).tolist()
            b = rng.choice(list("abc"), size=rng.integers(0, 8)).tolist()
            c = rng.choice(list("abc"), size=rng.integers(0, 8)).tolist()
            dist_ab = edit_distance(a, b)[0]
            assert dist_ab == recursive_edit_distance(a, b)
            assert dist_ab == edit_distance(b, a)[0]
            assert (dist_ab == 0) == (a == b)
            assert edit_distance(a, c)[0] <= dist_ab + edit_distance(b, c)[0]

        alphabet = default_alphabet()
        perfect = evaluate(["the cat", "sat"], ["the cat", "sat"], alphabet)
        assert perfect.cer == 0.0 and perfect.wer == 0.0
        empty = evaluate(["", ""], ["abc", "xy"], alphabet)
        assert empty.cer == 1.0


def test_criterion_9_matrix_io(tmp_path):
    with criterion(9, "matrix I/O: binary bit-exact, golden text file, row-sum boundary"):
        alphabet = Alphabet.with_nac("ab ", separator=" ")
        rng = np.random.default_rng(1009)
        for i in range(10):
            matrix = random_matrix(rng, alphabet, int(rng.integers(1, 9)))
            p1 = tmp_path / f"m{i}a.ctcmat"
            p2 = tmp_path / f"m{i}b.ctcmat"
            store_matrix(matrix, p1, binary=True)
            store_matrix(load_matrix(p1), p2, binary=True)
            assert p1.read_bytes() == p2.read_bytes()

        from pathlib import Path

        golden = load_matrix(Path(__file__).parent / "data" / "golden.ctcmat")
        assert golden.num_frames == 4
        assert golden.probs[0].tolist() == [0.7, 0.1, 0.1, 0.1]

        over = tmp_path / "over.ctcmat"
        over.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.5011\n", encoding="utf-8")
        with pytest.raises(InvariantViolation):
            load_matrix(over)
        inside = tmp_path / "inside.ctcmat"
        inside.write_text("CTCMAT v1\na\t<NaC>\nT=1\n0.5\t0.5009\n", encoding="utf-8")
        with pytest.warns(UserWarning):
            renormalized = load_matrix(inside)
        assert renormalized.probs.sum() == pytest.approx(1.0, abs=1e-12)
