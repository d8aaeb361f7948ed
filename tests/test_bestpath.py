import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ctcdec import Alphabet, ConfidenceMatrix, decode_best_path
from ctcdec.ctc import collapse

from oracles import path_log_score, random_matrix, reference_best_path_confidences

AB2 = Alphabet.with_nac("ab")


def test_argmax_path_example():
    m = ConfidenceMatrix([[0.8, 0.1, 0.1], [0.1, 0.1, 0.8], [0.1, 0.8, 0.1]], AB2)
    hyp = decode_best_path(m)
    assert hyp.text == "ab"
    assert hyp.score == pytest.approx(math.log(0.8**3))


def test_single_nac_frame_gives_empty_text():
    m = ConfidenceMatrix([[0.2, 0.2, 0.6]], AB2)
    assert decode_best_path(m).text == ""


def test_run_merge():
    m = ConfidenceMatrix([[0.5, 0.3, 0.2]] * 3, AB2)
    assert decode_best_path(m).text == "a"


def test_argmax_tie_breaks_to_lowest_index():
    m = ConfidenceMatrix([[0.4, 0.4, 0.2]], AB2)
    assert decode_best_path(m).text == "a"


def test_deterministic():
    m = random_matrix(np.random.default_rng(11), AB2, 6)
    first = decode_best_path(m)
    assert all(decode_best_path(m) == first for _ in range(3))


@given(st.integers(0, 10_000), st.integers(1, 8))
@settings(max_examples=40)
def test_path_is_optimal_by_enumeration(seed, n_frames):
    m = random_matrix(np.random.default_rng(seed), AB2, n_frames)
    hyp = decode_best_path(m)
    assert m.alphabet.nac not in hyp.text
    best = max(
        path_log_score(m, list(p))
        for p in itertools.product(range(3), repeat=n_frames)
    )
    assert hyp.score == pytest.approx(best, rel=1e-12)


@given(st.integers(0, 10_000))
@settings(max_examples=25)
def test_word_confidences_match_tokens(seed):
    ab = Alphabet.with_nac("ab ", separator=" ")
    m = random_matrix(np.random.default_rng(seed), ab, 10)
    hyp = decode_best_path(m)
    tokens = [t for t in hyp.text.split(" ") if t]
    assert len(hyp.word_confidences) == len(tokens)
    assert all(0.0 <= c <= 1.0 for c in hyp.word_confidences)


def test_word_confidence_is_min_frame_max():
    ab = Alphabet.with_nac("ab ", separator=" ")
    # "a" over two frames with maxima 0.8 and 0.6, then NaC.
    m = ConfidenceMatrix(
        [
            [0.8, 0.1, 0.05, 0.05],
            [0.6, 0.2, 0.1, 0.1],
            [0.1, 0.1, 0.1, 0.7],
        ],
        ab,
    )
    hyp = decode_best_path(m)
    assert hyp.text == "a"
    assert hyp.word_confidences == (pytest.approx(0.6),)


@given(
    st.lists(st.sampled_from("aab  -"), min_size=1, max_size=40),
    st.integers(0, 10_000),
    st.sampled_from([" ", None]),
)
@settings(max_examples=200, deadline=None)
def test_decode_matches_the_path_helpers_and_the_scalar_reference(path, seed, separator):
    """Text, score and confidences from the one run split equal what
    ``collapse``, ``path_log_score`` and a frame-by-frame reference make of
    the argmax path. The path ('-' is NaC) has repeated letters, NaC gaps
    inside words and separator runs; some rows tie their maximum with a
    lower symbol."""
    ab = Alphabet.with_nac("ab ", separator=separator)
    rng = np.random.default_rng(seed)
    rows = rng.random((len(path), len(ab))) * 0.5
    for row, ch in zip(rows, path):
        label = ab.nac_index if ch == "-" else ab.index(ch)
        row[label] += 1.0
        if label and rng.random() < 0.2:
            row[rng.integers(label)] = row[label]
    m = ConfidenceMatrix(rows / rows.sum(axis=1, keepdims=True), ab)
    labels = np.argmax(m.probs, axis=1)
    hyp = decode_best_path(m)
    assert hyp.text == collapse(labels, ab)
    assert hyp.score == path_log_score(m, labels)
    assert hyp.word_confidences == reference_best_path_confidences(m)
