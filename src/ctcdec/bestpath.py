"""Best-path decoding (scheme ``dec-bp``).

Takes the most confident symbol per frame, then collapses the resulting
path. The reported score is that path's log probability, not the string
marginal.
"""

from __future__ import annotations

import numpy as np

from .ctc import collapse, group_word_spans, path_log_score
from .matrix import ConfidenceMatrix
from .types import Hypothesis


def decode_best_path(matrix: ConfidenceMatrix) -> Hypothesis:
    """Greedy per-frame argmax decode; ties go to the lowest symbol index."""
    labels = np.argmax(matrix.probs, axis=1)
    text = collapse(labels, matrix.alphabet)
    score = path_log_score(matrix, labels)
    confs = _word_confidences(matrix, labels, text)
    return Hypothesis(text=text, score=score, word_confidences=confs)


def _word_confidences(
    matrix: ConfidenceMatrix, labels: np.ndarray, text: str
) -> tuple[float, ...]:
    """Per-word minimum of the per-frame maximum confidence, over the frames
    the argmax path ``labels`` (collapsing to ``text``) spends on the word,
    including NaC gaps inside it."""
    frame_max = matrix.probs[np.arange(matrix.num_frames), labels]
    # Maximal runs of identical labels; non-NaC runs emit one character each.
    starts = np.flatnonzero(np.diff(labels, prepend=-1))
    ends = np.append(starts[1:], len(labels))
    emits = labels[starts] != matrix.alphabet.nac_index
    char_spans = list(zip(starts[emits], ends[emits]))
    return tuple(
        float(frame_max[start:end].min())
        for _, start, end in group_word_spans(text, char_spans, matrix.alphabet.separator)
    )
