"""Best-path decoding (scheme ``dec-bp``).

Takes the most confident symbol per frame, then collapses the resulting
path. The reported score is that path's log probability, not the string
marginal.
"""

from __future__ import annotations

import numpy as np

from .ctc import group_word_spans
from .matrix import ConfidenceMatrix, runs
from .types import Hypothesis


def decode_best_path(matrix: ConfidenceMatrix) -> Hypothesis:
    """Greedy per-frame argmax decode; ties go to the lowest symbol index.

    A word's confidence is the minimum of the per-frame maximum over the
    frames of its characters, including NaC gaps inside it.
    """
    labels = np.argmax(matrix.probs, axis=1)
    frame_max = matrix.probs[np.arange(matrix.num_frames), labels]
    # Maximal runs of identical labels; non-NaC runs emit one character each.
    starts, ends = runs(labels)
    emits = labels[starts] != matrix.alphabet.nac_index
    symbols = matrix.alphabet.symbols
    text = "".join([symbols[i] for i in labels[starts[emits]].tolist()])
    char_spans = list(zip(starts[emits].tolist(), ends[emits].tolist()))
    confs = tuple(
        float(frame_max[start:end].min())
        for _, start, end in group_word_spans(text, char_spans, matrix.alphabet.separator)
    )
    # A row's maximum is positive, so the path's log score is finite.
    return Hypothesis(text=text, score=float(np.log(frame_max).sum()), word_confidences=confs)
