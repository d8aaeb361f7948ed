"""Path collapse rules and exact CTC probability computation.

A path is one symbol index per frame. The collapse to a string applies two
steps in this exact order: merge maximal runs of identical labels into one
label, then delete NaC. The order matters: NaC between two equal labels
separates a genuine repetition, NaC-free runs merge.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .alphabet import Alphabet
from .errors import InvalidSymbol, LengthMismatch
from .matrix import ConfidenceMatrix

NEG_INF = float("-inf")

#: A path through a confidence matrix: one symbol index per frame.
Path = Sequence[int]


def collapse(path: Path, alphabet: Alphabet) -> str:
    """Collapse a path to a string: merge runs, then delete NaC."""
    size = len(alphabet)
    merged: list[int] = []
    prev = -1
    for idx in path:
        if not 0 <= idx < size:
            raise InvalidSymbol(f"label {idx} out of range for alphabet of size {size}")
        if idx != prev:
            merged.append(idx)
            prev = idx
    nac = alphabet.nac_index
    return "".join(alphabet.symbols[i] for i in merged if i != nac)


def path_log_score(matrix: ConfidenceMatrix, path: Path) -> float:
    """Log probability of a single path; -inf if any factor is zero."""
    labels = np.asarray(path, dtype=np.intp)
    if labels.shape != (matrix.num_frames,):
        raise LengthMismatch(
            f"path has {labels.shape[0] if labels.ndim == 1 else '?'} labels, "
            f"matrix has {matrix.num_frames} frames"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= matrix.num_symbols):
        raise InvalidSymbol("path label out of range")
    factors = matrix.probs[np.arange(matrix.num_frames), labels]
    if np.any(factors == 0.0):
        return NEG_INF
    return float(np.log(factors).sum())


def _text_to_indices(text: str, alphabet: Alphabet) -> list[int]:
    indices = []
    for ch in text:
        idx = alphabet.index_of.get(ch)
        if idx is None or idx == alphabet.nac_index:
            raise InvalidSymbol(f"symbol {ch!r} is not a printable alphabet symbol")
        indices.append(idx)
    return indices


class _Lattice:
    """The text interleaved with optional NaCs, ``[NaC, c1, NaC, ..., cN,
    NaC]``, over the frames of ``log_probs`` (a T x S log-probability array).

    ``emit[t, s]`` is the log probability of state ``s``'s label at frame
    ``t``; ``init`` holds the frame-0 scores (a path starts on the leading
    NaC or on the first character).
    """

    def __init__(self, log_probs: np.ndarray, text: str, alphabet: Alphabet):
        nac = alphabet.nac_index
        labels = np.empty(2 * len(text) + 1, dtype=np.intp)
        labels[0::2] = nac
        labels[1::2] = _text_to_indices(text, alphabet)
        self.emit = log_probs[:, labels]
        self.init = np.full(labels.shape[0], NEG_INF)
        self.init[:2] = self.emit[0, :2]
        # A jump from state s-2 is allowed into non-NaC states whose symbol
        # differs from the one two states back (repeats must pass through NaC).
        self._jump_mask = np.full(labels.shape[0], NEG_INF)
        self._jump_mask[2:][(labels[2:] != nac) & (labels[2:] != labels[:-2])] = 0.0

    def moves(self, prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Scores entering each state from ``prev`` by a stay, a step from
        the state before, and a jump over a NaC, in that order."""
        padded = np.concatenate(([NEG_INF, NEG_INF], prev))
        return prev, padded[1:-1], padded[:-2] + self._jump_mask


def _forward(lattice: _Lattice) -> float:
    alpha = lattice.init
    for emit in lattice.emit[1:]:
        stay, step, jump = lattice.moves(alpha)
        alpha = np.logaddexp(np.logaddexp(stay, step), jump) + emit
    if alpha.shape[0] == 1:
        return float(alpha[0])
    return float(np.logaddexp(alpha[-1], alpha[-2]))


def string_log_score(matrix: ConfidenceMatrix, text: str) -> float:
    """Exact log marginal probability of ``text``: the sum over all paths
    that collapse to it, via the standard forward dynamic program over the
    text interleaved with optional NaCs. Returns -inf when no path exists
    (text too long for T, or repeated characters needing more frames).
    """
    return _forward(_Lattice(matrix.log_probs, text, matrix.alphabet))


def force_align(matrix: ConfidenceMatrix, text: str) -> list[tuple[int, int]]:
    """Viterbi alignment of ``text`` to the matrix.

    Returns one end-exclusive frame interval per character of ``text``
    (the frames whose best path emits that character). Raises
    :class:`LengthMismatch` when no valid alignment exists.
    """
    lattice = _Lattice(matrix.log_probs, text, matrix.alphabet)
    n_frames = matrix.num_frames
    score = lattice.init
    # back[t, s]: how many states the best path into s at frame t moved.
    back = np.zeros((n_frames, score.shape[0]), dtype=np.intp)
    for t in range(1, n_frames):
        moves = np.stack(lattice.moves(score))
        # First maximum: ties prefer staying, then a single step, then a jump.
        back[t] = moves.argmax(axis=0)
        score = moves.max(axis=0) + lattice.emit[t]

    # A path ends on the trailing NaC or on the last character; ties go to the NaC.
    end = score.shape[0] - 1
    if end > 0 and score[end - 1] > score[end]:
        end -= 1
    if score[end] == NEG_INF:
        raise LengthMismatch(f"no valid alignment of {text!r} in {n_frames} frames")

    states = np.empty(n_frames, dtype=np.intp)
    for t in range(n_frames - 1, -1, -1):
        states[t] = end
        end -= back[t, end]
    # States never decrease along a path, so each character's frames are
    # one run of its (odd) state.
    chars = np.arange(1, 2 * len(text), 2)
    starts = np.searchsorted(states, chars, side="left")
    ends = np.searchsorted(states, chars, side="right")
    return [(int(s), int(e)) for s, e in zip(starts, ends)]


def group_word_spans(
    text: str, char_spans: list[tuple[int, int]], separator: str | None
) -> list[tuple[str, int, int]]:
    """Group per-character frame spans of ``text`` into per-word spans.

    Words are the separator-split tokens of ``text`` (the whole text when
    ``separator`` is None); each span runs from the start of the word's
    first character to the end of its last.
    """
    out: list[tuple[str, int, int]] = []
    pos = 0
    for word in text.split(separator) if separator is not None else [text]:
        if word:
            out.append((word, char_spans[pos][0], char_spans[pos + len(word) - 1][1]))
        pos += len(word) + 1
    return out


def word_spans(
    matrix: ConfidenceMatrix, text: str, separator: str | None
) -> list[tuple[str, int, int]]:
    """Per-word frame spans of a decoded text, from its Viterbi alignment.

    Words are the separator-split tokens of ``text``; each span runs from
    the first frame of the word's first character to the last frame of its
    last character (end-exclusive).
    """
    if not text:
        return []
    return group_word_spans(text, force_align(matrix, text), separator)


def marginal_word_confidences(
    matrix: ConfidenceMatrix, text: str, separator: str | None
) -> tuple[float, ...]:
    """Per-word confidences: the CTC marginal of each word over the frame
    span it was decoded to, in [0, 1]."""
    return tuple(
        math.exp(_forward(_Lattice(matrix.log_probs[start:end], word, matrix.alphabet)))
        for word, start, end in word_spans(matrix, text, separator)
    )
