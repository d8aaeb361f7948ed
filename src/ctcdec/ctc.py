"""Path collapse rules and exact CTC probability computation.

A path is one symbol index per frame. The collapse to a string applies two
steps in this exact order: merge maximal runs of identical labels into one
label, then delete NaC. The order matters: NaC between two equal labels
separates a genuine repetition, NaC-free runs merge.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

import numpy as np

from .alphabet import Alphabet
from .errors import InvalidSymbol, LengthMismatch
from .matrix import ConfidenceMatrix, runs

NEG_INF = float("-inf")

#: A path through a confidence matrix: one symbol index per frame.
Path = Sequence[int]


def collapse(path: Path, alphabet: Alphabet) -> str:
    """Collapse a path to a string: merge runs, then delete NaC."""
    labels = np.asarray(path)
    size = len(alphabet)
    bad = labels[(labels < 0) | (labels >= size)]
    if bad.size:
        raise InvalidSymbol(f"label {bad[0]} out of range for alphabet of size {size}")
    nac = alphabet.nac_index
    return "".join(alphabet.symbols[i] for i in labels[runs(labels)[0]].tolist() if i != nac)


def _text_to_indices(text: str, alphabet: Alphabet) -> list[int]:
    """Alphabet indices of ``text``, the one printable-text check (:class:`InvalidSymbol`)."""
    indices = []
    for ch in text:
        idx = alphabet.index_of.get(ch)
        if idx is None or idx == alphabet.nac_index:
            raise InvalidSymbol(f"symbol {ch!r} is not a printable alphabet symbol")
        indices.append(idx)
    return indices


class _Lattices:
    """CTC lattices stacked for one dynamic program over padded arrays.

    Lattice ``i`` of ``pieces[i] = (matrix, text, start, end)`` is the text
    interleaved with optional NaCs, ``[NaC, c1, NaC, ..., cN, NaC]``, over
    frames ``[start, end)`` of the matrix. ``emit[t, i, s]`` (frames x
    lattices x states) is the log probability of state ``s``'s label at
    frame ``t``. The lattices are right-aligned, so each one ends at the
    last frame. Padding states emit -inf. In the frames before its own
    first frame a lattice emits 0 in its leading NaC state and -inf
    elsewhere: from the start scores ``[0, -inf, ...]`` the step into its
    first frame then starts a path on the leading NaC or the first
    character, with the same arithmetic as frame 0 of a lattice alone.
    """

    def __init__(self, pieces: list[tuple[ConfidenceMatrix, str, int, int]]):
        # Each distinct matrix's rows appear once in ``src``, from ``offsets[id(matrix)]``.
        offsets: dict[int, int] = {}
        arrays, labels, first, nac = [], [], [], []
        for matrix, text, start, _ in pieces:
            if id(matrix) not in offsets:
                offsets[id(matrix)] = sum(a.shape[0] for a in arrays)
                arrays.append(matrix.log_probs)
            first.append(offsets[id(matrix)] + start)
            nac.append(matrix.alphabet.nac_index)
            lab = [nac[-1]] * (2 * len(text) + 1)
            lab[1::2] = _text_to_indices(text, matrix.alphabet)
            labels.append(lab)
        self.texts = [text for _, text, _, _ in pieces]
        self.frames = np.array([end - start for _, _, start, end in pieces])
        self.states = np.array([len(lab) for lab in labels])
        n_frames, width = int(self.frames.max()), int(self.states.max())
        pad = np.arange(width) >= self.states[:, None]
        cols = np.zeros(pad.shape, dtype=np.intp)
        cols[~pad] = np.concatenate(labels)
        # Row of ``src`` read by each lattice at each frame of the stack;
        # the frames before a lattice's first read any row and are overwritten.
        first = np.array(first)
        rows = np.arange(n_frames)[:, None] + (first - n_frames + self.frames)
        src = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        self.emit = src[np.maximum(rows, 0)[:, :, None], cols]
        self.emit[:, pad] = NEG_INF
        self.emit[rows < first] = np.where(np.arange(width) == 0, 0.0, NEG_INF)
        # A jump from state s-2 is allowed into non-NaC states whose symbol
        # differs from the one two states back (repeats must pass through NaC).
        self.jump = np.full(pad.shape, NEG_INF)
        self.jump[:, 2:][(cols[:, 2:] != np.array(nac)[:, None]) & (cols[:, 2:] != cols[:, :-2]) & ~pad[:, 2:]] = 0.0

    def run(self, viterbi: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """Every lattice's state scores at the last frame: log path sums
        (the forward pass) or, with ``viterbi``, best-path log scores and
        ``back[t, i, s]``, how many states the best path into ``s`` at
        frame ``t`` moved."""
        n_frames, n, width = self.emit.shape
        # Two leading -inf columns: states s-1 and s-2 of the first states.
        if viterbi:
            # Every frame's scores (``score[t]`` before frame t), so that
            # ``back`` is read from all of them at once after the loop.
            score = np.full((n_frames + 1, n, width + 2), NEG_INF)
            score[0, :, 2] = 0.0
            for t in range(n_frames):
                prev = score[t]
                best = np.maximum(np.maximum(prev[:, 2:], prev[:, 1:-1]), prev[:, :-2] + self.jump)
                np.add(best, self.emit[t], out=score[t + 1, :, 2:])
            # First maximum: ties prefer staying, then a single step, then a jump.
            stay, step, jump = score[:-1, :, 2:], score[:-1, :, 1:-1], score[:-1, :, :-2] + self.jump
            return score[-1, :, 2:], np.where(jump > np.maximum(stay, step), 2, step > stay).astype(np.uint8)
        prev = np.full((n, width + 2), NEG_INF)
        prev[:, 2] = 0.0
        cur = np.full_like(prev, NEG_INF)
        for t in range(n_frames):
            stay, step, jump = prev[:, 2:], prev[:, 1:-1], prev[:, :-2] + self.jump
            np.add(np.logaddexp(np.logaddexp(stay, step), jump), self.emit[t], out=cur[:, 2:])
            prev, cur = cur, prev
        return prev[:, 2:], None


def _log_marginals(pieces: list[tuple[ConfidenceMatrix, str, int, int]]) -> list[float]:
    """Log marginal probability of each lattice's text over its frames,
    from one forward pass over all of them."""
    lattices = _Lattices(pieces)
    alpha, _ = lattices.run(viterbi=False)
    rows = np.arange(len(pieces))
    # A path ends on the trailing NaC or, when the text is not empty, on the last character.
    out = alpha[rows, lattices.states - 1]
    two = lattices.states > 1
    out[two] = np.logaddexp(out[two], alpha[rows[two], lattices.states[two] - 2])
    return out.tolist()


def _align(pieces: list[tuple[ConfidenceMatrix, str, int, int]]) -> list[list[tuple[int, int]]]:
    """Viterbi alignment of each lattice, from one pass over all of them:
    per character of its text, the end-exclusive frame interval (counted
    from the lattice's first frame) whose best path emits that character.
    Raises :class:`LengthMismatch` for the first lattice with no valid
    alignment."""
    lattices = _Lattices(pieces)
    score, back = lattices.run(viterbi=True)
    rows = np.arange(len(pieces))
    # A path ends on the trailing NaC or on the last character; ties go to the NaC.
    end = lattices.states - 1
    end -= (end > 0) & (score[rows, end - 1] > score[rows, end])
    bad = (score[rows, end] == NEG_INF).nonzero()[0]
    if bad.size:
        i = int(bad[0])
        raise LengthMismatch(f"no valid alignment of {lattices.texts[i]!r} in {int(lattices.frames[i])} frames")

    # Each best path, walked back over its lattice's own frames (the last
    # ones) as bytes, so every step is on Python ints. States never
    # decrease along a path, so each character's frames are one run of its
    # (odd) state.
    out = []
    total = back.shape[0]
    for i, (state, n_states, n_frames) in enumerate(
        zip(end.tolist(), lattices.states.tolist(), lattices.frames.tolist())
    ):
        moves = back[total - n_frames :, i, :n_states].tobytes()
        path = [0] * n_frames
        for t in range(n_frames - 1, -1, -1):
            path[t] = state
            state -= moves[t * n_states + state]
        out.append([(bisect_left(path, c), bisect_right(path, c)) for c in range(1, n_states - 1, 2)])
    return out


def string_log_score(matrix: ConfidenceMatrix, text: str) -> float:
    """Exact log marginal probability of ``text``: the sum over all paths
    that collapse to it, via the standard forward dynamic program over the
    text interleaved with optional NaCs. Returns -inf when no path exists
    (text too long for T, or repeated characters needing more frames).
    """
    return _log_marginals([(matrix, text, 0, matrix.num_frames)])[0]


def force_align(matrix: ConfidenceMatrix, text: str) -> list[tuple[int, int]]:
    """Viterbi alignment of ``text`` to the matrix.

    Returns one end-exclusive frame interval per character of ``text``
    (the frames whose best path emits that character). Raises
    :class:`LengthMismatch` when no valid alignment exists.
    """
    return _align([(matrix, text, 0, matrix.num_frames)])[0]


def split_words(text: str, separator: str | None) -> list[str]:
    """The words of ``text``, as confidences, the committee vote, WER and
    lexicons count them: its non-empty ``separator``-split tokens, or the
    text itself, if not empty, when ``separator`` is None."""
    return [word for word in (text.split(separator) if separator is not None else [text]) if word]


def group_word_spans(
    text: str, char_spans: list[tuple[int, int]], separator: str | None
) -> list[tuple[str, int, int]]:
    """Group per-character frame spans of ``text`` into per-word spans.

    Words are :func:`split_words` of ``text``; each span runs from the
    start of the word's first character to the end of its last.
    """
    out: list[tuple[str, int, int]] = []
    pos = 0
    for word in split_words(text, separator):
        # Only separators lie between two words, so the next match is the word.
        pos = text.index(word, pos)
        out.append((word, char_spans[pos][0], char_spans[pos + len(word) - 1][1]))
        pos += len(word)
    return out


def marginal_word_confidences(
    matrix: ConfidenceMatrix, text: str, separator: str | None
) -> tuple[float, ...]:
    """Per-word confidences: the CTC marginal of each word over the frame
    span it was decoded to, in [0, 1]."""
    return word_confidences_many([(matrix, text)], separator)[0]


def word_confidences_many(
    decoded: list[tuple[ConfidenceMatrix, str]], separator: str | None
) -> list[tuple[float, ...]]:
    """:func:`marginal_word_confidences` of each ``(matrix, text)``: one
    Viterbi pass aligns every text, and one forward pass scores every word."""
    aligned = [(matrix, text, 0, matrix.num_frames) for matrix, text in decoded if text]
    spans = iter(_align(aligned) if aligned else ())
    words = [
        [(matrix, word, start, end) for word, start, end in group_word_spans(text, next(spans), separator)]
        if text
        else []
        for matrix, text in decoded
    ]
    flat = [word for line in words for word in line]
    scores = iter(_log_marginals(flat) if flat else ())
    return [tuple(math.exp(next(scores)) for _ in line) for line in words]
