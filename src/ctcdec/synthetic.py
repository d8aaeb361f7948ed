"""Synthetic confidence matrices with a known ground truth.

Stands in for a real recognizer when testing decoders end to end. At
noise 0 the best-path decode of the generated matrix reproduces the input
text exactly: every character gets ``frames_per_char - 1`` one-hot frames
followed by one NaC frame, so repeated characters are always
NaC-separated.

Noise mixes each frame's clean profile with a random distribution:
``row = (1 - u) * clean + u * dirichlet`` with per-frame mixing weight
``u ~ Beta(k * noise, k * (1 - noise))`` (mean ``noise``), so occasional
frames flip their argmax while most stay clean. On top of that, each
character is outright misread with probability ``0.4 * noise``: all its
frames share one sparse Dirichlet draw at high weight, the way a badly
written glyph reads consistently as some other symbol. Frame-local noise
mostly hurts unconstrained decoding; misread characters can fool even a
dictionary-constrained decoder, which is what makes committee
combination worth testing on this data.
"""

from __future__ import annotations

import numpy as np

from .alphabet import Alphabet
from .ctc import _text_to_indices
from .matrix import ConfidenceMatrix

_BETA_CONCENTRATION = 4.0
_DIRICHLET_ALPHA = 0.3
_MISREAD_RATE = 0.4
_MISREAD_ALPHA = 0.05
_MISREAD_LOW, _MISREAD_HIGH = 0.75, 0.95


def generate_synthetic(
    text: str,
    alphabet: Alphabet,
    frames_per_char: int = 3,
    noise: float = 0.0,
    seed: int = 0,
) -> ConfidenceMatrix:
    """Deterministic synthetic matrix whose clean decode is ``text``."""
    if frames_per_char < 2:
        raise ValueError("frames_per_char must be >= 2")
    if not 0.0 <= noise < 1.0:
        raise ValueError("noise must be in [0, 1)")
    nac = alphabet.nac_index
    char_frames = [idx for ch in _text_to_indices(text, alphabet) for idx in [ch] * (frames_per_char - 1) + [nac]]
    labels = char_frames or [nac]

    n_frames = len(labels)
    n_symbols = len(alphabet)
    clean = np.zeros((n_frames, n_symbols))
    clean[np.arange(n_frames), labels] = 1.0

    if noise == 0.0:
        return ConfidenceMatrix(clean, alphabet)

    rng = np.random.default_rng(seed)
    u = rng.beta(_BETA_CONCENTRATION * noise, _BETA_CONCENTRATION * (1.0 - noise), size=n_frames)
    perturb = rng.dirichlet([_DIRICHLET_ALPHA] * n_symbols, size=n_frames)
    for i in range(len(text)):
        if rng.random() < _MISREAD_RATE * noise:
            start = i * frames_per_char
            end = start + frames_per_char - 1
            perturb[start:end] = rng.dirichlet([_MISREAD_ALPHA] * n_symbols)
            u[start:end] = rng.uniform(_MISREAD_LOW, _MISREAD_HIGH)
    rows = (1.0 - u)[:, None] * clean + u[:, None] * perturb
    rows /= rows.sum(axis=1, keepdims=True)
    return ConfidenceMatrix(rows, alphabet)
