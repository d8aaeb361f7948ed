"""Shared value types."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Hypothesis:
    """A decoded string with its score.

    ``score`` is a log probability (or a log-linear objective for lexicon
    decoding); ``float("-inf")`` marks an impossible hypothesis.
    ``word_confidences`` are optional per-word scores in [0, 1], aligned
    with the separator-split tokens of ``text``; committee voting uses them.
    """

    text: str
    score: float
    word_confidences: tuple[float, ...] | None = None
