"""Exception types shared across the toolkit.

A batch run tags a line that fails with one of these as ``ERROR:<class
name>`` without aborting the whole batch.
"""

from __future__ import annotations


class CtcDecError(Exception):
    """Base class for all toolkit errors."""


class UnmappableCharacter(CtcDecError):
    """A transcript character has no canonical alphabet symbol."""

    def __init__(self, position: int, char: str):
        super().__init__(
            f"character {char!r} at position {position} is not in the alphabet "
            "and has no normalization mapping"
        )
        self.position = position
        self.char = char


class LengthMismatch(CtcDecError):
    """Two sequences that must have equal length do not."""


class InvalidSymbol(CtcDecError):
    """Text contains a symbol outside the printable alphabet."""


class InvalidRule(CtcDecError):
    """An expression rule references an unknown class or symbol."""


class EmptyLanguage(CtcDecError):
    """No accepting state is reachable from the model's start state."""


class NoAcceptedString(CtcDecError):
    """The search exhausted its beam without an accepted hypothesis."""


class SearchLimit(CtcDecError):
    """A search would exceed a fixed limit on the candidates of one frame
    or on the prefixes of one call (with an unlimited or very wide beam)."""


class EmptyLexicon(CtcDecError):
    """Dictionary decoding was requested with an empty lexicon."""


class ParseError(CtcDecError):
    """A file could not be parsed."""

    def __init__(self, line: int, reason: str):
        super().__init__(f"line {line}: {reason}")
        self.line = line
        self.reason = reason


class InvariantViolation(CtcDecError):
    """A loaded object violates a structural invariant (e.g. row sums)."""
