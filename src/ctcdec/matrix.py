"""Confidence matrices: per-frame symbol probability distributions."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .alphabet import Alphabet
from .errors import InvariantViolation

#: Row sums within this tolerance are accepted as normalized.
ROW_SUM_TOLERANCE = 1e-6
#: Row sums off by more than this are rejected outright.
ROW_SUM_REJECT = 1e-3


def _checked_entries(values) -> np.ndarray:
    """``values`` as a float64 array, once it is a T x S array (T >= 1) of
    real, finite, nonnegative entries; otherwise :class:`InvariantViolation`."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind == "c":  # which a cast to float64 would truncate
            raise TypeError(f"complex entries ({arr.dtype})")
        arr = arr.astype(np.float64, copy=False)
    except (TypeError, ValueError) as exc:  # ragged rows, entries that are not numbers
        raise InvariantViolation(f"expected a T x S matrix of numbers: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise InvariantViolation(f"expected a T x S matrix with T >= 1, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvariantViolation("matrix entries must be finite")
    if np.any(arr < 0):
        raise InvariantViolation("matrix entries must be nonnegative")
    return arr


@dataclass(frozen=True)
class ConfidenceMatrix:
    """T x S matrix of per-frame symbol probabilities.

    Rows index frames (horizontal positions along a text line), columns
    index alphabet symbols. Immutable after construction.
    """

    probs: np.ndarray
    alphabet: Alphabet

    def __post_init__(self) -> None:
        arr = np.ascontiguousarray(_checked_entries(self.probs))
        if arr.shape[1] != len(self.alphabet):
            raise InvariantViolation(
                f"matrix has {arr.shape[1]} columns but the alphabet has {len(self.alphabet)} symbols"
            )
        dev = np.abs(arr.sum(axis=1) - 1.0)
        worst = int(np.argmax(dev))
        if dev[worst] > ROW_SUM_TOLERANCE:
            raise InvariantViolation(
                f"row {worst} sums to {arr[worst].sum():.9f} (tolerance {ROW_SUM_TOLERANCE})"
            )
        arr.flags.writeable = False
        object.__setattr__(self, "probs", arr)

    @cached_property
    def log_probs(self) -> np.ndarray:
        """Elementwise log of ``probs`` (read-only; zeros map to -inf)."""
        with np.errstate(divide="ignore"):
            logp = np.log(self.probs)
        logp.flags.writeable = False
        return logp

    @property
    def num_frames(self) -> int:
        return self.probs.shape[0]

    @property
    def num_symbols(self) -> int:
        return self.probs.shape[1]

    @classmethod
    def from_rows(cls, rows, alphabet: Alphabet) -> "ConfidenceMatrix":
        """Build a matrix from raw rows, applying the row-sum policy.

        Rows off by at most ``ROW_SUM_TOLERANCE`` pass unchanged; rows off
        by up to ``ROW_SUM_REJECT`` are renormalized with a warning (real
        network outputs carry serialization rounding); anything worse
        raises :class:`InvariantViolation`.
        """
        arr = _checked_entries(rows)
        sums = arr.sum(axis=1)
        dev = np.abs(sums - 1.0)
        if np.any(dev > ROW_SUM_REJECT):
            worst = int(np.argmax(dev))
            raise InvariantViolation(
                f"row {worst} sums to {sums[worst]:.9f}, off by more than {ROW_SUM_REJECT}"
            )
        loose = dev > ROW_SUM_TOLERANCE
        if np.any(loose):
            warnings.warn(
                f"renormalized {int(loose.sum())} row(s) with sums off by up to "
                f"{dev.max():.2e}",
                stacklevel=2,
            )
            arr = arr / sums[:, None]
        return cls(arr, alphabet)


def runs(values) -> tuple[np.ndarray, np.ndarray]:
    """Every maximal run of equal values in a 1-D sequence, as index
    arrays ``(starts, ends)``: run ``k`` is ``values[starts[k]:ends[k]]``."""
    values = np.asarray(values)
    change = values[1:] != values[:-1]
    edge = [values.size > 0]
    starts = np.flatnonzero(np.concatenate((edge, change)))
    ends = np.flatnonzero(np.concatenate((change, edge))) + 1
    return starts, ends


def detect_boundaries(
    matrix: ConfidenceMatrix, threshold: float = 0.5
) -> list[tuple[int, int]]:
    """Maximal frame intervals where NaC confidence is at least ``threshold``.

    High NaC confidence marks inter-character gaps. Returns disjoint,
    sorted, end-exclusive ``(start, end)`` intervals within ``[0, T)``.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    mask = matrix.probs[:, matrix.alphabet.nac_index] >= threshold
    starts, ends = runs(mask)
    hit = mask[starts]
    return list(zip(starts[hit].tolist(), ends[hit].tolist()))
