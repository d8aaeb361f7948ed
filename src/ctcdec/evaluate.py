"""Edit-distance evaluation: CER, WER, and expert ranking."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .alphabet import Alphabet, normalize_transcript
from .ctc import split_words
from .errors import LengthMismatch
from .types import Hypothesis


@dataclass(frozen=True)
class EditOps:
    """Operation counts from one optimal traceback."""

    matches: int = 0
    substitutions: int = 0
    deletions: int = 0
    insertions: int = 0

    def __add__(self, other: "EditOps") -> "EditOps":
        return EditOps(
            self.matches + other.matches,
            self.substitutions + other.substitutions,
            self.deletions + other.deletions,
            self.insertions + other.insertions,
        )

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions


def edit_alignment(
    reference: Sequence, hypothesis: Sequence, deletion_costs: Sequence[int]
) -> tuple[int, list[tuple[str, int, int]]]:
    """Minimum-cost edit alignment of ``hypothesis`` against ``reference``.

    A match costs 0, a substitution or an insertion 1, and deleting
    ``reference[i]`` costs ``deletion_costs[i]``. On equal cost the
    traceback prefers match > substitution > deletion > insertion. Returns
    the total cost and the ops ``(kind, ref_index, hyp_index)`` in order,
    with kind one of ``match``/``sub``/``del``/``ins``; a deletion carries
    the hypothesis position it falls before, an insertion the reference
    position.
    """
    n, m = len(reference), len(hypothesis)
    dist = [list(range(m + 1))]
    for ref, cost in zip(reference, deletion_costs):
        prev = dist[-1]
        left = prev[0] + cost
        row = [left]
        # min(diag + (ref != tok), up + cost, left + 1), without the
        # min() call, which dominates this loop's cost.
        for diag, up, tok in zip(prev, prev[1:], hypothesis):
            left += 1
            if ref != tok:
                diag += 1
            if diag < left:
                left = diag
            up += cost
            if up < left:
                left = up
            row.append(left)
        dist.append(row)

    ops: list[tuple[str, int, int]] = []
    i, j = n, m
    while i > 0 or j > 0:
        here = dist[i][j]
        sub = i > 0 and j > 0 and reference[i - 1] != hypothesis[j - 1]
        if i > 0 and j > 0 and here == dist[i - 1][j - 1] + sub:
            ops.append(("sub" if sub else "match", i - 1, j - 1))
            i, j = i - 1, j - 1
        elif i > 0 and here == dist[i - 1][j] + deletion_costs[i - 1]:
            ops.append(("del", i - 1, j))
            i -= 1
        else:
            ops.append(("ins", i, j - 1))
            j -= 1
    ops.reverse()
    return dist[n][m], ops


def edit_distance(a: Sequence, b: Sequence) -> tuple[int, EditOps]:
    """Levenshtein distance from reference ``a`` to hypothesis ``b``.

    Unit costs; deletions are reference tokens missing from ``b``,
    insertions are extra tokens in ``b``. Ties in the traceback prefer
    match > substitution > deletion > insertion.
    """
    distance, ops = edit_alignment(a, b, [1] * len(a))
    kinds = Counter(kind for kind, _, _ in ops)
    return distance, EditOps(kinds["match"], kinds["sub"], kinds["del"], kinds["ins"])


@dataclass(frozen=True)
class LineScore:
    char_distance: int
    char_ref_len: int
    word_distance: int
    word_ref_len: int
    char_ops: EditOps
    word_ops: EditOps


def _rate(errors: int, total: int) -> float:
    if total == 0:
        return 0.0 if errors == 0 else float("inf")
    return errors / total


@dataclass(frozen=True)
class EvalReport:
    """Per-line distances and aggregate CER/WER."""

    lines: tuple[LineScore, ...]

    @property
    def cer(self) -> float:
        return _rate(
            sum(s.char_distance for s in self.lines),
            sum(s.char_ref_len for s in self.lines),
        )

    @property
    def wer(self) -> float:
        return _rate(
            sum(s.word_distance for s in self.lines),
            sum(s.word_ref_len for s in self.lines),
        )

    @property
    def char_ops(self) -> EditOps:
        total = EditOps()
        for s in self.lines:
            total = total + s.char_ops
        return total

    @property
    def word_ops(self) -> EditOps:
        total = EditOps()
        for s in self.lines:
            total = total + s.word_ops
        return total


def evaluate(
    hyps: Sequence[Hypothesis | str],
    refs: Sequence[str],
    alphabet: Alphabet,
) -> EvalReport:
    """Score hypotheses against references.

    Both sides are normalized through the alphabet's mapping first, so
    scoring is invariant under transcript normalization. Case- and
    punctuation-sensitive. Words are :func:`split_words` on the alphabet's
    separator, so without one a line is one word.
    """
    if len(hyps) != len(refs):
        raise LengthMismatch(f"{len(hyps)} hypotheses vs {len(refs)} references")
    lines = []
    for hyp, ref in zip(hyps, refs):
        hyp_text = hyp.text if isinstance(hyp, Hypothesis) else hyp
        hyp_text = normalize_transcript(hyp_text, alphabet)
        ref_text = normalize_transcript(ref, alphabet)
        char_dist, char_ops = edit_distance(ref_text, hyp_text)
        ref_words = split_words(ref_text, alphabet.separator)
        hyp_words = split_words(hyp_text, alphabet.separator)
        word_dist, word_ops = edit_distance(ref_words, hyp_words)
        lines.append(
            LineScore(
                char_distance=char_dist,
                char_ref_len=len(ref_text),
                word_distance=word_dist,
                word_ref_len=len(ref_words),
                char_ops=char_ops,
                word_ops=word_ops,
            )
        )
    return EvalReport(lines=tuple(lines))


def rank_experts(reports: Sequence[EvalReport]) -> list[int]:
    """Expert indices sorted by ascending WER, then CER, then input order."""
    if not reports:
        raise ValueError("need at least one report")
    return sorted(range(len(reports)), key=lambda i: (reports[i].wer, reports[i].cer))
