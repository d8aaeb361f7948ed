"""Committee decoding (scheme ``dec-e<n>``): ROVER combination of n
experts' hypotheses.

Hypotheses are aligned word-by-word into a word transition network (WTN),
one expert at a time, against the network's reference path (the words of
the first hypothesis, NULL for slots created by later insertions). Each
slot then votes among its candidates; NULL wins silence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .ctc import marginal_word_confidences, split_words
from .dictionary import DecodeParams, _decode_dictionary_many
from .errors import LengthMismatch, NoAcceptedString
from .evaluate import edit_alignment
from .expressions import ExpressionModel
from .lexicon import Lexicon
from .matrix import ConfidenceMatrix
from .types import Hypothesis

#: Distinguished "no word here" token; distinct from every word.
NULL_WORD = None


@dataclass(frozen=True)
class CommitteeConfig:
    """Voting parameters.

    Per slot, a candidate w scores ``lambda * N(w)/n + (1 - lambda) *
    mean_confidence(w)``; NULL's confidence is ``null_confidence``. Ties
    break toward the candidate first contributed by the earliest-ranked
    expert. At ``vote_lambda`` 1 the confidences have no weight, so
    :func:`committee_decode` computes none for a vote.
    """

    n: int
    vote_lambda: float = 0.5
    null_confidence: float = 0.7

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if not 0.0 <= self.vote_lambda <= 1.0:
            raise ValueError("vote_lambda must be in [0, 1]")
        if not 0.0 <= self.null_confidence <= 1.0:
            raise ValueError(f"null_confidence must be in [0, 1], got {self.null_confidence}")


@dataclass
class _Entry:
    count: int = 0
    conf_sum: float = 0.0
    first_rank: int = 0


@dataclass
class _Slot:
    #: Word of the hypothesis that created the slot; NULL for inserted slots.
    ref: str | None
    entries: dict[str | None, _Entry] = field(default_factory=dict)

    def add(self, word: str | None, confidence: float, rank: int) -> None:
        entry = self.entries.get(word)
        if entry is None:
            self.entries[word] = _Entry(count=1, conf_sum=confidence, first_rank=rank)
        else:
            entry.count += 1
            entry.conf_sum += confidence


@dataclass
class WordTransitionNetwork:
    """Ordered slots of competing word candidates (including NULL)."""

    slots: list[_Slot]
    num_hypotheses: int
    separator: str | None = " "

    @classmethod
    def from_hypothesis(
        cls, hyp: Hypothesis, separator: str | None = " "
    ) -> "WordTransitionNetwork":
        words, confs = _tokenize(hyp, separator)
        slots = []
        for word, conf in zip(words, confs):
            slot = _Slot(ref=word)
            slot.add(word, conf, rank=0)
            slots.append(slot)
        return cls(slots=slots, num_hypotheses=1, separator=separator)

    @property
    def reference_path(self) -> list[str | None]:
        return [slot.ref for slot in self.slots]


def _tokenize(hyp: Hypothesis, separator: str | None) -> tuple[list[str], list[float]]:
    words = split_words(hyp.text, separator)
    if hyp.word_confidences is not None:
        confs = list(hyp.word_confidences)
        if len(confs) != len(words):
            raise LengthMismatch(
                f"{len(confs)} word confidences for {len(words)} words in {hyp.text!r}"
            )
    else:
        confs = [1.0] * len(words)
    return words, confs


def word_alignment(
    reference: list[str | None], words: list[str]
) -> tuple[int, list[tuple[str, int, int]]]:
    """Minimum-cost edit alignment of ``words`` against a reference path.

    Match costs 0, substitution/insertion/deletion cost 1, except that
    "deleting" a NULL-reference slot is free (NULL aligning to NULL). On
    equal cost the traceback prefers match > substitution > deletion >
    insertion. Returns the total cost and ops ``(kind, ref_index,
    word_index)`` with kind one of ``match``/``sub``/``del``/``ins``.
    """
    return edit_alignment(
        reference, words, [0 if ref is NULL_WORD else 1 for ref in reference]
    )


def align_into_wtn(wtn: WordTransitionNetwork, hyp: Hypothesis) -> WordTransitionNetwork:
    """Align a hypothesis into the network, extending it in place, and
    return the network.

    Insertions create new slots holding NULL for all prior hypotheses;
    deletions contribute NULL to existing slots.
    """
    words, confs = _tokenize(hyp, wtn.separator)
    rank = wtn.num_hypotheses
    _, ops = word_alignment(wtn.reference_path, words)

    slots: list[_Slot] = []
    for kind, ref_idx, word_idx in ops:
        if kind == "ins":  # fresh slot, everyone before gets NULL
            slot = _Slot(ref=NULL_WORD, entries={NULL_WORD: _Entry(count=rank)})
        else:
            slot = wtn.slots[ref_idx]
        word, conf = (NULL_WORD, 0.0) if kind == "del" else (words[word_idx], confs[word_idx])
        slot.add(word, conf, rank)
        slots.append(slot)
    wtn.slots = slots
    wtn.num_hypotheses = rank + 1
    return wtn


def vote(wtn: WordTransitionNetwork, config: CommitteeConfig) -> Hypothesis:
    """Per-slot weighted vote over counts and mean confidences; a count is
    a share of the network's hypotheses."""
    lam = config.vote_lambda
    words: list[str] = []
    scores: list[float] = []
    for slot in wtn.slots:
        best_word: str | None = None
        best_score = -1.0
        best_rank = 0
        for word, entry in slot.entries.items():
            if word is NULL_WORD:
                mean_conf = config.null_confidence
            else:
                mean_conf = entry.conf_sum / entry.count
            score = lam * (entry.count / wtn.num_hypotheses) + (1.0 - lam) * mean_conf
            if score > best_score or (score == best_score and entry.first_rank < best_rank):
                best_word, best_score, best_rank = word, score, entry.first_rank
        if best_word is not NULL_WORD:
            words.append(best_word)
            scores.append(best_score)
    sep = wtn.separator if wtn.separator is not None else " "
    text = sep.join(words)
    log_score = sum(math.log(s) if s > 0 else float("-inf") for s in scores)
    return Hypothesis(text=text, score=log_score, word_confidences=tuple(scores))


def combine_hypotheses(
    hyps: list[Hypothesis],
    config: CommitteeConfig,
    separator: str | None = " ",
) -> Hypothesis:
    """Build the WTN from rank-ordered hypotheses and vote.

    A committee of one returns its sole input verbatim.
    """
    if len(hyps) != config.n:
        raise LengthMismatch(f"{len(hyps)} hypotheses for a committee of {config.n}")
    if config.n == 1:
        return hyps[0]
    wtn = WordTransitionNetwork.from_hypothesis(hyps[0], separator)
    for hyp in hyps[1:]:
        wtn = align_into_wtn(wtn, hyp)
    return vote(wtn, config)


def committee_decode(
    matrices: list[ConfidenceMatrix],
    lexicon: Lexicon,
    params: DecodeParams,
    config: CommitteeConfig,
    expression_model: ExpressionModel | None = None,
) -> Hypothesis:
    """Dictionary-decode each expert's matrix and combine via ROVER.

    ``matrices`` must come pre-sorted by descending expert quality (see
    ``rank_experts``); their order decides tie-breaks. They must share an
    alphabet (:class:`InvariantViolation` otherwise). The experts are
    decoded in one search. Experts whose decode fails are dropped from
    the vote; if all fail, :class:`NoAcceptedString` is raised. Errors
    that no expert's matrix causes (an empty lexicon, an invalid
    expression model) raise as themselves.

    At ``vote_lambda`` 1 the vote gives word confidences no weight, so
    the experts' are not computed, except for a sole surviving expert,
    whose hypothesis is returned as it is.
    """
    if len(matrices) != config.n:
        raise LengthMismatch(f"{len(matrices)} matrices for a committee of {config.n}")
    confidences = config.vote_lambda < 1.0
    decoded = _decode_dictionary_many(matrices, lexicon, params, expression_model, word_confidences=confidences)
    hyps = [h for h in decoded if isinstance(h, Hypothesis)]
    if not hyps:
        raise NoAcceptedString(f"all {config.n} experts failed: {decoded[0]}")
    if len(hyps) == 1 and not confidences:
        matrix = matrices[decoded.index(hyps[0])]
        return replace(hyps[0], word_confidences=marginal_word_confidences(matrix, hyps[0].text, lexicon.separator))
    return combine_hypotheses(hyps, replace(config, n=len(hyps)), lexicon.separator)
