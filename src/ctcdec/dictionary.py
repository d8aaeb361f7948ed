"""Dictionary-constrained decoding (scheme ``dec-dm``).

Searches for the most confident string whose every word belongs to the
lexicon, scored jointly with unigram word frequencies:

    score(text) = log P_ctc(text) + alpha * sum_w log(count(w) / total)
                  + beta * #words

Words may be wrapped in attaching punctuation without dictionary
membership. Within a line, words are separated by the separator symbol.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .ctc import marginal_word_confidences
from .errors import EmptyLexicon
from .expressions import ExpressionModel, _FsaConstraint
from .lexicon import Lexicon
from .matrix import ConfidenceMatrix
from .search import Node, prefix_beam_search
from .types import Hypothesis

OOV_POLICIES = ("reject", "pass-punct")


@dataclass(frozen=True)
class DecodeParams:
    """Knobs for dictionary decoding.

    ``lm_weight`` (alpha) scales the unigram log frequencies;
    ``word_bonus`` (beta) is a per-word additive bonus countering the
    prior's preference for fewer words. ``oov_policy`` is ``"reject"``
    (every word must be in the lexicon) or ``"pass-punct"`` (tokens made
    purely of attaching punctuation are also permitted).
    ``min_symbol_prob``, in [0, 1), prunes extensions below that
    per-frame probability; keep at 0 for exact search.
    """

    lm_weight: float = 1.0
    word_bonus: float = 0.0
    beam_width: int | None = 64
    oov_policy: str = "reject"
    min_symbol_prob: float = 0.0

    def __post_init__(self) -> None:
        if self.lm_weight < 0:
            raise ValueError("lm_weight must be >= 0")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1 or None")
        if self.oov_policy not in OOV_POLICIES:
            raise ValueError(f"oov_policy must be one of {OOV_POLICIES}")
        if not 0.0 <= self.min_symbol_prob < 1.0:
            raise ValueError("min_symbol_prob must be in [0, 1)")


# Parse phases for the word-by-word constraint.
_START, _BETWEEN, _PRE, _WORD, _POST = range(5)


class _LexiconConstraint:
    """Prefix-search constraint enforcing lexicon membership per word.

    A constraint state is a tuple of analyses ``(phase, trie_node,
    prior)``; several analyses coexist when punctuation is ambiguous
    between word-internal and attached (e.g. an apostrophe that may end
    the word or continue it). ``prior`` is the weighted unigram scores
    and word bonuses of completed words, relative to the best analysis:
    ``extend`` moves the best prior into the node's ``weight``, so states
    that differ only by the words before them are equal. Analyses sharing
    ``(phase, node)`` keep only the best prior.
    """

    def __init__(self, lexicon: Lexicon, alphabet, params: DecodeParams):
        if len(lexicon) == 0:
            raise EmptyLexicon("cannot decode with an empty lexicon")
        self.lexicon = lexicon
        self.symbols = alphabet.symbols
        self.pass_punct = params.oov_policy == "pass-punct"
        self.attach = lexicon.attach_chars
        self.separator = lexicon.separator
        log_total = math.log(lexicon.total_count)
        word_prior = {
            word: params.lm_weight * (math.log(count) - log_total) + params.word_bonus
            for word, count in lexicon.counts.items()
        }
        # Look-ahead for pruning: best completion prior below each trie
        # node, so in-progress words rank comparably to completed ones.
        self._lookahead = lexicon.node_best_completion(word_prior)
        # Prior of the word ending at each trie node (None: no word ends there).
        self._completed = [
            None if word is None else word_prior[word]
            for word in map(lexicon.word_ending_at, range(len(self._lookahead)))
        ]
        self.initial = self._node(((_START, 0, 0.0),), 0.0)

    def _node(self, analyses: tuple, weight: float) -> Node:
        """The Node of ``analyses``: best prior with look-ahead (``rank``)
        and best prior as a complete line (``final``)."""
        rank = final = None
        for phase, node, prior in analyses:
            bonus = prior + (self._lookahead[node] if phase == _WORD else 0.0)
            if rank is None or bonus > rank:
                rank = bonus
            if phase == _WORD:
                inc = self._completed[node]
                if inc is None:
                    continue
                total = prior + inc
            elif phase in (_START, _POST) or (phase == _PRE and self.pass_punct):
                total = prior
            else:
                continue
            if final is None or total > final:
                final = total
        return Node(analyses, rank, final, weight)

    def extend(self, state, symbol_index: int):
        sym = self.symbols[symbol_index]
        completed = self._completed
        best: dict[tuple[int, int], float] = {}

        def add(phase: int, node: int, prior: float) -> None:
            key = (phase, node)
            if prior > best.get(key, float("-inf")):
                best[key] = prior

        for phase, node, prior in state:
            if sym == self.separator:
                if phase == _WORD:
                    if completed[node] is not None:
                        add(_BETWEEN, 0, prior + completed[node])
                elif phase == _POST:
                    add(_BETWEEN, 0, prior)
                elif phase == _PRE and self.pass_punct:
                    add(_BETWEEN, 0, prior)
                continue
            in_attach = sym in self.attach
            if in_attach:
                if phase in (_START, _BETWEEN, _PRE):
                    add(_PRE, 0, prior)
                elif phase == _POST:
                    add(_POST, 0, prior)
                elif phase == _WORD and completed[node] is not None:
                    add(_POST, 0, prior + completed[node])
            # A symbol may extend the current word even when it is also
            # attaching punctuation (words can contain such characters).
            if phase in (_START, _BETWEEN, _PRE):
                child = self.lexicon.child(0, sym)
                if child is not None:
                    add(_WORD, child, prior)
            elif phase == _WORD:
                child = self.lexicon.child(node, sym)
                if child is not None:
                    add(_WORD, child, prior)

        if not best:
            return None
        top = max(best.values())
        return self._node(tuple(sorted((ph, nd, pr - top) for (ph, nd), pr in best.items())), top)


class _Intersection:
    """Both constraints at once: a prefix survives if both accept it, and
    weights and bonuses add. A state is the pair of the two constraints'
    states."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.initial = self._pair(first.initial, second.initial)

    @staticmethod
    def _pair(a: Node, b: Node) -> Node:
        final = None if a.final is None or b.final is None else a.final + b.final
        return Node((a.state, b.state), a.rank + b.rank, final, a.weight + b.weight)

    def extend(self, state, symbol_index: int):
        a = self.first.extend(state[0], symbol_index)
        if a is None:
            return None
        b = self.second.extend(state[1], symbol_index)
        if b is None:
            return None
        return self._pair(a, b)


def decode_dictionary(
    matrix: ConfidenceMatrix,
    lexicon: Lexicon,
    params: DecodeParams = DecodeParams(),
    expression_model: ExpressionModel | None = None,
) -> Hypothesis:
    """Best lexicon-constrained hypothesis for the matrix.

    ``expression_model`` optionally intersects the search with an
    expression FSA (dictionary decoding on top of expression rules). The
    hypothesis score is the full log-linear objective; word confidences
    are per-word CTC marginals over the decoded frame spans.
    """
    constraint = _LexiconConstraint(lexicon, matrix.alphabet, params)
    if expression_model is not None:
        expression_model.validate(matrix.alphabet)
        constraint = _Intersection(_FsaConstraint(expression_model, matrix.alphabet), constraint)
    prefix, mass, bonus = prefix_beam_search(
        matrix,
        constraint,
        beam_width=params.beam_width,
        min_symbol_prob=params.min_symbol_prob,
    )
    text = "".join(matrix.alphabet.symbols[i] for i in prefix)
    confs = marginal_word_confidences(matrix, text, lexicon.separator)
    return Hypothesis(text=text, score=mass + bonus, word_confidences=confs)
