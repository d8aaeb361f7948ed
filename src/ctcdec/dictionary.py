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
from typing import NamedTuple

import numpy as np

from .ctc import NEG_INF
from .errors import EmptyLexicon, NoAcceptedString
from .expressions import ExpressionModel
from .lexicon import Lexicon
from .matrix import ConfidenceMatrix
from .search import Compiled, _frozen, _hypotheses, _hypothesis, prefix_beam_search, prefix_beam_search_many
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
        if not 0 <= self.lm_weight < math.inf:
            raise ValueError("lm_weight must be finite and >= 0")
        if not math.isfinite(self.word_bonus):
            raise ValueError("word_bonus must be finite")
        if self.beam_width is not None and self.beam_width < 1:
            raise ValueError("beam_width must be >= 1 or None")
        if self.oov_policy not in OOV_POLICIES:
            raise ValueError(f"oov_policy must be one of {OOV_POLICIES}")
        if not 0.0 <= self.min_symbol_prob < 1.0:
            raise ValueError("min_symbol_prob must be in [0, 1)")


class Node(NamedTuple):
    """A lexicon state with its bonuses, as ``successors`` gives it.

    ``rank`` is the score bonus used when pruning (0 when scores are pure
    CTC mass); ``final`` is the bonus if the prefix is an accepted
    complete string, else ``None``; ``weight`` is the weight of the arc
    that reached this node. Equal states must have equal ``rank`` and
    ``final``.
    """

    state: object
    rank: float
    final: float | None
    weight: float = 0.0


# Parse phases for the word-by-word constraint.
_START, _BETWEEN, _PRE, _WORD, _POST = range(5)


class _LexiconConstraint:
    """Prefix-search constraint enforcing lexicon membership per word.

    A constraint state is a tuple of analyses ``(phase, trie_node,
    prior)``; several analyses coexist when punctuation is ambiguous
    between word-internal and attached (e.g. an apostrophe that may end
    the word or continue it). ``prior`` is the weighted unigram scores
    and word bonuses of completed words, relative to the best analysis:
    ``successors`` moves the best prior into the node's ``weight``, so
    states that differ only by the words before them are equal. Analyses
    sharing ``(phase, node)`` keep only the best prior.

    Construction is O(1) in the lexicon size. The search reads every row
    from :meth:`compiled`, built once per lexicon, alphabet and params:
    the rows of one-analysis states from the trie arrays, and those of
    states of several analyses from ``successors``, which merges the
    analyses of a state per symbol.
    """

    def __init__(self, lexicon: Lexicon, alphabet, params: DecodeParams):
        if len(lexicon) == 0:
            raise EmptyLexicon("cannot decode with an empty lexicon")
        self.lexicon = lexicon
        # What a compiled table depends on besides the lexicon; the floats
        # as hex, so that -0.0 and 0.0 get tables of their own.
        self._key = (
            alphabet.symbols, alphabet.nac_index,
            float(params.lm_weight).hex(), float(params.word_bonus).hex(), params.oov_policy,
        )
        self.lm_weight = params.lm_weight
        self.word_bonus = params.word_bonus
        self.log_total = math.log(lexicon.total_count)
        self.pass_punct = params.oov_policy == "pass-punct"
        self.index = {alphabet.symbols[i]: i for i in alphabet.printable_indices}
        self.separator = self.index.get(lexicon.separator)
        self.attach = frozenset(
            i for ch, i in self.index.items() if ch in lexicon.attach_chars and i != self.separator
        )
        self.root_children = self._indexed(0)
        self.initial = self._row_node({(_START, 0): 0.0})

    def prior(self, count: int) -> float:
        """Weighted unigram score plus word bonus of a word seen ``count`` times.

        Monotone in ``count`` (``lm_weight >= 0``), so the best prior of the
        words below a trie node is the prior of their best count.
        """
        return self.lm_weight * (math.log(count) - self.log_total) + self.word_bonus

    def lookahead(self, node: int) -> float:
        """Best prior of a word at or below trie ``node``, for pruning, so
        in-progress words rank comparably to completed ones."""
        return self.prior(self.lexicon.best_count[node])

    def completed(self, node: int) -> float | None:
        """Prior of the word ending at trie ``node`` (None: no word ends there)."""
        count = self.lexicon.word_count[node]
        return self.prior(count) if count else None

    def compiled(self, symbols: list[int]) -> Compiled:
        """The transitions over the search cells of ``symbols`` (cell ``i``
        holds ``symbols[i - 1]``), compiled on the first call and kept on
        the lexicon for every later search with the same alphabet and
        params."""
        key = (*self._key, tuple(symbols))
        tables = self.lexicon._tables
        if key not in tables:
            tables[key] = self._compile(symbols)
        return tables[key]

    def _compile(self, symbols: list[int]) -> Compiled:
        # State ids: START is 0 and the word at trie node n is n, then come
        # BETWEEN, PRE and POST, each one analysis of prior 0.0. After them
        # come the states of several analyses, in the order they are
        # reached. The arcs are built as int32; the kept ids are intp, as
        # the search indexes with them.
        lexicon = self.lexicon
        n = lexicon.parent.size
        between, pre, post = n, n + 1, n + 2
        states = n + 3
        cell_of = {s: c for c, s in enumerate(symbols, 1)}
        parent, cell = lexicon.parent.astype(np.int32), np.zeros(n, dtype=np.int32)
        distinct, at = np.unique(lexicon.char[1:], return_inverse=True)
        cell[1:] = np.array([cell_of.get(self.index.get(chr(c)), 0) for c in distinct.tolist()], dtype=np.int32)[at]
        # ``0.0 + prior`` of each node's word count (-inf: no word) and best
        # count, one ``math.log`` per distinct count, as ``successors`` has it.
        distinct, at = np.unique(np.concatenate((lexicon.word_count, lexicon.best_count)), return_inverse=True)
        prior = np.array([0.0 + self.prior(c) if c else NEG_INF for c in distinct.tolist()])
        done, best = prior[at[:n]], prior[at[n:]]
        rank, final = np.zeros(states), np.full(states, NEG_INF)
        rank[1:n], final[1:n] = best[1:], done[1:]
        final[[0, post]] = 0.0
        if self.pass_punct:
            final[pre] = 0.0
        # Where each state's attach arcs go (-1: it has none), and the weight
        # of its attach and separator arcs, a complete word's prior.
        complete = (done > NEG_INF).nonzero()[0].astype(np.int32)
        attach_to = np.full(states, -1, dtype=np.int32)
        attach_to[complete] = post
        attach_to[[0, between, pre, post]] = [pre, pre, pre, post]
        leave = np.zeros(states)
        leave[complete] = done[complete]
        attaching = (attach_to >= 0).nonzero()[0].astype(np.int32)
        separating = np.zeros(0, dtype=np.int32)
        if self.separator is not None:
            separating = np.append(complete, [post, pre] if self.pass_punct else [post]).astype(np.int32)

        # The arcs: the trie children (the root's from START, BETWEEN and
        # PRE), then each attaching state's attach arcs and separator arc,
        # then each state's stay (cell 0), which sorts first in its row.
        kids = cell.nonzero()[0].astype(np.int32)
        roots = kids[parent[kids] == 0]
        attach = np.array(sorted(cell_of[i] for i in self.attach), dtype=np.int32)
        between_of, pre_of = (np.full(roots.size, s, dtype=np.int32) for s in (between, pre))
        stay = np.arange(states, dtype=np.int32)
        src = np.concatenate((parent[kids], between_of, pre_of, attaching.repeat(attach.size), separating, stay))
        dst = np.concatenate(
            (kids, roots, roots, attach_to[attaching].repeat(attach.size), np.full(separating.size, between, dtype=np.int32), stay)
        )
        trie = kids.size + 2 * roots.size
        arc = np.concatenate((cell[dst[:trie]], np.tile(attach, attaching.size)))
        arc = np.concatenate((arc, np.full(separating.size, cell_of.get(self.separator, 0), dtype=np.int32), np.zeros_like(stay)))
        weight = leave[src]
        weight[:trie] = 0.0
        # A child by an attach symbol, from a state that attaches, reaches
        # two analyses: the longer word, or the word done and punctuation.
        # A state of several analyses gets the next id, and its row comes
        # from ``successors``, where it may reach more such states.
        fixed = {_START: 0, _BETWEEN: between, _PRE: pre, _POST: post}
        merged: dict = {}
        nodes: list[Node] = []

        def target(node: Node) -> int:
            (phase, at, _), *more = node.state
            if not more:
                return at if phase == _WORD else fixed[phase]
            if node.state not in merged:
                merged[node.state] = states + len(nodes)
                nodes.append(node)
            return merged[node.state]

        is_attach = np.zeros(len(symbols) + 1, dtype=bool)
        is_attach[attach] = True
        for x in (is_attach[arc[:trie]] & (attach_to[src[:trie]] >= 0)).nonzero()[0].tolist():
            s = int(src[x])
            attached = (_POST if attach_to[s] == post else _PRE, 0)
            node = self._row_node({(_WORD, int(dst[x])): 0.0, attached: float(leave[s])})
            dst[x], weight[x] = target(node), node.weight
        # Their stays and rows, in id order; the loop also visits the states
        # that ``target`` appends to ``nodes`` on the way.
        rows, lengths = [], []
        for node in nodes:
            row = self.successors(node.state)
            lengths.append(len(row))
            rows += [(0, 0, 0.0), *((cell_of[c], target(row[c]), row[c].weight) for c in sorted(row))]

        # Rows in state order, cells ascending. The sort is stable, so where
        # a child and an attach arc share a row's cell, the child's is kept.
        # The rows of several analyses follow.
        order = np.lexsort((arc, src))
        row, col = src[order], arc[order]
        order = order[np.concatenate(([True], (row[1:] != row[:-1]) | (col[1:] != col[:-1])))]
        del row, col  # before the kept arrays, to keep the peak down
        length = np.bincount(src[order], minlength=states + len(nodes)) - 1
        length[states:] = lengths
        size = order.size
        offset, child = (np.zeros(size + len(rows), dtype=np.intp) for _ in range(2))
        weights = np.zeros(size + len(rows))
        for out, values in ((offset, arc), (child, dst), (weights, weight)):
            out[:size] = values[order]
        del src, dst, arc, weight, order  # before the per-slot arrays
        if rows:
            offset[size:], child[size:], weights[size:] = zip(*rows)
        return _frozen(
            np.append(rank, [node.rank for node in nodes]),
            np.append(final, [NEG_INF if node.final is None else node.final for node in nodes]),
            length, offset, child, weights,
        )

    def successors(self, state) -> dict[int, Node]:
        # Per symbol index, the best prior of each (phase, node) it reaches;
        # what attaching punctuation reaches is the same for every attach
        # symbol, so it is collected once.
        rows: dict[int, dict[tuple[int, int], float]] = {}
        attached: dict[tuple[int, int], float] = {}

        def add(row: dict, phase: int, node: int, prior: float) -> None:
            if prior > row.get((phase, node), float("-inf")):
                row[phase, node] = prior

        for phase, node, prior in state:
            done = self.completed(node) if phase == _WORD else None
            if self.separator is not None:
                if done is not None:
                    add(rows.setdefault(self.separator, {}), _BETWEEN, 0, prior + done)
                elif phase == _POST or (phase == _PRE and self.pass_punct):
                    add(rows.setdefault(self.separator, {}), _BETWEEN, 0, prior)
            if phase in (_START, _BETWEEN, _PRE):
                add(attached, _PRE, 0, prior)
                word_children = self.root_children
            elif phase == _POST:
                add(attached, _POST, 0, prior)
                continue
            else:
                if done is not None:
                    add(attached, _POST, 0, prior + done)
                word_children = self._indexed(node)
            # A symbol may extend the current word even when it is also
            # attaching punctuation (words can contain such characters).
            for c, child in word_children:
                add(rows.setdefault(c, {}), _WORD, child, prior)

        if attached:
            for c in self.attach:
                if c in rows:
                    for (phase, node), prior in attached.items():
                        add(rows[c], phase, node, prior)
        out = {c: self._row_node(row) for c, row in rows.items()}
        if attached:
            shared = self._row_node(attached)
            for c in self.attach:
                out.setdefault(c, shared)
        return out

    def _indexed(self, node: int) -> list[tuple[int, int]]:
        """``(symbol_index, child)`` for the trie children of ``node`` in the alphabet."""
        index, kids = self.index, self.lexicon.children(node)
        chars = map(chr, self.lexicon.char[kids].tolist())
        return [(index[ch], child) for ch, child in zip(chars, kids.tolist()) if ch in index]

    def _row_node(self, row: dict[tuple[int, int], float]) -> Node:
        """The Node of one successor: priors relative to the best, which
        becomes the arc weight, with the best prior with look-ahead
        (``rank``) and the best prior as a complete line (``final``)."""
        top = max(row.values())
        analyses = tuple(sorted((ph, nd, pr - top) for (ph, nd), pr in row.items()))
        rank = final = None
        for phase, node, prior in analyses:
            bonus = prior + (self.lookahead(node) if phase == _WORD else 0.0)
            if rank is None or bonus > rank:
                rank = bonus
            if phase == _WORD:
                inc = self.completed(node)
                if inc is None:
                    continue
                total = prior + inc
            elif phase in (_START, _POST) or (phase == _PRE and self.pass_punct):
                total = prior
            else:
                continue
            if final is None or total > final:
                final = total
        return Node(analyses, rank, final, top)


class _Intersection:
    """Both constraints at once: a prefix survives if both accept it, and
    weights and bonuses add. Its table is the product of the two tables,
    kept on the lexicon under the bytes of the expression table."""

    def __init__(self, first, second: _LexiconConstraint):
        self.first = first
        self.second = second

    def compiled(self, symbols: list[int]) -> Compiled:
        rules = self.first.compiled(symbols)
        key = (*self.second._key, tuple(symbols), self.first.contents[tuple(symbols)])
        tables = self.second.lexicon._tables
        if key not in tables:
            tables[key] = _product(rules, self.second.compiled(symbols))
        return tables[key]


def _product(a: Compiled, b: Compiled) -> Compiled:
    """The intersection of two tables, over the pairs of states that the
    pair of initial states reaches, numbered breadth first: a pair's row
    holds the cells that both rows hold, and ranks, finals and arc weights
    add. ``a`` is read through a dense state-by-cell array, so it should be
    the smaller table."""
    na, nb = a.rank.size, b.rank.size
    # ``a``'s slot of each (state, cell), -1 where it has none (a stay's cell is 0).
    slots = np.full((na, int(max(a.offset.max(), b.offset.max())) + 1), -1, dtype=np.intp)
    slots[np.arange(na).repeat(a.length + 1), a.offset] = np.arange(a.offset.size)
    # Each pair is keyed ``state_a * nb + state_b``; ``ids`` numbers them.
    ids = np.full(na * nb, -1, dtype=np.intp)
    ids[0] = 0
    keys, level, n = [np.zeros(1, dtype=np.intp)], np.zeros(1, dtype=np.intp), 1
    lengths, offsets, children, weights = [], [], [], []
    while level.size:
        # ``b``'s stays and rows of the level's pairs, slot by slot, kept
        # where ``a``'s row has the cell too: a pair's stay is its two stays.
        pa, pb = np.divmod(level, nb)
        count = b.length[pb] + 1
        pair = np.arange(level.size).repeat(count)
        slot_b = np.arange(count.sum()) + (b.start[pb] - 1 - np.cumsum(count) + count).repeat(count)
        slot_a = slots[pa[pair], b.offset[slot_b]]
        both = (slot_a >= 0).nonzero()[0]
        pair, slot_a, slot_b = pair[both], slot_a[both], slot_b[both]
        lengths.append(np.bincount(pair, minlength=level.size) - 1)
        # The pairs reached, numbered in key order: the next level.
        key = a.child[slot_a] * nb + b.child[slot_b]
        level = np.unique(key[ids[key] < 0])
        ids[level] = np.arange(n, n + level.size)
        n += level.size
        keys.append(level)
        offsets.append(b.offset[slot_b])
        children.append(ids[key])
        weights.append(a.weight[slot_a] + b.weight[slot_b])
    ka, kb = np.divmod(np.concatenate(keys), nb)
    return _frozen(
        a.rank[ka] + b.rank[kb],
        a.final[ka] + b.final[kb],
        np.concatenate(lengths),
        *(np.concatenate(arrays) for arrays in (offsets, children, weights)),
    )


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
    constraint = _constraint(lexicon, matrix.alphabet, params, expression_model)
    found = prefix_beam_search(
        matrix,
        constraint,
        beam_width=params.beam_width,
        min_symbol_prob=params.min_symbol_prob,
    )
    return _hypothesis(matrix, lexicon.separator, *found)


def _decode_dictionary_many(
    matrices: list[ConfidenceMatrix],
    lexicon: Lexicon,
    params: DecodeParams,
    expression_model: ExpressionModel | None = None,
) -> list[Hypothesis | NoAcceptedString]:
    """:func:`decode_dictionary` of each matrix (the experts of one line),
    as one search under one constraint.

    Errors that do not depend on a matrix (an empty lexicon, an invalid
    expression model, experts with different alphabets) raise; an
    expert whose search finds no accepted string gets the
    :class:`NoAcceptedString` in its place.
    """
    constraint = _constraint(lexicon, matrices[0].alphabet, params, expression_model)
    found = prefix_beam_search_many(
        matrices,
        constraint,
        beam_width=params.beam_width,
        min_symbol_prob=params.min_symbol_prob,
    )
    return _hypotheses(matrices, lexicon.separator, found)


def _constraint(lexicon: Lexicon, alphabet, params: DecodeParams, expression_model):
    """The lexicon constraint, intersected with the expression model if any."""
    constraint = _LexiconConstraint(lexicon, alphabet, params)
    if expression_model is not None:
        constraint = _Intersection(expression_model._constraint(alphabet), constraint)
    return constraint
